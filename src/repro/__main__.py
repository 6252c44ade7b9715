"""``python -m repro`` — a small interactive AQL shell.

Commands (backslash-prefixed) manage the session; anything else is an
AQL query (see :mod:`repro.query.aql`)::

    \\load FILE          load a database serialized with \\save
    \\save FILE          serialize the current database to FILE
    \\demo               load the built-in demo database
    \\doc FILE [ROOT]    ingest a JSON/XML/HTML document, bind it as ROOT
    \\roots              list named roots
    \\extents            list extents and sizes
    \\explain QUERY      show the optimization story for an AQL query
    \\analyze QUERY      run the query instrumented: estimated vs. actual
    \\noopt QUERY        run a query without the optimizer
    \\prepare QUERY      plan a query into the session's plan cache
    \\cache [clear]      show (or clear) plan-cache entries and counters
    \\stats              show instrumentation counters
    \\budget [K=V ...]   show or set execution limits (\\budget off clears)
    \\faults             show the active fault-injection plan
    \\help               this text
    \\quit               exit

The SQL-style verbs ``EXPLAIN QUERY`` and ``EXPLAIN ANALYZE QUERY`` work
too: the former is ``\\explain``, the latter runs the optimized plan
through the instrumented executor and prints each operator's estimated
vs. actual rows, cost units, per-operator time and counters.

Non-interactive usage: ``python -m repro -c 'root T | sub_select "d"'``
runs one query against the demo database (or ``--db FILE``) and prints
the result — handy for scripting and for the test suite.  A failed
one-shot command prints a one-line ``error:`` diagnostic and exits
nonzero.

Execution limits: the shell arms a :class:`~repro.guardrails.Budget`
(from the ``AQUA_*`` environment knobs, adjustable with ``\\budget``)
around every query, so a runaway pattern trips a structured
``ResourceExhaustedError`` instead of hanging the session.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any

from . import context, faults
from .api import Session
from .core import AquaList, AquaSet, AquaTree
from .docstore import load_document
from .errors import AquaError, ResourceExhaustedError
from .guardrails import Budget
from .plan.metrics import PlanMetrics
from .query import (
    PlanCache,
    evaluate,
    explain_optimization,
    explain_physical,
    parse_aql,
    render_analysis,
    render_planning,
)
from .storage import Database
from .storage.serialize import dump_database, load_database
from .storage.stats import Instrumentation
from .workloads import figure3_family_tree, figure5_parse_tree, song_with_melody

#: ``\budget`` accepts both the Budget field names and these short forms.
_BUDGET_ALIASES = {
    "deadline": "deadline_seconds",
    "steps": "max_steps",
    "depth": "max_backtrack_depth",
    "results": "max_results",
    "nodes": "max_nodes_scanned",
}


def demo_database() -> Database:
    """The database the examples use: family tree, song, parse tree."""
    db = Database()
    db.bind_root("family", figure3_family_tree())
    db.bind_root("song", song_with_melody(60, ["A", "C", "D", "F"], 2, seed=11))
    db.bind_root("plan", figure5_parse_tree())
    return db


def render(value: Any) -> str:
    """Human-friendly rendering of a query result."""
    if isinstance(value, AquaTree):
        return value.to_notation(_label)
    if isinstance(value, AquaList):
        return value.to_notation(_label)
    if isinstance(value, AquaSet):
        members = [render(v) for v in value]
        body = "\n".join(f"  {m}" for m in sorted(members))
        return f"{{{len(members)} result(s)}}\n{body}" if members else "{0 results}"
    return repr(value)


def _label(payload: Any) -> str:
    for attribute in ("name", "pitch", "OpName", "tag", "kind", "label"):
        value = getattr(payload, attribute, None)
        if value is not None:
            return str(value)
    return str(payload)


class Shell:
    def __init__(self, db: Database | None = None, budget: Budget | None = None) -> None:
        self.db = db or demo_database()
        self.budget = budget if budget is not None else Budget.from_env()
        self.plan_cache = PlanCache()
        self.last_error: Exception | None = None

    def session(self) -> Session:
        """A Session over the current database and the shell's cache."""
        return Session(self.db, plan_cache=self.plan_cache)

    def execute(self, line: str) -> str:
        """Run one shell line and return the printable response.

        Every :class:`~repro.errors.AquaError` — including a tripped
        budget or an injected fault — comes back as a one-line
        ``error:`` diagnostic; the session itself never dies.
        """
        line = line.strip()
        if not line:
            return ""
        self.last_error = None
        try:
            with context.entered(self.budget.arm):
                if line.startswith("\\"):
                    return self._command(line[1:])
                upper = line.upper()
                if upper.startswith("EXPLAIN ANALYZE "):
                    return self._analyze(line[len("EXPLAIN ANALYZE "):])
                if upper.startswith("EXPLAIN "):
                    return self._command("explain " + line[len("EXPLAIN "):])
                return render(self.session().query(line))
        except AquaError as exc:
            self.last_error = exc
            return diagnose(exc)
        except FileNotFoundError as exc:
            self.last_error = exc
            return f"error: {exc}"

    def _command(self, text: str) -> str:
        name, _, argument = text.partition(" ")
        argument = argument.strip()
        if name == "help":
            return __doc__ or ""
        if name == "demo":
            self.db = demo_database()
            return "demo database loaded"
        if name == "doc":
            return self._doc(argument)
        if name == "roots":
            return "\n".join(self.db.roots()) or "(no roots)"
        if name == "extents":
            return (
                "\n".join(
                    f"{name}: {self.db.extent_size(name)}"
                    for name in self.db.extents()
                )
                or "(no extents)"
            )
        if name == "stats":
            snapshot = self.db.stats.snapshot()
            return (
                "\n".join(f"{k}: {v}" for k, v in sorted(snapshot.items()))
                or "(no counters)"
            )
        if name == "explain":
            return explain_optimization(parse_aql(argument), self.db)
        if name == "analyze":
            return self._analyze(argument)
        if name == "prepare":
            return self._prepare(argument)
        if name == "cache":
            return self._cache(argument)
        if name == "budget":
            return self._budget(argument)
        if name == "faults":
            plan = faults.active_plan()
            if plan is None:
                return "(no fault injection active)"
            report = plan.snapshot()
            lines = [f"seed: {report['seed']}"]
            for seam, rules in report["rules"].items():
                specs = ", ".join(
                    f"{rule['kind']} p={rule['probability']}"
                    + (f" value={rule['value']}" if rule["value"] else "")
                    for rule in rules
                )
                lines.append(
                    f"{seam}: {specs}  "
                    f"(hits={report['hits'].get(seam, 0)}, "
                    f"fired={report['fired'].get(seam, 0)})"
                )
            return "\n".join(lines)
        if name == "noopt":
            return render(evaluate(parse_aql(argument), self.db))
        if name == "save":
            with open(argument, "w") as handle:
                json.dump(dump_database(self.db), handle)
            return f"saved to {argument}"
        if name == "load":
            with open(argument) as handle:
                self.db = load_database(json.load(handle))
            return f"loaded {argument}"
        if name in ("quit", "exit"):
            raise SystemExit(0)
        return f"unknown command \\{name} (try \\help)"

    def _doc(self, argument: str) -> str:
        """``\\doc``: ingest a document file into the current database.

        The document's tree is bound as a named root (default ``doc``)
        and indexed over ``(tag, kind)``, so path queries against it are
        ordinary AQL: ``root doc | path "//article[@lang='en']//p"``.
        """
        if not argument:
            return "error: \\doc needs a file (.json/.xml/.html), optionally a root name"
        parts = argument.split()
        if len(parts) > 2:
            return "error: \\doc takes a file and an optional root name"
        root = parts[1] if len(parts) > 1 else "doc"
        document = load_document(parts[0], name=root, db=self.db)
        return (
            f"loaded {parts[0]} as root {root!r}"
            f" ({document.format}, {document.tree.size()} nodes);"
            f' try: root {root} | path "//tag"'
        )

    def _budget(self, argument: str) -> str:
        """``\\budget``: show, set (``knob=value``), or clear limits."""
        if not argument:
            return f"budget: {self.budget.describe()}"
        if argument in ("off", "none"):
            self.budget = Budget()
            return "budget cleared (unlimited)"
        values: dict[str, Any] = {}
        valid = {f.name for f in dataclasses.fields(Budget)} - {"token"}
        for token in argument.split():
            knob, eq, raw = token.partition("=")
            knob = _BUDGET_ALIASES.get(knob, knob)
            if not eq or knob not in valid:
                options = ", ".join(sorted(valid | set(_BUDGET_ALIASES)))
                return f"error: \\budget expects knob=value pairs ({options}) or 'off'"
            if raw.lower() in ("none", "off"):
                values[knob] = None
                continue
            try:
                values[knob] = float(raw) if knob == "deadline_seconds" else int(raw)
            except ValueError:
                return f"error: {knob} needs a number, got {raw!r}"
        self.budget = dataclasses.replace(self.budget, **values)
        return f"budget: {self.budget.describe()}"

    def _analyze(self, query: str) -> str:
        """EXPLAIN ANALYZE: prepare (cached), run instrumented, render.

        The planning footer shows the plan-cache traffic this statement
        caused — a repeated query renders ``plan_cache_hits=1`` with zero
        rewrites and zero pattern compilations.  On a budget trip the
        partial metrics collected so far are still rendered, so the user
        sees *where* in the plan the limit hit.
        """
        planning = Instrumentation()
        with context.entered(receiver=planning):
            prepared = self.session().prepare(query)
        plan = prepared.plan
        footer = render_planning(planning)
        pipeline = (
            "Lowered pipeline:\n" + explain_physical(plan, self.db, indent=1)
        )
        metrics = PlanMetrics()
        try:
            _, metrics = prepared.run_with_metrics(metrics=metrics)
        except ResourceExhaustedError as exc:
            self.last_error = exc
            partial = exc.metrics if exc.metrics is not None else metrics
            return (
                f"{diagnose(exc)}\n"
                "-- partial plan metrics (execution stopped here) --\n"
                f"{render_analysis(plan, self.db, partial)}\n{footer}\n\n{pipeline}"
            )
        return f"{render_analysis(plan, self.db, metrics)}\n{footer}\n\n{pipeline}"

    def _prepare(self, query: str) -> str:
        """``\\prepare``: plan (or fetch) a query, reporting how it was served."""
        if not query:
            return "error: \\prepare needs an AQL query"
        before = self.plan_cache.hits
        prepared = self.session().prepare(query)
        served = (
            "served from plan cache"
            if self.plan_cache.hits > before
            else "planned and cached"
        )
        return f"{prepared!r}\n{served}"

    def _cache(self, argument: str) -> str:
        """``\\cache``: plan-cache counters; ``\\cache clear`` empties it."""
        if argument in ("clear",):
            self.plan_cache.clear()
            return "plan cache cleared"
        if argument:
            return "error: \\cache takes no argument (or 'clear')"
        snapshot = self.plan_cache.snapshot()
        return "\n".join(f"{k}: {v}" for k, v in snapshot.items())

    def repl(self) -> None:  # pragma: no cover - interactive loop
        print("AQUA shell — \\help for commands, \\quit to exit")
        while True:
            try:
                line = input("aqua> ")
            except (EOFError, KeyboardInterrupt):
                print()
                return
            try:
                response = self.execute(line)
            except KeyboardInterrupt:
                print("(interrupted)")
                continue
            if response:
                print(response)


def diagnose(exc: Exception) -> str:
    """One-line ``error:`` diagnostic for any engine failure."""
    message = " ".join(str(exc).split())
    if isinstance(exc, ResourceExhaustedError) and exc.operator is not None:
        message += f" [operator {exc.operator} at plan path {list(exc.plan_path or ())}]"
    return f"error: {message}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    parser.add_argument("-c", "--command", help="run one AQL query and exit")
    parser.add_argument("--db", help="load this serialized database first")
    parser.add_argument("--explain", action="store_true", help="explain instead of run")
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="run instrumented and print estimated vs. actual per operator",
    )
    arguments = parser.parse_args(argv)

    db: Database | None = None
    if arguments.db:
        try:
            with open(arguments.db) as handle:
                db = load_database(json.load(handle))
        except (AquaError, OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load {arguments.db}: {exc}", file=sys.stderr)
            return 1
    shell = Shell(db)

    if arguments.command:
        if arguments.analyze:
            print(shell.execute(f"\\analyze {arguments.command}"))
        elif arguments.explain:
            print(shell.execute(f"\\explain {arguments.command}"))
        else:
            print(shell.execute(arguments.command))
        return 1 if shell.last_error is not None else 0

    shell.repl()
    return 0


if __name__ == "__main__":
    sys.exit(main())
