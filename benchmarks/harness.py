"""Standalone experiment harness: prints the paper-vs-measured summary.

Run with ``python benchmarks/harness.py``.  For every experiment in
DESIGN.md §4 it reproduces the figure/claim, measures the competing
plans, and prints the rows EXPERIMENTS.md records: who wins, by what
factor, and where the crossover sits.  (pytest-benchmark gives the
rigorous timings; this harness gives the one-screen story.)

``--json PATH`` additionally writes the rows as machine-readable
records; the index-vs-scan claims (CLAIM-SPLIT, CLAIM-MELODY) attach
per-operator runtime metrics from the instrumented executor — the same
rows/counters/time data ``EXPLAIN ANALYZE`` renders.

Each experiment runs under the ``AQUA_*`` execution budget (see README
"Execution limits & fault injection"): a tripped limit aborts that
experiment with a diagnostic row instead of hanging the harness, and
the JSON output leads with a ``BUDGET`` record carrying the configured
limits and which experiments (if any) tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Callable

from repro import guardrails
from repro.errors import AquaError
from repro.guardrails import Budget

from repro.algebra import (
    select,
    split,
    split_list_pieces,
    split_pieces,
    sub_select,
    sub_select_list,
)
from repro.algebra.list_tree_bridge import sub_select_via_tree
from repro.api import Session
from repro.core import alpha, make_tuple, parse_tree
from repro.patterns import (
    MatchContextRegistry,
    compile_dfa,
    find_spans,
    find_tree_matches,
    match_scope,
    nfa_find_spans,
    parse_list_pattern,
    parse_tree_pattern,
    tree_in_language,
)
from repro.predicates import attr
from repro.query import Q, evaluate, evaluate_with_metrics
from repro.query import expr as E
from repro.storage import Database
from repro.core.identity import Record
from repro.storage.stats import Instrumentation
from repro.workloads import (
    BRAZIL,
    by_citizen_or_name,
    by_element,
    by_op_name,
    by_pitch,
    element,
    figure3_family_tree,
    figure5_parse_tree,
    random_algebra_tree,
    random_c_program,
    random_family_tree,
    random_labeled_tree,
    random_list,
    random_rna_structure,
    section5_rebuild,
    song_with_melody,
)


def timed(function: Callable[[], object], repeat: int = 3) -> tuple[float, object]:
    best = float("inf")
    result: object = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


#: Machine-readable records mirroring the printed rows (``--json``).
RECORDS: list[dict[str, Any]] = []


def row(experiment: str, line: str, **extra: Any) -> None:
    print(f"{experiment:<14} {line}")
    RECORDS.append({"experiment": experiment, "line": line, **extra})


def operator_metrics(query, db, *, optimize: bool = False) -> list[dict[str, Any]]:
    """Per-operator runtime metrics for one instrumented run of ``query``."""
    with db.stats.scope():
        if optimize:
            _, metrics = Session(db).query_with_metrics(query, optimize=True)
        else:
            _, metrics = evaluate_with_metrics(query, db)
    return metrics.to_records()


def fig1() -> None:
    target = parse_tree("a(b(d(fg)e)c)")
    combined = (
        parse_tree("a(@1 @2)")
        .concat(alpha(1), parse_tree("b(d(fg)e)"))
        .concat(alpha(2), parse_tree("c"))
    )
    pattern = parse_tree_pattern("[[a(@1 @2)]] .@1 [[b(d(f g) e)]] .@2 c")
    row(
        "FIG1",
        f"value-level concat == figure: {combined == target}; "
        f"pattern-level membership: {tree_in_language(pattern, target)}",
    )


def fig2() -> None:
    pattern = parse_tree_pattern("[[a(b c @)]]*@")
    from repro.core import AquaTree

    tree = AquaTree.build("a", ["b", "c"])
    memberships = []
    for _ in range(4):
        memberships.append(tree_in_language(pattern, tree))
        tree = AquaTree.build("a", ["b", "c", tree])
    row("FIG2", f"first four self-concatenations in L: {all(memberships)}")


def fig3() -> None:
    family = figure3_family_tree()
    (survivors,) = select(BRAZIL, family)
    row(
        "FIG3",
        "select(Brazil) = "
        + survivors.to_notation(lambda p: p.name)
        + " (Ed contracted away)",
    )


def fig4() -> None:
    family = figure3_family_tree()
    result = split(
        "Brazil(!?* USA !?*)",
        lambda x, y, z: make_tuple(x, y, z),
        family,
        resolver=by_citizen_or_name,
    )
    x, y, z = next(iter(result))
    name = lambda p: p.name
    (piece,) = split_pieces("Brazil(!?* USA !?*)", family, resolver=by_citizen_or_name)
    row(
        "FIG4",
        f"x={x.to_notation(name)}  y={y.to_notation(name)}  "
        f"z={[t.to_notation(name) for t in z.values()]}  "
        f"reassembles={piece.reassembled() == family}",
    )


def fig5() -> None:
    tree = figure5_parse_tree()
    (rewritten,) = split("select(!? and)", section5_rebuild, tree, resolver=by_op_name)
    big = random_algebra_tree(800, seed=5, planted_redexes=8)
    naive_time, matches = timed(
        lambda: sub_select("select(!? and)", big, resolver=by_op_name)
    )
    row(
        "FIG5",
        f"rewrite: {rewritten.to_notation(lambda v: v.OpName)}; "
        f"redex scan on 800-node tree: {naive_time * 1e3:.1f} ms, {len(matches)} redexes",
    )


def claim_split() -> None:
    labels = ["d", "e", "h", "i", "j", "u", "v", "w", "x", "y"]
    weights = [1.0] + [11.0] * 9
    tree = random_labeled_tree(6000, labels, seed=42, weights=weights)
    db = Database()
    db.bind_root("T", tree)
    db.tree_index(tree)
    query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
    session = Session(db)
    naive_time, naive = timed(lambda: evaluate(query, db))
    indexed_time, indexed = timed(lambda: session.query(query, optimize=True))
    assert naive == indexed
    row(
        "CLAIM-SPLIT",
        f"naive {naive_time * 1e3:.1f} ms vs indexed {indexed_time * 1e3:.1f} ms "
        f"(x{naive_time / max(indexed_time, 1e-9):.1f}) at ~1% anchor selectivity, n=6000",
        naive_ms=naive_time * 1e3,
        indexed_ms=indexed_time * 1e3,
        naive_operators=operator_metrics(query, db),
        indexed_operators=operator_metrics(query, db, optimize=True),
    )


def claim_conjunct() -> None:
    db = Database()
    db.insert_many(
        [
            Record(name=f"p{i}", age=i % 60, city=f"C{i % 50}", salary=i % 9000)
            for i in range(20000)
        ],
        "Person",
    )
    db.create_index("Person", "city")
    query = (
        Q.extent("Person")
        .sselect((attr("age") > 30) & (attr("city") == "C3") & (attr("salary") > 1000))
        .build()
    )
    session = Session(db)
    naive_time, naive = timed(lambda: evaluate(query, db))
    indexed_time, indexed = timed(lambda: session.query(query, optimize=True))
    assert naive == indexed
    row(
        "CLAIM-CONJ",
        f"naive {naive_time * 1e3:.1f} ms vs decomposed {indexed_time * 1e3:.1f} ms "
        f"(x{naive_time / max(indexed_time, 1e-9):.1f}) on 20k extent, 2% index selectivity",
    )


def claim_kleene() -> None:
    structure = random_rna_structure(1500, seed=7)
    pattern = parse_tree_pattern("[[S(B(@))]]+@ .@ S(H)", resolver=by_element)
    db = Database()
    index = db.tree_index(structure, ["kind"])
    naive_time, naive = timed(lambda: find_tree_matches(pattern, structure))

    def anchored():
        candidates, _ = index.candidate_nodes(by_element("S"))
        roots = [
            n
            for n in candidates
            if n.children and getattr(n.children[0].value, "kind", "") == "B"
        ]
        return find_tree_matches(pattern, structure, roots=roots)

    anchored_time, anchored_matches = timed(anchored)
    assert {m.key() for m in naive} == {m.key() for m in anchored_matches}
    row(
        "CLAIM-KLEENE",
        f"closure query naive {naive_time * 1e3:.1f} ms vs anchored "
        f"{anchored_time * 1e3:.1f} ms (x{naive_time / max(anchored_time, 1e-9):.1f}), "
        f"{len(naive)} ladders in a {structure.size()}-node structure",
    )


def claim_memo() -> None:
    """Footnote 3 revisited: the matcher's packrat tables vs none.

    The reference leg arms a registry of null-table contexts — the same
    matcher, tabling nothing: the plain backtracker.  Measures matcher
    steps and wall time (min of 5), tables off vs on,
    over the three workloads CI gates on: the CLAIM-KLEENE closure
    ladder (tables engage everywhere), the FIG4 family-tree split
    (closure-free, narrow child lists: tables stay out of the way), and
    a closure-free dead-end over one 80-child node (the fan-out gate
    engages the child-sequence tables).
    """
    from repro.core import AquaTree

    ladder = parse_tree_pattern("[[S(B(@))]]+@ .@ S(H)", resolver=by_element)
    ladder_chain = AquaTree.build(element("S"), [AquaTree.leaf(element("H"))])
    for _ in range(64):
        ladder_chain = AquaTree.build(
            element("S"), [AquaTree.build(element("B"), [ladder_chain])]
        )
    structure = random_rna_structure(1500, seed=7)
    family = random_family_tree(2000, seed=8, planted_matches=8)
    dead_end = parse_tree_pattern("a(?* b ?* c ?* b ?* z ?*)")
    wide = AquaTree.build("a", [AquaTree.leaf("bcx"[i % 3]) for i in range(80)])

    def kleene_run():
        return (
            [m.key() for m in find_tree_matches(ladder, ladder_chain)],
            [m.key() for m in find_tree_matches(ladder, structure)],
        )

    def fig4_run():
        pieces = split_pieces(
            "Brazil(!?* USA !?*)", family, resolver=by_citizen_or_name
        )
        return len(pieces)

    def wide_run():
        return [m.key() for m in find_tree_matches(dead_end, wide)]

    def untabled(run):
        def leg():
            with match_scope(registry=MatchContextRegistry(tabled=False)):
                return run()

        return leg

    for workload, run in (
        ("bench_claim_kleene", kleene_run),
        ("bench_fig4_split", fig4_run),
        ("wide_dead_end", wide_run),
    ):
        measured: dict[str, dict[str, float]] = {}
        answers = {}
        for engine, leg in (("backtrack", untabled(run)), ("memo", run)):
            stats = Instrumentation()
            with stats.activated():
                answers[engine] = leg()
            elapsed, _ = timed(leg, repeat=5)
            measured[engine] = {
                "steps": stats["backtrack_steps"],
                "ms": elapsed * 1e3,
            }
        assert answers["memo"] == answers["backtrack"]
        off, on = measured["backtrack"], measured["memo"]
        row(
            "CLAIM-MEMO",
            f"{workload}: matcher steps {off['steps']:.0f} → {on['steps']:.0f} "
            f"(x{off['steps'] / max(on['steps'], 1):.1f}), "
            f"wall {off['ms']:.1f} ms → {on['ms']:.1f} ms",
            workload=workload,
            backtrack_steps=off["steps"],
            memo_steps=on["steps"],
            backtrack_ms=off["ms"],
            memo_ms=on["ms"],
        )


def claim_printf() -> None:
    program = random_c_program(5000, seed=3, printf_count=25, double_ref_count=7)
    pattern = "printf(?* LargeData ?* LargeData ?*)"
    naive_time, hits = timed(lambda: sub_select(pattern, program, resolver=by_op_name))
    row(
        "CLAIM-PRINTF",
        f"{len(hits)} double-LargeData printfs found in {naive_time * 1e3:.1f} ms "
        f"over a {program.size()}-node C parse tree",
    )


def claim_melody() -> None:
    song = song_with_melody(8000, ["A", "C", "D", "F"], occurrences=5, seed=11)
    db = Database()
    db.bind_root("song", song)
    db.list_index(song, ["pitch"])
    query = Q.root("song").lsub_select("[A??F]", resolver=by_pitch).build()
    session = Session(db)
    naive_time, naive = timed(lambda: evaluate(query, db))
    indexed_time, indexed = timed(lambda: session.query(query, optimize=True))
    assert naive == indexed
    pieces = split_list_pieces("[A??F]", song, resolver=by_pitch)
    row(
        "CLAIM-MELODY",
        f"naive {naive_time * 1e3:.1f} ms vs indexed {indexed_time * 1e3:.1f} ms "
        f"(x{naive_time / max(indexed_time, 1e-9):.1f}); "
        f"reassembly holds for all {len(pieces)} matches",
        naive_ms=naive_time * 1e3,
        indexed_ms=indexed_time * 1e3,
        naive_operators=operator_metrics(query, db),
        indexed_operators=operator_metrics(query, db, optimize=True),
    )


def claim_prepared() -> None:
    """PR 5: prepared queries — cold vs warm plan-cache planning cost.

    Prepares the CLAIM-SPLIT anchor query (AQL text) and the FIG4 split
    (built expression) twice against one Session: the first prepare pays
    the optimizer rewrites and pattern compilations, the second is a
    pure plan-cache hit.  CI gates on the warm path doing *strictly
    fewer* planning steps (rewrites + compilations) than the cold path.
    """
    from repro.api import Session
    from repro.query import PlanCache
    from repro.query.explain import PLANNING_COUNTERS

    labels = ["d", "e", "h", "i", "j", "u", "v", "w", "x", "y"]
    weights = [1.0] + [11.0] * 9
    tree = random_labeled_tree(6000, labels, seed=42, weights=weights)
    split_db = Database()
    split_db.bind_root("T", tree)
    split_db.tree_index(tree)

    family = random_family_tree(2000, seed=8, planted_matches=8)
    family_db = Database()
    family_db.bind_root("family", family)
    family_db.tree_index(family, ["citizen", "name"])
    family_query = (
        Q.root("family")
        .split("Brazil(!?* USA !?*)", make_tuple, resolver=by_citizen_or_name)
        .build()
    )

    for workload, db, source in (
        ("bench_claim_split_index", split_db, 'root T | sub_select "d(e(h i) j ?*)"'),
        ("bench_fig4_split", family_db, family_query),
    ):
        session = Session(db, plan_cache=PlanCache())

        def plan_once(session=session, source=source):
            sink = Instrumentation()
            with sink.activated():
                start = time.perf_counter()
                prepared = session.prepare(source, optimize=True)
                elapsed = time.perf_counter() - start
            steps = sink["optimizer_rewrites"] + sink["pattern_compilations"]
            counters = {name: sink[name] for name in PLANNING_COUNTERS}
            return prepared, elapsed, steps, counters

        cold_prepared, cold_s, cold_steps, cold_counters = plan_once()
        warm_prepared, warm_s, warm_steps, warm_counters = plan_once()
        assert warm_prepared is cold_prepared
        assert warm_counters["plan_cache_hits"] == 1
        row(
            "CLAIM-PREPARED",
            f"{workload}: planning {cold_s * 1e3:.2f} ms cold → {warm_s * 1e3:.3f} ms warm "
            f"(x{cold_s / max(warm_s, 1e-9):.0f}); planning steps {cold_steps} → {warm_steps}",
            workload=workload,
            cold_ms=cold_s * 1e3,
            warm_ms=warm_s * 1e3,
            cold_planning_steps=cold_steps,
            warm_planning_steps=warm_steps,
            cold_planning=cold_counters,
            warm_planning=warm_counters,
        )


def claim_list_tree() -> None:
    values = random_list(600, "abcdefg", seed=9)
    pattern = parse_list_pattern("[a??b]")
    native_time, native = timed(lambda: sub_select_list(pattern, values))
    tree_time, via_tree = timed(lambda: sub_select_via_tree(pattern, values))
    assert native == via_tree
    row(
        "CLAIM-LISTTREE",
        f"same answers (§6 equivalence); native list engine {native_time * 1e3:.1f} ms,"
        f" tree engine on the chain {tree_time * 1e3:.1f} ms",
    )


def claim_engines() -> None:
    from repro.patterns.list_match import find_list_matches

    benign = parse_list_pattern("[a??f]")
    values = random_list(1500, "abcdef", seed=13).values()
    bt_time, spans = timed(lambda: find_spans(benign, values))
    nfa_time, nfa_spans = timed(lambda: nfa_find_spans(benign, values))
    assert spans == nfa_spans
    # Span queries stay polynomial on the classic pathological pattern
    # (memoized spans / DFA); only *derivation enumeration* — needed when
    # prune structures differ — is inherently exponential.
    pathological = parse_list_pattern("^[[[a|a]]*]$")
    span_time, _ = timed(lambda: find_spans(pathological, ["a"] * 512))
    dfa = compile_dfa(pathological)
    dfa_time, accepted = timed(lambda: dfa.accepts(["a"] * 4096))
    assert accepted
    derivations = parse_list_pattern("[[[!a | a]]*]")
    deriv_time, deriv_matches = timed(
        lambda: find_list_matches(derivations, ["a"] * 12), repeat=1
    )
    row(
        "CLAIM-DFA",
        f"benign 1500 elems: backtrack {bt_time * 1e3:.1f} ms / NFA {nfa_time * 1e3:.1f} ms; "
        f"pathological spans 512 elems {span_time * 1e3:.1f} ms, DFA 4096 elems "
        f"{dfa_time * 1e3:.2f} ms; prune-derivation enumeration: "
        f"{len(deriv_matches)} matches in {deriv_time * 1e3:.0f} ms on 12 elems",
    )


def claim_columnar() -> None:
    """PR 8: the columnar tree kernel — batch bitset filtering vs node-at-a-time.

    Two n=100k workloads at ~1% anchor selectivity, kernel pinned off
    (the per-node scan every prior PR used) vs on (shared predicate
    columns select candidate roots in bulk).  Both legs run the *same
    logical plan* through the same executor — only candidate selection
    differs — so the result sets must be bit-identical.  CI gates
    ``speedup_x >= 10`` and ``identical`` for both workloads
    (BENCH_PR8.json), once per backend (pure-Python ints and numpy).

    The fig4 leg times split-site *discovery* (``sub_select`` of the
    split pattern): building the 24 split pieces themselves rebuilds a
    100k-node remainder tree per piece, an O(answer) cost both legs pay
    identically that would drown the matching signal.  The full split
    is still checked bit-identical off-vs-on at n=20k below.
    """
    from repro import config
    from repro.storage.columnar import resolve_backend

    size = 100_000
    labels = ["d", "e", "h", "i", "j", "u", "v", "w", "x", "y"]
    weights = [1.0] + [11.0] * 9
    labeled = random_labeled_tree(size, labels, seed=42, weights=weights)
    labeled_db = Database()
    labeled_db.bind_root("T", labeled)
    labeled_query = Q.root("T").sub_select("d(e(h i) j ?*)").build()

    family = random_family_tree(size, seed=8, planted_matches=24)
    family_db = Database()
    family_db.bind_root("family", family)
    family_query = (
        Q.root("family")
        .sub_select("Brazil(!?* USA !?*)", resolver=by_citizen_or_name)
        .build()
    )

    # Full Figure 4 split, off vs on, at a scale where the O(answer)
    # piece construction stays affordable: the whole split answer —
    # every (x, y, z) tuple — must be bit-identical.
    small_family = random_family_tree(20_000, seed=8, planted_matches=8)
    small_db = Database()
    small_db.bind_root("family", small_family)
    split_query = (
        Q.root("family")
        .split("Brazil(!?* USA !?*)", make_tuple, resolver=by_citizen_or_name)
        .build()
    )
    with config.columnar_scope("off"):
        split_off = evaluate(split_query, small_db)
    with config.columnar_scope("on"):
        split_on = evaluate(split_query, small_db)
    assert split_off == split_on, "fig4 split diverged under the columnar kernel"

    backend = resolve_backend()
    counter_names = (
        "column_builds",
        "column_rows",
        "column_hits",
        "columnar_roots",
        "columnar_pruned",
        "nodes_scanned",
    )
    for workload, db, query, detail in (
        ("bench_claim_split_index", labeled_db, labeled_query, "deep sub_select"),
        ("bench_fig4_split", family_db, family_query, "split-site discovery"),
    ):
        with config.columnar_scope("off"):
            scan_time, scan_result = timed(lambda: evaluate(query, db))
        with config.columnar_scope("on"):
            evaluate(query, db)  # warm the predicate columns once
            columnar_time, columnar_result = timed(lambda: evaluate(query, db))
            with db.stats.scope():
                evaluate(query, db)
                counters = {name: db.stats[name] for name in counter_names}
        identical = scan_result == columnar_result
        assert identical, f"{workload}: columnar result diverged from scan"
        speedup = scan_time / max(columnar_time, 1e-9)
        row(
            "CLAIM-COLUMNAR",
            f"{workload} ({detail}): scan {scan_time * 1e3:.1f} ms vs columnar "
            f"{columnar_time * 1e3:.1f} ms (x{speedup:.1f}) at n={size}, "
            f"{counters['columnar_roots']} roots survive the bitset filter "
            f"[{backend}]",
            workload=workload,
            measured=detail,
            size=size,
            backend=backend,
            scan_ms=scan_time * 1e3,
            columnar_ms=columnar_time * 1e3,
            speedup_x=speedup,
            identical=identical,
            full_split_identical=True,
            full_split_size=20_000,
            columnar_counters=counters,
        )


def claim_chaos_serving() -> None:
    """PR 7: fault-tolerant serving — availability under injected chaos.

    A small read storm through a :class:`SessionPool` under the PR-7
    chaos plan, retries off vs on; the row carries the full PoolStats
    snapshot so shed/breaker/retry counters land in ``--json`` output.
    """
    from repro import faults
    from repro import Record
    from repro.api import SessionPool
    from repro.guardrails import Budget
    from repro.query import PlanCache
    from repro.serving import BreakerBoard, RetryPolicy

    previous = faults.install(None)
    try:
        db = Database()
        for i in range(60):
            db.insert(Record(name=f"p{i}", age=i % 80), "Person")
        db.create_index("Person", "age")
        source = "extent Person | sselect {age >= 18} | project name"
        plan_rules = "storage_lookup:error:0.05,index_probe:latency:0.2:0.002"

        availability = {}
        stats_snapshots = {}
        for label, policy in (
            ("retries_off", None),
            (
                "retries_on",
                RetryPolicy(
                    max_attempts=4, base_delay=0.001, max_delay=0.01, seed=7
                ),
            ),
        ):
            chaos = faults.FaultPlan(faults.parse_rules(plan_rules), seed=42)
            with SessionPool(
                db,
                workers=4,
                retry_policy=policy,
                breakers=BreakerBoard(failure_threshold=1000),
                budget=Budget(deadline_seconds=5.0),
                plan_cache=PlanCache(capacity=16),
            ) as pool:
                with faults.injected(chaos):
                    futures = [pool.submit(source) for _ in range(120)]
                    for future in futures:
                        try:
                            future.result()
                        except Exception:
                            pass
                snapshot = pool.stats.snapshot()
            availability[label] = snapshot["availability"]
            stats_snapshots[label] = snapshot

        row(
            "CHAOS-SERVING",
            f"120 reads under {plan_rules!r}: availability "
            f"{availability['retries_off']:.3f} without retries → "
            f"{availability['retries_on']:.3f} with retries "
            f"(amplification x"
            f"{stats_snapshots['retries_on']['retry_amplification']:.2f}, "
            f"{stats_snapshots['retries_on']['shed_overload']} shed)",
            fault_spec=plan_rules,
            availability_without_retries=availability["retries_off"],
            availability_with_retries=availability["retries_on"],
            pool_stats=stats_snapshots["retries_on"],
            pool_stats_baseline=stats_snapshots["retries_off"],
        )
    finally:
        faults.install(previous)


#: Simulated per-tree IO stall for CLAIM-PARALLEL (fetching a stored
#: tree from cold storage / a remote page server).  ``time.sleep``
#: releases the GIL, so this is the component the exchange worker pool
#: overlaps — disclosed in the printed row and the JSON record, like
#: ``bench_concurrent_sessions``'s per-op IO.
PARALLEL_IO_SECONDS = 0.008

#: Worker count for CLAIM-PARALLEL (the ``--shards`` flag).
PARALLEL_SHARDS = 4


def claim_parallel() -> None:
    """PR 9: sharded parallel execution with order-preserving merge.

    A forest-split workload — ~300 family trees, ~100k nodes total,
    each member's work being one simulated-IO fetch plus a real
    ``split`` of the Figure-4 pattern — evaluated once sequentially
    (``AQUA_PARALLEL=off``) and once through the exchange operator at
    ``--shards`` workers.  Ordered bit-identity between the two runs is
    asserted in the same process as the timing, so the speedup figure
    can never outlive a parity break.
    """
    from repro import config

    trees = 300
    nodes_per_tree = 350
    workers = PARALLEL_SHARDS
    db = Database()
    db.insert_many(
        [
            random_family_tree(nodes_per_tree, seed=s, planted_matches=s % 3)
            for s in range(trees)
        ],
        "Families",
    )
    total_nodes = sum(tree.size() for tree in db.extent("Families"))

    def fetch_and_split(tree):
        time.sleep(PARALLEL_IO_SECONDS)  # simulated storage IO, overlappable
        return len(
            split_pieces("Brazil(!?* USA !?*)", tree, resolver=by_citizen_or_name)
        )

    query = Q.extent("Families").sapply(fetch_and_split).build()

    with config.parallel_scope("off"):
        sequential_s, sequential = timed(lambda: evaluate(query, db), repeat=1)
    with config.parallel_scope("on"), config.parallel_workers_scope(workers):
        parallel_s, parallel = timed(lambda: evaluate(query, db), repeat=1)

    ordered_parity = list(sequential) == list(parallel) and sequential == parallel
    assert ordered_parity, "parallel stream diverged from the sequential one"
    speedup = sequential_s / parallel_s if parallel_s else 0.0
    row(
        "CLAIM-PARALLEL",
        f"{trees} trees ({total_nodes} nodes), split + {PARALLEL_IO_SECONDS * 1e3:.0f}ms"
        f" simulated IO/tree: sequential {sequential_s:.2f}s → "
        f"{workers} workers {parallel_s:.2f}s (x{speedup:.1f}, ordered parity"
        f" {'OK' if ordered_parity else 'BROKEN'})",
        workload="bench_fig4_split",
        trees=trees,
        total_nodes=total_nodes,
        workers=workers,
        mode=config.validated_parallel_worker_kind(),
        simulated_io_ms=PARALLEL_IO_SECONDS * 1e3,
        sequential_seconds=sequential_s,
        parallel_seconds=parallel_s,
        speedup_x=round(speedup, 2),
        ordered_parity=ordered_parity,
        cpu_count=os.cpu_count(),
    )


def claim_docstore() -> None:
    """PR 10: document-store path queries vs a naive DOM walk.

    The corpus is a ~10k-node scraped-site HTML page (150 articles,
    1 in 20 carrying ``lang='en'``) ingested through ``from_html``.
    The measured query ``//article[@lang='en']//p`` runs through the
    full pipeline — AQL alias table → plan cache → optimizer →
    ``index_anchor_split`` on the ``(tag, kind)`` node index →
    ``flatten(apply(step))`` — against ``repro.docstore.naive_path``,
    a plain recursive DOM walk over the same tree.  Result parity (by
    serialization), corpus round-trip fidelity, and warm plan-cache
    service are asserted in the same process as the timing.
    """
    from repro.docstore import from_html, naive_path, to_html
    from repro.docstore.corpus import corpus_document, corpus_html

    path = "//article[@lang='en']//p"
    html = corpus_html()
    round_trip = to_html(from_html(html)) == html
    assert round_trip, "corpus does not survive from_html → to_html"

    doc = corpus_document()
    nodes = doc.tree.size()

    algebra_s, algebra = timed(lambda: doc.path(path), repeat=5)
    naive_s, reference = timed(lambda: naive_path(doc.tree, path), repeat=5)

    rendered = sorted(to_html(member) for member in algebra)
    identical = rendered == sorted(to_html(member) for member in reference)
    assert identical, "path query diverged from the naive walk"

    hits_before = doc.session.plan_cache.hits
    doc.path(path)
    warm_hit = doc.session.plan_cache.hits == hits_before + 1

    speedup = naive_s / algebra_s if algebra_s else 0.0
    row(
        "CLAIM-DOCSTORE",
        f"{nodes}-node scraped site, {path}: naive walk {naive_s * 1e3:.1f}ms"
        f" → algebra {algebra_s * 1e3:.1f}ms (x{speedup:.1f},"
        f" {len(rendered)} matches, parity {'OK' if identical else 'BROKEN'},"
        f" round-trip {'OK' if round_trip else 'BROKEN'},"
        f" warm cache {'hit' if warm_hit else 'MISS'})",
        workload="bench_claim_docstore",
        nodes=nodes,
        matches=len(rendered),
        naive_seconds=naive_s,
        algebra_seconds=algebra_s,
        speedup_x=round(speedup, 2),
        identical=identical,
        round_trip=round_trip,
        warm_cache_hit=warm_hit,
    )


EXPERIMENTS = [
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    claim_split,
    claim_conjunct,
    claim_kleene,
    claim_memo,
    claim_printf,
    claim_melody,
    claim_prepared,
    claim_list_tree,
    claim_engines,
    claim_columnar,
    claim_chaos_serving,
    claim_parallel,
    claim_docstore,
]


def main(argv: list[str] | None = None) -> None:
    global PARALLEL_SHARDS
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH", help="also write rows as JSON records"
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="run only the named experiments (function names, e.g. claim_columnar)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=PARALLEL_SHARDS,
        metavar="N",
        help="worker count for the CLAIM-PARALLEL experiment (default 4)",
    )
    arguments = parser.parse_args(argv)
    if arguments.shards < 1:
        parser.error(f"--shards must be >= 1, got {arguments.shards}")
    PARALLEL_SHARDS = arguments.shards
    experiments = EXPERIMENTS
    if arguments.only:
        known = {e.__name__: e for e in EXPERIMENTS}
        unknown = [name for name in arguments.only if name not in known]
        if unknown:
            parser.error(
                f"unknown experiments {unknown}; choose from {sorted(known)}"
            )
        experiments = [known[name] for name in arguments.only]
    budget = Budget.from_env()
    print("AQUA reproduction — experiment summary (see EXPERIMENTS.md)")
    if not budget.is_unlimited:
        print(f"execution budget: {budget.describe()}")
    print("-" * 78)
    tripped: list[str] = []
    for experiment in experiments:
        label = experiment.__name__.upper().replace("_", "-")
        try:
            with guardrails.guarded(budget):
                experiment()
        except AquaError as exc:
            tripped.append(label)
            row(label, f"ABORTED: {exc}", budget_tripped=True)
    print("-" * 78)
    if arguments.json:
        records = [
            {
                "experiment": "BUDGET",
                "limits": budget.to_dict(),
                "tripped_experiments": tripped,
                "any_tripped": bool(tripped),
                "cpu_count": os.cpu_count(),
            },
            *RECORDS,
        ]
        with open(arguments.json, "w") as handle:
            json.dump(records, handle, indent=2)
        print(f"records written to {arguments.json}")


if __name__ == "__main__":
    main()
