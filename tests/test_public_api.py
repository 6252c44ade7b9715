"""The public surface of ``import repro`` is exactly what is documented.

The README's "Public API" table and ``repro.__all__`` are the same
contract written twice; this suite parses the table out of the markdown
and asserts the two never drift.  It also checks the hygiene rules that
make ``__all__`` worth trusting: every name resolves, no duplicates,
and ``from repro import *`` imports precisely that set.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import yaml

import repro

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_table_names() -> list[str]:
    """Every backticked name in the Public API section's table rows."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Public API\n(.*?)\n## ", text, re.DOTALL)
    assert match is not None, "README has no '## Public API' section"
    names: list[str] = []
    for line in match.group(1).splitlines():
        if not line.startswith("|") or line.startswith("| group") or set(
            line.replace("|", "").strip()
        ) <= {"-"}:
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        assert len(cells) == 2, f"malformed table row: {line!r}"
        names.extend(re.findall(r"`([^`]+)`", cells[1]))
    return names


def test_readme_table_matches_all() -> None:
    documented = _readme_table_names()
    assert sorted(documented) == sorted(repro.__all__)


def test_all_names_resolve() -> None:
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ exports missing name {name!r}"


def test_all_has_no_duplicates() -> None:
    assert len(repro.__all__) == len(set(repro.__all__))


def test_star_import_matches_all() -> None:
    namespace: dict[str, object] = {}
    exec("from repro import *", namespace)  # noqa: S102 - the point of the test
    imported = {name for name in namespace if not name.startswith("__")}
    # ``from x import *`` skips dunders like __version__ by Python's rule.
    expected = {name for name in repro.__all__ if not name.startswith("__")}
    assert imported == expected


def test_docstore_group_is_complete() -> None:
    """The docstore's own __all__ is the root group plus its extras."""
    import repro.docstore as docstore

    root_group = {
        "DocNode", "Document", "compile_path", "from_html", "from_json",
        "from_xml", "load_document", "parse_path", "to_html", "to_json",
        "to_xml",
    }
    assert root_group <= set(docstore.__all__)
    assert root_group <= set(repro.__all__)


#: The knob census: every ``AQUA_*`` variable there is.  Adding one means
#: editing this set and the README tables together.
KNOBS = {
    "AQUA_DEADLINE", "AQUA_FAULTS", "AQUA_FAULT_SEED", "AQUA_MAX_BACKTRACK_DEPTH",
    "AQUA_MAX_NODES_SCANNED", "AQUA_MAX_RESULTS", "AQUA_MAX_STEPS",
}


def _offenders(pattern: str, paths: tuple[str, ...], exclude: tuple[str, ...] = ()) -> list[str]:
    """``file:line`` for every line matching ``pattern`` in the files at or
    under ``paths`` (repo-relative; ``__pycache__`` skipped), bar the
    repo-relative files named in ``exclude``.

    The one reader behind every architecture rule below: a rule is a
    pattern that must not appear, or appear only where it is defined."""
    regex = re.compile(pattern)
    root = README.parent
    offenders = []
    for given in paths:
        base = root / given
        for path in [base] if base.is_file() else sorted(base.rglob("*")):
            name = path.relative_to(root).as_posix()
            if not path.is_file() or "__pycache__" in path.parts or name in exclude:
                continue
            lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
            offenders += [f"{name}:{n}" for n, line in enumerate(lines, 1) if regex.search(line)]
    return offenders


def _files(offenders: list[str]) -> list[str]:
    return [offender.rpartition(":")[0] for offender in offenders]


def test_readme_names_exactly_the_env_knobs_the_source_reads() -> None:
    """Every ``AQUA_*`` variable in ``src/repro`` is documented, the
    README documents none that the source no longer knows, and both are
    the pinned census; no tree-engine knob survives anywhere under
    ``src/`` (the tree matcher picks its own tables)."""
    knob = re.compile(r"AQUA_[A-Z_]+")
    in_source: set[str] = set()
    for path in Path(repro.__file__).resolve().parent.rglob("*.py"):
        in_source.update(knob.findall(path.read_text(encoding="utf-8")))
    in_readme = set(knob.findall(README.read_text(encoding="utf-8")))
    assert in_source == in_readme == KNOBS
    assert _offenders(r"AQUA_TREE_ENGINE|tree_engine|TREE_ENGINE", ("src",)) == []


def test_snapshot_visibility_is_a_position_compare() -> None:
    """Index postings carry their row's extent position and a pin bounds
    every probe by its watermark, so ``repro.storage`` builds no set of
    row identities and keeps no per-pin visibility structure."""
    assert _offenders(r"id\(row\)|_visible", ("src/repro/storage",)) == []


def test_the_tree_half_of_the_columnar_kernel_is_gone() -> None:
    """Tree scans narrow their roots through the index probe or the
    root first-set scan only: no columnar extent, column source or
    columnar candidate filter survives anywhere in the package, and the
    matcher reads no database."""
    residue = (
        r"ColumnarExtent|columnar_source_for|column_source|_columnar_candidates"
        r"|tree_columnar_anchors|columnar_extent"
    )
    assert _offenders(residue, ("src/repro",)) == []


def test_matchers_flush_at_hand_over_with_no_knob_or_thread_local() -> None:
    """The tree and list matchers flush their counters as they hand a
    match over, so no per-candidate / per-start flush keyword survives,
    and the hot-loop work added no thread-local: the census is one
    ``threading.local()`` site, the query context's slot, which holds a
    run's guard, bindings, match registry and counter receivers
    together."""
    assert _offenders(r"flush_per_candidate|flush_per_start", ("src/repro",)) == []
    local_sites = _offenders(r"threading\.local\(\)", ("src/repro",))
    assert _files(local_sites) == ["src/repro/context.py"]


def test_identity_is_drawn_on_first_read() -> None:
    """Construction draws no OID: nothing assigns ``self.oid =
    fresh_oid()`` and nothing in the modules defining ``Cell`` /
    ``Record`` / ``DocNode`` chains to a ``DatabaseObject`` constructor."""
    from repro.core.identity import DatabaseObject

    assert _offenders(r"self\.oid = fresh_oid\(\)", ("src/repro",)) == []
    owners = ("src/repro/core/identity.py", "src/repro/docstore/model.py")
    assert _offenders(r"super\(\)\.__init__\(\)", owners) == []
    assert "__init__" not in vars(DatabaseObject)


def test_runs_count_into_ints_they_own() -> None:
    """No predicate is wrapped to bump a shared sink per evaluation and no
    attribution frame survives: operators count into their run's
    ``RunCounters``."""
    residue = r"\.counting\(|attribute_to|_frames\b|\.collecting\("
    assert _offenders(residue, ("src/repro",)) == []


def test_operators_hand_over_batches() -> None:
    """``PhysicalOp.next_batch`` is the one pull: no per-row ``next()``
    and no one-step ``executor pull`` tick survive in the physical
    layer."""
    per_row = r'tick\(1, "executor pull"\)|def next\(self\)'
    assert _offenders(per_row, ("src/repro/physical",)) == []


def test_the_exchange_tier_is_gone() -> None:
    """Set ``select`` / ``apply`` run one sequential pipeline: no exchange
    operator, shard guard, worker budget or exchange cost term survives,
    and no parallel knob or ``parallel_workers`` keyword is read."""
    residue = (
        r"ExchangeOp|ShardGuard|SharedSpend|WorkerBudget|EXCHANGE_WORKER_COST"
        r"|exchange_profitable|AQUA_PARALLEL|parallel_workers"
    )
    assert _offenders(residue, ("src/repro",)) == []
    package = Path(repro.__file__).resolve().parent
    assert not (package / "physical" / "exchange.py").exists()
    assert not (package / "storage" / "sharding.py").exists()


def test_one_list_pattern_engine_in_the_package() -> None:
    """``patterns/list_match.py`` is the package's one list-pattern
    engine: the lazy DFA is gone, the automaton oracles live under
    ``tests/oracles/``, and nothing under ``src/`` imports the tests."""
    residue = (
        r"LazyDFA|compile_dfa|compile_nfa|deriv_find_spans|regex_find_spans"
        r"|patterns_equivalent|^\s*(from|import) tests\b"
    )
    assert _offenders(residue, ("src",)) == []
    package = Path(repro.__file__).resolve().parent
    for module in ("dfa", "nfa", "derivatives", "regex_bridge", "equivalence"):
        assert not (package / "patterns" / f"{module}.py").exists()
    from repro import patterns

    assert len(patterns.__all__) == 45


def test_one_list_column_representation() -> None:
    """``storage/columnar.py`` keeps each list predicate column as a
    Python int bitset: no file under the package mentions numpy,
    resolves a backend or keeps a vectorized leaf, and the packaging
    offers no ``[columnar]`` extra."""
    residue = r"numpy|resolve_backend|numpy_available|_vectorized_leaf"
    assert _offenders(residue, ("src/repro",)) == []
    pyproject = README.parent / "pyproject.toml"
    assert "columnar" not in pyproject.read_text(encoding="utf-8")


def test_split_function_contracts_are_read_in_one_function() -> None:
    """``split`` is the only tree-pattern operator the engine runs: what a
    split function declares about the pieces it reads is resolved by
    ``algebra.tree_ops.split_emitter`` and nowhere else, and the eager
    ``MaterializeOp`` detour for ``all_anc`` / ``all_desc`` is gone."""
    import inspect

    from repro.algebra.tree_ops import split_emitter

    contract = r'getattr\([^)]*"(returns_match_subtree|needs_context|needs_descendants)"'
    readers = _offenders(contract, ("src/repro",))
    assert _files(readers) == ["src/repro/algebra/tree_ops.py"] * 3
    assert len(re.findall(contract, inspect.getsource(split_emitter))) == 3
    assert _offenders(r"MaterializeOp|_materializer", ("src/repro",)) == []


def test_no_public_callable_takes_an_engine() -> None:
    """The tree matcher picks its own tables from the pattern; nothing
    exported — function, class, or method of an exported class — lets a
    caller pick for it."""
    import inspect

    candidates = {}
    for name in repro.__all__:
        exported = getattr(repro, name)
        candidates[name] = exported
        if inspect.isclass(exported):
            for attribute, member in vars(exported).items():
                if inspect.isfunction(member):
                    candidates[f"{name}.{attribute}"] = member
    offenders = []
    for label, candidate in candidates.items():
        try:
            parameters = inspect.signature(candidate).parameters
        except (TypeError, ValueError):  # not callable, or no signature
            continue
        if "engine" in parameters:
            offenders.append(label)
    assert offenders == []


def test_tree_nodes_are_numbered_in_one_module_only() -> None:
    """``AquaTree.layout()`` is the single preorder numbering: no other
    module enumerates a tree's nodes into positions or hands position
    maps around."""
    numbering = r"enumerate\((self\.)?(tree|data)\.nodes\(\)\)|position_maps"
    exclude = ("src/repro/core/aqua_tree.py",)
    assert _offenders(numbering, ("src/repro",), exclude) == []


def test_tree_nodes_are_grouped_by_attribute_in_one_module_only() -> None:
    """``AquaTree.postings()`` is the one place a tree's nodes are grouped
    by attribute: no other module builds a ``TreePostings``, and the node
    index, a view over them, has no grouping loop of its own — no key
    read off a payload, no ``setdefault(key, [])``."""
    builders = _offenders(r"TreePostings\(", ("src/repro",))
    assert set(_files(builders)) == {"src/repro/core/aqua_tree.py"}
    grouping = r"read_key|_MISSING|setdefault\([^)]*\[\]\)|def _built|\.value\b"
    assert _offenders(grouping, ("src/repro/storage/tree_index.py",)) == []


def test_docstore_ingest_builds_nodes_not_a_tree_per_element() -> None:
    """A parser makes each element a ``TreeNode`` over its cell and wraps
    the document root alone in an ``AquaTree``."""
    per_element = r"AquaTree\.(build|leaf)\("
    assert _offenders(per_element, ("src/repro/docstore/ingest.py",)) == []


def test_root_predicate_walk_is_defined_once() -> None:
    """Index anchors, list column choices and the matcher's root
    first-set read one analysis of a pattern's roots:
    ``tree_ast._root_predicates``, defined once under ``src/`` and not
    again in the optimizer's anchor analysis."""
    definers = _offenders(r"def _root_predicates", ("src",))
    assert _files(definers) == ["src/repro/patterns/tree_ast.py"]
    assert _offenders(r"def _root_predicates", ("src/repro/optimizer/anchors.py",)) == []


def test_match_contexts_read_pattern_facts_without_walking() -> None:
    """A match context copies its pattern's facts, derived once per
    compiled pattern (``TreePattern.facts``): ``patterns/tree_memo.py``
    walks no pattern body and asks no pattern-wide question itself."""
    walks = r"has_vertical_closure\(|atom_predicates\(|\.body\.walk\("
    assert _offenders(walks, ("src/repro/patterns/tree_memo.py",)) == []


#: What lexing looks like: a token table (alternatives in named groups)
#: or a walk over a text one character at a time (an index stepped
#: through it, a per-character class test).
_LEXING = r"\(\?P<|while \w+ < n\b|\btext\[[ij]\b|\.is(?:alnum|space)\(\)"


def test_aql_and_predicate_text_tokenize_in_one_pass() -> None:
    """Every text the system reads is lexed by ``lexer.py``: no other
    module compiles a token table or walks a text one character at a
    time.  ``query/path.py`` is excepted: its path text is to be
    reworked along with the docstore's path plans."""
    exclude = ("src/repro/lexer.py", "src/repro/query/path.py")
    assert _offenders(_LEXING, ("src/repro",), exclude) == []


def test_ci_workflow_is_valid_yaml() -> None:
    """The CI workflow parses, and names the jobs tier-1 relies on."""
    workflow = README.parent / ".github" / "workflows" / "ci.yml"
    jobs = yaml.safe_load(workflow.read_text(encoding="utf-8"))["jobs"]
    assert {"test", "fault-smoke"} <= set(jobs)


def test_bulk_values_key_unhashable_payloads_through_one_helper() -> None:
    """A list's and a tree's structural hash file an unhashable payload
    under ``equality.payload_key``'s canonical form, never its ``repr``."""
    hashers = ("src/repro/core/aqua_list.py", "src/repro/core/aqua_tree.py")
    assert _offenders(r"repr\(value\)", hashers) == []


#: Bottom first.  A module may import from its own layer and any below.
LAYERS = (
    {"errors", "context", "config", "params", "faults", "guardrails", "lexer"},
    {"core"},
    {"predicates", "patterns"},
    {"algebra"},
    {"plan", "storage"},
    {"optimizer", "physical"},
    {"query"},
    {"serving", "docstore"},
    {"api"},
    {"odmg", "workloads", "__init__", "__main__"},
)


def _runtime_imports(tree: ast.AST):
    """Import nodes anywhere in ``tree`` except under ``if TYPE_CHECKING``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        yield from _runtime_imports(node)


def _is_module(package: Path, dotted: tuple[str, ...]) -> bool:
    location = package.joinpath(*dotted[1:])
    return location.is_dir() or location.with_suffix(".py").is_file()


def test_import_layering_allows_only_the_listed_upward_imports() -> None:
    """``core`` → ``predicates``/``patterns`` → ``algebra`` →
    ``plan``/``storage`` → ``optimizer``/``physical`` → ``query`` →
    ``serving``/``docstore`` → ``api``: an import may point down or
    sideways, and none points up."""
    package = Path(repro.__file__).resolve().parent
    rank = {unit: level for level, layer in enumerate(LAYERS) for unit in layer}
    upward = set()
    for path in package.rglob("*.py"):
        relative = path.relative_to(package)
        here = ("repro", *relative.parts[:-1])
        source = relative.parts[0].removesuffix(".py")
        for node in _runtime_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [tuple(alias.name.split(".")) for alias in node.names]
            else:
                base = here[: len(here) - node.level + 1] if node.level else ()
                module = base + tuple(node.module.split(".")) if node.module else base
                # ``from ..storage import stats`` names a module, not an attribute.
                targets = [
                    module + (alias.name,)
                    if _is_module(package, module + (alias.name,))
                    else module
                    for alias in node.names
                ]
            for target in targets:
                if target[0] != "repro" or len(target) < 2:
                    continue
                assert target[1] in rank, f"{relative}: place {target[1]!r} in LAYERS"
                if rank[source] < rank[target[1]]:
                    upward.add(f"{relative.as_posix()} -> {'.'.join(target[1:3])}")
    assert upward == set()


def test_documented_paths_exist() -> None:
    """Every ``benchmarks/…``, ``tests/…``, ``src/…`` or ``examples/…`` path
    the prose quotes names something in the checkout (``…*`` as a glob;
    ``benchmarks/trajectory/out`` is written by a run, not committed)."""
    root = README.parent
    documents = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
    quoted = re.compile(r"(?<![\w/.-])(?:benchmarks|tests|src|examples)/[\w./*-]*[\w/*]")
    missing = []
    for document in documents:
        for path in set(quoted.findall((root / document).read_text(encoding="utf-8"))):
            if path.startswith("benchmarks/trajectory/out"):
                continue
            if not any(root.glob(path)):
                missing.append(f"{document}: {path}")
    assert sorted(missing) == []
