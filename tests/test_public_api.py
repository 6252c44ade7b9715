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
#: editing this set, the README tables and the CI lint step together.
KNOBS = {
    "AQUA_DEADLINE", "AQUA_DFA_CACHE_LIMIT", "AQUA_FAULTS", "AQUA_FAULT_SEED",
    "AQUA_MAX_BACKTRACK_DEPTH", "AQUA_MAX_NODES_SCANNED", "AQUA_MAX_RESULTS",
    "AQUA_MAX_STEPS",
}


def test_readme_names_exactly_the_env_knobs_the_source_reads() -> None:
    """Every ``AQUA_*`` variable in ``src/repro`` is documented, the
    README documents none that the source no longer knows, and both are
    the pinned census (the CI lint job greps for the same set)."""
    knob = re.compile(r"AQUA_[A-Z_]+")
    in_source: set[str] = set()
    for path in Path(repro.__file__).resolve().parent.rglob("*.py"):
        in_source.update(knob.findall(path.read_text(encoding="utf-8")))
    in_readme = set(knob.findall(README.read_text(encoding="utf-8")))
    assert in_source == in_readme == KNOBS


def test_snapshot_visibility_is_a_position_compare() -> None:
    """Index postings carry their row's extent position and a pin bounds
    every probe by its watermark, so ``repro.storage`` builds no set of
    row identities and keeps no per-pin visibility structure (the CI
    lint job greps for the same thing)."""
    residue = re.compile(r"id\(row\)|_visible")
    storage = Path(repro.__file__).resolve().parent / "storage"
    offenders = [
        f"{path.name}:{number}"
        for path in storage.rglob("*.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if residue.search(line)
    ]
    assert offenders == []


def test_the_tree_half_of_the_columnar_kernel_is_gone() -> None:
    """Tree scans narrow their roots through the index probe or the
    root first-set scan only: no columnar extent, column source or
    columnar candidate filter survives anywhere in the package (the CI
    lint job greps for the same), and the matcher reads no database."""
    residue = re.compile(
        r"ColumnarExtent|columnar_source_for|column_source|_columnar_candidates"
        r"|tree_columnar_anchors|columnar_extent"
    )
    package = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(package)}:{number}"
        for path in package.rglob("*.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if residue.search(line)
    ]
    assert offenders == []


def test_matchers_flush_at_hand_over_with_no_knob_or_thread_local() -> None:
    """The tree and list matchers flush their counters as they hand a
    match over, so no per-candidate / per-start flush keyword survives
    (the CI lint job greps for the same), and the hot-loop work added no
    thread-local: the census is four ``threading.local()`` sites, since
    a run's counters replaced the sink's attribution frames."""
    residue, local_sites = [], 0
    for path in Path(repro.__file__).resolve().parent.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        residue += [path.name] * len(re.findall(r"flush_per_candidate|flush_per_start", text))
        local_sites += text.count("threading.local()")
    assert residue == []
    assert local_sites == 4


def test_runs_count_into_ints_they_own() -> None:
    """No predicate is wrapped to bump a shared sink per evaluation and no
    attribution frame survives: operators count into their run's
    ``RunCounters`` (the CI lint job greps for the same)."""
    residue = re.compile(r"\.counting\(|attribute_to|_frames\b|\.collecting\(")
    package = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(package)}:{number}"
        for path in package.rglob("*.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if residue.search(line)
    ]
    assert offenders == []


def test_the_exchange_tier_is_gone() -> None:
    """Set ``select`` / ``apply`` run one sequential pipeline: no exchange
    operator, shard guard, worker budget or exchange cost term survives,
    and no parallel knob or ``parallel_workers`` keyword is read (the CI
    lint job greps for the same)."""
    residue = re.compile(
        r"ExchangeOp|ShardGuard|SharedSpend|WorkerBudget|EXCHANGE_WORKER_COST"
        r"|exchange_profitable|AQUA_PARALLEL|parallel_workers"
    )
    package = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(package)}:{number}"
        for path in package.rglob("*.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if residue.search(line)
    ]
    assert offenders == []
    assert not (package / "physical" / "exchange.py").exists()
    assert not (package / "storage" / "sharding.py").exists()


def test_split_function_contracts_are_read_in_one_function() -> None:
    """``split`` is the only tree-pattern operator the engine runs: what a
    split function declares about the pieces it reads is resolved by
    ``algebra.tree_ops.split_emitter`` and nowhere else, and the eager
    ``MaterializeOp`` detour for ``all_anc`` / ``all_desc`` is gone (the
    CI lint job greps for the same two things)."""
    import inspect

    from repro.algebra.tree_ops import split_emitter

    contract = re.compile(
        r"getattr\([^)]*\"(returns_match_subtree|needs_context|needs_descendants)\""
    )
    readers, residue = [], []
    for path in Path(repro.__file__).resolve().parent.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        readers += [path.name] * len(contract.findall(text))
        residue += [path.name] * len(re.findall(r"MaterializeOp|_materializer", text))
    assert readers == ["tree_ops.py"] * 3
    assert len(contract.findall(inspect.getsource(split_emitter))) == 3
    assert residue == []


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
    maps around (the CI lint job greps for the same thing)."""
    numbering = re.compile(
        r"enumerate\((self\.)?(tree|data)\.nodes\(\)\)|position_maps"
    )
    package = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(package)}:{number}"
        for path in package.rglob("*.py")
        if path != package / "core" / "aqua_tree.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if numbering.search(line)
    ]
    assert offenders == []


def test_tree_nodes_are_grouped_by_attribute_in_one_module_only() -> None:
    """``AquaTree.postings()`` is the one place a tree's nodes are grouped
    by attribute: no other module builds a ``TreePostings``, and the node
    index, a view over them, has no grouping loop of its own — no key
    read off a payload, no ``setdefault(key, [])`` (the CI lint job greps
    for the same things)."""
    package = Path(repro.__file__).resolve().parent
    builders = [
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if "TreePostings(" in path.read_text(encoding="utf-8")
    ]
    assert builders == ["core/aqua_tree.py"]
    grouping = re.compile(r"read_key|_MISSING|setdefault\([^)]*\[\]\)|def _built|\.value\b")
    tree_index = (package / "storage" / "tree_index.py").read_text(encoding="utf-8")
    assert [line for line in tree_index.splitlines() if grouping.search(line)] == []


def test_root_predicate_walk_is_defined_once() -> None:
    """Index anchors, list column choices and the matcher's root
    first-set read one analysis of a pattern's roots: ``tree_ast._root_predicates``
    (the CI lint job greps for the same thing)."""
    package = Path(repro.__file__).resolve().parent
    definers = [
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if "def _root_predicates" in path.read_text(encoding="utf-8")
    ]
    assert definers == ["patterns/tree_ast.py"]


def test_match_contexts_read_pattern_facts_without_walking() -> None:
    """A match context copies its pattern's facts, derived once per
    compiled pattern (``TreePattern.facts``): ``patterns/tree_memo.py``
    walks no pattern body and asks no pattern-wide question itself (the
    CI lint job greps for the same thing)."""
    package = Path(repro.__file__).resolve().parent
    source = (package / "patterns" / "tree_memo.py").read_text(encoding="utf-8")
    walks = re.compile(r"has_vertical_closure\(|atom_predicates\(|\.body\.walk\(")
    assert [line for line in source.splitlines() if walks.search(line)] == []


def test_bulk_values_key_unhashable_payloads_through_one_helper() -> None:
    """A list's and a tree's structural hash file an unhashable payload
    under ``equality.payload_key``'s canonical form, never its ``repr``
    (the CI lint job greps for the same thing)."""
    package = Path(repro.__file__).resolve().parent
    offenders = [
        f"{name}:{number}"
        for name in ("aqua_list.py", "aqua_tree.py")
        for number, line in enumerate(
            (package / "core" / name).read_text(encoding="utf-8").splitlines(), 1
        )
        if re.search(r"repr\(value\)", line)
    ]
    assert offenders == []


#: Bottom first.  A module may import from its own layer and any below.
LAYERS = (
    {"errors", "config", "params", "faults", "guardrails"},
    {"core"},
    {"predicates", "patterns"},
    {"algebra"},
    {"storage"},
    {"optimizer", "physical"},
    {"query"},
    {"serving", "docstore"},
    {"api"},
    {"odmg", "workloads", "__init__", "__main__"},
)

#: Every runtime import that points up the layering today, as
#: ``importing file -> imported module``.  The test demands equality, so
#: fixing one means deleting its line here, and a new one fails: the list
#: can only shrink.  Three groups: the counter sink every engine emits to
#: lives in ``storage``; the plan vocabulary the optimizer and the
#: operators read lives in ``query``; the rest reach up for a default
#: session or the document path compiler.
UPWARD_IMPORTS = {
    "guardrails.py -> storage.stats",
    "patterns/dfa.py -> storage.stats",
    "patterns/list_match.py -> storage.stats",
    "patterns/list_parser.py -> storage.stats",
    "patterns/tree_match.py -> storage.stats",
    "patterns/tree_parser.py -> storage.stats",
    "optimizer/cost.py -> query.expr",
    "optimizer/cost.py -> query.metrics",
    "optimizer/engine.py -> query.expr",
    "optimizer/rules.py -> query.expr",
    "physical/base.py -> query.metrics",
    "physical/lower.py -> query.expr",
    "query/aql.py -> docstore.path",
    "query/aql.py -> api",
    "query/builder.py -> api",
    "query/interpreter.py -> api",
    "docstore/store.py -> api",
}


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
    """``core`` → ``predicates``/``patterns`` → ``algebra`` → ``storage`` →
    ``optimizer``/``physical`` → ``query`` → ``serving``/``docstore`` →
    ``api``: an import may point down or sideways; the ones that point up
    are exactly :data:`UPWARD_IMPORTS`."""
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
    assert upward == UPWARD_IMPORTS


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
