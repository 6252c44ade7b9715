"""The public surface of ``import repro`` is exactly what is documented.

The README's "Public API" table and ``repro.__all__`` are the same
contract written twice; this suite parses the table out of the markdown
and asserts the two never drift.  It also checks the hygiene rules that
make ``__all__`` worth trusting: every name resolves, no duplicates,
and ``from repro import *`` imports precisely that set.
"""

from __future__ import annotations

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
    "AQUA_COLUMNAR", "AQUA_COLUMNAR_BACKEND", "AQUA_COLUMNAR_THRESHOLD",
    "AQUA_DEADLINE", "AQUA_DFA_CACHE_LIMIT", "AQUA_FAULTS", "AQUA_FAULT_SEED",
    "AQUA_MAX_BACKTRACK_DEPTH", "AQUA_MAX_NODES_SCANNED", "AQUA_MAX_RESULTS",
    "AQUA_MAX_STEPS", "AQUA_PARALLEL", "AQUA_PARALLEL_MIN_ROWS",
    "AQUA_PARALLEL_MODE", "AQUA_PARALLEL_WORKERS",
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


def test_root_predicate_walk_is_defined_once() -> None:
    """Index anchors, columnar anchors and the matcher's root first-set
    read one analysis of a pattern's roots: ``tree_ast._root_predicates``
    (the CI lint job greps for the same thing)."""
    package = Path(repro.__file__).resolve().parent
    definers = [
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if "def _root_predicates" in path.read_text(encoding="utf-8")
    ]
    assert definers == ["patterns/tree_ast.py"]
