"""The Document convenience surface: one object, whole pipeline.

:class:`Document` binds an ingested tree into a
:class:`~repro.storage.database.Database` root, builds the node index
over ``(tag, kind)`` that anchors path queries, and owns a
:class:`~repro.api.Session` so ``doc.path("//a//b")`` goes through the
*same* pipeline as every other query in the system: AQL text → alias
table → plan cache → optimizer → cost-gated lowering → executor.  The
path text is embedded in an AQL query string, so repeated paths are
served from the plan cache's alias table without re-parsing — path
queries inherit exactly the treatment AQL got.

``load_document`` dispatches on file extension for the shell's ``\\doc``
command.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.aqua_tree import AquaTree
from ..errors import QueryError
from .ingest import from_html, from_json, from_xml, to_html, to_json, to_xml
from .model import INDEXED_ATTRIBUTES

__all__ = ["Document", "load_document"]

_PARSERS = {"json": from_json, "xml": from_xml, "html": from_html}
_SERIALIZERS = {"json": to_json, "xml": to_xml, "html": to_html}
_EXTENSIONS = {
    ".json": "json",
    ".xml": "xml",
    ".html": "html",
    ".htm": "html",
}


class Document:
    """An ingested document bound into a queryable database root.

    >>> doc = Document.from_text("<a><b/><b x='1'/></a>", "xml")
    >>> len(doc.path("//b[@x='1']"))
    1
    """

    def __init__(
        self,
        tree: AquaTree,
        format: str,
        *,
        name: str = "doc",
        db: Any = None,
        session: Any = None,
    ) -> None:
        from ..api import Session
        from ..query import PlanCache
        from ..storage import Database

        if format not in _SERIALIZERS:
            raise QueryError(
                f"unknown document format {format!r};"
                f" expected one of {sorted(_SERIALIZERS)}"
            )
        self.tree = tree
        self.format = format
        self.name = name
        self.db = db if db is not None else Database()
        self.db.bind_root(name, tree)
        # The node index over (tag, kind): what lets the lowering serve a
        # path's first step with index_anchor_split instead of a scan.
        self.db.tree_index(tree, list(INDEXED_ATTRIBUTES))
        self.session = (
            session if session is not None else Session(self.db, plan_cache=PlanCache())
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, format: str, **kwargs: Any) -> "Document":
        """Ingest document text (``format`` in json | xml | html)."""
        try:
            parser = _PARSERS[format]
        except KeyError:
            raise QueryError(
                f"unknown document format {format!r};"
                f" expected one of {sorted(_PARSERS)}"
            ) from None
        return cls(parser(text), format, **kwargs)

    # -- querying --------------------------------------------------------------

    def _aql(self, path_text: str) -> str:
        if '"' in path_text:
            raise QueryError("path text cannot contain double quotes")
        return f'root {self.name} | path "{path_text}"'

    def path(
        self,
        path_text: str,
        params: "Mapping[str, Any] | None" = None,
        **knobs: Any,
    ) -> Any:
        """Run a path query; returns the set of matching subtrees.

        Accepts every :meth:`repro.api.Session.query` knob keyword
        (``budget=``, ``parallel=``, ``parallel_workers=``, ...).
        """
        return self.session.query(self._aql(path_text), params, **knobs)

    def explain(self, path_text: str, **knobs: Any) -> str:
        """EXPLAIN (ANALYZE) the plan a path compiles to.

        Renders the session's EXPLAIN plus the lowered physical
        pipeline, so the access path — ``index_anchor_split`` when the
        cost gate serves the first step from the ``(tag, kind)`` node
        index — is visible in one call.
        """
        from ..query.explain import explain_physical

        story = self.session.explain(self._aql(path_text), **knobs)
        prepared = self.session.prepare(self._aql(path_text))
        pipeline = explain_physical(prepared.plan, self.db, indent=1)
        return f"{story}\n\nLowered pipeline:\n{pipeline}"

    # -- serialization ---------------------------------------------------------

    def serialize(self, subtree: AquaTree | None = None) -> str:
        """Render the document — or one query-result subtree — as text."""
        return _SERIALIZERS[self.format](subtree if subtree is not None else self.tree)

    def __repr__(self) -> str:
        return (
            f"Document({self.format}, root={self.name!r},"
            f" nodes={self.tree.size()})"
        )


def load_document(path: str, *, name: str = "doc", db: Any = None) -> Document:
    """Ingest a file by extension (.json / .xml / .html / .htm)."""
    lowered = path.lower()
    for extension, format in _EXTENSIONS.items():
        if lowered.endswith(extension):
            with open(path, "r", encoding="utf-8") as handle:
                return Document.from_text(handle.read(), format, name=name, db=db)
    raise QueryError(
        f"cannot infer document format from {path!r};"
        f" expected one of {sorted(_EXTENSIONS)}"
    )
