"""The document-store workload: JSON/XML/HTML as ordinary AQUA trees.

The paper positions AQUA's tree algebra as sufficient for "structured
documents"; this package takes it at its word.  Ingestion
(:mod:`~repro.docstore.ingest`) turns document text into plain
:class:`~repro.core.aqua_tree.AquaTree` values, the path frontend
(:mod:`~repro.query.path`, re-exported here) compiles an XPath-flavoured
syntax into the existing ``split`` / ``apply`` / ``flatten`` algebra,
and :class:`~repro.docstore.store.Document` wires both into the standard
Session pipeline (plan cache, optimizer, cost-gated index lowering,
the streaming operators).  Nothing downstream of parsing is document-specific.
"""

from ..query.path import compile_path, naive_path, parse_path
from .ingest import from_html, from_json, from_xml, to_html, to_json, to_xml
from .model import INDEXED_ATTRIBUTES, DocNode
from .store import Document, load_document

__all__ = [
    "DocNode",
    "Document",
    "INDEXED_ATTRIBUTES",
    "compile_path",
    "from_html",
    "from_json",
    "from_xml",
    "load_document",
    "naive_path",
    "parse_path",
    "to_html",
    "to_json",
    "to_xml",
]
