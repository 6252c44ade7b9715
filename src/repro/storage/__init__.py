"""Storage substrate: object store, extents, indexes, instrumentation."""

from .database import (
    GLOBAL_RESOURCE,
    Database,
    VersionToken,
    extent_resource,
    root_resource,
)
from .index import VALUE_ATTRIBUTE, HashIndex, OrderedIndex
from .snapshot import DatabaseSnapshot
from .serialize import (
    dump_database,
    dump_value,
    dumps_database,
    dumps_value,
    load_database,
    load_value,
    loads_database,
    loads_value,
)
from .statistics import AttributeHistogram
from .stats import GLOBAL_STATS, Instrumentation
from .tree_index import ListIndex, TreeIndex

__all__ = [
    "AttributeHistogram",
    "Database",
    "DatabaseSnapshot",
    "GLOBAL_RESOURCE",
    "GLOBAL_STATS",
    "HashIndex",
    "VersionToken",
    "extent_resource",
    "root_resource",
    "Instrumentation",
    "ListIndex",
    "OrderedIndex",
    "TreeIndex",
    "VALUE_ATTRIBUTE",
    "dump_database",
    "dump_value",
    "dumps_database",
    "dumps_value",
    "load_database",
    "load_value",
    "loads_database",
    "loads_value",
]
