"""Pattern languages for lists and trees (paper §3).

* List patterns: regular expressions over alphabet-predicates, with one
  engine — a backtracker with prune capture, plus a span enumerator for
  prune-free patterns (:mod:`.list_match`).
* Tree patterns: tree regular expressions with concatenation points,
  subscripted closures, ⊤/⊥ anchors and ``!`` pruning — one matcher,
  which tables its derivations where the pattern's shape says a repeat
  is possible (``TreeMatchContext``; ``tabled=False`` is the plain
  backtracker the tests use as reference).
"""

from .list_ast import (
    EPSILON,
    Atom,
    Concat,
    Epsilon,
    ListPattern,
    ListPatternNode,
    Plus,
    Prune,
    Star,
    Union,
    any_element,
    atom,
    seq,
    union,
)
from .list_match import ListMatch, find_list_matches, find_spans, matches_whole
from .list_parser import parse_list_pattern, list_pattern
from .tree_ast import (
    CHILD_EPSILON,
    ChildAlt,
    ChildPatternNode,
    ChildPlus,
    ChildSeq,
    ChildStar,
    PointAtom,
    TreeAtom,
    TreeConcat,
    TreePattern,
    TreePatternNode,
    TreePlus,
    TreePrune,
    TreeStar,
    TreeUnion,
)
from .tree_match import (
    Pruned,
    Shape,
    TreeMatch,
    find_tree_matches,
    iter_tree_matches,
    tree_in_language,
)
from .tree_memo import MatchContextRegistry, TreeMatchContext
from .tree_parser import parse_tree_pattern, tree_pattern

__all__ = [
    "Atom",
    "CHILD_EPSILON",
    "ChildAlt",
    "ChildPatternNode",
    "ChildPlus",
    "ChildSeq",
    "ChildStar",
    "Concat",
    "EPSILON",
    "Epsilon",
    "ListMatch",
    "MatchContextRegistry",
    "ListPattern",
    "ListPatternNode",
    "Plus",
    "PointAtom",
    "Prune",
    "Pruned",
    "Shape",
    "Star",
    "TreeAtom",
    "TreeConcat",
    "TreeMatch",
    "TreeMatchContext",
    "TreePattern",
    "TreePatternNode",
    "TreePlus",
    "TreePrune",
    "TreeStar",
    "TreeUnion",
    "Union",
    "any_element",
    "atom",
    "find_list_matches",
    "find_spans",
    "find_tree_matches",
    "iter_tree_matches",
    "list_pattern",
    "matches_whole",
    "parse_list_pattern",
    "parse_tree_pattern",
    "seq",
    "tree_in_language",
    "tree_pattern",
    "union",
]
