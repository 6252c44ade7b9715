"""Pattern languages for lists and trees (paper §3).

* List patterns: regular expressions over alphabet-predicates, with four
  interchangeable engines (backtracking with prune capture, ε-NFA, lazy
  DFA, Brzozowski derivatives) plus the §3.4 ``P → P'`` translation and
  a Python ``re`` oracle bridge.
* Tree patterns: tree regular expressions with concatenation points,
  subscripted closures, ⊤/⊥ anchors and ``!`` pruning — one matcher,
  which tables its derivations where the pattern's shape says a repeat
  is possible (``TreeMatchContext``; ``tabled=False`` is the plain
  backtracker the tests use as reference).
"""

from .derivatives import deriv_accepts, deriv_find_spans, derivative
from .equivalence import (
    distinguishing_vector,
    pattern_language_empty,
    pattern_subsumes,
    patterns_equivalent,
)
from .dfa import LazyDFA, compile_dfa, dfa_find_spans
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
from .nfa import NFA, compile_nfa, nfa_find_spans
from .regex_bridge import (
    encode_sequence,
    expand_alphabet,
    regex_find_spans,
    to_python_regex,
)
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
    "LazyDFA",
    "ListMatch",
    "MatchContextRegistry",
    "ListPattern",
    "ListPatternNode",
    "NFA",
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
    "compile_dfa",
    "compile_nfa",
    "deriv_accepts",
    "deriv_find_spans",
    "derivative",
    "dfa_find_spans",
    "distinguishing_vector",
    "pattern_language_empty",
    "pattern_subsumes",
    "patterns_equivalent",
    "encode_sequence",
    "expand_alphabet",
    "find_list_matches",
    "find_spans",
    "find_tree_matches",
    "iter_tree_matches",
    "list_pattern",
    "matches_whole",
    "nfa_find_spans",
    "parse_list_pattern",
    "parse_tree_pattern",
    "regex_find_spans",
    "seq",
    "to_python_regex",
    "tree_in_language",
    "tree_pattern",
    "union",
]
