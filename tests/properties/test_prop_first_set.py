"""First-set scan ≡ node-at-a-time scan (ISSUE 21).

Random closure-free patterns whose roots are an atom, a union of atoms
or the left of a ``∘α`` — plus ``+α`` roots, which must fall back —
over predicates built from ``$param`` constants, ``AND``/``OR``/``NOT``,
missing attributes and mixed-type comparisons, against random trees of
strings, records, dicts and labeled NULLs.  The default path (first-set
scan, bulk charges) and the null-table reference (``untabled_scope``:
every node enters the matcher) must yield the same match stream in the
same order *and* the same ``backtrack_steps`` / ``predicate_evals`` /
``nodes_scanned`` totals — but for the candidates the tabled scan's
child signature rejects before the matcher: those are charged one step
and the child tests made, so the expected counters are the reference's
over the signature's survivors (handed over as ``roots=``) plus that
charge per rejected node.  A further property checks the signature is
necessary: over child patterns with alternations, sibling closures,
unions, prunes, ``?``, ``$`` and ``$param``, every node the reference
matches passes it.

A scan whose root first-set is one equality is served from the tree's
postings, built by the first scan and kept on the tree: every case also
runs a warm second scan of the same tree — stopped early, with its
``$param`` rebound, over unhashable attribute values and labeled NULLs —
which must equal the cold one and the reference in the same three ways.
"""

from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import params
from repro.api import Session
from repro.core import make_tuple
from repro.core.aqua_tree import AquaTree
from repro.core.concat import ConcatPoint
from repro.core.identity import Record
from repro.params import Param
from repro.patterns import find_tree_matches, parse_tree_pattern
from repro.patterns.tree_match import (
    _compile_signature,
    _posting_key,
    _signature_holds,
    iter_tree_matches,
)
from repro.patterns.tree_ast import (
    ChildAlt,
    ChildPlus,
    ChildSeq,
    ChildStar,
    PointAtom,
    TreeAtom,
    TreeConcat,
    TreePattern,
    TreePlus,
    TreePrune,
    TreeUnion,
)
from repro.predicates.alphabet import (
    ANY,
    AlphabetPredicate,
    And,
    Comparison,
    Not,
    Or,
    SymbolEquals,
    pred,
)
from repro.query import Q
from repro.storage import Database
from repro.storage.stats import Instrumentation

from ..reference import untabled, untabled_scope

SETTINGS = settings(max_examples=120, deadline=None)

LABELS = ("a", "b", "c")
BINDINGS = {"p": 1, "s": "a"}
REBOUND = {"p": 2, "s": "b"}
COUNTERS = ("backtrack_steps", "predicate_evals", "nodes_scanned")

#: Attribute values of both types, so ``k > 1`` meets ``k = "a"``.
attribute_values = st.one_of(st.integers(0, 3), st.sampled_from(LABELS))

payloads = st.one_of(
    st.sampled_from(LABELS),
    attribute_values.map(lambda v: Record(k=v)),
    attribute_values.map(lambda v: {"k": v}),
    st.just(None).map(lambda _: Record(other=1)),  # attribute missing
    st.just({}),
    st.sampled_from(([1], ["a"])).map(lambda v: Record(k=list(v))),  # unhashable key
)


def _build(nested) -> AquaTree:
    if not isinstance(nested, tuple):
        return AquaTree.build(nested)
    payload, children = nested
    return AquaTree.build(payload, [_build(child) for child in children])


#: Arity ≤ 3, so no child list reaches the matcher's fan-out gate and the
#: tabled and null-table runs do the same steps.
trees = st.recursive(
    st.one_of(payloads, st.sampled_from([ConcatPoint("1"), ConcatPoint("2")])),
    lambda kids: st.tuples(payloads, st.lists(kids, max_size=3)),
    max_leaves=14,
).map(_build)

comparisons = st.builds(
    Comparison,
    st.just("k"),
    st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    st.one_of(attribute_values, st.just(Param("p"))),
)
leaf_predicates = st.one_of(
    st.sampled_from(LABELS).map(SymbolEquals),
    st.just(SymbolEquals(Param("s"))),
    comparisons,
)
predicates = st.recursive(
    leaf_predicates,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=2).map(lambda terms: And(*terms)),
        st.lists(inner, min_size=2, max_size=2).map(lambda terms: Or(*terms)),
        inner.map(Not),
    ),
    max_leaves=3,
)

#: Root predicates the postings can serve: one bound ``=`` term, alone
#: or inside an ``AND``.
equalities = st.one_of(
    st.one_of(attribute_values, st.just(Param("p"))).map(lambda v: Comparison("k", "=", v)),
    st.sampled_from((*LABELS, Param("s"))).map(SymbolEquals),
)
root_predicates = st.one_of(
    predicates,
    equalities,
    st.tuples(equalities, predicates).map(lambda terms: And(*terms)),
)

ANY_RUN = ChildStar(TreeAtom(ANY, None))
NOT_B = TreeAtom(Not(SymbolEquals("b")))
POINT = ConcatPoint("9")


@st.composite
def atoms(draw, point: bool = False):
    predicate = draw(root_predicates)
    if point:
        return TreeAtom(predicate, ChildSeq([ANY_RUN, PointAtom(POINT), ANY_RUN]))
    children = draw(
        st.sampled_from(
            (
                None,
                ANY_RUN,
                ChildSeq([TreeAtom(SymbolEquals("a"), None), ANY_RUN]),
                ChildSeq([ANY_RUN, TreeAtom(ANY, ChildSeq([ANY_RUN, NOT_B])), ANY_RUN]),
            )
        )
    )
    return TreeAtom(predicate, children)


@st.composite
def rooted_patterns(draw):
    form = draw(st.sampled_from(("atom", "union", "concat", "plus")))
    if form == "atom":
        body = draw(atoms())
    elif form == "union":
        body = TreeUnion(draw(st.lists(atoms(), min_size=2, max_size=3)))
    elif form == "concat":
        lefts = atoms(point=True)
        left = draw(st.one_of(lefts, st.lists(lefts, min_size=2, max_size=2).map(TreeUnion)))
        body = TreeConcat(left, POINT, draw(atoms()))
    else:
        body = TreePlus(draw(atoms(point=True)), POINT)
    return TreePattern(body, leaf_anchor=draw(st.booleans()))


def matcher_run(pattern, tree, context):
    sink = Instrumentation()
    with sink.activated(), params.bound_params(BINDINGS):
        keys = [match.key() for match in find_tree_matches(pattern, tree, context=context)]
    return keys, {name: sink[name] for name in COUNTERS}


def signature_oracle(signature, node) -> tuple[bool, int]:
    """A child signature read through each predicate's ``__call__``:
    does ``node`` pass it, and after how many child tests."""
    tests = 0
    for predicate, below in signature:
        for child in node.children:
            if child.is_concat_point:
                continue
            tests += 1
            if predicate(child.value):
                held, made = signature_oracle(below, child)
                tests += made
                if held:
                    break
        else:
            return False, tests
    return True, tests


def signature_rejections(pattern, tree) -> dict[int, int]:
    """``id(node) → child tests`` for each candidate the tabled scan's
    child signature rejects: the nodes the root first-set (if any)
    accepts, and no closure."""
    if pattern.has_vertical_closure():
        return {}
    roots = pattern.root_predicates()
    screened = pattern.root_first_set() is not None
    rejected = {}
    for node in tree.nodes():
        if screened and (node.is_concat_point or not any(p(node.value) for p in roots)):
            continue  # the first-set rejects it before the signature is asked
        held, tests = signature_oracle(pattern.required_children(), node)
        if not held:
            rejected[id(node)] = tests
    return rejected


def filtered_reference(pattern, tree, bindings, limit=None):
    """The reference's stream and counters over the candidates the child
    signature lets through (handed over as ``roots=``), plus one step
    and the child tests made for each rejected one the scan reached —
    all of them, or those before the last match's root when ``limit``
    stopped it."""
    sink = Instrumentation()
    with params.bound_params(bindings):
        rejected = signature_rejections(pattern, tree)
        survivors = [node for node in tree.nodes() if id(node) not in rejected]
        with sink.activated():
            stream = iter_tree_matches(
                pattern, tree, roots=survivors, context=untabled(pattern, tree), preordered=True
            )
            matches = list(islice(stream, limit))
            del stream
    counters = {name: sink[name] for name in COUNTERS}
    order = {id(node): position for position, node in enumerate(tree.nodes())}
    stop = len(order)
    if limit is not None and len(matches) == limit:
        stop = order[id(matches[-1].root)]
    charged = [tests for node, tests in rejected.items() if order[node] < stop]
    counters["backtrack_steps"] += len(charged)
    counters["predicate_evals"] += sum(charged)
    return [match.key() for match in matches], counters


@SETTINGS
@given(pattern=rooted_patterns(), tree=trees)
def test_matcher_stream_and_counters_equal_the_reference(pattern, tree):
    keys, counters = matcher_run(pattern, tree, None)
    want_keys, _ = matcher_run(pattern, tree, untabled(pattern, tree))
    assert keys == want_keys
    if not pattern.has_vertical_closure():  # a closure's tables save steps
        assert (keys, counters) == filtered_reference(pattern, tree, BINDINGS)
    assert tree._layout is None or pattern.has_vertical_closure()


#: Child patterns of every form the signature reads, over labels mostly,
#: so that alternatives and closures meet child lists they match.
label_tests = st.one_of(
    st.sampled_from((*LABELS, Param("s"))).map(SymbolEquals),
    st.sampled_from(LABELS).map(lambda label: Not(SymbolEquals(label))),
    predicates,
    st.just(ANY),
)
plain_atoms = label_tests.map(TreeAtom)
child_patterns = st.recursive(
    st.one_of(plain_atoms, st.just(PointAtom(ConcatPoint("1")))),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(ChildSeq),
        st.lists(inner, min_size=2, max_size=2).map(ChildAlt),
        inner.map(ChildPlus),
        inner.map(ChildStar),
        st.lists(plain_atoms, min_size=2, max_size=2).map(TreeUnion),
        plain_atoms.map(TreePrune),
        st.tuples(label_tests, inner).map(lambda t: TreeAtom(*t)),
    ),
    max_leaves=6,
)
signature_patterns = st.builds(
    lambda predicate, children, leaf: TreePattern(TreeAtom(predicate, children), leaf_anchor=leaf),
    st.one_of(root_predicates, label_tests),
    st.one_of(child_patterns, child_patterns.map(lambda cp: ChildSeq([ANY_RUN, cp, ANY_RUN]))),
    st.booleans(),
)
#: Trees of labels and labeled NULLs, arity ≤ 3 like :data:`trees`.
label_trees = st.recursive(
    st.sampled_from((*LABELS, ConcatPoint("1"))),
    lambda kids: st.tuples(st.sampled_from(LABELS), st.lists(kids, max_size=3)),
    max_leaves=14,
).map(_build)


@settings(SETTINGS, max_examples=400)
@given(pattern=signature_patterns, tree=st.one_of(label_trees, trees))
@example(parse_tree_pattern("a(b | c)"), _build(("a", ["c"])))  # alternation: ∩
@example(parse_tree_pattern("a(b* c)"), _build(("a", ["c"])))  # star: nothing
@example(parse_tree_pattern("a([[b | c]] ?*)"), _build(("a", ["c"])))  # union: nothing
@example(parse_tree_pattern("a(!b ?*)"), _build(("a", ["b"])))
@example(parse_tree_pattern("a(b+ ?(c))$"), _build(("a", ["b", "b", ("a", ["c"])])))
@example(parse_tree_pattern("a(@1 {x = $s})"), _build(("a", [ConcatPoint("1"), "a"])))
def test_every_match_root_passes_the_child_signature(pattern, tree):
    with params.bound_params(BINDINGS):
        signature = _compile_signature(pattern.required_children())
        reference = find_tree_matches(pattern, tree, context=untabled(pattern, tree))
        assert all(_signature_holds(signature, match.root)[0] for match in reference)
    keys, counters = matcher_run(pattern, tree, None)
    assert keys == [match.key() for match in reference]
    assert (keys, counters) == filtered_reference(pattern, tree, BINDINGS)


def scan_run(pattern, tree, context, bindings, limit):
    """``matcher_run``, stopped after ``limit`` matches, plus the maps built."""
    sink = Instrumentation()
    with sink.activated(), params.bound_params(bindings):
        matches = find_tree_matches(pattern, tree, limit=limit, context=context)
        served = not pattern.has_vertical_closure() and pattern.root_first_set() is not None
        served = served and _posting_key(pattern) is not None
    keys = [match.key() for match in matches]
    return keys, {name: sink[name] for name in COUNTERS}, sink["index_builds"], served


@pytest.mark.usefixtures("posting_scans")
@SETTINGS
@given(
    pattern=rooted_patterns(),
    tree=trees,
    limit=st.one_of(st.none(), st.integers(1, 3)),
    rebind=st.booleans(),
)
def test_warm_scan_from_postings_equals_the_cold_scan_and_the_reference(
    pattern, tree, limit, rebind
):
    warm_bindings = REBOUND if rebind else BINDINGS
    keys, counters, builds, served = scan_run(pattern, tree, None, BINDINGS, limit)
    warm_keys, warm_counters, warm_builds, _ = scan_run(pattern, tree, None, warm_bindings, limit)
    reference = untabled(pattern, tree)
    want = scan_run(pattern, tree, reference, BINDINGS, limit)
    want_warm = scan_run(pattern, tree, reference, warm_bindings, limit)
    assert keys == want[0]
    assert warm_keys == want_warm[0]
    if not pattern.has_vertical_closure():
        assert counters == filtered_reference(pattern, tree, BINDINGS, limit)[1]
        assert warm_counters == filtered_reference(pattern, tree, warm_bindings, limit)[1]
    # The cold scan builds its attribute's map; any binding reuses it.
    assert builds == served
    assert warm_builds == 0
    assert tree._layout is None or pattern.has_vertical_closure()


@SETTINGS
@given(pattern=rooted_patterns(), tree=trees, split=st.booleans())
def test_query_rows_and_charged_scan_equal_the_reference(pattern, tree, split):
    db = Database()
    db.bind_root("T", tree)
    source = Q.root("T")
    query = (
        source.split(pattern, make_tuple) if split else source.sub_select(pattern)
    ).build()
    runs = []
    for engine in ("memo", "backtrack"):
        session = Session(db)
        with db.stats.scope() as stats, untabled_scope(engine):
            rows = list(session.query(query, BINDINGS))
            runs.append((rows, {name: stats[name] for name in COUNTERS}))
    (rows, counters), (want_rows, want_counters) = runs
    assert rows == want_rows
    if not pattern.has_vertical_closure():
        # The child signature moves the matcher's counters as it does
        # under find_tree_matches; the scan's nodes_scanned stays put.
        _, plain = matcher_run(pattern, tree, untabled(pattern, tree))
        _, filtered = filtered_reference(pattern, tree, BINDINGS)
        moved = {name: filtered[name] - plain[name] for name in COUNTERS}
        assert counters == {name: want_counters[name] + moved[name] for name in COUNTERS}
    assert counters["nodes_scanned"] == want_counters["nodes_scanned"] == (
        0 if pattern.root_anchor else tree.size()
    )


@SETTINGS
@given(pattern=rooted_patterns(), tree=trees)
def test_warm_query_rows_and_charges_equal_the_cold_query(pattern, tree):
    db = Database()
    db.bind_root("T", tree)
    query = Q.root("T").sub_select(pattern).build()
    session = Session(db)
    runs = []
    for _ in ("cold", "warm"):
        with db.stats.scope() as stats:
            rows = list(session.query(query, BINDINGS))
            runs.append((rows, {name: stats[name] for name in COUNTERS}))
        assert stats["index_builds"] <= (len(runs) == 1)
    assert runs[0] == runs[1]


@pytest.mark.usefixtures("posting_scans")
def test_an_unhashable_value_equal_to_the_constant_is_not_missed():
    """``{1}`` cannot be hashed, so it is filed under its ``repr``, where
    a lookup by the equal ``frozenset({1})`` would miss it: such a map is
    not exact, and the scan walks the tree instead of reading it."""
    tree = _build((Record(k={1}), [Record(k=frozenset({1})), Record(k=[1])]))
    pattern = TreePattern(TreeAtom(Comparison("k", "=", frozenset({1}))))
    want = matcher_run(pattern, tree, untabled(pattern, tree))
    assert len(want[0]) == 2
    assert matcher_run(pattern, tree, None) == want  # cold: builds, finds it inexact
    assert not tree._postings["k"].exact
    assert matcher_run(pattern, tree, None) == want  # warm


# -- the compiled closures themselves -------------------------------------------


@SETTINGS
@given(predicate=predicates, payload=st.one_of(payloads, st.integers(), st.none()))
def test_compiled_closure_agrees_with_the_predicate(predicate, payload):
    with params.bound_params(BINDINGS):
        test = predicate.compile()
        assert test is not None
        assert test(payload) is predicate(payload)


@SETTINGS
@given(predicate=predicates)
def test_compile_refuses_what_it_cannot_reproduce(predicate):
    # No binding armed: a parameterised predicate must not compile (the
    # unbound-parameter error belongs to evaluation), a constant one must.
    parameterised = "$" in predicate.describe()
    assert (predicate.compile() is None) == parameterised
    opaque = And(predicate, pred(lambda value: True, "anything"))
    with params.bound_params(BINDINGS):
        assert opaque.compile() is None
        assert Not(opaque).compile() is None
        assert Or(predicate, opaque).compile() is None



# -- the oracle stays independent ------------------------------------------------


class _Disagrees(AlphabetPredicate):
    """Plain test ``x = "b"``, compiled test ``x = "c"``: a predicate no
    real one should be, so the two scopes can be told apart."""

    def __call__(self, obj):
        return obj == "b"

    def compile(self):
        return lambda obj: obj == "c"

    def describe(self):
        return "disagrees"


def test_the_reference_tests_child_atoms_uncompiled():
    """Default matching tests a child atom through its compiled closure;
    ``untabled_scope`` keeps ``__call__``.  A predicate whose two forms
    disagree therefore gets two answers — so the parity suites above
    compare compiled against plain, never compiled against compiled."""
    tree = _build(("r", [("a", ["b"]), ("a", ["c"])]))
    pattern = TreePattern(TreeAtom(SymbolEquals("a"), ChildSeq([TreeAtom(_Disagrees())])))
    db = Database()
    db.bind_root("T", tree)
    query = Q.root("T").sub_select(pattern).build()
    answers = []
    for engine in ("memo", "backtrack"):
        with untabled_scope(engine):
            answers.append([member.to_notation() for member in Session(db).query(query)])
    assert answers == [["a(c)"], ["a(b)"]]
