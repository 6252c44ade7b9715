"""First-set scan ≡ node-at-a-time scan (ISSUE 21).

Random closure-free patterns whose roots are an atom, a union of atoms
or the left of a ``∘α`` — plus ``+α`` roots, which must fall back —
over predicates built from ``$param`` constants, ``AND``/``OR``/``NOT``,
missing attributes and mixed-type comparisons, against random trees of
strings, records, dicts and labeled NULLs.  The default path (first-set
scan, bulk charges) and the null-table reference (``untabled_scope``:
every node enters the matcher) must yield the same match stream in the
same order *and* the same ``backtrack_steps`` / ``predicate_evals`` /
``nodes_scanned`` totals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.api import Session
from repro.core import make_tuple
from repro.core.aqua_tree import AquaTree
from repro.core.concat import ConcatPoint
from repro.core.identity import Record
from repro.params import Param
from repro.patterns import find_tree_matches
from repro.patterns.tree_ast import (
    ChildSeq,
    ChildStar,
    PointAtom,
    TreeAtom,
    TreeConcat,
    TreePattern,
    TreePlus,
    TreeUnion,
)
from repro.predicates.alphabet import ANY, And, Comparison, Not, Or, SymbolEquals, pred
from repro.query import Q
from repro.storage import Database
from repro.storage.stats import Instrumentation

from ..reference import untabled, untabled_scope

SETTINGS = settings(max_examples=120, deadline=None)

LABELS = ("a", "b", "c")
BINDINGS = {"p": 1, "s": "a"}
COUNTERS = ("backtrack_steps", "predicate_evals", "nodes_scanned")

#: Attribute values of both types, so ``k > 1`` meets ``k = "a"``.
attribute_values = st.one_of(st.integers(0, 3), st.sampled_from(LABELS))

payloads = st.one_of(
    st.sampled_from(LABELS),
    attribute_values.map(lambda v: Record(k=v)),
    attribute_values.map(lambda v: {"k": v}),
    st.just(None).map(lambda _: Record(other=1)),  # attribute missing
    st.just({}),
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

ANY_RUN = ChildStar(TreeAtom(ANY, None))
POINT = ConcatPoint("9")


@st.composite
def atoms(draw, point: bool = False):
    predicate = draw(predicates)
    if point:
        return TreeAtom(predicate, ChildSeq([ANY_RUN, PointAtom(POINT), ANY_RUN]))
    children = draw(
        st.sampled_from(
            (
                None,
                ANY_RUN,
                ChildSeq([TreeAtom(SymbolEquals("a"), None), ANY_RUN]),
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


@SETTINGS
@given(pattern=rooted_patterns(), tree=trees)
def test_matcher_stream_and_counters_equal_the_reference(pattern, tree):
    keys, counters = matcher_run(pattern, tree, None)
    want_keys, want_counters = matcher_run(pattern, tree, untabled(pattern, tree))
    assert keys == want_keys
    if not pattern.has_vertical_closure():  # a closure's tables save steps
        assert counters == want_counters
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
        with db.stats.scope() as stats, untabled_scope(db, engine):
            rows = list(session.query(query, BINDINGS))
            runs.append((rows, {name: stats[name] for name in COUNTERS}))
    (rows, counters), (want_rows, want_counters) = runs
    assert rows == want_rows
    if not pattern.has_vertical_closure():
        assert counters == want_counters
    assert counters["nodes_scanned"] == want_counters["nodes_scanned"] == (
        0 if pattern.root_anchor else tree.size()
    )


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

