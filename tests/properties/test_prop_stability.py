"""Properties: stability (order/ancestry preservation) of select (§1, §4).

Trees carry identity-bearing payloads (``Record(label=...)``), matching
the paper's OODB setting: ``select`` returns a *set* of trees, and with
value payloads structurally identical forest members would collapse;
with object payloads every survivor is accounted for individually.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.list_ops import select_list
from repro.algebra.tree_ops import select
from repro.storage.tree_index import TreeIndex

from .strategies import SYMBOLS, aqua_lists, identity_trees

SETTINGS = settings(max_examples=80, deadline=None)

keep_sets = st.sets(st.sampled_from(SYMBOLS))


def _keeper(keep):
    return lambda person: person.label in keep


@SETTINGS
@given(tree=identity_trees(), keep=keep_sets)
def test_tree_select_keeps_exactly_the_satisfying_nodes(tree, keep):
    forest = select(_keeper(keep), tree)
    kept = sorted(id(v) for result in forest for v in result.values())
    expected = sorted(id(v) for v in tree.values() if v.label in keep)
    assert kept == expected


@SETTINGS
@given(tree=identity_trees(), keep=keep_sets)
def test_tree_select_preserves_ancestry(tree, keep):
    """n1 ancestor of n2 in the result iff ancestor in the input (§4)."""
    index = TreeIndex(tree)
    survivors = [n for n in tree.element_nodes() if n.value.label in keep]
    expected_pairs = {
        (id(a.value), id(b.value))
        for a in survivors
        for b in survivors
        if index.is_ancestor(a, b)
    }

    forest = select(_keeper(keep), tree)
    actual_pairs = set()
    for result in forest:
        result_index = TreeIndex(result)
        nodes = list(result.element_nodes())
        for a in nodes:
            for b in nodes:
                if a is not b and result_index.is_ancestor(a, b):
                    actual_pairs.add((id(a.value), id(b.value)))
    assert actual_pairs == expected_pairs


@SETTINGS
@given(tree=identity_trees())
def test_index_ancestry_and_depth_agree_with_the_parent_chain(tree):
    """The layout's two int compares say what walking up the parents says."""
    index = TreeIndex(tree)
    parents = tree.parent_map()

    def ancestors(node):
        chain = []
        while (node := parents[id(node)]) is not None:
            chain.append(node)
        return chain

    nodes = list(tree.nodes())
    for b in nodes:
        above = ancestors(b)
        assert index.depth(b) == len(above)
        for a in nodes:
            assert index.is_ancestor(a, b) == any(a is n for n in above)


@SETTINGS
@given(tree=identity_trees(), keep=keep_sets)
def test_tree_select_preserves_preorder(tree, keep):
    """Survivors appear in the same relative preorder as in the input."""
    original_order = [
        id(n.value) for n in tree.element_nodes() if n.value.label in keep
    ]
    forest = select(_keeper(keep), tree)
    position = {pid: i for i, pid in enumerate(original_order)}
    ranked = []
    for result in forest:
        members = [id(n.value) for n in result.element_nodes()]
        ranked.append((position[members[0]], members))
    result_order = []
    for _, members in sorted(ranked):
        result_order.extend(members)
    assert result_order == original_order


@SETTINGS
@given(tree=identity_trees(), keep=keep_sets)
def test_tree_select_contracts_edges_correctly(tree, keep):
    """Result edges are exactly the surviving pairs with no surviving
    node strictly between them (§4's edge rule)."""
    index = TreeIndex(tree)
    survivors = [n for n in tree.element_nodes() if n.value.label in keep]
    survivor_ids = {id(n.value) for n in survivors}

    expected_edges = set()
    for a in survivors:
        for b in survivors:
            if not index.is_ancestor(a, b):
                continue
            blocked = any(
                id(c.value) in survivor_ids
                and c is not a
                and c is not b
                and index.is_ancestor(a, c)
                and index.is_ancestor(c, b)
                for c in survivors
            )
            if not blocked:
                expected_edges.add((id(a.value), id(b.value)))

    forest = select(_keeper(keep), tree)
    actual_edges = {
        (id(parent.value), id(child.value))
        for result in forest
        for parent, child in result.edges()
    }
    assert actual_edges == expected_edges


@SETTINGS
@given(values=aqua_lists(), keep=keep_sets)
def test_list_select_is_order_preserving_filter(values, keep):
    result = select_list(lambda v: v in keep, values)
    assert result.values() == [v for v in values.values() if v in keep]


@SETTINGS
@given(values=aqua_lists(), keep=keep_sets)
def test_list_select_matches_tree_select_on_list_like_tree(values, keep):
    from repro.algebra.list_tree_bridge import select_via_tree

    native = select_list(lambda v: v in keep, values)
    via_tree = select_via_tree(lambda v: v in keep, values)
    assert native == via_tree
