"""Property: a list's cached structural hash is the hash of its value.

Whatever path built an ``AquaList`` — the constructor, ``of``,
``from_values``, a slice, ``concat_at``, a ``split`` piece (adopted
unchecked) or a list-like tree — its first ``hash()`` equals the hash of
an equal list built fresh from re-ordered payloads, and a second
``hash()`` returns the first.  Labeled NULLs and unhashable payloads
(dicts, lists, sets) included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.list_ops import split_list_pieces
from repro.core.aqua_list import AquaList
from repro.core.concat import ConcatPoint, alpha, is_concat_point
from repro.core.identity import as_cell

payloads = st.one_of(
    st.sampled_from(("a", "b", "c")),
    st.integers(-2, 2),
    st.dictionaries(st.sampled_from("xyz"), st.integers(0, 2), max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.sets(st.integers(0, 2), max_size=2),
)
entries = st.lists(st.one_of(payloads, st.integers(1, 2).map(alpha)), max_size=8)


def _reordered(value):
    """An equal payload built anew: dict keys in reverse order."""
    if isinstance(value, dict):
        return dict(reversed(list(value.items())))
    if isinstance(value, (list, set)):
        return type(value)(value)
    return value


def _fresh(built: AquaList) -> AquaList:
    return AquaList.from_values(
        entry if is_concat_point(entry) else _reordered(entry.contents)
        for entry in built.entries
    )


def _assert_hash_cached(built: AquaList) -> None:
    first = hash(built)
    fresh = _fresh(built)
    assert built == fresh
    assert first == hash(fresh)
    assert hash(built) == first


def _built_lists(raw: list) -> list[AquaList]:
    whole = AquaList.from_values(raw)
    elements = [value for value in raw if not isinstance(value, ConcatPoint)]
    built = [
        AquaList([value if isinstance(value, ConcatPoint) else as_cell(value) for value in raw]),
        AquaList.of(*raw),
        whole,
        whole.sublist(1, len(whole) - 1),
        whole.sublist(0, len(whole)),
        whole.concat_at(alpha(1), AquaList.from_values(elements[:2])),
        AquaList.from_list_like_tree(
            AquaList.from_values([*elements, alpha(2)]).to_list_like_tree()
        ),
    ]
    no_points = AquaList.from_values(elements)
    for piece in split_list_pieces("[? !? ?]", no_points):
        built += [piece.context, piece.match, piece.descendants, *piece.descendants]
        built.append(piece.reassembled())
    return built


@settings(max_examples=150, deadline=None)
@given(entries)
def test_every_construction_path_caches_the_hash_of_its_value(raw):
    for built in _built_lists(raw):
        _assert_hash_cached(built)
