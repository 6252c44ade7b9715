"""List query operators (paper §6).

The paper defines list operators as tree operators on *list-like trees*
(out-degree ≤ 1).  This module implements them natively on
:class:`~repro.core.aqua_list.AquaList` — same semantics, linear-time
plumbing — while :mod:`repro.algebra.list_tree_bridge` provides the
literal translation used by the equivalence property tests.

``split`` on a list decomposes it, per match, into:

* ``x`` — the prefix (the "ancestors"), with ``α`` at its tail,
* ``y`` — the match, with ``αi`` where ``!`` pruned a run of elements
  and a final point for the suffix when one exists,
* ``z`` — the pruned runs plus the suffix ("descendants"), in point
  order,

so that ``x ∘α (y ∘α1 z1 ... ∘αn zn) = L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaSet
from ..core.concat import ALPHA, ConcatPoint
from ..core.identity import Cell
from ..patterns.list_ast import ListPattern
from ..patterns.list_match import ListMatch, find_list_matches
from ..patterns.list_parser import SymbolResolver, list_pattern

PredicateLike = Callable[[Any], bool]


def select_list(predicate: PredicateLike, aqua_list: AquaList) -> AquaList:
    """Order-preserving select: survivors keep their relative order (§6)."""
    return AquaList(
        cell for cell in aqua_list.cells() if predicate(cell.contents)
    )


def apply_list(function: Callable[[Any], Any], aqua_list: AquaList) -> AquaList:
    """``apply(f)(L)``: the isomorphic list of ``f``-images."""
    return AquaList.from_values(function(cell.contents) for cell in aqua_list.cells())


@dataclass
class ListSplitPiece:
    """The three pieces of one list ``split`` match, plus metadata."""

    context: AquaList          # x — prefix with α at its tail
    match: AquaList            # y — the match with α1..αn
    descendants: AquaList      # z — pruned runs + suffix, as lists
    points: list[ConcatPoint]  # aligned with ``descendants``
    list_match: ListMatch

    def reassembled(self) -> AquaList:
        """``x ∘α (y ∘α1 z1 ... ∘αn zn)`` — the reassembly invariant."""
        rebuilt = self.match
        for point, run in zip(self.points, self.descendants):
            rebuilt = rebuilt.concat_at(point, run)
        return self.context.concat_at(ALPHA, rebuilt)


def build_pieces(aqua_list: AquaList, match: ListMatch) -> ListSplitPiece:
    """The ``(x, y, z)`` decomposition of ``aqua_list`` at one ``match``."""
    cells = aqua_list.cell_array
    # The three big pieces are cuts of an already-validated array, adopted
    # unchecked: a piece costs the same wherever the match sits.
    before = cells[: match.start]
    prefix = AquaList._adopt((*before, ALPHA), before)

    # Walk the matched span once, emitting kept cells and one fresh point
    # per pruned run, then a final point for a non-empty suffix.
    pruned_run_starts = {run[0]: run for run in match.pruned_runs}
    counter = 0
    points: list[ConcatPoint] = []
    match_entries: list[Cell | ConcatPoint] = []
    descendant_lists: list[AquaList] = []
    kept = set(match.kept)
    position = match.start
    while position < match.end:
        if position in kept:
            match_entries.append(cells[position])
            position += 1
        elif position in pruned_run_starts:
            run = pruned_run_starts[position]
            counter += 1
            point = ConcatPoint(str(counter))
            points.append(point)
            match_entries.append(point)
            pruned = cells[run[0] : run[-1] + 1]
            descendant_lists.append(AquaList._adopt(pruned, pruned))
            position = run[-1] + 1
        else:  # pragma: no cover - the match structure covers the span
            position += 1

    suffix_cells = cells[match.end :]
    if suffix_cells:
        counter += 1
        point = ConcatPoint(str(counter))
        points.append(point)
        match_entries.append(point)
        descendant_lists.append(AquaList._adopt(suffix_cells, suffix_cells))

    return ListSplitPiece(
        context=prefix,
        match=AquaList(match_entries),
        descendants=AquaList.from_values(descendant_lists),
        points=points,
        list_match=match,
    )


def split_list_pieces(
    pattern: "str | ListPattern",
    aqua_list: AquaList,
    resolver: SymbolResolver | None = None,
    starts: Sequence[int] | None = None,
) -> list[ListSplitPiece]:
    """Enumerate the ``(x, y, z)`` decompositions for every match.

    ``starts`` restricts candidate start positions (the optimizer's
    position-index hook).
    """
    lp = list_pattern(pattern, resolver)
    return [
        build_pieces(aqua_list, match)
        for match in find_list_matches(lp, aqua_list.value_array, starts=starts)
    ]


def split_list(
    pattern: "str | ListPattern",
    function: Callable[[AquaList, AquaList, AquaList], Any],
    aqua_list: AquaList,
    resolver: SymbolResolver | None = None,
    starts: Sequence[int] | None = None,
) -> AquaSet:
    """``split(lp, f)(L)`` (paper §6): apply ``f(x, y, z)`` per match."""
    return AquaSet(
        function(piece.context, piece.match, piece.descendants)
        for piece in split_list_pieces(pattern, aqua_list, resolver, starts)
    )


def sub_select_list(
    pattern: "str | ListPattern",
    aqua_list: AquaList,
    resolver: SymbolResolver | None = None,
    starts: Sequence[int] | None = None,
) -> AquaSet:
    """``sub_select(lp)(L)``: the set of matching sublists (§6).

    Points are closed with NULL, so only the kept elements remain —
    exactly ``split(lp, λ(a,b,c) b ∘α1..αn [])``.
    """
    lp = list_pattern(pattern, resolver)
    cells = aqua_list.cell_array
    return AquaSet(
        AquaList([cells[i] for i in match.kept])
        for match in find_list_matches(lp, aqua_list.value_array, starts=starts)
    )


def all_anc_list(
    pattern: "str | ListPattern",
    function: Callable[[AquaList, AquaList], Any],
    aqua_list: AquaList,
    resolver: SymbolResolver | None = None,
) -> AquaSet:
    """``all_anc(lp, f)(L)``: ``f(prefix, match)`` per match (§6).

    The music-database query of §6 — "the notes preceding the melody" —
    is ``all_anc([A??F], λ(x,y)⟨x,y⟩)(L)``.
    """
    return AquaSet(
        function(piece.context, piece.match.close_points(piece.points))
        for piece in split_list_pieces(pattern, aqua_list, resolver)
    )


def all_desc_list(
    pattern: "str | ListPattern",
    function: Callable[[AquaList, AquaList], Any],
    aqua_list: AquaList,
    resolver: SymbolResolver | None = None,
) -> AquaSet:
    """``all_desc(lp, f)(L)``: ``f(match, descendants)`` per match (§6)."""
    return AquaSet(
        function(piece.match, piece.descendants)
        for piece in split_list_pieces(pattern, aqua_list, resolver)
    )
