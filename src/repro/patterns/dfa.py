"""Lazy DFA (subset construction on demand) for list patterns.

Classical subset construction needs a finite alphabet, but our alphabet
is a set of *predicates* evaluated over arbitrary objects.  The standard
trick (also used by predicate-automata engines) is to observe that a DFA
transition only depends on the **vector of predicate outcomes** for the
input element: two elements satisfying exactly the same atom predicates
are interchangeable.  We therefore key the transition cache on
``(state_set, outcome_vector)`` and build states lazily as inputs arrive.

Compared to NFA simulation this trades memory for time: once the cache is
warm, each element costs one predicate-vector evaluation plus one dict
lookup — the classic DFA-vs-backtracking gap measured by the
``CLAIM-DFA`` benchmark.

The cache is **bounded** (``cache_limit``, LRU eviction: a hit marks the
entry most-recently-used, a miss at capacity drops exactly the least
recently used one) so long-running shells matching over high-cardinality
alphabets cannot grow it without limit, and the matcher keeps warmth
counters — hits, misses, evictions, predicate evaluations — that it
flushes to any activated :mod:`~repro.storage.stats` sink, which is how
``EXPLAIN ANALYZE`` charts DFA cache warmth per operator.  The default
bound honours the ``AQUA_DFA_CACHE_LIMIT`` environment knob.
"""

from __future__ import annotations

import threading
from types import FunctionType
from typing import Any, Callable, Sequence

from .. import config, guardrails
from ..predicates.alphabet import AlphabetPredicate
from ..storage import stats as stats_mod
from .list_ast import ListPattern, ListPatternNode
from .nfa import NFA, compile_nfa

#: Environment knob overriding the default transition-cache bound.
DFA_CACHE_LIMIT_ENV = config.DFA_CACHE_LIMIT_ENV

#: Default transition-cache bound; generous for real alphabets (a cache
#: entry per *distinct* (state-set, outcome-vector) pair), small enough
#: that a pathological alphabet cannot leak memory in a resident shell.
DEFAULT_CACHE_LIMIT = config.DEFAULT_DFA_CACHE_LIMIT


def default_cache_limit() -> int:
    """The cache bound from ``AQUA_DFA_CACHE_LIMIT``, or the default.

    Validation lives in :mod:`repro.config`; a malformed value raises a
    one-line :class:`~repro.errors.QueryError` naming the knob.
    """
    return config.validated_dfa_cache_limit()


class CompileCache:
    """Bounded LRU of compiled patterns, keyed by text and resolver.

    What :func:`~repro.patterns.tree_parser.tree_pattern` and
    :func:`~repro.patterns.list_parser.list_pattern` consult when handed
    a string, so an algebra call that spells its pattern as text inside
    a per-member function (``split_pieces("Brazil(!?* USA !?*)", tree)``
    once per tree of an extent) parses it once per process, not once per
    call.  Same discipline and same ``AQUA_DFA_CACHE_LIMIT`` bound as the
    transition cache below: a hit moves the entry to the back of the
    dict, a miss at capacity drops the front.

    A pattern is a function of its text *and* of what the resolver makes
    of each bare symbol, so only a visibly stateless resolver is served:
    ``None`` (the default) or a plain function with no closure cells.  A
    closure, a bound method, a ``partial`` or any other callable object
    may answer differently next time and always parses afresh.  Compiled
    patterns are immutable, so every caller may share one.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, Any] = {}
        self._lock = threading.Lock()

    def get(self, parse: Callable[..., Any], text: str, resolver: Any) -> Any:
        """``parse(text, resolver)``, from the cache when it may be."""
        if resolver is not None and (
            type(resolver) is not FunctionType or resolver.__closure__ is not None
        ):
            return parse(text, resolver)
        key = (parse, text, resolver)
        with self._lock:
            pattern = self._entries.pop(key, None)
            if pattern is not None:
                self._entries[key] = pattern
                return pattern
        pattern = parse(text, resolver)
        limit = default_cache_limit()
        with self._lock:
            self._entries[key] = pattern
            while len(self._entries) > limit:
                del self._entries[next(iter(self._entries))]
        return pattern

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide compile cache (the ``re`` module keeps one likewise).
COMPILED = CompileCache()


class LazyDFA:
    """A deterministic matcher built lazily over an ε-NFA."""

    def __init__(self, nfa: NFA, cache_limit: int | None = None) -> None:
        if cache_limit is None:
            cache_limit = default_cache_limit()
        if cache_limit < 1:
            raise ValueError("cache_limit must be at least 1")
        self._nfa = nfa
        self._atoms: list[AlphabetPredicate] = nfa.atom_predicates()
        self._start = nfa.eps_closure([nfa.start])
        # (state_set, outcome_vector) -> state_set
        self._cache: dict[tuple[frozenset[int], tuple[bool, ...]], frozenset[int]] = {}
        self._cache_limit = cache_limit
        atom_index = {predicate: i for i, predicate in enumerate(self._atoms)}
        # Per state: arcs with the predicate resolved to its vector slot.
        self._arcs: list[list[tuple[int, int]]] = [
            [(atom_index[predicate], target) for predicate, target in arcs]
            for arcs in nfa.transitions
        ]
        # Warmth counters: plain ints in the hot loop, flushed in bulk.
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.predicate_evals = 0
        self._emitted: dict[str, int] = {}
        # Construction itself is budgeted work: subset construction over
        # a pathological pattern can be large before a single element is
        # matched, so charge one step per NFA state now.
        guard = guardrails.current_guard()
        if guard is not None:
            guard.tick(len(self._arcs), "dfa construction")

    @property
    def start_state(self) -> frozenset[int]:
        return self._start

    @property
    def atom_count(self) -> int:
        return len(self._atoms)

    @property
    def cached_transitions(self) -> int:
        return len(self._cache)

    @property
    def cache_limit(self) -> int:
        return self._cache_limit

    def stats_snapshot(self) -> dict[str, int]:
        """Warmth counters plus the current cache size (a gauge)."""
        return {
            "dfa_cache_hits": self.cache_hits,
            "dfa_cache_misses": self.cache_misses,
            "dfa_cache_evictions": self.cache_evictions,
            "dfa_cache_size": len(self._cache),
            "predicate_evals": self.predicate_evals,
        }

    def emit_stats(self) -> None:
        """Flush counter *deltas* since the last flush to activated sinks.

        Deltas keep a long-lived matcher (a resident shell reusing one
        compiled DFA) from re-reporting old work on every query.
        """
        snapshot = self.stats_snapshot()
        del snapshot["dfa_cache_size"]  # a gauge, not a counter
        deltas = {
            name: value - self._emitted.get(name, 0)
            for name, value in snapshot.items()
        }
        self._emitted = snapshot
        stats_mod.emit_many(deltas)

    def outcome_vector(self, value: Any) -> tuple[bool, ...]:
        self.predicate_evals += len(self._atoms)
        return tuple(predicate(value) for predicate in self._atoms)

    def is_accepting(self, states: frozenset[int]) -> bool:
        return self._nfa.accept in states

    def step(self, states: frozenset[int], value: Any) -> frozenset[int]:
        vector = self.outcome_vector(value)
        key = (states, vector)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            # LRU: re-insert so the entry moves to the back of the dict's
            # insertion order — the front is always the coldest entry.
            del self._cache[key]
            self._cache[key] = cached
            return cached
        self.cache_misses += 1
        moved: set[int] = set()
        for state in states:
            for atom_slot, target in self._arcs[state]:
                if vector[atom_slot]:
                    moved.add(target)
        result = self._nfa.eps_closure(moved) if moved else frozenset()
        if len(self._cache) >= self._cache_limit:
            # Evict exactly the least recently used entry (the front of
            # the insertion order, thanks to the re-insert on hit) —
            # unlike dropping a whole FIFO quarter, a hot working set
            # one entry wider than the limit loses one cold transition,
            # not a quarter of its warmth.
            del self._cache[next(iter(self._cache))]
            self.cache_evictions += 1
        self._cache[key] = result
        return result

    def accepts(self, values: Sequence[Any]) -> bool:
        with guardrails.guarded() as guard:
            states = self._start
            try:
                for value in values:
                    if guard is not None:
                        guard.tick(1, "dfa step")
                    states = self.step(states, value)
                    if not states:
                        return False
                return self.is_accepting(states)
            finally:
                self.emit_stats()

    def ends_from(self, values: Sequence[Any], start: int) -> list[int]:
        with guardrails.guarded() as guard:
            ends: list[int] = []
            states = self._start
            position = start
            if self.is_accepting(states):
                ends.append(position)
            while position < len(values) and states:
                if guard is not None:
                    guard.tick(1, "dfa step")
                states = self.step(states, values[position])
                position += 1
                if self.is_accepting(states):
                    ends.append(position)
            return ends


def compile_dfa(
    pattern: ListPattern | ListPatternNode,
    cache_limit: int | None = None,
) -> LazyDFA:
    return LazyDFA(compile_nfa(pattern), cache_limit=cache_limit)


def dfa_find_spans(
    pattern: ListPattern,
    values: Sequence[Any],
    starts: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """All ``(start, end)`` spans via the lazy DFA (anchor-aware)."""
    with guardrails.guarded():
        return _dfa_find_spans(pattern, values, starts)


def _dfa_find_spans(
    pattern: ListPattern,
    values: Sequence[Any],
    starts: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    dfa = compile_dfa(pattern)
    n = len(values)
    if starts is None:
        candidate_starts: Sequence[int] = (0,) if pattern.anchor_start else range(n + 1)
    else:
        candidate_starts = sorted(set(starts))
        if pattern.anchor_start:
            candidate_starts = [s for s in candidate_starts if s == 0]
    spans: list[tuple[int, int]] = []
    try:
        for start in candidate_starts:
            if start > n:
                continue
            for end in dfa.ends_from(values, start):
                if pattern.anchor_end and end != n:
                    continue
                spans.append((start, end))
    finally:
        dfa.emit_stats()
    return sorted(set(spans))
