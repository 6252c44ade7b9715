"""The lazy DFA's bounded transition cache and warmth counters."""

import pytest

from repro import context
from repro.errors import QueryError
from repro.patterns import compile_dfa, parse_list_pattern
from repro.patterns.dfa import DFA_CACHE_LIMIT_ENV, DEFAULT_CACHE_LIMIT
from repro.storage.stats import Instrumentation

PATTERN = parse_list_pattern("[a??f]")


def test_cache_limit_must_be_positive():
    with pytest.raises(ValueError):
        compile_dfa(PATTERN, cache_limit=0)


def test_env_knob_overrides_default_limit(monkeypatch):
    monkeypatch.delenv(DFA_CACHE_LIMIT_ENV, raising=False)
    assert compile_dfa(PATTERN).cache_limit == DEFAULT_CACHE_LIMIT
    monkeypatch.setenv(DFA_CACHE_LIMIT_ENV, "2")
    assert compile_dfa(PATTERN).cache_limit == 2
    # An explicit argument still wins over the environment.
    assert compile_dfa(PATTERN, cache_limit=7).cache_limit == 7


@pytest.mark.parametrize("raw", ["lots", "0", "-3"])
def test_env_knob_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv(DFA_CACHE_LIMIT_ENV, raw)
    with pytest.raises(QueryError, match="AQUA_DFA_CACHE_LIMIT"):
        compile_dfa(PATTERN)


def test_lru_hit_protects_entry_from_eviction():
    # From the start set, 'a', 'b' and 'f' have distinct outcome vectors
    # for the pattern's atoms (a, f), so each is its own cache key.
    dfa = compile_dfa(PATTERN, cache_limit=2)
    start = dfa.start_state
    dfa.step(start, "a")  # miss: cache [a]
    dfa.step(start, "b")  # miss: cache [a, b] — at capacity
    dfa.step(start, "a")  # hit: 'a' becomes most recently used
    hits = dfa.cache_hits
    dfa.step(start, "f")  # miss at capacity: evicts 'b', the LRU entry
    assert dfa.cache_evictions == 1
    dfa.step(start, "a")  # 'a' survived the eviction
    assert dfa.cache_hits == hits + 1
    assert dfa.cached_transitions == 2


def test_eviction_drops_exactly_one_entry_per_overflow():
    dfa = compile_dfa(PATTERN, cache_limit=2)
    start = dfa.start_state
    for value in "abf":
        dfa.step(start, value)
    assert dfa.cached_transitions == 2
    assert dfa.cache_evictions == 1


def test_cache_never_exceeds_limit():
    dfa = compile_dfa(PATTERN, cache_limit=2)
    values = list("abcfabdfeafbcafdbacf") * 5
    dfa.accepts(values)
    assert dfa.cached_transitions <= 2
    assert dfa.cache_evictions > 0


def test_eviction_does_not_change_answers():
    reference = compile_dfa(PATTERN)  # default (effectively unbounded here)
    tiny = compile_dfa(PATTERN, cache_limit=1)
    for word in ("abcf", "afff", "xyz", "acef", "aaf", ""):
        assert tiny.accepts(list(word)) == reference.accepts(list(word))


def test_hits_and_misses_counted():
    dfa = compile_dfa(PATTERN)
    dfa.accepts(list("abcf"))
    first_misses = dfa.cache_misses
    assert first_misses > 0
    assert dfa.cache_hits == 0
    dfa.accepts(list("abcf"))  # identical walk: all transitions cached
    assert dfa.cache_misses == first_misses
    assert dfa.cache_hits > 0


def test_counters_flush_to_activated_sink_as_deltas():
    stats = Instrumentation()
    dfa = compile_dfa(PATTERN)
    with context.entered(receiver=stats):
        dfa.accepts(list("abcf"))
    assert stats["dfa_cache_misses"] == dfa.cache_misses
    assert stats["predicate_evals"] == dfa.predicate_evals
    first_total = dfa.cache_misses
    with context.entered(receiver=stats):
        dfa.accepts(list("abcf"))
    # Second run re-reports only the delta, not the lifetime total.
    assert stats["dfa_cache_misses"] == dfa.cache_misses == first_total
    assert stats["dfa_cache_hits"] == dfa.cache_hits


def test_snapshot_reports_cache_size_gauge():
    dfa = compile_dfa(PATTERN, cache_limit=8)
    dfa.accepts(list("abcf"))
    snapshot = dfa.stats_snapshot()
    assert snapshot["dfa_cache_size"] == dfa.cached_transitions
    assert snapshot["dfa_cache_hits"] == dfa.cache_hits
