"""The pattern compile cache's LRU bound and compilation counts.

The file keeps its name from the lazy DFA whose transition cache it once
covered; the DFA is gone and :class:`CompileCache` is the one bounded
cache left on the list-pattern path.  Its bound is the module constant
``COMPILE_CACHE_LIMIT``, which these tests patch.  The retired
``AQUA_DFA_CACHE_LIMIT`` variable is ignored whatever its value.
"""

import pytest

from repro import context
from repro.patterns import find_spans, parse_list_pattern, pattern_tokens
from repro.patterns.pattern_tokens import CompileCache
from repro.storage.stats import Instrumentation

RETIRED_ENV = "AQUA_DFA_CACHE_LIMIT"


def compile_into(cache, text):
    return cache.get(parse_list_pattern, text, None)


def test_cache_limit_must_be_positive(monkeypatch):
    assert pattern_tokens.COMPILE_CACHE_LIMIT >= 1
    # The smallest bound still serves the latest pattern from the cache.
    monkeypatch.setattr(pattern_tokens, "COMPILE_CACHE_LIMIT", 1)
    cache = CompileCache()
    for text in ("[a]", "[b]", "[c]"):
        kept = compile_into(cache, text)
        assert len(cache) == 1
        assert compile_into(cache, text) is kept


def test_env_knob_overrides_default_limit(monkeypatch):
    monkeypatch.setenv(RETIRED_ENV, "2")
    cache = CompileCache()
    for index in range(5):
        compile_into(cache, f"[a{'b' * index}]")
    assert len(cache) == 5  # the module constant bounds it, not the variable


@pytest.mark.parametrize("raw", ["lots", "0", "-3"])
def test_env_knob_rejects_bad_values(monkeypatch, raw):
    # Once rejected with a QueryError; now never read, so never rejected.
    monkeypatch.setenv(RETIRED_ENV, raw)
    cache = CompileCache()
    pattern = compile_into(cache, "[a??f]")
    assert pattern == parse_list_pattern("[a??f]")
    assert find_spans(pattern, list("xabcfaf")) == [(1, 5)]
    assert len(cache) == 1


def test_lru_hit_protects_entry_from_eviction(monkeypatch):
    monkeypatch.setattr(pattern_tokens, "COMPILE_CACHE_LIMIT", 2)
    cache = CompileCache()
    a = compile_into(cache, "[a]")  # miss: cache [a]
    compile_into(cache, "[b]")  # miss: cache [a, b] — at capacity
    assert compile_into(cache, "[a]") is a  # hit: 'a' becomes most recent
    compile_into(cache, "[f]")  # miss at capacity: evicts 'b', the LRU entry
    assert len(cache) == 2
    assert compile_into(cache, "[a]") is a  # 'a' survived the eviction


def test_eviction_drops_exactly_one_entry_per_overflow(monkeypatch):
    monkeypatch.setattr(pattern_tokens, "COMPILE_CACHE_LIMIT", 2)
    cache = CompileCache()
    first = compile_into(cache, "[a]")
    second = compile_into(cache, "[b]")
    compile_into(cache, "[f]")
    assert len(cache) == 2
    assert compile_into(cache, "[b]") is second  # still cached
    assert compile_into(cache, "[a]") is not first  # the one evicted entry


def test_cache_never_exceeds_limit(monkeypatch):
    monkeypatch.setattr(pattern_tokens, "COMPILE_CACHE_LIMIT", 2)
    cache = CompileCache()
    for symbol in "abcfabdfeafbcafdbacf" * 5:
        compile_into(cache, f"[{symbol}]")
        assert len(cache) <= 2


def test_eviction_does_not_change_answers(monkeypatch):
    words = ("abcf", "afff", "xyz", "acef", "aaf", "")
    texts = ("[a??f]", "[a*f]", "[[[a|x]]?]", "^[a?]")
    reference = {
        (text, word): find_spans(parse_list_pattern(text), list(word))
        for text in texts
        for word in words
    }
    monkeypatch.setattr(pattern_tokens, "COMPILE_CACHE_LIMIT", 1)
    tiny = CompileCache()
    for word in words:
        for text in texts:
            assert find_spans(compile_into(tiny, text), list(word)) == reference[text, word]


def test_hits_and_misses_counted():
    cache = CompileCache()
    sink = Instrumentation()
    with context.entered(receiver=sink):
        compile_into(cache, "[a??f]")  # miss: compiles
        assert sink["pattern_compilations"] == 1
        compile_into(cache, "[a??f]")  # hit: no compilation
        assert sink["pattern_compilations"] == 1
        compile_into(cache, "[a?f]")  # another text: another miss
    assert sink["pattern_compilations"] == 2


def test_counters_flush_to_activated_sink_as_deltas():
    cache = CompileCache()
    stats = Instrumentation()
    with context.entered(receiver=stats):
        compile_into(cache, "[a??f]")
    assert stats["pattern_compilations"] == 1
    with context.entered(receiver=stats):
        compile_into(cache, "[a??f]")
    # The second run served the text warm and reported nothing new.
    assert stats["pattern_compilations"] == 1
