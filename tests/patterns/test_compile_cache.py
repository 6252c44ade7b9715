"""The text → pattern compile cache beside the lazy-DFA cache (ISSUE 21).

``tree_pattern`` / ``list_pattern`` serve pattern *text* from one
bounded LRU (``AQUA_DFA_CACHE_LIMIT``), keyed by text and resolver, so
algebra calls that spell their pattern as a string stop re-parsing it.
"""

import sys
import threading

import pytest

from repro.algebra import split_pieces, sub_select_list
from repro.core import AquaList, parse_tree
from repro.patterns import parse_list_pattern, parse_tree_pattern
from repro.patterns.dfa import COMPILED, DFA_CACHE_LIMIT_ENV, CompileCache
from repro.patterns.list_parser import list_pattern
from repro.patterns.tree_parser import tree_pattern
from repro.predicates import attr
from repro.storage.stats import Instrumentation


@pytest.fixture(autouse=True)
def fresh_cache():
    COMPILED.clear()
    yield
    COMPILED.clear()


def by_label(symbol):
    return attr("label") == symbol


def test_hit_returns_a_pattern_equal_to_a_fresh_parse():
    first = tree_pattern("a(b ?*)")
    assert tree_pattern("a(b ?*)") is first
    assert first == parse_tree_pattern("a(b ?*)")
    assert parse_tree_pattern("a(b ?*)") is not first  # the parser itself never caches
    melody = list_pattern("[a??f]", by_label)
    assert list_pattern("[a??f]", by_label) is melody
    assert melody == parse_list_pattern("[a??f]", by_label)
    # Same text, other notation or resolver: separate entries.
    assert list_pattern("a") is not tree_pattern("a")
    assert tree_pattern("a", by_label) is not tree_pattern("a")
    assert tree_pattern("a", by_label) == parse_tree_pattern("a", by_label)


def test_algebra_calls_compile_their_text_once():
    tree = parse_tree("a(b(a c) a(b))")
    notes = AquaList.from_values("abcabc")
    sink = Instrumentation()
    with sink.activated():
        for _ in range(5):
            assert len(split_pieces("a(?*)", tree)) == 3
            assert len(sub_select_list("[b c]", notes)) == 1  # two matches, equal as values
    assert sink["pattern_compilations"] == 2


def test_stateful_resolvers_are_never_served_stale():
    def tagged(attribute):  # a closure: its answer depends on a cell
        return lambda symbol: attr(attribute) == symbol

    assert tree_pattern("a", tagged("x")) == parse_tree_pattern("a", tagged("x"))
    assert tree_pattern("a", tagged("y")) == parse_tree_pattern("a", tagged("y"))
    assert tree_pattern("a", tagged("x")) != tree_pattern("a", tagged("y"))

    class Dialect:  # a bound method: its answer depends on the instance
        attribute = "x"

        def resolve(self, symbol):
            return attr(self.attribute) == symbol

    dialect = Dialect()
    before = list_pattern("[a]", dialect.resolve)
    dialect.attribute = "y"
    after = list_pattern("[a]", dialect.resolve)
    assert before != after
    assert after == parse_list_pattern("[a]", dialect.resolve)
    assert len(COMPILED) == 0


def test_lru_bound_follows_the_dfa_cache_knob(monkeypatch):
    monkeypatch.setenv(DFA_CACHE_LIMIT_ENV, "3")
    kept = tree_pattern("p0")
    for index in range(1, 3):
        tree_pattern(f"p{index}")
    assert tree_pattern("p0") is kept  # a hit makes p0 the most recent
    tree_pattern("p3")  # at capacity: evicts p1, the least recently used
    assert len(COMPILED) == 3
    assert tree_pattern("p0") is kept
    second = tree_pattern("p2")
    tree_pattern("p1")  # re-parsed, evicting p3
    assert tree_pattern("p2") is second
    assert len(COMPILED) == 3


def test_concurrent_callers_share_one_bounded_cache(monkeypatch):
    monkeypatch.setenv(DFA_CACHE_LIMIT_ENV, "4")
    texts = [f"s{index}(?* t{index})" for index in range(9)]
    expected = {text: parse_tree_pattern(text) for text in texts}
    cache = CompileCache()
    failures: list = []

    def client(offset: int) -> None:
        try:
            for step in range(400):
                text = texts[(offset + step * (offset + 1)) % len(texts)]
                if cache.get(parse_tree_pattern, text, None) != expected[text]:
                    failures.append(text)
                if len(cache) > 4:
                    failures.append(len(cache))
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert 0 < len(cache) <= 4
