"""Knob validation: every ``AQUA_*`` value is checked on first read.

The seven ``AQUA_*`` knobs are the budget limits and the fault-injection
pair.  ``TestParallel*`` and ``TestDfaCacheLimitKnob`` are historical
class names: the knobs they once covered are gone, and each class now
pins a surviving knob (or, for ``TestParallelKnob``, the inert
``parallel=`` keyword kept for call compatibility), or that a retired
variable is ignored.
"""

import pytest

from repro import config, context, guardrails
from repro.__main__ import Shell
from repro.errors import QueryError, ResourceExhaustedError
from repro.guardrails import ENV_KNOBS, Budget
from repro.patterns import find_spans, pattern_tokens
from repro.patterns.list_parser import list_pattern, parse_list_pattern
from repro.patterns.pattern_tokens import COMPILED, CompileCache
from repro.patterns.tree_parser import parse_tree_pattern

MAX_STEPS_ENV = "AQUA_MAX_STEPS"

#: The compile-cache bound's variable before the bound became a constant.
RETIRED_CACHE_ENV = "AQUA_DFA_CACHE_LIMIT"


def melody_spans():
    """``[a b]`` over a fixed melody, compiled through ``COMPILED``."""
    COMPILED.clear()
    return find_spans(list_pattern("[a b]"), list("xabab"))


class TestDfaCacheLimitKnob:
    """``AQUA_DFA_CACHE_LIMIT`` is retired: no value of it is read."""

    def test_default(self, monkeypatch):
        monkeypatch.delenv(RETIRED_CACHE_ENV, raising=False)
        assert pattern_tokens.COMPILE_CACHE_LIMIT == 4096
        for name in ("DFA_CACHE_LIMIT_ENV", "DEFAULT_DFA_CACHE_LIMIT", "validated_dfa_cache_limit"):
            assert not hasattr(config, name)

    def test_env(self, monkeypatch):
        monkeypatch.setenv(RETIRED_CACHE_ENV, "16")
        cache = CompileCache()
        for index in range(20):
            cache.get(parse_tree_pattern, f"e{index}", None)
        assert len(cache) == 20

    @pytest.mark.parametrize("bogus", ["lots", "0", "-3", "1.5"])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        # Each value the variable once refused now changes nothing.
        monkeypatch.delenv(RETIRED_CACHE_ENV, raising=False)
        expected = melody_spans()
        monkeypatch.setenv(RETIRED_CACHE_ENV, bogus)
        assert melody_spans() == expected == [(1, 3), (3, 5)]


class TestParallelKnob:
    """The ``parallel=`` keyword: validated, value-only, never read."""

    def test_default(self):
        assert config.validated_parallel(None) is None
        assert config.PARALLEL_MODES == ("on", "off")

    def test_env_off(self, monkeypatch):
        # No environment variable steers it: even a malformed one set
        # under the retired name is never looked at.
        monkeypatch.setenv("AQUA_PARALLEL", "turbo")
        for mode in (None, "on", "off"):
            config.validated_parallel(mode)

    def test_scope_beats_env(self):
        # No thread-local scope exists to arm: config keeps no state.
        assert not hasattr(config, "parallel_scope")
        assert not hasattr(config, "_local")

    @pytest.mark.parametrize("bogus", ["turbo", "", "ON", "true"])
    def test_rejects_bad_values_naming_the_knob(self, bogus):
        with pytest.raises(QueryError, match="parallel"):
            config.validated_parallel(bogus)


class TestParallelWorkersKnob:
    """The compile cache's bound: a module constant, no argument, no
    environment."""

    def test_default_auto_resolves_to_a_positive_count(self, monkeypatch):
        monkeypatch.delenv(RETIRED_CACHE_ENV, raising=False)
        assert pattern_tokens.COMPILE_CACHE_LIMIT >= 1

    def test_env_pins_the_pool(self, monkeypatch):
        monkeypatch.setenv(RETIRED_CACHE_ENV, "3")
        cache = CompileCache()
        for index in range(5):
            cache.get(parse_list_pattern, f"[a{'b' * index}]", None)
        assert len(cache) == 5

    def test_argument_beats_scope_beats_env(self, monkeypatch):
        # No constructor option exists to override the constant.
        monkeypatch.setenv(RETIRED_CACHE_ENV, "3")
        with pytest.raises(TypeError):
            CompileCache(5)
        with pytest.raises(TypeError):
            CompileCache(cache_limit=5)

    def test_explicit_auto_still_resolves(self, monkeypatch):
        # The bound in force is the constant's value at each miss.
        monkeypatch.delenv(RETIRED_CACHE_ENV, raising=False)
        cache = CompileCache()
        for index in range(4):
            cache.get(parse_tree_pattern, f"x{index}", None)
        monkeypatch.setattr(pattern_tokens, "COMPILE_CACHE_LIMIT", 2)
        cache.get(parse_tree_pattern, "x4", None)  # the next miss trims
        assert len(cache) == 2

    @pytest.mark.parametrize("bogus", ["many", "0", "-2", "1.5", ""])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.setenv(RETIRED_CACHE_ENV, bogus)
        assert melody_spans() == [(1, 3), (3, 5)]
        assert len(COMPILED) == 1

    def test_scope_validates_eagerly(self, monkeypatch):
        # Nothing is validated because nothing is read, not even at a miss.
        monkeypatch.setenv(RETIRED_CACHE_ENV, "0")
        cache = CompileCache()
        cache.get(parse_tree_pattern, "v(?*)", None)
        assert len(cache) == 1


class TestParallelMinRowsKnob:
    """The compile cache under a patched bound, with the retired
    variable set against it."""

    def test_default(self, monkeypatch):
        monkeypatch.delenv(RETIRED_CACHE_ENV, raising=False)
        cache = CompileCache()
        for index in range(5):
            cache.get(parse_tree_pattern, f"d{index}", None)
        assert len(cache) == 5

    def test_env_and_zero_engages_always(self, monkeypatch):
        # A bound of one evicts on every miss; the variable at zero is
        # not refused.
        monkeypatch.setattr(pattern_tokens, "COMPILE_CACHE_LIMIT", 1)
        cache = CompileCache()
        for index in range(3):
            cache.get(parse_tree_pattern, f"z{index}", None)
            assert len(cache) == 1
        monkeypatch.setenv(RETIRED_CACHE_ENV, "0")
        cache.get(parse_tree_pattern, "z9", None)
        assert len(cache) == 1

    def test_scope_beats_env(self, monkeypatch):
        monkeypatch.setattr(pattern_tokens, "COMPILE_CACHE_LIMIT", 64)
        cache = CompileCache()
        for index in range(8):
            cache.get(parse_tree_pattern, f"s{index}", None)
        assert len(cache) == 8
        monkeypatch.setenv(RETIRED_CACHE_ENV, "2")
        cache.get(parse_tree_pattern, "s8", None)  # the next miss trims nothing
        assert len(cache) == 9

    @pytest.mark.parametrize("bogus", ["lots", "-1", "2.5"])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.setenv(RETIRED_CACHE_ENV, bogus)
        cache = CompileCache()
        cache.get(parse_tree_pattern, "r(?*)", None)
        assert len(cache) == 1


class TestParallelWorkerKindKnob:
    """The ``max_steps`` budget knob: ``AQUA_MAX_STEPS`` and the shell's
    ``\\budget steps=``."""

    def test_default(self, monkeypatch):
        for knob in ENV_KNOBS:
            monkeypatch.delenv(knob, raising=False)
        assert Budget.from_env().max_steps is None
        with context.entered(default=guardrails.env_guard) as run:
            assert run.guard is None  # unlimited: nothing armed
            assert context.current() is None

    def test_env(self, monkeypatch):
        monkeypatch.setenv(MAX_STEPS_ENV, "4")
        assert Budget.from_env().max_steps == 4
        with context.entered(default=guardrails.env_guard) as run:
            with pytest.raises(ResourceExhaustedError) as excinfo:
                run.guard.tick(5, "test step")
        assert excinfo.value.limit_name == "max_steps"

    def test_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(MAX_STEPS_ENV, "4")
        with context.entered(Budget(max_steps=100).arm) as run:
            assert run.guard.budget.max_steps == 100
        shell = Shell()
        assert shell.budget.max_steps == 4
        assert "max_steps=100" in shell.execute("\\budget steps=100")
        assert shell.budget.max_steps == 100

    @pytest.mark.parametrize("bogus", ["forks", "THREADS", "", "-1"])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.delenv(MAX_STEPS_ENV, raising=False)
        shell = Shell()
        reply = shell.execute(f"\\budget steps={bogus}")
        assert reply.startswith("error: max_steps")
        assert shell.budget.max_steps is None

    @pytest.mark.parametrize("bogus", ["lots", "-1"])
    def test_env_ignores_malformed_values(self, monkeypatch, bogus):
        """A malformed limit in the environment — not a number, or
        negative — is unlimited, so it cannot make every query trip."""
        for knob in ENV_KNOBS:
            monkeypatch.delenv(knob, raising=False)
        monkeypatch.setenv(MAX_STEPS_ENV, bogus)
        assert Budget.from_env().max_steps is None
        with context.entered(default=guardrails.env_guard) as run:
            assert run.guard is None

    @pytest.mark.parametrize("field", sorted(f for f in Budget().to_dict()))
    def test_budget_rejects_negative_limits_naming_the_field(self, field):
        with pytest.raises(QueryError, match=f"^{field}: invalid value -1"):
            Budget(**{field: -1})
        assert getattr(Budget(**{field: 0}), field) == 0
