"""Knob validation: every ``AQUA_*`` value is checked on first read.

The eight ``AQUA_*`` knobs are the budget limits, the DFA cache bound and
the fault-injection pair.  ``TestParallel*`` are historical class names:
the parallel knobs they once covered are gone, and each class now pins a
surviving knob (or, for ``TestParallelKnob``, the inert ``parallel=``
keyword kept for call compatibility).
"""

import pytest

from repro import config
from repro.__main__ import Shell
from repro.errors import QueryError, ResourceExhaustedError
from repro.guardrails import ENV_KNOBS, Budget, guarded
from repro.patterns.dfa import CompileCache, compile_dfa
from repro.patterns.list_parser import parse_list_pattern
from repro.patterns.tree_parser import parse_tree_pattern

MAX_STEPS_ENV = "AQUA_MAX_STEPS"


def small_dfa(cache_limit=None):
    return compile_dfa(parse_list_pattern("[a b]"), cache_limit=cache_limit)


class TestDfaCacheLimitKnob:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(config.DFA_CACHE_LIMIT_ENV, raising=False)
        assert config.validated_dfa_cache_limit() == config.DEFAULT_DFA_CACHE_LIMIT

    def test_env(self, monkeypatch):
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, "16")
        assert config.validated_dfa_cache_limit() == 16

    @pytest.mark.parametrize("bogus", ["lots", "0", "-3", "1.5"])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, bogus)
        with pytest.raises(QueryError, match=config.DFA_CACHE_LIMIT_ENV):
            config.validated_dfa_cache_limit()


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
    """``AQUA_DFA_CACHE_LIMIT`` as the lazy-DFA transition cache reads it."""

    def test_default_auto_resolves_to_a_positive_count(self, monkeypatch):
        monkeypatch.delenv(config.DFA_CACHE_LIMIT_ENV, raising=False)
        assert small_dfa().cache_limit == config.DEFAULT_DFA_CACHE_LIMIT >= 1

    def test_env_pins_the_pool(self, monkeypatch):
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, "3")
        assert small_dfa().cache_limit == 3

    def test_argument_beats_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, "3")
        assert small_dfa(cache_limit=5).cache_limit == 5
        assert config.validated_dfa_cache_limit(2) == 2
        assert small_dfa().cache_limit == 3

    def test_explicit_auto_still_resolves(self, monkeypatch):
        # An explicit ``None`` resolves exactly like an omitted argument.
        monkeypatch.delenv(config.DFA_CACHE_LIMIT_ENV, raising=False)
        assert small_dfa(cache_limit=None).cache_limit == config.DEFAULT_DFA_CACHE_LIMIT

    @pytest.mark.parametrize("bogus", ["many", "0", "-2", "1.5", ""])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, bogus)
        with pytest.raises(QueryError, match=config.DFA_CACHE_LIMIT_ENV):
            small_dfa()

    def test_scope_validates_eagerly(self, monkeypatch):
        monkeypatch.delenv(config.DFA_CACHE_LIMIT_ENV, raising=False)
        with pytest.raises(QueryError, match=config.DFA_CACHE_LIMIT_ENV):
            config.validated_dfa_cache_limit(0)


class TestParallelMinRowsKnob:
    """``AQUA_DFA_CACHE_LIMIT`` as the pattern compile cache reads it:
    once per miss, so the bound in force is the environment's now."""

    def test_default(self, monkeypatch):
        monkeypatch.delenv(config.DFA_CACHE_LIMIT_ENV, raising=False)
        cache = CompileCache()
        for index in range(5):
            cache.get(parse_tree_pattern, f"d{index}", None)
        assert len(cache) == 5

    def test_env_and_zero_engages_always(self, monkeypatch):
        # A bound of one evicts on every miss; a bound of zero is refused.
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, "1")
        cache = CompileCache()
        for index in range(3):
            cache.get(parse_tree_pattern, f"z{index}", None)
            assert len(cache) == 1
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, "0")
        with pytest.raises(QueryError, match=config.DFA_CACHE_LIMIT_ENV):
            cache.get(parse_tree_pattern, "z9", None)

    def test_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, "64")
        cache = CompileCache()
        for index in range(8):
            cache.get(parse_tree_pattern, f"s{index}", None)
        assert len(cache) == 8
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, "2")
        cache.get(parse_tree_pattern, "s8", None)  # the next miss trims
        assert len(cache) == 2

    @pytest.mark.parametrize("bogus", ["lots", "-1", "2.5"])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.setenv(config.DFA_CACHE_LIMIT_ENV, bogus)
        cache = CompileCache()
        with pytest.raises(QueryError, match=config.DFA_CACHE_LIMIT_ENV):
            cache.get(parse_tree_pattern, "r(?*)", None)
        assert len(cache) == 0


class TestParallelWorkerKindKnob:
    """The ``max_steps`` budget knob: ``AQUA_MAX_STEPS`` and the shell's
    ``\\budget steps=``."""

    def test_default(self, monkeypatch):
        for knob in ENV_KNOBS:
            monkeypatch.delenv(knob, raising=False)
        assert Budget.from_env().max_steps is None
        with guarded() as guard:
            assert guard is None  # unlimited: nothing armed

    def test_env(self, monkeypatch):
        monkeypatch.setenv(MAX_STEPS_ENV, "4")
        assert Budget.from_env().max_steps == 4
        with guarded() as guard:
            with pytest.raises(ResourceExhaustedError) as excinfo:
                guard.tick(5, "test step")
        assert excinfo.value.limit_name == "max_steps"

    def test_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(MAX_STEPS_ENV, "4")
        with guarded(Budget(max_steps=100)) as guard:
            assert guard.budget.max_steps == 100
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
        with guarded() as guard:
            assert guard is None

    @pytest.mark.parametrize("field", sorted(f for f in Budget().to_dict()))
    def test_budget_rejects_negative_limits_naming_the_field(self, field):
        with pytest.raises(QueryError, match=f"^{field}: invalid value -1"):
            Budget(**{field: -1})
        assert getattr(Budget(**{field: 0}), field) == 0
