"""Knob validation: every ``AQUA_*`` value is checked on first read."""

import pytest

from repro import config
from repro.errors import QueryError


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
    def test_default(self, monkeypatch):
        monkeypatch.delenv(config.PARALLEL_ENV, raising=False)
        assert config.validated_parallel() == "on"
        assert config.parallel_enabled()

    def test_env_off(self, monkeypatch):
        monkeypatch.setenv(config.PARALLEL_ENV, "off")
        assert not config.parallel_enabled()

    def test_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(config.PARALLEL_ENV, "on")
        with config.parallel_scope("off"):
            assert config.validated_parallel() == "off"
        assert config.validated_parallel() == "on"

    @pytest.mark.parametrize("bogus", ["turbo", "", "ON", "true"])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.setenv(config.PARALLEL_ENV, bogus)
        with pytest.raises(QueryError, match=config.PARALLEL_ENV):
            config.validated_parallel()


class TestParallelWorkersKnob:
    def test_default_auto_resolves_to_a_positive_count(self, monkeypatch):
        monkeypatch.delenv(config.PARALLEL_WORKERS_ENV, raising=False)
        assert config.validated_parallel_workers() >= 1

    def test_env_pins_the_pool(self, monkeypatch):
        monkeypatch.setenv(config.PARALLEL_WORKERS_ENV, "3")
        assert config.validated_parallel_workers() == 3

    def test_argument_beats_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(config.PARALLEL_WORKERS_ENV, "3")
        with config.parallel_workers_scope(5):
            assert config.validated_parallel_workers() == 5
            assert config.validated_parallel_workers(2) == 2
        assert config.validated_parallel_workers() == 3

    def test_explicit_auto_still_resolves(self, monkeypatch):
        monkeypatch.delenv(config.PARALLEL_WORKERS_ENV, raising=False)
        assert config.validated_parallel_workers("auto") >= 1

    @pytest.mark.parametrize("bogus", ["many", "0", "-2", "1.5", ""])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.setenv(config.PARALLEL_WORKERS_ENV, bogus)
        with pytest.raises(QueryError, match=config.PARALLEL_WORKERS_ENV):
            config.validated_parallel_workers()

    def test_scope_validates_eagerly(self):
        with pytest.raises(QueryError, match=config.PARALLEL_WORKERS_ENV):
            with config.parallel_workers_scope(0):
                pass  # pragma: no cover - must not be reached


class TestParallelMinRowsKnob:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(config.PARALLEL_MIN_ROWS_ENV, raising=False)
        assert (
            config.validated_parallel_min_rows()
            == config.DEFAULT_PARALLEL_MIN_ROWS
        )

    def test_env_and_zero_engages_always(self, monkeypatch):
        monkeypatch.setenv(config.PARALLEL_MIN_ROWS_ENV, "0")
        assert config.validated_parallel_min_rows() == 0

    def test_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(config.PARALLEL_MIN_ROWS_ENV, "64")
        with config.parallel_min_rows_scope(8):
            assert config.validated_parallel_min_rows() == 8
        assert config.validated_parallel_min_rows() == 64

    @pytest.mark.parametrize("bogus", ["lots", "-1", "2.5"])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.setenv(config.PARALLEL_MIN_ROWS_ENV, bogus)
        with pytest.raises(QueryError, match=config.PARALLEL_MIN_ROWS_ENV):
            config.validated_parallel_min_rows()


class TestParallelWorkerKindKnob:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(config.PARALLEL_MODE_ENV, raising=False)
        assert config.validated_parallel_worker_kind() == "threads"

    def test_env(self, monkeypatch):
        monkeypatch.setenv(config.PARALLEL_MODE_ENV, "processes")
        assert config.validated_parallel_worker_kind() == "processes"

    def test_scope_beats_env(self, monkeypatch):
        monkeypatch.setenv(config.PARALLEL_MODE_ENV, "processes")
        with config.parallel_worker_kind_scope("threads"):
            assert config.validated_parallel_worker_kind() == "threads"
        assert config.validated_parallel_worker_kind() == "processes"

    @pytest.mark.parametrize("bogus", ["forks", "THREADS", ""])
    def test_rejects_bad_values_naming_the_knob(self, monkeypatch, bogus):
        monkeypatch.setenv(config.PARALLEL_MODE_ENV, bogus)
        with pytest.raises(QueryError, match=config.PARALLEL_MODE_ENV):
            config.validated_parallel_worker_kind()
