"""Tests for the ``python -m repro`` AQL shell."""

import json

import pytest

from repro import faults
from repro.__main__ import Shell, demo_database, main, render
from repro.core import AquaSet, parse_list, parse_tree
from repro.errors import InjectedFaultError, ResourceExhaustedError


@pytest.fixture()
def shell():
    return Shell()


class TestShellCommands:
    def test_roots(self, shell):
        assert set(shell.execute("\\roots").split()) == {"family", "song", "plan"}

    def test_extents_empty(self, shell):
        assert shell.execute("\\extents") == "(no extents)"

    def test_help(self, shell):
        assert "\\load" in shell.execute("\\help")

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.execute("\\bogus")

    def test_blank_line(self, shell):
        assert shell.execute("   ") == ""

    def test_quit_raises_system_exit(self, shell):
        with pytest.raises(SystemExit):
            shell.execute("\\quit")

    def test_stats_after_query(self, shell):
        shell.execute('root song | lsub_select "[A??F]" by pitch')
        assert "predicate_evals" in shell.execute("\\stats") or shell.execute("\\stats")


class TestShellQueries:
    def test_aql_query_renders_results(self, shell):
        out = shell.execute('root family | sub_select "Brazil(!?* USA !?*)" by citizen')
        assert "1 result(s)" in out
        assert "Mat(Ed)" in out

    def test_melody_query(self, shell):
        out = shell.execute('root song | lsub_select "[A??F]" by pitch')
        assert "2 result(s)" in out

    def test_error_reported_not_raised(self, shell):
        out = shell.execute("root missing | sub_select 'd'")
        assert out.startswith("error:")

    def test_explain_command(self, shell):
        out = shell.execute('\\explain root family | sub_select "Brazil(?*)" by citizen')
        assert "Physical plan" in out

    def test_analyze_command(self, shell):
        out = shell.execute('\\analyze root family | sub_select "Brazil(?*)" by citizen')
        assert "est rows≈" in out
        assert "act rows=" in out
        assert "time=" in out

    def test_explain_analyze_verb(self, shell):
        out = shell.execute(
            'EXPLAIN ANALYZE root family | sub_select "Brazil(?*)" by citizen'
        )
        assert "act rows=" in out

    def test_explain_verb(self, shell):
        out = shell.execute('EXPLAIN root family | sub_select "Brazil(?*)" by citizen')
        assert "Physical plan" in out

    def test_noopt_command(self, shell):
        out = shell.execute('\\noopt root song | lsub_select "[A??F]" by pitch')
        assert "2 result(s)" in out


class TestPersistenceCommands:
    def test_save_and_load(self, shell, tmp_path):
        path = tmp_path / "db.json"
        assert "saved" in shell.execute(f"\\save {path}")
        fresh = Shell()
        assert "loaded" in fresh.execute(f"\\load {path}")
        out = fresh.execute('root family | sub_select "Brazil(!?* USA !?*)" by citizen')
        assert "1 result(s)" in out

    def test_load_missing_file_is_error(self, shell):
        assert shell.execute("\\load /nope/nothing.json").startswith("error:")


class TestRender:
    def test_tree_rendering_uses_domain_labels(self):
        assert render(demo_database().root("family")).startswith("Maria(")

    def test_list_rendering(self):
        assert render(parse_list("[abc]")) == "[abc]"

    def test_empty_set(self):
        assert render(AquaSet()) == "{0 results}"

    def test_scalar(self):
        assert render(42) == "42"


class TestGuardrails:
    """The shell survives budget trips and injected faults (ISSUE 2)."""

    def test_budget_shows_unlimited_by_default(self, monkeypatch):
        for knob in ("AQUA_DEADLINE", "AQUA_MAX_STEPS", "AQUA_MAX_BACKTRACK_DEPTH",
                     "AQUA_MAX_RESULTS", "AQUA_MAX_NODES_SCANNED"):
            monkeypatch.delenv(knob, raising=False)
        assert Shell().execute("\\budget") == "budget: (unlimited)"

    def test_budget_set_and_clear(self, shell):
        assert "max_steps=100" in shell.execute("\\budget steps=100")
        assert "deadline_seconds=0.5" in shell.execute("\\budget deadline=0.5")
        assert "unlimited" in shell.execute("\\budget off")

    def test_budget_rejects_bad_knob(self, shell):
        assert shell.execute("\\budget bogus=1").startswith("error:")
        assert shell.execute("\\budget steps=abc").startswith("error:")
        assert shell.execute("\\budget steps=-1").startswith("error: max_steps")
        assert shell.execute("\\budget deadline=-0.5").startswith("error: deadline_seconds")

    def test_budget_trip_is_one_line_diagnostic(self, shell):
        shell.execute("\\budget steps=5")
        out = shell.execute('\\noopt root song | lsub_select "[A??F]" by pitch')
        assert out.startswith("error: budget exhausted")
        assert "\n" not in out
        assert isinstance(shell.last_error, ResourceExhaustedError)
        # The session survives: clearing the budget makes the query work.
        shell.execute("\\budget off")
        out = shell.execute('root song | lsub_select "[A??F]" by pitch')
        assert "2 result(s)" in out
        assert shell.last_error is None

    def test_analyze_renders_partial_metrics_on_trip(self, shell):
        shell.execute("\\budget steps=4")
        out = shell.execute(
            'EXPLAIN ANALYZE root song | lsub_select "[A??F]" by pitch'
        )
        assert out.startswith("error: budget exhausted")
        assert "partial plan metrics" in out
        assert "root(song)" in out  # the operator that did finish

    def test_injected_fault_keeps_session(self, shell):
        plan = faults.FaultPlan([faults.FaultRule("storage_lookup", "error")])
        with faults.injected(plan):
            out = shell.execute("root family")
            assert out.startswith("error: injected fault at seam 'storage_lookup'")
            assert isinstance(shell.last_error, InjectedFaultError)
        out = shell.execute('root family | sub_select "Brazil(!?* USA !?*)" by citizen')
        assert "1 result(s)" in out

    def test_faults_command(self, shell):
        previous = faults.install(None)
        try:
            assert "no fault injection" in shell.execute("\\faults")
            plan = faults.FaultPlan(
                [faults.FaultRule("index_probe", "latency", 1.0, 0.0)]
            )
            with faults.injected(plan):
                out = shell.execute("\\faults")
                assert "seed: 0" in out
                assert "index_probe: latency p=1.0" in out
                assert "hits=0" in out
        finally:
            faults.install(previous)

    def test_budget_from_env(self, monkeypatch):
        monkeypatch.setenv("AQUA_MAX_STEPS", "5")
        fresh = Shell()
        assert fresh.budget.max_steps == 5
        out = fresh.execute('\\noopt root song | lsub_select "[A??F]" by pitch')
        assert out.startswith("error: budget exhausted")


class TestMainEntry:
    def test_one_shot_command(self, capsys):
        code = main(["-c", 'root family | select {citizen = "USA"}'])
        assert code == 0
        assert "result" in capsys.readouterr().out

    def test_one_shot_explain(self, capsys):
        code = main(["--explain", "-c", 'root song | lsub_select "[A??F]" by pitch'])
        assert code == 0
        assert "Physical plan" in capsys.readouterr().out

    def test_db_flag(self, tmp_path, capsys):
        from repro.storage import Database
        from repro.storage.serialize import dump_database

        db = Database()
        db.bind_root("T", parse_tree("a(bc)"))
        path = tmp_path / "db.json"
        path.write_text(json.dumps(dump_database(db)))
        code = main(["--db", str(path), "-c", 'root T | sub_select "b"'])
        assert code == 0
        assert "1 result(s)" in capsys.readouterr().out

    def test_failed_one_shot_exits_nonzero(self, capsys):
        code = main(["-c", "root nosuchroot"])
        assert code == 1
        assert capsys.readouterr().out.startswith("error:")

    def test_injected_fault_one_shot_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setenv("AQUA_FAULTS", "storage_lookup:error:1.0")
        previous = faults.refresh_from_env()
        try:
            code = main(["-c", "root family"])
        finally:
            faults.install(previous)
        assert code == 1
        assert "injected fault" in capsys.readouterr().out

    def test_missing_db_file_exits_nonzero(self, capsys):
        code = main(["--db", "/nope/missing.json", "-c", "root family"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
