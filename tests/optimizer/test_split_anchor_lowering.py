"""Index-anchored split — §4's literal sentence, now a lowering choice."""

import pytest

from repro.__main__ import Shell
from repro.core import make_tuple, parse_tree
from repro.physical import ExecutionContext, lower, operators as P
from repro.query import Q, evaluate
from repro.query import expr as E
from repro.storage import Database
from repro.workloads import by_citizen_or_name, random_family_tree


@pytest.fixture()
def db():
    database = Database()
    database.bind_root("T", parse_tree("r(d(x) s(d(y)) d(z))"))
    database.bind_root(
        "family", random_family_tree(300, seed=4, planted_matches=3)
    )
    return database


def piece_summary(x, y, z):
    return (x.size(), y.size(), len(z.values()))


def run(plan, db):
    return plan.execute(ExecutionContext(db=db))


def chosen(node, db):
    return lower(node, db, choose_access_paths=True)


class TestSplitAnchorLowering:
    def test_lowers_to_index_anchor_split(self, db):
        node = Q.root("T").split("d", piece_summary).build()
        plan = chosen(node, db)
        assert type(plan.root) is P.IndexAnchorScan
        assert plan.root.name == "index_anchor_split"
        assert plan.root.function is piece_summary

    def test_skips_anchored(self, db):
        node = Q.root("T").split("^d", piece_summary).build()
        assert not isinstance(chosen(node, db).root, P.IndexAnchorScan)

    def test_skips_unusable_root(self, db):
        from repro.patterns.tree_parser import parse_tree_pattern

        node = E.Split(
            E.Root("T"),
            pattern=parse_tree_pattern("[[d(@)]]*@"),
            function=piece_summary,
        )
        assert not isinstance(chosen(node, db).root, P.IndexAnchorScan)

    def test_semantics_preserved(self, db):
        node = Q.root("T").split("d", piece_summary).build()
        assert run(chosen(node, db), db) == evaluate(node, db)

    def test_family_tree_split_end_to_end(self, db):
        query = Q.root("family").split(
            "Brazil(!?* USA !?*)",
            lambda x, y, z: make_tuple(y, len(z.values())),
            resolver=by_citizen_or_name,
        ).build()
        plan = chosen(query, db)
        assert plan.root.name == "index_anchor_split"
        assert run(plan, db) == evaluate(query, db)

    def test_indexed_split_counters(self, db):
        query = Q.root("family").split(
            "Brazil(!?* USA !?*)",
            lambda x, y, z: y.size(),
            resolver=by_citizen_or_name,
        ).build()
        plan = chosen(query, db)
        db.stats.reset()
        run(plan, db)
        assert db.stats["index_probes"] >= 1
        assert db.stats["index_candidates"] < 300 / 10


@pytest.mark.parametrize("operator", ["all_anc", "all_desc"])
class TestDerivedOperatorsTakeTheSplitAccessPaths:
    """``all_anc`` / ``all_desc`` are splits (§4), so the lowering offers
    them the candidate sources it offers ``split`` — they used to run the
    whole algebra function behind ``MaterializeOp``."""

    def test_probe_when_the_anchors_price_in(self, db, operator):
        node = getattr(Q.root("T"), operator)("d", make_tuple).build()
        plan = chosen(node, db)
        assert type(plan.root) is P.IndexAnchorScan
        assert plan.root.name == "index_anchor_split"
        assert run(plan, db) == run(lower(node, db), db) == evaluate(node, db)

    def test_full_scan_otherwise(self, db, operator):
        db.bind_root("all_d", parse_tree("d(d(d) d)"))
        unselective = getattr(Q.root("all_d"), operator)("d", make_tuple).build()
        anchored = getattr(Q.root("T"), operator)("^r", make_tuple).build()
        for node, plan in [
            (unselective, chosen(unselective, db)),
            (anchored, chosen(anchored, db)),
            (unselective, lower(unselective, db)),
        ]:
            assert type(plan.root) is P.SubSelectPipe
            assert plan.root.name == "split_pipe"
            assert run(plan, db) == evaluate(node, db)


def test_explain_analyze_reports_the_probe_all_anc_takes():
    shell = Shell()
    shell.db.bind_root("T", parse_tree("r(d(x) s(d(y)) d(z) a b)"))
    out = shell.execute('EXPLAIN ANALYZE root T | all_anc "d"')
    assert "act rows=3" in out
    assert "backtrack_steps=3" in out and "index_probes=1" in out
    assert "index_anchor_split  [node-index probe on x = 'd']" in out
    assert "eager" not in out and "materialize" not in out
