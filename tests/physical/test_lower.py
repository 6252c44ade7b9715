"""Logical → physical lowering: coverage, structure, access-path choice.

The lowering pass must know every logical node (a new ``Expr`` subclass
without a rule is a bug caught here, not at query time), must mirror the
logical tree position-for-position so metrics paths line up, and owns
every access-path decision (``choose_access_paths``) — the ``Indexed*``
expression shims that used to encode those decisions are gone.
"""

import inspect

import pytest

from repro.core.identity import Record
from repro.errors import QueryError
from repro.physical import ExecutionContext, lower, operators as P
from repro.physical.lower import _LOWERING, lower_factory
from repro.predicates import attr
from repro.query import Q, expr as E
from repro.storage import Database
from repro.workloads import (
    by_citizen_or_name,
    by_pitch,
    figure3_family_tree,
    random_labeled_tree,
    song_with_melody,
)

from ..reference import reference_eval


def concrete_node_types() -> list[type]:
    return [
        obj
        for name, obj in vars(E).items()
        if inspect.isclass(obj)
        and issubclass(obj, E.Expr)
        and obj is not E.Expr
        and not name.startswith("_")
    ]


def labeled_tree_db() -> Database:
    labels = ["d", "e", "h", "i", "j", "u", "v", "w", "x", "y"]
    weights = [1.0] + [11.0] * 9
    tree = random_labeled_tree(400, labels, seed=42, weights=weights)
    db = Database()
    db.bind_root("T", tree)
    db.tree_index(tree)
    return db


def person_db() -> Database:
    db = Database()
    db.insert_many(
        [
            Record(name=f"p{i}", age=i % 60, city=f"C{i % 20}", salary=i % 900)
            for i in range(200)
        ],
        "Person",
    )
    db.create_index("Person", "city")
    return db


def melody_db() -> Database:
    """A 312-note song with three planted melodies and a pitch index."""
    db = Database()
    song = song_with_melody(300, ["A", "C", "D", "F"], occurrences=3, seed=11)
    db.bind_root("song", song)
    db.list_index(song, ["pitch"])
    return db


def piece_lengths(x, y, z):
    return len(x), len(y), len(z)


def run(plan, db):
    return plan.execute(ExecutionContext(db=db))


class TestCoverage:
    def test_every_logical_node_type_has_a_lowering_rule(self):
        missing = [t.__name__ for t in concrete_node_types() if t not in _LOWERING]
        assert missing == []

    def test_unknown_node_type_raises_query_error(self):
        class Mystery(E.Expr):
            def head(self) -> str:
                return "mystery"

        with pytest.raises(QueryError, match="no lowering rule for Mystery"):
            lower(Mystery(), Database())


class TestStructure:
    def test_plan_mirrors_logical_tree_position_for_position(self):
        db = labeled_tree_db()
        query = (
            Q.root("T")
            .sub_select("d(e ?*)")
            .sapply(lambda t: t.size())
            .union(Q.extent("Person").sselect(attr("age") > 30))
            .build()
        )
        plan = lower(query, db)

        def logical_paths(node, path=()):
            yield path, node
            for index, child in enumerate(node.children()):
                yield from logical_paths(child, (*path, index))

        expected = dict(logical_paths(query))
        ops = list(plan.operators())
        assert len(ops) == len(expected)
        for op in ops:
            assert op.logical is expected[op.path]

    def test_trails_are_head_chains_from_the_root(self):
        db = labeled_tree_db()
        query = Q.root("T").sub_select("d(e ?*)").build()
        plan = lower(query, db)
        by_path = {op.path: op for op in plan.operators()}
        assert by_path[()].trail == (query.head(),)
        assert by_path[(0,)].trail == (query.head(), query.input.head())

    def test_default_lowering_of_column_servable_pattern_is_the_plain_pipe(self):
        # The root first-set filter lives in the matcher, not in an
        # operator of its own; the plain pipe's access path names the
        # root predicates it tests — one equality, so read from the
        # tree's postings — and the child signature after them.
        db = labeled_tree_db()
        plan = lower(Q.root("T").sub_select("d(e(h i) j ?*)").build(), db)
        assert type(plan.root) is P.SubSelectPipe
        assert type(plan.root.children[0]) is P.ScanRoot
        assert (
            "sub_select_pipe  [full tree scan; posting probe on x = 'd';"
            " child signature e(h, i), j]" in plan.render()
        )
        probed = lower(
            Q.root("T").sub_select("d(?* e(?* h ?*) ?*)").build(), db, choose_access_paths=True
        )
        assert "index_anchor_scan  [node-index probe on x = 'd'; child signature e(h)]" in (
            probed.render()
        )
        ranged = lower(Q.root("T").sub_select("{x > 'c'}(e ?*)").build(), db)
        assert "[full tree scan; root first-set test on x.x > 'c'; child signature e]" in (
            ranged.render()
        )

    def test_default_lowering_of_unanchored_pattern_is_full_scan(self):
        # A bare-? root predicate accepts every node — no first-set to
        # test, only its child signature — and under a closure neither
        # (the bitmap answers there).
        db = labeled_tree_db()
        for pattern, filters in (
            ("?(e ?*)", "; child signature e"),
            ("[[d(@ ?*)]]+@ .@ e(h i)", ""),
        ):
            plan = lower(Q.root("T").sub_select(pattern).build(), db)
            assert type(plan.root) is P.SubSelectPipe
            assert type(plan.root.children[0]) is P.ScanRoot
            assert f"sub_select_pipe  [full tree scan{filters}]" in plan.render()

    def test_render_names_operators_and_access_paths(self):
        db = labeled_tree_db()
        plan = lower(
            Q.root("T").sub_select("d(e(h i) j ?*)").build(),
            db,
            choose_access_paths=True,
        )
        rendered = plan.render()
        assert "index_anchor_scan" in rendered
        assert "node-index probe" in rendered
        assert "scan_root  [named root 'T']" in rendered


class TestAccessPathChoice:
    def test_sub_select_upgrades_to_index_anchor_scan(self):
        db = labeled_tree_db()
        query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
        chosen = lower(query, db, choose_access_paths=True)
        assert type(chosen.root) is P.IndexAnchorScan
        assert run(chosen, db) == run(lower(query, db), db)

    def test_split_upgrades_to_index_anchor_split(self):
        db = Database()
        db.bind_root("family", figure3_family_tree())
        query = Q.root("family").split(
            "Brazil(!?* USA !?*)",
            lambda x, y, z: y.close_points(y.concat_points()),
            resolver=by_citizen_or_name,
        ).build()
        chosen = lower(query, db, choose_access_paths=True)
        assert type(chosen.root) is P.IndexAnchorScan
        assert chosen.root.name == "index_anchor_split"
        assert run(chosen, db) == run(lower(query, db), db)

    def test_list_sub_select_upgrades_to_list_anchor_scan(self):
        db = melody_db()
        query = Q.root("song").lsub_select("[A??F]", resolver=by_pitch).build()
        chosen = lower(query, db, choose_access_paths=True)
        assert type(chosen.root) is P.ListAnchorScan
        assert run(chosen, db) == run(lower(query, db), db)

    def test_list_split_takes_the_probe_path_and_renders_it(self):
        """``lsplit`` climbs the same start-source ladder as its
        ``lsub_select`` twin — through the same operator classes."""
        db = melody_db()
        query = Q.root("song").lsplit("[A??F]", piece_lengths, resolver=by_pitch).build()
        chosen = lower(query, db, choose_access_paths=True)
        assert type(chosen.root) is P.ListAnchorScan
        assert chosen.root.function is piece_lengths
        rendered = chosen.render()
        assert "list_anchor_split" in rendered
        assert "position-index probe on" in rendered and "pitch" in rendered
        plain = lower(query, db)
        assert type(plain.root) is P.ColumnarListScan
        assert "columnar_list_split  [columnar shift-AND over" in plain.render()
        assert run(chosen, db) == run(plain, db) == reference_eval(query, db)

    def test_list_split_without_a_required_atom_falls_back_to_the_full_scan(self):
        db = melody_db()
        query = Q.root("song").lsplit("[[[A|C]] ?]", piece_lengths, resolver=by_pitch).build()
        for choose in (True, False):
            plan = lower(query, db, choose_access_paths=choose)
            assert type(plan.root) is P.ListSubSelectPipe
            assert "list_split_pipe  [scan of all start positions]" in plan.render()
            assert run(plan, db) == reference_eval(query, db)

    @pytest.mark.parametrize(
        "pattern,optimize,expected",
        [
            # (positions_scanned, index_probes, backtrack_steps), read off
            # the parent commit's EXPLAIN ANALYZE for this 312-note song:
            # sharing the arrays and serving lsplit moved none of them.
            ("[A??F]", True, (3, 1, 3)),
            ("[A??F]", False, (313, 0, 313)),
            ("[A [[C|D]]+ F]", True, (3, 1, 3)),
            ("[A [[C|D]]+ F]", False, (313, 0, 313)),
            ("[? ? F]", True, (3, 1, 3)),
            ("[? ? F]", False, (313, 0, 313)),
        ],
    )
    def test_list_sub_select_counters_match_the_parent_goldens(
        self, pattern, optimize, expected
    ):
        from repro import Session

        db = melody_db()
        query = Q.root("song").lsub_select(pattern, resolver=by_pitch).build()
        split = Q.root("song").lsplit(pattern, piece_lengths, resolver=by_pitch).build()
        session = Session(db)
        for plan in (query, split):  # the twin charges exactly alike
            _, metrics = session.query_with_metrics(plan, optimize=optimize)
            counters = tuple(
                metrics.total(name)
                for name in ("positions_scanned", "index_probes", "backtrack_steps")
            )
            assert counters == expected

    def test_extent_select_upgrades_to_indexed_select_filter(self):
        db = person_db()
        query = (
            Q.extent("Person")
            .sselect((attr("age") > 30) & (attr("city") == "C3"))
            .build()
        )
        chosen = lower(query, db, choose_access_paths=True)
        assert type(chosen.root) is P.IndexedSelectFilter
        # The extent is served by the index probe, never scanned as a child.
        assert chosen.root.children == ()
        assert run(chosen, db) == run(lower(query, db), db)

    def test_without_choice_plain_nodes_stay_scans(self):
        db = person_db()
        query = (
            Q.extent("Person")
            .sselect((attr("age") > 30) & (attr("city") == "C3"))
            .build()
        )
        plan = lower(query, db)
        assert type(plan.root) is P.SelectFilter
        assert type(plan.root.children[0]) is P.ScanExtent


class TestColumnarLowering:
    """Tree scans keep the plain pipes (the matcher applies the root
    first-set filter itself); the list scan has its own self-gating
    columnar operator, chosen in *both* lowering modes.  The first-set
    scan and the untabled reference answer bit for bit alike."""

    def test_column_servable_split_lowers_to_the_plain_pipe(self):
        db = Database()
        db.bind_root("family", figure3_family_tree())
        query = Q.root("family").split(
            "Brazil(!?* USA !?*)",
            lambda x, y, z: y.close_points(y.concat_points()),
            resolver=by_citizen_or_name,
        ).build()
        plan = lower(query, db)
        assert type(plan.root) is P.SubSelectPipe
        assert plan.root.name == "split_pipe"
        assert (
            "split_pipe  [full tree scan; posting probe on x.citizen = 'Brazil';"
            ' child signature {citizen = "USA"}]' in plan.render()
        )

    def test_list_sub_select_lowers_to_columnar_list_scan(self):
        db = Database()
        song = song_with_melody(300, ["A", "C", "D", "F"], occurrences=3, seed=11)
        db.bind_root("song", song)
        query = Q.root("song").lsub_select("[A??F]", resolver=by_pitch).build()
        plan = lower(query, db)
        assert type(plan.root) is P.ColumnarListScan

    def test_index_choice_still_wins_over_columnar(self):
        db = labeled_tree_db()
        query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
        chosen = lower(query, db, choose_access_paths=True)
        assert type(chosen.root) is P.IndexAnchorScan

    @pytest.mark.usefixtures("posting_scans")
    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_columnar_operators_match_plain_pipes(self, mode, monkeypatch):
        """First-set scan (``on``) ≡ the untabled reference, which
        enters the matcher at every node (``off``), through the same
        operator — rows, order and every counter but the two the child
        signature moves.  The root ``d`` is one equality, so the scan is
        served from the tree's postings."""
        from repro import Session
        from repro.patterns import tree_match

        from ..reference import untabled_scope

        db = labeled_tree_db()
        query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
        assert type(lower(query, db).root) is P.SubSelectPipe
        session = Session(db)
        entered = []
        for source in ("_first_set_scan", "_posting_scan"):
            scan = getattr(tree_match, source)

            def spied(*args, _scan=scan, _source=source):
                entered.append(_source)
                return _scan(*args)

            monkeypatch.setattr(tree_match, source, spied)
        with untabled_scope("memo" if mode == "on" else "backtrack"):
            served, metrics = session.query_with_metrics(query)
        with untabled_scope():
            baseline, reference = session.query_with_metrics(query)
        assert served == baseline
        assert list(served) == list(baseline)
        # The first-set scan engages exactly when tabled, from postings.
        assert entered == (["_posting_scan"] if mode == "on" else [])
        # The run that builds the map counts it.  None of the tree's four
        # d nodes has the e and j children the pattern requires: the
        # tabled scan rejects each at one step plus its child tests (5
        # in all), where the reference walks 7 steps and 7 evaluations
        # into them; the other 396 nodes cost one of each on both legs.
        totals = metrics.totals()
        assert totals.pop("index_builds", 0) == (mode == "on")
        moved = {"backtrack_steps": 400, "predicate_evals": 401} if mode == "on" else {}
        assert totals == {**reference.totals(), **moved}
        assert reference.total("backtrack_steps") == 403
        assert metrics.total("nodes_scanned") == db.root("T").size()


class TestAnchorParamRecording:
    """The factory reports which ``$param`` slots back an access-path
    commitment — the prepared-query re-plan guard's watch list."""

    def test_param_anchor_slot_is_recorded(self):
        db = person_db()
        query = Q.extent("Person").sselect(attr("city") == Q.param("where")).build()
        factory = lower_factory(query, db, choose_access_paths=True)
        assert type(factory.instantiate().root) is P.IndexedSelectFilter
        assert factory.anchor_params == frozenset({"where"})

    def test_plain_lowering_records_no_slots(self):
        db = labeled_tree_db()
        query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
        factory = lower_factory(query, db)
        assert factory.anchor_params == frozenset()

    def test_chosen_lowering_without_params_records_no_slots(self):
        db = labeled_tree_db()
        query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
        factory = lower_factory(query, db, choose_access_paths=True)
        assert factory.anchor_params == frozenset()
