"""Tests for the rewrite rules, cost model, engine and access-path choice.

Access-path decisions moved out of the rewrite rules and into the
lowering pass (``choose_access_paths``); the anchor analyses themselves
(:mod:`repro.optimizer.anchors`) are exercised here through that pass.
"""

import pytest

from repro.core import parse_list, parse_tree
from repro.core.identity import Record
from repro.errors import OptimizerError
from repro.optimizer.cost import CostModel, list_pattern_cost, tree_pattern_cost
from repro.optimizer.engine import Optimizer, Region, optimize
from repro.optimizer.rules import Rule, SetSelectFusionRule
from repro.patterns.list_parser import parse_list_pattern
from repro.patterns.tree_parser import parse_tree_pattern
from repro.physical import ExecutionContext, lower, operators as P
from repro.predicates.alphabet import attr, pred, sym
from repro.query import Q, evaluate
from repro.query import expr as E
from repro.storage import Database


@pytest.fixture()
def db():
    database = Database()
    database.bind_root("T", parse_tree("r(d(e(h i) j) s(d(e(h i) j) k) d(x))"))
    database.bind_root("song", parse_list("[gaxyfbacdfe]"))
    database.insert_many(
        [Record(name=f"p{i}", age=i % 50, city=f"C{i % 10}") for i in range(100)],
        "Person",
    )
    return database


def run(plan, db):
    return plan.execute(ExecutionContext(db=db))


def chosen(node, db):
    return lower(node, db, choose_access_paths=True)


class TestTreeAnchorChoice:
    def test_lowers_to_index_anchor_scan(self, db):
        node = Q.root("T").sub_select("d(e(h i) j)").build()
        plan = chosen(node, db)
        assert type(plan.root) is P.IndexAnchorScan
        assert [a.describe() for a in plan.root.anchors] == ["x = 'd'"]

    def test_union_pattern_gets_multiple_anchors(self, db):
        node = Q.root("T").sub_select("d(x) | k").build()
        plan = chosen(node, db)
        assert type(plan.root) is P.IndexAnchorScan
        assert len(plan.root.anchors) == 2

    def test_skips_root_anchored_patterns(self, db):
        node = Q.root("T").sub_select("^d(x)").build()
        assert not isinstance(chosen(node, db).root, P.IndexAnchorScan)

    def test_skips_unusable_roots(self, db):
        node = E.SubSelect(
            E.Root("T"),
            pattern=parse_tree_pattern("[[d(@)]]*@"),  # star root: unknown
        )
        assert not isinstance(chosen(node, db).root, P.IndexAnchorScan)

    def test_skips_opaque_anchor(self, db):
        from repro.patterns.tree_ast import TreeAtom, TreePattern

        node = E.SubSelect(
            E.Root("T"), pattern=TreePattern(TreeAtom(pred(lambda v: True), None))
        )
        assert not isinstance(chosen(node, db).root, P.IndexAnchorScan)

    def test_semantics_preserved(self, db):
        node = Q.root("T").sub_select("d(e(h i) j)").build()
        assert run(chosen(node, db), db) == evaluate(node, db)

    def test_unselective_anchor_priced_out(self):
        # Every node matches the anchor: probing buys nothing, so the
        # lowering's cost gate keeps the scan (the decision the
        # rule-level cost gate used to make).
        from repro.workloads import random_labeled_tree

        database = Database()
        tree = random_labeled_tree(500, ["d"], seed=1)
        database.bind_root("T", tree)
        database.tree_index(tree)
        node = Q.root("T").sub_select("d(?*)").build()
        assert not isinstance(chosen(node, database).root, P.IndexAnchorScan)


class TestListAnchorChoice:
    def test_picks_first_atom(self, db):
        node = Q.root("song").lsub_select("[a??f]").build()
        plan = chosen(node, db)
        assert type(plan.root) is P.ListAnchorScan
        assert plan.root.offsets == (0,)

    def test_anchor_after_star_skipped(self, db):
        # Unbounded prefix before the atom: offsets unknown.
        node = Q.root("song").lsub_select("[?* a]").build()
        assert not isinstance(chosen(node, db).root, P.ListAnchorScan)

    def test_anchor_after_bounded_prefix(self, db):
        node = Q.root("song").lsub_select("[? a]").build()
        plan = chosen(node, db)
        assert type(plan.root) is P.ListAnchorScan
        assert plan.root.offsets == (1,)
        assert plan.root.anchor.describe() == "x = 'a'"

    def test_semantics_preserved(self, db):
        node = Q.root("song").lsub_select("[a??f]").build()
        assert run(chosen(node, db), db) == evaluate(node, db)

    def test_no_indexable_atom(self, db):
        node = Q.root("song").lsub_select("[??]").build()
        assert not isinstance(chosen(node, db).root, P.ListAnchorScan)


class TestConjunctDecomposition:
    def test_decomposes_with_residual(self, db):
        db.create_index("Person", "city")
        node = Q.extent("Person").sselect(
            (attr("age") > 40) & (attr("city") == "C3")
        ).build()
        plan = chosen(node, db)
        assert type(plan.root) is P.IndexedSelectFilter
        assert plan.root.indexed.describe() == "x.city = 'C3'"
        assert plan.root.residual is not None

    def test_all_conjuncts_indexed_leaves_no_residual(self, db):
        db.create_index("Person", "city")
        node = Q.extent("Person").sselect(attr("city") == "C3").build()
        plan = chosen(node, db)
        assert type(plan.root) is P.IndexedSelectFilter
        assert plan.root.residual is None

    def test_no_index_no_decomposition(self, db):
        node = Q.extent("Person").sselect(attr("city") == "C3").build()
        assert not isinstance(chosen(node, db).root, P.IndexedSelectFilter)

    def test_only_on_extent_inputs(self, db):
        db.create_index("Person", "city")
        node = (
            Q.extent("Person")
            .sselect(attr("age") > 40)
            .sselect(attr("city") == "C3")
            .build()
        )
        # The outer select's input is another select, not the extent.
        assert not isinstance(chosen(node, db).root, P.IndexedSelectFilter)

    def test_semantics_preserved(self, db):
        db.create_index("Person", "city")
        node = Q.extent("Person").sselect(
            (attr("age") > 40) & (attr("city") == "C3")
        ).build()
        with db.stats.scope():
            naive = evaluate(node, db)
            assert db.stats.snapshot() == {"predicate_evals": 100}
        # CLAIM-CONJ: one probe narrows 100 members to the 10 in C3; only
        # those are evaluated (twice: the probe's recheck, the residual).
        with db.stats.scope():
            assert run(chosen(node, db), db) == naive
            assert db.stats.snapshot() == {
                "index_probes": 1,
                "index_candidates": 10,
                "predicate_evals": 20,
            }


    def test_an_exact_probe_answers_its_conjunct(self, db, monkeypatch):
        """§4: the probe on ``city = 'C3'`` narrows the extent to its
        bucket, and each candidate is tested on the indexed conjunct, then
        on the residual (10 + 10): an index bucket may hold a row whose
        attribute was assigned after insert."""
        from repro.predicates.alphabet import Comparison

        db.create_index("Person", "city")
        node = Q.extent("Person").sselect((attr("age") > 40) & (attr("city") == "C3")).build()
        tested = []
        compile_ = Comparison.compile

        def spied(self):
            test = compile_(self)
            return lambda obj: tested.append(self.attribute) or test(obj)

        monkeypatch.setattr(Comparison, "compile", spied)
        with db.stats.scope():
            result = run(chosen(node, db), db)
            assert db.stats.snapshot() == {
                "index_probes": 1,
                "index_candidates": 10,
                "predicate_evals": 20,
            }
        assert tested == ["city", "age"] * 10
        assert result == Q.extent("Person").sselect(attr("age") > 40).sselect(
            attr("city") == "C3"
        ).run(db)

    def test_a_scan_fallback_tests_the_indexed_conjunct(self, db):
        """An ordered index answers no ``!=``: the filter scans the extent
        and tests the conjunct the index could not answer on every row."""
        db.create_index("Person", "age", ordered=True)
        node = Q.extent("Person").sselect(attr("age") != 3).build()
        plan = chosen(node, db)
        assert type(plan.root) is P.IndexedSelectFilter
        with db.stats.scope():
            result = run(plan, db)
            assert db.stats.snapshot() == {
                "full_scans": 1,
                "objects_scanned": 100,
                "predicate_evals": 100,
            }
        assert len(result) == 98
        assert all(row.age != 3 for row in result)

    def test_a_row_assigned_out_of_its_bucket_is_not_returned(self):
        """An extent index is not told when a stored object's indexed
        attribute is assigned in place, so the probe's bucket still holds
        the row; the filter's test of the indexed conjunct drops it."""
        from repro import Session

        db = Database()
        rows = [Record(name=f"p{i}", city=f"C{i % 3}") for i in range(9)]
        db.insert_many(rows, "Person")
        db.create_index("Person", "city")
        rows[1].city = "ZZ"
        query = 'extent Person | sselect {city = "C1"}'
        assert sorted(row.name for row in Session(db).query(query)) == ["p4", "p7"]
        assert sorted(row.name for row in db.select("Person", attr("city") == "C1")) == [
            "p4",
            "p7",
        ]

    @pytest.mark.parametrize("pinned", [False, True], ids=["database", "snapshot"])
    def test_a_row_inserted_twice_comes_back_once(self, db, pinned):
        """The extent takes the same object twice, so the index posts it
        twice: its candidates are not known distinct and stay deduplicated."""
        from repro import Session

        twice = Record(name="twice", age=7, city="C3")
        db.insert(twice, "Person")
        db.insert(twice, "Person")
        db.create_index("Person", "city")
        view = db.snapshot() if pinned else db
        rows, used = view.candidates("Person", attr("city") == "C3")
        assert used and sum(row is twice for row in rows) == 2
        query = 'extent Person | sselect {city = "C3"}'
        result, metrics = Session(view).query_with_metrics(query)
        assert metrics[()].counters["index_probes"] == 1  # the probe served it
        assert sum(row is twice for row in result) == 1
        assert len(result) == 11


class TestFusion:
    def test_cascaded_selects_fuse(self, db):
        node = (
            Q.extent("Person")
            .sselect(attr("age") > 40)
            .sselect(attr("city") == "C3")
            .build()
        )
        fused = SetSelectFusionRule().apply(node, db)
        assert isinstance(fused, E.SetSelect)
        assert isinstance(fused.input, E.Extent)
        assert len(fused.predicate.conjuncts()) == 2

    def test_fusion_enables_decomposition(self, db):
        db.create_index("Person", "city")
        node = (
            Q.extent("Person")
            .sselect(attr("age") > 40)
            .sselect(attr("city") == "C3")
            .build()
        )
        plan, trace = Optimizer(db).optimize(node)
        # Fusion exposes the whole conjunction on the extent...
        assert isinstance(plan, E.SetSelect)
        assert isinstance(plan.input, E.Extent)
        assert len(trace.steps) == 1
        # ...which the lowering then serves through the index.
        assert type(chosen(plan, db).root) is P.IndexedSelectFilter
        assert evaluate(plan, db) == evaluate(node, db)


class _Pricier(Rule):
    """A deliberately regressive rewrite, to exercise the cost gate."""

    name = "pricier"

    def apply(self, node, db):
        del db
        if isinstance(node, E.SetSelect) and not isinstance(node.input, E.SetSelect):
            return E.SetSelect(node, predicate=node.predicate)
        return None


class TestEngine:
    def test_optimized_tree_plan_stays_logical(self, db):
        query = Q.root("T").sub_select("d(e(h i) j)").build()
        plan, _ = Optimizer(db).optimize(query)
        assert isinstance(plan, E.SubSelect)
        # The access path is the lowering's call, not a plan rewrite.
        assert type(chosen(plan, db).root) is P.IndexAnchorScan

    def test_cost_gate_rejects_regressions(self, db):
        regions = [Region("custom", [_Pricier()], strategy="once")]
        query = Q.extent("Person").sselect(attr("age") > 40).build()
        plan, _ = Optimizer(db, regions=regions).optimize(query)
        assert plan == query  # the pricier rewrite was gated out

    def test_gate_can_be_disabled(self, db):
        regions = [Region("custom", [_Pricier()], strategy="once")]
        query = Q.extent("Person").sselect(attr("age") > 40).build()
        plan, _ = Optimizer(db, regions=regions, cost_gate=False).optimize(query)
        assert isinstance(plan, E.SetSelect)
        assert isinstance(plan.input, E.SetSelect)

    def test_invalid_region_strategy(self):
        with pytest.raises(OptimizerError):
            Region("x", [], strategy="bogus")

    def test_optimize_convenience(self, db):
        plan = optimize(Q.root("song").lsub_select("[a??f]").build(), db)
        assert isinstance(plan, E.ListSubSelect)

    def test_trace_is_readable(self, db):
        query = (
            Q.extent("Person")
            .sselect(attr("age") > 40)
            .sselect(attr("city") == "C3")
            .build()
        )
        _, trace = Optimizer(db).optimize(query)
        assert "set-select-fusion" in repr(trace)


class TestCostModel:
    def test_pattern_costs_scale_with_closures(self):
        flat = tree_pattern_cost(parse_tree_pattern("a(b c)"))
        closed = tree_pattern_cost(parse_tree_pattern("a(b* c)"))
        assert closed > flat

    def test_list_pattern_cost(self):
        assert list_pattern_cost(parse_list_pattern("[ab]")) == 2.0
        assert list_pattern_cost(parse_list_pattern("[a*b]")) == 4.0

    def test_input_size_resolves_roots(self, db):
        model = CostModel(db)
        assert model.input_size(E.Root("T")) == 15.0
        assert model.input_size(E.Root("song")) == 11.0
        assert model.input_size(E.Extent("Person")) == 100.0

    def test_anchor_selectivity_from_index(self, db):
        model = CostModel(db)
        selectivity = model.anchor_selectivity(E.Root("T"), sym("d"))
        assert 0 < selectivity < 0.5

    def test_fused_select_prices_no_worse_than_cascade(self, db):
        cascade = (
            Q.extent("Person")
            .sselect(attr("age") > 40)
            .sselect(attr("city") == "C3")
            .build()
        )
        fused = SetSelectFusionRule().apply(cascade, db)
        model = CostModel(db)
        assert model.cost(fused) <= model.cost(cascade)
