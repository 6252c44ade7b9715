"""Tests for AQL, the user-level text language."""

import pytest

from repro.core import Record, parse_tree
from repro.core.aqua_set import AquaSet
from repro.errors import NotationError, PredicateError, QueryError
from repro.predicates import attr
from repro.query import Q
from repro.query import expr as E
from repro.query.aql import attribute_resolver, parse_aql, parse_aql_shape, run_aql
from repro.storage import Database
from repro.workloads import figure3_family_tree, song_with_melody


@pytest.fixture()
def db():
    database = Database()
    database.bind_root("T", parse_tree("r(d(e(h i) j) s(d(e(h i) j) k) d(x))"))
    database.bind_root("family", figure3_family_tree())
    database.bind_root("song", song_with_melody(60, ["A", "C", "D", "F"], 2, seed=3))
    database.insert_many(
        [Record(name=f"p{i}", age=i % 50, city=f"C{i % 10}") for i in range(100)],
        "Person",
    )
    database.create_index("Person", "city")
    return database


class TestParsing:
    def test_source_root(self):
        assert parse_aql("root T") == E.Root("T")

    def test_source_extent(self):
        assert parse_aql("extent Person") == E.Extent("Person")

    def test_sub_select_stage(self):
        node = parse_aql('root T | sub_select "d(e(h i) j)"')
        assert isinstance(node, E.SubSelect)
        assert node.pattern.describe() == "d(e(h i) j)"

    def test_resolver_clause(self):
        node = parse_aql('root family | sub_select "Brazil(!?* USA !?*)" by citizen')
        anchor = node.pattern.root_predicates()[0]
        assert anchor.describe() == "x.citizen = 'Brazil'"

    def test_predicate_stage(self):
        node = parse_aql('extent Person | sselect {age > 30 and city = "C3"}')
        assert isinstance(node, E.SetSelect)
        assert len(node.predicate.conjuncts()) == 2

    def test_pipeline_chains(self):
        node = parse_aql('extent Person | sselect {age > 30} | project name')
        assert isinstance(node, E.SetApply)
        assert isinstance(node.input, E.SetSelect)

    def test_single_quotes_accepted(self):
        assert isinstance(parse_aql("root song | lsub_select '[A??F]' by pitch"),
                          E.ListSubSelect)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bogus T",
            "root",
            "root T | explode",
            "root T | sub_select",
            "root T sub_select 'x'",
            "root T | sselect age > 3",
            "root T | &",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(QueryError):
            parse_aql(bad)

    def test_tokenize_error_names_where_it_stops(self):
        with pytest.raises(QueryError) as caught:
            parse_aql("root T | & project name")
        assert str(caught.value) == "cannot tokenize AQL at '& project name'"

    def test_a_brace_inside_quotes_does_not_end_the_predicate(self):
        node = parse_aql('extent Person | sselect {name = "a}b" or name = \'{c}\'}')
        assert node.predicate.describe() == "(x.name = 'a}b' OR x.name = '{c}')"

    def test_deep_nesting_raises_the_nested_language_error(self, db):
        """A ``{...}`` predicate or a pattern nested past the stack raises
        its own language's error through AQL, not a ``RecursionError``."""
        predicate = "(" * 2000 + "a = 1" + ")" * 2000
        with pytest.raises(PredicateError, match="nests too deeply"):
            run_aql("root T | select {" + predicate + "}", db)
        pattern = "a(" * 400 + "b" + ")" * 400
        with pytest.raises(NotationError, match="nests too deeply"):
            run_aql(f'root T | sub_select "{pattern}"', db)


class TestShape:
    """``parse_aql_shape``: the text's constants become hidden slots."""

    def test_predicate_constants_are_slots_in_text_order(self):
        expr, literals = parse_aql_shape(
            'extent Person | sselect {age > 30 and city = "C3" or ok = true'
            " and w < -1.5 and city = C3} | project name"
        )
        assert expr.input.predicate.describe() == (
            "((x.age > $0 AND x.city = $1) OR (x.ok = $2 AND x.w < $3 AND x.city = $4))"
        )
        assert literals == {"0": 30, "1": "C3", "2": True, "3": -1.5, "4": "C3"}

    def test_pattern_symbols_are_slots(self):
        expr, literals = parse_aql_shape(
            'root family | sub_select "Brazil(!?* USA !?*)" by citizen'
        )
        assert expr.pattern.describe() == "{citizen = $0}(!?* {citizen = $1} !?*)"
        assert literals == {"0": "Brazil", "1": "USA"}
        expr, literals = parse_aql_shape('root T | all_desc "d(e {x = 3})"')
        assert expr.pattern.describe() == "{x = $0}({x = $1} {x = 3})"
        assert literals == {"0": "d", "1": "e"}

    def test_names_and_path_texts_stay(self):
        expr, literals = parse_aql_shape(
            'root site | path "//article[@lang=\'en\']//p" | project tag'
        )
        assert literals == {}
        assert expr.describe() == parse_aql(
            'root site | path "//article[@lang=\'en\']//p" | project tag'
        ).describe()

    def test_texts_differing_in_constants_share_a_shape(self):
        shapes = {
            parse_aql_shape(f'root song | lsub_select "[{a} [[C|D]]+ {b}]" by pitch')[0].describe()
            for a, b in ("AF", "BG", "AA")
        }
        assert len(shapes) == 1


class TestExecution:
    def test_figure4_query(self, db):
        result = run_aql(
            'root family | sub_select "Brazil(!?* USA !?*)" by citizen', db
        )
        assert len(result) == 1

    def test_melody_query(self, db):
        result = run_aql('root song | lsub_select "[A??F]" by pitch', db)
        assert len(result) == 2

    def test_extent_pipeline(self, db):
        names = run_aql(
            'extent Person | sselect {age > 45 and city = "C7"} | project name', db
        )
        assert all(name.startswith("p") for name in names)

    def test_all_anc_returns_tuples(self, db):
        result = run_aql('root T | all_anc "k"', db)
        ((ancestors, match),) = result
        assert match.to_notation() == "k"

    def test_all_desc_returns_tuples(self, db):
        result = run_aql('root T | all_desc "s"', db)
        ((match, descendants),) = result
        assert len(descendants.values()) == 2

    def test_optimizer_runs_by_default(self, db):
        unoptimized = run_aql('root T | sub_select "d(e(h i) j)"', db, optimize=False)
        optimized = run_aql('root T | sub_select "d(e(h i) j)"', db, optimize=True)
        assert unoptimized == optimized

    def test_tree_select(self, db):
        result = run_aql('root family | select {citizen = "USA"}', db)
        assert len(result) == 1

    def test_a_brace_inside_a_quoted_string(self, db):
        db.insert_many([Record(name="a}b", age=1, city="C1")], "Person")
        text = 'extent Person | sselect {name = "a}b"} | project name'
        spelled = Q.extent("Person").sselect(attr("name") == "a}b").sapply(
            lambda person: person.name
        )
        assert run_aql(text, db) == spelled.run(db) == AquaSet(["a}b"])

    def test_attribute_resolver_helper(self):
        resolve = attribute_resolver("pitch")
        predicate = resolve("A")
        assert predicate(Record(pitch="A"))
        assert not predicate(Record(pitch="B"))
