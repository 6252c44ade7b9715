"""Document store: parsing, ingestion, path queries, and the shell hook."""

from __future__ import annotations

import json

import pytest

from repro.docstore import (
    Document,
    compile_path,
    from_html,
    from_json,
    from_xml,
    load_document,
    naive_path,
    parse_path,
    to_html,
    to_json,
    to_xml,
)
from repro.docstore.corpus import corpus_document, corpus_html, corpus_tree
from repro.query.path import PathStepFn, step_predicate
from repro.errors import QueryError, ResourceExhaustedError
from repro.guardrails import Budget
from repro.query import expr as E

from ..reference import untabled_scope

XML = "<library><shelf n='1'><book lang='en'>A</book><book>B</book></shelf><shelf n='2'><book lang='en'>C</book></shelf></library>"
HTML = (
    "<html><head><title>t</title></head><body>"
    "<article lang=\"en\"><p>one</p><p>two <em>em</em></p></article>"
    "<article lang=\"de\"><p>drei</p></article>"
    "<img src=\"x.png\"><script>if (a < b) { go(); }</script>"
    "</body></html>"
)
JSON_TEXT = '{"store":{"books":[{"title":"A","price":5},{"title":"B","price":9}]}}'


# ---------------------------------------------------------------------------
# Path parsing
# ---------------------------------------------------------------------------


class TestParsePath:
    def test_steps_round_trip_their_text(self):
        steps = parse_path("//article[@lang='en']/p[@id]//text()")
        assert [s.text() for s in steps] == [
            "//article[@lang='en']",
            "/p[@id]",
            "//text()",
        ]

    def test_axes_and_tests(self):
        descendant, child, star = parse_path("//a/b/*")
        assert descendant.axis == "descendant" and descendant.name == "a"
        assert child.axis == "child" and child.name == "b"
        assert star.test == "any"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "article",  # missing axis
            "//",  # missing test
            "//a[@]",  # empty predicate
            "//a[x='1']",  # predicate without @
            "//a[@x='1'",  # unclosed bracket
            "//text()//p",  # text() not last
            "//a//",  # trailing axis
        ],
    )
    def test_junk_raises_query_error(self, bad):
        with pytest.raises(QueryError):
            parse_path(bad)

    def test_double_quoted_values_parse_too(self):
        (step,) = parse_path('//a[@x="v"]')
        assert step.preds == (("x", "v"),)


# ---------------------------------------------------------------------------
# Ingestion round trips (fixed examples; fuzzed in tests/properties)
# ---------------------------------------------------------------------------


class TestIngestion:
    def test_xml_round_trip_canonical(self):
        once = to_xml(from_xml(XML))
        assert to_xml(from_xml(once)) == once
        assert "<book lang=\"en\">A</book>" in once

    def test_html_round_trip_canonical(self):
        once = to_html(from_html(HTML))
        assert to_html(from_html(once)) == once
        # Void element stays void; raw text stays unescaped.
        assert "<img src=\"x.png\">" in once
        assert "if (a < b) { go(); }" in once

    def test_json_round_trip_canonical(self):
        canonical = json.dumps(json.loads(JSON_TEXT), separators=(",", ":"))
        assert to_json(from_json(canonical)) == canonical

    def test_json_structure_is_queryable_by_key(self):
        doc = Document.from_text(JSON_TEXT, "json")
        prices = doc.path("//price")
        values = sorted(t.root.value.value for t in prices)
        assert values == [5, 9]

    def test_unknown_format_rejected(self):
        with pytest.raises(QueryError, match="unknown document format"):
            Document.from_text("{}", "yaml")


# ---------------------------------------------------------------------------
# Path queries through the full pipeline
# ---------------------------------------------------------------------------


class TestPathQueries:
    def test_results_match_naive_walk(self):
        doc = Document.from_text(XML, "xml")
        for path in (
            "//book",
            "//book[@lang='en']",
            "//shelf[@n='2']/book",
            "/library//book",
            "//shelf/*",
            "//book//text()",
        ):
            got = sorted(to_xml(t) for t in doc.path(path))
            want = sorted(to_xml(t) for t in naive_path(doc.tree, path))
            assert got == want, path

    def test_corpus_matches_naive(self):
        doc = corpus_document()
        path = "//article[@lang='en']//p"
        got = sorted(to_html(t) for t in doc.path(path))
        want = sorted(to_html(t) for t in naive_path(doc.tree, path))
        assert got == want
        # CLAIM-DOCSTORE's corpus: 159 paragraphs under the 8 English
        # articles of a 9 524-node page.
        assert (doc.tree.size(), len(got)) == (9524, 159)

    @pytest.mark.parametrize(
        "path,operator",
        [
            ("//article[@lang='en']//p", "flatten"),
            ("//nav//a", "flatten"),
            ("//p", 'split[{tag = "p"}]'),
        ],
    )
    def test_max_results_counts_rows_not_the_document_tree(self, path, operator):
        """``root(doc)`` is one row however many nodes the page has, so a
        trajectory path under ``max_results=2`` trips at the operator
        that produced the third row, not at the source."""
        doc = corpus_document()
        assert len(doc.path(path)) > 2
        with pytest.raises(ResourceExhaustedError) as info:
            doc.path(path, budget=Budget(max_results=2))
        error = info.value
        assert (error.limit_name, error.spent, error.operator) == ("max_results", 3, operator)

    def test_compiles_to_split_head(self):
        plan = compile_path(E.Root("doc"), "//article[@lang='en']//p")
        assert isinstance(plan, E.SetFlatten)
        apply_node = plan.input
        assert isinstance(apply_node, E.SetApply)
        assert isinstance(apply_node.function, PathStepFn)
        assert isinstance(apply_node.input, E.Split)

    def test_explain_shows_split_and_index_anchor(self):
        doc = corpus_document()
        story = doc.explain("//article[@lang='en']//p")
        assert "split" in story
        assert "index_anchor_split" in story
        assert "sapply[path://p]" in story

    def test_warm_path_hits_plan_cache(self):
        doc = Document.from_text(XML, "xml")
        doc.path("//book[@lang='en']")
        before = doc.session.plan_cache.hits
        doc.path("//book[@lang='en']")
        assert doc.session.plan_cache.hits == before + 1

    def test_same_path_same_fingerprint(self):
        a = compile_path(E.Root("doc"), "//a//b")
        b = compile_path(E.Root("doc"), "//a//b")
        from repro.query.plan_cache import plan_fingerprint

        assert plan_fingerprint(a, optimize=True) == plan_fingerprint(
            b, optimize=True
        )

    def test_knobs_pass_through(self):
        doc = Document.from_text(XML, "xml")
        with untabled_scope():
            backtrack = sorted(to_xml(t) for t in doc.path("//book", parallel="off"))
        memo = sorted(to_xml(t) for t in doc.path("//book", parallel="on"))
        assert backtrack == memo
        for retired in ({"executor": "eager"}, {"engine": "backtrack"}):
            with pytest.raises(TypeError):
                doc.path("//book", **retired)

    def test_double_quote_rejected_in_path(self):
        doc = Document.from_text(XML, "xml")
        with pytest.raises(QueryError, match="double quotes"):
            doc.path('//a[@x="v"]')

    def test_attribute_existence_predicate(self):
        doc = Document.from_text(XML, "xml")
        assert len(doc.path("//book[@lang]")) == 2
        predicate = step_predicate(parse_path("//book[@lang]")[0])
        assert "has x.lang" in predicate.describe()


# ---------------------------------------------------------------------------
# Corpus + loading
# ---------------------------------------------------------------------------


class TestCorpusAndLoading:
    def test_corpus_is_deterministic(self):
        assert corpus_html(articles=5) == corpus_html(articles=5)
        # Payloads carry object identity, so tree equality is by
        # serialization, not ==.
        assert to_html(corpus_tree(articles=5)) == to_html(
            corpus_tree(articles=5)
        )

    def test_corpus_round_trips_through_html(self):
        html = corpus_html(articles=8)
        assert to_html(from_html(html)) == html

    def test_load_document_by_extension(self, tmp_path):
        target = tmp_path / "page.html"
        target.write_text(HTML, encoding="utf-8")
        doc = load_document(str(target), name="page")
        assert doc.format == "html"
        assert len(doc.path("//article[@lang='en']//p")) == 2

    def test_load_document_unknown_extension(self, tmp_path):
        target = tmp_path / "page.txt"
        target.write_text("x", encoding="utf-8")
        with pytest.raises(QueryError, match="cannot infer document format"):
            load_document(str(target))

    def test_shell_doc_command(self, tmp_path):
        from repro.__main__ import Shell

        target = tmp_path / "site.xml"
        target.write_text(XML, encoding="utf-8")
        shell = Shell()
        loaded = shell.execute(f"\\doc {target} site")
        assert "as root 'site'" in loaded
        result = shell.execute('root site | path "//book[@lang=\'en\']"')
        assert "2 result(s)" in result
        assert shell.execute("\\doc").startswith("error:")


#: Nested past Python's default recursion limit.
DEEP = 3000


class TestHostileDocuments:
    """Malformed text, and JSON nested deeper than :mod:`json` recurses,
    raise ``QueryError`` naming the format (and, for a parse error, the
    position); the shell prints it and goes on.  XML and HTML are built
    and written off explicit stacks, so depth alone refuses neither."""

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (from_xml, "<a><b></a>", r"cannot parse XML: mismatched tag: line 1, column 8"),
            (from_json, '{"a":', r"cannot parse JSON: Expecting value: line 1 column 6"),
            (from_xml, "<a>" * DEEP, f"cannot parse XML: no element found: .* column {3 * DEEP}"),
            (from_json, "[" * DEEP + "]" * DEEP, "cannot parse JSON: .* nests too deeply"),
        ],
        ids=["xml-malformed", "json-malformed", "xml-deep", "json-deep"],
    )
    def test_a_parser_raises_query_error(self, parse, text, message):
        with pytest.raises(QueryError, match=message):
            parse(text)

    def test_a_deep_xml_document_ingests_and_round_trips(self):
        tree = from_xml("<a>" * DEEP + "</a>" * DEEP)
        assert tree.size() == DEEP + 1
        canonical = to_xml(tree)
        assert canonical == "<a>" * (DEEP - 1) + "<a />" + "</a>" * (DEEP - 1)
        assert to_xml(from_xml(canonical)) == canonical

    def test_a_deep_html_document_ingests_but_does_not_serialize(self):
        """The name is historical: the deep HTML document now serializes,
        to HTML and to XML, and round-trips."""
        tree = from_html("<b>" * DEEP + "</b>" * DEEP)
        assert tree.size() == DEEP + 1
        canonical = to_html(tree)
        assert canonical == "<b>" * DEEP + "</b>" * DEEP
        assert to_html(from_html(canonical)) == canonical
        assert to_xml(tree) == "<b>" * (DEEP - 1) + "<b />" + "</b>" * (DEEP - 1)

    def test_deep_serializers_raise_query_error(self):
        """Only JSON refuses depth on the way out: ``json.dumps`` recurses."""
        from repro.core.aqua_tree import AquaTree, TreeNode
        from repro.core.identity import Cell
        from repro.docstore.model import DocNode, document_node

        node = TreeNode(Cell(DocNode("value", value=1)))
        for _ in range(DEEP):
            node = TreeNode(Cell(DocNode("array")), [node])
        deep_json = AquaTree(TreeNode(Cell(document_node()), [node]))
        with pytest.raises(QueryError, match="cannot serialize JSON: .* nests too deeply"):
            to_json(deep_json)

    def test_the_shell_reports_a_bad_document_and_continues(self, tmp_path):
        from repro.__main__ import Shell

        shell = Shell()
        for name, text in [
            ("bad.xml", "<a><b></a>"),
            ("bad.json", '{"a":'),
            ("deep.json", "[" * DEEP + "]" * DEEP),
        ]:
            target = tmp_path / name
            target.write_text(text, encoding="utf-8")
            assert shell.execute(f"\\doc {target} bad").startswith("error: cannot parse")
        good = tmp_path / "site.xml"
        good.write_text(XML, encoding="utf-8")
        assert "as root 'site'" in shell.execute(f"\\doc {good} site")
        assert "2 result(s)" in shell.execute('root site | path "//book[@lang=\'en\']"')
