"""Tests for per-structure node indexes and interval labels."""

from repro.core import parse_list, parse_tree
from repro.core.aqua_tree import AquaTree, TreeLayout, TreeNode
from repro.core.identity import as_cell
from repro.patterns import TreeMatchContext, parse_tree_pattern
from repro.predicates.alphabet import attr, pred, sym
from repro.storage import Database
from repro.storage.columnar import ColumnarExtent
from repro.storage.stats import Instrumentation
from repro.storage.tree_index import ListIndex, TreeIndex
from repro.workloads.family import BRAZIL, figure3_family_tree


class TestIntervalLabels:
    def test_ancestor_test(self):
        tree = parse_tree("a(b(c)d)")
        index = TreeIndex(tree)
        a = tree.root
        b, d = a.children
        c = b.children[0]
        assert index.is_ancestor(a, c)
        assert index.is_ancestor(b, c)
        assert not index.is_ancestor(b, d)
        assert not index.is_ancestor(c, a)

    def test_depths(self):
        tree = parse_tree("a(b(c))")
        index = TreeIndex(tree)
        nodes = list(tree.nodes())
        assert [index.depth(n) for n in nodes] == [0, 1, 2]


class TestSharedLayout:
    def test_every_consumer_reads_the_one_layout_built_once(self, monkeypatch):
        builds = []
        build = TreeLayout.__init__

        def counted(self, root):
            builds.append(root)
            build(self, root)

        monkeypatch.setattr(TreeLayout, "__init__", counted)
        tree = parse_tree("a(b(a(b)) c)")
        db = Database()
        index = db.tree_index(tree)
        extent = db.columnar_extent(tree)
        closure = parse_tree_pattern("[[a(b(@))]]+@ .@ a(b)")
        context = TreeMatchContext(closure, tree)
        second = Database().tree_index(tree)
        position = tree.layout().position
        assert index.layout.position is position
        assert extent.layout.position is position
        assert context.closure and context._pre is position
        assert second.layout.position is position
        assert context._children_pre is tree.layout().children_position
        assert builds == [tree.root]

    def test_ten_thousand_deep_chain_needs_no_recursion(self):
        node = TreeNode(as_cell("y"))
        for _ in range(10_000):
            node = TreeNode(as_cell("x"), [node])
        chain = AquaTree(node)
        index = TreeIndex(chain)
        leaf = chain.layout().nodes[-1]
        assert index.depth(leaf) == 10_000
        assert index.is_ancestor(chain.root, leaf)
        structure = ColumnarExtent(chain, backend="python").structure()
        assert structure["subtree_size"][0] == 10_001
        assert structure["first_child"][:2] == [1, 2]
        assert set(structure["next_sibling"]) == {-1}


class TestValueIndex:
    def test_candidates_by_value(self):
        tree = parse_tree("a(b a(b))")
        index = TreeIndex(tree)
        nodes, used = index.candidate_nodes(sym("b"))
        assert used
        assert len(nodes) == 2

    def test_fallback_to_scan_for_opaque(self):
        tree = parse_tree("a(b)")
        index = TreeIndex(tree)
        stats = Instrumentation()
        nodes, used = index.candidate_nodes(pred(lambda v: True), stats)
        assert not used
        assert len(nodes) == 2
        assert stats["full_scans"] == 1

    def test_stats_on_probe(self):
        tree = parse_tree("a(b)")
        index = TreeIndex(tree)
        stats = Instrumentation()
        index.candidate_nodes(sym("b"), stats)
        assert stats["index_probes"] == 1
        assert stats["index_candidates"] == 1

    def test_probe_counts_once_through_an_activated_sink(self):
        """Inside a query the caller's sink is also the activated one: the
        hash index's own emission and the caller's credit are one probe."""
        tree = parse_tree("a(b)")
        index = TreeIndex(tree)
        stats = Instrumentation()
        with stats.activated():
            index.candidate_nodes(sym("b"), stats)
        assert stats["index_probes"] == 1
        assert stats["index_candidates"] == 1


class TestAttributeIndex:
    def test_attribute_candidates(self):
        family = figure3_family_tree()
        index = TreeIndex(family, attributes=["citizen"])
        nodes, used = index.candidate_nodes(BRAZIL)
        assert used
        assert {n.value.name for n in nodes} == {"Maria", "Mat", "Tom", "Ana", "Rita"}

    def test_add_attribute_later(self):
        family = figure3_family_tree()
        index = TreeIndex(family)
        assert index.servable_terms(BRAZIL) == []
        index.add_attribute("citizen")
        assert index.servable_terms(BRAZIL) == [("citizen", "=", "Brazil")]

    def test_most_selective_term_chosen(self):
        family = figure3_family_tree()
        index = TreeIndex(family, attributes=["citizen", "name"])
        predicate = BRAZIL & (attr("name") == "Mat")
        nodes, used = index.candidate_nodes(predicate)
        assert used
        assert len(nodes) == 1  # probed name, not citizenship

    def test_concat_points_not_indexed(self):
        tree = parse_tree("a(@1 b)")
        index = TreeIndex(tree)
        nodes, _ = index.candidate_nodes(sym("b"))
        assert len(nodes) == 1
        assert index.node_count == 3  # labels cover NULLs too


class TestListIndex:
    def test_positions_by_value(self):
        index = ListIndex(parse_list("[abab]"))
        positions, used = index.positions_for(sym("a"))
        assert used
        assert positions == [0, 2]

    def test_positions_by_attribute(self):
        from repro.workloads.music import note

        from repro.core.aqua_list import AquaList

        song = AquaList.from_values([note("A"), note("B"), note("A")])
        index = ListIndex(song, attributes=["pitch"])
        positions, used = index.positions_for(attr("pitch") == "A")
        assert used
        assert positions == [0, 2]

    def test_fallback_scan(self):
        index = ListIndex(parse_list("[ab]"))
        positions, used = index.positions_for(pred(lambda v: True))
        assert not used
        assert positions == [0, 1]


class TestBuiltOnFirstProbe:
    """Constructing an index declares; ``index_builds`` counts the
    attribute maps a probe actually had to build."""

    HTML = (
        "<html><body><article lang='en'><p>a</p><p>b</p></article>"
        "<article lang='fr'><p>c</p></article></body></html>"
    )

    def _document(self):
        from repro.docstore import Document

        sink = Instrumentation()
        with sink.activated():
            document = Document.from_text(self.HTML, "html")
        assert sink["index_builds"] == 0
        index = document.db.tree_index(document.tree)
        assert {"tag", "kind"} <= index.indexed_attributes()  # declared ⇒ servable
        return document, sink

    def test_a_tag_path_builds_tag_only(self):
        document, sink = self._document()
        with sink.activated():  # planning's cost model may be the first reader
            assert len(document.path("//p")) == 3
            assert len(document.path("//article")) == 2
        assert sink["index_builds"] == 1

    def test_an_attribute_path_builds_tag_and_lang_never_kind_or_payload(self):
        document, sink = self._document()
        with sink.activated():
            assert len(document.path("//article[@lang='en']//p")) == 2
        assert sink["index_builds"] == 2
        assert sink["index_probes"] == 1

    def test_a_by_pitch_query_builds_pitch_only(self):
        from repro import Session
        from repro.workloads.music import random_song

        db = Database()
        song = random_song(64, seed=3)
        db.bind_root("song", song)
        sink = Instrumentation()
        with sink.activated():
            db.list_index(song, ["pitch"])
            assert sink["index_builds"] == 0
            Session(db).query('root song | lsub_select "[A??F]" by pitch')
        assert sink["index_builds"] == 1

    def test_racing_first_probes_agree_with_one_thread(self):
        import threading

        tree = figure3_family_tree()
        expected, _ = TreeIndex(tree, ["citizen"]).candidate_nodes(BRAZIL)
        index = TreeIndex(tree, ["citizen"])
        barrier = threading.Barrier(8)
        answers = []

        def probe():
            barrier.wait()
            answers.append(index.candidate_nodes(BRAZIL))

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [(expected, True)] * 8
