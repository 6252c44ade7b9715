"""Tests for per-structure node indexes and interval labels."""

import pytest

from repro import context as query_context
from repro.core import parse_list, parse_tree
from repro.core.aqua_tree import AquaTree, TreeLayout, TreeNode
from repro.core.identity import as_cell
from repro.patterns import TreeMatchContext, parse_tree_pattern
from repro.predicates.alphabet import attr, pred, sym
from repro.storage import Database
from repro.storage.index import VALUE_ATTRIBUTE
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
        assert index.probe(VALUE_ATTRIBUTE, "b") and builds == []  # probes lay out nothing
        closure = parse_tree_pattern("[[a(b(@))]]+@ .@ a(b)")
        context = TreeMatchContext(closure, tree)
        second = Database().tree_index(tree)
        position = tree.layout().position
        assert index.layout.position is position
        # The index is cached on the tree: every database shares it.
        assert second is index
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
        layout = chain.layout()
        assert layout.end[0] == 10_001
        assert layout.parent[:3] == [-1, 0, 1]
        assert layout.depth[-1] == 10_000


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
        with query_context.entered(receiver=stats):
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
        """Among terms whose maps are built, the smallest bucket wins."""
        family = figure3_family_tree()
        index = TreeIndex(family, attributes=["citizen", "name"])
        predicate = BRAZIL & (attr("name") == "Mat")
        assert (index.count("citizen", "Brazil"), index.count("name", "Mat")) == (5, 1)
        nodes, used = index.candidate_nodes(predicate)
        assert used
        assert len(nodes) == 1  # probed name, not citizenship

    def test_a_fresh_index_probes_the_first_term_and_builds_one_map(self):
        """With no map built, the first servable term is probed — as
        ``ListIndex`` and the cost model take it — and no other map is
        built only to compare its size."""
        family = figure3_family_tree()
        index = TreeIndex(family, attributes=["citizen", "name"])
        sink = Instrumentation()
        with query_context.entered(receiver=sink):
            nodes, used = index.candidate_nodes(BRAZIL & (attr("name") == "Mat"))
        assert used
        assert len(nodes) == 5  # the citizen bucket; the matcher tests the name
        assert sink["index_builds"] == 1

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


class TestCachedOnTheStructure:
    """Node and position indexes (and list columns) live on the tree or
    list they index, so a rebind lets the superseded one be collected."""

    def test_superseded_root_is_collected_after_rebind(self):
        """A payload reachable only from a superseded root is collected
        after ``rebind_root`` — no database-side cache pins it."""
        import gc
        import weakref

        from repro import Session
        from repro.core.aqua_list import AquaList
        from repro.core.identity import Record

        db = Database()
        session = Session(db)
        doomed = Record(name="d")
        tree = AquaTree.build(Record(name="r"), [AquaTree.build(doomed, [Record(name="e")])])
        notes = AquaList.of(*[Record(pitch=p) for p in "ABC" * 200])
        db.bind_root("T", tree)
        db.bind_root("L", notes)
        for optimize in (True, False):
            found = session.query('root T | sub_select "d(e)" by name', optimize=optimize)
            assert len(found) == 1
            session.query('root L | lsub_select "[A?C]" by pitch', optimize=optimize)
        tree_payload, list_payload = weakref.ref(doomed), weakref.ref(notes[1])
        db.rebind_root("T", parse_tree("r(d(e))"))
        db.rebind_root("L", parse_list("[a b c]"))
        session.query('root T | sub_select "d(e)" by name', optimize=True)
        # Nothing cached on a structure points back at it, so reference
        # counting alone frees the superseded root — no cycle to collect.
        gc.disable()
        try:
            del tree, notes, doomed, found
            assert tree_payload() is None
            assert list_payload() is None
        finally:
            gc.enable()


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
        with query_context.entered(receiver=sink):
            document = Document.from_text(self.HTML, "html")
        assert sink["index_builds"] == 0
        index = document.db.tree_index(document.tree)
        assert {"tag", "kind"} <= index.indexed_attributes()  # declared ⇒ servable
        return document, sink

    def test_a_tag_path_builds_tag_only(self):
        document, sink = self._document()
        with query_context.entered(receiver=sink):  # planning's cost model may be the first reader
            assert len(document.path("//p")) == 3
            assert len(document.path("//article")) == 2
        assert sink["index_builds"] == 1

    def test_an_attribute_path_builds_tag_and_lang_never_kind_or_payload(self):
        """(The name is historical: the probe takes ``tag``, the first
        servable term, and tests ``lang`` on the articles, so only the
        ``tag`` map is built.)"""
        document, sink = self._document()
        with query_context.entered(receiver=sink):
            assert len(document.path("//article[@lang='en']//p")) == 2
        assert sink["index_builds"] == 1
        assert sink["index_probes"] == 1
        assert set(document.tree._postings) == {"tag"}

    def test_a_by_pitch_query_builds_pitch_only(self):
        from repro import Session
        from repro.workloads.music import random_song

        db = Database()
        song = random_song(64, seed=3)
        db.bind_root("song", song)
        sink = Instrumentation()
        with query_context.entered(receiver=sink):
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
        assert tree._layout is None  # the maps are the tree's postings

    @pytest.mark.usefixtures("posting_scans")
    def test_a_scan_builds_the_map_a_later_probe_reads(self):
        from repro import Session

        db = Database()
        db.bind_root("T", figure3_family_tree())
        query = 'root T | sub_select "Brazil(!?* USA !?*)" by citizen'
        sink = Instrumentation()
        with query_context.entered(receiver=sink):
            scanned = Session(db).query(query, optimize=False)
            assert sink["index_builds"] == 1  # the first scan leaves postings behind
            probed = Session(db).query(query)
        assert probed == scanned
        assert sink["index_builds"] == 1 and sink["index_probes"] == 1
