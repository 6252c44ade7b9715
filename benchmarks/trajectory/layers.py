"""The layer table: every per-layer metric, its entry point, its probe.

A *layer* is a module under ``src/repro/``.  Each row of ``LAYERS`` names
a per-layer metric, its unit, the import path of the public call it
times (or reads a count from), and — for the fixture-scoped rows — the
probe that measures it on the small fixed inputs of
``fixtures.Fixtures``.  Rows without a probe are *workload-scoped*: their
value comes from the workload's own traced pass (``run.py``).

Entry points resolve lazily.  A missing module, a renamed function or a
retired knob turns the rows that depend on it into ``null`` with a
reason string; nothing else is affected, and no end-to-end metric
depends on anything here except through the fallbacks documented at
``budget()`` and ``entry("naive_path")``.
"""

from __future__ import annotations

import importlib
import os
import random
import threading
from typing import Any, Callable, NamedTuple

from repro import Database, Document, PlanCache, Q, Session, SessionPool

import bench
import data
import fixtures
from fixtures import Fixtures

#: name → (module, attribute).  Names outside ``repro.__all__`` are the
#: ones ROADMAP items 2-5 may move; everything else is public surface.
ENTRY_POINTS = {
    "parse_aql": ("repro", "parse_aql"),
    "prepare": ("repro", "prepare"),
    "optimize": ("repro", "optimize"),
    "lower_factory": ("repro.physical.lower", "lower_factory"),
    "tree_pattern": ("repro", "tree_pattern"),
    "list_pattern": ("repro", "list_pattern"),
    "parse_predicate": ("repro", "parse_predicate"),
    "find_tree_matches": ("repro.patterns", "find_tree_matches"),
    "find_spans": ("repro.patterns", "find_spans"),
    "sub_select": ("repro", "sub_select"),
    "split_pieces": ("repro", "split_pieces"),
    "split_list": ("repro", "split_list"),
    "apply_update": ("repro.algebra.update", "apply_update"),
    "compile_path": ("repro", "compile_path"),
    "naive_path": ("repro.docstore", "naive_path"),
    "Budget": ("repro.guardrails", "Budget"),
    "resolve_backend": ("repro.storage.columnar", "resolve_backend"),
}


class LayerUnavailable(Exception):
    """An entry point the table names is gone; carries the reason."""


def entry(name: str) -> Any:
    module, attribute = ENTRY_POINTS[name]
    try:
        return getattr(importlib.import_module(module), attribute)
    except (ImportError, AttributeError) as exc:
        raise LayerUnavailable(f"{module}:{attribute} unavailable ({exc})") from exc


def optional_entry(name: str) -> Any:
    try:
        return entry(name)
    except LayerUnavailable:
        return None


def budget(seconds: float = 20.0) -> Any:
    """The per-operation deadline, or ``None`` if ``Budget`` has moved
    (operations then run unguarded; provenance records which)."""
    budget_type = optional_entry("Budget")
    return budget_type(deadline_seconds=seconds) if budget_type else None


# -- probes --------------------------------------------------------------------

TREE_PATTERN = "d(?* e(?* h ?*) ?*)"
LIST_PATTERN = "[A??F]"
PATTERN_TEXTS = ("d(e ?*)", TREE_PATTERN, "d(?* e(?*) ?* j ?*)", fixtures.FIGURE4_PATTERN)
LIST_PATTERN_TEXTS = (LIST_PATTERN, "[A C D F]", "[A [[C|D]]+ F]")
PREDICATE_TEXT = 'age > 30 and city = "C3" and salary > 1000'


def _per_item_us(function: Callable[[Any], Any], items: list, repeat: int = 5) -> float:
    return 1e6 * bench.timed_median(lambda: [function(i) for i in items], repeat) / len(items)


def _ms(function: Callable[[], Any], repeat: int = 5) -> float:
    return 1e3 * bench.timed_median(function, repeat)


def probe_parse(fx: Fixtures) -> float:
    return _per_item_us(entry("parse_aql"), fx.texts)


def probe_prepare_cold(fx: Fixtures) -> float:
    prepare, db = entry("prepare"), fx.adhoc_db
    return _per_item_us(lambda text: prepare(text, db, cache=None), fx.texts)


def probe_prepare_warm(fx: Fixtures) -> float:
    session = fx.session(fx.adhoc_db)
    for text in fx.texts:
        session.prepare(text)
    return _per_item_us(session.prepare, fx.texts)


def probe_optimize(fx: Fixtures) -> float:
    optimize, db = entry("optimize"), fx.adhoc_db
    exprs = [entry("parse_aql")(text) for text in fx.texts]
    return _per_item_us(lambda expr: optimize(expr, db), exprs)


def probe_lower(fx: Fixtures) -> float:
    lower, optimize, db = entry("lower_factory"), entry("optimize"), fx.adhoc_db
    plans = [optimize(entry("parse_aql")(text), db) for text in fx.texts]
    return _per_item_us(lambda plan: lower(plan, db, choose_access_paths=True), plans)


def forest_query() -> Any:
    return Q.extent("Families").sapply(fixtures.split_count).build()


def exchange_speedup(session: Any, repeat: int = 3) -> float:
    """Sequential ÷ default-knob latency of the ``forest_split`` operation."""
    query = forest_query()
    session.query(query)
    sequential = bench.timed_median(lambda: session.query(query, parallel="off"), repeat)
    return sequential / bench.timed_median(lambda: session.query(query), repeat)


def probe_exchange(fx: Fixtures) -> float:
    return exchange_speedup(fx.session(fx.forest_db))


def probe_tree_compile(fx: Fixtures) -> float:
    return _per_item_us(entry("tree_pattern"), list(PATTERN_TEXTS) * 8)


def probe_list_compile(fx: Fixtures) -> float:
    compile_list = entry("list_pattern")
    return _per_item_us(
        lambda text: compile_list(text, fixtures.by_pitch), list(LIST_PATTERN_TEXTS) * 8
    )


def probe_predicate_parse(fx: Fixtures) -> float:
    return _per_item_us(entry("parse_predicate"), [PREDICATE_TEXT] * 32)


def probe_tree_match(fx: Fixtures) -> float:
    tree, pattern = fx.tree_db.root("T"), entry("tree_pattern")(TREE_PATTERN)
    return _ms(lambda: entry("find_tree_matches")(pattern, tree), 3)


def probe_tree_match_roots(fx: Fixtures) -> float:
    tree, pattern = fx.tree_db.root("T"), entry("tree_pattern")(TREE_PATTERN)
    roots = fixtures.anchors(tree)
    return _ms(lambda: entry("find_tree_matches")(pattern, tree, roots=roots))


def probe_list_match(fx: Fixtures) -> float:
    values = fx.song_db.root("song").values()
    pattern = entry("list_pattern")(LIST_PATTERN, fixtures.by_pitch)
    return _ms(lambda: entry("find_spans")(pattern, values), 3)


def probe_sub_select(fx: Fixtures) -> float:
    tree = fx.tree_db.root("T")
    return _ms(lambda: entry("sub_select")(TREE_PATTERN, tree), 3)


def probe_index_gain(fx: Fixtures) -> float:
    session = fx.session(fx.tree_db)
    text = f'root T | sub_select "{TREE_PATTERN}"'
    session.query(text)
    return probe_sub_select(fx) / _ms(lambda: session.query(text))


def _forest_sample(fx: Fixtures) -> list:
    return list(fx.forest_db.iter_extent("Families"))[:90]


def _split_pieces_seconds(fx: Fixtures) -> float:
    split_pieces, trees = entry("split_pieces"), _forest_sample(fx)
    return bench.timed_median(
        lambda: [
            split_pieces(fixtures.FIGURE4_PATTERN, tree, resolver=fixtures.by_citizen)
            for tree in trees
        ]
    )


def probe_split_pieces(fx: Fixtures) -> float:
    return 1e3 * _split_pieces_seconds(fx) / len(_forest_sample(fx))


def probe_reassemble_share(fx: Fixtures) -> float:
    """(``split_pieces`` − ``find_tree_matches``) ÷ ``split_pieces``: the
    part of a split spent cutting the match into ``x, y, z``."""
    pattern = entry("tree_pattern")(fixtures.FIGURE4_PATTERN, fixtures.by_citizen)
    find, trees = entry("find_tree_matches"), _forest_sample(fx)
    matching = bench.timed_median(lambda: [find(pattern, tree) for tree in trees])
    splitting = _split_pieces_seconds(fx)
    return (splitting - matching) / splitting


def piece_lengths(x: Any, y: Any, z: Any) -> tuple[int, int, int]:
    return len(x), len(y), len(z)


def probe_split_list(fx: Fixtures) -> float:
    phrase = fx.song_db.root("phrase")
    return _ms(
        lambda: entry("split_list")(
            LIST_PATTERN, piece_lengths, phrase, resolver=fixtures.by_pitch
        ),
        3,
    )


def probe_update_commit(fx: Fixtures) -> float:
    apply_update, db = entry("apply_update"), fx.people_db
    return _per_item_us(
        lambda i: apply_update(db, "L", fixtures.set_at, i % 64, i), list(range(200))
    )


def probe_tree_index_build(fx: Fixtures) -> float:
    tree = fx.tree_db.root("T")
    return _ms(lambda: Database().tree_index(tree), 3)


def probe_extent_load(fx: Fixtures) -> float:
    rows = list(fx.people_db.iter_extent("Person"))

    def load() -> None:
        db = Database()
        db.insert_many(rows, "Person")
        db.create_index("Person", "city")

    return _ms(load)


def probe_list_index_build(fx: Fixtures) -> float:
    notes = fx.song_db.root("song")
    return _ms(lambda: Database().list_index(notes, ["pitch"]), 3)


def probe_snapshot(fx: Fixtures) -> float:
    db = fx.people_db
    return _per_item_us(lambda _: db.snapshot(), list(range(200)))


def probe_bytes_per_node(fx: Fixtures) -> float:
    """Heap bytes a stored, indexed tree node costs: ``tracemalloc`` around
    load plus node-index build, so the count repeats exactly."""
    import tracemalloc

    tracemalloc.start()
    try:
        db = fixtures.labelled_db(fx.rng("bytes"), fx.TREE_NODES)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / db.root("T").size()


def probe_candidates_per_result(fx: Fixtures) -> float:
    """Index candidates plus scanned nodes the engine examined per result
    of the anchored ``sub_select`` (``db.stats`` counters)."""
    db = fx.tree_db
    session = fx.session(db)
    text = f'root T | sub_select "{TREE_PATTERN}"'
    session.query(text)
    with db.stats.scope():
        results = len(session.query(text))
        counters = db.stats.snapshot()
    examined = counters.get("nodes_scanned", 0) + counters.get("index_candidates", 0)
    if not examined:
        raise LayerUnavailable("db.stats has neither nodes_scanned nor index_candidates")
    return examined / results


def probe_ingest(fmt: str) -> Callable[[Fixtures], float]:
    def probe(fx: Fixtures) -> float:
        text = fx.documents[fmt]
        parse = fixtures.codec(fmt)[0]
        return len(text.encode()) / 1e6 / bench.timed_median(lambda: parse(text), 3)

    return probe


def probe_serialize(fmt: str) -> Callable[[Fixtures], float]:
    def probe(fx: Fixtures) -> float:
        parse, serialize = fixtures.codec(fmt)
        tree = parse(fx.documents[fmt])
        size = len(serialize(tree).encode())
        return size / 1e6 / bench.timed_median(lambda: serialize(tree))

    return probe


def probe_compile_path(fx: Fixtures) -> float:
    compile_path = entry("compile_path")
    source = entry("parse_aql")("root doc")
    paths = [p for group in data.DOCUMENT_PATHS.values() for p in group]
    return _per_item_us(lambda path: compile_path(source, path), paths * 4)


def _html_document(fx: Fixtures) -> Any:
    return Document(fixtures.codec("html")[0](fx.documents["html"]), "html")


def probe_document_build(fx: Fixtures) -> float:
    tree = fixtures.codec("html")[0](fx.documents["html"])
    return _ms(lambda: Document(tree, "html"), 3)


def probe_path_warm(fx: Fixtures) -> float:
    doc = _html_document(fx)
    paths = data.DOCUMENT_PATHS["html"]
    for path in paths:
        doc.path(path)
    return _ms(lambda: [doc.path(path) for path in paths]) / len(paths)


def probe_tree_build(fx: Fixtures) -> float:
    size = fx.TREE_NODES
    rng = fx.rng("tree-build")
    return 1e6 * bench.timed_median(lambda: data.labelled_tree(rng, size), 3) / size


def probe_list_build(fx: Fixtures) -> float:
    size = fx.SONG_NOTES
    rng = fx.rng("list-build")
    return 1e6 * bench.timed_median(lambda: data.song(rng, size, 5), 3) / size


def probe_session_overhead(fx: Fixtures) -> float:
    session = fx.session(fx.people_db)
    session.query("root L")
    return _per_item_us(lambda _: session.query("root L"), list(range(500)))


class PoolProbe(NamedTuple):
    overhead_us: float
    scaling_x: float
    stats: dict


def pool_clients() -> int:
    return min(2, os.cpu_count() or 1)


def measure_pool(db: Any, texts: list[str], seconds: float = 0.6) -> PoolProbe:
    """One-client pool overhead, C-client scaling and the pool's own
    failure counters, on a read-only storm over ``texts``."""
    cache = PlanCache()
    session = Session(db, plan_cache=cache)
    for text in texts:
        session.query(text)
    rates = {}
    clients = pool_clients()
    for count in sorted({1, clients}):
        with SessionPool(db, workers=count, plan_cache=cache) as pool:
            if count == 1:
                direct = bench.timed_median(lambda: session.query(texts[0]), 21)
                pooled = bench.timed_median(lambda: pool.submit(texts[0]).result(), 21)
            done = [0] * count

            def client(slot: int) -> None:
                rng = random.Random(slot)
                deadline = bench.clock() + seconds
                while bench.clock() < deadline:
                    pool.submit(rng.choice(texts)).result()
                    done[slot] += 1

            threads = [threading.Thread(target=client, args=(i,)) for i in range(count)]
            start = bench.clock()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rates[count] = sum(done) / (bench.clock() - start)
            stats = pool.stats.snapshot()
    return PoolProbe(1e6 * (pooled - direct), rates[clients] / rates[1], stats)


def write_latency_ms(pool: Any, writes: int = 200) -> float:
    """Median ``submit_update(...).result()`` latency on list root ``L``."""
    samples = []
    for index in range(writes):
        start = bench.clock()
        pool.submit_update("L", fixtures.set_at, index % 64, index).result()
        samples.append(bench.clock() - start)
    return 1e3 * bench.median(samples)


def probe_write(fx: Fixtures) -> float:
    with SessionPool(fx.people_db, workers=1) as pool:
        return write_latency_ms(pool)


def _pool_probe(fx: Fixtures) -> PoolProbe:
    # One storm serves five rows; the result rides on the fixture set it ran on.
    if not hasattr(fx, "pool_probe"):
        fx.pool_probe = measure_pool(fx.people_db, fixtures.city_texts(fx.PEOPLE[1]))
    return fx.pool_probe


def probe_pool_overhead(fx: Fixtures) -> float:
    return _pool_probe(fx).overhead_us


def probe_pool_scaling(fx: Fixtures) -> float:
    return _pool_probe(fx).scaling_x


def probe_pool_stat(name: str) -> Callable[[Fixtures], float]:
    return lambda fx: float(_pool_probe(fx).stats[name])


# -- the table -----------------------------------------------------------------


class Layer(NamedTuple):
    unit: str
    better: str  # "lower" | "higher"
    entry_point: str
    probe: Callable[[Fixtures], float] | None  # None: workload-scoped (run.py)
    moves: str  # the end-to-end metric and workload this row should move


LAYERS: dict[str, Layer] = {
    "query.parse_us": Layer("us", "lower", "repro:parse_aql", probe_parse,
                            "op_p50_ms on small_adhoc; query.cold_first_ms everywhere"),
    "query.prepare_cold_us": Layer("us", "lower", "repro:prepare", probe_prepare_cold,
                                   "op_p50_ms on small_adhoc"),
    "query.prepare_warm_us": Layer("us", "lower", "repro:Session.prepare", probe_prepare_warm,
                                   "op_p50_ms on small_adhoc"),
    "query.plan_cache_hit_rate": Layer("ratio", "higher", "repro:PlanCache", None,
                                       "op_p50_ms on small_adhoc, pool_mixed_rw"),
    "query.plan_cache_evictions": Layer("count", "lower", "repro:PlanCache", None,
                                        "op_p50_ms on small_adhoc"),
    "query.plan_cache_invalidations": Layer("count", "lower", "repro:PlanCache", None,
                                            "op_p50_ms, ops_per_s on pool_mixed_rw"),
    "query.cold_first_ms": Layer("ms", "lower", "repro:Session.query", None,
                                 "first execution of each distinct query on a fresh database"),
    "query.execute_ms": Layer("ms", "lower", "repro:PreparedQuery.run", None,
                              "op_p50_ms on every workload"),
    "optimizer.optimize_us": Layer("us", "lower", "repro:optimize", probe_optimize,
                                   "op_p50_ms on small_adhoc"),
    "physical.lower_us": Layer("us", "lower", "repro.physical.lower:lower_factory", probe_lower,
                               "op_p50_ms on small_adhoc"),
    "physical.exchange_speedup_x": Layer("x", "higher", "repro:Session(parallel=)", probe_exchange,
                                         "op_p50_ms, cpu_ms_per_op on forest_split"),
    "patterns.tree_compile_us": Layer("us", "lower", "repro:tree_pattern", probe_tree_compile,
                                      "op_p50_ms on small_adhoc"),
    "patterns.list_compile_us": Layer("us", "lower", "repro:list_pattern", probe_list_compile,
                                      "op_p50_ms on small_adhoc"),
    "predicates.parse_us": Layer("us", "lower", "repro:parse_predicate", probe_predicate_parse,
                                 "op_p50_ms on small_adhoc"),
    "patterns.tree_match_ms": Layer("ms", "lower", "repro.patterns:find_tree_matches",
                                    probe_tree_match, "op_p50_ms on deep_subselect, forest_split"),
    "patterns.tree_match_roots_ms": Layer("ms", "lower", "repro.patterns:find_tree_matches",
                                          probe_tree_match_roots,
                                          "op_p50_ms on deep_subselect, forest_split"),
    "patterns.list_match_ms": Layer("ms", "lower", "repro.patterns:find_spans", probe_list_match,
                                    "op_p50_ms on list_melody"),
    "algebra.sub_select_ms": Layer("ms", "lower", "repro:sub_select", probe_sub_select,
                                   "baseline for deep_subselect"),
    "storage.index_gain_x": Layer("x", "higher", "repro:Session.query", probe_index_gain,
                                  "op_p50_ms on deep_subselect"),
    "algebra.split_pieces_ms": Layer("ms", "lower", "repro:split_pieces", probe_split_pieces,
                                     "op_p50_ms on forest_split"),
    "algebra.reassemble_share": Layer("ratio", "lower", "repro:split_pieces",
                                      probe_reassemble_share, "op_p50_ms on forest_split"),
    "algebra.split_list_ms": Layer("ms", "lower", "repro:split_list", probe_split_list,
                                   "op_p50_ms on list_melody"),
    "algebra.update_commit_us": Layer("us", "lower", "repro.algebra.update:apply_update",
                                      probe_update_commit, "api.write_p50_ms; ops_per_s on pool_mixed_rw"),
    "storage.tree_index_build_ms": Layer("ms", "lower", "repro:Database.tree_index",
                                         probe_tree_index_build,
                                         "setup_s on all; op_p50_ms on doc_ingest_query"),
    "storage.extent_load_ms": Layer("ms", "lower", "repro:Database.insert_many", probe_extent_load,
                                    "setup_s on pool_mixed_rw, small_adhoc"),
    "storage.list_index_build_ms": Layer("ms", "lower", "repro:Database.list_index",
                                         probe_list_index_build, "setup_s on list_melody"),
    "storage.first_query_build_ms": Layer("ms", "lower", "repro:Session.query", None,
                                          "query.cold_first_ms on deep_subselect; op_p50_ms on doc_ingest_query"),
    "storage.snapshot_us": Layer("us", "lower", "repro:Database.snapshot", probe_snapshot,
                                 "op_p50_ms on pool_mixed_rw"),
    "storage.bytes_per_node": Layer("B", "lower", "repro:Database.tree_index", probe_bytes_per_node,
                                    "peak_rss_mb on deep_subselect, list_melody"),
    "storage.nodes_scanned_per_result": Layer("count", "lower", "repro:Database.stats",
                                              probe_candidates_per_result,
                                              "op_p50_ms on deep_subselect"),
    **{
        f"docstore.ingest_{fmt}_mb_per_s": Layer("MB/s", "higher", f"repro:from_{fmt}",
                                                 probe_ingest(fmt), "op_p50_ms on doc_ingest_query")
        for fmt in ("html", "json", "xml")
    },
    **{
        f"docstore.serialize_{fmt}_mb_per_s": Layer("MB/s", "higher", f"repro:to_{fmt}",
                                                    probe_serialize(fmt),
                                                    "op_p50_ms on doc_ingest_query")
        for fmt in ("html", "json", "xml")
    },
    "docstore.compile_path_us": Layer("us", "lower", "repro:compile_path", probe_compile_path,
                                      "op_p50_ms on doc_ingest_query"),
    "docstore.document_build_ms": Layer("ms", "lower", "repro:Document", probe_document_build,
                                        "op_p50_ms on doc_ingest_query"),
    "docstore.path_warm_ms": Layer("ms", "lower", "repro:Document.path", probe_path_warm,
                                   "op_p50_ms on doc_ingest_query"),
    "core.tree_build_us_per_node": Layer("us", "lower", "repro:AquaTree.build", probe_tree_build,
                                         "setup_s on all"),
    "core.list_build_us_per_node": Layer("us", "lower", "repro:AquaList.from_values",
                                         probe_list_build, "setup_s on all"),
    "api.session_overhead_us": Layer("us", "lower", "repro:Session.query", probe_session_overhead,
                                     "op_p50_ms on small_adhoc"),
    "api.pool_overhead_us": Layer("us", "lower", "repro:SessionPool.submit", probe_pool_overhead,
                                  "ops_per_s on pool_mixed_rw"),
    "api.pool_scaling_x": Layer("x", "higher", "repro:SessionPool", probe_pool_scaling,
                                "ops_per_s on pool_mixed_rw"),
    "api.write_p50_ms": Layer("ms", "lower", "repro:SessionPool.submit_update", probe_write,
                              "the write side of ops_per_s on pool_mixed_rw"),
    "api.op_p95_ms": Layer("ms", "lower", "repro:Session.query", None, "tails; diagnostic only"),
    "api.op_p99_ms": Layer("ms", "lower", "repro:Session.query", None, "tails; diagnostic only"),
    "serving.availability": Layer("ratio", "higher", "repro:PoolStats", probe_pool_stat("availability"),
                                  "ops_failed on pool_mixed_rw"),
    "serving.shed_overload": Layer("count", "lower", "repro:PoolStats", probe_pool_stat("shed_overload"),
                                   "ops_failed on pool_mixed_rw"),
    "serving.retries": Layer("count", "lower", "repro:PoolStats", probe_pool_stat("retries"),
                             "ops_failed on pool_mixed_rw"),
    "bench.execute_share": Layer("ratio", "higher", "benchmark spans", None,
                                 ">= 0.9 on deep_subselect"),
    "bench.planning_share": Layer("ratio", "lower", "benchmark spans", None,
                                  ">= 0.4 on small_adhoc"),
    "bench.build_share": Layer("ratio", "lower", "benchmark spans", None,
                               ">= 0.5 on doc_ingest_query"),
    "bench.stage_sum_ratio": Layer("ratio", "lower", "benchmark spans", None, "sanity, about 1"),
    "bench.trace_overhead_frac": Layer("ratio", "lower", "benchmark spans", None,
                                       "sanity, about 0"),
}


def run_probes(fx: Fixtures, overrides: dict[str, Callable[[], float]] | None = None) -> dict[str, dict]:
    """Measure every fixture-scoped row; ``overrides`` lets a workload
    answer a row from its own data instead of the fixed fixture."""
    overrides = overrides or {}
    results: dict[str, dict] = {}
    for name, layer in LAYERS.items():
        probe = overrides.get(name) or (layer.probe and (lambda p=layer.probe: p(fx)))
        if probe is None:
            continue
        try:
            results[name] = {"value": float(probe()), "unit": layer.unit}
        except Exception as exc:  # a probe boundary: one row fails, the run goes on
            results[name] = {
                "value": None,
                "unit": layer.unit,
                "reason": f"{type(exc).__name__}: {exc}",
            }
    return results
