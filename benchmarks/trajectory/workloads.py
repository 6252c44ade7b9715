"""The six workloads: what is built, what one operation is, what is right.

A workload is built from ``--seed`` alone (``build``, timed as
``setup_s``), answers every distinct query once from the direct algebra
call — no database, index or optimizer — (``oracle``), and then hands
out an endless stream of operations per client (``streams``).  Each
operation can be made as the one call a client would make (``Op.call``)
or walked stage by stage through public functions with one span per
stage (``Op.replay``); the two do the same work.

Only ``repro.__all__`` names are imported here.  The per-operation
``Budget`` and the document oracle ``naive_path`` come through
``layers.py`` and degrade (unguarded operations; self-consistency
oracle) if they move.
"""

from __future__ import annotations

import functools
import itertools
import random
import threading
from typing import Any, Callable, Iterator, NamedTuple

from repro import (
    ALPHA,
    AquaSet,
    Database,
    Document,
    PlanCache,
    Q,
    Record,
    Session,
    SessionPool,
    all_anc,
    all_desc,
    make_tuple,
    optimize,
    parse_aql,
    split_list,
    split_pieces,
    sub_select,
    sub_select_list,
)

import data
import fixtures
import layers
from bench import Tracer
from fixtures import by_citizen, by_pitch

BUDGET = layers.budget()


class Op(NamedTuple):
    key: str  # names the distinct query: the oracle's index
    call: Callable[[], Any]  # the one call a client makes
    replay: Callable[[Tracer], Any]  # the same work, one span per stage


def plan_breakdown(tracer: Tracer, db: Database, text: str) -> None:
    """After a plan-cache miss, walk the miss path again one public call
    per stage.  Diagnostic spans: outside the operation, not in its sums."""
    lower = layers.optional_entry("lower_factory")
    with tracer.span("plan_breakdown", diagnostic=True):
        with tracer.span("query.parse"):
            expr = parse_aql(text)
        with tracer.span("optimizer.optimize"):
            plan = optimize(expr, db)
        if lower is not None:
            with tracer.span("physical.lower"):
                lower(plan, db, choose_access_paths=True)


def query_op(key: str, session: Session, source: Any, optimize: bool | None = None) -> Op:
    """A query through ``session``: prepare (plan-cache hit or miss, as
    the workload's cache decides) then execute."""
    cache = session.plan_cache

    def call() -> Any:
        return session.query(source, budget=BUDGET, optimize=optimize)

    def replay(tracer: Tracer) -> Any:
        with tracer.op(key):
            misses = cache.misses
            with tracer.span("query.prepare") as span:
                prepared = session.prepare(source, optimize=optimize)
                span["hit"] = cache.misses == misses
            with tracer.span("query.execute"):
                result = prepared.run(budget=BUDGET, db=session.db)
        if not span["hit"] and isinstance(source, str):
            plan_breakdown(tracer, session.db, source)
        return result

    return Op(key, call, replay)


class Workload:
    """Base: one client, a cycle of query operations, equality oracle."""

    name = ""
    why = ""
    #: Seed-0 result counts per distinct query (the committed goldens).
    golden: dict[str, int] = {}
    #: Operations in the traced pass (fixed, so its counts repeat exactly).
    trace_ops = 60
    clients = 1
    #: Consecutive operations timed as one sample; divides ``cycle()``.
    grain = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.expected: dict[str, Any] = {}
        self.cache = PlanCache()
        self.db: Database = Database()
        self.pool: SessionPool | None = None

    # -- set-up (timed) --------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()

    # -- operations ------------------------------------------------------------

    def distinct(self) -> list[Op]:
        """Every distinct query once, in the order the cold pass runs them."""
        raise NotImplementedError

    def streams(self) -> list[Iterator[Op]]:
        """One endless operation stream per client."""
        return [itertools.cycle(self.distinct())]

    def cycle(self) -> int:
        """Operations in one rotation of a stream.  Timing counts whole
        rotations only, so a run that ends early or late never changes
        the mix of cheap and dear operations it reports on."""
        return len(self.distinct())

    def cold_ops(self) -> list[Op]:
        """What the cold pass runs once each, right after a fresh build."""
        return self.distinct()

    # -- correctness -----------------------------------------------------------

    def oracle(self) -> None:
        """Fill ``self.expected`` from direct algebra calls."""
        raise NotImplementedError

    def verify(self, op: Op, value: Any) -> bool:
        return value == self.expected[op.key]

    def counts(self) -> dict[str, int]:
        return {key: len(value) for key, value in self.expected.items()}

    def final_failures(self) -> int:
        """Checks that need the whole run (reassembly identities, the
        pool's deferred reads); returns how many failed."""
        return 0

    # -- the traced run --------------------------------------------------------

    def cache_counters(self) -> dict[str, int]:
        return self.cache.snapshot()

    def layer_overrides(self) -> dict[str, Callable[[], float]]:
        """Per-layer rows this workload answers from its own data instead
        of the fixed fixtures."""
        return {}


# -- deep_subselect --------------------------------------------------------------


class DeepSubselect(Workload):
    name = "deep_subselect"
    why = (
        "columnar candidate filter and tree matching on one 100k-node tree do all"
        " the work, planning none; cold vs warm isolates lazy column/index build"
    )
    PATTERNS = ("d(e ?*)", "d(?* e(?* h ?*) ?*)", "d(?* e(?*) ?* j ?*)")
    golden = {"d(e ?*)": 25, "d(?* e(?* h ?*) ?*)": 10, "d(?* e(?*) ?* j ?*)": 13}
    trace_ops = 30
    SIZE = 100_000

    def build(self) -> None:
        self.db = fixtures.labelled_db(self.rng, self.SIZE)
        self.session = Session(self.db, plan_cache=self.cache)

    def distinct(self) -> list[Op]:
        return [
            query_op(p, self.session, f'root T | sub_select "{p}"') for p in self.PATTERNS
        ]

    def oracle(self) -> None:
        tree = self.db.root("T")
        anchors = fixtures.anchors(tree)
        for pattern in self.PATTERNS:
            self.expected[pattern] = sub_select(pattern, tree, roots=anchors)


# -- forest_split ----------------------------------------------------------------


class ForestSplit(Workload):
    name = "forest_split"
    why = (
        "CPU-bound Figure-4 split over 300 family trees through the exchange"
        " operators: algebra split/reassembly and physical set operators dominate"
    )
    golden = {"sapply": 300, "pieces": 300}
    trace_ops = 3
    TREES, NODES_PER_TREE = 300, 350

    def build(self) -> None:
        self.db = fixtures.forest_db(self.rng, self.TREES, self.NODES_PER_TREE)
        self.session = Session(self.db, plan_cache=self.cache)

    def distinct(self) -> list[Op]:
        return [query_op("sapply", self.session, layers.forest_query())]

    def oracle(self) -> None:
        self.expected["sapply"] = AquaSet(
            fixtures.split_count(tree) for tree in self.db.iter_extent("Families")
        )

    def counts(self) -> dict[str, int]:
        answers = self.expected["sapply"]
        return {"sapply": len(answers), "pieces": sum(count for _, count in answers)}

    def layer_overrides(self) -> dict[str, Callable[[], float]]:
        return {"physical.exchange_speedup_x": lambda: layers.exchange_speedup(self.session, 2)}

    def final_failures(self) -> int:
        """The paper's identity ``x ∘α (y ∘α1 z1 … ∘αn zn) = T``, on a sample."""
        sample = list(self.db.iter_extent("Families"))[1:30:3]
        return sum(
            piece.reassembled() != tree
            for tree in sample
            for piece in split_pieces(fixtures.FIGURE4_PATTERN, tree, resolver=by_citizen)
        )


# -- small_adhoc -----------------------------------------------------------------


class SmallAdhoc(Workload):
    name = "small_adhoc"
    why = (
        "tiny data, 512 distinct AQL texts against a 128-entry plan cache: parse,"
        " fingerprint, optimizer, lowering and per-query arming weigh the most here"
    )
    golden = {"texts": 512, "results": 1738}
    trace_ops = 4096
    CAPACITY, CYCLE = 128, 1024
    #: Texts per kind (512 in all), and how many of each kind are hot.  A tree query costs
    #: ten times a ``Person`` query, so the mix is fixed and only the texts
    #: themselves, and their order, are drawn from the seed.
    QUOTA = {"person": 232, "tree": 144, "song": 96, "family": 40}
    HOT_PER_KIND = 8
    #: Operations timed as one sample: ~20 ms, so a sample holds its share of
    #: young-generation collections.
    grain = 32

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cache = PlanCache(capacity=self.CAPACITY)

    def build(self) -> None:
        self.db = fixtures.adhoc_db(self.rng)
        self.session = Session(self.db, plan_cache=self.cache)
        self.population: list[tuple[str, tuple]] = []
        taken = dict.fromkeys(self.QUOTA, 0)
        hot: list[int] = []
        for text, spec in data.aql_candidates(self.rng, 8):
            kind = spec[0]
            if taken[kind] == self.QUOTA[kind]:
                continue
            answer = self.direct(spec)
            if len(answer):
                if taken[kind] < self.HOT_PER_KIND:
                    hot.append(len(self.population))
                taken[kind] += 1
                self.population.append((text, spec))
                self.expected[text] = answer
        if taken != self.QUOTA:
            raise RuntimeError(f"seed {self.seed}: too few non-empty texts: {taken}")
        # Half of the operations go to the hot texts, each as often as any
        # other; the other half visits every text once.
        self.schedule = hot * (self.CYCLE // 2 // len(hot)) + list(range(len(self.population)))
        self.rng.shuffle(self.schedule)

    def direct(self, spec: tuple) -> Any:
        """The answer to one population entry by the direct algebra call."""
        kind = spec[0]
        if kind == "person":
            _, age, city, salary = spec
            return AquaSet(
                row.name
                for row in self.db.iter_extent("Person")
                if row.age > age and row.city == city and row.salary > salary
            )
        if kind == "tree":
            return sub_select(spec[1], self.db.root("T"))
        if kind == "song":
            return sub_select_list(spec[1], self.db.root("song"), resolver=by_pitch)
        _, operator, pattern = spec
        family = self.db.root("family")
        if operator == "sub_select":
            return sub_select(pattern, family, resolver=by_citizen)
        derived = all_anc if operator == "all_anc" else all_desc
        return derived(pattern, make_tuple, family, resolver=by_citizen)

    def distinct(self) -> list[Op]:
        return [query_op(text, self.session, text) for text, _ in self.population]

    def streams(self) -> list[Iterator[Op]]:
        ops = self.distinct()
        return [itertools.cycle([ops[i] for i in self.schedule])]

    def cycle(self) -> int:
        return self.CYCLE

    def oracle(self) -> None:
        """Answered while the population was chosen (``build``)."""

    def counts(self) -> dict[str, int]:
        return {
            "texts": len(self.expected),
            "results": sum(len(answer) for answer in self.expected.values()),
        }


# -- list_melody -----------------------------------------------------------------


def reassembles(whole: Any) -> Callable[[Any, Any, Any], bool]:
    """A list-split function checking ``x ∘α (y ∘α1 z1 … ∘αn zn) = L``."""

    def check(x: Any, y: Any, z: Any) -> bool:
        rebuilt = y
        for point, run in zip(y.concat_points(), z.values()):
            rebuilt = rebuilt.concat_at(point, run)
        return x.concat_at(ALPHA, rebuilt) == whole

    return check


class ListMelody(Workload):
    name = "list_melody"
    why = (
        "the list half of the paper: list pattern engines, ListIndex and"
        " ColumnarList on a 200k-note song do all the work; no tree code runs"
    )
    PATTERNS = ("[A??F]", "[A C D F]", "[A [[C|D]]+ F]")
    golden = {
        "[A??F]": 50, "[A C D F]": 50, "[A [[C|D]]+ F]": 50,
        "[A [[C|D]]+ F] unoptimized": 50, "lsplit [A??F]": 5,
    }
    trace_ops = 50
    NOTES, MELODIES, PHRASE, PHRASE_MELODIES = 200_000, 50, 10_000, 5

    def build(self) -> None:
        self.db = fixtures.song_db(
            self.rng, self.NOTES, self.MELODIES, self.PHRASE, self.PHRASE_MELODIES
        )
        self.session = Session(self.db, plan_cache=self.cache)

    def distinct(self) -> list[Op]:
        texts = {p: f'root song | lsub_select "{p}" by pitch' for p in self.PATTERNS}
        ops = [query_op(p, self.session, text) for p, text in texts.items()]
        last = self.PATTERNS[-1]
        ops.append(
            query_op(f"{last} unoptimized", self.session, texts[last], optimize=False)
        )
        lsplit = Q.root("phrase").lsplit("[A??F]", layers.piece_lengths, resolver=by_pitch)
        ops.append(query_op("lsplit [A??F]", self.session, lsplit.build(), optimize=True))
        return ops

    def oracle(self) -> None:
        song, phrase = self.db.root("song"), self.db.root("phrase")
        starts = [i for i, value in enumerate(song.values()) if value.pitch == "A"]
        for pattern in self.PATTERNS:
            self.expected[pattern] = sub_select_list(
                pattern, song, resolver=by_pitch, starts=starts
            )
        last = self.PATTERNS[-1]
        self.expected[f"{last} unoptimized"] = self.expected[last]
        self.expected["lsplit [A??F]"] = split_list(
            "[A??F]", layers.piece_lengths, phrase, resolver=by_pitch
        )

    def final_failures(self) -> int:
        phrase = self.db.root("phrase")
        verdicts = split_list("[A??F]", reassembles(phrase), phrase, resolver=by_pitch)
        return 0 if set(verdicts) == {True} else 1


# -- doc_ingest_query ------------------------------------------------------------


class DocIngestQuery(Workload):
    name = "doc_ingest_query"
    why = (
        "the write/build side of storage and docstore: ingest, node-index build"
        " and first-query column build per document, so work moved into build shows"
    )
    golden = {"html": 6220, "json": 6220, "xml": 6220}
    trace_ops = 12

    def build(self) -> None:
        self.documents = data.documents(self.rng)
        # Each lifecycle's Document owns its plan cache; replays sum them here.
        self.doc_counters = dict.fromkeys(PlanCache().snapshot(), 0)

    def lifecycle(self, slot: int) -> Op:
        fmt, text = self.documents[slot]
        key = f"{fmt}-{slot}"
        parse, serialize = fixtures.codec(fmt)
        paths = data.DOCUMENT_PATHS[fmt]

        def call() -> Any:
            doc = Document(parse(text), fmt)
            return [
                sorted(serialize(member) for member in doc.path(path, budget=BUDGET))
                for path in paths
            ]

        def replay(tracer: Tracer) -> Any:
            answers = []
            with tracer.op(key):
                with tracer.span("docstore.ingest"):
                    tree = parse(text)
                with tracer.span("docstore.document_build"):
                    doc = Document(tree, fmt)
                for path in paths:
                    with tracer.span("docstore.path", path=path):
                        with tracer.span("query.prepare", hit=False):
                            prepared = doc.session.prepare(f'root doc | path "{path}"')
                        with tracer.span("query.execute"):
                            members = prepared.run(budget=BUDGET, db=doc.db)
                    with tracer.span("docstore.serialize"):
                        answers.append(sorted(serialize(member) for member in members))
            for counter, value in doc.session.plan_cache.snapshot().items():
                self.doc_counters[counter] += value
            return answers

        return Op(key, call, replay)

    def distinct(self) -> list[Op]:
        return [self.lifecycle(slot) for slot in range(len(self.documents))]

    def oracle(self) -> None:
        """``naive_path`` over a separate ingest; answers compare as sorted
        serializations, because document payloads compare by identity."""
        naive_path = layers.optional_entry("naive_path")
        for op, (fmt, text) in zip(self.distinct(), self.documents):
            if naive_path is None:
                # The walk has moved: fall back to the engine's own first
                # answer, which still catches run-to-run divergence.
                self.expected[op.key] = op.call()
                continue
            parse, serialize = fixtures.codec(fmt)
            tree = parse(text)
            self.expected[op.key] = [
                sorted(serialize(member) for member in naive_path(tree, path))
                for path in data.DOCUMENT_PATHS[fmt]
            ]

    def counts(self) -> dict[str, int]:
        totals = {"html": 0, "json": 0, "xml": 0}
        for key, answers in self.expected.items():
            totals[key.split("-")[0]] += sum(len(answer) for answer in answers)
        return totals

    def cold_ops(self) -> list[Op]:
        """Every lifecycle is cold; the cold pass times one per format."""
        return self.distinct()[3:6]

    def cache_counters(self) -> dict[str, int]:
        return dict(self.doc_counters)


# -- pool_mixed_rw ---------------------------------------------------------------


class PoolMixedRW(Workload):
    name = "pool_mixed_rw"
    why = (
        "90/10 read/write mix through SessionPool with one client per core:"
        " version bumps, plan-cache invalidation, snapshots and pool queueing show"
    )
    golden = {"reads": 51, "results": 13975}
    trace_ops = 300
    PEOPLE, CITIES, TREE = 20_000, 50, 6_000
    clients = layers.pool_clients()

    def build(self) -> None:
        self.db = fixtures.people_db(self.rng, self.PEOPLE, self.CITIES, self.TREE)
        self.texts = fixtures.city_texts(self.CITIES)
        self.pool = SessionPool(
            self.db, workers=self.clients, plan_cache=self.cache, budget=BUDGET
        )
        self.inserted: list[Record] = []  # in extent order (guarded by insert_lock)
        self.insert_lock = threading.Lock()
        self.deferred: list[tuple[int, int, int, int]] = []  # reads to re-check
        self.last_written: dict[int, Any] = {}

    def distinct(self) -> list[Op]:
        """The 51 reads through a plain Session (the cold pass), shaped
        like the storm's reads: ``(extent watermark, answer)``."""
        session = Session(self.db, plan_cache=self.cache)
        size = self.db.extent_size("Person")
        ops = []
        for slot, text in enumerate(self.texts):
            plain = query_op(f"read-{slot}", session, text)
            ops.append(
                Op(
                    plain.key,
                    lambda call=plain.call: (size, call()),
                    lambda tracer, replay=plain.replay: (size, replay(tracer)),
                )
            )
        return ops

    # Operations of the storm.  A read pins its snapshot itself, so the
    # deferred check knows which inserts the answer may contain.

    def read(self, slot: int) -> Op:
        pool, text, key = self.pool, self.texts[slot], f"read-{slot}"

        def call() -> Any:
            pin = pool.pin()
            return pin.extent_size("Person"), pool.submit(text, snapshot=pin).result()

        def replay(tracer: Tracer) -> Any:
            with tracer.op(key):
                with tracer.span("storage.snapshot"):
                    pin = pool.pin()
                with tracer.span("api.pool_submit"):
                    future = pool.submit(text, snapshot=pin)
                with tracer.span("api.pool_result"):
                    return pin.extent_size("Person"), future.result()

        return Op(key, call, replay)

    def list_write(self, position: int, payload: Any) -> Op:
        pool = self.pool

        def call() -> Any:
            pool.submit_update("L", fixtures.set_at, position, payload).result()
            self.last_written[position] = payload
            return None

        def replay(tracer: Tracer) -> Any:
            with tracer.op("write-L"):
                with tracer.span("api.pool_submit"):
                    future = pool.submit_update("L", fixtures.set_at, position, payload)
                with tracer.span("api.pool_result"):
                    future.result()
            self.last_written[position] = payload
            return None

        return Op("write-L", call, replay)

    def insert(self, row: Record) -> Op:
        def call() -> Any:
            with self.insert_lock:
                self.db.insert(row, "Person")
                self.inserted.append(row)
            return None

        def replay(tracer: Tracer) -> Any:
            with tracer.op("insert-Person"), tracer.span("storage.insert"):
                return call()

        return Op("insert-Person", call, replay)

    def client(self, index: int) -> Iterator[Op]:
        """Client ``index``'s endless stream: 90 % reads, 5 % list writes
        (to positions only this client owns, so the final list is known),
        5 % ``Person`` inserts (which bump the extent's version)."""
        rng = random.Random(f"{self.seed}:client:{index}")
        reads = [self.read(slot) for slot in range(len(self.texts))]
        owned = range(index, 64, self.clients)
        for serial in itertools.count():
            draw = rng.random()
            if draw < 0.90:
                yield reads[rng.randrange(len(reads))]
            elif draw < 0.95:
                yield self.list_write(rng.choice(owned), (index, serial))
            else:
                yield self.insert(
                    Record(
                        name=f"n{index}_{serial}",
                        age=rng.randrange(18, 78),
                        city=f"C{rng.randrange(self.CITIES)}",
                        salary=rng.randrange(0, 9000),
                    )
                )

    def streams(self) -> list[Iterator[Op]]:
        return [self.client(index) for index in range(self.clients)]

    def cycle(self) -> int:
        return 1  # a random mix of like-cost reads: every operation counts

    def oracle(self) -> None:
        rows = list(self.db.iter_extent("Person"))
        for k in range(self.CITIES):
            self.expected[f"read-{k}"] = {
                row.name for row in rows if self.matches(row, f"C{k}")
            }
        tree = self.db.root("T")
        self.expected[f"read-{self.CITIES}"] = sub_select(
            "d(?* e ?*)", tree, roots=fixtures.anchors(tree)
        )

    @staticmethod
    def matches(row: Record, city: str) -> bool:
        return row.age > 30 and row.city == city and row.salary > 1000

    def verify(self, op: Op, value: Any) -> bool | None:
        if value is None:  # a write or an insert: checked in final_failures
            return True
        watermark, answer = value
        slot = int(op.key.split("-")[1])
        if slot == self.CITIES:
            return answer == self.expected[op.key]
        # Defer: keep a digest, re-check against the pin's watermark later.
        self.deferred.append((slot, watermark, len(answer), hash(frozenset(answer))))
        return None

    def counts(self) -> dict[str, int]:
        return {
            "reads": len(self.expected),
            "results": sum(len(answer) for answer in self.expected.values()),
        }

    def final_failures(self) -> int:
        """Serially, after the storm: every read equals its city's base
        answer plus the matching inserts its pin could see; the list holds
        each owner's last write; every insert landed."""
        failures = 0
        for slot, watermark, size, digest in self.deferred:
            visible = self.inserted[: watermark - self.PEOPLE]
            answer = self.expected[f"read-{slot}"] | {
                row.name for row in visible if self.matches(row, f"C{slot}")
            }
            failures += (size, digest) != (len(answer), hash(frozenset(answer)))
        self.deferred.clear()
        values = self.db.root("L").values()
        failures += sum(values[p] != v for p, v in self.last_written.items())
        failures += self.db.extent_size("Person") != self.PEOPLE + len(self.inserted)
        return failures

    def layer_overrides(self) -> dict[str, Callable[[], float]]:
        """The pool rows from this workload's own database and pool."""
        stats = self.pool.stats.snapshot()  # the storm's, before the probe's pools

        @functools.cache
        def measured() -> layers.PoolProbe:
            return layers.measure_pool(self.db, self.texts)

        return {
            "api.write_p50_ms": lambda: layers.write_latency_ms(self.pool),
            "api.pool_overhead_us": lambda: measured().overhead_us,
            "api.pool_scaling_x": lambda: measured().scaling_x,
            **{
                f"serving.{name}": lambda name=name: float(stats[name])
                for name in ("availability", "shed_overload", "retries")
            },
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (DeepSubselect, ForestSplit, SmallAdhoc, ListMelody, DocIngestQuery, PoolMixedRW)
}
