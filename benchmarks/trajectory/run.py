"""The trajectory benchmark: six workloads, one command.

    python3 benchmarks/trajectory/run.py --seed 0            # every workload
    python3 benchmarks/trajectory/run.py --seed 0 --trace    # plus per-layer runs
    python3 benchmarks/trajectory/run.py --check-repeat      # two sets, compared
    python3 benchmarks/trajectory/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in its own fresh subprocess.
With it, this process builds the workload's inputs from ``--seed``,
measures for ``--seconds``, checks every answer against the oracle and
prints one JSON object on the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterator, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import bench  # noqa: E402  (beside this file; knows nothing of the engine)

#: name → (unit, better, bound): the regression bound is the share of the
#: parent's median by which the metric may worsen.  BENCHMARK.json mirrors this.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "cpu_ms_per_op": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: Set up at least four times in a run; keep going (to nine) while the
#: set-ups have taken under four seconds in all.
SETUP_REPETITIONS = (4, 9, 4.0)


def _import_engine() -> None:
    """Put the checkout's ``src`` on the path; exit non-zero when there is
    no engine to measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no engine at {ROOT / 'src' / 'repro'}: nothing to benchmark")
    sys.path.insert(0, str(ROOT / "src"))


def _refuse_knobs() -> None:
    knobs = sorted(name for name in os.environ if name.startswith("AQUA_"))
    if knobs:
        sys.exit(f"error: unset {', '.join(knobs)}: the benchmark runs default knobs only")


# -- one workload, in this process ---------------------------------------------


class Client:
    """One closed-loop client: next operation only after the last returned.

    With ``defer`` the answers are kept and checked by ``settle()`` — the
    cold pass runs before the oracle has been computed.
    """

    def __init__(self, workload: Any, stream: Iterator[Any], defer: bool = False) -> None:
        self.workload = workload
        self.stream = stream
        self.latencies: list[float] = []  # one entry per timed operation
        self.cpus: list[float] = []  # process CPU over the same stretch
        self.failed = 0
        self.first_error: str | None = None
        self.pending: list[tuple[Any, Any]] | None = [] if defer else None

    def step(self, timed: bool = True) -> None:
        op = next(self.stream)
        cpu_start, start = bench.cpu_seconds(), time.perf_counter()
        try:
            value, error = op.call(), None
        except Exception as exc:  # a raising operation is a failed operation
            value, error = None, f"{op.key}: {type(exc).__name__}: {exc}"
        end, cpu_end = time.perf_counter(), bench.cpu_seconds()
        if timed:
            self.latencies.append(end - start)
            self.cpus.append(cpu_end - cpu_start)
        if error is not None:
            self.fail(error)
        elif self.pending is not None:
            self.pending.append((op, value))
        else:
            self.check(op, value)

    def check(self, op: Any, value: Any) -> None:
        if self.workload.verify(op, value) is False:
            self.fail(f"{op.key}: answer differs from the oracle")

    def fail(self, error: str) -> None:
        self.failed += 1
        self.first_error = self.first_error or error

    def settle(self) -> None:
        for op, value in self.pending or ():
            self.check(op, value)
        self.pending = None

    def run_until(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            self.step()


class Sample(NamedTuple):
    """One timed stretch of the measured phase."""

    ops: int
    busy: float  # summed operation latencies, seconds
    wall: float  # one client: ``busy``; several: the stretch's wall time
    cpu: float
    slowdown: float  # ``bench.slowdown()``, mean of just before and just after


def _build(cls: Any, seed: int, single: bool, phases: dict) -> tuple[Any, Client, dict]:
    """Set up several times from scratch (once if ``single``), timing each;
    keep the last set-up and run its cold pass — the first execution of
    each distinct query on the fresh database.  Returns the workload, the
    (checked) cold-pass client and the two timings."""
    least, most, budget = (1, 1, 0.0) if single else SETUP_REPETITIONS
    setups: list[float] = []
    speeds: list[float] = []
    workload = None
    began = time.perf_counter()
    while len(setups) < least or (
        len(setups) < most and time.perf_counter() - began < budget
    ):
        if workload is not None:
            workload.close()
            workload = None
        gc.collect()  # every repetition starts from the same collector state
        before, start = bench.slowdown(), time.perf_counter()
        workload = cls(seed)
        workload.build()
        setups.append(time.perf_counter() - start)
        speeds.append((before + bench.slowdown()) / 2)
    gc.collect()
    cold = Client(workload, iter(workload.cold_ops()), defer=True)
    for _ in workload.cold_ops():
        cold.step()
    phases.update(setup_s=setups, setup_slowdown=speeds, cold_s=cold.latencies)
    start = time.perf_counter()
    workload.oracle()
    phases["oracle_s"] = time.perf_counter() - start
    cold.settle()
    measured = {
        "setup_s": statistics.median(s / speed for s, speed in zip(setups, speeds)),
        "mean_setup_s": statistics.fmean(setups),
        "cold_first_ms": 1e3 * statistics.fmean(cold.latencies),
    }
    return workload, cold, measured


def _golden_mismatches(workload: Any, seed: int) -> dict:
    """Seed 0's committed result counts; other seeds only need answers."""
    counts = workload.counts()
    empty = {key: n for key, n in counts.items() if n == 0}
    if seed != 0:
        return empty
    return {
        key: {"expected": workload.golden.get(key), "got": n}
        for key, n in counts.items()
        if workload.golden.get(key) != n
    } or empty


def _warm_clients(workload: Any) -> list[Client]:
    clients = [Client(workload, stream) for stream in workload.streams()]
    for client in clients:
        for _ in range(min(32, len(workload.distinct()))):
            client.step(timed=False)
    return clients


def _storm(workload: Any, seconds: float) -> tuple[list[Client], list[list[Sample]]]:
    """The measured phase.  Returns the clients and, per *position*, the
    samples timed there.

    One client walks whole rotations of its operation cycle; a position is
    a stretch of ``workload.grain`` operations at a fixed place in the
    cycle, so all the samples of one position timed the same work.
    Several clients draw at random and have one position: each sample is
    half a second of all of them."""
    clients = _warm_clients(workload)
    positions = 1 if len(clients) > 1 else workload.cycle() // workload.grain
    samples: list[list[Sample]] = [[] for _ in range(positions)]
    gc.collect()
    deadline = time.perf_counter() + seconds
    after = bench.slowdown()
    while time.perf_counter() < deadline:
        for position in samples:
            before = after
            done = [len(client.latencies) for client in clients]
            cpu_start, start = bench.cpu_seconds(), time.perf_counter()
            if len(clients) == 1:
                for _ in range(workload.grain):
                    clients[0].step()
            else:
                stop = min(deadline, start + 0.5)
                threads = [
                    threading.Thread(target=client.run_until, args=(stop,)) for client in clients
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            wall, cpu = time.perf_counter() - start, bench.cpu_seconds() - cpu_start
            after = bench.slowdown()
            fresh = [client.latencies[n:] for client, n in zip(clients, done)]
            busy = sum(map(sum, fresh))
            if len(clients) == 1:
                # One client: its operations only, not the checks between them.
                wall, cpu = busy, sum(clients[0].cpus[done[0] :])
            position.append(Sample(sum(map(len, fresh)), busy, wall, cpu, (before + after) / 2))
    return clients, samples


def _summarise(samples: list[list[Sample]], failed: int, on_quiet_box: bool) -> dict[str, float]:
    """The three warm metrics: per position, the median of the samples'
    per-operation times, each divided by its slowdown (``on_quiet_box``)
    — or their plain mean, as the clock read them.  Every position holds
    as many operations as the next, so the positions' per-operation times
    average to that of the whole cycle."""

    def per_op(field: str) -> list[float]:
        if not on_quiet_box:
            return [statistics.fmean(getattr(s, field) / s.ops for s in p) for p in samples]
        return [
            statistics.median(getattr(s, field) / s.ops / s.slowdown for s in p) for p in samples
        ]

    attempted = sum(s.ops for position in samples for s in position)
    return {
        "op_p50_ms": 1e3 * statistics.median(per_op("busy")),
        "ops_per_s": (1 - failed / attempted) / statistics.fmean(per_op("wall")),
        "cpu_ms_per_op": 1e3 * statistics.fmean(per_op("cpu")),
    }


def run_end_to_end(cls: Any, seed: int, seconds: float, quick: bool) -> dict:
    phases: dict[str, Any] = {}
    workload, cold, measured = _build(cls, seed, quick, phases)
    try:
        clients, samples = _storm(workload, seconds)
        clients.append(cold)
        failed = sum(client.failed for client in clients) + workload.final_failures()
    finally:
        workload.close()
    golden = _golden_mismatches(workload, seed)
    metrics = {
        "setup_s": measured["setup_s"],
        **_summarise(samples, failed, on_quiet_box=True),
        "peak_rss_mb": bench.peak_rss_mb(),
    }
    phases["measure_s"] = sum(s.wall for position in samples for s in position)
    return {
        "correct": failed == 0 and not golden,
        "attempted": sum(s.ops for position in samples for s in position),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, (unit, _, _) in END_TO_END.items()
        },
        "detail": {
            "first_error": next((c.first_error for c in clients if c.first_error), None),
            "golden_mismatches": golden,
            "result_counts": workload.counts(),
            "positions": len(samples),
            "samples_per_position": min(map(len, samples)),
            "slowdown": statistics.median(s.slowdown for p in samples for s in p),
            "mean": {
                "setup_s": measured["mean_setup_s"],
                **_summarise(samples, failed, on_quiet_box=False),
            },
            "cold_first_ms": measured["cold_first_ms"],
            "phases": phases,
        },
    }


def run_traced(cls: Any, seed: int, quick: bool) -> dict:
    """The separate, shorter traced run: a fixed number of operations made
    once as one calls and once as staged replays, then the layer probes."""
    import layers
    from fixtures import Fixtures

    phases: dict[str, Any] = {}
    workload, cold, measured = _build(cls, seed, True, phases)
    tracer = bench.Tracer(workload.name)
    try:
        count = min(10, workload.trace_ops) if quick else workload.trace_ops
        warm = _warm_clients(workload)[0]
        ops = list(itertools.islice(warm.stream, count))
        plain = Client(workload, iter(ops))
        for _ in ops:
            plain.step()
        one_call = plain.latencies
        counters = workload.cache_counters()
        start = time.perf_counter()
        for op in ops:
            try:
                value = op.replay(tracer)
            except Exception as exc:  # a raising operation is a failed operation
                warm.fail(f"{op.key}: {type(exc).__name__}: {exc}")
            else:
                warm.check(op, value)
        phases["replay_s"] = time.perf_counter() - start
        moved = {
            key: value - counters[key] for key, value in workload.cache_counters().items()
        }
        clients = (cold, warm, plain)
        failed = sum(client.failed for client in clients) + workload.final_failures()
        start = time.perf_counter()
        probes = layers.run_probes(Fixtures(seed), workload.layer_overrides())
        phases["probes_s"] = time.perf_counter() - start
    finally:
        workload.close()
    tracer.write(str(OUT / f"trace-{workload.name}.jsonl"))

    op_spans = tracer.durations("op")
    stages = [
        s for s in tracer.spans
        if s["parent"] is not None and tracer.spans[s["parent"]]["name"] == "op"
    ]
    self_times = tracer.self_times()
    op_total = sum(op_spans)
    executing = self_times.get("query.execute", 0.0) + self_times.get("api.pool_result", 0.0)
    building = self_times.get("docstore.ingest", 0.0) + self_times.get(
        "docstore.document_build", 0.0
    )
    planning = self_times.get("query.prepare", 0.0) + self_times.get("op", 0.0)
    executes = tracer.durations("query.execute") or tracer.durations("api.pool_result")
    lookups = moved["hits"] + moved["misses"]
    scoped = {
        "query.plan_cache_hit_rate": moved["hits"] / max(1, lookups),
        "query.plan_cache_evictions": moved["evictions"],
        "query.plan_cache_invalidations": moved["invalidations"],
        "query.execute_ms": 1e3 * bench.median(executes),
        "query.cold_first_ms": measured["cold_first_ms"],
        "storage.first_query_build_ms": measured["cold_first_ms"] - 1e3 * bench.median(one_call),
        "api.op_p95_ms": 1e3 * bench.percentile(one_call, 95),
        "api.op_p99_ms": 1e3 * bench.percentile(one_call, 99),
        "bench.execute_share": executing / op_total,
        "bench.planning_share": planning / op_total,
        "bench.build_share": building / op_total,
        "bench.stage_sum_ratio": sum(s["end"] - s["start"] for s in stages) / sum(one_call),
        "bench.trace_overhead_frac": bench.median(op_spans) / bench.median(one_call) - 1.0,
    }
    metrics = dict(probes)
    for name, value in scoped.items():
        metrics[name] = {"value": value, "unit": layers.LAYERS[name].unit}
    golden = _golden_mismatches(workload, seed)
    return {
        "correct": failed == 0 and not golden,
        "attempted": 2 * len(ops),
        "failed": failed,
        "metrics": {name: metrics[name] for name in layers.LAYERS},
        "detail": {
            "first_error": next((c.first_error for c in clients if c.first_error), None),
            "golden_mismatches": golden,
            "tail_samples": len(one_call),
            "supported_tail": bench.supported_tail(len(one_call)),
            "layer_self_seconds": self_times,
            "plan_cache": moved,
            "phases": phases,
        },
    }


def provenance(args: argparse.Namespace) -> dict:
    import layers

    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    resolve_backend = layers.optional_entry("resolve_backend")
    try:
        commit: str | None = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columnar_backend": resolve_backend() if resolve_backend else None,
        "budget_guard": layers.budget() is not None,
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
    }


def run_one(args: argparse.Namespace) -> int:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    if args.trace:
        result = run_traced(cls, args.seed, args.quick)
    else:
        result = run_end_to_end(cls, args.seed, args.seconds, args.quick)
    detail = result.pop("detail")
    detail["wall_s"] = time.perf_counter() - start
    detail["provenance"] = provenance(args)
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"result-{args.workload}{suffix}.json", "w") as handle:
        json.dump({**result, "workload": args.workload, "detail": detail}, handle, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={int(args.trace)} quick={args.quick}")
    for name, metric in result["metrics"].items():
        value = "null" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name:36} {value:>14} {metric['unit']}  {metric.get('reason', '')}".rstrip())
    print(f"ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    for key in ("first_error", "golden_mismatches"):
        if detail[key]:
            print(f"{key}: {detail[key]}")
    if args.quick:
        result["quick"] = True  # smoke only: not a baseline
    print(json.dumps(result))
    return 0


# -- every workload, one subprocess each ---------------------------------------


def _spawn(name: str, args: argparse.Namespace, trace: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.exit(f"error: {name} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def run_set(args: argparse.Namespace, names: list[str]) -> dict[str, dict]:
    results = {}
    for name in names:
        results[name] = _spawn(name, args, 0)
        if args.trace:
            results[name]["per_layer"] = _spawn(name, args, 1)["metrics"]
    return results


def check_repeat(args: argparse.Namespace, names: list[str]) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    first, second = run_set(args, names), run_set(args, names)
    worst = 0
    print(f"\n{'workload':18} {'metric':14} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    for name in names:
        for metric, (_, better, bound) in END_TO_END.items():
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = "  EXCEEDS" if abs(worse) > bound else ""
            worst += bool(flag)
            print(f"{name:18} {metric:14} {a:12.5g} {b:12.5g} {worse:+9.3f} {bound:6.2f}{flag}")
    print(f"{worst} metric(s) outside their bound")
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured phase length")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="smoke run; not a baseline")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    _refuse_knobs()
    if args.quick:
        if args.check_repeat:
            parser.error("--check-repeat compares baselines; --quick runs are not baselines")
        args.seconds = min(args.seconds, 0.5)
    _import_engine()
    import workloads

    names = list(workloads.WORKLOADS)
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        if not args.check_repeat:
            return run_one(args)
        names = [args.workload]
    if args.check_repeat:
        return check_repeat(args, names)
    results = run_set(args, names)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "trajectory.json", "w") as handle:
        json.dump({"quick": args.quick, "seed": args.seed, "workloads": results}, handle, indent=1)
    failed = sum(r["failed"] for r in results.values())
    print(f"\n{len(results)} workloads, {failed} failed operations; written to {OUT / 'trajectory.json'}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
