"""One cold benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass, so no pass can reuse an
earlier pass's imports, dataset cache, distance caches or sketch
caches: every pass pays what a user's invocation pays.  A pass sets up,
runs its timed phase, checks the outputs and writes one JSON document.

    python3 perfbench/onepass.py --workload reproduce --seed 7 \
        --mode measure --tmp .bench_tmp/p0 --out .bench_tmp/p0.json

Modes: ``measure`` (untraced), ``trace`` (per-layer spans) and
``reference`` (the serial engine's digest, for the ``simulate_2w``
output check).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.config import SimulationConfig  # noqa: E402
from tracer import ROOT, TRACER, wrap_function  # noqa: E402

#: Simulation scale of each workload.
SCALES = {"reproduce": 2e-5, "simulate_2w": 1e-4, "query_mix": 2e-5}
#: Substrate builds per pass; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Queries per timed window of ``query_mix`` (one ``wall_s`` sample).
WINDOW_QUERIES = 1000
#: Distinct queries the ``query_mix`` client draws from: sixteen times
#: the service's 256-entry cache, so most requests reach the store.
CATALOG_SIZE = 4096
#: Answers compared against the in-memory database after the loop.
CHECKED_QUERIES = 64
FILTER_COLUMNS = ("day", "sensor_id", "rule_label", "client_ip")
GROUP_COLUMNS = ("day", "sensor_id", "rule_label", "client_ip", "protocol")


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Checks:
    """Named output checks; every failure counts toward ``error_rate``."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))


def cold_caches(checks: Checks) -> None:
    """No earlier work may be reused: the caches start empty."""
    from repro.analysis import distance, sketch
    from repro.experiments import dataset

    sizes = {
        "dataset": len(dataset._CACHE),
        "tokens": len(distance._token_cache),
        "pairs": distance._cached_pair_distance.cache_info().currsize,
        "shingles": len(sketch._shingle_cache),
    }
    checks.check("cold caches", not any(sizes.values()), json.dumps(sizes))


def store_checks(checks: Checks, store_dir: Path, database) -> None:
    from repro.store import SqliteStore, index_path_for

    with SqliteStore.open(index_path_for(store_dir), read_only=True) as store:
        rows = store.count()
        meta = store.meta()
    checks.check(
        "index rows equal database",
        rows == meta.record_count == len(database),
        f"index={rows} meta={meta.record_count} database={len(database)}",
    )


def setup_time(build_substrate) -> float:
    """Import time so far plus the median of ``SETUP_REPEATS`` builds."""
    imported = time.perf_counter() - STARTED
    builds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        build_substrate()
        builds.append(time.perf_counter() - started)
    return imported + statistics.median(builds)


# -- workloads --------------------------------------------------------------


def reproduce(args, out: dict, checks: Checks, traced: bool) -> None:
    from repro.attackers import orchestrator
    from repro.experiments import dataset as dataset_module
    from repro.experiments.base import ExperimentResult
    from repro.experiments.dataset import build_dataset
    from repro.experiments.runner import load_all_experiments, run_all
    from repro.faults.coverage import CoverageError, validate_coverage

    config = SimulationConfig(seed=args.seed, scale=SCALES["reproduce"])
    ids = load_all_experiments()
    out["setup_s"] = setup_time(lambda: orchestrator.build_substrate(config))
    cold_caches(checks)

    if not traced:
        # Two spans, one call each: enough to split simulate from export.
        wrap_function(dataset_module, "run_simulation", "simulate")
        wrap_function(orchestrator, "_export_store", "export")
    store_dir = Path(args.tmp) / "store"
    with timed_phase(args, out, traced):
        dataset = build_dataset(config, use_cache=False, store_dir=store_dir)
        results = run_all(dataset)

    simulation = dataset.simulation
    out["sessions"] = len(dataset.database)
    out["simulate_s"] = TRACER.total_s("simulate") - TRACER.total_s("export")
    out["digest"] = dataset.database.digest()
    out["stored_ratio"] = stored_ratio(simulation.collector)
    out["export_rows"] = len(dataset.database)
    checks.check(
        "accounting balanced", simulation.collector.accounting_balanced()
    )
    try:
        validate_coverage(
            dataset.coverage, accounting=simulation.collector.accounting()
        )
        checks.check("coverage valid", True)
    except CoverageError as error:
        checks.check("coverage valid", False, str(error))
    returned = [
        key
        for key in ids
        if isinstance(results.get(key), ExperimentResult)
    ]
    checks.check(
        "all experiments returned",
        len(ids) == 29 and len(returned) == len(ids),
        f"{len(returned)} of {len(ids)}",
    )
    store_checks(checks, store_dir, dataset.database)


def simulate_2w(args, out: dict, checks: Checks, traced: bool) -> None:
    from repro import telemetry
    from repro.attackers.orchestrator import build_substrate, run_simulation

    config = SimulationConfig(seed=args.seed, scale=SCALES["simulate_2w"])
    workers = 1 if args.mode == "reference" else 2
    import repro.parallel.engine  # noqa: F401  (its import is set-up)

    out["setup_s"] = setup_time(lambda: build_substrate(config))
    cold_caches(checks)

    registry = telemetry.enable() if traced else None
    with timed_phase(args, out, traced):
        result = run_simulation(config, workers=workers)
    if registry is not None:
        telemetry.disable()
        shards = registry.spans.get("sim.run")
        if shards is not None and shards.count:
            out["shard_skew"] = shards.max_s / (shards.total_s / shards.count)
    out["sessions"] = len(result.database)
    out["simulate_s"] = out["units"][0]
    out["digest"] = result.database.digest()
    out["stored_ratio"] = stored_ratio(result.collector)
    out["worker_peak_rss_mb"] = rss_mb(resource.RUSAGE_CHILDREN)
    checks.check("accounting balanced", result.collector.accounting_balanced())


def query_catalog(seed: int, values: dict[str, list[str]]) -> list[tuple]:
    """``CATALOG_SIZE`` distinct (kind, params) queries drawn from ``seed``.

    Kinds, filter-column patterns and grouping columns take turns, and
    within each shape every column's values come round in a seeded
    order, so every seed's catalog has the same mix of query shapes and
    each value lands in each shape about equally often.  Without that
    balance, a seed that puts the busiest rule label into the costliest
    shapes reads slower, and the spread across seeds hides regressions.
    """
    from repro.service.cache import query_fingerprint

    patterns = [
        combination
        for size in (1, 2)
        for combination in itertools.combinations(FILTER_COLUMNS, size)
    ]
    kinds = ("count", "count_by", "distinct")
    rng = random.Random(seed)
    rounds = {
        (kind, pattern, column): itertools.cycle(
            rng.sample(values[column], len(values[column]))
        )
        for kind in kinds
        for pattern in patterns
        for column in pattern
    }
    groupings = itertools.count()
    catalog: dict[str, tuple] = {}
    for turn in itertools.count():
        if len(catalog) == CATALOG_SIZE:
            return list(catalog.values())
        kind = kinds[turn % len(kinds)]
        columns = patterns[(turn // len(kinds)) % len(patterns)]
        params = {column: next(rounds[kind, columns, column]) for column in columns}
        if kind != "count":
            options = [c for c in GROUP_COLUMNS if c not in columns]
            params["by"] = options[next(groupings) % len(options)]
        catalog.setdefault(query_fingerprint(kind, params), (kind, params))


def expected_answer(rows, kind: str, params: dict):
    """The same query answered from the in-memory database's rows."""
    params = dict(params)
    by = params.pop("by", None)
    matched = [
        row
        for row in rows
        if all(getattr(row, column) == value for column, value in params.items())
    ]
    if kind == "count":
        return {"count": len(matched)}
    if kind == "count_by":
        return dict(sorted(Counter(getattr(row, by) for row in matched).items()))
    return sorted({getattr(row, by) for row in matched})


def query_mix(args, out: dict, checks: Checks, traced: bool) -> None:
    from repro.attackers.orchestrator import _export_store, run_simulation
    from repro.service.core import OUTCOMES, QueryService, Request
    from repro.store import SqliteStore, index_path_for, index_rows

    config = SimulationConfig(seed=args.seed, scale=SCALES["query_mix"])
    store_dir = Path(args.tmp) / "store"
    simulate_started = time.perf_counter()
    result = run_simulation(config)
    simulate_s = time.perf_counter() - simulate_started
    _export_store(result, store_dir)
    store = SqliteStore.open(index_path_for(store_dir), read_only=True)
    service = QueryService(store=store, seed=args.seed)
    values = {column: store.distinct(column) for column in FILTER_COLUMNS}
    catalog = query_catalog(args.seed, values)
    out["setup_s"] = time.perf_counter() - STARTED
    cold_caches(checks)

    draws = random.Random(args.seed * 1_000_003 + 1)
    checked = set(
        random.Random(args.seed + 17).sample(range(CATALOG_SIZE), CHECKED_QUERIES)
    )
    answers: dict[int, object] = {}
    outcomes: Counter = Counter()
    latencies: list[float] = []
    windows: list[float] = []

    async def closed_loop() -> None:
        # One client: the next request leaves only after the reply.
        deadline = time.perf_counter() + args.seconds
        sent = 0
        window_started = time.perf_counter()
        while (
            sent < args.queries
            if args.queries
            else sent % WINDOW_QUERIES or time.perf_counter() < deadline
        ):
            index = draws.randrange(CATALOG_SIZE)
            kind, params = catalog[index]
            request = Request(client_id="bench", kind=kind, params=params)
            started = time.perf_counter()
            response = await service.handle(request)
            finished = time.perf_counter()
            latencies.append(finished - started)
            outcomes[response.outcome] += 1
            if index in checked and response.outcome == "ok":
                answers.setdefault(index, response.payload)
            sent += 1
            if sent % WINDOW_QUERIES == 0:
                windows.append(finished - window_started)
                window_started = finished

    with timed_phase(args, out, traced, record_unit=False):
        asyncio.run(closed_loop())
    out["units"] = windows
    out["latencies_s"] = latencies
    out["sessions"] = len(result.database)
    out["simulate_s"] = simulate_s
    out["digest"] = result.database.digest()
    out["cache_hit_ratio"] = service.cache.hit_ratio
    out["cache_misses"] = service.cache.misses
    out["attempts"] = len(latencies)
    out["non_ok"] = len(latencies) - outcomes["ok"]
    store.close()

    checks.check(
        "every response is ok, rejected or stale",
        set(outcomes) <= set(OUTCOMES),
        json.dumps(outcomes),
    )
    rows = index_rows(result.database.sessions, "memory")
    mismatched = [
        index
        for index, payload in answers.items()
        if payload != expected_answer(rows, *catalog[index])
    ]
    checks.check(
        "sampled answers equal the in-memory database",
        answers and not mismatched,
        f"{len(answers)} compared, mismatched {mismatched[:5]}",
    )


def stored_ratio(collector) -> float:
    accounting = collector.accounting()
    return len(collector.sessions) / max(accounting["generated"], 1)


class timed_phase:
    """Times the workload's timed phase; traced passes record a root span."""

    def __init__(self, args, out: dict, traced: bool, record_unit: bool = True):
        self.args, self.out, self.traced = args, out, traced
        self.record_unit = record_unit

    def __enter__(self):
        if self.traced:
            from layers import install

            install(Path(self.args.tmp))
            self.root = TRACER.begin(ROOT)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = time.perf_counter() - self.started
        self.out["phase_s"] = elapsed
        if self.record_unit:
            self.out["units"] = [elapsed]
        if self.traced:
            TRACER.finish(self.root)
            TRACER.dump(Path(self.args.tmp), "pass")
        return False


WORKLOADS = {
    "reproduce": reproduce,
    "simulate_2w": simulate_2w,
    "query_mix": query_mix,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--mode", choices=("measure", "trace", "reference"), default="measure"
    )
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument(
        "--queries", type=int, default=0,
        help="query_mix: a fixed query count instead of --seconds",
    )
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    checks = Checks()
    WORKLOADS[args.workload](args, out, checks, args.mode == "trace")
    out["peak_rss_mb"] = rss_mb(resource.RUSAGE_SELF)
    out["checks"] = checks.results
    Path(args.out).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
