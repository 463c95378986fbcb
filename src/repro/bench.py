"""``repro bench``: the timed scenarios and their regression floors.

A full run times serial vs ``workers`` processes on the simulation
day-loop, telemetry on vs off, the burst flood preset, the LSH sketch
prefilter and the store-backed query service, and checks digest
equality along the way.  ``sketch_only`` runs the sketch scenario alone
(no simulation).  Either way the report ends in one ``enforcement``
block built from :data:`FLOORS`, the table that declares every floor
once.
"""

from __future__ import annotations

import operator
import os
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.config import SimulationConfig
from repro.faults.plan import FloodFaults


@dataclass(frozen=True)
class Floor:
    """One regression floor: ``metric`` (a dotted path inside the
    report's ``block``) holds when ``holds(value, bound)``.  It applies
    only when the metric is in the report, and a ``multi_core`` floor
    only on a machine with ≥ 2 cores, where parallel execution can win.
    ``key`` names the bound in the ``enforcement`` block (None: not
    recorded); ``message`` formats ``value``, ``bound``, ``block`` and
    ``report`` into a violation."""

    block: str
    metric: str
    holds: Callable[[float, float], bool]
    bound: float
    key: str | None
    message: str
    multi_core: bool = False


#: The floors ``repro bench --enforce`` fails on.  The sketch floors
#: apply at any core count (pruning wins are single-process); the
#: service floors need the read-through cache to serve repeated-query
#: load and every request to resolve inside the ok/rejected/stale
#: contract, breaker-open included.
FLOORS = (
    Floor(
        "day_loop", "speedup", operator.ge, 1.8, "speedup_floor",
        "day-loop speedup {value:.2f}x at {report[workers]} workers is "
        "below the {bound:.2f}x floor",
        multi_core=True,
    ),
    Floor(
        "telemetry", "overhead_pct", operator.le, 5.0, "telemetry_bar_pct",
        "telemetry overhead {value:.2f}% exceeds the {bound:.2f}% bar",
    ),
    Floor(
        "sketch", "speedup", operator.ge, 5.0, "sketch_speedup_floor",
        "sketch speedup {value:.2f}x at {block[distinct_sequences]} "
        "distinct sequences is below the {bound:.2f}x floor",
    ),
    Floor(
        "sketch", "candidate_ratio", operator.lt, 0.25, "sketch_ratio_bar",
        "sketch candidate ratio {value:.4f} is not below the "
        "{bound:.2f} bar",
    ),
    Floor(
        "sketch", "close_pair_recall", operator.ge, 0.95,
        "sketch_recall_floor",
        "sketch close-pair recall {value:.4f} is below the "
        "{bound:.2f} floor",
    ),
    Floor(
        "service", "repeated.cache_hit_ratio", operator.ge, 0.9,
        "service_cache_floor",
        "service cache hit ratio {value:.4f} on repeated-query load is "
        "below the {bound:.2f} floor",
    ),
    *(
        Floor(
            "service", f"{scenario}.unserved", operator.le, 0, None,
            f"service scenario {scenario!r} left {{value}} requests "
            "unserved (outside the ok/rejected/stale contract)",
        )
        for scenario in ("repeated", "breaker_open")
    ),
)


def _multi_core(report: dict) -> bool:
    return (report.get("cpu_count") or 1) >= 2


def _metric(report: dict, floor: Floor):
    value = report.get(floor.block)
    for part in floor.metric.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


def check_bench_floors(report: dict) -> list[str]:
    """Regression-floor violations in a bench report (empty = healthy)."""
    violations = []
    for floor in FLOORS:
        value = _metric(report, floor)
        if value is None or (floor.multi_core and not _multi_core(report)):
            continue
        if not floor.holds(value, floor.bound):
            block = report[floor.block]
            violations.append(
                floor.message.format(
                    value=value, bound=floor.bound, block=block, report=report
                )
            )
    return violations


def enforcement(report: dict, blocks, enforced: bool) -> dict:
    """The report's ``enforcement`` block: the bounds of the floors on
    ``blocks`` and the violations :func:`check_bench_floors` finds."""
    block: dict = {"enforced": enforced}
    for floor in FLOORS:
        if floor.block not in blocks or floor.key is None:
            continue
        block[floor.key] = floor.bound
        if floor.multi_core:
            block[f"{floor.key}_applies"] = _multi_core(report)
    block["violations"] = check_bench_floors(report)
    return block


def _best_of(fn, repeat):
    elapsed = []
    value = None
    for _ in range(repeat):
        started = time.perf_counter()
        value = fn()
        elapsed.append(time.perf_counter() - started)
    return value, min(elapsed)


def sketch_block(sample: int, repeat: int, seed: int) -> dict:
    """The sketch-prefilter scenario.

    Builds the LSH-pruned matrix over ``sample`` distinct synthetic
    sequences (the floor-forced pruned regime — at this size the full
    exact build would dominate the bench, which is the point), then
    *extrapolates* the exact build time from a seeded sample of pairs
    timed through the same ``pair_distance``.  Recall is measured on the
    sampled pairs: of those whose exact distance is ≤ the close
    threshold, how many did the prefilter keep.
    """
    import random

    from repro.analysis.distance import clear_distance_caches, pair_distance
    from repro.analysis.sketch import (
        SketchConfig,
        clear_sketch_caches,
        sketch_distance_matrix,
        synthetic_token_corpus,
    )

    n = sample
    close_threshold = 0.3
    pair_sample_target = 30_000
    corpus = synthetic_token_corpus(n, seed=seed)
    keys = [tuple(sequence) for sequence in corpus]
    sketch_config = SketchConfig(min_sequences=0)

    def build():
        clear_distance_caches()
        clear_sketch_caches()
        return sketch_distance_matrix(corpus, sketch_config)

    approx, sketch_s = _best_of(build, repeat)
    total_pairs = n * (n - 1) // 2

    rng = random.Random(seed)
    pairs = sorted(
        {
            (min(i, j), max(i, j))
            for i, j in (
                (rng.randrange(n), rng.randrange(n))
                for _ in range(pair_sample_target)
            )
            if i != j
        }
    )
    clear_distance_caches()
    started = time.perf_counter()
    exact_values = [pair_distance(keys[i], keys[j]) for i, j in pairs]
    sample_s = time.perf_counter() - started
    exact_estimated_s = sample_s / len(pairs) * total_pairs

    close = [
        (i, j)
        for (i, j), value in zip(pairs, exact_values)
        if value <= close_threshold
    ]
    kept = sum(1 for i, j in close if not approx.pruned[i, j])
    recall = kept / len(close) if close else 1.0

    return {
        "distinct_sequences": n,
        "pairs": total_pairs,
        "num_perm": sketch_config.num_perm,
        "bands": sketch_config.bands,
        "shingle_size": sketch_config.shingle_size,
        "candidate_pairs": approx.candidate_pairs,
        "pruned_pairs": approx.pruned_pairs,
        "candidate_ratio": round(approx.candidate_ratio, 4),
        "sketch_s": round(sketch_s, 4),
        "sampled_pairs": len(pairs),
        "exact_estimated_s": round(exact_estimated_s, 4),
        "speedup": round(exact_estimated_s / sketch_s, 3),
        "close_threshold": close_threshold,
        "close_pairs_sampled": len(close),
        "close_pair_recall": round(recall, 4),
    }


def service_block(serial_result, seed: int) -> dict:
    """The query-service scenario.

    Exports the serial run to a temporary indexed store and drives two
    seeded load scenarios against a store-backed service: repeated-query
    load (throughput + cache hit ratio — the read-through LRU's floor)
    and the breaker-open profile (stale-serve rate while the service↔
    store breaker degrades to the last-good snapshot).  Both scenarios
    record ``unserved``, which must be 0: every request resolves inside
    the ok/rejected/stale contract.
    """
    import tempfile
    from pathlib import Path

    from repro.attackers.orchestrator import _export_store
    from repro.faults.service import ServiceFaults
    from repro.service import QueryService, ServiceLoadModel, run_load_test
    from repro.store import SqliteStore, index_path_for

    def scenario(index, profile, **model_kwargs):
        store = SqliteStore.open(index, read_only=True)
        try:
            service = QueryService(store=store, seed=seed)
            faults = ServiceFaults.from_name(profile)
            model = ServiceLoadModel(seed=seed, faults=faults, **model_kwargs)
            report, wall_s = _best_of(lambda: run_load_test(service, model), 1)
            return report, wall_s, service
        finally:
            store.close()

    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        _export_store(serial_result, Path(tmp))
        index = index_path_for(Path(tmp))
        repeated, repeated_s, _ = scenario(
            index, "off", ticks=20, requests_per_tick=32
        )
        breaker, breaker_s, service = scenario(
            index, "breaker", ticks=20, requests_per_tick=8
        )
    return {
        "snapshot_sessions": len(serial_result.database),
        "repeated": {
            "requests": repeated.total,
            "wall_s": round(repeated_s, 4),
            "requests_per_s": round(repeated.total / repeated_s, 1),
            "cache_hit_ratio": round(repeated.cache_hit_ratio, 4),
            "ok": repeated.ok,
            "rejected": sum(repeated.rejected.values()),
            "unserved": repeated.unserved,
        },
        "breaker_open": {
            "requests": breaker.total,
            "wall_s": round(breaker_s, 4),
            "stale_served": breaker.stale,
            "stale_rate": round(breaker.stale_rate, 4),
            "breaker_trips": service.breaker.trips,
            "unserved": breaker.unserved,
        },
    }


def _engine_blocks(config, workers: int, repeat: int):
    """The day-loop, telemetry and flood blocks, plus the serial run
    the service scenario serves from."""
    from repro import telemetry
    from repro.attackers.orchestrator import run_simulation

    # Serial runs are interleaved telemetry-off / telemetry-on so the
    # overhead comparison is robust against machine drift between
    # timing blocks.
    def run_instrumented():
        with telemetry.collecting():
            return run_simulation(config)

    serial_day_s = telemetry_day_s = float("inf")
    for _ in range(repeat):
        serial_result, elapsed = _best_of(lambda: run_simulation(config), 1)
        serial_day_s = min(serial_day_s, elapsed)
        telemetry_result, elapsed = _best_of(run_instrumented, 1)
        telemetry_day_s = min(telemetry_day_s, elapsed)
    digest = serial_result.database.digest()

    parallel_result, parallel_day_s = _best_of(
        lambda: run_simulation(config, workers=workers), repeat
    )

    # The same window under the burst flood preset: serial vs parallel
    # (shed-path cost relative to the quiet runs above).
    flood_config = config.replace(
        faults=replace(config.faults, flood=FloodFaults.from_name("burst"))
    )
    flood_serial, flood_serial_s = _best_of(
        lambda: run_simulation(flood_config), repeat
    )
    flood_parallel, flood_parallel_s = _best_of(
        lambda: run_simulation(flood_config, workers=workers), repeat
    )
    accounting = flood_serial.collector.accounting()
    generated = accounting["generated"]

    blocks = {
        "sessions": len(serial_result.database),
        "day_loop": {
            "serial_s": round(serial_day_s, 4),
            "parallel_s": round(parallel_day_s, 4),
            "speedup": round(serial_day_s / parallel_day_s, 3),
            "digest_match": digest == parallel_result.database.digest(),
        },
        "telemetry": {
            "off_s": round(serial_day_s, 4),
            "on_s": round(telemetry_day_s, 4),
            "overhead_pct": round(
                (telemetry_day_s / serial_day_s - 1.0) * 100, 2
            ),
            "digest_match": digest == telemetry_result.database.digest(),
        },
        "flood": {
            "profile": "burst",
            "serial_s": round(flood_serial_s, 4),
            "parallel_s": round(flood_parallel_s, 4),
            "generated": generated,
            "admitted": accounting["admitted"],
            "deferred": accounting["deferred"],
            "shed": accounting["shed"],
            "shed_fraction": round(accounting["shed"] / max(generated, 1), 4),
            "shed_path_overhead_pct": round(
                (flood_serial_s / serial_day_s - 1.0) * 100, 2
            ),
            "digest_match": (
                flood_serial.database.digest()
                == flood_parallel.database.digest()
            ),
        },
    }
    return blocks, serial_result


def build_report(
    config: SimulationConfig,
    *,
    workers: int,
    repeat: int,
    sketch_sample: int,
    sketch_only: bool,
    enforce: bool,
) -> dict:
    """Run the bench scenarios and return the JSON report.

    ``config`` runs serially and on ``max(2, workers)`` processes.  The
    ``enforcement`` block lists the floors of every block this kind of
    run reports (a full run: all of them); ``enforce`` is only recorded.
    """
    workers = max(2, workers)
    config = config.replace(workers=1)
    report: dict = {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "scale": config.scale,
        "seed": config.seed,
        "fault_profile": config.faults.name,
        "repeat": repeat,
    }
    if sketch_only:
        blocks = {"sketch"}
        report["sketch"] = sketch_block(sketch_sample, repeat, config.seed)
    else:
        blocks = {floor.block for floor in FLOORS}
        engine, serial_result = _engine_blocks(config, workers, repeat)
        report.update(engine)
        if sketch_sample > 0:
            report["sketch"] = sketch_block(sketch_sample, repeat, config.seed)
        report["service"] = service_block(serial_result, config.seed)
    report["enforcement"] = enforcement(report, blocks, enforce)
    return report


def equivalent(report: dict) -> bool:
    """Every serial-vs-parallel and telemetry on-vs-off comparison in
    the report matched (trivially true for a sketch-only report)."""
    return all(
        block.get("digest_match", True)
        for block in report.values()
        if isinstance(block, dict)
    )
