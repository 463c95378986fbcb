"""The process pool as a producer of shard results for the run loop.

There is one run loop: the stream engine's
(:meth:`repro.stream.engine.StreamSubstrate.run`).  With ``workers > 1``
under the replay policy it takes one step per shard instead of one per
day, and this module produces those shards: it partitions the window
into contiguous shards (:mod:`repro.parallel.shards`), simulates them
on a ``ProcessPoolExecutor`` and hands each result back in shard order.
Resume, the checkpoint cadence, ``stop_after`` and the result all stay
with the run loop.  Equivalence with the serial day steps rests on
three properties the codebase already guarantees:

* **Per-day purity** — every random stream a day consumes is keyed by
  ``(component, bot, date)`` paths under the master seed (the property
  checkpoint/resume relies on), so a worker that rebuilds the substrate
  from the config produces the same records for its days as the serial
  loop would.
* **Session-counter offsets** — the one piece of cross-day state is
  each honeypot's session counter (session ids embed it).  A cheap
  counting pass (:func:`repro.attackers.orchestrator.count_day`, which
  draws the same intent/routing streams but skips the honeypot shell)
  yields per-shard per-honeypot arrival counts; prefix sums preset each
  shard's counters to exactly the values the serial loop would have
  reached.
* **Order-independent delivery** — transport faults are keyed by
  session id and collector accounting is a sum of per-record effects,
  so shard-local collectors merged in shard order reproduce the serial
  collector byte for byte
  (:meth:`repro.honeynet.collector.Collector.absorb_batch`).

Shard results cross the process boundary as compact column buffers
(:mod:`repro.honeynet.columnar`): the worker encodes its record lists
into a :class:`ColumnBatch` whose pickle is a handful of flat
numpy/bytes buffers, and the parent decodes with a vectorized
bulk-ingest.  The encode→decode round-trip is proven an identity by the
codec property suite (``tests/test_columnar.py``), so the merged digest
cannot move.

The producer is *crash-tolerant*: a shard worker that dies mid-run
(injected :class:`~repro.faults.corruption.WorkerCrash`, or a real
worker death breaking the pool) loses only its task-local output — the
parent deterministically re-submits the shard, and after
:data:`MAX_SHARD_ATTEMPTS` failed attempts gives up on the pool for
that shard: the run loop then simulates the shard's days in the parent
with the serial day step.  Every attempt presets the honeypot counters
absolutely and uses the same day streams, so the recovered output is
byte-identical under every crash schedule.  Crashes are the only
injected shard failure: an injected stall would end in the same retry
as a crash, only later.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from datetime import date
from typing import Iterator

from repro.attackers.orchestrator import (
    SimulationSubstrate,
    build_substrate,
    count_day,
    simulate_day,
)
from repro.config import SimulationConfig
from repro.faults.corruption import WorkerCrash, crash_point
from repro.honeynet.columnar import ColumnBatch
from repro.parallel.shards import Shard, plan_shards
from repro import telemetry
from repro.util.timeutils import days_between

logger = logging.getLogger("repro.parallel")

#: Worker attempts per shard before the parent gives up on the pool and
#: the run loop simulates the shard's days itself.
MAX_SHARD_ATTEMPTS = 3


@dataclass
class ShardOutput:
    """Everything one fully simulated shard sends back to the parent."""

    index: int
    sessions: ColumnBatch
    dead_letters: ColumnBatch
    counters: dict[str, int]
    channel_stats: dict[str, float]
    #: Per-honeypot session counters at the end of the shard.
    honeypot_counters: dict[str, int]
    #: Shard-local telemetry registry export (None when telemetry is
    #: disabled); merged into the parent registry in shard order.
    telemetry: dict | None = None


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
# Workers prefer the substrate the parent built: under the fork start
# method the child's address space already holds it (copy-on-write), so
# rebuilding it per worker (~1s of population/fleet derivation) would be
# pure waste.  That is safe because a worker's only substrate mutations
# are the honeypot counters, which every task presets absolutely before
# simulating — a replacement worker forked mid-merge sees the same
# bytes-on-the-wire behaviour as one forked at pool start.  Under spawn
# (no inherited memory) workers rebuild from the picklable config; both
# constructions are the same pure function of the config, so behaviour
# is identical either way.

_WORKER_ARGS: tuple | None = None
_WORKER_SUBSTRATE: SimulationSubstrate | None = None
_WORKER_TELEMETRY: bool = False
#: Set (then cleared) by :func:`produce_shards` around the pool's life
#: so fork-children inherit the already-built substrate.
_PARENT_SUBSTRATE: SimulationSubstrate | None = None


def _init_worker(
    config: SimulationConfig,
    extra_bots_factory,
    collect_telemetry: bool = False,
) -> None:
    global _WORKER_ARGS, _WORKER_SUBSTRATE, _WORKER_TELEMETRY
    _WORKER_ARGS = (config, extra_bots_factory)
    _WORKER_SUBSTRATE = _PARENT_SUBSTRATE
    _WORKER_TELEMETRY = collect_telemetry
    # Under the fork start method the child inherits the parent's
    # active registry; clear it so shard metrics are strictly
    # shard-local (each task enables its own fresh registry).
    telemetry.disable()


def _worker_substrate() -> SimulationSubstrate:
    global _WORKER_SUBSTRATE
    if _WORKER_SUBSTRATE is None:
        if _WORKER_ARGS is None:
            raise RuntimeError("worker used before _init_worker ran")
        _WORKER_SUBSTRATE = build_substrate(*_WORKER_ARGS)
    return _WORKER_SUBSTRATE


def _count_shard(span: tuple[str, str]) -> dict[str, int]:
    """Phase 1: per-honeypot arrival counts for one shard's days."""
    substrate = _worker_substrate()
    counts: dict[str, int] = {}
    for day in days_between(date.fromisoformat(span[0]), date.fromisoformat(span[1])):
        count_day(substrate, day, counts)
    return counts


def _run_shard(
    task: tuple[int, str, str, dict[str, int], int]
) -> ShardOutput:
    """Phase 2: fully simulate one shard with preset honeypot counters.

    ``task`` carries the attempt number so the fault model can decide,
    per ``(shard, attempt)``, whether this attempt crashes mid-run
    (:func:`repro.faults.corruption.crash_point`).  A crashed attempt
    raises before returning anything; since the collector is task-local
    and the honeypot counters are preset absolutely at the start of
    every task, the discarded partial work cannot leak into a retry.
    """
    index, start_iso, end_iso, base_counters, attempt = task
    substrate = _worker_substrate()
    days = list(
        days_between(date.fromisoformat(start_iso), date.fromisoformat(end_iso))
    )
    crash_after = crash_point(
        substrate.config.faults.integrity,
        substrate.config.seed,
        index,
        attempt,
        len(days),
    )
    substrate.set_honeypot_counters(base_counters)
    collector = substrate.fresh_collector()
    channel = substrate.fresh_channel(collector)
    deliver = channel.deliver
    registry = telemetry.enable() if _WORKER_TELEMETRY else None
    # The shard's day loop carries the same span names as the serial
    # engine, so merged span paths line up run-for-run.
    with telemetry.span("sim.run"):
        for day_number, day in enumerate(days):
            if crash_after is not None and day_number == crash_after:
                raise WorkerCrash(
                    f"injected crash in shard {index} attempt {attempt} "
                    f"after {day_number} of {len(days)} days"
                )
            with telemetry.span("sim.day"):
                simulate_day(substrate, day, deliver)
            collector.end_of_day()
            channel.flush_telemetry()
    telemetry_export = None
    if registry is not None:
        telemetry.disable()
        telemetry_export = registry.export()
    # Encode on the worker side so the expensive part of IPC — the
    # per-record pickling of object graphs — becomes a handful of
    # flat buffer pickles, and the encode cost itself parallelizes.
    sessions = ColumnBatch.from_records(collector.sessions)
    dead_letters = ColumnBatch.from_records(collector.dead_letters)
    return ShardOutput(
        index=index,
        sessions=sessions,
        dead_letters=dead_letters,
        counters=collector.counters(),
        channel_stats=asdict(channel.stats),
        honeypot_counters=substrate.honeypot_counters(),
        telemetry=telemetry_export,
    )


# ----------------------------------------------------------------------
# parent-process side
# ----------------------------------------------------------------------

def pool_context() -> multiprocessing.context.BaseContext:
    """The cheapest start method available (fork where supported)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def _add_counts(total: dict[str, int], delta: dict[str, int]) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


def _submit(pool: ProcessPoolExecutor, fn, arg) -> Future | None:
    """Submit, tolerating a pool that has already broken or shut down."""
    try:
        return pool.submit(fn, arg)
    except (BrokenProcessPool, RuntimeError):
        return None


def _settle_shard(
    pool: ProcessPoolExecutor,
    shard: Shard,
    task: tuple[int, str, str, dict[str, int], int],
    future: Future | None,
) -> ShardOutput | None:
    """Resolve one shard's output, surviving crashed workers.

    An attempt that dies with an injected :class:`WorkerCrash` is
    re-submitted — deterministic re-execution, byte-identical output —
    up to :data:`MAX_SHARD_ATTEMPTS` total attempts.  After that, or
    when the pool itself breaks (a real worker death), returns ``None``:
    the run loop then simulates the shard's days in the parent with the
    serial day step, which yields the same bytes, so digest equality
    with the serial engine holds under every crash schedule.
    """
    attempt = 1
    while future is not None:
        try:
            return future.result()
        except WorkerCrash as error:
            telemetry.count("parallel.worker_crashes")
            logger.warning(
                "shard %d attempt %d failed: %s", shard.index, attempt, error
            )
            if attempt >= MAX_SHARD_ATTEMPTS:
                logger.warning(
                    "shard %d failed %d times; giving up on the pool",
                    shard.index, attempt,
                )
                break
            telemetry.count("parallel.shard_retries")
            logger.info(
                "re-executing shard %d (attempt %d of %d)",
                shard.index, attempt + 1, MAX_SHARD_ATTEMPTS,
            )
            future = _submit(pool, _run_shard, task[:4] + (attempt,))
            attempt += 1
        except BrokenProcessPool as error:
            telemetry.count("parallel.pool_failures")
            logger.error(
                "worker pool broke under shard %d: %s", shard.index, error
            )
            break
    telemetry.count("parallel.serial_fallbacks")
    logger.warning(
        "shard %d: falling back to serial in-process execution", shard.index
    )
    return None


def _settle_counts(
    substrate: SimulationSubstrate, shard: Shard, future: Future | None
) -> dict[str, int]:
    """Resolve one shard's count-pass result, recounting inline if the
    pool failed (counting is pure, so the recount is identical)."""
    if future is not None:
        try:
            return future.result()
        except BrokenProcessPool as error:
            telemetry.count("parallel.pool_failures")
            logger.warning(
                "count pass lost for shard %d (%s); recounting inline",
                shard.index, error,
            )
    counts: dict[str, int] = {}
    for day in days_between(shard.start, shard.end):
        count_day(substrate, day, counts)
    return counts


def produce_shards(
    substrate: SimulationSubstrate, first_day: date, last_day: date
) -> Iterator[tuple[Shard, dict[str, int], ShardOutput | None]]:
    """Simulate ``[first_day, last_day]`` on a pool of ``config.workers``
    processes.

    Yields ``(shard, counters, output)`` in shard order: ``counters``
    are the honeypot session counters the shard starts from, and
    ``output`` is the shard's result, or ``None`` when the pool gave up
    on it (:func:`_settle_shard`).  The substrate's honeypot counters
    are the starting point of the first shard; the pool lives, under
    the ``parallel.run`` span, until the last shard is yielded.
    """
    workers = substrate.config.workers
    shards = plan_shards(first_day, last_day, workers)
    if not shards:
        return
    logger.info(
        "sharding %s..%s into %d shards on %d workers",
        first_day, last_day, len(shards), workers,
    )
    registry = telemetry.active()
    if registry is not None:
        registry.gauge("parallel.workers", workers)
        registry.count("parallel.shards", len(shards))

    global _PARENT_SUBSTRATE
    _PARENT_SUBSTRATE = substrate
    try:
        with telemetry.span("parallel.run"), ProcessPoolExecutor(
            max_workers=workers,
            mp_context=pool_context(),
            initializer=_init_worker,
            initargs=(
                substrate.config,
                substrate.extra_bots_factory,
                registry is not None,
            ),
        ) as pool:
            # Phase 1: count arrivals for every shard but the last (the
            # last shard's counts are never needed as an offset).
            count_futures: list[Future | None] = [
                _submit(pool, _count_shard, shard.iso_span)
                for shard in shards[:-1]
            ]
            # Phase 2: simulate each shard with prefix-summed counters.
            run_futures: list[Future | None] = []
            tasks: list[tuple[int, str, str, dict[str, int], int]] = []
            offsets = substrate.honeypot_counters()
            for shard in shards:
                task = (shard.index, *shard.iso_span, dict(offsets), 0)
                tasks.append(task)
                run_futures.append(_submit(pool, _run_shard, task))
                if shard.index < len(count_futures):
                    _add_counts(
                        offsets,
                        _settle_counts(
                            substrate, shard, count_futures[shard.index]
                        ),
                    )
            # Hand over in shard order: concatenation reproduces the
            # serial ingestion order.
            for shard, task, future in zip(shards, tasks, run_futures):
                yield shard, task[3], _settle_shard(pool, shard, task, future)
    finally:
        _PARENT_SUBSTRATE = None
