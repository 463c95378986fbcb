"""Which program functions the traced run wraps, and the per-layer metrics.

Each layer is timed at the public function or method the layer above
calls, named after the module it lives in.  ``install`` must run after
the pass has imported everything it will call and before the timed
phase starts.
"""

from __future__ import annotations

from pathlib import Path

from tracer import (
    ROOT,
    TRACER,
    layer_totals,
    load_spans,
    root_gap,
    span_wrapper,
    wrap_function,
    wrap_method,
    wrap_worker_task,
)


def _count_line(args) -> None:
    TRACER.lines.add(args[1])
    TRACER.count("honeypot.shell_lines")


def _count_ipc(args) -> None:
    TRACER.count("parallel.ipc_bytes", args[1].nbytes + args[2].nbytes)


def _count_dld(args) -> None:
    keys = [tuple(sequence) for sequence in args[0]]
    distinct = len(set(keys))
    TRACER.count("analysis.dld_sequences", len(keys))
    TRACER.count("analysis.dld_distinct", distinct)
    TRACER.count("analysis.dld_pairs", distinct * (distinct - 1) // 2)


def install(span_dir: Path) -> None:
    """Wrap every traced layer; spans go to ``TRACER`` (and, from pool
    workers, to files in ``span_dir``)."""
    import repro.abusedb.aggregate as aggregate
    import repro.abusedb.killnet as killnet
    import repro.abusedb.shadowserver as shadowserver
    import repro.analysis.clusterselect as clusterselect
    import repro.analysis.distance as distance
    import repro.attackers.orchestrator as orchestrator
    import repro.experiments.runner as runner
    import repro.honeypot.shell.parser as parser
    import repro.parallel.engine as parallel
    import repro.stream.engine as stream
    from repro.attackers.base import Bot
    from repro.attackers.infrastructure import StorageInfrastructure
    from repro.faults.transport import DirectChannel, ResilientChannel
    from repro.honeynet.collector import Collector
    from repro.honeynet.columnar import ColumnBatch
    from repro.honeynet.database import SessionDatabase
    from repro.honeypot.cowrie import CowrieHoneypot
    from repro.honeypot.shell.engine import ShellEngine
    from repro.honeypot.stateful import StatefulCowrieHoneypot
    from repro.service.core import QueryService
    from repro.store.sqlite import SqliteStore

    # attackers: bot intent and rate draws, storage-host picks, set-up
    wrap_method(Bot, "session_count", "attackers.session_count")
    wrap_method(Bot, "sessions_for_day", "attackers.intents")
    wrap_method(StorageInfrastructure, "active_hosts", "attackers.active_hosts")
    # the parallel engine's own substrate first, so the name-wide wrap
    # below leaves it alone
    parallel.build_substrate = span_wrapper(
        parallel.build_substrate, "parallel.substrate"
    )
    wrap_function(orchestrator, "build_substrate", "attackers.substrate")
    # honeypot shell
    wrap_method(CowrieHoneypot, "handle", "honeypot.handle")
    wrap_method(StatefulCowrieHoneypot, "handle", "honeypot.handle")
    wrap_method(ShellEngine, "run_line", "honeypot.shell_line", _count_line)
    wrap_function(parser, "parse_line", "honeypot.parse")
    # transport, collector, database
    wrap_method(DirectChannel, "deliver", "transport.deliver")
    wrap_method(ResilientChannel, "deliver", "transport.deliver")
    wrap_method(Collector, "accept", "collector.accept")
    wrap_method(SessionDatabase, "__init__", "database.build")
    # stream engine (serial day loop)
    wrap_function(stream, "run_stream", "stream")
    # parallel parent phases, and the worker tasks behind them
    wrap_function(parallel, "_settle_counts", "parallel.count_wait")
    wrap_function(parallel, "_settle_shard", "parallel.shard_wait")
    wrap_method(Collector, "absorb_batch", "parallel.absorb", _count_ipc)
    wrap_method(ColumnBatch, "to_records", "parallel.decode")
    wrap_worker_task(parallel, "_count_shard", span_dir)
    wrap_worker_task(parallel, "_run_shard", span_dir)
    # store
    wrap_function(orchestrator, "_export_store", "store.export")
    for query in ("count", "count_by", "distinct", "rows", "session_ids"):
        wrap_method(SqliteStore, query, "store.query")
    # service
    wrap_method(QueryService, "handle", "service.handle")
    # analysis and the external datasets
    wrap_function(distance, "distance_matrix", "analysis.dld_matrix", _count_dld)
    wrap_function(clusterselect, "cluster_with_selection", "analysis.clustering")
    wrap_function(aggregate, "build_abuse_datasets", "dataset.external")
    wrap_function(killnet, "build_killnet_list", "dataset.external")
    wrap_function(shadowserver, "build_shadowserver_report", "dataset.external")
    # experiments, one span per id
    wrap_function(
        runner, "run_experiment", lambda args: f"experiments.{args[0]}"
    )


def summarize(span_dir: Path) -> dict:
    """Merge every span file of one traced pass into per-name totals."""
    totals: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    lines: set[str] = set()
    wall = gap = 0.0
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        document = load_spans(path)
        for name, stats in layer_totals(document).items():
            merged = totals.setdefault(
                name, {"total_s": 0.0, "self_s": 0.0, "calls": 0}
            )
            for key, value in stats.items():
                merged[key] += value
        for name, value in document["counters"].items():
            counters[name] = counters.get(name, 0) + value
        lines.update(document["lines"])
        if ROOT in document["names"]:
            wall, gap = root_gap(document)
    return {
        "totals": totals,
        "counters": counters,
        "distinct_lines": len(lines),
        "root_s": wall,
        "unattributed_s": gap,
    }
