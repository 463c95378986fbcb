"""The repository benchmark: three workloads, cold passes, checked outputs.

    python3 perfbench/run.py --workload reproduce --seed 7 --seconds 15 --trace 0

Run from the repository root.  Each pass is a fresh interpreter
(``onepass.py``), so every pass pays imports, simulation and DLD the way
a user's invocation does.  ``--trace 0`` runs untraced passes until
about ``--seconds`` of timed work is done and reports the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics (``perfbench/interactions.json`` says which
end-to-end metric and workload each should move).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
#: Passes per ``--trace 0`` run, at least (medians need more than one).
MIN_PASSES = 2
#: ``query_mix`` passes per run; each runs ``seconds / QUERY_PASSES``.
QUERY_PASSES = 2
#: Queries in each ``query_mix`` pass of a ``--trace 1`` run.
TRACE_QUERIES = 20_000
#: A pass that runs longer than this is killed and the run fails.
PASS_TIMEOUT_S = 150
EXPERIMENT_IDS = (
    "table_stats", "fig01", "fig02", "fig03a", "fig03b", "fig04a", "fig04b",
    "fig05", "fig06", "fig07", "fig08a", "fig08b", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "table1",
    "ext_stateful", "ext_ablation_tokenizer", "ext_validation",
    "ext_sensor_coverage", "ext_baseline_clustering",
    "ext_ablation_ruleorder", "ext_ablation_detection",
)


#: Figures printed beside the end-to-end metrics but not gated, since
#: ``BENCHMARK.json`` may only list metrics every workload measures.
EXTRA_UNITS = {
    "sessions_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
}


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str, scratch: Path, **extra) -> dict:
    """Run one ``onepass.py`` process to completion and read its result."""
    tag = f"{workload}-{mode}-{len(list(scratch.iterdir()))}"
    work = scratch / tag
    work.mkdir()
    out = scratch / f"{tag}.json"
    command = [
        sys.executable, str(HERE / "onepass.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--tmp", str(work), "--out", str(out),
    ]
    for key, value in extra.items():
        command += [f"--{key}", str(value)]
    env = dict(os.environ)
    # Same seed, same process: string hashing (set and dict layout) is
    # seeded from the workload seed, not drawn per process.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        log, _ = process.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise PassFailed(f"{tag}: no result within {PASS_TIMEOUT_S} s")
    finally:
        # Pool workers share the pass's session; none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0 or not out.exists():
        raise PassFailed(f"{tag} exited {process.returncode}:\n{log[-4000:]}")
    result = json.loads(out.read_text())
    if mode == "trace":
        from layers import summarize

        result["trace"] = summarize(work)
    shutil.rmtree(work, ignore_errors=True)
    return result


def measure(workload: str, seed: int, seconds: float, scratch: Path) -> list[dict]:
    """Untraced passes: at least ``MIN_PASSES``, about ``seconds`` timed."""
    if workload == "query_mix":
        return [
            run_pass(workload, seed, "measure", scratch,
                     seconds=seconds / QUERY_PASSES)
            for _ in range(QUERY_PASSES)
        ]
    passes: list[dict] = []
    while True:
        passes.append(run_pass(workload, seed, "measure", scratch))
        timed = sum(p["phase_s"] for p in passes)
        typical = statistics.median(p["phase_s"] for p in passes)
        if len(passes) >= MIN_PASSES and timed + typical / 2 >= seconds:
            return passes


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics, plus each one's sample count."""
    units = [unit for p in passes for unit in p["units"]]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(units),
        "sessions_per_s": statistics.median(
            p["sessions"] / p["simulate_s"] for p in passes
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {
        "setup_s": len(passes),
        "wall_s": len(units),
        "sessions_per_s": len(passes),
        "peak_rss_mb": len(passes),
    }
    latencies = [value for p in passes for value in p.get("latencies_s", ())]
    if latencies:
        metrics["queries_per_s"] = len(latencies) / sum(
            p["phase_s"] for p in passes
        )
        metrics["query_p50_us"] = quantile(latencies, 0.50) * 1e6
        metrics["query_p99_us"] = quantile(latencies, 0.99) * 1e6
        for name in ("queries_per_s", "query_p50_us", "query_p99_us"):
            samples[name] = len(latencies)
    return metrics, samples


def per_layer(measured: dict, traced: dict) -> dict:
    """The per-layer metrics of one traced pass (0 where not exercised)."""
    summary = traced["trace"]
    totals, counters = summary["totals"], summary["counters"]

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    lines = counters.get("honeypot.shell_lines", 0)
    metrics = {
        "attackers.session_count_s": total("attackers.session_count"),
        "attackers.session_count_calls": calls("attackers.session_count"),
        "attackers.intents_s": self_s("attackers.intents"),
        "attackers.active_hosts_s": total("attackers.active_hosts"),
        "attackers.active_hosts_calls": calls("attackers.active_hosts"),
        "attackers.substrate_s": total("attackers.substrate"),
        "honeypot.handle_s": self_s("honeypot.handle"),
        "honeypot.sessions": calls("honeypot.handle"),
        "honeypot.shell_line_s": total("honeypot.shell_line"),
        "honeypot.shell_lines": lines,
        "honeypot.parse_s": total("honeypot.parse"),
        "honeypot.distinct_line_ratio": ratio(summary["distinct_lines"], lines),
        "transport.deliver_s": total("transport.deliver"),
        "collector.accept_s": total("collector.accept"),
        "collector.stored_ratio": traced.get("stored_ratio", 0.0),
        "database.build_s": total("database.build"),
        "stream.self_s": self_s("stream"),
        "parallel.substrate_s": total("parallel.substrate"),
        "parallel.count_wait_s": total("parallel.count_wait"),
        "parallel.shard_wait_s": total("parallel.shard_wait"),
        "parallel.decode_s": total("parallel.decode"),
        "parallel.absorb_s": self_s("parallel.absorb"),
        "parallel.ipc_bytes": counters.get("parallel.ipc_bytes", 0),
        "parallel.shard_skew": traced.get("shard_skew", 0.0),
        "parallel.worker_peak_rss_mb": traced.get("worker_peak_rss_mb", 0.0),
        "store.export_s": total("store.export"),
        "store.export_rows": traced.get("export_rows", 0),
        "store.query_s": total("store.query"),
        "store.queries": calls("store.query"),
        "service.handle_self_s": self_s("service.handle"),
        "service.cache_hit_ratio": traced.get("cache_hit_ratio", 0.0),
        "service.cache_misses": traced.get("cache_misses", 0),
        "analysis.dld_matrix_s": total("analysis.dld_matrix"),
        "analysis.dld_pairs": counters.get("analysis.dld_pairs", 0),
        "analysis.dld_distinct_ratio": ratio(
            counters.get("analysis.dld_distinct", 0),
            counters.get("analysis.dld_sequences", 0),
        ),
        "analysis.clustering_s": total("analysis.clustering"),
        "dataset.external_s": total("dataset.external"),
    }
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"experiments.{experiment_id}_s"] = total(
            f"experiments.{experiment_id}"
        )
    metrics["experiments.total_s"] = sum(
        total(f"experiments.{experiment_id}") for experiment_id in EXPERIMENT_IDS
    )
    metrics["trace.overhead_pct"] = 100.0 * (
        traced["phase_s"] / measured["phase_s"] - 1.0
    )
    metrics["trace.unattributed_s"] = summary["unattributed_s"]
    return metrics


def spec_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` asks this run for.

    The interaction map must cover every per-layer metric.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if trace else "end_to_end"]
    mapped = json.loads((HERE / "interactions.json").read_text())["per_layer"]
    unmapped = {m["name"] for m in spec["per_layer"]} ^ set(mapped)
    if unmapped:
        raise SystemExit(f"interactions.json out of step: {sorted(unmapped)}")
    return {m["name"]: m["unit"] for m in metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=("reproduce", "simulate_2w", "query_mix"),
        required=True,
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("run from the repository root: src/repro not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    try:
        return run(args, scratch)
    except PassFailed as error:
        print(f"pass failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch: Path) -> int:
    workload, seed = args.workload, args.seed
    wanted = spec_units(bool(args.trace))
    checks: list[tuple[str, bool, str]] = []
    if args.trace:
        extra = {"queries": TRACE_QUERIES} if workload == "query_mix" else {}
        measured = run_pass(workload, seed, "measure", scratch, **extra)
        traced = run_pass(workload, seed, "trace", scratch, **extra)
        passes = [measured, traced]
        checks.append((
            "traced digest equals untraced",
            traced["digest"] == measured["digest"],
            traced["digest"],
        ))
        metrics = per_layer(measured, traced)
        samples = {name: 1 for name in metrics}
    else:
        passes = measure(workload, seed, args.seconds, scratch)
        digests = {p["digest"] for p in passes}
        checks.append(("passes agree on the digest", len(digests) == 1, ""))
        if workload == "simulate_2w":
            reference = run_pass(workload, seed, "reference", scratch)
            checks.append((
                "2-worker digest equals the serial engine's",
                digests == {reference["digest"]},
                reference["digest"],
            ))
        metrics, samples = end_to_end(passes)

    for p in passes:
        checks.extend(tuple(check) for check in p["checks"])
    queries = sum(p.get("attempts", 0) for p in passes)
    non_ok = sum(p.get("non_ok", 0) for p in passes)
    failed_checks = [check for check in checks if not check[1]]
    attempted = queries + len(checks) + (0 if queries else len(passes))
    failed = non_ok + len(failed_checks)

    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted})")
    units = {**EXTRA_UNITS, **wanted}
    for name, value in metrics.items():
        unit = units.get(name, "")
        print(f"{name} = {value:.6g} {unit} (n={samples[name]})")

    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"metrics missing from this run: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
