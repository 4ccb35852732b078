"""End-to-end benchmark of the tuner: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sam-matrix --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give each metric with its unit and sample count.  Times are in reference
seconds: rescaled by a fixed loop run beside the work (``speed.py``).  A
failed output check prints ``"correct": false`` and exits 1.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import REFERENCE_S, Speed
from workloads import (
    HERE,
    ROOT,
    SRC,
    WORKLOADS,
    CheckFailed,
    Server,
    check,
    child_env,
)

SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("reuse_s", "s"),
    ("submit_s.cold.p50", "s"),
    ("submit_s.cold.p90", "s"),
    ("submit_s.hit.p50", "s"),
    ("submit_s.hit.p90", "s"),
    ("burst_s", "s"),
    ("attempts_per_cell", "ratio"),
    ("experiments", "count"),
    ("optimum_distance.mean", "ratio"),
    ("budget_fraction", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("ml.fit.calls", "count"),
    ("ml.fit.rows", "count"),
    ("ml.fit.self_s", "s"),
    ("ml.continue_fit.calls", "count"),
    ("ml.continue_fit.stages", "count"),
    ("ml.continue_fit.self_s", "s"),
    ("ml.predict.calls", "count"),
    ("ml.predict.rows", "count"),
    ("ml.predict.self_s", "s"),
    ("ml.predict_one.calls", "count"),
    ("transfer.cell_models.calls", "count"),
    ("transfer.cell_models.self_s", "s"),
    ("transfer.cold_fits", "count"),
    ("transfer.warm_fits", "count"),
    ("transfer.grids_measured", "count"),
    ("transfer.grid_store_hits", "count"),
    ("transfer.models_store_hits", "count"),
    ("transfer.models_memory_hits", "count"),
    ("training.grid.calls", "count"),
    ("training.grid.rows", "count"),
    ("training.grid.self_s", "s"),
    ("enumeration.em.calls", "count"),
    ("enumeration.em.configs", "count"),
    ("enumeration.em.self_s", "s"),
    ("enumeration.eml.calls", "count"),
    ("enumeration.eml.self_s", "s"),
    ("annealing.run.calls", "count"),
    ("annealing.run.iterations", "count"),
    ("annealing.run.self_s", "s"),
    ("search.run.calls", "count"),
    ("search.run.evaluations", "count"),
    ("search.run.self_s", "s"),
    ("evaluators.measured.configs", "count"),
    ("evaluators.measured.self_s", "s"),
    ("evaluators.ml.configs", "count"),
    ("evaluators.ml.self_s", "s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("evaluators.memo_yield", "ratio"),
    ("machines.measure.calls", "count"),
    ("machines.columns.calls", "count"),
    ("machines.columns.rows", "count"),
    ("machines.columns.self_s", "s"),
    ("portfolio.run.calls", "count"),
    ("portfolio.run.self_s", "s"),
    ("portfolio.run.spend", "count"),
    ("portfolio.run.rungs", "count"),
    ("pool.run_tasks.calls", "count"),
    ("pool.run_tasks.self_s", "s"),
    ("pool.attempts", "count"),
    ("pool.retries", "count"),
    ("store.get.calls", "count"),
    ("store.get.self_s", "s"),
    ("store.put.calls", "count"),
    ("store.put.self_s", "s"),
    ("store.put.bytes", "B"),
    ("store.refresh.self_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.put_useful_ratio", "ratio"),
    ("serde.encode.self_s", "s"),
    ("serde.decode.self_s", "s"),
    ("serde.npz.bytes", "B"),
    ("server.eval_s.p50", "s"),
    ("server.eval_s.p90", "s"),
    ("server.admission_s.p50", "s"),
    ("server.admission_s.p90", "s"),
    ("server.evaluated", "count"),
    ("server.store_hits", "count"),
    ("server.coalesced", "count"),
    ("server.rejected_saturated", "count"),
    ("client.retry_wait_s", "s"),
    ("failed_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
)

#: Per-layer names that differ from the tracer's ``<span>.<count>`` keys.
COUNT_ALIASES = {
    "pool.attempts": "pool.run_tasks.attempts",
    "pool.retries": "pool.run_tasks.retries",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile of ``values``."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """The highest quantile up to 0.9 with at least ten samples beyond it.

    Below 20 samples no quantile above the median qualifies, so the
    median is reported.
    """
    return max(0.5, min(0.9, 1.0 - 10.0 / n)) if n else 0.5


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_samples(workload: str, work: Path, speed: Speed) -> list[float]:
    """Fresh-process set-up times; serve-mix starts and stops servers."""
    samples = []
    for i in range(SETUP_SAMPLES):
        speed.start()
        if workload == "serve-mix":
            server = Server(work / f"setup-{i}.jsonl")
            samples.append(speed.rescale(server.setup_s))
            server.stop()
            continue
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(work / f"setup-{i}.jsonl")],
            cwd=ROOT, env=child_env(), check=True, stdin=subprocess.DEVNULL,
        )
        samples.append(speed.rescale(time.perf_counter() - started))
    return samples


def warm_up() -> float:
    """Load the tuning path once so lazy imports do not land in pass 1."""
    from repro.core import clear_em_cache, tune_scenario

    started = time.perf_counter()
    tune_scenario("dna-paper", "emil", method="SAM", iterations=50)
    clear_em_cache()
    return time.perf_counter() - started


def call_latency(passes, phase: str) -> tuple[float, float, int]:
    """Library calls of one phase: ``(p50, p90, samples)``.

    A library workload's calls are a few fixed kinds (one per cell, or
    per seed and matrix row), each repeated every pass at a very
    different cost, so a percentile over the pooled calls would jump
    between kinds.  Each kind gets the median of its calls; p50 and p90
    are percentiles over those medians.
    """
    by_call: dict[str, list[float]] = {}
    for p in passes:
        for label, samples in getattr(p, f"{phase}_calls").items():
            by_call.setdefault(label, []).extend(samples)
    medians = [statistics.median(v) for v in by_call.values()]
    return statistics.median(medians), percentile(medians, 0.9), sum(map(len, by_call.values()))


def by_kind(passes) -> list[list]:
    """The passes grouped by kind, in kind order."""
    groups: dict[int, list] = {}
    for p in passes:
        groups.setdefault(p.kind, []).append(p)
    return [groups[k] for k in sorted(groups)]


def end_to_end(passes, setup: list[float]) -> dict[str, tuple[float, int, str]]:
    """``name -> (value, samples, note)`` over the timed passes.

    A pass of the workload as a user runs it is one pass of every kind,
    so ``wall_s`` and ``reuse_s`` add up each kind's median; the quality
    metrics add up or pool each kind's first pass.
    """
    n = len(passes)
    kinds = by_kind(passes)
    firsts = [g[0] for g in kinds]
    first = firsts[0]
    wall = sum(statistics.median(p.wall_s for p in g) for g in kinds)
    reuse = sum(statistics.median([x for p in g for x in p.reuse_s]) for g in kinds)
    n_reuse = sum(len(p.reuse_s) for p in passes)
    distances = [d for p in firsts for d in p.distances]
    fractions = [f for p in firsts for f in p.budget_fractions]
    if first.cold_calls:  # a library workload
        cold50, cold90, n_cold = call_latency(passes, "cold")
        hit50, hit90, n_hit = call_latency(passes, "hit")
        latency = {
            "submit_s.cold.p50": (cold50, n_cold, "median call kind, cold phase"),
            "submit_s.cold.p90": (cold90, n_cold, "p90 over call kinds, cold phase"),
            "submit_s.hit.p50": (hit50, n_hit, "median call kind, restarts"),
            "submit_s.hit.p90": (hit90, n_hit, "p90 over call kinds, restarts"),
            "burst_s": (wall, n, "= wall_s: the whole cold phase"),
        }
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        cold = [x for p in passes for x in p.cold_latency]
        hit = [x for p in passes for x in p.hit_latency]
        q_cold, q_hit = tail_quantile(len(cold)), tail_quantile(len(hit))
        latency = {
            "submit_s.cold.p50": (statistics.median(cold), len(cold), "p50"),
            "submit_s.cold.p90": (percentile(cold, q_cold), len(cold), f"p{round(100 * q_cold)}"),
            "submit_s.hit.p50": (statistics.median(hit), len(hit), "p50"),
            "submit_s.hit.p90": (percentile(hit, q_hit), len(hit), f"p{round(100 * q_hit)}"),
            "burst_s": (statistics.median(p.burst_s for p in passes), n, "median pass"),
        }
        rss = statistics.median(p.peak_rss_mb for p in passes)
    computed = sum(len(p.distances) for p in passes)
    per_kind = f", summed over {len(kinds)} pass kinds" if len(kinds) > 1 else ""
    return {
        "setup_s": (statistics.median(setup), len(setup), "median"),
        "wall_s": (wall, n, "median pass" + per_kind),
        "reuse_s": (reuse, n_reuse, "median restart or hit phase" + per_kind),
        "submit_s.cold.p50": latency["submit_s.cold.p50"],
        "submit_s.cold.p90": latency["submit_s.cold.p90"],
        "submit_s.hit.p50": latency["submit_s.hit.p50"],
        "submit_s.hit.p90": latency["submit_s.hit.p90"],
        "burst_s": latency["burst_s"],
        "attempts_per_cell": (
            1.0 + ratio(sum(p.refused + p.errored for p in passes), computed),
            computed,
            "computed cells, all passes",
        ),
        "experiments": (sum(p.experiments for p in firsts), len(firsts), "per pass, exact"),
        "optimum_distance.mean": (statistics.fmean(distances), len(distances), "cell mean, exact"),
        "budget_fraction": (statistics.fmean(fractions), len(fractions), "cell mean, exact"),
        "peak_rss_mb": (rss, n, "bench process" if first.cold_calls else "server, median"),
    }


def per_layer(p, self_s: dict, counts: Counter, untraced_wall: float) -> dict:
    """``name -> (value, samples, note)`` for one traced pass."""

    def count(name: str) -> float:
        return counts.get(COUNT_ALIASES.get(name, name), 0)

    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = count(name)
    for key in ("cold_fits", "warm_fits", "grids_measured", "grid_store_hits",
                "models_store_hits", "models_memory_hits"):
        values[f"transfer.{key}"] = p.transfer_stats.get(key, 0)
    values["engine.cache_hit_ratio"] = ratio(p.engine_cache_hits, p.search_evaluations)
    values["evaluators.memo_yield"] = ratio(p.search_experiments, p.search_evaluations)
    store = p.store_stats
    values["store.hits"] = store.get("hits", 0)
    values["store.misses"] = store.get("misses", 0)
    values["store.put_useful_ratio"] = ratio(
        store.get("puts", 0), store.get("puts", 0) + store.get("duplicates", 0)
    )
    server = p.server
    for key in ("evaluated", "store_hits", "coalesced", "rejected_saturated"):
        values[f"server.{key}"] = server.get(key, 0)
    for name, samples in (("server.eval_s", p.eval_s), ("server.admission_s", p.admission_s)):
        values[f"{name}.p50"] = statistics.median(samples) if samples else 0.0
        values[f"{name}.p90"] = percentile(samples, tail_quantile(len(samples))) if samples else 0.0
    values["client.retry_wait_s"] = p.retry_wait_s
    failed = p.refused + p.errored
    values["failed_ratio"] = ratio(failed, len(p.distances) + failed)
    values["trace.wall_s"] = p.wall_s
    values["trace.overhead_s"] = p.wall_s - untraced_wall
    attributed = sum(self_s.values())
    values["trace.unattributed_share"] = max(0.0, p.timed_s - attributed) / p.timed_s
    return {name: (values[name], 1, "traced pass") for name, _unit in PER_LAYER}


def measure(args, work: Path) -> tuple[dict, int, int]:
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    if args.workload == "serve-mix":
        # Server threads run on every CPU: sample each of them.
        speed = Speed(sorted(os.sched_getaffinity(0)))
    else:
        # A library workload runs on one thread; pin it (and the set-up
        # processes it starts) so the reference loop runs where it does.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        speed = Speed()
    setup = setup_samples(args.workload, work, speed)
    print(f"setup: {len(setup)} fresh-process set-ups, median {statistics.median(setup):.4f} s")
    print(f"warm-up (excluded): {warm_up():.4f} s")

    passes = []
    started = time.perf_counter()
    if args.trace:
        passes.append(workload.run_pass(work, 0, 0, speed))
        from spans import Tracer, install, merge_dump

        tracer = Tracer()
        install(tracer)
        traced = workload.run_pass(work, 1, 0, speed, tracer)
        passes.append(traced)
        self_s = tracer.self_times()
        counts = tracer.counts
        if traced.trace_out is not None:
            merge_dump(str(traced.trace_out), self_s, counts)
    else:
        while True:
            index = len(passes)
            passes.append(workload.run_pass(work, index, index % workload.kinds, speed))
            elapsed = time.perf_counter() - started
            if len(passes) >= workload.min_passes and elapsed + elapsed / len(passes) > args.seconds:
                break
    for group in by_kind(passes):
        first = group[0]
        for p in group[1:]:
            check(p.payloads == first.payloads, f"{args.workload}: passes disagree on outputs")
            check(p.experiments == first.experiments, f"{args.workload}: experiment counts differ")
    print(f"measured {len(passes)} passes in {time.perf_counter() - started:.2f} s "
          f"(pass walls: {', '.join(f'{p.wall_s:.3f}' for p in passes)} reference s)")
    print(f"box slowdown: the reference loop ran {speed.slowdown():.3f}x its "
          f"{REFERENCE_S * 1e3:.2f} ms over {len(speed.samples)} samples; "
          "times below are rescaled by the samples around each interval")
    if args.trace:
        metrics = per_layer(passes[1], self_s, counts, passes[0].wall_s)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(passes, setup + [p.setup_s for p in passes if p.setup_s])
        units = dict(END_TO_END)
    for name, (value, samples, note) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]:6s} n={samples} {note}")
    attempted = sum(p.attempts for p in passes)
    failed = sum(p.errored for p in passes)
    values = {name: {"value": v, "unit": units[name]} for name, (v, _, _) in metrics.items()}
    return values, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: a few cells and iterations, for the smoke check",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still runs its cleanup: servers stopped, files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed = measure(args, work)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
