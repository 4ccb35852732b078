"""The benchmark workloads, each a closed loop from one process.

Every workload runs *passes*.  A workload may cycle through a few
*kinds* of pass (``sam-matrix``: one seed each); passes of one kind
repeat the same work and must give the same outputs.  A library pass
starts from cleared per-process caches (``clear_em_cache``,
``clear_transfer_cache``) and a fresh store file and runs its API calls
cold; then it restarts ``restarts`` times: it clears the caches again,
reopens the same store file as a new process would, and runs the same
calls again (the reuse phase).  A library workload's request is one API call of a
phase; a phase runs its calls back to back as a user's script would.
``serve-mix`` starts a fresh ``python -m repro serve`` subprocess per
pass; its requests are client submits: one cold submit per cell,
whole-matrix submits of the same cells answered from the store, and a
whole-matrix burst at seed+1.

Each pass checks its outputs after its timed phases (:func:`check`); a
failed check fails the run instead of counting as a slow sample.
Times are rescaled to reference seconds by :mod:`speed`.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import Speed

#: With two or more CPUs, serve-mix's hit phase runs the bench process
#: on the first CPU it may use and every server thread on the last:
#: client and server then never compete for one CPU, and a 42-cell store
#: hit repeats within a few percent instead of varying by a third with
#: where the scheduler put them.  The cold and burst phases run unpinned,
#: so the server's evaluation threads use every CPU as a user's would.
_CPUS = frozenset(os.sched_getaffinity(0))
CLIENT_CPUS = {min(_CPUS)} if len(_CPUS) > 1 else None
SERVER_CPUS = {max(_CPUS)} if len(_CPUS) > 1 else None


def set_affinity(pid: int, cpus, *, threads: bool = False) -> None:
    """Pin ``pid`` (with ``threads``, every thread it has) to ``cpus``."""
    tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")] if threads else [pid]
    for tid in tids:
        try:
            os.sched_setaffinity(tid, cpus)
        except ProcessLookupError:  # a thread that just ended
            pass


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

PAPER_METHODS = ("EM", "SAM", "SAML", "EML")
ML_METHODS = ("SAML", "EML")
#: Whole-matrix store-hit submits per serve-mix pass.  One submit of
#: 42 hits takes ~6 ms, mostly server work; a single-cell hit (~0.4 ms)
#: is mostly cross-process wake-up latency and does not repeat run to run.
HIT_REPEATS = 300
#: Hit submits between two samples of the reference loop.
HIT_GROUP = 20
TRANSFER_CELLS = (
    ("dna-paper", "emil"),  # cold root
    ("short-read", "emil"),  # warm, one hop
    ("short-read", "dualphi"),  # warm, two hops, N=2
)


class CheckFailed(AssertionError):
    """An output invariant did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Pass:
    """What one timed pass measured."""

    kind: int = 0  # which of the workload's pass kinds this pass ran
    #: Times are in reference seconds (see ``speed.py``) unless noted.
    wall_s: float = 0.0
    timed_s: float = 0.0  # measured seconds of every timed phase, restarts included
    reuse_s: list[float] = field(default_factory=list)  # restart / hit phase times
    #: serve-mix request latencies: cold single-cell and store-hit submits
    cold_latency: list[float] = field(default_factory=list)
    hit_latency: list[float] = field(default_factory=list)
    cold_raw: list[float] = field(default_factory=list)  # measured seconds
    #: library API call latencies by call: cold phase and restart phases
    cold_calls: dict[str, list[float]] = field(default_factory=dict)
    hit_calls: dict[str, list[float]] = field(default_factory=dict)
    burst_s: float = 0.0
    attempts: int = 0  # cell attempts, refused ones included
    refused: int = 0
    errored: int = 0
    experiments: int = 0
    search_experiments: int = 0
    distances: list[float] = field(default_factory=list)
    budget_fractions: list[float] = field(default_factory=list)
    #: cell label -> canonical payload, for cross-pass determinism
    payloads: dict[str, str] = field(default_factory=dict)
    # per-layer inputs (traced runs only read them)
    search_evaluations: int = 0
    engine_cache_hits: int = 0
    store_stats: dict = field(default_factory=dict)
    transfer_stats: dict = field(default_factory=dict)
    server: dict = field(default_factory=dict)
    eval_s: list[float] = field(default_factory=list)
    admission_s: list[float] = field(default_factory=list)
    retry_wait_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float | None = None
    trace_out: Path | None = None


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def add_quality(p: Pass, report, label: str, grid_rows: dict | None = None) -> None:
    """Fold one cell's :class:`~repro.core.campaign.ScenarioReport` into ``p``.

    ``grid_rows`` maps ``(workload, platform)`` to the rows of the
    training grid the pass measured for that cell; an ML-backed report
    must charge exactly those rows as training experiments.
    """
    check(
        report.optimum_distance >= 1.0,
        f"{label}: optimum distance {report.optimum_distance} < 1",
    )
    r = report.report
    if r.training_experiments or r.method in ML_METHODS:
        check(grid_rows is not None, f"{label}: ML-backed report outside a library pass")
        rows = grid_rows.get((report.workload, report.platform))
        check(
            r.training_experiments == rows,
            f"{label}: {r.method} charged {r.training_experiments} training "
            f"experiments for a measured grid of {rows} rows",
        )
    if r.method in ML_METHODS:
        check(
            report.total_experiments == r.training_experiments + 1,
            f"{label}: {r.method} spent {report.total_experiments} experiments, "
            f"not its {r.training_experiments}-row training grid plus one timed run",
        )
    p.experiments += report.total_experiments
    p.search_experiments += r.experiments
    p.distances.append(report.optimum_distance)
    p.budget_fractions.append(report.total_experiments / r.space_size)
    p.search_evaluations += r.search_evaluations
    p.engine_cache_hits += r.engine_cache_hits


def measured_grids(store_path: str) -> dict:
    """``(workload, platform) -> rows`` of every training grid in a store file.

    Reads the file's ``training`` records and decodes each stored grid,
    so the count is what was measured, not what a ledger says.
    """
    from repro.service import ResultStore

    store = ResultStore(store_path)
    rows = {}
    with open(store_path, "rb") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("kind") == "training":
                meta = record["meta"]
                data = store.get_training(record["key"])
                rows[(meta["workload"], meta["platform"])] = data.n_experiments
    return rows


def add_counts(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            into[key] = into.get(key, 0) + value


# -- library workloads ---------------------------------------------------------


class LibraryWorkload:
    """Requests are direct ``repro`` API calls against a bound store."""

    name = ""
    #: Restarts after each cold phase.  A short restart varies by a fifth
    #: from one to the next on a shared box, so it needs several samples.
    restarts = 5
    #: Kinds of pass the run cycles through; see :meth:`requests`.
    kinds = 1
    #: Passes a run makes even past ``--seconds``: one of every kind.
    min_passes = 1

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale

    def requests(self, kind: int):
        """``(label, call)`` pairs of a pass of ``kind``; ``call()`` returns
        ScenarioReports.  Labels are unique across kinds."""
        raise NotImplementedError

    def run_pass(self, work: Path, index: int, kind: int, speed: Speed, tracer=None) -> Pass:
        """One pass; ``speed`` samples the bench process's (pinned) CPU."""
        from repro.core import clear_em_cache, set_result_store
        from repro.ml.transfer import clear_transfer_cache, transfer_stats
        from repro.service import ResultStore
        from repro.service.serde import encode_scenario

        p = Pass(kind=kind)
        path = str(work / f"{self.name}-{index}.jsonl")
        phases = []
        try:
            for phase in ("cold",) + ("reuse",) * self.restarts:
                clear_em_cache()
                clear_transfer_cache()
                speed.start()
                t0 = time.perf_counter()
                store = ResultStore(path)
                set_result_store(store)
                raw = time.perf_counter() - t0
                elapsed = speed.rescale(raw)
                results = []
                calls = p.cold_calls if phase == "cold" else p.hit_calls
                for label, call in self.requests(kind):
                    if tracer is not None:
                        tracer.request = f"{self.name}/{phase}{len(phases)}/{label}"
                    t0 = time.perf_counter()
                    results.append((label, call()))
                    took = time.perf_counter() - t0
                    raw += took
                    took = speed.rescale(took)
                    calls.setdefault(label, []).append(took)
                    elapsed += took
                p.timed_s += raw
                if phase == "cold":
                    p.wall_s = elapsed
                else:
                    p.reuse_s.append(elapsed)
                add_counts(p.store_stats, store.stats.as_dict())
                add_counts(p.transfer_stats, transfer_stats().as_dict())
                phases.append(results)
        finally:
            set_result_store(None)
            clear_em_cache()
            clear_transfer_cache()
        if tracer is not None:
            tracer.request = "check"
        grid_rows = measured_grids(path)
        for results in phases:
            cells = {}
            for label, reports in results:
                for report in reports:
                    cells[f"{label}:{report.workload}@{report.platform}"] = report
            p.attempts += len(cells)
            encoded = {cell: canonical(encode_scenario(r)) for cell, r in cells.items()}
            if not p.payloads:
                p.payloads = encoded
                for cell, report in cells.items():
                    add_quality(p, report, cell, grid_rows)
                continue
            check(encoded.keys() == p.payloads.keys(), f"{self.name}: a restart ran other cells")
            for cell, payload in encoded.items():
                check(payload == p.payloads[cell], f"{cell}: restart payload differs from cold")
        return p


class PaperCell(LibraryWorkload):
    """Table II on the paper's own cell: EM, SAM, SAML, EML in that order.

    Not in ``BENCHMARK.json``: its restart phase (models read back from
    the store, ~1 s) varied by more than the largest allowed bound from
    one run to the next on a shared two-core virtual machine.  Run it by
    name; its cold fit also runs as ``transfer-store``'s root cell.
    """

    name = "paper-cell"

    def requests(self, kind: int):
        from repro.core import tune_scenario

        iterations = 1000 if self.scale == "full" else 100
        return [
            (
                method,
                lambda m=method: [
                    tune_scenario(
                        "dna-paper", "emil", method=m, iterations=iterations, seed=self.seed
                    )
                ],
            )
            for method in PAPER_METHODS
        ]


class SamMatrix(LibraryWorkload):
    """SAM over all 42 built-in cells at three consecutive seeds.

    Pass kind ``k`` runs seed ``seed + k`` (a pass of one seed is 3-6 s;
    a run holds two of each at least), one ``tune_matrix`` call per
    workload row of the matrix (seven cells each), so the per-call
    latencies have enough samples for a tail percentile.
    """

    name = "sam-matrix"
    restarts = 1  # a restart re-runs every search, as long as the cold phase
    kinds = 3
    min_passes = 6

    def requests(self, kind: int):
        from repro.core import tune_matrix
        from repro.dna.workloads import workload_names

        seed = self.seed + kind
        if self.scale == "full":
            rows, platforms, iterations = list(workload_names()), None, 1000
        else:
            rows, platforms, iterations = ["dna-paper", "short-read"], ["emil", "dualphi"], 100
        return [
            (
                f"seed{seed}/{w}",
                lambda w=w: list(
                    tune_matrix(
                        workloads=[w], platforms=platforms, method="SAM",
                        iterations=iterations, seed=seed,
                    )
                ),
            )
            for w in rows
        ]


class TransferStore(LibraryWorkload):
    """Portfolio + transfer SAM over a three-cell donor chain."""

    name = "transfer-store"
    #: Three passes, so each cold call kind has three samples and its
    #: median shrugs off one slow one; two restarts each keep a run
    #: under a minute.
    min_passes = 3
    restarts = 2

    def requests(self, kind: int):
        from repro.core import TuningOptions, tune_scenario
        from repro.core.portfolio import PortfolioSpec

        options = TuningOptions(transfer=True, portfolio=PortfolioSpec(rung0=25, eta=2))
        iterations = 200 if self.scale == "full" else 50
        return [
            (
                f"{w}@{p}",
                lambda w=w, p=p: [
                    tune_scenario(
                        w, p, method="SAM", options=options, iterations=iterations, seed=self.seed
                    )
                ],
            )
            for w, p in TRANSFER_CELLS
        ]


# -- serve-mix -----------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, store: Path, trace_out: Path | None = None) -> None:
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(trace_out)]
        cmd += ["serve", "--store", str(store), "--port", "0"]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.lines: list[str] = []
        try:
            self.port = self._read_port()
            self._wait_accepting(started)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _read_port(self) -> int:
        for line in self.proc.stderr:
            self.lines.append(line)
            match = re.search(r"serving on [^:\s]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError("server exited before serving: " + "".join(self.lines[-20:]))

    def _wait_accepting(self, started: float) -> None:
        while True:
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=5):
                    return
            except OSError:
                if time.perf_counter() - started > 60:
                    raise
                time.sleep(0.005)

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)

    def peak_rss_mb(self) -> float:
        """The server's own peak RSS so far (``VmHWM``), in MB.

        Not ``wait4``'s ``ru_maxrss``: that also counts the forked copy of
        the bench process before ``exec``, so it grows with the bench.
        """
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        """Shut down through the protocol and check the exit code."""
        from repro.service.client import request_shutdown

        request_shutdown(port=self.port)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not exit after shutdown") from None
        self._drain.join(timeout=10)
        check(self.proc.returncode == 0, f"server exited {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


class ServeMix:
    """Cold single-cell submits, whole-matrix store hits, then a burst."""

    name = "serve-mix"
    #: Two passes, so the cold p90 has 84 samples, not 42.
    min_passes = 2
    kinds = 1

    def __init__(self, seed: int, scale: str) -> None:
        from repro.dna.workloads import workload_names
        from repro.machines.registry import platform_names

        self.seed = seed
        self.scale = scale
        workloads, platforms = list(workload_names()), list(platform_names())
        if scale != "full":
            workloads, platforms = workloads[:2], platforms[:2]
        self.workloads, self.platforms = workloads, platforms
        self.cells = [(w, p) for w in workloads for p in platforms]
        self.iterations = 1000 if scale == "full" else 100

    def request(self, workloads, platforms, seed: int):
        from repro.service import SubmitRequest

        return SubmitRequest(
            client="perfbench",
            workloads=tuple(workloads),
            platforms=tuple(platforms),
            method="SAM",
            iterations=self.iterations,
            seed=seed,
        )

    def run_pass(self, work: Path, index: int, kind: int, speed: Speed, tracer=None) -> Pass:
        """One pass on a fresh server; ``speed`` samples every CPU."""
        p = Pass()
        if tracer is not None:
            p.trace_out = work / f"serve-trace-{index}.json"
        speed.start()
        server = Server(work / f"serve-{index}.jsonl", p.trace_out)
        p.setup_s = speed.rescale(server.setup_s)
        try:
            cold, hits, burst, stats = asyncio.run(self.traffic(server, p, speed))
            p.peak_rss_mb = server.peak_rss_mb()
        except BaseException:
            server.kill()
            raise
        server.stop()
        p.server = stats["server"]
        add_counts(p.store_stats, stats["store"])
        if tracer is not None:
            tracer.request = "check"
        self.check_pass(p, cold, hits, burst)
        return p

    async def traffic(self, server: Server, p: Pass, speed: Speed):
        """The pass's three phases over one client connection.

        The reference loop runs between requests, while the server is
        idle; a hit's time is rescaled by the samples around its group of
        ``HIT_GROUP`` submits, and the burst's ``retry_after`` sleeps are
        added as slept.
        """
        from repro.service.client import ServiceClient, cell_results

        async with ServiceClient(port=server.port) as client:
            cold = []
            speed.start()
            for w, pl in self.cells:
                t0 = time.perf_counter()
                stream = await client.submit(self.request([w], [pl], self.seed))
                took = time.perf_counter() - t0
                p.timed_s += took
                p.cold_raw.append(took)
                p.cold_latency.append(speed.rescale(took))
                cold.extend(cell_results(stream))
            p.attempts += len(self.cells)
            hits = []
            pinned = CLIENT_CPUS is not None
            if pinned:
                set_affinity(0, CLIENT_CPUS)
                set_affinity(server.proc.pid, SERVER_CPUS, threads=True)
            hit_s = 0.0
            speed.start()
            for _ in range(HIT_REPEATS // HIT_GROUP):
                group = []
                started = time.perf_counter()
                for _ in range(HIT_GROUP):
                    t0 = time.perf_counter()
                    request = self.request(self.workloads, self.platforms, self.seed)
                    stream = await client.submit(request)
                    group.append(time.perf_counter() - t0)
                    hits.append(cell_results(stream))
                took = time.perf_counter() - started
                p.timed_s += took
                scaled = speed.rescale(took)
                hit_s += scaled
                p.hit_latency.extend(x * scaled / took for x in group)
            p.reuse_s.append(hit_s)
            if pinned:
                set_affinity(0, _CPUS)
                set_affinity(server.proc.pid, _CPUS, threads=True)
            p.attempts += HIT_REPEATS * len(self.cells)
            burst = await self.burst(client, p, speed)
            p.wall_s = sum(p.cold_latency) + hit_s + p.burst_s
            stats = await client.stats()
        return cold, hits, burst, stats

    async def burst(self, client, p: Pass, speed: Speed) -> dict:
        """One whole-matrix submit; re-submit refused cells until all are done.

        Refused cells are grouped into cross-product requests by their
        remaining platforms and re-sent after the largest ``retry_after``
        of the round.  Returns ``label -> done event``.
        """
        from repro.service.client import cell_results

        pending = {w: list(self.platforms) for w in self.workloads}
        done: dict[str, dict] = {}
        speed.start()
        for _ in range(100):
            groups: dict[tuple, list] = {}
            for w, platforms in pending.items():
                groups.setdefault(tuple(platforms), []).append(w)
            if not groups:
                break
            pending = {}
            wait = 0.0
            for platforms, workloads in groups.items():
                t0 = time.perf_counter()
                stream = await client.submit(self.request(workloads, platforms, self.seed + 1))
                took = time.perf_counter() - t0
                p.timed_s += took
                p.burst_s += speed.rescale(took)
                cells = cell_results(stream)
                check(len(cells) == len(workloads) * len(platforms), f"burst: {stream[-1]}")
                for event in cells:
                    p.attempts += 1
                    if event["status"] == "done":
                        done[f"{event['workload']}@{event['platform']}"] = event
                        continue
                    if event["status"] == "rejected":
                        check(event.get("reason") == "saturated", f"burst: {event}")
                        p.refused += 1
                    else:
                        p.errored += 1
                    pending.setdefault(event["workload"], []).append(event["platform"])
                    wait = max(wait, float(event.get("retry_after") or 0.0))
            if pending:
                p.retry_wait_s += wait
                p.burst_s += wait
                await asyncio.sleep(wait)
                speed.start()
        check(len(done) == len(self.cells), f"burst finished {len(done)} of {len(self.cells)}")
        return done

    def check_pass(self, p: Pass, cold: list, hits: list, burst: dict) -> None:
        from repro.service.serde import decode_scenario

        check(len(cold) == len(p.cold_latency), "a cold submit answered more than one cell")
        for latency, event in zip(p.cold_raw, cold):
            label = f"{event['workload']}@{event['platform']}"
            check(event.get("status") == "done", f"cold {label}: {event}")
            check(event["source"] == "evaluate", f"cold {label} came from {event['source']}")
            p.eval_s.append(event["elapsed"])
            p.admission_s.append(latency - event["elapsed"])
            p.payloads[label] = canonical(event["payload"])
            add_quality(p, decode_scenario(event["payload"]), label)
        for events in hits:
            check(len(events) == len(cold), f"hit submit answered {len(events)} cells")
            for event in events:
                label = f"{event['workload']}@{event['platform']}"
                check(event.get("status") == "done", f"hit {label}: {event}")
                check(event["source"] in ("store", "coalesced"), f"hit {label}: {event['source']}")
                check(
                    canonical(event["payload"]) == p.payloads[label],
                    f"hit {label}: payload differs from cold",
                )
        for label, event in burst.items():
            p.payloads[f"burst {label}"] = canonical(event["payload"])
            add_quality(p, decode_scenario(event["payload"]), f"burst {label}")


WORKLOADS = {
    cls.name: cls for cls in (PaperCell, SamMatrix, TransferStore, ServeMix)
}
