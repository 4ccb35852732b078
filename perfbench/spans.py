"""Spans and counters around the public entry points of each ``repro`` layer.

The tracer patches functions and methods from outside the package: a
module-level function is replaced in every loaded ``repro`` module whose
globals hold it, so names a caller imported (``repro.core.campaign.run_em``)
are traced where they are called.  Spans record name, start, end, the
enclosing span on the same thread and the current request id; they stay
in memory, one list per thread, and are written out as JSON when the
run ends.

A layer's self time is its span time minus the time its child spans
cover.  Spans never nest across threads or awaits here: every wrapped
entry point is synchronous, so a per-thread stack gives the parent link.

Scalar per-configuration measurement (``PlatformSimulator.measure_host``
and ``measure_device``, tens of thousands of calls per matrix) is only
counted: a span per call would cost more than the layer itself.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter


#: Span record fields (a list per span keeps the hot path cheap).
NAME, PARENT, REQUEST, START, END = range(5)


class _Thread:
    """One thread's spans, open-span stack, counts and request id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request: str | None = None


class Tracer:
    """In-memory span and counter recorder.

    Each thread records into its own :class:`_Thread`, so the wrappers
    take no lock; parent links index into the same thread's span list.
    """

    def __init__(self) -> None:
        self.request = "-"
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
        return state

    def set_thread_request(self, request: str | None) -> None:
        """Tag spans opened on this thread (server worker threads)."""
        self._thread().request = request

    def wrap(self, fn, name: str, counts=None):
        """``fn`` inside a span; ``counts(args, kwargs, result)`` adds counters.

        Counts are skipped when the enclosing span has the same name (a
        batch entry point delegating to its scalar sibling), so work is
        counted once per layer entry.
        """
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._thread()
            spans, stack = state.spans, state.stack
            parent = stack[-1] if stack else None
            span = [name, parent, state.request or self.request, time.perf_counter(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = time.perf_counter()
            state.counts[calls] += 1
            if counts is not None and (parent is None or spans[parent][NAME] != name):
                for key, value in counts(args, kwargs, result).items():
                    state.counts[f"{name}.{key}"] += value
            return result

        return traced

    def counter(self, fn, name: str):
        """``fn`` with a call counter only (no span)."""
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._thread().counts[calls] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, key: str, value: float) -> None:
        self._thread().counts[key] += value

    # -- summaries -----------------------------------------------------------

    @property
    def counts(self) -> Counter:
        total: Counter = Counter()
        for state in self._threads:
            total.update(state.counts)
        return total

    def self_times(self) -> dict[str, float]:
        return self_times([state.spans for state in self._threads])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"threads": [state.spans for state in self._threads], "counts": self.counts},
                fh,
            )


def self_times(threads: list[list[list]]) -> dict[str, float]:
    """Per-layer self time: span time minus child span time.

    ``threads`` holds one span list per thread.  Spans of the benchmark's
    own output checks (request ``check``) and spans still open are left
    out.
    """
    out: dict[str, float] = {}
    for spans in threads:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[END] is not None and span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            if span[END] is None or span[REQUEST] == "check":
                continue
            own = span[END] - span[START] - child_time[i]
            out[span[NAME]] = out.get(span[NAME], 0.0) + own
    return out


def merge_dump(path: str, self_s: dict, counts: Counter) -> None:
    """Add a dumped tracer's self times and counts to ``self_s``/``counts``."""
    with open(path) as fh:
        data = json.load(fh)
    for name, value in self_times(data["threads"]).items():
        self_s[name] = self_s.get(name, 0.0) + value
    counts.update(data["counts"])


def _replace_function(original, replacement) -> None:
    """Rebind ``original`` in every loaded ``repro`` module that holds it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Patch every traced entry point; import the layers first."""
    import repro.core.annealing as annealing
    import repro.core.campaign  # noqa: F401  (holds run_em, run_tasks)
    import repro.core.evaluators as evaluators
    import repro.core.methods as methods
    import repro.core.pool as pool
    import repro.core.portfolio as portfolio
    import repro.core.training as training
    import repro.machines.simulator as simulator
    import repro.ml.boosting as boosting
    import repro.ml.transfer as transfer
    import repro.search as search
    import repro.service.serde as serde
    import repro.service.server  # noqa: F401  (holds encode_scenario)
    import repro.service.store as store

    def function(owner, attr, name, counts=None):
        original = getattr(owner, attr)
        _replace_function(original, tracer.wrap(original, name, counts))

    def method(cls, attr, name, counts=None):
        setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, counts))

    # repro.ml
    regressor = boosting.BoostedDecisionTreeRegressor
    method(regressor, "fit", "ml.fit", lambda a, k, r: {"rows": len(_arg(a, k, 1, "X"))})
    method(
        regressor,
        "continue_fit",
        "ml.continue_fit",
        lambda a, k, r: {"stages": int(_arg(a, k, 3, "n_stages"))},
    )
    method(regressor, "predict", "ml.predict", lambda a, k, r: {"rows": len(r)})
    regressor.predict_one = tracer.counter(regressor.predict_one, "ml.predict_one")
    function(transfer, "cell_models", "transfer.cell_models")

    # repro.core: training grid, enumeration, annealing, evaluators
    function(
        training,
        "generate_training_data",
        "training.grid",
        lambda a, k, r: {"rows": int(r.n_experiments)},
    )
    function(methods, "run_em", "enumeration.em", lambda a, k, r: {"configs": r.experiments})
    function(methods, "run_eml", "enumeration.eml")
    method(
        annealing.SimulatedAnnealing,
        "run",
        "annealing.run",
        lambda a, k, r: {"iterations": r.iterations},
    )
    for cls in evaluators.MeasurementEvaluator, evaluators.MLEvaluator:
        layer = "evaluators.measured" if cls is evaluators.MeasurementEvaluator else "evaluators.ml"
        method(cls, "evaluate", layer, lambda a, k, r: {"configs": 1})
        method(cls, "evaluate_batch", layer, lambda a, k, r: {"configs": len(r)})
    method(
        evaluators.MLEvaluator,
        "predict_part",
        "evaluators.ml",
        lambda a, k, r: {"configs": len(r)},
    )

    # repro.search: every concrete searcher's own run()
    for value in vars(search).values():
        run = getattr(value, "__dict__", {}).get("run")
        if isinstance(value, type) and run and not getattr(run, "__isabstractmethod__", False):
            method(value, "run", "search.run", lambda a, k, r: {"evaluations": r.evaluations})

    # repro.machines: scalar measurements counted, columnar ones traced
    sim_cls = simulator.PlatformSimulator
    for attr in "measure_host", "measure_device":
        setattr(sim_cls, attr, tracer.counter(sim_cls.__dict__[attr], "machines.measure"))
    for attr in (
        "measure_host_columns",
        "measure_device_columns",
        "measure_host_batch",
        "measure_device_batch",
    ):
        method(sim_cls, attr, "machines.columns", lambda a, k, r: {"rows": len(r)})

    # repro.core.portfolio and repro.core.pool
    function(
        portfolio,
        "run_portfolio",
        "portfolio.run",
        lambda a, k, r: {"spend": sum(r[1].spend.values()), "rungs": r[1].rungs},
    )
    function(
        pool,
        "run_tasks",
        "pool.run_tasks",
        lambda a, k, r: {"attempts": r[1].attempts, "retries": r[1].retries},
    )

    # repro.service.store and repro.service.serde
    result_store = store.ResultStore
    for attr in "get_em", "get_scenario", "get_training", "get_models":
        method(result_store, attr, "store.get")
    for attr in "put_em", "put_scenario", "put_training", "put_models":
        original = result_store.__dict__[attr]

        def put(self, *args, _original=original, **kwargs):
            before = _file_size(self.path)
            result = _original(self, *args, **kwargs)
            tracer.add("store.put.bytes", _file_size(self.path) - before)
            return result

        setattr(result_store, attr, tracer.wrap(functools.wraps(original)(put), "store.put"))
    method(result_store, "refresh", "store.refresh")
    for attr in sorted(vars(serde)):
        if attr.startswith(("encode_", "decode_")) and callable(getattr(serde, attr)):
            layer = "serde.encode" if attr.startswith("encode_") else "serde.decode"
            function(serde, attr, layer)
    encode_npz = serde._encode_npz

    def npz(*args, **kwargs):
        blob = encode_npz(*args, **kwargs)
        tracer.add("serde.npz.bytes", len(blob))
        return blob

    _replace_function(encode_npz, functools.wraps(encode_npz)(npz))
