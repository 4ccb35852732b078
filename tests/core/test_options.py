"""The unified TuningOptions object every tuner entry point takes."""

import dataclasses

import pytest

from repro.core import (
    CachedEngine,
    TuningOptions,
    make_engine,
    tune_campaign,
    tune_matrix,
    tune_platform,
    tune_scenario,
)
from repro.service.store import CellKey

ITERS = 60


class TestDefaultsAndValidation:
    def test_defaults_match_the_historical_keywords(self):
        opts = TuningOptions()
        assert opts.engine == "cached+batched"
        assert opts.batch_size == 64
        assert opts.shards == 1
        assert opts.refine is None
        assert opts.processes is None
        assert opts.start_method is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TuningOptions().engine = "serial"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"shards": 0},
            {"refine": 0.0},
            {"refine": -2.5},
            {"processes": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TuningOptions(**kwargs)


class TestViews:
    def test_for_cell_strips_fanout_knobs_only(self):
        opts = TuningOptions(engine="cached", processes=4, start_method="spawn")
        cell = opts.for_cell()
        assert cell.processes is None and cell.start_method is None
        assert cell.engine == "cached" and cell.batch_size == opts.batch_size

    def test_for_cell_is_identity_without_fanout_knobs(self):
        opts = TuningOptions()
        assert opts.for_cell() is opts

    def test_engine_instance_materializes_names(self):
        engine = TuningOptions(engine="cached", batch_size=8).engine_instance()
        assert isinstance(engine, CachedEngine)

    def test_engine_instance_passes_instances_through(self):
        shared = make_engine("batched", batch_size=16)
        assert TuningOptions(engine=shared).engine_instance() is shared

    def test_engine_name_is_stable_across_forms(self):
        assert TuningOptions(engine=None).engine_name is None
        assert TuningOptions(engine="serial").engine_name == "serial"
        instance = make_engine("batched", batch_size=16)
        assert TuningOptions(engine=instance).engine_name == "BatchedEngine"


class TestEntryPoints:
    @pytest.mark.parametrize(
        "call",
        [
            lambda **kw: tune_platform("emil", iterations=ITERS, **kw),
            lambda **kw: tune_scenario("short-read", "emil", iterations=ITERS, **kw),
            lambda **kw: tune_campaign(("emil",), iterations=ITERS, **kw),
            lambda **kw: tune_matrix(("short-read",), ("emil",), iterations=ITERS, **kw),
            lambda **kw: CellKey.for_request("short-read", "emil", **kw),
        ],
        ids=["tune_platform", "tune_scenario", "tune_campaign", "tune_matrix",
             "CellKey.for_request"],
    )
    def test_execution_knobs_are_only_accepted_through_options(self, call):
        """The per-knob keywords are gone; ``options=`` is the one way in."""
        with pytest.raises(TypeError):
            call(engine="serial")

    def test_no_options_is_the_default_options(self):
        default = tune_platform("emil", iterations=ITERS, seed=0)
        explicit = tune_platform(
            "emil", iterations=ITERS, seed=0, options=TuningOptions()
        )
        assert default == explicit

    def test_tune_matrix_accepts_engine_instances(self):
        """Regression: the matrix path accepts EvaluationEngine instances.

        ``tune_matrix`` historically annotated ``engine`` as ``str | None``
        while every other entry point also took instances; a shared
        instance through the serial matrix path must work and aggregate
        its statistics across cells.
        """
        shared = make_engine("cached+batched", batch_size=64)
        res = tune_matrix(
            ("short-read",), ("emil", "slowlink"),
            iterations=ITERS, seed=0,
            options=TuningOptions(engine=shared),
        )
        named = tune_matrix(
            ("short-read",), ("emil", "slowlink"),
            iterations=ITERS, seed=0, options=TuningOptions(engine="cached+batched"),
        )
        assert [c.report.config for c in res.reports] == [
            c.report.config for c in named.reports
        ]
        # The shared instance saw every cell's evaluations.
        assert shared.stats.batches >= sum(c.report.engine_batches for c in named.reports)
