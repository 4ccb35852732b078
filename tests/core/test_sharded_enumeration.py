"""Sharded + coarse-to-fine enumeration (core/enumeration.py)."""

import multiprocessing

import numpy as np
import pytest

from repro.core import (
    REFINE_RADIUS,
    enumerate_best,
    enumerate_best_separable,
    enumerate_best_separable_ml,
    neighborhood_share_vectors,
    plan_share_shards,
    refine_share_steps,
)
from repro.core.params import (
    ParameterSpace,
    platform_space,
    share_simplex,
    workload_space,
)
from repro.core.training import generate_training_data, train_models
from repro.machines import PlatformSimulator, get_platform

SIZE_MB = 600.0


def two_device_space(**overrides) -> ParameterSpace:
    """A small 2-extra-part space matching dualphi's device count."""
    kwargs = dict(
        host_threads=(2, 48),
        device_threads=(60, 240),
        extra_device_grids=[((30, 120), ("balanced", "scatter"))],
        shares=share_simplex(3, 25.0),
    )
    kwargs.update(overrides)
    return ParameterSpace(**kwargs)


def dualphi_sim() -> PlatformSimulator:
    return PlatformSimulator(get_platform("dualphi"), seed=0)


class TestPlanShareShards:
    def test_single_shard_covers_everything(self):
        assert plan_share_shards(7, 1) == ((0, 7),)

    def test_near_equal_contiguous_partition(self):
        ranges = plan_share_shards(10, 3)
        assert ranges == ((0, 4), (4, 7), (7, 10))
        # Union is exactly range(n), in order, without gaps or overlaps.
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(10))

    def test_sizes_differ_by_at_most_one(self):
        for n, s in [(495, 8), (231, 7), (41, 5), (100, 9)]:
            sizes = [b - a for a, b in plan_share_shards(n, s)]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_vectors_clamps(self):
        ranges = plan_share_shards(3, 10)
        assert ranges == ((0, 1), (1, 2), (2, 3))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="n_vectors"):
            plan_share_shards(0, 2)
        with pytest.raises(ValueError, match="shards"):
            plan_share_shards(5, 0)


class TestRefineShareSteps:
    def test_quadphi_schedule_snaps_to_paper_grid(self):
        assert refine_share_steps(12.5, 2.5) == (6.25, 3.125, 2.5)

    def test_three_part_schedule(self):
        assert refine_share_steps(5.0, 1.25) == (2.5, 1.25)

    def test_clean_halving_needs_no_snap(self):
        assert refine_share_steps(10.0, 2.5) == (5.0, 2.5)

    def test_already_fine_start_yields_empty_schedule(self):
        assert refine_share_steps(2.5, 2.5) == ()
        assert refine_share_steps(2.5, 5.0) == ()

    def test_steps_decrease_monotonically(self):
        steps = refine_share_steps(25.0, 1.25)
        assert all(a > b for a, b in zip(steps, steps[1:]))
        assert steps[-1] == 1.25

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError, match="target step"):
            refine_share_steps(12.5, 0.0)
        with pytest.raises(ValueError, match="start step"):
            refine_share_steps(-1.0, 2.5)


class TestNeighborhoodShareVectors:
    def test_on_grid_center_is_included(self):
        center = (50.0, 25.0, 25.0)
        vectors = neighborhood_share_vectors(center, 2.5)
        assert center in vectors

    def test_vectors_sum_to_100_and_stay_bounded(self):
        vectors = neighborhood_share_vectors((50.0, 25.0, 25.0), 2.5)
        for v in vectors:
            assert sum(v) == pytest.approx(100.0, abs=1e-9)
            assert all(0.0 <= s <= 100.0 for s in v)

    def test_lexicographic_order(self):
        vectors = neighborhood_share_vectors((40.0, 30.0, 30.0), 5.0)
        assert list(vectors) == sorted(vectors)

    def test_components_stay_within_radius(self):
        center = (50.0, 25.0, 25.0)
        step = 2.5
        for v in neighborhood_share_vectors(center, step):
            for got, want in zip(v, center):
                assert abs(got - want) <= REFINE_RADIUS * step + 1e-9

    def test_off_grid_center_is_bracketed(self):
        # A snapped schedule can put the incumbent off the level's grid;
        # the neighborhood still surrounds it on both sides per axis.
        center = (51.0, 24.5, 24.5)
        vectors = neighborhood_share_vectors(center, 2.5)
        assert vectors
        cols = list(zip(*vectors))
        for k, share in enumerate(center):
            assert min(cols[k]) <= share <= max(cols[k])

    def test_edge_center_clips_to_the_simplex(self):
        vectors = neighborhood_share_vectors((100.0, 0.0, 0.0), 2.5)
        assert (100.0, 0.0, 0.0) in vectors
        for v in vectors:
            assert all(s >= 0.0 for s in v)

    def test_step_must_divide_100(self):
        with pytest.raises(ValueError, match="does not divide"):
            neighborhood_share_vectors((50.0, 25.0, 25.0), 3.0)
        with pytest.raises(ValueError, match="step must be"):
            neighborhood_share_vectors((50.0, 25.0, 25.0), 0.0)


class TestShardedMeasuredEnumeration:
    @pytest.fixture(scope="class")
    def baseline(self):
        return enumerate_best_separable(two_device_space(), dualphi_sim(), SIZE_MB)

    @pytest.mark.parametrize("shards", [2, 3, 5, 15, 50])
    def test_serial_shards_are_bit_identical(self, shards, baseline):
        res = enumerate_best_separable(
            two_device_space(), dualphi_sim(), SIZE_MB, shards=shards
        )
        assert res.best_config == baseline.best_config
        assert res.best_energy == baseline.best_energy
        assert res.configurations == baseline.configurations

    def test_pooled_shards_are_bit_identical(self, baseline):
        res = enumerate_best_separable(
            two_device_space(), dualphi_sim(), SIZE_MB, shards=3, processes=2
        )
        assert res.best_config == baseline.best_config
        assert res.best_energy == baseline.best_energy
        assert res.configurations == baseline.configurations

    @pytest.mark.parametrize("start_method", multiprocessing.get_all_start_methods())
    def test_start_method_independence(self, start_method, baseline):
        res = enumerate_best_separable(
            two_device_space(),
            dualphi_sim(),
            SIZE_MB,
            shards=3,
            processes=2,
            start_method=start_method,
        )
        assert res.best_config == baseline.best_config
        assert res.best_energy == baseline.best_energy

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError, match="not available"):
            enumerate_best_separable(
                two_device_space(),
                dualphi_sim(),
                SIZE_MB,
                shards=2,
                processes=2,
                start_method="no-such-method",
            )

    def test_refined_never_worse_than_coarse(self, baseline):
        refined = enumerate_best_separable(
            two_device_space(), dualphi_sim(), SIZE_MB, refine=5.0
        )
        assert refined.best_energy.value <= baseline.best_energy.value
        # Refinement levels consume extra enumerated configurations.
        assert refined.configurations > baseline.configurations

    def test_refinement_is_monotone_in_target_step(self):
        space = two_device_space()
        energies = [
            enumerate_best_separable(
                space, dualphi_sim(), SIZE_MB, refine=target
            ).best_energy.value
            for target in (12.5, 6.25, 5.0, 2.5)
        ]
        assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_sharded_refined_matches_serial_refined(self):
        space = two_device_space()
        serial = enumerate_best_separable(space, dualphi_sim(), SIZE_MB, refine=5.0)
        sharded = enumerate_best_separable(
            space, dualphi_sim(), SIZE_MB, refine=5.0, shards=4
        )
        assert sharded.best_config == serial.best_config
        assert sharded.best_energy == serial.best_energy
        assert sharded.configurations == serial.configurations

    def test_quadphi_refined_beats_coarse_strictly(self):
        # The acceptance scenario: quadphi's 12.5 % coarse grid refined
        # down to the paper-grid 2.5 % finds a strictly better optimum.
        spec = get_platform("quadphi")
        space = platform_space(spec)
        coarse = enumerate_best_separable(
            space, PlatformSimulator(spec, seed=0), SIZE_MB
        )
        refined = enumerate_best_separable(
            space, PlatformSimulator(spec, seed=0), SIZE_MB, refine=2.5
        )
        assert refined.best_energy.value < coarse.best_energy.value

    def test_single_device_knobs_are_noops(self):
        spec = get_platform("emil")
        space = platform_space(spec)
        plain = enumerate_best_separable(space, PlatformSimulator(spec, seed=0), SIZE_MB)
        knobbed = enumerate_best_separable(
            space,
            PlatformSimulator(spec, seed=0),
            SIZE_MB,
            shards=4,
            refine=2.5,
            processes=2,
        )
        assert knobbed == plain

    def test_deviceless_space_never_refines(self):
        # A deviceless space pins one (100, 0) split: refining it would
        # time a device the platform does not have.
        spec = get_platform("manycore")
        space = platform_space(spec)
        plain = enumerate_best_separable(space, PlatformSimulator(spec, seed=0), SIZE_MB)
        refined = enumerate_best_separable(
            space, PlatformSimulator(spec, seed=0), SIZE_MB, refine=2.5
        )
        assert refined == plain

    def test_single_device_refinement_walks_the_finer_grid(self):
        # short-read@emil enumerates a 5 % fraction grid; refine=2.5
        # walks the incumbent's 2.5 % neighborhood like any share grid.
        spec = get_platform("emil")
        space = workload_space("short-read", spec)
        plain = enumerate_best_separable(
            space, PlatformSimulator(spec, "short-read", seed=0), 300.0
        )
        refined = enumerate_best_separable(
            space, PlatformSimulator(spec, "short-read", seed=0), 300.0, refine=2.5
        )
        assert refined.configurations > plain.configurations
        assert refined.best_energy.value < plain.best_energy.value
        assert refined.best_config.host_fraction % 5.0 == 2.5


class _LinearPredictor:
    """Picklable deterministic stand-in for the trained ensemble."""

    def predict_part(self, side, threads, affinities, mb):
        t = np.asarray(threads, dtype=np.float64)
        m = np.asarray(mb, dtype=np.float64)
        aff = np.asarray([0.9 if a == "balanced" else 1.0 for a in affinities])
        base = 2.0 if side == "host" else 1.0
        return base * m / (t * 40.0) * aff


class TestShardedMLEnumeration:
    @pytest.fixture(scope="class")
    def baseline(self):
        return enumerate_best_separable_ml(
            two_device_space(), _LinearPredictor(), SIZE_MB
        )

    @pytest.mark.parametrize("shards", [2, 4, 15])
    def test_serial_shards_are_bit_identical(self, shards, baseline):
        res = enumerate_best_separable_ml(
            two_device_space(), _LinearPredictor(), SIZE_MB, shards=shards
        )
        assert res.best_config == baseline.best_config
        assert res.best_energy == baseline.best_energy
        assert res.configurations == baseline.configurations

    def test_pooled_shards_are_bit_identical(self, baseline):
        res = enumerate_best_separable_ml(
            two_device_space(),
            _LinearPredictor(),
            SIZE_MB,
            shards=3,
            processes=2,
        )
        assert res.best_config == baseline.best_config
        assert res.best_energy == baseline.best_energy

    def test_refined_never_worse_than_coarse(self, baseline):
        refined = enumerate_best_separable_ml(
            two_device_space(), _LinearPredictor(), SIZE_MB, refine=5.0
        )
        assert refined.best_energy.value <= baseline.best_energy.value

    def test_single_device_walk_equals_faithful_walk(self):
        # N=1 spaces take the same separable ML walk as multi-device ones
        # and pick what the per-configuration walk on the trained
        # evaluator picks.
        sim = PlatformSimulator(seed=0)
        data = generate_training_data(
            sim,
            sizes_mb=(1000.0, 3170.0),
            fractions=tuple(np.arange(10.0, 101.0, 10.0)),
        )
        ml = train_models(data).evaluator()
        space = ParameterSpace(
            host_threads=(12, 48),
            device_threads=(60, 240),
            fractions=tuple(float(f) for f in range(0, 101, 10)),
        )
        faithful = enumerate_best(space, ml, 3170.0)
        for shards in (1, 3):
            separable = enumerate_best_separable_ml(space, ml, 3170.0, shards=shards)
            assert separable == faithful
