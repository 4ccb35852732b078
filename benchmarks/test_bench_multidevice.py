"""Multi-device enumeration throughput: the columnar path must stay fast.

The device-count generalization keeps the vectorized analytic core as
the fast path for N >= 2: a full EM walk of dualphi's ~3M-configuration
2-device space costs a handful of columnar measurement grids plus a
share-simplex reduction, never per-configuration Python.  The gate is a
machine-portable ratio (separable over faithful walk on the same
sub-space); the full-space throughput is recorded as context.
"""

import multiprocessing
import time

from conftest import run_once

from repro.core import MeasurementEvaluator, enumerate_best, enumerate_best_separable
from repro.core.params import ParameterSpace, platform_space, share_simplex
from repro.machines import PlatformSimulator, get_platform

SIZE_MB = 1000.0
#: Acceptance floor for the multi-device separable walk; typically
#: lands well above 100x the faithful per-configuration walk.
MIN_MULTIDEVICE_SPEEDUP = 10.0
#: Shard count for the sharded-walk benches (a typical core budget).
SHARDS = 4
#: The paper's DNA input size; at this scale the coarse-grid optimum is
#: strictly improvable on both quadphi and mixedphi, which the quality
#: bench pins.
QUALITY_SIZE_MB = 3170.0


def _sub_space() -> ParameterSpace:
    """A dualphi sub-space small enough for the faithful reference walk."""
    space = platform_space(get_platform("dualphi"))
    return ParameterSpace(
        host_threads=space.host_threads[::2],
        device_threads=space.device_grids[0][0][::2],
        extra_device_grids=[
            (threads[::2], affinities)
            for threads, affinities in space.device_grids[1:]
        ],
        shares=share_simplex(3, 12.5),
    )


def test_multidevice_enum_throughput(benchmark):
    sub = _sub_space()
    full = platform_space(get_platform("dualphi"))

    def compare():
        t0 = time.perf_counter()
        faithful = enumerate_best(
            sub, MeasurementEvaluator(PlatformSimulator("dualphi", seed=0)), SIZE_MB
        )
        t_faithful = time.perf_counter() - t0
        t0 = time.perf_counter()
        separable = enumerate_best_separable(
            sub, PlatformSimulator("dualphi", seed=0), SIZE_MB
        )
        t_separable = time.perf_counter() - t0
        assert separable.best_config == faithful.best_config
        assert separable.best_energy == faithful.best_energy
        t0 = time.perf_counter()
        em = enumerate_best_separable(full, PlatformSimulator("dualphi", seed=0), SIZE_MB)
        t_full = time.perf_counter() - t0
        assert em.configurations == full.size()
        return t_faithful, t_separable, t_full

    t_faithful, t_separable, t_full = run_once(benchmark, compare)
    speedup = t_faithful / t_separable
    assert speedup >= MIN_MULTIDEVICE_SPEEDUP
    # Ratio gates (machine-portable); absolute throughput is context.
    benchmark.extra_info["multidevice_vectorized_speedup"] = speedup
    benchmark.extra_info["multidevice_enum_configs_per_s"] = full.size() / t_full
    print()
    print(
        f"faithful sub-space walk : {len(sub)} configs in {t_faithful:.3f}s "
        f"({len(sub) / t_faithful:,.0f}/s)"
    )
    print(
        f"separable sub-space walk: {len(sub)} configs in {t_separable:.3f}s "
        f"({speedup:.1f}x)"
    )
    print(
        f"separable full EM walk  : {full.size():,} configs in {t_full:.3f}s "
        f"({full.size() / t_full:,.0f}/s)"
    )


def test_sharded_enum_throughput(benchmark):
    """Sharding must not tax the walk: bounded overhead, identical bits.

    Both walks finish in ~10 ms, so a single-shot ratio is noise-bound;
    each path is warmed once and timed best-of-3.
    """
    full = platform_space(get_platform("dualphi"))

    def walk(**kwargs):
        return enumerate_best_separable(
            full, PlatformSimulator("dualphi", seed=0), SIZE_MB, **kwargs
        )

    def best_of_3(**kwargs):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            result = walk(**kwargs)
            times.append(time.perf_counter() - t0)
        return min(times), result

    def compare():
        walk()  # warm both paths (imports, allocator, noise tables)
        walk(shards=SHARDS)
        t_unsharded, unsharded = best_of_3()
        t_sharded, sharded = best_of_3(shards=SHARDS)
        assert sharded.best_config == unsharded.best_config
        assert sharded.best_energy == unsharded.best_energy
        assert sharded.configurations == unsharded.configurations
        return t_unsharded, t_sharded

    t_unsharded, t_sharded = run_once(benchmark, compare)
    overhead_ratio = t_unsharded / t_sharded  # ~1.0; below 1 = overhead
    benchmark.extra_info["sharded_enum_overhead_ratio"] = overhead_ratio
    benchmark.extra_info["sharded_enum_configs_per_s"] = (
        platform_space(get_platform("dualphi")).size() / t_sharded
    )
    print()
    print(f"unsharded walk: {t_unsharded:.3f}s")
    print(
        f"{SHARDS}-shard walk : {t_sharded:.3f}s "
        f"(unsharded/sharded = {overhead_ratio:.2f}x)"
    )


def test_coarse_vs_fine_optimum_quality(benchmark):
    """Coarse-to-fine refinement must strictly beat the coarse optimum.

    The acceptance scenario of the sharded/refined enumeration work: on
    quadphi (12.5 % coarse grid) and mixedphi (5 %), refining down to
    the paper-grid 2.5 % step finds a strictly better optimum, and the
    refined result is bit-identical across shard counts and pool start
    methods.  The gains are deterministic ratios of seeded measurements,
    so they gate portably.
    """

    def refine_gains():
        gains = {}
        for name in ("quadphi", "mixedphi"):
            spec = get_platform(name)
            space = platform_space(spec)
            coarse = enumerate_best_separable(
                space, PlatformSimulator(spec, seed=0), QUALITY_SIZE_MB
            )
            refined = enumerate_best_separable(
                space, PlatformSimulator(spec, seed=0), QUALITY_SIZE_MB, refine=2.5
            )
            assert refined.best_energy.value < coarse.best_energy.value
            sharded = enumerate_best_separable(
                space,
                PlatformSimulator(spec, seed=0),
                QUALITY_SIZE_MB,
                shards=SHARDS,
                refine=2.5,
            )
            assert sharded.best_config == refined.best_config
            assert sharded.best_energy == refined.best_energy
            for start_method in multiprocessing.get_all_start_methods():
                pooled = enumerate_best_separable(
                    space,
                    PlatformSimulator(spec, seed=0),
                    QUALITY_SIZE_MB,
                    shards=SHARDS,
                    refine=2.5,
                    processes=2,
                    start_method=start_method,
                )
                assert pooled.best_config == refined.best_config
                assert pooled.best_energy == refined.best_energy
            gains[name] = (
                coarse.best_energy.value / refined.best_energy.value,
                coarse.best_energy.value,
                refined.best_energy.value,
            )
        return gains

    gains = run_once(benchmark, refine_gains)
    print()
    for name, (gain, coarse, refined) in gains.items():
        benchmark.extra_info[f"{name}_refine_gain"] = gain
        print(
            f"{name}: coarse optimum {coarse:.4f}s -> refined {refined:.4f}s "
            f"({gain:.3f}x better at the 2.5% step)"
        )
