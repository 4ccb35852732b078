"""Property: the separable walk equals the faithful walk, for every device count.

The sharded per-part walk behind EM and EML must pick exactly the
configuration the per-configuration walk of ``enumerate_best`` picks —
the earliest in Table I order among those at the minimum energy — with
the same ``Energy`` and the same configuration count, whatever the
device count, grids, share step, seed, shard count, or pooling.
Measured times almost never tie across share vectors, so a second
property runs the ML walk on a step-valued predictor where ties across
combos, share vectors and shards are the rule.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    MeasurementEvaluator,
    MLEvaluator,
    enumerate_best,
    enumerate_best_separable,
    enumerate_best_separable_ml,
)
from repro.core.params import ParameterSpace, platform_space, share_simplex
from repro.machines import PlatformSimulator, get_platform

#: Platforms per device count: homogeneous and heterogeneous cards.
PLATFORMS = {
    1: (get_platform("emil"), get_platform("slowlink")),
    2: (get_platform("dualphi"), get_platform("mixedphi")),
    3: (get_platform("dualphi").with_devices(3),),
}


def sub_grid(draw, values):
    """A non-empty sub-grid of one or two values, in grid order."""
    picked = draw(
        st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True)
    )
    return tuple(v for v in values if v in picked)


@st.composite
def walks(draw):
    num_devices = draw(st.sampled_from(sorted(PLATFORMS)))
    spec = draw(st.sampled_from(PLATFORMS[num_devices]))
    full = platform_space(spec)
    grids = [
        (sub_grid(draw, threads), sub_grid(draw, affinities))
        for threads, affinities in full.device_grids
    ]
    shares = share_simplex(num_devices + 1, draw(st.sampled_from([25.0, 12.5])))
    kwargs = dict(
        host_threads=sub_grid(draw, full.host_threads),
        host_affinities=sub_grid(draw, full.host_affinities),
        device_threads=grids[0][0],
        device_affinities=grids[0][1],
    )
    if num_devices == 1:
        kwargs["fractions"] = tuple(v[0] for v in shares)
    else:
        kwargs.update(extra_device_grids=grids[1:], shares=shares)
    return dict(
        space=ParameterSpace(**kwargs),
        spec=spec,
        seed=draw(st.integers(0, 3)),
        size_mb=draw(st.sampled_from([60.0, 600.0, 3170.0])),
        shards=draw(st.integers(1, 4)),
        processes=draw(st.sampled_from([None, None, None, 2])),
    )


class _StepModel:
    """Picklable predictor whose times take few distinct values."""

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        return np.ceil(X[:, -1] / (X[:, 0] * 8.0))


PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_same_walk(separable, faithful, space):
    assert separable.best_config == faithful.best_config
    assert separable.best_energy == faithful.best_energy
    assert separable.configurations == faithful.configurations == space.size()


@PROPERTY_SETTINGS
@given(walks())
def test_separable_walk_equals_faithful_walk(walk):
    space, spec, seed, size_mb = walk["space"], walk["spec"], walk["seed"], walk["size_mb"]
    faithful = enumerate_best(
        space, MeasurementEvaluator(PlatformSimulator(spec, seed=seed)), size_mb
    )
    separable = enumerate_best_separable(
        space,
        PlatformSimulator(spec, seed=seed),
        size_mb,
        shards=walk["shards"],
        processes=walk["processes"],
    )
    assert_same_walk(separable, faithful, space)


@PROPERTY_SETTINGS
@given(walks())
def test_separable_ml_walk_equals_faithful_walk_under_ties(walk):
    space, size_mb = walk["space"], walk["size_mb"]
    ml = MLEvaluator(_StepModel(), _StepModel())
    faithful = enumerate_best(space, ml, size_mb)
    separable = enumerate_best_separable_ml(
        space, ml, size_mb, shards=walk["shards"], processes=walk["processes"]
    )
    assert_same_walk(separable, faithful, space)
