"""The four optimization methods of Table II: EM, EML, SAM, SAML.

Each method couples a space-exploration strategy (enumeration or
simulated annealing) with an evaluation strategy (measurements or the
trained ML predictor) and returns a uniform :class:`MethodResult`.

For methods that search on *predicted* times (EML, SAML) the suggested
configuration's reported quality is its **measured** execution time —
the paper does the same for fair comparison ("The EML and SAML use the
predicted execution times ... however for fair comparison we use the
measured values", section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines.simulator import PlatformSimulator
from .annealing import AnnealingResult, SimulatedAnnealing
from .energy import Energy
from .engine import EvaluationEngine
from .enumeration import (
    enumerate_best,
    enumerate_best_separable,
    enumerate_best_separable_ml,
)
from .evaluators import EnergyObjective, MeasurementEvaluator, MLEvaluator
from .params import ParameterSpace, SystemConfiguration

#: Table II, verbatim.
METHOD_PROPERTIES: dict[str, dict[str, str]] = {
    "EM": {
        "space_exploration": "Enumeration",
        "evaluation": "Measurements",
        "effort": "high",
        "accuracy": "optimal",
        "prediction": "no",
    },
    "EML": {
        "space_exploration": "Enumeration",
        "evaluation": "Machine Learning",
        "effort": "high",
        "accuracy": "near-optimal",
        "prediction": "yes",
    },
    "SAM": {
        "space_exploration": "Simulated Annealing",
        "evaluation": "Measurements",
        "effort": "medium",
        "accuracy": "near-optimal",
        "prediction": "no",
    },
    "SAML": {
        "space_exploration": "Simulated Annealing",
        "evaluation": "Machine Learning",
        "effort": "medium",
        "accuracy": "near-optimal",
        "prediction": "yes",
    },
}


@dataclass(frozen=True)
class MethodResult:
    """Uniform outcome of one optimization method.

    Frozen: results are shared (the campaign layer caches EM references
    per cell), so they must stay immutable after construction.
    """

    method: str
    config: SystemConfiguration
    measured: Energy  # measured energy of the suggested configuration
    search_energy: Energy  # energy the search itself saw (may be predicted)
    experiments: int  # timed experiments consumed by the search
    search_evaluations: int  # configurations scored during the search
    annealing: AnnealingResult | None = None

    @property
    def measured_time(self) -> float:
        """Measured E of the suggested configuration (seconds)."""
        return self.measured.value


def _measure_config(
    sim: PlatformSimulator, config: SystemConfiguration, size_mb: float
) -> Energy:
    evaluator = MeasurementEvaluator(sim)
    return evaluator.evaluate(config, size_mb)


def run_em(
    space: ParameterSpace,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    separable_fast_path: bool = True,
    engine: EvaluationEngine | None = None,
    shards: int = 1,
    refine: float | None = None,
    processes: int | None = None,
    start_method: str | None = None,
) -> MethodResult:
    """Enumeration + Measurements: certain optimum, maximal effort.

    The default separable fast path computes the per-part measurement
    grids directly and never consults ``engine`` (its stats stay at
    zero for EM); the engine only backs the faithful per-configuration
    walk (``separable_fast_path=False``).  Both walks pick the same
    configuration: the earliest in Table I order among those at the
    minimum energy.  ``shards`` / ``refine`` / ``processes`` /
    ``start_method`` are the scale-out knobs of
    :func:`~repro.core.enumeration.enumerate_best_separable` and apply
    to every device count (the faithful walk ignores them).
    """
    if separable_fast_path:
        res = enumerate_best_separable(
            space,
            sim,
            size_mb,
            shards=shards,
            refine=refine,
            processes=processes,
            start_method=start_method,
        )
    else:
        evaluator = MeasurementEvaluator(sim)
        res = enumerate_best(space, evaluator, size_mb, engine=engine)  # type: ignore[assignment]
    return MethodResult(
        method="EM",
        config=res.best_config,
        measured=res.best_energy,
        search_energy=res.best_energy,
        experiments=res.configurations,
        search_evaluations=res.configurations,
    )


def run_eml(
    space: ParameterSpace,
    ml: MLEvaluator,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    shards: int = 1,
    refine: float | None = None,
    processes: int | None = None,
    start_method: str | None = None,
) -> MethodResult:
    """Enumeration + Machine Learning: full space walk on predictions.

    Consumes zero search-time experiments (plus one final measurement of
    the suggested configuration for reporting).  The walk is the
    separable ML walk of
    :func:`~repro.core.enumeration.enumerate_best_separable_ml` for
    every device count — one vectorized prediction grid per part, the
    same configuration :func:`~repro.core.enumeration.enumerate_best`
    on ``ml`` would pick — and honors the ``shards`` / ``refine`` /
    ``processes`` / ``start_method`` scale-out knobs.
    """
    res = enumerate_best_separable_ml(
        space,
        ml,
        size_mb,
        shards=shards,
        refine=refine,
        processes=processes,
        start_method=start_method,
    )
    measured = _measure_config(sim, res.best_config, size_mb)
    return MethodResult(
        method="EML",
        config=res.best_config,
        measured=measured,
        search_energy=res.best_energy,
        experiments=1,
        search_evaluations=res.configurations,
    )


def run_sam(
    space: ParameterSpace,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    iterations: int = 1000,
    seed: int = 0,
    initial_temperature: float = 1.0,
    engine: EvaluationEngine | None = None,
) -> MethodResult:
    """Simulated Annealing + Measurements."""
    evaluator = MeasurementEvaluator(sim)
    sa = SimulatedAnnealing(
        space, seed=seed, initial_temperature=initial_temperature, engine=engine
    )
    run = sa.run(EnergyObjective(evaluator, size_mb), iterations=iterations)
    return MethodResult(
        method="SAM",
        config=run.best_config,
        measured=run.best_energy,  # SAM searched on measurements already
        search_energy=run.best_energy,
        experiments=evaluator.evaluations,
        search_evaluations=run.iterations + 1,  # +1 for the initial solution
        annealing=run,
    )


def run_saml(
    space: ParameterSpace,
    ml: MLEvaluator,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    iterations: int = 1000,
    seed: int = 0,
    initial_temperature: float = 1.0,
    engine: EvaluationEngine | None = None,
) -> MethodResult:
    """Simulated Annealing + Machine Learning: the paper's headline method.

    Searches entirely on predictions; only the finally suggested
    configuration is measured.
    """
    sa = SimulatedAnnealing(
        space, seed=seed, initial_temperature=initial_temperature, engine=engine
    )
    run = sa.run(EnergyObjective(ml, size_mb), iterations=iterations)
    measured = _measure_config(sim, run.best_config, size_mb)
    return MethodResult(
        method="SAML",
        config=run.best_config,
        measured=measured,
        search_energy=run.best_energy,
        experiments=1,
        search_evaluations=run.iterations + 1,
        annealing=run,
    )


def run_method(
    method: str,
    space: ParameterSpace,
    sim: PlatformSimulator,
    size_mb: float,
    *,
    ml: MLEvaluator | None = None,
    iterations: int = 1000,
    seed: int = 0,
    engine: EvaluationEngine | None = None,
    shards: int = 1,
    refine: float | None = None,
    processes: int | None = None,
    start_method: str | None = None,
) -> MethodResult:
    """Dispatch by method name ("EM", "EML", "SAM", "SAML").

    ``engine`` selects the evaluation backend for the search phase (see
    :mod:`repro.core.engine`); method results are engine-independent for
    the deterministic evaluators used here; EML never consults it.
    ``shards`` / ``refine`` / ``processes`` / ``start_method`` apply to
    the enumeration methods (annealing searches ignore them).
    """
    method = method.upper()
    if method == "EM":
        return run_em(
            space,
            sim,
            size_mb,
            engine=engine,
            shards=shards,
            refine=refine,
            processes=processes,
            start_method=start_method,
        )
    if method == "EML":
        if ml is None:
            raise ValueError("EML requires a trained MLEvaluator")
        return run_eml(
            space,
            ml,
            sim,
            size_mb,
            shards=shards,
            refine=refine,
            processes=processes,
            start_method=start_method,
        )
    if method == "SAM":
        return run_sam(space, sim, size_mb, iterations=iterations, seed=seed, engine=engine)
    if method == "SAML":
        if ml is None:
            raise ValueError("SAML requires a trained MLEvaluator")
        return run_saml(
            space, ml, sim, size_mb, iterations=iterations, seed=seed, engine=engine
        )
    raise ValueError(f"unknown method {method!r}; expected EM/EML/SAM/SAML")
