"""One frozen options object for the execution knobs of every tuner entry.

Historically ``engine`` / ``batch_size`` / ``shards`` / ``refine`` /
``processes`` / ``start_method`` were hand-copied through
:func:`~repro.core.campaign.tune_platform`,
:func:`~repro.core.campaign.tune_scenario`,
:func:`~repro.core.campaign.tune_campaign`,
:func:`~repro.core.campaign.tune_matrix`, the CLI, and the service — six
keyword lists that had to be kept in sync by hand.  :class:`TuningOptions`
consolidates them: every entry point takes ``options=`` (``None`` means
the defaults), and the CLI and the service build one.

The split of responsibilities is deliberate:

* ``engine`` / ``batch_size`` / ``refine`` change *what is computed*
  (engine statistics are embedded in reports; ``refine`` changes the
  enumerated fidelity) and therefore belong to the request identity
  (:meth:`repro.service.store.CellKey.for_request` consumes these).
* ``shards`` / ``processes`` / ``start_method`` / ``retry`` change only
  *how* the computation is executed — results are bit-identical by
  construction — so they never enter cache keys or the store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.reliability import RetryPolicy

from .engine import EvaluationEngine

if TYPE_CHECKING:  # import cycle: portfolio consumes TuningOptions-tuned cells
    from .portfolio import PortfolioSpec

@dataclass(frozen=True)
class TuningOptions:
    """Execution knobs shared by all tuning entry points.

    Attributes
    ----------
    engine:
        Evaluation backend: an engine *name* (``serial`` / ``cached`` /
        ``batched`` / ``cached+batched``, see
        :func:`~repro.core.engine.make_engine`), an
        :class:`~repro.core.engine.EvaluationEngine` instance (shared
        across cells — its statistics then aggregate), or ``None`` to
        call evaluators directly.
    batch_size:
        Configurations per batch when ``engine`` names a batched engine.
    shards:
        Share-grid shard count for enumeration (bit-identical for any
        count, see
        :func:`~repro.core.enumeration.enumerate_best_separable`).
    refine:
        Coarse-to-fine target share step [%] for enumeration, or
        ``None`` for the space's own grid only.
    processes:
        Fan campaign/matrix cells (or enumeration shards) out over this
        many worker processes; ``None``/``1`` runs serially.
    start_method:
        Pool start method override (default: safest available, see
        :data:`~repro.core.pool.START_METHOD_PREFERENCE`).
    retry:
        :class:`~repro.reliability.RetryPolicy` governing pooled
        dispatch (re-dispatch of crashed/timed-out tasks, pool rebuild,
        serial degradation — see :func:`~repro.core.pool.run_tasks`);
        ``None`` uses :data:`~repro.reliability.DEFAULT_RETRY_POLICY`.
        Execution-only, like ``processes``: never part of cache keys.
    transfer:
        Warm-start ML training from the cell's nearest already-rankable
        neighbor (:mod:`repro.ml.transfer`) instead of training from
        scratch.  Changes the fitted models and the training budget, so
        it is part of the request identity
        (:meth:`repro.service.store.CellKey.for_request`).
    portfolio:
        A :class:`~repro.core.portfolio.PortfolioSpec` racing the
        searcher portfolio under successive halving instead of running a
        single named method, or ``None`` for the classic single-method
        path.  Part of the request identity (the winner and its budget
        ledger depend on the schedule).
    """

    engine: str | EvaluationEngine | None = "cached+batched"
    batch_size: int = 64
    shards: int = 1
    refine: float | None = None
    processes: int | None = None
    start_method: str | None = None
    retry: RetryPolicy | None = None
    transfer: bool = False
    portfolio: "PortfolioSpec | None" = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.refine is not None and self.refine <= 0:
            raise ValueError(f"refine must be positive, got {self.refine}")
        if self.processes is not None and self.processes < 1:
            raise ValueError(f"processes must be >= 1, got {self.processes}")

    def for_cell(self) -> "TuningOptions":
        """The per-cell view of fleet-level options.

        Campaigns and matrices consume ``processes`` / ``start_method``
        at the fan-out level; the per-cell computation must not nest
        another pool, so cells receive this stripped copy.
        """
        if self.processes is None and self.start_method is None:
            return self
        return replace(self, processes=None, start_method=None)

    def engine_instance(self) -> EvaluationEngine | None:
        """Materialize ``engine`` (names become fresh instances).

        Callers that want per-cell engine statistics call this once per
        cell; an explicit :class:`~repro.core.engine.EvaluationEngine`
        instance is returned as-is (deliberately shared).
        """
        if isinstance(self.engine, str):
            from .engine import make_engine

            return make_engine(self.engine, batch_size=self.batch_size)
        return self.engine

    @property
    def engine_name(self) -> str | None:
        """The engine's registry name, or ``None`` for direct evaluation.

        Engine *instances* report their class-derived name so request
        identities (:class:`~repro.service.store.CellKey`) stay stable
        whether the caller passed a name or a pre-built instance.
        """
        if self.engine is None or isinstance(self.engine, str):
            return self.engine
        return type(self.engine).__name__
