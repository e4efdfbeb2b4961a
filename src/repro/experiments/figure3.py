"""Figure 3: LSS overhead versus sample size.

The paper breaks LSS's extra work (relative to plain stratified sampling)
into three phases — P1 learning (classifier (re-)training), P1 sample design
(variance estimation + strata layout) and P2 overhead (classification,
ordering, sampling machinery) — and shows that together they are a tiny
fraction (≈0.2 %) of total runtime, which is dominated by expensive-predicate
evaluation.  This driver measures the same three phases with the real
(uncached) predicate, reading them off the :mod:`repro.obs` span tree of each
estimate (:func:`lss_phase_seconds`).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro import obs
from repro.core.lss import LearnedStratifiedSampling
from repro.experiments.common import build_scaled_workload
from repro.experiments.config import SMALL_SCALE, ExperimentScale
from repro.obs.trace import Span, iter_spans
from repro.parallel.engine import ExecutionEngine
from repro.query.counting import CountingQuery
from repro.query.predicates import CallablePredicate
from repro.sampling.rng import spawn_seeds
from repro.workloads.queries import Workload


#: LSS stages whose non-predicate time is phase-2 overhead.
_PHASE2_STAGES = ("lss.scoring", "lss.pilot", "lss.stage2")


def lss_phase_seconds(root: Span) -> dict[str, float]:
    """Figure 3's phases of the LSS estimates traced under ``root``.

    Predicate time is every ``oracle.evaluate`` span; each phase is its LSS
    stage spans minus the predicate time inside them, so the four phases are
    disjoint and add up to at most the root's duration.
    """
    stage_seconds = dict.fromkeys(("lss.learning", "lss.design", *_PHASE2_STAGES), 0.0)
    oracle_seconds = dict.fromkeys(stage_seconds, 0.0)
    for span in iter_spans(root):
        if span.name in stage_seconds:
            stage_seconds[span.name] += span.duration_seconds
            oracle_seconds[span.name] += sum(
                inner.duration_seconds
                for inner in iter_spans(span)
                if inner.name == "oracle.evaluate"
            )
    return {
        "p1_learning_s": stage_seconds["lss.learning"] - oracle_seconds["lss.learning"],
        "p1_design_s": stage_seconds["lss.design"],
        "p2_overhead_s": sum(
            stage_seconds[name] - oracle_seconds[name] for name in _PHASE2_STAGES
        ),
        "predicate_s": sum(
            span.duration_seconds for span in iter_spans(root) if span.name == "oracle.evaluate"
        ),
        "total_s": root.duration_seconds,
    }


def _with_expensive_predicate(workload: Workload, cost_seconds: float) -> Workload:
    """Wrap a workload's predicate with an artificial per-evaluation cost.

    The paper's datasets pair cheap attribute access with genuinely expensive
    user-defined predicates (its stated "primary time-bound"); the synthetic
    predicates here are index-accelerated and therefore too fast to show the
    overhead-vs-predicate breakdown.  Adding a fixed per-evaluation delay
    restores the paper's cost regime without changing any label.
    """
    if cost_seconds <= 0:
        return workload
    original = workload.query.predicate
    table = workload.query.table
    expensive = CallablePredicate(
        function=lambda tbl, index: bool(original.evaluate(tbl, np.array([index]))[0]),
        feature_columns=workload.query.feature_columns,
        bulk_function=original.evaluate_all,
        simulated_cost_seconds=cost_seconds,
    )
    query = CountingQuery(
        table,
        expensive,
        feature_columns=workload.query.feature_columns,
        name=workload.query.name + "-expensive",
        cache_labels=False,
    )
    return Workload(
        name=workload.name, level=workload.level, query=query, calibration=workload.calibration
    )


#: Per-process cache of wrapped workloads: the serial path shares one build
#: across all fraction points; each pool worker builds (at most) its own.
_WRAPPED_WORKLOADS: dict[tuple, Workload] = {}


def _wrapped_workload(
    dataset: str, level: str | float, scale: ExperimentScale, predicate_cost_seconds: float
) -> Workload:
    key = (dataset, level, scale, predicate_cost_seconds)
    workload = _WRAPPED_WORKLOADS.get(key)
    if workload is None:
        workload = build_scaled_workload(dataset, level, scale, cache_labels=False)
        workload = _with_expensive_predicate(workload, predicate_cost_seconds)
        _WRAPPED_WORKLOADS[key] = workload
    return workload


def _overhead_point(
    args: tuple[str, str | float, ExperimentScale, float, int, float],
) -> dict[str, object]:
    """Measure one (fraction) point of Figure 3.

    Module-level and spec-driven so the engine can ship it to a worker
    process: the wrapped expensive predicate closes over lambdas and cannot
    be pickled, so each worker rebuilds its own wrapped workload.  Timings
    are wall-clock measurements, not estimates, so parallel runs report the
    same structure but (legitimately) different seconds.  Each trial is
    traced with obs switched on; the caller's obs state is restored after.
    """
    dataset, level, scale, fraction, trials_per_point, predicate_cost_seconds = args
    workload = _wrapped_workload(dataset, level, scale, predicate_cost_seconds)
    budget = workload.sample_size(fraction)
    sums: Counter[str] = Counter()
    for rng in spawn_seeds(scale.seed, trials_per_point):
        previous = obs.set_enabled(True)
        try:
            with obs.span("figure3.trial") as root, workload.query.fresh_accounting():
                LearnedStratifiedSampling().estimate(workload.query, budget, seed=rng)
        finally:
            obs.set_enabled(previous)
        sums.update(lss_phase_seconds(root))
    means = {phase: seconds / trials_per_point for phase, seconds in sums.items()}
    overhead = means["p1_learning_s"] + means["p1_design_s"] + means["p2_overhead_s"]
    total = means["total_s"]
    return {
        "dataset": dataset,
        "level": level,
        "sample_size": budget,
        **{phase: round(seconds, 4) for phase, seconds in means.items()},
        "overhead_pct": round(100.0 * overhead / total, 3) if total else 0.0,
    }


def run_figure3_overhead(
    scale: ExperimentScale = SMALL_SCALE,
    dataset: str = "neighbors",
    level: str = "S",
    sample_fractions: tuple[float, ...] = (0.01, 0.02, 0.04),
    trials_per_point: int = 3,
    predicate_cost_seconds: float = 0.002,
    workers: int | None = None,
) -> list[dict[str, object]]:
    """Measure LSS phase overheads for growing sample sizes.

    With ``workers > 1`` the per-fraction points run in separate processes
    (one rebuilt workload each); timing rows keep their order.
    """
    workers = scale.workers if workers is None else workers
    engine = ExecutionEngine(workers=workers, chunk_size=1)
    tasks = [
        (dataset, level, scale, fraction, trials_per_point, predicate_cost_seconds)
        for fraction in sample_fractions
    ]
    return engine.map(_overhead_point, tasks)
