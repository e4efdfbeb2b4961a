"""Trial task descriptors and the worker-side execution functions.

A trial is described by plain data — which workload to rebuild
(:class:`~repro.workloads.queries.WorkloadSpec`), which estimator
configuration to run (:class:`~repro.parallel.methods.MethodSpec`), the
budget, and a :class:`~repro.sampling.rng.SeedDescriptor` naming the trial's
child stream.  Workers rebuild the workload once per process (cached by
spec), optionally adopting a label cache shipped from the parent so the bulk
predicate scan runs exactly once per experiment, then execute their chunk of
trials and return compact :class:`TrialResult` records for the reduce step.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.core.estimate import CountEstimate
from repro.parallel.fingerprint import estimate_digest
from repro.parallel.methods import MethodSpec
from repro.sampling.intervals import ConfidenceInterval
from repro.sampling.rng import SeedDescriptor
from repro.workloads.queries import Workload, WorkloadSpec

#: Per-process cache of built workloads, keyed by spec.  With a forking
#: start method the parent can prime this before the pool is created and
#: every worker inherits the fully-built workload (label cache included)
#: for free; with spawn, each worker builds on first use.  Bounded so a
#: long-lived parent sweeping many (dataset, level, scale) cells does not
#: pin every table + label cache for its whole lifetime.
_WORKLOAD_CACHE: dict[WorkloadSpec, Workload] = {}
_WORKLOAD_CACHE_LIMIT = 8


def _evict_oldest() -> None:
    while len(_WORKLOAD_CACHE) > _WORKLOAD_CACHE_LIMIT:
        _WORKLOAD_CACHE.pop(next(iter(_WORKLOAD_CACHE)))


def prime_workload_cache(spec: WorkloadSpec, workload: Workload) -> None:
    """Pre-populate the per-process workload cache (parent side).

    Called before the pool is created so fork-based workers inherit the
    already-built workload instead of rebuilding it.
    """
    # Re-insert so the primed spec is the freshest entry (plain assignment
    # keeps an existing key's stale position in insertion order).
    _WORKLOAD_CACHE.pop(spec, None)
    _WORKLOAD_CACHE[spec] = workload
    _evict_oldest()


def clear_workload_cache() -> None:
    """Drop all cached workloads (tests and long-lived processes)."""
    _WORKLOAD_CACHE.clear()


def _workload_for(spec: WorkloadSpec, shared_labels: np.ndarray | None) -> Workload:
    workload = _WORKLOAD_CACHE.get(spec)
    if workload is None:
        workload = spec.build()
        workload.query.attach_label_cache(shared_labels)
        _WORKLOAD_CACHE[spec] = workload
        _evict_oldest()
    return workload


@dataclass(frozen=True)
class TrialTask:
    """One trial of one estimator configuration, as shippable data."""

    trial_index: int
    seed: SeedDescriptor
    budget: int


@dataclass(frozen=True)
class TrialResult:
    """The deterministic content of one trial's :class:`CountEstimate`.

    Heavyweight diagnostics (stratum designs, sampled index arrays) stay in
    the worker; only the fields that define the estimate — and therefore its
    fingerprint — cross the process boundary.
    """

    trial_index: int
    count: float
    proportion: float
    population_size: int
    predicate_evaluations: int
    method: str
    interval_low: float | None
    interval_high: float | None
    interval_confidence: float | None
    interval_method: str | None
    variance: float | None
    count_offset: float

    @classmethod
    def from_estimate(cls, trial_index: int, estimate: CountEstimate) -> "TrialResult":
        interval = estimate.interval
        return cls(
            trial_index=trial_index,
            count=estimate.count,
            proportion=estimate.proportion,
            population_size=estimate.population_size,
            predicate_evaluations=estimate.predicate_evaluations,
            method=estimate.method,
            interval_low=interval.low if interval is not None else None,
            interval_high=interval.high if interval is not None else None,
            interval_confidence=interval.confidence if interval is not None else None,
            interval_method=interval.method if interval is not None else None,
            variance=estimate.variance,
            count_offset=estimate.count_offset,
        )

    def to_estimate(self) -> CountEstimate:
        """Rebuild a (diagnostics-free) :class:`CountEstimate`."""
        interval = None
        if self.interval_low is not None:
            interval = ConfidenceInterval(
                low=self.interval_low,
                high=self.interval_high,
                confidence=self.interval_confidence,
                method=self.interval_method,
            )
        return CountEstimate(
            count=self.count,
            proportion=self.proportion,
            population_size=self.population_size,
            predicate_evaluations=self.predicate_evaluations,
            method=self.method,
            interval=interval,
            variance=self.variance,
            count_offset=self.count_offset,
        )


class ChunkCorruptionError(RuntimeError):
    """A chunk result envelope failed its integrity check.

    Raised by :func:`open_chunk` when the payload's digest does not match —
    whether from an injected ``corrupt`` fault or a real transport bug.  The
    pool treats it as retryable: the chunk is re-executed, never patched.
    """


@dataclass(frozen=True)
class ChunkEnvelope:
    """A chunk result payload sealed with its own content digest.

    Workers pickle their chunk's results and stamp the bytes with SHA-256
    before shipping; the parent verifies on open.  The envelope turns silent
    result corruption (a bit flip in transit, a buggy serializer) into a
    loud, *retryable* failure — the same recovery path as a killed worker.
    """

    data: bytes
    digest: bytes


def seal_chunk(payload: Any) -> ChunkEnvelope:
    """Pickle ``payload`` and seal it with its SHA-256 digest."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return ChunkEnvelope(data=data, digest=hashlib.sha256(data).digest())


def open_chunk(envelope: ChunkEnvelope) -> Any:
    """Verify an envelope's digest, then unpickle its payload."""
    if hashlib.sha256(envelope.data).digest() != envelope.digest:
        raise ChunkCorruptionError(
            f"chunk envelope digest mismatch over {len(envelope.data)} bytes"
        )
    return pickle.loads(envelope.data)


@dataclass(frozen=True)
class TrialFingerprint:
    """One trial reduced to its 32-byte estimate digest.

    The compact wire form for verification-only runs: when the caller needs
    equivalence evidence rather than estimates, workers buffer their chunk's
    digests and only these bytes cross the pipe.
    """

    trial_index: int
    digest: bytes


def run_single_trial(
    workload: Workload,
    method_spec: MethodSpec,
    task: TrialTask,
) -> CountEstimate:
    """Execute one trial inside a fresh accounting scope.

    The accounting reset lives here — with the task, not with the runner —
    so concurrent trials on per-worker workload copies never race on shared
    counters and serial runners stop mutating state another method's trials
    may observe.
    """
    if not obs.enabled():
        with workload.query.fresh_accounting():
            return method_spec.build_trial_function()(workload, task.seed.resolve(), task.budget)
    # Instrumented path: a root span per trial plus the per-method duration
    # histogram.  Timing only — the trial body is identical to the fast path.
    started = time.perf_counter()
    with obs.span("trial", method=method_spec.method, trial=task.trial_index):
        with workload.query.fresh_accounting():
            estimate = method_spec.build_trial_function()(
                workload, task.seed.resolve(), task.budget
            )
    registry = obs.registry()
    registry.inc(obs.TRIALS_TOTAL, method=method_spec.method)
    registry.observe(
        obs.TRIAL_SECONDS, time.perf_counter() - started, method=method_spec.method
    )
    return estimate


def execute_trials(
    workload: Workload,
    method_spec: MethodSpec,
    tasks: tuple[TrialTask, ...],
    result_mode: str = "estimates",
) -> list[TrialResult] | list[TrialFingerprint]:
    """Run a chunk of trials against an already-resolved workload.

    The single execution path shared by the serial shortcut, the cold
    (per-run executor) engine and the warm pool — which is what keeps their
    results byte-identical.  Trials within the chunk run in task order; each
    draws only from its own child stream, so chunking never affects results.

    ``result_mode`` selects what crosses the process boundary:
    ``"estimates"`` returns full :class:`TrialResult` records;
    ``"fingerprints"`` buffers each trial down to its 32-byte digest for
    verification-only callers.
    """
    if result_mode == "fingerprints":
        return [
            TrialFingerprint(
                task.trial_index, estimate_digest(run_single_trial(workload, method_spec, task))
            )
            for task in tasks
        ]
    if result_mode != "estimates":
        raise ValueError(
            f"unknown result_mode {result_mode!r}; choose 'estimates' or 'fingerprints'"
        )
    return [
        TrialResult.from_estimate(task.trial_index, run_single_trial(workload, method_spec, task))
        for task in tasks
    ]


def execute_trial_chunk(
    workload_spec: WorkloadSpec,
    method_spec: MethodSpec,
    tasks: tuple[TrialTask, ...],
    shared_labels: np.ndarray | None = None,
) -> list[TrialResult]:
    """Cold worker entry point: resolve the workload, then run the chunk.

    Module-level (hence picklable by reference) and pure apart from the
    per-process workload cache.  Retained for the legacy per-run executor
    path; the warm pool resolves its workload once at worker start instead
    (:mod:`repro.parallel.pool`) and goes straight to :func:`execute_trials`.
    """
    workload = _workload_for(workload_spec, shared_labels)
    return execute_trials(workload, method_spec, tasks)
