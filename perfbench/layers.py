"""Outside-in layer tracing: wrap each layer's public callables, time self time.

Nothing here lives in ``src/``.  :class:`LayerTracer` replaces a callable
*where its caller looks it up* — a class attribute for methods, the importing
module's global for functions bound with ``from ... import`` (so
``repro.core.lss.dynpgm_design`` is patched, not only its definition) — and
restores every original on :meth:`LayerTracer.uninstall`.

Each wrapped call is a span on a per-thread stack.  A span's self time is its
duration minus the time its child spans cover; self times are summed per
layer, so the layers of one request add up to the time its spans cover.  Two
boundaries are not calls and are timed as gaps instead:

* ``server.pre`` / ``server.post`` — client send to ``Session`` method entry,
  and method return to reply received, paired by the request's seed;
* ``session.lock_wait`` — ``Session`` method entry to its first
  ``ResidentWorkload.workload`` call, which runs under the resident's lock.

The wrappers read only ``time.perf_counter`` and the sizes of arguments and
results; they never touch seeds or estimate values, so a traced request's
fingerprint equals the untraced one (the harness checks this).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: (import path of the owner, attribute, span name, layer).  Owners are
#: classes (methods resolved through the class at call time) or the module
#: whose global the caller reads.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.service.session:Session", "sweep", "Session.sweep", "session"),
    ("repro.service.session:Session", "estimate", "Session.estimate", "session"),
    ("repro.service.session:ResidentWorkload", "workload", "ResidentWorkload.workload", "session"),
    ("repro.service.session", "execute_trials", "session.execute_trials", "trials"),
    ("repro.parallel.runner", "execute_trials", "runner.execute_trials", "trials"),
    ("repro.parallel.runner", "shared_pool", "runner.shared_pool", "pool"),
    ("repro.parallel.pool:WarmPool", "run", "WarmPool.run", "pool"),
    ("repro.service.sweep", "learn_scores", "sweep.learn_scores", "learning"),
    ("repro.core.lss", "run_learning_phase", "lss.run_learning_phase", "learning"),
    ("repro.core.lws", "run_learning_phase", "lws.run_learning_phase", "learning"),
    ("repro.core.scores", "run_learning_phase", "scores.run_learning_phase", "learning"),
    ("repro.learning.forest:RandomForestClassifier", "fit", "RandomForest.fit", "learning"),
    ("repro.learning.forest:RandomForestClassifier", "predict_scores",
     "RandomForest.predict_scores", "learning"),
    ("repro.core.lss:LearnedStratifiedSampling", "estimate", "LSS.estimate", "estimator"),
    ("repro.core.lss:LearnedStratifiedSampling", "estimate_from_scores",
     "LSS.estimate_from_scores", "estimator"),
    ("repro.core.lws:LearnedWeightedSampling", "estimate", "LWS.estimate", "estimator"),
    ("repro.core.lws:LearnedWeightedSampling", "estimate_from_scores",
     "LWS.estimate_from_scores", "estimator"),
    ("repro.core.lss", "dynpgm_design", "lss.dynpgm_design", "design"),
    ("repro.core.stratification.dynpgm", "candidate_boundary_cuts",
     "dynpgm.candidate_boundary_cuts", "design"),
    ("repro.sampling.weighted:WeightedSampling", "estimate", "WeightedSampling.estimate",
     "sampling"),
    ("repro.sampling.stratified:StratifiedSampling", "allocate", "StratifiedSampling.allocate",
     "sampling"),
    ("repro.sampling.stratified:StratifiedSampling", "estimate_from_samples",
     "StratifiedSampling.estimate_from_samples", "sampling"),
    ("repro.query.counting:CountingQuery", "evaluate", "CountingQuery.evaluate", "oracle"),
    ("repro.query.backends:NumpyBackend", "evaluate", "NumpyBackend.evaluate", "backend"),
    ("repro.query.backends:NumpyBackend", "evaluate_all", "NumpyBackend.evaluate_all",
     "backend"),
    ("repro.query.backends:SqliteBackend", "evaluate", "SqliteBackend.evaluate", "backend"),
    ("repro.query.backends:SqliteBackend", "evaluate_all", "SqliteBackend.evaluate_all",
     "backend"),
    ("repro.workloads.queries", "build_workload", "queries.build_workload", "build"),
)

#: Layers whose self time counts as attributed; ``trials`` (task glue in
#: ``repro.parallel``) and anything unwrapped is left to ``unattributed``.
ATTRIBUTED_LAYERS = (
    "server.pre", "server.post", "session", "session.lock_wait", "learning",
    "estimator", "design", "sampling", "oracle", "backend", "pool",
)

_SESSION_SPANS = ("Session.sweep", "Session.estimate")


def _resolve(path: str):
    module_name, _, attribute = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attribute) if attribute else owner


class _Frame:
    __slots__ = ("name", "layer", "started", "child", "lock_marked")

    def __init__(self, name: str, layer: str, started: float) -> None:
        self.name = name
        self.layer = layer
        self.started = started
        self.child = 0.0
        self.lock_marked = False


class LayerTracer:
    """Patch the layer callables in :data:`TARGETS` and account their time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- accounting ------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed)."""
        with self._lock:
            #: span name -> number of calls / inclusive seconds
            self.calls: dict[str, int] = defaultdict(int)
            self.inclusive: dict[str, float] = defaultdict(float)
            #: layer -> summed self seconds
            self.self_seconds: dict[str, float] = defaultdict(float)
            #: span name -> first call's inclusive seconds (set-up attribution)
            self.first: dict[str, float] = {}
            self.candidate_cuts: list[int] = []
            self.pilot_sizes: list[int] = []
            self._session_times: dict[int, list[float]] = {}
            self._sent: dict[int, float] = {}

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, layer: str) -> _Frame:
        now = time.perf_counter()
        stack = self._stack()
        if name == "ResidentWorkload.workload" and stack:
            top = stack[-1]
            if top.name in _SESSION_SPANS and not top.lock_marked:
                waited = now - top.started
                top.child += waited
                top.lock_marked = True
                with self._lock:
                    self.self_seconds["session.lock_wait"] += waited
        frame = _Frame(name, layer, now)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.started
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.calls[frame.name] += 1
            self.inclusive[frame.name] += duration
            self.first.setdefault(frame.name, duration)
            self.self_seconds[frame.layer] += duration - frame.child

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "dynpgm.candidate_boundary_cuts":
            with self._lock:
                self.candidate_cuts.append(len(result))
        elif name == "lss.dynpgm_design":
            with self._lock:
                self.pilot_sizes.append(int(args[0].positions.size))

    # -- request boundaries ----------------------------------------------------
    def request_sent(self, seed: int) -> None:
        with self._lock:
            self._sent[seed] = time.perf_counter()

    def request_answered(self, seed: int) -> None:
        """Charge the client-side gaps around the session call for ``seed``."""
        answered = time.perf_counter()
        with self._lock:
            sent = self._sent.pop(seed, None)
            times = self._session_times.pop(seed, None)
            if sent is None or times is None or len(times) != 2:
                return
            entered, returned = times
            self.self_seconds["server.pre"] += entered - sent
            self.self_seconds["server.post"] += answered - returned

    # -- patching --------------------------------------------------------------
    def _wrap(self, original, name: str, layer: str):
        tracer = self
        observed = name in ("dynpgm.candidate_boundary_cuts", "lss.dynpgm_design")
        is_session = name in _SESSION_SPANS

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            seed = kwargs.get("seed") if is_session else None
            frame = tracer._enter(name, layer)
            if seed is not None:
                with tracer._lock:
                    tracer._session_times[seed] = [frame.started]
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if seed is not None:
                    with tracer._lock:
                        times = tracer._session_times.get(seed)
                        if times is not None:
                            times.append(time.perf_counter())
            if observed:
                tracer._observe(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        for path, attribute, name, layer in TARGETS:
            owner = _resolve(path)
            original = (
                owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            )
            setattr(owner, attribute, self._wrap(original, name, layer))
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# -- per-layer metrics ---------------------------------------------------------

#: Per-layer metrics in the result line of a traced run, with units.
PER_LAYER_UNITS = {
    "server.pre_session_ms": "ms",
    "server.post_session_ms": "ms",
    "session.lock_wait_ms": "ms",
    "session.self_ms": "ms",
    "sweep.scores_cache_hit_ratio": "ratio",
    "sweep.design_cache_hit_ratio": "ratio",
    "learning.phase_ms": "ms",
    "learning.fit_ms": "ms",
    "learning.score_ms": "ms",
    "learning.calls_per_estimate": "count",
    "estimator.self_ms": "ms",
    "design.ms": "ms",
    "design.calls_per_estimate": "count",
    "design.candidate_cuts": "count",
    "design.pilot_size": "count",
    "sampling.self_ms": "ms",
    "oracle.batches_per_estimate": "count",
    "oracle.objects_per_estimate": "count",
    "oracle.ms": "ms",
    "backend.evaluate_ms": "ms",
    "backend.evaluate_all_s": "s",
    "backend.sql_roundtrips_per_estimate": "count",
    "backend.rows_scanned_per_estimate": "count",
    "pool.run_ms": "ms",
    "pool.trial_ms": "ms",
    "pool.queue_wait_ms": "ms",
    "pool.busy_ratio": "ratio",
    "pool.chunk_retries": "count",
    "pool.rebuilds": "count",
    "setup.build_s": "s",
    "setup.learn_s": "s",
    "setup.pool_start_s": "s",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

def histogram_totals(registry, name: str, stage_suffix: str | None = None) -> tuple[int, float]:
    """(count, sum) of an obs histogram over its label sets.

    With ``stage_suffix``, only label sets whose ``stage`` ends with it count
    (``".learning"`` matches both ``lss.learning`` and ``lws.learning``).
    """
    count, total = 0, 0.0
    for (metric, labels), histogram in registry.iter_histograms():
        if metric != name:
            continue
        if stage_suffix is not None and not dict(labels).get("stage", "").endswith(stage_suffix):
            continue
        count += histogram.count
        total += histogram.total
    return count, total


@dataclass
class SetupCapture:
    """Set-up attribution, taken right after a traced set-up.

    Inside pool workers nothing is wrapped; their learning and trial time
    come from the obs registry the pool merges back, divided by the worker
    count to put them on the wall clock.
    """

    build_s: float
    learn_s: float
    pool_start_s: float
    evaluate_all_s: float

    @classmethod
    def take(cls, tracer: LayerTracer, workers: int) -> "SetupCapture":
        from repro import obs

        registry = obs.registry()
        first = tracer.first
        if "WarmPool.run" in first:
            learn_s = histogram_totals(registry, obs.STAGE_SECONDS, ".learning")[1] / workers
            trial_s = histogram_totals(registry, obs.TRIAL_SECONDS)[1] / workers
            pool_start_s = first.get("runner.shared_pool", 0.0) + max(
                0.0, first["WarmPool.run"] - trial_s
            )
        else:
            learn_s = first.get("sweep.learn_scores", first.get("lss.run_learning_phase", 0.0))
            pool_start_s = 0.0
        return cls(
            build_s=first.get("queries.build_workload", 0.0),
            learn_s=learn_s,
            pool_start_s=pool_start_s,
            evaluate_all_s=first.get("NumpyBackend.evaluate_all", 0.0)
            + first.get("SqliteBackend.evaluate_all", 0.0),
        )


def layer_metrics(
    tracer: LayerTracer,
    latencies: list[float],
    estimates: int,
    setup: SetupCapture,
    cache_counts: dict[str, tuple[int, int]],
    untraced_p50: float,
    workers: int,
) -> dict[str, float]:
    """Per-layer metrics of a traced window, per request or per estimate.

    ``latencies`` are the window's served requests; ``cache_counts`` maps
    ``"scores"`` / ``"design"`` to the (hits, misses) the window added.
    """
    from repro import obs

    registry = obs.registry()
    requests = max(len(latencies), 1)
    estimates = max(estimates, 1)
    incl, calls, own = tracer.inclusive, tracer.calls, tracer.self_seconds
    pooled = calls.get("WarmPool.run", 0) > 0

    def per_request_ms(layer: str) -> float:
        return own.get(layer, 0.0) / requests * 1e3

    def per_estimate_ms(seconds: float) -> float:
        return seconds / estimates * 1e3

    def hit_ratio(name: str) -> float:
        hits, misses = cache_counts[name]
        return hits / (hits + misses) if hits + misses else 0.0

    def stage_seconds(suffix: str) -> float:
        return histogram_totals(registry, obs.STAGE_SECONDS, suffix)[1]

    trial_count, trial_seconds = histogram_totals(registry, obs.TRIAL_SECONDS)
    wait_count, wait_seconds = histogram_totals(registry, obs.POOL_QUEUE_WAIT_SECONDS)
    batches, _ = histogram_totals(registry, obs.PREDICATE_BATCH_ROWS)
    if pooled:
        # Worker-side stage spans (inclusive); estimator and kernels unsplit.
        learning_phase = stage_seconds(".learning")
        learning_score = stage_seconds(".scoring")
        design = stage_seconds(".design")
        sampling = stage_seconds(".sampling") + stage_seconds(".pilot") + stage_seconds(".stage2")
    else:
        learning_phase = sum(
            incl.get(name, 0.0)
            for name in ("lss.run_learning_phase", "lws.run_learning_phase",
                         "scores.run_learning_phase")
        )
        learning_score = incl.get("RandomForest.predict_scores", 0.0)
        design = incl.get("lss.dynpgm_design", 0.0)
        sampling = own.get("sampling", 0.0)
    pool_wall = incl.get("WarmPool.run", 0.0)
    attributed = sum(own.get(layer, 0.0) for layer in ATTRIBUTED_LAYERS) / requests
    return {
        "server.pre_session_ms": per_request_ms("server.pre"),
        "server.post_session_ms": per_request_ms("server.post"),
        "session.lock_wait_ms": per_request_ms("session.lock_wait"),
        "session.self_ms": per_request_ms("session"),
        "sweep.scores_cache_hit_ratio": hit_ratio("scores"),
        "sweep.design_cache_hit_ratio": hit_ratio("design"),
        "learning.phase_ms": per_estimate_ms(learning_phase),
        "learning.fit_ms": per_estimate_ms(incl.get("RandomForest.fit", 0.0)),
        "learning.score_ms": per_estimate_ms(learning_score),
        "learning.calls_per_estimate": registry.counter_total(
            obs.ORACLE_CALLS, stage="learning.label"
        ) / estimates,
        "estimator.self_ms": per_estimate_ms(own.get("estimator", 0.0)),
        "design.ms": per_estimate_ms(design),
        "design.calls_per_estimate": calls.get("lss.dynpgm_design", 0) / estimates,
        "design.candidate_cuts": statistics.fmean(tracer.candidate_cuts)
        if tracer.candidate_cuts else 0.0,
        "design.pilot_size": statistics.fmean(tracer.pilot_sizes) if tracer.pilot_sizes else 0.0,
        "sampling.self_ms": per_estimate_ms(sampling),
        "oracle.batches_per_estimate": batches / estimates,
        "oracle.objects_per_estimate": registry.counter_total(obs.ORACLE_CALLS) / estimates,
        "oracle.ms": per_estimate_ms(own.get("oracle", 0.0)),
        "backend.evaluate_ms": per_estimate_ms(
            incl.get("NumpyBackend.evaluate", 0.0) + incl.get("SqliteBackend.evaluate", 0.0)
        ),
        "backend.evaluate_all_s": setup.evaluate_all_s,
        "backend.sql_roundtrips_per_estimate": registry.counter_total(obs.SQL_ROUNDTRIPS)
        / estimates,
        "backend.rows_scanned_per_estimate": registry.counter_total(obs.BACKEND_ROWS_SCANNED)
        / estimates,
        "pool.run_ms": pool_wall / calls["WarmPool.run"] * 1e3 if pooled else 0.0,
        "pool.trial_ms": trial_seconds / trial_count * 1e3 if pooled and trial_count else 0.0,
        "pool.queue_wait_ms": wait_seconds / wait_count * 1e3 if wait_count else 0.0,
        "pool.busy_ratio": trial_seconds / (workers * pool_wall) if pooled and pool_wall else 0.0,
        "pool.chunk_retries": registry.counter_total(obs.CHUNK_RETRIES),
        "pool.rebuilds": registry.counter_total(obs.POOL_REBUILDS),
        "setup.build_s": setup.build_s,
        "setup.learn_s": setup.learn_s,
        "setup.pool_start_s": setup.pool_start_s,
        "trace.unattributed_ms": (statistics.fmean(latencies) - attributed) * 1e3
        if latencies else 0.0,
        "trace.overhead_ratio": statistics.median(latencies) / untraced_p50
        if latencies and untraced_p50 else 0.0,
    }


def largest_self_time(tracer: LayerTracer, predicted: tuple[str, ...]) -> str:
    """Whether the layers with most self time are exactly the predicted ones."""
    ranked = sorted(tracer.self_seconds.items(), key=lambda item: item[1], reverse=True)
    measured = tuple(layer for layer, _ in ranked[: len(predicted)])
    verdict = "confirmed" if set(measured) == set(predicted) else "NOT confirmed"
    shares = ", ".join(f"{layer} {seconds:.3f}s" for layer, seconds in ranked[:5])
    return f"largest self time: {verdict} (predicted {predicted}, measured {shares})"
