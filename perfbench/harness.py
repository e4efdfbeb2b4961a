"""One benchmark run of one workload: set-up, closed loop, checks, metrics.

A run goes through the public entry points only — ``ServerThread`` +
``request_json`` for HTTP workloads, ``repro.session(...)`` for the library
one — and owns every check on what comes back:

* every reply is a success and parses;
* every estimate spends at most its budget of predicate evaluations;
* every ``true_count`` equals the ground truth of a ``numpy`` build of the
  same spec (for the SQLite workload this is also a backend-parity check);
* one timed request is replayed serially through
  ``repro.parallel.tasks.execute_trials`` on that reference build and must
  reproduce the served fingerprint;
* the first request is re-sent at the end and its fingerprint must repeat;
* nothing leaks: no new ``repro-`` segment in ``/dev/shm``, no pool worker
  alive, the private temp directory is empty, no file of the checkout
  changed.

With ``trace=True`` the timed window is split in two: an untraced half (the
base of ``trace.overhead_ratio``) and a half with :class:`LayerTracer`
installed and ``repro.obs`` switched on, from which the per-layer metrics
come.  Checks and replays always run outside the timed window.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import (
    PER_LAYER_UNITS,
    LayerTracer,
    SetupCapture,
    histogram_totals,
    largest_self_time,
    layer_metrics,
)
from specs import RequestStream, Workload

#: End-to-end metrics in the result line of an untraced run, with units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "estimates_per_s": "1/s",
    "oracle_calls_per_estimate": "count",
    "peak_rss_mb": "MB",
}

#: Latency percentile above the median, reported once a run has this many
#: requests (ten samples beyond p90).
P90_MIN_SAMPLES = 100


@dataclass
class Reply:
    """What one request returned, reduced to what the checks need."""

    ok: bool
    started: float = 0.0
    latency: float = 0.0
    error: str | None = None
    estimates: list[tuple[float, int]] = field(default_factory=list)
    budget: int | None = None
    true_count: int | None = None
    fingerprint: str | None = None
    point_fingerprint: str | None = None


def _parse_payload(route: str, payload: dict) -> Reply:
    point = payload
    if route == "/sweep":
        points = payload["points"]
        if len(points) != 1:
            raise ValueError(f"expected one sweep point, got {len(points)}")
        point = points[0]
    return Reply(
        ok=True,
        estimates=[
            (float(item["count"]), int(item["predicate_evaluations"]))
            for item in point["estimates"]
        ],
        budget=int(payload["budget"]),
        true_count=int(point["true_count"]),
        fingerprint=str(payload["fingerprint"]),
        point_fingerprint=str(point["fingerprint"]),
    )


class HttpTarget:
    """A resident session behind a running estimate server."""

    def __init__(self, workload: Workload, scale: str) -> None:
        from repro.service.server import EstimateServer, ServerThread
        from repro.service.session import Session

        self.route = workload.route
        server = EstimateServer(
            session=Session(workload.spec(scale)), max_workers=workload.clients
        )
        self._thread = ServerThread(server=server).start()
        self.url = self._thread.url

    def call(self, body: dict, tracer: LayerTracer | None = None) -> Reply:
        from repro.service.server import request_json

        seed = body.get("seed")
        if tracer is not None:
            tracer.request_sent(seed)
        started = time.perf_counter()
        try:
            payload = request_json(self.url, self.route, body)
        except (RuntimeError, OSError, ValueError) as exc:
            return Reply(False, started, time.perf_counter() - started, error=str(exc))
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.request_answered(seed)
        try:
            reply = _parse_payload(self.route, payload)
        except (KeyError, TypeError, ValueError) as exc:
            return Reply(False, started, latency, error=f"unparseable reply: {exc!r}")
        reply.started, reply.latency = started, latency
        return reply

    def close(self) -> None:
        self._thread.stop()


class LibraryTarget:
    """A library session (``repro.session``) with a warm worker pool."""

    def __init__(self, workload: Workload, scale: str) -> None:
        import repro

        self._session = repro.session(workload.spec(scale), workers=workload.workers)

    def call(self, body: dict, tracer: LayerTracer | None = None) -> Reply:
        seed = body.get("seed")
        if tracer is not None:
            tracer.request_sent(seed)
        started = time.perf_counter()
        try:
            result = self._session.estimate(**body)
        except Exception as exc:  # the caller's boundary: count it, keep running
            return Reply(
                False, started, time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}",
            )
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.request_answered(seed)
        return Reply(
            ok=True,
            started=started,
            latency=latency,
            estimates=[(float(e.count), int(e.predicate_evaluations)) for e in result.estimates],
            budget=int(result.budget),
            true_count=int(result.true_count),
            fingerprint=result.fingerprint,
            point_fingerprint=result.fingerprint,
        )

    def close(self) -> None:
        from repro.parallel.pool import close_shared_pools

        self._session.close()
        close_shared_pools()


def open_target(workload: Workload, scale: str):
    if workload.route is None:
        return LibraryTarget(workload, scale)
    return HttpTarget(workload, scale)


@dataclass
class Phase:
    """The requests of one closed-loop window, in completion order."""

    records: list[tuple[dict, Reply]]
    started: float
    finished: float

    @property
    def served(self) -> list[Reply]:
        return [reply for _, reply in self.records if reply.ok]


def closed_loop(target, stream: RequestStream, clients: int, seconds: float,
                tracer: LayerTracer | None = None) -> Phase:
    """Each client sends its next request only after its reply arrives.

    No request starts after ``seconds``; requests in flight then complete.
    """
    lock = threading.Lock()
    records: list[tuple[dict, Reply]] = []
    started = time.perf_counter()
    deadline = started + seconds
    finished = [started]

    def client() -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    return
                body = stream.next()
            reply = target.call(body, tracer)
            with lock:
                records.append((body, reply))
                finished[0] = max(finished[0], time.perf_counter())

    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return Phase(records, started, finished[0])


# -- process and file hygiene -----------------------------------------------


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except FileNotFoundError:
        return set()


def _child_processes() -> list[tuple[int, str]]:
    """Live child processes of this process, with their command lines."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append((int(entry), cmdline.strip()))
    return children


def _cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from ``/proc/stat``."""
    with open("/proc/stat") as stat:
        fields = [int(value) for value in stat.readline().split()[1:9]]
    return fields[7], sum(fields)


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if the pool started one.

    Shared-memory pages register with it; it would otherwise outlive this
    process by a moment instead of ending before the run reports.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


class RssSampler:
    """Sample the summed resident memory of some processes every few ms.

    :meth:`peak_during` gives the peak inside one request's window, so a run
    reports the median of per-request peaks — steadier than the lifetime
    high-water mark, which is set by the single largest design of the run.
    """

    INTERVAL_SECONDS = 0.005

    def __init__(self, pids: list[int]) -> None:
        self._paths = [f"/proc/{pid}/statm" for pid in pids]
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="rss-sampler")
        self._times: list[float] = []
        self._values: list[float] = []

    def _resident_mb(self) -> float:
        pages = 0
        for path in self._paths:
            try:
                with open(path) as statm:
                    pages += int(statm.read().split()[1])
            except OSError:
                continue
        return pages * self._page_mb

    def _sample(self) -> None:
        while not self._stop.is_set():
            self._values.append(self._resident_mb())
            self._times.append(time.perf_counter())
            self._stop.wait(self.INTERVAL_SECONDS)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def peak_during(self, started: float, finished: float) -> float:
        margin = self.INTERVAL_SECONDS
        low = bisect.bisect_left(self._times, started - margin)
        high = bisect.bisect_right(self._times, finished + margin)
        return max(self._values[low:high], default=0.0)


_SKIPPED_DIRS = {"__pycache__", ".git", ".bench_build"}


def tree_state(root: Path, skip: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file under ``root`` (caches and ``skip`` excluded)."""
    state = {}
    for directory, dirs, files in os.walk(root):
        dirs[:] = [
            name for name in dirs
            if name not in _SKIPPED_DIRS and Path(directory, name) != skip
        ]
        for name in files:
            path = Path(directory, name)
            try:
                info = path.stat()
            except OSError:
                continue
            state[str(path.relative_to(root))] = (info.st_size, info.st_mtime_ns)
    return state


# -- checks -----------------------------------------------------------------


def check_reply(reply: Reply, truth: int) -> list[str]:
    """Problems with one reply (empty when it passes every per-reply check)."""
    if not reply.ok:
        return [f"request failed: {reply.error}"]
    problems = []
    if not reply.estimates:
        problems.append("reply carries no estimate")
    for _, evaluations in reply.estimates:
        if evaluations > reply.budget:
            problems.append(f"{evaluations} predicate evaluations exceed budget {reply.budget}")
    if reply.true_count != truth:
        problems.append(f"true_count {reply.true_count} != numpy ground truth {truth}")
    return problems


def replay_fingerprint(workload: Workload, scale: str, body: dict, reply: Reply, reference) -> str:
    """Re-run one served request serially through ``execute_trials``."""
    from repro.parallel.fingerprint import estimates_fingerprint
    from repro.parallel.tasks import TrialTask, execute_trials
    from repro.sampling.rng import spawn_seed_descriptors

    if workload.route == "/sweep":
        from repro.core.scores import LearnedScoresSpec
        from repro.service.sweep import ScoredMethodSpec, sweep_point_seed

        method_spec = ScoredMethodSpec(
            method=body["method"],
            anchor=workload.spec(scale),
            scores=LearnedScoresSpec(
                learn_budget=body["learn_budget"], learn_seed=body["learn_seed"]
            ),
        )
        seed = sweep_point_seed(body["seed"], 0, len(body["levels"]))
    else:
        from repro.experiments.config import parse_method_spec

        method_spec = parse_method_spec(body["method"])
        seed = body["seed"]
    descriptors = spawn_seed_descriptors(seed, body.get("num_trials", 1))
    tasks = tuple(
        TrialTask(trial_index=index, seed=descriptor, budget=reply.budget)
        for index, descriptor in enumerate(descriptors)
    )
    records = execute_trials(reference, method_spec, tasks)
    return estimates_fingerprint(record.to_estimate() for record in records)


# -- metrics ----------------------------------------------------------------


def _line(name: str, value: float, unit: str, samples: int | None = None) -> str:
    suffix = "" if samples is None else f" n={samples}"
    return f"  {name:<36} {value:>14.4f} {unit:<6}{suffix}"


@dataclass
class RunResult:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failures: list[str]
    report: list[str]

    @property
    def correct(self) -> bool:
        return not self.failures

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": len(self.failures),
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


class Run:
    """One workload, one seed: set up, measure, check, clean up."""

    def __init__(self, workload: Workload, seed: int, seconds: float, scale: str,
                 trace: bool, root: Path, tmp: Path, inject_malformed: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.root = root
        self.tmp = tmp
        self.inject_malformed = inject_malformed
        self.tracer = LayerTracer() if trace else None
        self.attempted = 0
        self.failures: list[str] = []
        self.report: list[str] = []
        #: Share of CPU time the host took from this machine during the
        #: untraced window; wall-clock figures are not comparable across
        #: runs that differ much in it.
        self.steal_share = 0.0

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        self.report.append(f"CHECK FAILED: {message}")

    def _count(self, replies: list[Reply], truth: int, what: str) -> None:
        for reply in replies:
            self.attempted += 1
            for problem in check_reply(reply, truth):
                self._fail(f"{what}: {problem}")

    def _tracing(self, on: bool) -> None:
        from repro import obs

        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        obs.set_enabled(on)

    # -- phases ------------------------------------------------------------------
    def _set_up(self, first_body: dict):
        """Build everything from scratch and serve the first request, N times.

        Returns the last (kept) target, each set-up's seconds and replies.
        """
        count = 1 if self.tracer is not None else self.workload.setups
        seconds, replies, target = [], [], None
        for index in range(count):
            if target is not None:
                target.close()
            started = time.perf_counter()
            target = open_target(self.workload, self.scale)
            reply = target.call(first_body)
            seconds.append(time.perf_counter() - started)
            replies.append(reply)
            if not reply.ok:
                target.close()
                raise RuntimeError(f"set-up request {index} failed: {reply.error}")
        return target, seconds, replies

    def _timed(self, target, stream: RequestStream, seconds: float):
        """The untraced closed-loop window, with per-request peak memory."""
        pids = [os.getpid()]
        if self.workload.workers > 1:
            pids += [pid for pid, cmdline in _child_processes()
                     if "resource_tracker" not in cmdline]
        steal_before, total_before = _cpu_jiffies()
        with RssSampler(pids) as sampler:
            phase = closed_loop(target, stream, self.workload.clients, seconds)
        steal_after, total_after = _cpu_jiffies()
        self.steal_share = (steal_after - steal_before) / max(total_after - total_before, 1)
        peaks_mb = [
            sampler.peak_during(reply.started, reply.started + reply.latency)
            for reply in phase.served
        ]
        return phase, peaks_mb

    def _traced(self, target, stream: RequestStream, untraced: Phase, setup: SetupCapture):
        """The traced window: layer metrics, wrapper-fired and fidelity checks."""
        from repro import obs
        from repro.service.sweep import default_design_cache, default_scores_cache

        caches = {"scores": default_scores_cache, "design": default_design_cache}
        before = {name: (cache.hits, cache.misses) for name, cache in caches.items()}
        self.tracer.reset()
        obs.reset()
        self._tracing(True)
        try:
            phase = closed_loop(
                target, stream, self.workload.clients, self.seconds / 2, self.tracer
            )
            silent = [name for name in self.workload.expected if not self.tracer.calls.get(name)]
            if silent:
                self._fail(f"traced window: wrappers never fired: {silent}")
            if self.workload.workers > 1 and not histogram_totals(
                obs.registry(), obs.TRIAL_SECONDS
            )[0]:
                self._fail("traced window: no trial timings merged back from pool workers")
            untraced_latencies = [reply.latency for reply in untraced.served]
            served = phase.served
            metrics = layer_metrics(
                self.tracer,
                [reply.latency for reply in served],
                sum(len(reply.estimates) for reply in served),
                setup,
                {
                    name: (cache.hits - before[name][0], cache.misses - before[name][1])
                    for name, cache in caches.items()
                },
                statistics.median(untraced_latencies) if untraced_latencies else 0.0,
                self.workload.workers,
            )
            # Fidelity: an untraced request, re-sent under tracing, repeats its bytes.
            replayed = next(((body, reply) for body, reply in untraced.records if reply.ok), None)
            if replayed is not None:
                body, reply = replayed
                again = target.call(body)
                self.attempted += 1
                if not again.ok or again.fingerprint != reply.fingerprint:
                    self._fail("traced fingerprint differs from the untraced one")
        finally:
            self._tracing(False)
            obs.reset()
        return phase, metrics

    def _check_outputs(self, target, first_body: dict, setup_replies: list[Reply],
                       timed: list[tuple[dict, Reply]]) -> int:
        """Re-send, ground truth, replay; returns the reference ground truth."""
        resent = target.call(first_body)
        if len({reply.fingerprint for reply in setup_replies + [resent]}) != 1:
            self._fail("first request's fingerprint did not repeat (set-ups and re-send)")
        reference = self.workload.spec(self.scale, backend="numpy").build()
        truth = reference.true_count
        self._count(setup_replies + [resent], truth, "set-up/re-send")
        self._count([reply for _, reply in timed], truth, "timed request")
        replayable = next(((body, reply) for body, reply in timed if reply.ok), None)
        if replayable is None:
            self._fail("no timed request succeeded; nothing to replay")
            return truth
        self.attempted += 1
        body, reply = replayable
        if replay_fingerprint(self.workload, self.scale, body, reply, reference) != (
            reply.point_fingerprint
        ):
            self._fail("serial execute_trials replay does not reproduce the served digest")
        return truth

    def _hygiene(self, shm_before: set[str], files_before: dict) -> None:
        _stop_resource_tracker()
        leaked = sorted(_shm_segments() - shm_before)
        if leaked:
            self._fail(f"shared-memory segments left behind: {leaked}")
        children = _child_processes()
        if children:
            self._fail(f"child processes still alive: {children}")
        leftovers = sorted(os.listdir(self.tmp)) if self.tmp.exists() else []
        if leftovers:
            self._fail(f"temporary files left behind: {leftovers}")
        files_after = tree_state(self.root, self.tmp)
        changed = sorted(
            path for path in set(files_before) | set(files_after)
            if files_before.get(path) != files_after.get(path)
        )
        if changed:
            self._fail(f"files of the checkout changed: {changed[:10]}")

    # -- the run -----------------------------------------------------------------
    def execute(self) -> RunResult:
        from repro import obs

        stream = RequestStream(self.workload, self.seed, self.scale)
        first_body = stream.next()
        shm_before = _shm_segments()
        files_before = tree_state(self.root, self.tmp)

        setup = None
        if self.tracer is not None:
            obs.reset()
            self._tracing(True)
        try:
            target, setup_seconds, setup_replies = self._set_up(first_body)
            if self.tracer is not None:
                setup = SetupCapture.take(self.tracer, self.workload.workers)
                silent = [
                    name for name in self.workload.setup_expected
                    if not self.tracer.calls.get(name)
                ]
                if silent:
                    self._fail(f"traced set-up: wrappers never fired: {silent}")
        finally:
            if self.tracer is not None:
                self._tracing(False)

        window = self.seconds if self.tracer is None else self.seconds / 2
        phase, peaks_mb = self._timed(target, stream, window)
        if self.inject_malformed:
            malformed = dict(first_body, unknown_field=1)
            phase.records.append((malformed, target.call(malformed)))
        traced = layers = None
        if self.tracer is not None:
            traced, layers = self._traced(target, stream, phase, setup)
        timed = phase.records + (traced.records if traced is not None else [])
        truth = self._check_outputs(target, first_body, setup_replies, timed)
        target.close()
        self._hygiene(shm_before, files_before)

        metrics = self._report_end_to_end(phase, setup_seconds, peaks_mb, truth)
        if traced is None:
            return RunResult(metrics, END_TO_END_UNITS, self.attempted, self.failures,
                             self.report)
        self._report_layers(traced, layers)
        return RunResult(layers, PER_LAYER_UNITS, self.attempted, self.failures, self.report)

    # -- reports -----------------------------------------------------------------
    def _report_end_to_end(self, phase: Phase, setup_seconds: list[float],
                           peaks_mb: list[float], truth: int) -> dict[str, float]:
        workload = self.workload
        served = phase.served
        latencies_ms = [reply.latency * 1e3 for reply in served]
        estimates = [item for reply in served for item in reply.estimates]
        elapsed = phase.finished - phase.started
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "latency_p50_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
            "estimates_per_s": len(estimates) / elapsed if elapsed > 0 else 0.0,
            "oracle_calls_per_estimate": statistics.fmean(e for _, e in estimates)
            if estimates else 0.0,
            "peak_rss_mb": statistics.median(peaks_mb) if peaks_mb else 0.0,
        }
        samples = {
            "setup_s": len(setup_seconds),
            "latency_p50_ms": len(latencies_ms),
            "estimates_per_s": len(estimates),
            "oracle_calls_per_estimate": len(estimates),
            "peak_rss_mb": len(peaks_mb),
        }
        self.report.append(
            f"[{workload.name}] seed={self.seed} seconds={self.seconds:g} loop=closed "
            f"clients={workload.clients} trace={int(self.tracer is not None)}"
        )
        for name, value in metrics.items():
            self.report.append(_line(name, value, END_TO_END_UNITS[name], samples[name]))
        if len(latencies_ms) >= P90_MIN_SAMPLES:
            self.report.append(
                _line(
                    "latency_p90_ms",
                    statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
                    "ms",
                    len(latencies_ms),
                )
            )
        else:
            self.report.append(
                f"  {'latency_p90_ms':<36} {'omitted':>14} {'ms':<6} "
                f"n={len(latencies_ms)} < {P90_MIN_SAMPLES}"
            )
        self.report.append(
            _line("error_rate", len(self.failures) / max(self.attempted, 1), "ratio",
                  self.attempted)
        )
        errors = [abs(count - truth) / truth for count, _ in estimates] if truth else []
        self.report.append(
            _line("abs_rel_error_p50", statistics.median(errors) if errors else 0.0, "ratio",
                  len(errors))
        )
        self.report.append(_line("host_cpu_steal_share", self.steal_share, "ratio"))
        return metrics

    def _report_layers(self, traced: Phase, layers: dict[str, float]) -> None:
        requests = len(traced.served)
        self.report.append(f"  traced window: {requests} requests")
        closing = ("trace.unattributed_ms", "trace.overhead_ratio")
        for name, value in layers.items():
            if name not in closing:
                self.report.append(_line(name, value, PER_LAYER_UNITS[name]))
        self.report.append("  " + largest_self_time(self.tracer, self.workload.predicted_largest))
        # Every traced report ends with the two figures that say how far to
        # trust the layers above.
        for name in closing:
            self.report.append(_line(name, layers[name], PER_LAYER_UNITS[name], requests))
