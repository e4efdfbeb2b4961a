"""The benchmark's four workloads and their seeded request generators.

Each workload fixes a table recipe, an entry point (HTTP through the estimate
server, or the library session) and a closed-loop traffic shape.  Every
request seed derives from the one ``--seed`` argument, so a seed names a
run's inputs exactly.

The sweeps' learn seed is part of the workload recipe, like the table seed,
not of the traffic: it decides which learned ordering is resident, and that
ordering sets the size of DynPgm's candidate grid for every request.  Drawn
per ``--seed`` it moved the median ``sweep-lss`` latency by 21 % between
seeds (IQR over median, five seeds), against 4-9 % with it fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Row counts of the two tables, by scale.  ``tiny`` is the harness self-test.
NEIGHBORS_ROWS = {"full": 12_000, "tiny": 600}
SPORTS_ROWS = {"full": None, "tiny": 800}  # None = the dataset default (47 000)
NEIGHBORS_TABLE_SEED = 7
#: Learning-phase seed of the sweeps' resident scores (see the module doc).
SWEEP_LEARN_SEED = 9

#: Sweep/estimate budgets (predicate evaluations), by scale.
BUDGET = {"full": 600, "tiny": 60}
LEARN_BUDGET = {"full": 200, "tiny": 20}
TRIALS_PER_CALL = {"full": 16, "tiny": 4}
BUDGET_FRACTION = {"full": 0.01, "tiny": 0.02}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: table recipe, entry point and traffic shape.

    Attributes:
        name: the workload's name; ``BENCHMARK.json`` and the README say
            why it exists.
        route: the HTTP route (``/sweep`` or ``/estimate``) served through
            ``ServerThread`` + ``request_json``; ``None`` calls the library
            session (``repro.session(...)``) directly.
        method: estimator requested on every request.
        clients: closed-loop client threads (at most ``nproc``).
        workers: pool workers of the library session (1 = in-process).
        dataset / backend / cache_labels: the resident table recipe.
        setups: how many times one run builds the set-up from scratch;
            ``setup_s`` is their median.
        expected / setup_expected: wrapped callables (``layers.TARGETS``
            names) the traced window / traced set-up must see fire.
        predicted_largest: the layers predicted to hold the most self time
            in the traced window.
    """

    name: str
    route: str | None
    method: str
    clients: int
    workers: int
    dataset: str
    backend: str
    cache_labels: bool
    setups: int
    expected: tuple[str, ...]
    setup_expected: tuple[str, ...]
    predicted_largest: tuple[str, ...]

    def spec(self, scale: str, backend: str | None = None):
        """The served ``WorkloadSpec`` (or its ``backend`` sibling)."""
        from repro.workloads.queries import WorkloadSpec

        if self.dataset == "neighbors":
            rows, seed = NEIGHBORS_ROWS[scale], NEIGHBORS_TABLE_SEED
        else:
            rows, seed = SPORTS_ROWS[scale], None
        return WorkloadSpec(
            self.dataset,
            "S",
            num_rows=rows,
            seed=seed,
            cache_labels=self.cache_labels,
            backend=backend or self.backend,
        )


_SERVED_LSS = (
    "Session.sweep", "ResidentWorkload.workload", "session.execute_trials",
    "LSS.estimate_from_scores", "lss.dynpgm_design", "dynpgm.candidate_boundary_cuts",
    "StratifiedSampling.allocate", "StratifiedSampling.estimate_from_samples",
    "CountingQuery.evaluate", "NumpyBackend.evaluate",
)
_SWEEP_SETUP = ("queries.build_workload", "sweep.learn_scores", "NumpyBackend.evaluate_all")

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sweep-lss",
            route="/sweep", method="lss", clients=1, workers=1,
            dataset="neighbors", backend="numpy", cache_labels=False, setups=2,
            expected=_SERVED_LSS,
            setup_expected=_SWEEP_SETUP,
            predicted_largest=("design",),
        ),
        Workload(
            name="sweep-lws",
            route="/sweep", method="lws", clients=2, workers=1,
            dataset="neighbors", backend="numpy", cache_labels=False, setups=3,
            expected=(
                "Session.sweep", "ResidentWorkload.workload", "session.execute_trials",
                "LWS.estimate_from_scores", "WeightedSampling.estimate",
                "CountingQuery.evaluate", "NumpyBackend.evaluate",
            ),
            setup_expected=_SWEEP_SETUP,
            predicted_largest=("backend",),
        ),
        Workload(
            name="oneshot-sqlite",
            route="/estimate", method="lss", clients=1, workers=1,
            dataset="neighbors", backend="sqlite", cache_labels=False, setups=1,
            expected=(
                "Session.estimate", "ResidentWorkload.workload", "runner.execute_trials",
                "LSS.estimate", "lss.run_learning_phase", "RandomForest.fit",
                "RandomForest.predict_scores", "lss.dynpgm_design",
                "dynpgm.candidate_boundary_cuts", "StratifiedSampling.allocate",
                "StratifiedSampling.estimate_from_samples", "CountingQuery.evaluate",
                "SqliteBackend.evaluate",
            ),
            setup_expected=(
                "queries.build_workload", "lss.run_learning_phase", "SqliteBackend.evaluate_all",
            ),
            predicted_largest=("design", "backend"),
        ),
        Workload(
            name="trial-batch",
            route=None, method="lws", clients=1, workers=2,
            dataset="sports", backend="numpy", cache_labels=True, setups=2,
            expected=("Session.estimate", "ResidentWorkload.workload", "WarmPool.run"),
            setup_expected=(
                "queries.build_workload", "runner.shared_pool", "WarmPool.run",
                "NumpyBackend.evaluate_all",
            ),
            # In the parent the pool's wall time holds the workers' learning
            # and sampling; worker stage seconds split it further.
            predicted_largest=("pool",),
        ),
    )
}


class RequestStream:
    """Seeded, never-repeating request bodies for one workload.

    Every request seed comes from one ``SeedSequence(seed)`` stream; a
    request seed is never reused inside a run, so no request can hit a cache
    keyed on its seed.
    """

    def __init__(self, workload: Workload, seed: int, scale: str) -> None:
        self.workload = workload
        self.scale = scale
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        self._used: set[int] = set()

    def _fresh_seed(self) -> int:
        while True:
            value = int(self._rng.integers(2**31 - 1))
            if value not in self._used:
                self._used.add(value)
                return value

    def next(self) -> dict:
        """The next request body (HTTP JSON) or ``Session.estimate`` kwargs."""
        workload, scale = self.workload, self.scale
        seed = self._fresh_seed()
        if workload.route == "/sweep":
            return {
                "levels": ["S"],
                "method": workload.method,
                "budget": BUDGET[scale],
                "learn_budget": LEARN_BUDGET[scale],
                "learn_seed": SWEEP_LEARN_SEED,
                "seed": seed,
            }
        if workload.route == "/estimate":
            return {"method": workload.method, "budget": BUDGET[scale], "seed": seed}
        return {
            "method": workload.method,
            "budget_fraction": BUDGET_FRACTION[scale],
            "num_trials": TRIALS_PER_CALL[scale],
            "seed": seed,
        }
