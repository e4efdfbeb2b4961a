"""The one-shot estimate result and the method names it dispatches over.

:meth:`~repro.service.session.Session.estimate_query` runs any of the
estimators — the learn-to-sample methods, the quantification-learning
estimators and the sampling baselines — against a caller-owned
:class:`~repro.query.counting.CountingQuery` with the same budget semantics,
and returns the estimate together with context that the experiment harness
and the examples find useful (ground truth, realised error).  This module
holds its result type, its method names and the grid strata of the
SSP/SSN baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.estimate import CountEstimate
from repro.query.counting import CountingQuery
from repro.sampling.stratified import attribute_grid_strata

#: Methods accepted by :meth:`~repro.service.session.Session.estimate_query`.
METHODS = ("lss", "lws", "qlcc", "qlac", "srs", "ssp", "ssn")


@dataclass(frozen=True)
class LearnToSampleResult:
    """A count estimate bundled with evaluation context.

    Attributes:
        estimate: the estimator's :class:`CountEstimate`.
        method: the method name that produced it.
        true_count: exact ground truth for the query (from the bulk predicate
            path) — available because the experiments always validate against
            it.
        budget: the requested predicate-evaluation budget.
    """

    estimate: CountEstimate
    method: str
    true_count: int
    budget: int

    @property
    def error(self) -> float:
        """Signed error of the estimated count."""
        return self.estimate.count - self.true_count

    @property
    def relative_error(self) -> float:
        """Absolute relative error of the estimated count."""
        return self.estimate.relative_error(self.true_count)


def _grid_partition(query: CountingQuery, num_strata: int):
    """Surrogate-attribute grid strata for the SSP/SSN baselines."""
    features = query.features()
    cells = max(int(round(num_strata ** (1.0 / features.shape[1]))), 1)
    return attribute_grid_strata(features, cells_per_dimension=cells)
