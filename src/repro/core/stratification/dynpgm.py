"""DynPgm: dynamic-programming stratification for Neyman allocation.

The Neyman-allocation objective (eq. 5) is not separable across strata
because of the cross term ``Σ_h N_h s_h Σ_{h'<h} N_h' s_h'``.  Following
Section 4.2.1, the algorithm guesses a bound ``t`` on the auxiliary sum
``Σ N_h s_h`` from a geometric grid, runs a dynamic program over the
candidate boundary grid under the constraint ``N_h s_h ≤ t`` for every
stratum, and keeps the best reconstructed design across all guesses
(Theorem 3 bounds the resulting approximation factor).

:func:`dynpgm_design` keeps the DP off dense full-grid matrices:

* the candidate statistics are built once, in row blocks, directly in the
  transposed ``[end, start]`` layout, so each level's ``argmin`` runs along
  contiguous rows and only the lower triangle (``start < end``) is ever
  written;
* an infeasible stratum carries an ``inf`` admission key, so a guess ``t``
  admits exactly the strata with ``key <= t``, tested per block;
* level 1 has only start 0 finite and level ``H`` only needs the final end,
  so both cost ``O(C)`` for ``C`` candidate cuts; the middle levels sweep row
  blocks of ends and read only the starts that can be feasible there;
* the admission masks grow monotonically with the guess, so guesses that
  admit the same number of feasible strata admit the same strata and are
  solved once.

The original per-guess implementation is retained as
:func:`dynpgm_design_reference`; both return byte-identical designs.
"""

from __future__ import annotations

import numpy as np

from repro.core.stratification.design import (
    InfeasibleDesignError,
    PilotSample,
    StratificationDesign,
    bernoulli_variance_estimate,
    candidate_boundary_cuts,
    default_minimum_stratum_size,
    design_from_cuts,
)
from repro.core.stratification.dynpgm_prop import _reconstruct_cuts

#: Ends per row block, shared by the statistics build and the middle levels.
_ROW_BLOCK = 64


def _auxiliary_sum_grid(population_size: int, num_strata: int, ratio: float) -> np.ndarray:
    """Geometric grid of guesses for the auxiliary sum ``Σ N_h s_h``.

    The auxiliary sum is at most ``H · N / 2`` because the standard deviation
    of 0/1 labels never exceeds one half; the grid spans ``[1, H·N]`` in
    powers of ``1 + ratio``.
    """
    upper = max(num_strata * population_size, 2)
    count = int(np.ceil(np.log(upper) / np.log(1.0 + ratio))) + 1
    return (1.0 + ratio) ** np.arange(count + 1)


def _validate_arguments(num_strata: int, second_stage_samples: int, grid_ratio: float) -> None:
    if num_strata <= 0:
        raise ValueError("num_strata must be positive")
    if second_stage_samples <= 0:
        raise ValueError("second_stage_samples must be positive")
    if grid_ratio <= 0:
        raise ValueError("grid_ratio must be positive")


_NO_FEASIBLE_STRATIFICATION = (
    "no feasible stratification satisfies the minimum-size constraints; "
    "reduce num_strata or the minimums"
)


def _candidate_statistics(
    pilot: PilotSample,
    second_stage_samples: int,
    min_stratum_size: int,
    min_pilot_per_stratum: int,
    include_backward: bool,
    max_candidates: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Candidate cuts plus the reference's dense ``[start, end]`` weight, cost and feasibility."""
    cuts = candidate_boundary_cuts(pilot, include_backward, max_candidates)
    num_cuts = cuts.size
    ranks = pilot.ranks_at(cuts)
    gamma_at = pilot.gamma[ranks]
    sizes = (cuts[None, :] - cuts[:, None]).astype(np.float64)
    pilot_counts = ranks[None, :] - ranks[:, None]
    positives = gamma_at[None, :] - gamma_at[:, None]
    variances = bernoulli_variance_estimate(positives, pilot_counts)
    deviations = np.sqrt(variances)

    weighted = sizes * deviations  # N_h s_h for every candidate stratum
    n = float(second_stage_samples)
    base_cost = weighted**2 / n - sizes * variances
    feasible = (
        (sizes >= min_stratum_size)
        & (pilot_counts >= min_pilot_per_stratum)
        & np.triu(np.ones((num_cuts, num_cuts), dtype=bool), k=1)
    )
    return cuts, weighted, base_cost, feasible


class _StratumTables:
    """Candidate strata in ``[end, start]`` layout, lower triangle only.

    Entry ``[i, j]`` describes the stratum ``[cuts[j], cuts[i])``.  Row block
    ``[r, r + _ROW_BLOCK)`` is written for starts below the block's end only;
    the entries to the right of it are never written and never read.

    Attributes:
        cuts: the candidate boundary grid.
        key: ``N_h s_h`` of a feasible stratum, ``inf`` for an infeasible one.
        cost: the bound-independent part of the DP transition,
            ``(N_h s_h)² / n − N_h s²_h``.
        scaled_weight: the cross-term factor ``(2 / n) · N_h s_h``.
        start_limit: per end, the number of leading starts that can be
            feasible; all feasible starts of end ``i`` lie in
            ``[0, start_limit[i])``.
        admitted: per grid bound, how many feasible strata it admits, with
            the number of feasible strata in total as the last entry.
    """

    def __init__(
        self,
        pilot: PilotSample,
        second_stage_samples: int,
        min_stratum_size: int,
        min_pilot_per_stratum: int,
        include_backward: bool,
        max_candidates: int | None,
        bounds: np.ndarray,
    ) -> None:
        cuts = candidate_boundary_cuts(pilot, include_backward, max_candidates)
        num_cuts = cuts.size
        ranks = pilot.ranks_at(cuts)
        gamma_at = pilot.gamma[ranks]
        n = float(second_stage_samples)
        self.cuts = cuts
        self.key = np.empty((num_cuts, num_cuts))
        self.cost = np.empty((num_cuts, num_cuts))
        self.scaled_weight = np.empty((num_cuts, num_cuts))
        self.start_limit = np.empty(num_cuts, dtype=np.int64)
        counts = np.zeros(bounds.size + 1, dtype=np.int64)
        for first in range(0, num_cuts, _ROW_BLOCK):
            rows = slice(first, min(first + _ROW_BLOCK, num_cuts))
            width = rows.stop
            sizes = (cuts[rows, None] - cuts[None, :width]).astype(np.float64)
            pilot_counts = ranks[rows, None] - ranks[None, :width]
            positives = gamma_at[rows, None] - gamma_at[None, :width]
            variances = bernoulli_variance_estimate(positives, pilot_counts)
            weighted = sizes * np.sqrt(variances)  # N_h s_h
            self.cost[rows, :width] = weighted**2 / n - sizes * variances
            np.multiply(2.0 / n, weighted, out=self.scaled_weight[rows, :width])
            feasible = (
                (sizes >= min_stratum_size)
                & (pilot_counts >= min_pilot_per_stratum)
                & (np.arange(width)[None, :] < np.arange(rows.start, rows.stop)[:, None])
            )
            self.key[rows, :width] = np.where(feasible, weighted, np.inf)
            # Sizes and pilot counts shrink as the start moves right, so each
            # end's feasible starts form a prefix and counting them bounds it.
            self.start_limit[rows] = np.count_nonzero(feasible, axis=1)
            counts += np.bincount(
                np.searchsorted(bounds, weighted[feasible]), minlength=bounds.size + 1
            )
        self.admitted = np.cumsum(counts)


def _extend(
    tables: _StratumTables,
    rows: slice,
    starts: slice,
    value: np.ndarray,
    auxiliary: np.ndarray,
    bound: float,
    buffer: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best extension of the previous level to every end in ``rows``.

    ``totals[i, j]`` extends the best previous-level solution ending at
    candidate ``j`` with the stratum ``[cuts[j], cuts[i])``, in the reference's
    operation order; strata the bound does not admit cost ``inf``.  Returns
    the chosen starts and their totals.
    """
    shape = (rows.stop - rows.start, starts.stop - starts.start)
    totals = buffer[: shape[0] * shape[1]].reshape(shape)
    np.add(value[starts], tables.cost[rows, starts], out=totals)
    totals += tables.scaled_weight[rows, starts] * auxiliary[starts]
    np.copyto(totals, np.inf, where=tables.key[rows, starts] > bound)
    chosen = totals.argmin(axis=1)
    return chosen + starts.start, totals[np.arange(shape[0]), chosen]


def dynpgm_design(
    pilot: PilotSample,
    num_strata: int,
    second_stage_samples: int,
    min_stratum_size: int | None = None,
    min_pilot_per_stratum: int = 2,
    include_backward: bool = True,
    max_candidates: int | None = 4000,
    grid_ratio: float = 1.0,
) -> StratificationDesign:
    """Find a stratification minimising the Neyman-allocation variance.

    Args:
        pilot: labelled pilot sample with positions in the score ordering.
        num_strata: number of strata ``H``.
        second_stage_samples: second-stage budget ``n``.
        min_stratum_size: minimum objects per stratum (``N_⊔``).
        min_pilot_per_stratum: minimum pilot objects per stratum (``m_⊔``).
        include_backward: also generate backward power-of-two candidates.
        max_candidates: cap on the candidate boundary grid size.
        grid_ratio: ε of the auxiliary-sum grid ``(1 + ε)^i`` — smaller values
            tighten the approximation at the cost of more DP passes.

    Returns:
        The best :class:`StratificationDesign` found (its ``objective_value``
        is the exact eq.-5 objective of the reconstructed cuts, not the DP's
        internal bound).

    Raises:
        InfeasibleDesignError: no stratification of this pilot satisfies the
            minimum-size constraints.
    """
    _validate_arguments(num_strata, second_stage_samples, grid_ratio)
    if min_stratum_size is None:
        min_stratum_size = default_minimum_stratum_size(
            pilot.population_size, second_stage_samples, num_strata
        )

    bounds = _auxiliary_sum_grid(pilot.population_size, num_strata, grid_ratio)
    tables = _StratumTables(
        pilot,
        second_stage_samples,
        min_stratum_size,
        min_pilot_per_stratum,
        include_backward,
        max_candidates,
        bounds,
    )
    if tables.admitted[-1] == 0:
        raise InfeasibleDesignError(_NO_FEASIBLE_STRATIFICATION)
    cuts = tables.cuts
    num_cuts = cuts.size
    final_index = num_cuts - 1
    final_row = slice(final_index, num_cuts)
    final_keys = tables.key[final_index, : tables.start_limit[final_index]]
    buffer = np.empty(_ROW_BLOCK * num_cuts)

    best_design: StratificationDesign | None = None
    admitted_count = -1
    for bound, admitted in zip(bounds, tables.admitted):
        # Two guesses admitting the same number of feasible strata admit the
        # *same* strata and would reconstruct the same design: solve once.
        if admitted == admitted_count:
            continue
        admitted_count = admitted
        if not (final_keys <= bound).any():
            continue

        parents = np.zeros((num_cuts, num_strata + 1), dtype=np.int64)
        final_values = np.full(num_strata + 1, np.inf)
        # Level 1: only start 0 (value 0, auxiliary 0) is finite, so each end's
        # best first stratum is [0, cuts[i]) and its parent is 0.
        admitted_first = tables.key[:, 0] <= bound
        value = np.where(admitted_first, tables.cost[:, 0], np.inf)
        auxiliary = np.where(admitted_first, tables.key[:, 0], 0.0)
        final_values[1] = value[final_index]
        for level in range(2, num_strata + 1):
            finite = np.flatnonzero(np.isfinite(value))
            if finite.size == 0:
                break
            first_start = int(finite[0])
            if level == num_strata:
                # Level H: only the final end's row is ever read.
                starts = slice(first_start, int(tables.start_limit[final_index]))
                if starts.stop > starts.start:
                    chosen, totals = _extend(
                        tables, final_row, starts, value, auxiliary, bound, buffer
                    )
                    parents[final_index, level] = chosen[0]
                    final_values[level] = totals[0]
                break
            next_value = np.full(num_cuts, np.inf)
            next_auxiliary = np.zeros(num_cuts)
            # Ends at or before the first finite start have no admissible
            # extension; row blocks stay aligned with the statistics build.
            # The auxiliary sum of an unreachable end stays 0 so that it
            # never turns an inf total into nan.
            skipped = (first_start + 1) // _ROW_BLOCK * _ROW_BLOCK
            for first in range(skipped, num_cuts, _ROW_BLOCK):
                rows = slice(first, min(first + _ROW_BLOCK, num_cuts))
                starts = slice(first_start, int(tables.start_limit[rows].max()))
                if starts.stop <= starts.start:
                    continue
                chosen, totals = _extend(tables, rows, starts, value, auxiliary, bound, buffer)
                parents[rows, level] = chosen
                next_value[rows] = totals
                next_auxiliary[rows] = np.where(
                    np.isfinite(totals),
                    auxiliary[chosen] + tables.key[np.arange(rows.start, rows.stop), chosen],
                    0.0,
                )
            value, auxiliary = next_value, next_auxiliary
            final_values[level] = value[final_index]

        finite_levels = np.flatnonzero(np.isfinite(final_values))
        if finite_levels.size == 0:
            continue
        reconstructed = _reconstruct_cuts(cuts, parents, final_index, int(finite_levels[-1]))
        candidate = design_from_cuts(
            pilot, reconstructed, second_stage_samples, "neyman", algorithm="dynpgm"
        )
        if best_design is None or candidate.objective_value < best_design.objective_value:
            best_design = candidate

    if best_design is None:
        raise InfeasibleDesignError(_NO_FEASIBLE_STRATIFICATION)
    return best_design


def dynpgm_design_reference(
    pilot: PilotSample,
    num_strata: int,
    second_stage_samples: int,
    min_stratum_size: int | None = None,
    min_pilot_per_stratum: int = 2,
    include_backward: bool = True,
    max_candidates: int | None = 4000,
    grid_ratio: float = 1.0,
) -> StratificationDesign:
    """Original per-guess DynPgm, retained as the equivalence reference.

    Re-runs the full DP for every auxiliary-sum guess with freshly allocated
    transition matrices — exactly the pre-kernel implementation.
    :func:`dynpgm_design` must return exactly the design this returns.
    """
    _validate_arguments(num_strata, second_stage_samples, grid_ratio)
    if min_stratum_size is None:
        min_stratum_size = default_minimum_stratum_size(
            pilot.population_size, second_stage_samples, num_strata
        )

    cuts, weighted, base_cost, feasible = _candidate_statistics(
        pilot,
        second_stage_samples,
        min_stratum_size,
        min_pilot_per_stratum,
        include_backward,
        max_candidates,
    )
    num_cuts = cuts.size
    n = float(second_stage_samples)

    final_index = num_cuts - 1
    best_design: StratificationDesign | None = None
    for bound in _auxiliary_sum_grid(pilot.population_size, num_strata, grid_ratio):
        allowed = feasible & (weighted <= bound)
        if not allowed[:, final_index].any():
            continue
        cost = np.where(allowed, base_cost, np.inf)
        weight_masked = np.where(allowed, weighted, 0.0)

        value = np.full((num_cuts, num_strata + 1), np.inf)
        auxiliary = np.zeros((num_cuts, num_strata + 1))
        parents = np.full((num_cuts, num_strata + 1), -1, dtype=np.int64)
        value[0, 0] = 0.0
        for level in range(1, num_strata + 1):
            previous_value = value[:, level - 1]
            previous_aux = auxiliary[:, level - 1]
            # totals[j, i]: extend the best (level-1)-strata solution ending at
            # candidate j with the stratum [cuts[j], cuts[i]).
            totals = (
                previous_value[:, None]
                + cost
                + (2.0 / n) * weight_masked * previous_aux[:, None]
            )
            value[:, level] = totals.min(axis=0)
            parents[:, level] = totals.argmin(axis=0)
            chosen = parents[:, level]
            auxiliary[:, level] = previous_aux[chosen] + weight_masked[chosen, np.arange(num_cuts)]

        chosen_level = None
        for level in range(num_strata, 0, -1):
            if np.isfinite(value[final_index, level]):
                chosen_level = level
                break
        if chosen_level is None:
            continue
        reconstructed = _reconstruct_cuts(cuts, parents, final_index, chosen_level)
        candidate = design_from_cuts(
            pilot, reconstructed, second_stage_samples, "neyman", algorithm="dynpgm"
        )
        if best_design is None or candidate.objective_value < best_design.objective_value:
            best_design = candidate

    if best_design is None:
        raise InfeasibleDesignError(_NO_FEASIBLE_STRATIFICATION)
    return best_design
