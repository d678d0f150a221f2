"""The ACCUMULATION procedure (paper §IV-B) and Eq. 2/3 over a grid.

Given the two realization arrays and a class ``D_{E'}`` of assignments
supported by the surviving bottleneck pattern, compute

    r_{E'} = P( the G_s configuration and the G_t configuration jointly
               realize at least one assignment in D_{E'} ).

Example 3 explains why a plain product of side reliabilities is wrong:
the per-assignment events overlap in complicated ways.  The paper's fix
is inclusion–exclusion over assignment subsets ``X ⊆ D_{E'}`` using the
factorization ``p_X = P_s(X) · P_t(X)`` (the sides are independent
given the bottleneck pattern):

    r_{E'} = Σ_{∅≠X}  (−1)^{|X|+1} P_s(X) P_t(X).

Two exact implementations are provided and ablated in benchmark A1:

``zeta``
    Aggregate each side's configuration probabilities by realized mask
    restricted to ``D_{E'}``, superset-zeta transform to obtain every
    ``P_side(X)`` simultaneously, then the signed dot product.  Cost
    ``O(2^{m_side} + q 2^q)`` for ``q = |D_{E'}|`` — the paper's
    ``2^{d^k}``-flavoured constant.

``pairs``
    Aggregate each side to its *distinct* realized masks (there are at
    most ``min(2^{m_side}, 2^q)`` of them, usually a handful) and sum
    ``q_s(m) q_t(m')`` over pairs with ``m ∩ m' ≠ ∅`` — equivalently
    ``1 − P(no side realizes a common assignment)`` computed densely.
    Cost ``O(S · T)`` on distinct-mask counts; immune to large ``q``.

Both return identical values (a property test enforces it); ``auto``
picks ``zeta`` while ``2^q`` stays small and ``pairs`` otherwise.

Everything here works on *rows*: one row per point of a grid of
per-link failure vectors (:func:`probability_grid`), so a probability
sweep evaluates Eq. 2 / Eq. 3 for every point in one pass and a
pointwise query is the one-row case.  :func:`accumulate` and
:func:`side_class_probabilities` are those one-row calls on a pair of
realization arrays.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.arrays import RealizationArray
from repro.core.summation import prob_fsum
from repro.exceptions import IntractableError, ReproValueError
from repro.probability.bitset import bitplanes, pack_bitplanes, parity_array
from repro.probability.enumeration import check_enumerable
from repro.probability.zeta import superset_zeta_rows

__all__ = [
    "accumulate",
    "accumulate_rows",
    "probability_grid",
    "reliability_rows",
    "restrict_masks",
    "side_class_probabilities",
]

#: ``zeta`` strategy refuses classes bigger than this many assignments.
MAX_ZETA_ASSIGNMENTS = 20


def restrict_masks(masks: np.ndarray, assignment_indices: Sequence[int]) -> np.ndarray:
    """Project realization masks onto a subset of assignment bits.

    Bit ``j`` of the output is bit ``assignment_indices[j]`` of the
    input — the mask over ``D_{E'}`` in class-local numbering.  One
    bit-plane transpose plus one packing matmul; no per-bit Python loop.
    """
    return pack_bitplanes(bitplanes(masks, list(assignment_indices)))


def probability_grid(failure_grid: np.ndarray) -> np.ndarray:
    """2-D doubling table: row ``s`` is the configuration-probability
    table of failure vector ``failure_grid[s]``.

    One doubling per link, dead half first — the same scheme (and the
    same multiply per entry) as
    :func:`repro.probability.configuration_probabilities`, so every row
    is bit-identical to its one-network counterpart.  Over the cut links
    it is Eq. 2 for every survival pattern.
    """
    grid = np.asarray(failure_grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ReproValueError("failure grid must be two-dimensional (points x links)")
    if grid.size and (np.any(grid < 0.0) or np.any(grid >= 1.0)):
        raise ReproValueError("failure probabilities must lie in [0, 1)")
    check_enumerable(grid.shape[1])
    return _doubling(grid)


def _doubling(grid: np.ndarray) -> np.ndarray:
    """:func:`probability_grid` on an already validated grid, in place."""
    points, m = grid.shape
    table = np.empty((points, 1 << m), dtype=np.float64)
    table[:, 0] = 1.0
    alive = 1.0 - grid
    for i in range(m):
        half = 1 << i
        # Alive half from the old entries first, then the dead half.
        np.multiply(table[:, :half], alive[:, i : i + 1], out=table[:, half : 2 * half])
        table[:, :half] *= grid[:, i : i + 1]
    return table


def _class_rows(
    masks: np.ndarray,
    probability_rows: np.ndarray,
    assignment_indices: Sequence[int],
) -> np.ndarray:
    """Row ``s``: ``q[mask] = P(realized class-set == mask)`` at point ``s``.

    Each row aggregates ``probability_rows[s]`` by restricted realized
    mask with one sequential ``np.add.at`` scatter, so the summation
    order does not depend on how many rows share the call.
    """
    q = len(assignment_indices)
    if q > MAX_ZETA_ASSIGNMENTS:
        raise IntractableError(
            f"zeta accumulation over {q} assignments needs 2^{q} table entries",
            required=q,
            limit=MAX_ZETA_ASSIGNMENTS,
        )
    restricted = restrict_masks(masks, assignment_indices).astype(np.int64)
    points = probability_rows.shape[0]
    table = np.zeros((points, 1 << q), dtype=np.float64)
    for s in range(points):
        np.add.at(table[s], restricted, probability_rows[s])
    return table


def _zeta_rows(
    source_masks: np.ndarray,
    sink_masks: np.ndarray,
    assignment_indices: Sequence[int],
    source_probability_rows: np.ndarray,
    sink_probability_rows: np.ndarray,
) -> np.ndarray:
    q = len(assignment_indices)
    qs = _class_rows(source_masks, source_probability_rows, assignment_indices)
    qt = _class_rows(sink_masks, sink_probability_rows, assignment_indices)
    # P_side(X) = P(realized ⊇ X): superset sums of the aggregates.
    prod = superset_zeta_rows(qs, inplace=True) * superset_zeta_rows(qt, inplace=True)
    signs = -parity_array(q).astype(np.float64)  # (−1)^{|X|+1}
    signs[0] = 0.0
    return np.array([float(np.dot(signs, row)) for row in prod], dtype=np.float64)


def _pairs_rows(
    source_masks: np.ndarray,
    sink_masks: np.ndarray,
    assignment_indices: Sequence[int],
    source_probability_rows: np.ndarray,
    sink_probability_rows: np.ndarray,
) -> np.ndarray:
    values_s, inverse_s = np.unique(
        restrict_masks(source_masks, assignment_indices), return_inverse=True
    )
    values_t, inverse_t = np.unique(
        restrict_masks(sink_masks, assignment_indices), return_inverse=True
    )
    # hit[i, j] = the two realized sets share an assignment.
    hit = ((values_s[:, None] & values_t[None, :]) != 0).astype(np.float64)
    out = np.empty(source_probability_rows.shape[0], dtype=np.float64)
    for s in range(len(out)):
        qs = np.bincount(
            inverse_s, weights=source_probability_rows[s], minlength=len(values_s)
        )
        qt = np.bincount(
            inverse_t, weights=sink_probability_rows[s], minlength=len(values_t)
        )
        out[s] = float(qs @ hit @ qt)
    return out


def accumulate_rows(
    source_masks: np.ndarray,
    sink_masks: np.ndarray,
    assignment_indices: Sequence[int],
    source_probability_rows: np.ndarray,
    sink_probability_rows: np.ndarray,
    strategy: str = "auto",
) -> np.ndarray:
    """``r_{E'}`` for the class ``assignment_indices``, one value per row.

    ``strategy`` is ``"zeta"``, ``"pairs"`` or ``"auto"``.
    """
    if strategy == "auto":
        strategy = "zeta" if len(assignment_indices) <= 12 else "pairs"
    if strategy == "zeta":
        rows = _zeta_rows
    elif strategy == "pairs":
        rows = _pairs_rows
    else:
        raise ReproValueError(f"unknown accumulation strategy {strategy!r}")
    return rows(
        source_masks,
        sink_masks,
        assignment_indices,
        source_probability_rows,
        sink_probability_rows,
    )


def reliability_rows(
    source: RealizationArray,
    sink: RealizationArray,
    classes: Mapping[int, tuple[int, ...]],
    cut_failures: np.ndarray,
    source_failures: np.ndarray,
    sink_failures: np.ndarray,
    strategy: str = "auto",
) -> list[tuple[float, int]]:
    """Eq. 2 / Eq. 3 at every grid row: ``(Σ p_{E'} · r_{E'}, classes used)``.

    The three failure grids hold each row's (already validated) failure
    probabilities of the cut links, in cut order, and of each side's
    links, in side order.  ``classes`` maps each bottleneck survival
    pattern to its supported class
    (:func:`repro.core.assignments.classify_by_support`).  ``r_{E'}``
    depends only on the supported class, so identical classes share one
    accumulation, and a class is only accumulated once some row gives
    it weight.
    """
    pattern_rows = _doubling(cut_failures)
    source_rows = _doubling(source_failures)
    sink_rows = _doubling(sink_failures)
    r_by_class: dict[tuple[int, ...], np.ndarray] = {}
    out: list[tuple[float, int]] = []
    for s in range(pattern_rows.shape[0]):
        terms: list[float] = []
        used: set[tuple[int, ...]] = set()
        for pattern, supported in classes.items():
            if not supported:
                continue
            p_pattern = float(pattern_rows[s, pattern])
            if p_pattern == 0.0:
                continue
            r = r_by_class.get(supported)
            if r is None:
                r = accumulate_rows(
                    source.masks, sink.masks, supported, source_rows, sink_rows, strategy
                )
                r_by_class[supported] = r
            used.add(supported)
            terms.append(p_pattern * float(r[s]))
        out.append((prob_fsum(terms), len(used)))
    return out


def side_class_probabilities(
    array: RealizationArray, assignment_indices: Sequence[int]
) -> np.ndarray:
    """Aggregate one side into ``q[mask] = P(realized class-set == mask)``.

    The output is indexed by masks over the restricted class (length
    ``2^q``) and sums to 1.
    """
    return _class_rows(array.masks, array.probabilities[None, :], assignment_indices)[0]


def accumulate(
    source: RealizationArray,
    sink: RealizationArray,
    assignment_indices: Sequence[int],
    *,
    strategy: str = "auto",
) -> float:
    """``r_{E'}`` for the class given by ``assignment_indices``.

    ``strategy`` is ``"zeta"``, ``"pairs"`` or ``"auto"``.
    """
    if source.num_assignments != sink.num_assignments:
        raise ReproValueError("side arrays disagree on the assignment count")
    for j in assignment_indices:
        if not (0 <= j < source.num_assignments):
            raise ReproValueError(f"assignment index {j} out of range")
    r = accumulate_rows(
        source.masks,
        sink.masks,
        assignment_indices,
        source.probabilities[None, :],
        sink.probabilities[None, :],
        strategy,
    )
    return float(r[0])
