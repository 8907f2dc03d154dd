"""Multiple testing procedures: the tree descent and flat baselines.

``descend`` is the package's core procedure.  Starting at the root it keeps
testing downward along each branch as long as the vertex null is rejected,
stops a branch at the first acceptance, and reports everything rejected so
far.  With a budget-valid level allocation its familywise error is bounded
by the root level, with no assumption on the joint distribution of the
p-values.

``descend_local`` generalizes the walk: each vertex hosts a small local
family of hypotheses tested by Holm's procedure at the vertex's level; the
walk continues below a vertex only when its entire local family is
rejected.

Flat baselines (``holm``, ``bonferroni``, ``benjamini_hochberg``) and the
per-run error accounting (``error_report``) round out the module.

Each procedure is one kernel on a block of replications, deciding
``score <= cut``: the descent is ``trees._descent``, one numpy step per tree
layer on vertex-major ``(n_vertices, rows)`` blocks; ``_local_descent``
runs local Holm one family group at a time, on the rows where one of the
group's parents is active, and ``_holm`` and ``_sorted_cut`` cut Holm and
BH, the latter on rank-major sorted scores ``(m, rows)``.  The public
functions are thin wrappers (p-values as scores, thresholds as cuts), and
the simulator runs the same kernels.  Wrappers read arrays of numbers
through ``trees._numeric`` and mapping values through ``trees._number``, so
a string or a boolean is refused wherever it sits; they check values only
where the walk tested, after it ran, and an error names the smallest vertex.

All functions are pure and reentrant.  Rejection uses the closed comparison
``p <= level`` so boundary ties count as rejections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .trees import (LevelsLike, TestTree, _descent, _level, _number, _numeric, _per_vertex,
                    _tested, _truth_flags, _vertex, as_levels, level_budget_violations)

__all__ = [
    "TreeRejections",
    "ErrorReport",
    "holm",
    "bonferroni",
    "benjamini_hochberg",
    "descend",
    "descend_batch",
    "descend_local",
    "error_report",
]


@dataclass(frozen=True)
class TreeRejections:
    """Outcome of a tree walk.

    ``rejected`` holds the ids whose nulls were rejected; ``frontier`` the
    ids where the walk stopped on an acceptance.  For ``descend`` the
    rejected set is path-closed: a non-root vertex is only ever rejected
    after its parent.
    """

    rejected: frozenset[int]
    frontier: frozenset[int]


@dataclass(frozen=True)
class ErrorReport:
    """Error accounting for one realized rejection set.

    ``false_rejections`` counts rejected true nulls, ``fdp`` is their share
    among all rejections (0 when nothing is rejected), ``any_false`` flags a
    familywise error, and ``power`` is the fraction of false nulls rejected.
    """

    false_rejections: int
    rejections: int
    fdp: float
    any_false: bool
    power: float

    def to_doc(self) -> dict:
        return {
            "V": self.false_rejections,
            "R": self.rejections,
            "FDP": self.fdp,
            "any_false": int(self.any_false),
            "power": self.power,
        }


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

# Families of at least this many members are cut by sorting, smaller ones
# by pairwise comparison.  Measured on blocks of 1, 2 and 8 families of
# 8192 rows, summed over the three: sorting along the members' axis (no
# transpose) won 5 of 5 runs from 9 members on (e.g. 9.5 against 11.9 ms
# at 9, 9.1 against 10.8 at 10), and 2 of 4 at 8 (7.6 against 6.2 ms).
_SORT_FROM = 9


def _holm(s: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Holm within each family ``s[f, :, r]`` of scores against ``cuts[f]``.

    ``cuts[f, i]`` is the cut for the member of rank ``i`` (the score form
    of ``level / (m - i)``), increasing in ``i``.  Returns the rejection
    flags, shaped like ``s``, and a per-(family, row) all-rejected
    indicator.  Holm never splits a tie group at its cut, so the rejected
    set is every score at or below one cut.  Small families need no sort: a
    member of min-rank ``r`` (the count of strictly smaller members) passes
    iff it is at or below ``cuts[f, r]``, i.e. iff ``r`` plus the number of
    cuts it clears is at least ``m``; a member is rejected iff every member
    at or below its score passes.
    """
    m = s.shape[1]
    if m < _SORT_FROM:
        below = s[:, :, None, :] < s[:, None, :, :]  # [f, i, j]: s_i < s_j
        rank = below.sum(axis=1, dtype=np.int16)
        clears = (s[:, :, None, :] <= cuts[:, None, :, None]).sum(axis=2, dtype=np.int16)
        passes = rank + clears >= m
        flags = (below | passes[:, None]).all(axis=2)
    else:
        flags = s <= _sorted_cut(np.sort(s, axis=1), cuts)[:, None, :]
    return flags, flags.all(axis=1)


def _sorted_cut(s: np.ndarray, cuts: np.ndarray, step_up: bool = False) -> np.ndarray:
    """Per-row rejection cut of Holm, or of BH when ``step_up``.

    ``s`` is rank-major, ``(..., m, rows)``: each row's scores sorted
    ascending along axis -2.  ``cuts`` is ``(..., m)`` and increases along
    its last axis.  Holm stops at the first sorted score above its cut, BH
    takes the last one at or below it; either way the rejected scores are
    those at or below the cut of the last rejected rank.  That rank is a
    rank-weighted maximum over axis -2, so every step runs elementwise
    across rows.  Returns the cut, ``(..., rows)``, or ``-inf`` where
    nothing is rejected.
    """
    m = s.shape[-2]
    ranks = np.arange(1, m + 1, dtype=np.min_scalar_type(m))[:, None]
    passed = s <= cuts[..., None]
    if step_up:  # the last rank that passes
        k = (passed * ranks).max(axis=-2)
    else:  # the ranks before the first that fails
        k = m - (~passed * ranks[::-1]).max(axis=-2)
    none = np.full((*cuts.shape[:-1], 1), -np.inf)
    return np.take_along_axis(np.concatenate([none, cuts], axis=-1), k, axis=-1)


def _local_descent(
    tree: TestTree, scores: np.ndarray, cuts: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Local Holm over each vertex's children on scores ``(n_vertices, rows)``.

    ``cuts`` holds one ``(parents, k)`` cut table per family group of
    ``tree.families``.  A family is tested where its parent is active: the
    root, or a vertex whose parent's family was rejected whole.  Each group
    touches only its live columns, the rows where one of its parents is
    active: all of them for the root's family, and typically few below it,
    where a group with none is skipped.  Returns the (rejected, active)
    flags, a vertex rejected within its parent's family; both stay False
    outside the live columns.
    """
    rows = scores.shape[1]
    rejected = np.zeros(scores.shape, dtype=bool)
    active = np.zeros(scores.shape, dtype=bool)
    active[0] = True
    groups = (group for layer in tree.families for group in layer)
    for (par, kids, k), cut in zip(groups, cuts, strict=True):
        live = active[par]
        cols = np.flatnonzero(live.any(axis=0))
        if cols.size == rows:
            cols = slice(None)
        elif cols.size == 0:
            continue
        at = (kids, cols)  # two index arrays index a grid only through ``ix_``
        if isinstance(kids, np.ndarray) and isinstance(cols, np.ndarray):
            at = np.ix_(kids, cols)
        live = live[:, cols]
        flags, all_rej = _holm(np.ascontiguousarray(scores[at]).reshape(-1, k, live.shape[1]), cut)
        rejected[at] = (flags & live[:, None]).reshape(-1, live.shape[1])
        active[at] = np.repeat(all_rej & live, k, axis=0)
    return rejected, active


def _local_thresholds(tree: TestTree, levels: np.ndarray) -> list[np.ndarray]:
    """Per family group of ``tree.families``, the Holm thresholds: rank ``i``
    of a family of ``k`` at level ``a`` is tested at ``a / (k - i)``."""
    return [levels[par, None] / np.arange(k, 0, -1)
            for layer in tree.families for par, _, k in layer]


def _raise_first_bad(tested: np.ndarray, bad: Sequence[np.ndarray], messages) -> None:
    """Raise ``messages(v)[i]`` for the smallest tested ``v`` flagged by a
    ``bad[i]``, with ``i`` the first check it fails."""
    hits = np.flatnonzero(tested & np.logical_or.reduce(bad))
    if hits.size:
        v = int(hits[0])
        raise ValueError(messages(v)[next(i for i, flags in enumerate(bad) if flags[v])])


def _ids(flags: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(flags).tolist())


def _outside_unit(p: np.ndarray) -> np.ndarray:
    return ~((p >= 0.0) & (p <= 1.0))


# ---------------------------------------------------------------------------
# Flat procedures
# ---------------------------------------------------------------------------


def _checked_pvalues(pvals: Sequence[float]) -> np.ndarray:
    p = _numeric(pvals, "p-values")
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError("need a non-empty 1-D list of p-values")
    if _outside_unit(p).any():
        raise ValueError("p-values must lie in [0, 1]")
    return p


def _flat(p: np.ndarray, thresholds: np.ndarray, step_up: bool) -> np.ndarray:
    rows = np.atleast_2d(p)
    cut = _sorted_cut(np.sort(rows, axis=-1).T, thresholds, step_up)
    return (rows <= cut[:, None]).reshape(p.shape)


def holm(pvals: Sequence[float], level: float) -> np.ndarray:
    """Holm's step-down test at familywise level ``level``.

    The i-th smallest p-value is compared against ``level / (m - i + 1)``;
    testing stops at the first failure.  Returns boolean rejection flags in
    input order.  Rejects a superset of ``bonferroni`` on every input.  A
    2-D input holds one family per row.
    """
    p = _checked_pvalues(pvals)
    return _flat(p, _level(level, "level") / np.arange(p.shape[-1], 0, -1), step_up=False)


def bonferroni(pvals: Sequence[float], level: float) -> np.ndarray:
    """Reject every p-value at or below ``level / m`` (per row of 2-D input)."""
    p = _checked_pvalues(pvals)
    return p <= _level(level, "level") / p.shape[-1]


def benjamini_hochberg(pvals: Sequence[float], q: float) -> np.ndarray:
    """Step-up false-discovery-rate procedure at target rate ``q``.

    Rejects the k smallest p-values where k is the largest index with
    ``p_(k) <= k q / m`` (none when no index qualifies).  A 2-D input holds
    one family per row.
    """
    p = _checked_pvalues(pvals)
    m = p.shape[-1]
    return _flat(p, np.arange(1, m + 1) * _level(q, "q") / m, step_up=True)


# ---------------------------------------------------------------------------
# Tree descent
# ---------------------------------------------------------------------------

PValuesLike = Union[Mapping[int, float], Sequence[float], np.ndarray]


def _budget_levels(tree: TestTree, alloc: LevelsLike, validate: bool = True) -> np.ndarray:
    """The allocation's levels, checked against the level budget when ``validate``."""
    levels = as_levels(alloc, tree.n_vertices)
    if validate and (bad := level_budget_violations(tree, levels)).size:
        raise ValueError(f"level budget violated at vertices {bad.tolist()}")
    return levels


def descend(
    tree: TestTree,
    alloc: LevelsLike,
    pvals: PValuesLike,
    *,
    validate: bool = True,
) -> TreeRejections:
    """Top-down sequential test over a rooted tree.

    A vertex is tested exactly when it is the root or its parent was
    rejected; it is rejected when its p-value is at or below its allocated
    level.  Branches stop at the first acceptance.  Lowering any p-value can
    only enlarge the rejected set.

    Parameters
    ----------
    tree : TestTree
    alloc : AlphaAllocation or array
        Test levels, one per vertex; must satisfy the level budget.
    pvals : array or mapping
        P-values: an array of one entry per vertex, or a mapping from
        integer vertex id to p-value (any other key raises ``ValueError``).
        Vertices the walk never reaches may be NaN or, in a mapping, omitted.
    validate : bool
        Set False to skip the budget re-check when the allocation is known
        to be valid.
    """
    n = tree.n_vertices
    levels = _budget_levels(tree, alloc, validate)
    if isinstance(pvals, Mapping):
        ids = [_vertex(v, n) for v in pvals]
        p, missing = np.full(n, np.nan), np.ones(n, dtype=bool)
        p[ids] = [_number(x, f"p-value at vertex {v}") for v, x in zip(ids, pvals.values())]
        missing[ids] = False
    else:
        p = _numeric(_per_vertex(pvals, n, "p-value array"), "p-values")
        missing = np.isnan(p)
    rejected = _descent(tree, p <= levels)
    tested = _tested(tree, rejected)
    _raise_first_bad(tested, (missing, _outside_unit(p)), lambda v: (
        f"p-value required at tested vertex {v}", f"p-value at vertex {v} lies outside [0, 1]"
    ))
    return TreeRejections(_ids(rejected), _ids(tested & ~rejected))


def descend_batch(
    tree: TestTree,
    alloc: LevelsLike,
    pmatrix: np.ndarray,
    *,
    validate: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``descend`` over many replications at once.

    ``pmatrix`` has shape (replications, n_vertices) and must be fully
    populated.  Returns boolean (rejected, frontier) matrices of the same
    shape; row i agrees exactly with ``descend`` run on row i.  Both are
    transposed views of vertex-major arrays, so they are not C-contiguous.
    """
    levels = _budget_levels(tree, alloc, validate)
    P = _numeric(pmatrix, "pmatrix")
    if P.ndim != 2 or P.shape[1] != tree.n_vertices:
        raise ValueError("pmatrix must have shape (replications, n_vertices)")
    if validate and _outside_unit(P).any():
        raise ValueError("p-values must lie in [0, 1]")
    rejected = _descent(tree, np.ascontiguousarray((P <= levels).T))
    frontier = _tested(tree, rejected) & ~rejected
    return rejected.T, frontier.T


# ---------------------------------------------------------------------------
# Descent over local multiple-testing problems
# ---------------------------------------------------------------------------


def descend_local(
    tree: TestTree,
    alloc: LevelsLike,
    local_pvals: Mapping[int, Sequence[float]],
    *,
    hypotheses: str = "children",
) -> TreeRejections:
    """Tree descent where each vertex hosts a local family of hypotheses.

    At an active vertex ``v`` the local family is tested by Holm's procedure
    at level ``alloc[v]``.  When every member of the family is rejected the
    walk continues at all children; when at least one is accepted the walk
    stops below ``v`` (hypotheses already rejected at ``v`` stay rejected).

    Parameters
    ----------
    local_pvals : mapping integer vertex id -> sequence of p-values
        The local families; any other key raises ``ValueError``.  Layout
        depends on ``hypotheses``:

        ``"children"``
            The family at ``v`` is a 1-D list of one hypothesis per child,
            in child order, and rejected hypotheses are reported under the
            child ids.  Leaves host no family.
        ``"self"``
            Each vertex's family is its own single hypothesis (one p-value),
            reported under the vertex's id: every family must hold exactly
            one p-value, and the walk is ``descend`` on them.
    """
    if hypotheses not in ("children", "self"):
        raise ValueError("hypotheses must be 'children' or 'self'")
    if hypotheses == "self":
        if sizes := [np.size(f) for f in local_pvals.values() if np.size(f) != 1]:
            raise ValueError(f"'self' layout expects one p-value per vertex, got {sizes[0]}")
        return descend(tree, alloc, {v: np.ravel(f)[0] for v, f in local_pvals.items()})
    n = tree.n_vertices
    levels = _budget_levels(tree, alloc)

    # p-values under the child ids, NaN where no family of the right shape is given
    p, given, dims = np.full(n, np.nan), np.full(n, -1), np.ones(n, dtype=np.int64)
    for key, family in local_pvals.items():
        v, f = _vertex(key, n), _numeric(family, "local p-values")
        given[v], dims[v] = f.size, f.ndim
        if f.shape == (tree.child_counts[v],):
            p[tree.children(v)] = f

    cuts = _local_thresholds(tree, levels)
    rejected, active = (flags[:, 0] for flags in _local_descent(tree, p[:, None], cuts))
    tested = active & (tree.child_counts > 0)
    outside, opened = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    outside[tree.parent[1:][_outside_unit(p[1:])]] = True
    opened[tree.parent[1:][active[1:]]] = True  # families rejected whole
    bad = (given < 0, dims != 1, given != tree.child_counts, outside)
    _raise_first_bad(tested, bad, lambda v: (
        f"local p-values required at active vertex {v}",
        f"local p-values at vertex {v} form a {dims[v]}-D array, not a list",
        f"vertex {v} has {tree.child_counts[v]} children but {given[v]} local p-values",
        "p-values must lie in [0, 1]",
    ))
    return TreeRejections(_ids(rejected), _ids(tested & ~opened))


# ---------------------------------------------------------------------------
# Error accounting
# ---------------------------------------------------------------------------


def error_report(
    rejected: Union[TreeRejections, Iterable[int], np.ndarray],
    truth: Union[Sequence[int], np.ndarray],
) -> ErrorReport:
    """Count false rejections against a truth assignment.

    ``rejected`` may be a ``TreeRejections``, a set of integer vertex ids
    (any other id raises ``ValueError``), or a boolean array aligned with
    ``truth``; ``truth`` holds 1 where the null is true.
    Power is the fraction of false nulls rejected (1 denominator when there
    are none).  The counts and both ratios are ``_errors`` on one column,
    as in the simulator.
    """
    t = np.asarray(truth)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("truth must be a non-empty 1-D array")
    t = _truth_flags(t)

    if isinstance(rejected, TreeRejections):
        rejected = rejected.rejected
    flags = np.asarray(rejected)
    if flags.dtype == bool:
        if flags.shape != t.shape:
            raise ValueError("rejection flags and truth must have equal length")
    else:
        flags = np.zeros(t.size, dtype=bool)
        flags[[_vertex(v, t.size) for v in rejected]] = True

    rej, false_rej, fdp, power = (x.item() for x in _errors(flags[:, None], t[:, None]))
    return ErrorReport(false_rejections=false_rej, rejections=rej, fdp=fdp,
                       any_false=false_rej >= 1, power=power)


def _errors(rejected: np.ndarray, null: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per replication of vertex-major flags ``(m, rows)`` and the true-null
    mask broadcast over them: R, V, the FDP ``V / max(R, 1)`` and the power
    ``(R - V) / max(m - m0, 1)``.  The one owner of both denominators."""
    n_rej = _count(rejected, axis=0)
    false_rej = _count(rejected & null, axis=0)
    fdp = false_rej / np.maximum(n_rej, 1)
    power = (n_rej - false_rej) / np.maximum(rejected.shape[0] - _count(null, axis=0), 1)
    return n_rej, false_rej, fdp, power


def _count(flags: np.ndarray, axis: int) -> np.ndarray:
    """Number of set flags along ``axis``.

    Summed in int16 when the axis is short enough: that is several times
    faster than ``count_nonzero`` or an int64 sum on these small blocks.
    """
    dtype = np.int16 if flags.shape[axis] < 2**15 else np.int64
    return flags.sum(axis=axis, dtype=dtype)
