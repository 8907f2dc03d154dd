"""Locating time regions with nonzero mean by descent over subdivisions.

A trial matrix holds repeated recordings of a time series whose mean is
hypothesized to be zero everywhere.  The time axis is subdivided into a
complete m-adic tree of intervals; each interval is tested with a Gaussian
grand-mean z-test over all trials and samples it covers, and the tree
descent walks the subdivision: a subinterval is examined only while its
parent shows a significant departure, so the procedure zooms in on
conspicuous regions while the root level bounds the probability of flagging
any truly-null interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussian import _check_sigma, two_sided_pvalue
from .trees import (TestTree, _descent, _number, _numeric, _tested, build_complete_tree,
                    uniform_levels)

__all__ = [
    "TrialMatrix",
    "IntervalNode",
    "IntervalTree",
    "build_interval_tree",
    "interval_pvalues",
    "LocalizeResult",
    "localize",
]


@dataclass(frozen=True)
class TrialMatrix:
    """Stacked trials (rows) by time points (columns) with known noise scale."""

    data: np.ndarray
    sigma: float = 1.0

    def __post_init__(self) -> None:
        data = _numeric(self.data, "trial data")
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("trial data must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(data)):
            raise ValueError("trial data must be finite")
        object.__setattr__(self, "sigma", _check_sigma(self.sigma))
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n_trials(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_times(self) -> int:
        return int(self.data.shape[1])


@dataclass(frozen=True)
class IntervalNode:
    """One tree vertex with its half-open sample-index interval."""

    vertex: int
    start: int
    end: int
    depth: int

    @property
    def width(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, eq=False)
class IntervalTree:
    """Complete m-adic subdivision of [0, T): vertex ``v`` covers
    ``[starts[v], ends[v])``."""

    tree: TestTree
    starts: np.ndarray
    ends: np.ndarray

    def _nodes(self, ids: np.ndarray) -> tuple[IntervalNode, ...]:
        fields = (ids, self.starts[ids], self.ends[ids], self.tree.depth_of[ids])
        return tuple(map(IntervalNode, *(f.tolist() for f in fields)))


def build_interval_tree(n_times: int, depth: int, arity: int = 2) -> IntervalTree:
    """Subdivide ``[0, n_times)`` into a complete ``arity``-adic tree.

    Every vertex's interval splits into ``arity`` contiguous near-equal
    parts; when the length is not divisible the leftmost children take the
    remainder (sizes differ by at most one).  Requires ``depth <= n_times``
    and ``arity**depth <= n_times`` so every leaf interval is nonempty.
    The spans are computed one layer at a time.
    """
    n_times, depth = _number(n_times, "n_times", True), _number(depth, "depth", True)
    arity = _number(arity, "arity", True)
    if n_times < 1:
        raise ValueError("n_times must be positive")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > n_times:
        raise ValueError(f"depth {depth} exceeds the {n_times} samples")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if arity**depth > n_times:
        raise ValueError(f"{arity}**{depth} leaf intervals do not fit into {n_times} samples")

    tree = build_complete_tree([arity] * depth)
    # breadth-first ids: layer d+1 lists the children of layer d in order
    layer_starts, layer_ends = [np.zeros(1, dtype=np.int64)], [np.full(1, n_times, dtype=np.int64)]
    rank = np.arange(arity)
    for _ in range(depth):
        lo = layer_starts[-1]
        base, rem = np.divmod(layer_ends[-1] - lo, arity)
        sizes = base[:, None] + (rank < rem[:, None])
        ends = lo[:, None] + np.cumsum(sizes, axis=1)
        layer_starts.append((ends - sizes).ravel())
        layer_ends.append(ends.ravel())
    starts, ends = np.concatenate(layer_starts), np.concatenate(layer_ends)
    starts.setflags(write=False)
    ends.setflags(write=False)
    return IntervalTree(tree, starts, ends)


def interval_pvalues(trials: TrialMatrix, itree: IntervalTree) -> np.ndarray:
    """Two-sided z-test of zero grand mean per interval node, pooling all
    trials: ``z = sum / (sigma * sqrt(R*w))`` over R trials and width w.

    Raises ``ValueError`` unless ``itree`` spans exactly the trials' samples,
    or when the trial sums overflow float64, or an interval's total and its
    ``sigma * sqrt(R*w)`` both do.
    """
    if itree.ends[0] != trials.n_times:
        raise ValueError(
            f"interval tree spans {int(itree.ends[0])} samples, trials have {trials.n_times}"
        )
    starts, ends = itree.starts, itree.ends
    with np.errstate(over="ignore", invalid="ignore"):
        prefix = np.concatenate(([0.0], np.cumsum(trials.data.sum(axis=0))))
        scales = trials.sigma * np.sqrt(trials.n_trials * (ends - starts))
        # a total or z-score past float64 is +-inf (p-value 0), a scale inf (z-score 0)
        z = (prefix[ends] - prefix[starts]) / scales
    if not np.isfinite(prefix[-1]):  # as is every prefix after a non-finite one
        raise ValueError("trial sums overflow float64")
    if not np.isfinite(scales[0]) and np.isnan(z).any():  # the root's scale is the largest
        raise ValueError("an interval's total and its sigma * sqrt(R*w) both overflow float64")
    return two_sided_pvalue(z)


@dataclass(frozen=True)
class LocalizeResult:
    """Intervals flagged by the descent, from coarsest to finest."""

    rejected: tuple[IntervalNode, ...]
    maximal: tuple[IntervalNode, ...]  # deepest rejected node on each path
    frontier: tuple[IntervalNode, ...]
    pvalues: np.ndarray
    levels: np.ndarray
    tested: int = 0  # vertices the walk tested: rejected plus frontier

    def to_doc(self) -> dict:
        def row(nd: IntervalNode, decision: Optional[str] = None) -> dict:
            out = {
                "vertex": nd.vertex,
                "start": nd.start,
                "end": nd.end,
                "depth": nd.depth,
                "p_value": float(self.pvalues[nd.vertex]),
                "level": float(self.levels[nd.vertex]),
            }
            if decision is not None:
                out["decision"] = decision
            return out

        tested = sorted(
            [(nd, "rejected") for nd in self.rejected]
            + [(nd, "accepted") for nd in self.frontier],
            key=lambda pair: pair[0].vertex,
        )
        return {
            "intervals": [row(nd, decision) for nd, decision in tested],
            "rejected": [row(nd) for nd in self.rejected],
            "maximal": [row(nd) for nd in self.maximal],
            "frontier": [row(nd) for nd in self.frontier],
            "tested": self.tested,
        }


def localize(
    trials: TrialMatrix,
    alpha: float,
    depth: int,
    arity: int = 2,
    *,
    itree: Optional[IntervalTree] = None,
) -> LocalizeResult:
    """Run the interval descent and report flagged regions.

    Uses the uniform budget split over the subdivision tree.  ``maximal``
    holds the deepest rejected node of each search path (the localization
    answer); ``frontier`` the intervals where the walk stopped.  A prebuilt
    ``itree`` must have the given ``depth`` and ``arity`` and span exactly
    ``trials.n_times`` samples.
    """
    depth, arity = _number(depth, "depth", True), _number(arity, "arity", True)
    if itree is None:
        itree = build_interval_tree(trials.n_times, depth, arity)
    tree = itree.tree
    shape = (tree.depth, int(tree.child_counts[0]) if tree.depth else arity)  # depth 0: any arity
    if shape != (depth, arity):
        raise ValueError(f"interval tree has depth {shape[0]} and arity {shape[1]}, "
                         f"asked for depth {depth} and arity {arity}")
    alloc = uniform_levels(tree, alpha)
    pvals = interval_pvalues(trials, itree)
    flags = _descent(tree, pvals <= alloc.levels)
    rejected = np.flatnonzero(flags)
    frontier = np.flatnonzero(_tested(tree, flags) & ~flags)
    has_rejected_child = np.zeros(tree.n_vertices, dtype=bool)
    has_rejected_child[tree.parent[rejected[rejected > 0]]] = True
    maximal = rejected[~has_rejected_child[rejected]]
    return LocalizeResult(
        rejected=itree._nodes(rejected),
        maximal=itree._nodes(maximal),
        frontier=itree._nodes(frontier),
        pvalues=pvals,
        levels=alloc.levels,
        tested=rejected.size + frontier.size,
    )
