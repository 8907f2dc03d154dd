"""Shared test utilities: independent reference implementations and tree
generators.  Nothing here reuses the production traversal or kernel code
paths; that independence is the point.
"""

from __future__ import annotations

import numpy as np


def children_from_parents(parents) -> list[list[int]]:
    """Plain child lists rebuilt from a parent array."""
    kids: list[list[int]] = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p >= 0:
            kids[p].append(v)
    return kids


def reference_descend(children, levels, pvals):
    """Naive recursive top-down walk, independent of the library's code.

    Tests the root; recurses into the children of every rejected vertex;
    records acceptances as the frontier.
    """
    rejected: set[int] = set()
    frontier: set[int] = set()

    def visit(v: int) -> None:
        if pvals[v] <= levels[v]:
            rejected.add(v)
            for c in children[v]:
                visit(c)
        else:
            frontier.add(v)

    visit(0)
    return rejected, frontier


def normal_cdf_oracle(x: float) -> float:
    """Standard normal CDF via mpmath's arbitrary-precision series."""
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.ncdf(x))


def uniform_shapes(max_vertices: int) -> list[tuple[int, ...]]:
    """All per-layer branching tuples whose complete tree has at most
    ``max_vertices`` vertices (including the single-vertex tree)."""
    shapes: list[tuple[int, ...]] = [()]

    def extend(prefix: tuple[int, ...], size: int, width: int) -> None:
        b = 1
        while True:
            new_width = width * b
            new_size = size + new_width
            if new_size > max_vertices:
                break
            shapes.append(prefix + (b,))
            extend(prefix + (b,), new_size, new_width)
            b += 1

    extend((), 1, 1)
    return shapes


def random_uniform_shape(rng: np.random.Generator, max_depth: int = 4, max_vertices: int = 120):
    """Random per-layer branching tuple with a vertex cap."""
    depth = int(rng.integers(0, max_depth + 1))
    shape: list[int] = []
    size = width = 1
    for _ in range(depth):
        b = int(rng.integers(1, 4))
        if size + width * b > max_vertices:
            break
        shape.append(b)
        width *= b
        size += width
    return tuple(shape)


def blocks_signal(n: int = 1024) -> np.ndarray:
    """Piecewise-constant fixture whose jumps survive the finest-level
    threshold at sigma = 1 (finest coefficient of a jump h is h/sqrt(2),
    and every jump here is at least 14)."""
    edges = [0, 97, 240, 350, 620, 800, n]
    values = [0.0, 14.0, -4.0, 12.0, -6.0, 8.0]
    x = np.empty(n)
    for lo, hi, val in zip(edges[:-1], edges[1:], values):
        x[lo:hi] = val
    return x


def random_general_parents(
    rng: np.random.Generator, max_depth: int = 3, max_children: int = 3, max_vertices: int = 80
) -> list[int]:
    """Parent array of a random complete tree with per-vertex branching.

    Unlike layer-uniform trees, two vertices at the same depth may have
    different child counts; every leaf still sits at the bottom layer.
    """
    depth = int(rng.integers(0, max_depth + 1))
    parents = [-1]
    layer = [0]
    for _ in range(depth):
        next_layer = []
        for v in layer:
            b = int(rng.integers(1, max_children + 1))
            if len(parents) + b > max_vertices:
                b = 1
            for _ in range(b):
                parents.append(v)
                next_layer.append(len(parents) - 1)
        layer = next_layer
    return parents


# ---------------------------------------------------------------------------
# Per-vertex references for the layered tree, allocation, interval and
# wavelet code: one plain Python step per vertex, in id order.
# ---------------------------------------------------------------------------


def reference_depths(parents) -> list[int]:
    """Depth of every vertex, one parent lookup per vertex."""
    depth = [0] * len(parents)
    for v in range(1, len(parents)):
        depth[v] = depth[parents[v]] + 1
    return depth


def reference_uniform_levels(parents, alpha: float) -> np.ndarray:
    """Each vertex passes its level to its children in equal shares."""
    kids = children_from_parents(parents)
    levels = np.empty(len(parents))
    levels[0] = alpha
    for v, ks in enumerate(kids):
        if ks:
            levels[ks] = levels[v] / len(ks)
    return levels


def reference_weighted_levels(parents, alpha: float, weights) -> np.ndarray:
    """Each vertex splits its level among its children by weight."""
    kids = children_from_parents(parents)
    w = np.asarray(weights, dtype=np.float64)
    levels = np.empty(len(parents))
    levels[0] = alpha
    for v, ks in enumerate(kids):
        if ks:
            levels[ks] = levels[v] * w[ks] / w[ks].sum()
    return levels


def reference_budget_violations(parents, levels, tol: float) -> list[int]:
    """Internal vertices whose children's levels sum above their own plus ``tol``."""
    levels = np.asarray(levels, dtype=np.float64)
    return [
        v
        for v, ks in enumerate(children_from_parents(parents))
        if ks and levels[ks].sum() > levels[v] + tol
    ]


def reference_interval_spans(n_times: int, depth: int, arity: int) -> list[tuple[int, int]]:
    """Breadth-first (start, end) spans of the recursive near-equal split,
    the leftmost parts taking the remainder."""
    by_depth: list[list[tuple[int, int]]] = [[] for _ in range(depth + 1)]

    def split(start: int, end: int, d: int) -> None:
        by_depth[d].append((start, end))
        if d == depth:
            return
        base, rem = divmod(end - start, arity)
        for i in range(arity):
            size = base + (1 if i < rem else 0)
            split(start, start + size, d + 1)
            start += size

    split(0, n_times, 0)
    return [span for layer in by_depth for span in layer]


def reference_keep_mask(coeffs, alpha: float, sigma: float, force_levels: int = 0) -> np.ndarray:
    """Dense descent over the Haar coefficient forest: every coefficient of
    every level is compared, then masked by its parent's decision."""
    from scipy import special

    c = np.asarray(coeffs, dtype=np.float64)
    J = c.shape[-1].bit_length() - 2
    mask = np.zeros(c.shape, dtype=bool)
    mask[..., :2] = True
    kept_above = None
    for j in range(1, J + 1):
        w = c[..., 1 << j : 1 << (j + 1)]
        small = 2.0 * special.ndtr(-np.abs(w) / sigma) <= alpha / (1 << j)
        kept = small if j == 1 or j <= force_levels else np.repeat(kept_above, 2, axis=-1) & small
        mask[..., 1 << j : 1 << (j + 1)] = kept
        kept_above = kept
    return mask


def reference_leaf_counts(parents) -> list[int]:
    """Number of leaves below every vertex (1 for a leaf)."""
    kids = children_from_parents(parents)
    counts = [0] * len(parents)
    for v in range(len(parents) - 1, -1, -1):
        counts[v] = 1 if not kids[v] else sum(counts[c] for c in kids[v])
    return counts


def reference_internal_truth(parents, truth) -> np.ndarray:
    """Rows of ``truth`` with every internal vertex set to the AND of its
    children, bottom-up."""
    kids = children_from_parents(parents)
    out = np.array(truth, dtype=bool)
    for v in range(len(parents) - 1, -1, -1):
        if kids[v]:
            out[:, v] = out[:, kids[v]].all(axis=1)
    return out
