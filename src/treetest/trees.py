"""Rooted complete trees and per-vertex test-level budgets.

The procedures in this package walk a rooted tree top-down, testing one null
hypothesis per vertex.  Validity of the walk rests on a single structural
condition on the per-vertex test levels: at every internal vertex the
children's levels must sum to at most the vertex's own level (a local
Bonferroni budget).  Under that budget the root level bounds the familywise
error of the whole walk, whatever the joint distribution of the test
statistics.

This module provides the tree container, level allocations that satisfy the
budget by construction, and the combinatorial helpers the verification
engine is built on: ancestor paths, the set of vertices whose null is true
while every ancestor's null is false (``first_true_vertices``), and level
sums over that set restricted to subtrees (read through
``exact.audit_subtree_sums``).

Vertices are dense integers, assigned breadth-first by the constructors,
and every parent id is smaller than its children's ids; trees are immutable
after construction and safe for concurrent reads.  A caller's vertex ids are
read through ``_vertex``, its numbers through ``_number``, its counts through
``_integer`` (``_number``, then a floor) and its test levels through
``_level`` (``_number``, then the range (0, 1]).

A tree keeps its children as one read-only array ordered by parent, and
``children(v)`` returns a read-only view into it.  ``layers`` holds the
per-depth vertex index sets, computed once: contiguous slices when ids
grow with depth (every breadth-first tree), read-only gather arrays
otherwise.  ``families`` groups the children of each layer into families
of equal size, in the same two kinds.  Either kind indexes any per-vertex
array, or the rows of a vertex-major block, so every tree computation takes
one numpy step per layer instead of one Python step per vertex.

Two private passes serve them all: ``_descent`` (top-down over ``layers``;
``_tested`` marks where it tests) and ``_fold_up`` (bottom-up over
``families``).  The first-true vertices are the true nulls where the oracle
descent, rejecting exactly the false nulls, stops (Goeman and Solari, 2010);
subtree sums and the simulator's nested aggregates are folds.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "LEVEL_SUM_TOL",
    "TestTree",
    "AlphaAllocation",
    "build_complete_tree",
    "uniform_levels",
    "weighted_levels",
    "level_budget_violations",
    "ancestors",
    "first_true_vertices",
    "allocation_doc",
    "allocation_from_doc",
]

# Absolute slack when comparing children's level sums against the parent
# level; absorbs binary-float division residue of the constructors.
LEVEL_SUM_TOL = 1e-12

# ``build_complete_tree`` refuses trees above this vertex count.
MAX_VERTICES = 10**7

# A set of vertex ids: a contiguous slice or an index array.
Index = Union[slice, np.ndarray]


class TestTree:
    """A rooted tree in which every leaf sits at the same depth.

    Parameters
    ----------
    parents : sequence of int
        ``parents[v]`` is the parent id of vertex ``v``; the root is vertex 0
        with parent -1.  Every parent id must be smaller than the child's id.
        Children of a vertex are ordered by id.  Ids are integers or
        integral floats; a bool, a string or a fraction is a ``ValueError``.

    The per-vertex arrays ``parent``, ``depth_of`` and ``child_counts`` are
    read-only; ``layers[d]`` indexes the vertices at depth ``d`` and
    ``families[d]`` their children.  The constructor derives the fields
    from the parent array of any tree, ``build_complete_tree`` takes them in
    closed form, and both hand them to the one initializer ``_fill``.

    Raises
    ------
    ValueError
        If the parent array does not describe a single rooted tree, or if
        some leaf does not sit at the maximum depth (the procedures require
        every branch to end at the bottom layer).
    """

    __slots__ = (
        "parent", "depth_of", "n_vertices", "depth", "layers", "child_counts", "_kids",
        "_kid_start", "_families",
    )

    __test__ = False  # not a test case, despite the name

    def __init__(self, parents: Sequence[int]):
        if not (isinstance(parents, np.ndarray) and parents.dtype.kind == "i"):
            parents = _numeric(parents, "parents")  # -1.0 reads as -1; 0.7, "0" and True do not
            if not (np.isfinite(parents) & (np.trunc(parents) == parents)).all():
                raise ValueError("parents must be integer vertex ids")
        parent = np.array(parents, dtype=np.int64)
        if parent.ndim != 1 or parent.size == 0:
            raise ValueError("parents must be a non-empty 1-D sequence")
        n = int(parent.size)
        if parent[0] != -1:
            raise ValueError("vertex 0 must be the root (parent -1)")
        if n > 1:
            ids = np.arange(1, n)
            if np.any(parent[1:] < 0) or np.any(parent[1:] >= ids):
                raise ValueError("every non-root parent id must be a smaller vertex id")

        # Pointer doubling: depth_of[v] is the distance from v to anc[v];
        # each pass doubles the jump, so a path of n vertices takes log2(n).
        depth_of = np.ones(n, dtype=np.int64)
        depth_of[0] = 0
        anc = parent.copy()
        anc[0] = 0
        while anc.any():
            depth_of += depth_of[anc]
            anc = anc[anc]

        counts = np.bincount(parent[1:], minlength=n)
        kids = np.argsort(parent[1:], kind="stable") + 1

        depth = int(depth_of.max())
        leaf_depths = depth_of[counts == 0]
        if (leaf_depths != depth).any():
            raise ValueError("tree is not complete: every leaf must sit at the bottom layer")

        layer_start = np.zeros(depth + 2, dtype=np.int64)
        np.cumsum(np.bincount(depth_of), out=layer_start[1:])
        if np.all(depth_of[1:] >= depth_of[:-1]):
            layers: tuple = tuple(slice(int(a), int(b)) for a, b in zip(layer_start, layer_start[1:]))
        else:
            by_depth = np.argsort(depth_of, kind="stable")
            by_depth.setflags(write=False)
            layers = tuple(by_depth[a:b] for a, b in zip(layer_start, layer_start[1:]))
        self._fill(parent, depth_of, counts, kids, layers)

    def _fill(self, parent: np.ndarray, depth_of: np.ndarray, counts: np.ndarray,
              kids: np.ndarray, layers: tuple, families: Optional[tuple] = None) -> None:
        """Set every slot from the per-vertex arrays (made read-only here), the
        children in parent order and the layers; ``families=None`` leaves them
        to be grouped on first use."""
        kid_start = np.zeros(parent.size + 1, dtype=np.int64)
        np.cumsum(counts, out=kid_start[1:])
        for arr in (parent, depth_of, counts, kid_start, kids):
            arr.setflags(write=False)
        self.parent, self.depth_of, self.child_counts = parent, depth_of, counts
        self._kids, self._kid_start, self._families = kids, kid_start, families
        self.n_vertices, self.depth, self.layers = parent.size, len(layers) - 1, layers

    # -- basic structure ------------------------------------------------

    root = 0

    def children(self, v: int) -> np.ndarray:
        """Ordered child ids of vertex ``v`` (empty for leaves), a read-only
        view; ``ValueError`` unless ``v`` is an integer id of this tree."""
        v = _vertex(v, self.n_vertices)
        return self._kids[self._kid_start[v] : self._kid_start[v + 1]]

    @property
    def leaves(self) -> np.ndarray:
        out = np.nonzero(self.child_counts == 0)[0]
        out.setflags(write=False)
        return out

    @property
    def families(self) -> tuple[tuple[tuple[Index, Index, int], ...], ...]:
        """Per layer, one ``(parents, children, k)`` group per family size ``k``.

        ``children`` lists the children of ``parents`` in order, ``k`` each,
        so ``x[children].reshape(-1, k, ...)`` holds one family per row.  A
        layer of equal families with contiguous children (every
        ``build_complete_tree`` tree) is one group of slices, which makes
        that reshape a view; other groups hold read-only index arrays.
        """
        if self._families is None:
            ids, out = np.arange(self.n_vertices), []
            for layer in self.layers[:-1]:
                sizes, groups = self.child_counts[layer], []
                for k in np.unique(sizes).tolist():
                    par = ids[layer][sizes == k]
                    kids = self._kids[self._kid_start[par, None] + np.arange(k)].ravel()
                    whole = isinstance(layer, slice) and par.size == sizes.size
                    if whole and (np.diff(kids) == 1).all():
                        par, kids = layer, slice(int(kids[0]), int(kids[-1]) + 1)
                    else:
                        par.setflags(write=False)
                        kids.setflags(write=False)
                    groups.append((par, kids, k))
                out.append(tuple(groups))
            self._families = tuple(out)
        return self._families

    def child_sums(self, values: np.ndarray) -> np.ndarray:
        """``values[children(v)].sum()`` for every vertex ``v`` (0 at leaves).

        Families of equal size are summed together as rows of one matrix,
        which numpy adds in the same order as the 1-D sum of each family,
        so the result is bit-identical to summing family by family.
        """
        out = np.zeros(self.n_vertices, dtype=np.float64)
        for groups in self.families:
            for par, kids, k in groups:
                out[par] = values[kids].reshape(-1, k).sum(axis=1)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TestTree(n_vertices={self.n_vertices}, depth={self.depth})"

    # -- layer-uniform helpers -------------------------------------------

    def layer_branching(self) -> tuple[int, ...]:
        """Per-layer branching factors: the ``k`` of each layer's one group
        in ``families``, which owns the grouping by child count.  A layer of
        several groups raises ``ValueError``: the tree is not layer-uniform,
        so no branching list describes it.
        """
        sizes = tuple(k for layer in self.families for _, _, k in layer)
        if len(sizes) != self.depth:
            raise ValueError("tree is not layer-uniform")
        return sizes


def _vertex_count(branching: Sequence[int]) -> int:
    """Vertices of the complete tree with these per-layer branching factors."""
    return 1 + sum(itertools.accumulate(branching, operator.mul))


def _branching_list(values, where: str = "branching") -> tuple[int, ...]:
    """A branching list: factors read by ``_integer``, at least 1 (a non-list
    is a ``TypeError`` naming ``where``), of at most ``MAX_VERTICES`` vertices."""
    branching = tuple(_integer(b, where, 1) for b in _listed(values, where))
    if _vertex_count(branching) > MAX_VERTICES:
        raise ValueError(f"tree would exceed {MAX_VERTICES} vertices")
    return branching


def build_complete_tree(branching: Sequence[int]) -> TestTree:
    """Build the complete tree in which every depth-``l`` vertex has
    ``branching[l]`` children.

    ``branching`` holds one factor (>= 1) per layer above the bottom one; an
    empty sequence gives the single-vertex tree.  Construction is refused
    above ``MAX_VERTICES`` vertices, before any array is allocated.  The
    fields are taken in closed form from the layer widths and handed to
    ``TestTree._fill``, equal to what ``TestTree(parents)`` derives from
    the parent array: ids grow with depth, so each layer and each layer's
    children are one slice.
    """
    branching = _branching_list(branching)
    total = _vertex_count(branching)

    widths = list(itertools.accumulate(branching, operator.mul, initial=1))
    starts = list(itertools.accumulate(widths, initial=0))
    counts = np.repeat(np.array(branching + (0,), dtype=np.int64), widths)
    # every vertex is the parent of its child_counts children, in id order
    parent = np.concatenate(([-1], np.repeat(np.arange(total, dtype=np.int64), counts)))
    depth_of = np.repeat(np.arange(len(widths), dtype=np.int64), widths)
    layers = tuple(map(slice, starts[:-1], starts[1:]))

    tree = TestTree.__new__(TestTree)
    tree._fill(parent, depth_of, counts, np.arange(1, total, dtype=np.int64), layers,
               tuple(((layers[d], layers[d + 1], b),) for d, b in enumerate(branching)))
    return tree


# ---------------------------------------------------------------------------
# The two passes every tree computation is built from
# ---------------------------------------------------------------------------


def _descent(tree: TestTree, rejected: np.ndarray) -> np.ndarray:
    """The tree descent on vertex-major flags ``(n_vertices, ...)``, in place.

    ``rejected`` enters as ``score <= cut`` per vertex and leaves as the
    descent's rejections: a vertex stays flagged only where its parent is,
    one step per layer of ``tree.layers``.
    """
    for ids in tree.layers[1:]:
        rejected[ids] &= rejected[tree.parent[ids]]
    return rejected


def _tested(tree: TestTree, rejected: np.ndarray) -> np.ndarray:
    """Where the descent tests: the root and the children of rejected vertices."""
    tested = np.ones(rejected.shape, dtype=bool)
    tested[1:] = rejected[tree.parent[1:]]
    return tested


def _fold_up(tree: TestTree, values: np.ndarray, ufunc: np.ufunc,
             floor: Optional[np.ndarray] = None) -> np.ndarray:
    """Fold each vertex's children into it, deepest layer first, in place.

    ``values`` is vertex-major, ``(n_vertices, ...)``; every internal vertex
    becomes ``ufunc`` of its own entry and its children's folded entries,
    combined one child at a time in child order (numpy sums a contiguous run
    of 8 or more pairwise, which rounds differently), then raised to at
    least its row of ``floor`` (same shape as ``values``) when one is given.
    """
    for layer in reversed(tree.families):
        for par, kids, k in layer:
            members = values[kids].reshape(-1, k, *values.shape[1:])
            acc = values[par]  # a view of the parents' rows when they are a slice
            for i in range(k):
                ufunc(acc, members[:, i], out=acc)
            if floor is not None:
                np.maximum(acc, floor[par], out=acc)
            if not isinstance(par, slice):
                values[par] = acc
    return values


# ---------------------------------------------------------------------------
# Level allocations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaAllocation:
    """Per-vertex test levels, indexed by vertex id.

    The array is validated to lie in (0, 1]; whether it satisfies the level
    budget of a particular tree is checked by ``level_budget_violations``.
    """

    levels: np.ndarray

    def __post_init__(self) -> None:
        levels = _numeric(self.levels, "test levels").copy()
        if levels.ndim != 1 or levels.size == 0:
            raise ValueError("levels must be a non-empty 1-D array")
        if not np.all((levels > 0.0) & (levels <= 1.0)):
            raise ValueError("test levels must lie in (0, 1]")
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    @property
    def root_level(self) -> float:
        return float(self.levels[0])


LevelsLike = Union[AlphaAllocation, Sequence[float], np.ndarray]


def _vertex(v, n: int) -> int:
    """A caller's vertex id of an ``n``-vertex tree: an integer (Python or
    numpy, not bool) in ``[0, n)``; ``ValueError`` for anything else."""
    if not isinstance(v, (int, np.integer)) or type(v) is bool or not 0 <= v < n:
        raise ValueError(f"unknown vertex id {v!r}, outside the integers 0 to {n - 1}")
    return int(v)


def _per_vertex(values, n: int, what: str):
    """``values`` uncast, once checked to hold one entry per vertex of an ``n``-vertex tree
    (a cast would hide a bool among numbers); ``ValueError`` for any other shape, a mapping too."""
    out = np.asarray(values)
    if out.ndim != 1:
        raise ValueError(f"{what} must list one entry per vertex, not a {out.ndim}-D "
                         f"{type(values).__name__}")
    if out.size != n:
        raise ValueError(f"{what} covers {out.size} vertices, tree has {n}")
    return values


def _numeric(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, read only from integers or floats; a ``ValueError``
    for any other dtype or for a bool among the numbers of a (nested) sequence, so "0.01"
    and True are refused rather than read as 0.01 and 1.  Bool is for flags only."""
    out = np.asarray(values)
    kind = out.dtype.kind
    if kind in "iuf" and isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(
            map(type, np.asarray(values, dtype=object).flat)):
        kind = "b"
    if kind not in "iuf":
        kinds = {"b": "booleans", "c": "complex numbers", "U": "strings", "S": "bytes"}
        raise ValueError(f"{what} must be real numbers, not {kinds.get(kind, 'objects')}")
    return out.astype(np.float64, copy=False)


def _truth_flags(values: np.ndarray) -> np.ndarray:
    """0/1 truth values (1 = null true) as bool flags.  The values are checked
    before the cast, so 0.9 is refused rather than read as a false null."""
    if not np.all((values == 0) | (values == 1)):
        raise ValueError("truth values must be 0 or 1")
    return values.astype(bool)


def as_levels(alloc: LevelsLike, n_vertices: int) -> np.ndarray:
    """An allocation (object, or array of one level per vertex) as a read-only
    array of levels, each checked to lie in (0, 1]."""
    if isinstance(alloc, AlphaAllocation):
        return _per_vertex(alloc.levels, n_vertices, "allocation")
    return AlphaAllocation(_per_vertex(alloc, n_vertices, "allocation")).levels


def as_truth(tree: TestTree, truth: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """A truth assignment, one 0/1 entry per vertex (1 = null true), as bool flags."""
    return _truth_flags(np.asarray(_per_vertex(truth, tree.n_vertices, "truth assignment")))


def uniform_levels(tree: TestTree, alpha: float) -> AlphaAllocation:
    """Split each vertex's level equally among its children.

    The root gets ``alpha``; every internal vertex passes its own level down
    in equal shares, so the budget holds with equality at every vertex.
    """
    return _split_levels(tree, _level(alpha, "alpha"), np.ones(tree.n_vertices), tree.child_counts)


def weighted_levels(
    tree: TestTree,
    alpha: float,
    weights: Union[Sequence[float], np.ndarray],
) -> AlphaAllocation:
    """Split each vertex's level among its children proportionally to
    positive weights, one per vertex (the root's is not read).  With equal
    weights this reduces to ``uniform_levels``.
    """
    alpha = _level(alpha, "alpha")
    w = _weights(weights, tree.n_vertices)
    return _split_levels(tree, alpha, w, tree.child_sums(w))


def _weights(weights, n: int, what: str = "weight array") -> np.ndarray:
    """Weights of an ``n``-vertex tree as float64, each but the root's
    positive and finite; ``ValueError`` otherwise, a shape error naming ``what``."""
    w = _numeric(_per_vertex(weights, n, what), "weights")
    if not (np.isfinite(w[1:]) & (w[1:] > 0.0)).all():
        raise ValueError("weights must be positive and finite")
    return w


def _split_levels(tree: TestTree, alpha: float, share: np.ndarray, total: np.ndarray):
    """Top-down split: the root gets ``alpha`` and each vertex the fraction
    ``share[v] / total[parent]`` of its parent's level."""
    levels = np.empty(tree.n_vertices, dtype=np.float64)
    levels[0] = alpha
    for ids in tree.layers[1:]:
        up = tree.parent[ids]
        levels[ids] = levels[up] * share[ids] / total[up]
    return AlphaAllocation(levels)


def level_budget_violations(tree: TestTree, alloc: LevelsLike) -> np.ndarray:
    """Ids of internal vertices whose children's levels sum above their own.

    The comparison allows an absolute slack of ``LEVEL_SUM_TOL``.  An empty
    result means the allocation is admissible for the descent procedures.
    """
    levels = as_levels(alloc, tree.n_vertices)
    over = tree.child_sums(levels) > levels + LEVEL_SUM_TOL
    return np.nonzero(over & (tree.child_counts > 0))[0]


# ---------------------------------------------------------------------------
# Combinatorial helpers used by the verification engine
# ---------------------------------------------------------------------------


def ancestors(tree: TestTree, v: int) -> np.ndarray:
    """Vertices strictly above ``v`` on its root path, parent first.  ``v``
    is an integer id of the tree; anything else raises ``ValueError``."""
    v, out = _vertex(v, tree.n_vertices), []
    while v != tree.root:
        v = tree.parent[v]
        out.append(v)
    return np.asarray(out, dtype=np.int64)


def first_true_vertices(tree: TestTree, truth: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """Vertices whose null is true while every strict ancestor's null is false.

    ``truth`` holds one 0/1 entry per vertex (1 = null true).  This is the
    support set of the union bound behind the familywise guarantee: any
    false rejection of the descent procedure forces a false rejection at one
    of these vertices.  Equals ``{root}`` whenever the root's null is true;
    always an antichain (no member is an ancestor of another).
    """
    return np.nonzero(_first_true(tree, as_truth(tree, truth)))[0]


def _first_true(tree: TestTree, t: np.ndarray) -> np.ndarray:
    """First-true flags of vertex-major truth flags ``t``: where the oracle
    descent that rejects exactly the false nulls tests a true null."""
    return t & _tested(tree, _descent(tree, ~t))


def _subtree_sums(tree: TestTree, levels: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per vertex, the level sum over the first-true vertices of its subtree
    (bool ``truth``); first-true is tree-wide, so 0 below a true vertex."""
    return _fold_up(tree, np.where(_first_true(tree, truth), levels, 0.0), np.add)


# ---------------------------------------------------------------------------
# Serialization (JSON-compatible documents)
# ---------------------------------------------------------------------------


def allocation_doc(tree: TestTree, alloc: LevelsLike) -> dict:
    """JSON-compatible document for a layer-uniform tree and its allocation.

    Layout: ``{"depth", "branching", "alpha_root", "allocation"}`` with the
    per-vertex levels listed in breadth-first id order.
    """
    levels = as_levels(alloc, tree.n_vertices)
    return {
        "depth": tree.depth,
        "branching": list(tree.layer_branching()),
        "alpha_root": float(levels[0]),
        "allocation": [float(x) for x in levels],
    }


def _number(value, where: str, integral: bool = False) -> Union[int, float]:
    """A JSON number as a float, or as an int when ``integral``; ``TypeError``
    naming ``where`` for booleans, strings, other types and non-integral integers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{where}: expected a number, got {value!r}")
    if integral and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise TypeError(f"{where}: expected an integer, got {value!r}")
    return int(value) if integral else float(value)


def _integer(value, where: str, least: int = 0) -> int:
    """An integer read by ``_number``; a ``ValueError`` naming ``where`` below ``least``."""
    if (value := _number(value, where, True)) < least:
        raise ValueError(f"{where} must be >= {least}, got {value}")
    return value


def _level(value, where: str, below_one: bool = False) -> float:
    """A test level read by ``_number``, in (0, 1], or (0, 1) if ``below_one``."""
    level = _number(value, where)
    if not (0.0 < level < 1.0 or level == 1.0 and not below_one):
        raise ValueError(f"{where} must lie in (0, 1{')' if below_one else ']'}")
    return level


def _listed(values, where: str):
    """``values`` when it iterates as a list (not a string or a mapping), else a
    ``TypeError`` naming ``where``."""
    if not isinstance(values, Iterable) or isinstance(values, (str, bytes, Mapping)):
        raise TypeError(f"{where}: expected a list, got {values!r}")
    return values


def allocation_from_doc(doc: Mapping) -> tuple[TestTree, AlphaAllocation]:
    """Inverse of ``allocation_doc``; validates lengths, not the budget."""
    if not isinstance(doc, Mapping):
        raise ValueError("allocation document must be a JSON object")
    try:
        branching = _branching_list(doc["branching"])
        depth = _number(doc["depth"], "depth", True)
        allocation = [_number(x, "allocation") for x in _listed(doc["allocation"], "allocation")]
        root = _number(doc["alpha_root"], "alpha_root") if "alpha_root" in doc else None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed allocation document: {exc}") from exc
    if depth != len(branching):
        raise ValueError(f"depth {depth} does not match {len(branching)} branching factors")
    tree = build_complete_tree(branching)
    if len(allocation) != tree.n_vertices:
        raise ValueError(
            f"allocation lists {len(allocation)} levels, tree has {tree.n_vertices} vertices"
        )
    alloc = AlphaAllocation(np.asarray(allocation))
    if root is not None and not abs(root - alloc.root_level) <= LEVEL_SUM_TOL:
        raise ValueError("alpha_root disagrees with the allocation's root entry")
    return tree, alloc
