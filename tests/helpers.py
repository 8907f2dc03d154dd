"""Shared test utilities: independent reference implementations and tree
generators.  Nothing here reuses the production traversal or kernel code
paths; that independence is the point.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics

import numpy as np

from treetest import LEVEL_SUM_TOL, ErrorReport, TestTree, TreeRejections, build_complete_tree


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


def flat_closed_forms(m: int, alpha: float, effect: float, m0=None, density=None) -> dict:
    """Exact error rates of the flat baselines on ``m`` independent two-sided
    leaf tests at level ``alpha``, false nulls shifted by ``effect``: ``m0``
    true nulls (fixed truth), or each leaf a true null with probability
    ``density`` (random truth).  Power counts a replication with no false
    null as 0; BH's FDR is the true-null share times ``alpha`` (Benjamini
    and Hochberg 1995; Benjamini and Yekutieli 2001)."""
    normal = statistics.NormalDist()
    c = normal.inv_cdf(1 - alpha / (2 * m))  # the Bonferroni cut on |z|
    hit = normal.cdf(-c - effect) + normal.cdf(-c + effect)
    if density is None:
        true_share, all_true = m0 / m, float(m0 == m)
        fwer = 1 - (1 - alpha / m) ** m0
    else:
        true_share, all_true = density, density**m
        fwer = 1 - (1 - density * alpha / m) ** m
    return {"bonferroni_fwer": fwer, "bonferroni_power": hit * (1 - all_true),
            "bonferroni_pcer": true_share * alpha / m, "bh_fdr": true_share * alpha}


def forest_layout(trees, alpha: float) -> tuple[list[int], list[float]]:
    """Parent ids and test levels of the forest of complete trees ``trees``
    (one branching list each): ids breadth-first, tree after tree, each root
    at ``alpha / len(trees)`` and each level split evenly among siblings."""
    parents, a = [], []
    for branching in trees:
        widths = [1]
        for b in branching:
            widths.append(widths[-1] * b)
        first = len(parents)
        starts = [first + sum(widths[:d]) for d in range(len(widths))]
        parents.append(-1)
        for d, b in enumerate(branching):
            parents += [starts[d] + i // b for i in range(widths[d + 1])]
        a += [alpha / len(trees) / math.prod(branching[:d]) for d in range(len(widths))
              for _ in range(widths[d])]
    return parents, a


def descend_closed_forms(trees, alpha: float, effect: float, truth=None, density=None) -> dict:
    """Exact FWER, power and per-vertex rejection frequencies of ``descend``
    on the forest of complete trees ``trees``, laid out by ``forest_layout``,
    with independent two-sided tests and false nulls shifted by ``effect``.
    Vertex ``v`` is a true null with chance ``t_v``: ``truth[v]`` (1 = true
    null, fixed) when given, else ``density`` (random truth, redrawn every
    replication).

    Bottom-up, ``N(v)`` is the chance of no false rejection in the subtree
    of a tested ``v``: ``t_v (1 - a_v) + (1 - t_v) F_v``, where ``F_v`` is 1
    at a leaf (a false leaf's rejection is no error) and ``(1 - pi_v) + pi_v
    * prod N(c)`` at an internal vertex, with ``pi_v = Phi(-c_v - effect) +
    Phi(-c_v + effect)`` its rejection chance at cut ``c_v`` when false;
    truth and data are independent across vertices, so the children's
    chances multiply.  FWER is ``1 - prod_roots N(root)``.  ``v`` rejects
    with ``h_v = t_v a_v + (1 - t_v) pi_v``, so its rejection frequency is
    ``h_v`` times the product of ``h_u`` over its ancestors ``u``.  Power,
    under fixed truth only (else None), is the mean frequency over the false
    nulls (0 when there are none)."""
    normal = statistics.NormalDist()
    parents, a = forest_layout(trees, alpha)
    kids = children_from_parents(parents)
    t = [float(v) for v in truth] if truth is not None else [density] * len(parents)
    c = [normal.inv_cdf(1 - level / 2) for level in a]
    pi = [normal.cdf(-cut - effect) + normal.cdf(-cut + effect) for cut in c]
    N = [0.0] * len(parents)
    for v in reversed(range(len(parents))):
        F = 1 - pi[v] + pi[v] * math.prod(N[k] for k in kids[v])  # 1 at a leaf
        N[v] = t[v] * (1 - a[v]) + (1 - t[v]) * F
    frequencies = np.array([t[v] * a[v] + (1 - t[v]) * pi[v] for v in range(len(parents))])
    for v in range(len(parents)):  # parents come before their children
        if parents[v] >= 0:
            frequencies[v] *= frequencies[parents[v]]
    power = None
    if truth is not None:
        false = [v for v in range(len(parents)) if not truth[v]]
        power = sum(frequencies[false]) / max(len(false), 1)
    roots = [v for v in range(len(parents)) if parents[v] < 0]
    return {"fwer": 1 - math.prod(N[r] for r in roots), "power": power,
            "frequencies": frequencies}


def descend_local_closed_forms(trees, alpha: float, effect: float, truth=None,
                               density=None) -> dict:
    """Exact FWER, power and per-vertex rejection frequencies of the local
    descent (``descend_local``, "children" layout) on the forest ``trees``,
    laid out by ``forest_layout``, with independent two-sided tests, false
    nulls shifted by ``effect`` and truth as in ``descend_closed_forms``.
    Each internal vertex hosts the family of its children, tested by Holm at
    its own level; a root is never tested itself.

    In a family of ``k`` at level ``a``, each child's p-value falls into one
    of ``k + 1`` bins cut at Holm's thresholds ``a/k < ... < a/1``: a true
    null's bin chance is the bin's width, a false null's ``G(hi) - G(lo)``
    with ``G(t) = Phi(-c(t) - effect) + Phi(-c(t) + effect)``, ``c(t)`` the
    two-sided cut of ``t``.  Holm rejects the ``r`` smallest p-values, ``r``
    the length of the run of sorted bins with ``bin_(i) <= i`` (from 0), and
    a tie group of one bin never straddles the stop, so the rejected set
    depends on the bins alone: enumerating the (truth, bin) states of a
    family, at most ``(2(k+1))^k``, is exact.

    Bottom-up, ``N(v)`` (1 at a leaf) is the chance of no false rejection in
    and below the family of an active ``v``: the sum over its states of
    their chance, times [no true null rejected], times ``prod N(c)`` when
    the family is rejected whole.  FWER is ``1 - prod_roots N(root)``.
    Top-down, a root is active, and a child is active with chance
    ``active(parent) * P(the parent's family is rejected whole)``; it
    rejects with ``active(parent) * P(it is rejected in its family)``.
    Power, under fixed truth only (else None), is the mean frequency over
    the false nulls below the roots (0 when there are none)."""
    normal = statistics.NormalDist()
    parents, a = forest_layout(trees, alpha)
    kids = children_from_parents(parents)
    t = [float(v) for v in truth] if truth is not None else [density] * len(parents)
    below_cut = lambda x: (normal.cdf(-(c := normal.inv_cdf(1 - x / 2)) - effect)
                           + normal.cdf(-c + effect))
    n = len(parents)
    N, whole, hit = [1.0] * n, [0.0] * n, [0.0] * n  # hit: rejected when its parent is active
    for v in reversed(range(n)):
        if not (family := kids[v]):
            continue
        k = len(family)
        cuts = [0.0] + [a[v] / (k - i) for i in range(k)] + [1.0]
        true_bins = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        g = [0.0] + [below_cut(x) for x in cuts[1:]]
        false_bins = [hi - lo for lo, hi in zip(g, g[1:])]
        states = [[(True, j, t[c] * q) for j, q in enumerate(true_bins)]
                  + [(False, j, (1 - t[c]) * q) for j, q in enumerate(false_bins)]
                  for c in family]
        below, N[v] = math.prod(N[c] for c in family), 0.0
        for combo in itertools.product(*states):
            if not (chance := math.prod(q for _, _, q in combo)):
                continue
            bins = sorted(j for _, j, _ in combo)
            r = next((i for i, j in enumerate(bins) if j > i), k)
            rejected = [r > 0 and j <= bins[r - 1] for _, j, _ in combo]
            for c, flag in zip(family, rejected):
                hit[c] += chance * flag
            whole[v] += chance * (r == k)
            if not any(flag and null for flag, (null, _, _) in zip(rejected, combo)):
                N[v] += chance * (below if r == k else 1.0)
    active, frequencies = [1.0] * n, np.zeros(n)
    for v in range(n):  # parents come before their children
        if (u := parents[v]) >= 0:
            frequencies[v] = active[u] * hit[v]
            active[v] = active[u] * whole[u]
    power = None
    if truth is not None:
        false = [v for v in range(n) if parents[v] >= 0 and not truth[v]]
        power = sum(frequencies[false]) / max(len(false), 1)
    roots = [v for v in range(n) if parents[v] < 0]
    return {"fwer": 1 - math.prod(N[r] for r in roots), "power": power,
            "frequencies": frequencies}


def nested_descend_closed_forms(branching, alpha: float, effect: float, truth=None,
                                density=None, h: float = 0.02) -> float:
    """Exact FWER of ``descend`` on the complete tree ``branching`` under
    nested means, by a convolution fold on a grid of step ``h``.

    Leaf data are independent N(0, 1), shifted by ``effect`` at a false
    null; vertex ``v`` tests ``S_v / sqrt(L_v)``, ``S_v`` the sum of the data
    of its ``L_v`` leaves, at level ``alpha`` split evenly among siblings,
    and is a true null iff every leaf below it is.  Leaf ``l`` is a true
    null with probability ``d_l``: ``truth[l]`` (0/1 per leaf, left to
    right) when given, else ``density`` (1 when not given: the global null).

    Every distribution is a vector of cell masses at the multiples ``k*h``,
    so a sum of two grid points is a grid point and a sum of independent
    statistics is ``np.convolve``; ``keep_v`` is the share of each cell
    inside ``|s| < c_v * sqrt(L_v)``, the acceptance region of ``v``.  Let
    ``g_v`` be the mass of ``S_v`` times P(no false rejection below ``v`` |
    ``S_v``, ``v`` tested): ``f*keep`` at a true null, ``f`` at a false
    leaf and ``f*keep + (1 - keep) * (g_c1 * ... * g_cb)`` at a false
    internal vertex.  Over the leaf truth, ``A_v = E[g_v; all true below
    v] = P(all true) * phi_v * keep_v`` (``phi_v`` the all-null mass) and
    ``B_v = E[g_v; not all true] = keep_v * (F_v - P(all true) * phi_v) +
    (1 - keep_v) * (*(A_c + B_c) - *A_c)``, ``F_v`` the mixture mass; FWER
    is ``1 - sum(A_root + B_root)``.  Fixed truth is the case ``d_l`` in
    {0, 1}."""
    normal = statistics.NormalDist()
    m = math.prod(branching)
    d = [1.0 if density is None else density] * m if truth is None else list(truth)
    half = math.ceil((effect + 12.0) / h)  # leaf cells k*h for |k| <= half
    cdf = np.vectorize(normal.cdf)
    conv = lambda arrays: functools.reduce(np.convolve, arrays)  # the mass of a sum
    edges = (np.arange(-half, half + 2) - 0.5) * h
    null, alt = np.diff(cdf(edges)), np.diff(cdf(edges - effect))

    def keep(depth: int, size: int) -> np.ndarray:
        cut = normal.inv_cdf(1 - alpha / math.prod(branching[:depth]) / 2)
        bound = cut * math.sqrt(math.prod(branching[depth:]))
        s = (np.arange(size) - size // 2) * h  # every grid is symmetric about 0
        return np.clip((np.minimum(bound, s + h / 2) - np.maximum(-bound, s - h / 2)) / h, 0, 1)

    def fold(depth: int, first: int):
        """``(P(all true), phi, F, A, B)`` of the vertex at ``depth`` whose
        leaves start at leaf ``first``."""
        if depth == len(branching):
            p = d[first]
            mixed = p * null + (1 - p) * alt
            return p, null, mixed, p * null * keep(depth, null.size), (1 - p) * alt
        width = math.prod(branching[depth + 1 :])
        kids = [fold(depth + 1, first + i * width) for i in range(branching[depth])]
        p = math.prod(k[0] for k in kids)
        phi, F = conv([k[1] for k in kids]), conv([k[2] for k in kids])
        kv = keep(depth, phi.size)
        nested = conv([a + b for *_, a, b in kids]) - conv([a for *_, a, _ in kids])
        return p, phi, F, p * phi * kv, kv * (F - p * phi) + (1 - kv) * nested

    _, _, _, A, B = fold(0, 0)
    return 1.0 - float(np.sum(A + B))


def reference_error_report(rejected, truth) -> ErrorReport:
    """``error_report`` on valid inputs, counted by one ``count_nonzero``
    over the stacked flags, independent of the simulator's accounting."""
    t = np.asarray(truth).astype(bool)
    if isinstance(rejected, TreeRejections):
        rejected = rejected.rejected
    flags = np.asarray(rejected)
    if flags.dtype != bool:
        flags = np.zeros(t.size, dtype=bool)
        flags[list(rejected)] = True
    false_rej, rej, hits, n_false_nulls = np.count_nonzero(
        [flags & t, flags, flags & ~t, ~t], axis=1).tolist()
    return ErrorReport(
        false_rejections=false_rej,
        rejections=rej,
        fdp=false_rej / max(rej, 1),
        any_false=false_rej >= 1,
        power=hits / max(n_false_nulls, 1),
    )


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


def preorder_parents(parents) -> list[int]:
    """The same tree with ids assigned depth-first (preorder): parents still
    precede children, but same-depth ids are no longer contiguous."""
    kids = children_from_parents(parents)
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(kids[v]))
    new_id = {v: i for i, v in enumerate(order)}
    return [-1] + [new_id[parents[v]] for v in order[1:]]


def gather_layer_trees() -> list[TestTree]:
    """Trees whose layers are gather arrays, from ``[-1, 0, 1, 0, 3]`` up."""
    rng = np.random.default_rng(40)
    parents = [[-1, 0, 1, 0, 3], [-1, 0, 1, 1, 0, 4, 4, 4]]
    parents += [preorder_parents(random_general_parents(rng, 3, 4, 80)) for _ in range(30)]
    trees = [TestTree(p) for p in parents]
    trees = [t for t in trees if any(isinstance(ids, np.ndarray) for ids in t.layers)]
    assert len(trees) >= 10
    return trees


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


def reference_first_true(parents, truth) -> list[int]:
    """Vertices whose null is true while no strict ancestor's is, by walking
    each vertex's root path."""

    def first_true(v: int) -> bool:
        u = parents[v]
        while u >= 0 and not truth[u]:
            u = parents[u]
        return bool(truth[v]) and u < 0

    return [v for v in range(len(parents)) if first_true(v)]


def reference_subtree_vertices(parents, root: int) -> list[int]:
    """Sorted vertices of the subtree hanging from ``root``, breadth-first."""
    kids = children_from_parents(parents)
    out, i = [root], 0
    while i < len(out):
        out.extend(kids[out[i]])
        i += 1
    return sorted(out)


def reference_subtree_sums(parents, levels, truth, tol: float):
    """Per-vertex subtree level sums over the first-true vertices, one
    subtree walk per vertex.

    A vertex is first-true when its null is true and no strict ancestor's
    is, so every sum below a true vertex is 0.  Returns the sums and the
    ``(vertex, sum, level)`` triples where a sum exceeds its level plus
    ``tol``.
    """
    levels = np.asarray(levels, dtype=np.float64)
    first = reference_first_true(parents, truth)
    sums, bad = [], []
    for v in range(len(parents)):
        below = set(reference_subtree_vertices(parents, v))
        s = float(levels[[u for u in first if u in below]].sum())
        sums.append(s)
        if s > levels[v] + tol:
            bad.append((v, s, float(levels[v])))
    return sums, bad


def reference_attainable_sums(tree: TestTree, levels: np.ndarray,
                              alpha: float) -> tuple[float, int]:
    """Exhaustively check the level sum over every first-true set.

    The sum attached to a truth assignment depends only on its first-true
    set, and within each subtree the attainable sums are the subtree root's
    own level plus the Minkowski sums of the children's attainable sets.
    Materializing those sets bottom-up (with the final root combination done
    by sorted search) therefore covers every truth assignment exactly.
    Returns (max attainable sum, number of attainable profiles in violation).
    """
    def combined(sets: list[np.ndarray]) -> np.ndarray:  # distinct sums, one per set
        acc = np.zeros(1)  # 0 + x == x, so a leading {0} changes no sum
        for nxt in sets:
            acc = np.unique(np.add.outer(acc, nxt).ravel())
        return acc

    sums: dict[int, np.ndarray] = {}
    for v in range(tree.n_vertices - 1, 0, -1):
        kids = [sums.pop(int(c)) for c in tree.children(v)]
        sums[v] = np.unique(np.append(levels[v], combined(kids)))

    bound = alpha + LEVEL_SUM_TOL
    sets = [np.zeros(1)] + [sums[int(c)] for c in tree.children(0)]
    acc, last = combined(sets[:-1]), np.sort(sets[-1])
    # pair (i, j) violates iff last[j] > bound - acc[i]
    violations = int((last.size - np.searchsorted(last, bound - acc, side="right")).sum())
    # the remaining profile is the root itself being first-true
    max_sum = max(float(acc.max() + last[-1]), float(levels[0]))
    return max_sum, violations + int(levels[0] > bound)


def reference_interval_pvalue(data, sigma: float, start: int, end: int) -> float:
    """Two-sided z-test of zero grand mean over samples ``[start, end)`` of
    every trial, summed directly: ``z = sum / (sigma * sqrt(trials * width))``."""
    block = np.asarray(data)[:, start:end]
    z = float(block.sum()) / (sigma * math.sqrt(block.size))
    return math.erfc(abs(z) / math.sqrt(2.0))


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


def reference_keep_mask(coeffs, alpha: float, sigma: float) -> np.ndarray:
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
        kept = small if j == 1 else np.repeat(kept_above, 2, axis=-1) & small
        mask[..., 1 << j : 1 << (j + 1)] = kept
        kept_above = kept
    return mask


def reference_haar_forward(signal) -> np.ndarray:
    """Haar analysis coefficients in flat layout, with fresh arrays for the
    sums and differences of every level."""
    x = np.asarray(signal, dtype=np.float64)
    J = x.shape[-1].bit_length() - 2
    coeffs = np.empty_like(x)
    s = x
    for j in range(J, -1, -1):
        a, b = s[..., 0::2], s[..., 1::2]
        d = (a - b) / np.sqrt(2.0)
        s = (a + b) / np.sqrt(2.0)
        coeffs[..., 1 << j : 1 << (j + 1)] = d
    coeffs[..., 0] = s[..., 0]
    return coeffs


def reference_haar_inverse(coeffs) -> np.ndarray:
    """Haar synthesis of flat-layout coefficients, interleaving each level's
    sums and differences into a fresh array."""
    c = np.asarray(coeffs, dtype=np.float64)
    s = c[..., 0:1]
    for j in range(0, c.shape[-1].bit_length() - 1):
        d = c[..., 1 << j : 1 << (j + 1)]
        out = np.empty(s.shape[:-1] + (2 * s.shape[-1],), dtype=np.float64)
        out[..., 0::2] = (s + d) / np.sqrt(2.0)
        out[..., 1::2] = (s - d) / np.sqrt(2.0)
        s = out
    return s


def reference_denoise(x, alpha: float, sigma: float):
    """Denoising at a known ``sigma`` the dense way: the dense keep mask,
    every coefficient it does not keep zeroed, a synthesis through every
    level, and the counts read off the mask.  Returns the denoised signal
    with the ``kept``, ``tested`` and ``deepest_level`` counts."""
    c = reference_haar_forward(x)
    n = c.shape[-1]
    mask = reference_keep_mask(c, alpha, sigma)
    c[~mask] = 0.0
    tested = 2 + 2 * int(mask[2 : n // 2].sum())  # the children of every kept parent
    levels = range(1, n.bit_length() - 1)  # 1..J
    deepest = max((j for j in levels if mask[1 << j : 2 << j].any()), default=0)
    return reference_haar_inverse(c), int(mask[2:].sum()), tested, deepest


def reference_keep_walk(coeffs, alpha: float, sigma: float) -> np.ndarray:
    """Sparse descent over the Haar coefficient forest, tracking separate
    (row, k) pairs: the level-``j + 1`` candidates are the coefficients
    ``2k`` and ``2k + 1`` below each kept level-``j`` coefficient ``k``."""
    from scipy import special

    c = np.asarray(coeffs, dtype=np.float64)
    n = c.shape[-1]
    c = c.reshape(-1, n)
    mask = np.zeros(c.shape, dtype=bool)
    mask[:, :2] = True
    rows = np.repeat(np.arange(c.shape[0]), 2)
    ks = np.tile(np.arange(2), c.shape[0])
    with np.errstate(over="ignore"):
        for j in range(1, n.bit_length() - 1):
            cols = (1 << j) + ks
            p = 2.0 * special.ndtr(-np.abs(c[rows, cols] / sigma))
            small = p <= alpha / (1 << j)
            rows, ks = rows[small], ks[small]
            mask[rows, cols[small]] = True
            rows = np.repeat(rows, 2)
            ks = (2 * ks[:, None] + (0, 1)).ravel()
    return mask.reshape(np.shape(coeffs))


def reference_level_thresholds(alpha: float, J: int, sigma: float) -> np.ndarray:
    """``sigma * z`` per detail level ``j = 1..J``, one scalar quantile call
    per level at ``alpha / 2**j``."""
    from scipy import special

    return np.array([sigma * float(-special.ndtri(alpha / (1 << j) / 2.0))
                     for j in range(1, J + 1)])


def reference_estimate_sigma(tree):
    """Median absolute deviation of the finest detail level about its
    median, by two ``np.median`` calls, rescaled to a Gaussian scale."""
    from scipy import special

    finest = tree.detail(tree.J)
    med = np.median(finest, axis=-1, keepdims=True)
    mad = np.median(np.abs(finest - med), axis=-1)
    out = mad / float(-special.ndtri(0.25))
    return float(out) if np.ndim(out) == 0 else out


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


def coefficient_forest(J: int, alpha: float):
    """The tested coefficients arranged as two complete binary test trees.

    Returns the forest as a ``(trees, root_levels)`` pair, each root
    carrying half of ``alpha``, plus, per tree, the flat coefficient index
    of every tree vertex in breadth-first order.  The reference that the
    vectorized ``keep_mask`` is cross-checked against through the generic
    tree descent.
    """
    if J < 1:
        raise ValueError("need J >= 1 (signal length >= 4)")
    trees = []
    positions = []
    for t in (0, 1):
        tree = build_complete_tree([2] * (J - 1))
        # vertex v at depth d sits at level j = d + 1; ids at one depth are
        # contiguous and start at 2**d - 1
        width = np.left_shift(1, tree.depth_of)
        pos = 2 * width + t * width + np.arange(tree.n_vertices) - (width - 1)
        trees.append(tree)
        positions.append(pos)
    return (tuple(trees), (alpha / 2.0, alpha / 2.0)), positions


# ---------------------------------------------------------------------------
# Scalar references for the procedure kernels: plain sorts and queue walks.
# ---------------------------------------------------------------------------


def reference_holm(pvals, level: float) -> np.ndarray:
    """Holm's step-down test: the i-th smallest p-value against
    ``level / (m - i + 1)``, stopping at the first failure."""
    p = np.asarray(pvals, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    thresholds = level / np.arange(m, 0, -1)
    passed = p[order] <= thresholds
    k = m if passed.all() else int(np.argmin(passed))
    flags = np.zeros(m, dtype=bool)
    flags[order[:k]] = True
    return flags


def reference_bh(pvals, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up: the k smallest p-values for the largest k
    with ``p_(k) <= k q / m``."""
    p = np.asarray(pvals, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    passed = np.nonzero(p[order] <= np.arange(1, m + 1) * q / m)[0]
    k = int(passed[-1]) + 1 if passed.size else 0
    flags = np.zeros(m, dtype=bool)
    flags[order[:k]] = True
    return flags


def reference_descend_local(children, levels, local_pvals):
    """Queue walk over the children's local families ("children" layout).

    At an active vertex the family of its children is tested at the vertex's
    level by Holm; the walk continues at every child only
    when the whole family is rejected, and stops there otherwise.  Returns
    (rejected child ids, vertices where the walk stopped).
    """
    from collections import deque

    rejected: set[int] = set()
    frontier: set[int] = set()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        kids = children[v]
        if not kids:
            continue  # leaves host no local family
        pv = np.asarray(local_pvals[v], dtype=np.float64)
        flags = reference_holm(pv, float(levels[v]))
        rejected.update(int(kids[i]) for i in np.nonzero(flags)[0])
        if flags.all():
            queue.extend(int(c) for c in kids)
        else:
            frontier.add(v)
    return rejected, frontier
