"""Monte Carlo verification engine.

``simulate`` estimates FWER / FDR / PCER / power for the descent, its
local-family variant, and flat baselines under configurable truth
assignments, effect sizes and dependence structures, with reproducible
counter-based random streams (replication block ``b`` always draws from
``default_rng([seed, b])``, so results are bit-identical for any degree
of parallelism).  It decides on scores against cuts (see ``_Instance``),
with reports identical to those of the p-value rule.  The exhaustive
checks of the same guarantee are in ``exact``.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .gaussian import _score_cuts, _scores
from .procedures import _count, _errors, _local_descent, _local_thresholds, _sorted_cut
from .trees import (
    LEVEL_SUM_TOL,
    Index,
    _branching_list,
    _descent,
    _fold_up,
    _integer,
    _level,
    _listed,
    _number,
    _truth_flags,
    _vertex_count,
    _weights,
    build_complete_tree,
    uniform_levels,
    weighted_levels,
)

__all__ = [
    "PROCEDURES",
    "SimConfig",
    "SimReport",
    "simulate",
    "compare_procedures",
    "format_comparison",
    "monte_carlo_bound",
]

PROCEDURES = ("descend", "descend_local", "holm_flat", "bonferroni_flat", "bh_flat")

_TRUTH_KINDS = ("global_null", "explicit", "random")
_DEPENDENCE = ("independent", "nested_means")

# The fields of a config document besides its trees and section kinds, one
# row each: the SimConfig field; the section and kind whose object holds its
# key, or None for the top level; the key; and its reader: "int" or "float"
# by ``trees._number`` ("ints" and "floats" entry by entry, into a tuple), or
# "str", kept as given.  ``to_doc`` writes the keys in this order.
_FIELDS = (
    ("alpha", None, None, "alpha", "float"),
    ("effect", None, None, "effect", "float"),
    ("dependence", None, None, "dependence", "str"),
    ("replications", None, None, "replications", "int"),
    ("seed", None, None, "seed", "int"),
    ("block_size", None, None, "block_size", "int"),
    ("root_levels", None, None, "root_levels", "floats"),
    ("weights", "allocation", "weighted", "weights", "floats"),
    ("truth_density", "truth", "random", "density", "float"),
    ("truth_values", "truth", "explicit", "values", "ints"),
)


def monte_carlo_bound(alpha: float, n: int, z: float = 3.0) -> float:
    """Upper acceptance bound ``alpha + z * binomial standard error`` of ``n`` draws."""
    n = _integer(n, "n", 1)
    return alpha + z * float(np.sqrt(alpha * (1.0 - alpha) / n))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation study.

    ``trees`` holds one branching list per tree; a single entry means a
    single tree, several entries a forest whose root levels (uniform split
    of ``alpha`` unless ``root_levels`` is given) must sum to at most
    ``alpha``.  The allocation is weighted by ``weights`` (single tree only)
    when they are given, and uniform otherwise.

    Truth assignment kinds:

    ``global_null``
        Every null is true.
    ``explicit``
        ``truth_values`` lists 0/1 per vertex across all trees in id order.
    ``random``
        Each vertex is a true null independently with probability
        ``truth_density`` (0.5 when not given), redrawn every replication
        (all-false draws are kept; they contribute no familywise error).
        Other kinds take no ``truth_density``.

    Under ``nested_means`` dependence each internal vertex's statistic is
    the normalized sum of its descendant leaves' data, so truth settings
    apply to the leaves and internal truth is derived (true null iff every
    descendant leaf is true).
    """

    trees: tuple[tuple[int, ...], ...] = ((),)
    root_levels: Optional[tuple[float, ...]] = None
    weights: Optional[tuple[float, ...]] = None
    alpha: float = 0.05
    truth: str = "global_null"
    truth_density: Optional[float] = None
    truth_values: Optional[tuple[int, ...]] = None
    effect: float = 0.0
    dependence: str = "independent"
    replications: int = 10_000
    seed: int = 1729
    block_size: int = 8192

    def __post_init__(self) -> None:
        # every number is read here, so a config built in Python writes the
        # document from_doc reads back; the fields that default to None keep it.
        # The rows of a 2-D array of trees read as branching lists, as tuples do.
        trees = tuple(_branching_list(t, f"trees[{i}]")
                      for i, t in enumerate(_listed(self.trees, "trees")))
        if not trees:
            raise ValueError("at least one tree is required")
        object.__setattr__(self, "trees", trees)
        for name, _, _, _, reader in _FIELDS:
            value = getattr(self, name)  # the class attribute is the field's default
            if reader != "str" and (value is not None or getattr(SimConfig, name) is not None):
                integral = reader.startswith("int")
                value = (tuple(_number(v, name, integral) for v in _listed(value, name))
                         if reader.endswith("s") else _number(value, name, integral))
                object.__setattr__(self, name, value)
        _level(self.alpha, "alpha", below_one=True)
        if self.truth not in _TRUTH_KINDS:
            raise ValueError(f"truth must be one of {_TRUTH_KINDS}")
        if (self.truth == "explicit") != (self.truth_values is not None):
            raise ValueError("explicit truth requires truth_values" if self.truth_values is None
                             else "truth_values require truth 'explicit'")
        if self.truth_values is not None:
            n = sum(_vertex_count(b) for b in trees)
            if len(self.truth_values) != n:
                raise ValueError(f"truth_values needs {n} entries, one per vertex")
            _truth_flags(np.array(self.truth_values))
        if self.truth != "random":
            if self.truth_density is not None:
                raise ValueError("truth_density requires truth 'random'")
        elif self.truth_density is None:
            object.__setattr__(self, "truth_density", 0.5)
        elif not 0.0 <= self.truth_density <= 1.0:
            raise ValueError("truth_density must lie in [0, 1]")
        if not 0.0 <= self.effect < np.inf:
            raise ValueError("effect must be nonnegative and finite")
        if self.dependence not in _DEPENDENCE:
            raise ValueError(f"dependence must be one of {_DEPENDENCE}")
        if not 1 <= self.replications <= 10**9:
            raise ValueError("replications must lie in [1, 10^9]")
        _integer(self.seed, "seed")
        _integer(self.block_size, "block_size", 1)
        if self.weights is not None:
            if len(self.trees) != 1:
                raise ValueError("weighted allocation supports a single tree only")
            _weights(self.weights, _vertex_count(trees[0]), "weights: weight array")
        if self.root_levels is not None:
            if len(self.root_levels) != len(self.trees):
                raise ValueError("root_levels: one root level per tree is required")
            for i, a in enumerate(self.root_levels):
                _level(a, f"root_levels[{i}] = {a!r}")
            if sum(self.root_levels) > self.alpha + LEVEL_SUM_TOL:
                raise ValueError("root levels exceed the global level")

    @classmethod
    def from_doc(cls, doc: Mapping) -> "SimConfig":
        """A configuration from a JSON-compatible document; ``__post_init__`` reads its numbers."""
        if not isinstance(doc, Mapping):
            raise ValueError("configuration must be a JSON object")
        top = {key for _, section, _, key, _ in _FIELDS if section is None}
        if unknown := set(doc) - top - {"tree", "forest", "allocation", "truth"}:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        if "tree" in doc and "forest" in doc:
            raise ValueError("give either 'tree' or 'forest', not both")
        # a section of the wrong JSON type surfaces as a TypeError
        try:
            allocation, alloc = _section(doc, "allocation", "uniform")
            if allocation not in ("uniform", "weighted"):
                raise ValueError("allocation must be 'uniform' or 'weighted'")
            if allocation == "weighted" and "weights" not in alloc:
                raise ValueError("weighted allocation requires weights")
            truth, truth_fields = _section(doc, "truth", "global_null")
            parts = {None: doc, "allocation": alloc, "truth": truth_fields}
            kwargs = {name: parts[section][key] for name, section, _, key, _ in _FIELDS
                      if key in parts[section]}
            # a null is refused, not taken as "not given" by a field that defaults to None
            if None in kwargs.values():
                raise TypeError(f"{next(f for f, v in kwargs.items() if v is None)}: got None")
            if "forest" in doc:
                forest = enumerate(_listed(doc["forest"], "forest"))
                kwargs["trees"] = tuple(_branching(e, f"forest[{i}]") for i, e in forest)
            elif "tree" in doc:
                kwargs["trees"] = (_branching(doc["tree"], "tree"),)
            return cls(truth=truth, **kwargs)
        except TypeError as exc:
            raise ValueError(f"malformed configuration: {exc}") from exc

    def to_doc(self) -> dict:
        doc = {"allocation": "uniform", "truth": self.truth}
        for name, section, kind, key, _ in _FIELDS:
            if name == "root_levels":  # the document lists the trees before their root levels
                trees = [{"branching": list(b)} for b in self.trees]
                doc.update({"tree": trees[0]} if len(trees) == 1 else {"forest": trees})
            if (value := getattr(self, name)) is not None:
                value = list(value) if isinstance(value, tuple) else value
                doc[section or key] = {"kind": kind, key: value} if section else value
        return doc


def _section(doc: Mapping, key: str, default: str) -> tuple[str, Mapping]:
    """``(kind, fields)`` of a config section given as a kind string or as
    an object ``{"kind": ..., field: ...}`` holding only the fields that
    kind's ``to_doc`` writes."""
    section = doc.get(key, default)
    if isinstance(section, str):
        return section, {}
    if not isinstance(section, Mapping):
        raise ValueError(f"{key} must be a string or an object")
    kind = str(section.get("kind", default))
    fields = (k for _, sec, sec_kind, k, _ in _FIELDS if (sec, sec_kind) == (key, kind))
    if extra := set(section) - {"kind", *fields}:
        raise ValueError(f"{key} {kind!r} takes no {sorted(extra)}")
    return kind, section


def _branching(entry, where: str) -> tuple[int, ...]:
    """Branching factors of one ``tree`` or ``forest`` entry of a config document."""
    if not isinstance(entry, Mapping):
        raise TypeError(f"{where}: expected an object holding 'branching', got {entry!r}")
    if "branching" not in entry:
        raise ValueError(f"{where}: missing key 'branching'")
    return _branching_list(entry["branching"], f"{where} branching")


@dataclass
class SimReport:
    """Estimated error rates of one procedure under one configuration.

    ``fwer_hat`` is the fraction of replications with at least one false
    rejection, with its binomial standard error; ``fdr_hat`` and
    ``pcer_hat`` are per-replication averages of the false-discovery
    proportion and of V/m, so both are bounded by ``fwer_hat`` by
    construction (``domination_violations`` counts per-replication
    breaches; it is always 0).  With no false null among the procedure's
    hypotheses every rejection is false, so ``fdr_hat == fwer_hat`` and
    ``power_hat == 0`` exactly.
    """

    procedure: str
    replications: int
    alpha: float
    n_hypotheses: int
    fwer_hat: float
    fwer_se: float
    fdr_hat: float
    pcer_hat: float
    power_hat: float
    any_false: int
    rejection_counts: np.ndarray
    domination_violations: int
    elapsed: float
    config: dict

    def to_doc(self) -> dict:
        doc = asdict(self)
        doc["rejection_counts"] = [int(c) for c in self.rejection_counts]
        doc["elapsed_seconds"] = doc.pop("elapsed")
        return doc


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------


class _Instance:
    """Precomputed immutable state shared by all replication blocks.

    Block layout: every per-vertex array of a block is vertex-major,
    ``(n_vertices, rows)``.  Only the draw, one row per replication in the
    stream's order, and the leaf sort are row-major: independent statistics
    and drawn truth are transposed once from the draw, and under nested
    means ``_nested`` folds the leaf draw and drawn leaf truth straight into
    their vertex-major rows.  Fixed truth is one vertex-major column for
    every replication; the sorted leaf scores are rank-major, ``(n_leaves,
    rows)``.  These arrays are views of one worker's ``scratch``, which that
    worker holds for the whole call and refills for every block it draws.
    The procedures are the kernels the public functions wrap, run on one
    tree's rows ``scores[off : off + n]`` at a time; ``scope[procedure]``
    holds the vertex ids of the rows a procedure returns, its hypotheses.
    ``leaves`` holds the leaf ids as a slice when they are contiguous (every
    single tree), else as ``leaf_ids``.  Leaf counts (``np.add`` on ones),
    nested-means statistics (``np.add``) and nested truth
    (``np.logical_and``) are ``_nested`` folds.

    Scores and cuts: every kernel rejects where ``score <= cut``.  One
    ``_score_cuts`` call cuts every distinct threshold, and each table looks
    its cuts up:

    * ``vertex_cuts``: the per-vertex levels (descend);
    * ``local_cuts``: ``level / (m - r)`` for each family of ``m`` children
      and rank ``r``, per tree one ``(parents, m)`` array per family group
      of ``TestTree.families`` (local Holm);
    * ``holm_cuts``, ``bonferroni_cut``, ``bh_cuts``: ``alpha / (m - r)``,
      ``alpha / m`` and ``i * alpha / m`` over the ``m`` leaves (flat Holm,
      Bonferroni, BH).

    Family tables increase with rank along their last axis.  Scores are
    ``-|z|`` and cuts come from ``_score_cuts``, unless one cut that the
    run's ``procedures`` read fails its clean-step check; then ``pvalue_score``
    is set, scores are the p-values ``2*ndtr(-|z|)`` and each cut is its
    threshold.  ``gaussian._scores`` writes either kind over the draw.
    """

    def __init__(self, config: SimConfig, procedures: Sequence[str] = PROCEDURES):
        self.config = config
        self.trees = [build_complete_tree(b) for b in config.trees]
        root_levels = config.root_levels or [config.alpha / len(self.trees)] * len(self.trees)
        w = config.weights
        self.levels = [
            (uniform_levels(t, a) if w is None else weighted_levels(t, a, w)).levels
            for t, a in zip(self.trees, root_levels)
        ]

        self.offsets = np.cumsum([0] + [t.n_vertices for t in self.trees])
        self.n_vertices = int(self.offsets[-1])
        self.levels_flat = np.concatenate(self.levels)

        self.leaf_ids = np.concatenate([t.leaves + off for t, off in zip(self.trees, self.offsets)])
        self.n_leaves = self.leaf_ids.size
        first, last = int(self.leaf_ids[0]), int(self.leaf_ids[-1])
        self.leaves: Index = (
            slice(first, last + 1) if last - first + 1 == self.n_leaves else self.leaf_ids
        )
        counts = np.empty((self.n_vertices, 1), dtype=np.int64)
        self.leaf_counts = self._nested(np.ones((1, self.n_leaves), np.int64), counts, np.add)[:, 0]

        all_ids = np.arange(self.n_vertices)
        self.scope = {
            "descend": all_ids,
            "descend_local": np.delete(all_ids, self.offsets[:-1]),  # roots host none
            **dict.fromkeys(("holm_flat", "bonferroni_flat", "bh_flat"), self.leaf_ids),
        }

        # per-vertex truth when it does not change between replications (all
        # true under global_null); all_null: no false null in a procedure's scope
        self.fixed_truth: Optional[np.ndarray] = None
        if config.truth != "random":
            self.fixed_truth = np.array(config.truth_values or (1,) * self.n_vertices, dtype=bool)
            if config.dependence == "nested_means":
                leaf_truth = self.fixed_truth[None, self.leaf_ids]
                self._nested(leaf_truth, self.fixed_truth[:, None], np.logical_and)
        self.all_null = {p: self.fixed_truth is not None and bool(self.fixed_truth[ids].all())
                         for p, ids in self.scope.items()}

        # one cut per distinct threshold, looked up by each table
        m, alpha = self.n_leaves, config.alpha
        local = [_local_thresholds(t, lv) for t, lv in zip(self.trees, self.levels)]
        flat = [alpha / np.arange(m, 0, -1), np.arange(1, m + 1) * alpha / m]
        tables = {"descend": [self.levels_flat], "descend_local": [*itertools.chain(*local)],
                  "holm_flat": flat[:1], "bonferroni_flat": [np.array([alpha / m])],
                  "bh_flat": flat[1:]}
        thresholds = np.unique(np.concatenate([t.ravel() for ts in tables.values() for t in ts]))
        cuts = _score_cuts(thresholds)
        lookup = lambda table: cuts[np.searchsorted(thresholds, table)]
        self.pvalue_score = any(np.isnan(lookup(t)).any() for p in procedures for t in tables[p])
        if self.pvalue_score:
            cuts = thresholds  # from here ``lookup`` reads the thresholds
        self.vertex_cuts = lookup(self.levels_flat)
        self.local_cuts = [[lookup(t) for t in tree_tables] for tree_tables in local]
        self.holm_cuts, self.bh_cuts = map(lookup, flat)
        self.bonferroni_cut = lookup(alpha / m)

    def _nested(self, leaf_rows: np.ndarray, out: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
        """``ufunc`` folded up from the leaves into the vertex-major ``out``
        (``(n_vertices, rows)``): the row-major ``leaf_rows`` (``(rows,
        n_leaves)``) fill each tree's leaf rows, its last (a complete tree's
        bottom layer), every internal row starts at ``ufunc.identity``, and
        ``trees._fold_up`` runs on each tree's rows."""
        parts = np.split(leaf_rows, np.searchsorted(self.leaf_ids, self.offsets[1:-1]), axis=1)
        for tree, off, leaves in zip(self.trees, self.offsets, parts):
            rows, inner = out[off : off + tree.n_vertices], tree.layers[-1].start
            rows[:inner] = ufunc.identity
            _transposed(leaves, rows[inner:])
            _fold_up(tree, rows, ufunc)
        return out

    def scratch(self, rows: int) -> dict[str, np.ndarray]:
        """Flat buffers for ``draw_block`` on blocks of up to ``rows`` replications.

        Each block takes C-contiguous views of their first cells, so a short
        last block reuses them too; buffers a configuration never uses stay
        untouched pages.  They are sections of one allocation per dtype: with
        one array each, glibc handed the memory back to the system after
        every call (≈1,600 minor page faults per sim-compare call against
        none).
        """
        cells, leaf_cells = rows * self.n_vertices, rows * self.n_leaves
        floats = np.split(np.empty(2 * (cells + leaf_cells)), np.cumsum([cells, cells, leaf_cells]))
        flags = np.split(np.empty(2 * cells, dtype=bool), 2)
        # z: the independent draw, row-major, whose leaf scores are then sorted
        # in place; y: nested means' leaf draw, sorted in place likewise, or a
        # forest's gathered leaf scores; sorted: rank-major; truth: vertex-major;
        # alt: the drawn true nulls, row-major, then the false nulls
        names = ("z", "scores", "y", "sorted", "truth", "alt")
        return dict(zip(names, floats + flags))

    # -- per-block work ---------------------------------------------------

    def draw_block(
        self,
        block: int,
        rows: int,
        sort_leaves: bool,
        scratch: dict[str, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Draw one replication block: vertex-major scores and truth, sorted leaf scores.

        Scores are ``(n_vertices, rows)``, and so is the true-null mask when it
        is drawn; fixed truth (``global_null``, ``explicit``) is one column.
        With ``sort_leaves`` the third item holds the leaf scores of each
        replication sorted ascending, rank-major ``(n_leaves, rows)``, which
        flat Holm and BH share; otherwise it is ``None``.  The stream for
        block ``b`` is ``default_rng([seed, b])`` and the draw order inside a
        block is fixed (truth first when random, then the Gaussian data, both
        drawn row-major, of the leaves alone under nested means), so results
        do not depend on scheduling.

        Scores, drawn truth and sorted scores are views of ``scratch`` (from
        ``self.scratch``), valid until the next block drawn into it.
        ``gaussian._scores`` writes the scores over the draw or nested sums.
        """
        cfg, pvalues = self.config, self.pvalue_score

        def buf(name: str, *shape: int) -> np.ndarray:
            return scratch[name][: math.prod(shape)].reshape(shape)

        rng = np.random.default_rng([cfg.seed, block])
        nested = cfg.dependence == "nested_means"
        draw = buf("y", rows, self.n_leaves) if nested else buf("z", rows, self.n_vertices)

        if self.fixed_truth is not None:
            truth = self.fixed_truth[:, None]
            alt = ~(self.fixed_truth[self.leaves] if nested else self.fixed_truth)
        else:
            rng.random(out=draw)
            alt = np.less(draw, cfg.truth_density, out=buf("alt", *draw.shape))
            truth = buf("truth", self.n_vertices, rows)
            truth = self._nested(alt, truth, np.logical_and) if nested else _transposed(alt, truth)
            np.logical_not(alt, out=alt)

        rng.standard_normal(out=draw)
        if cfg.effect:
            np.add(draw, cfg.effect, out=draw, where=alt)
        scores = buf("scores", self.n_vertices, rows)
        if nested:
            self._nested(draw, scores, np.add)
            _scores(np.divide(scores, np.sqrt(self.leaf_counts)[:, None], out=scores), pvalues)
        else:
            _transposed(_scores(draw, pvalues), scores)
        sorted_leaves = None
        if sort_leaves:  # the leaf scores, sorted in place row by row
            if nested or isinstance(self.leaves, slice):  # a nested draw holds the leaves alone
                leaf = _scores(draw, pvalues) if nested else draw[:, self.leaves]
            else:  # a forest's leaves, gathered into y; "clip" keeps take from buffering
                leaf = np.take(draw, self.leaf_ids, axis=1, out=buf("y", rows, self.n_leaves),
                               mode="clip")
            leaf.sort(axis=1)
            sorted_leaves = _transposed(leaf, buf("sorted", self.n_leaves, rows))
        return scores, truth, sorted_leaves

    def run_procedure(
        self, procedure: str, scores: np.ndarray, sorted_leaves: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Rejection flags of one procedure on vertex-major scores.

        Row ``i`` of the result holds the flags of vertex
        ``scope[procedure][i]``; every other vertex is never rejected.
        Flat Holm and BH cut from ``sorted_leaves``, the rank-major
        ``(n_leaves, rows)`` leaf scores of ``draw_block``.
        """
        if procedure == "descend":
            rejected = scores <= self.vertex_cuts[:, None]
            for tree, off in zip(self.trees, self.offsets):
                _descent(tree, rejected[off : off + tree.n_vertices])
            return rejected
        if procedure == "descend_local":
            return np.concatenate([
                _local_descent(tree, scores[off : off + tree.n_vertices], cuts)[0][1:]
                for tree, off, cuts in zip(self.trees, self.offsets, self.local_cuts)
            ])
        leaf = scores[self.leaves]
        if procedure == "bonferroni_flat":
            return leaf <= self.bonferroni_cut
        if procedure == "holm_flat":
            return leaf <= _sorted_cut(sorted_leaves, self.holm_cuts)
        if procedure == "bh_flat":
            return leaf <= _sorted_cut(sorted_leaves, self.bh_cuts, step_up=True)
        raise ValueError(f"unknown procedure {procedure!r}; choose from {PROCEDURES}")

    def accumulate(self, procedure: str, rejected: np.ndarray, truth: np.ndarray) -> dict:
        """Per-block error counts of one procedure (see ``run_procedure``)
        against the true-null mask of ``draw_block``, broadcast over the flags.

        A one-column mask with no false null in the procedure's scope
        (``all_null``) makes every rejection false: V = R in each replication,
        so the counts take their closed forms.  A replication errs iff it
        rejects, its false-discovery proportion is exactly 0 or 1, V/m is
        R/m, power is 0, and domination fails only where R > m (never,
        unless a kernel is wrong).  The sums are bit-equal to the general
        route's, ``procedures._errors``, which ``error_report`` also takes.
        """
        ids = self.scope[procedure]
        m = max(ids.size, 1)
        if truth.shape[1] == 1 and self.all_null[procedure]:
            false_rej = _count(rejected, axis=0)
            any_false = int(np.count_nonzero(false_rej))
            fdp_sum, power_sum = float(any_false), 0.0
            violations = int(np.count_nonzero(false_rej > m))
        else:
            null = truth if ids.size == self.n_vertices else truth[ids]
            _, false_rej, fdp, power = _errors(rejected, null)
            erred = false_rej >= 1
            dominated = (fdp <= erred + 1e-12) & (false_rej / m <= erred + 1e-12)
            any_false, fdp_sum, power_sum = int(erred.sum()), float(fdp.sum()), float(power.sum())
            violations = int((~dominated).sum())
        reject_counts = np.zeros(self.n_vertices, dtype=np.int64)
        reject_counts[ids] = _count(rejected, axis=1)
        return {"n": rejected.shape[1], "any_false": any_false, "fdp_sum": fdp_sum,
                "pcer_sum": float(false_rej.sum()) / m, "power_sum": power_sum,
                "reject_counts": reject_counts, "domination_violations": violations}


def _transposed(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.T`` copied into the C-contiguous ``out``, 512 rows of ``a`` at a time.

    Chunks keep both sides of the copy in cache; on 8192-row blocks this is
    1.4x faster than ``a.T.copy()`` at 31 columns and 2x at 2047 columns.
    """
    for lo in range(0, a.shape[0], 512):
        out[:, lo : lo + 512] = a[lo : lo + 512].T
    return out


def _check_block_memory(config: SimConfig, workers: int) -> None:
    """Refuse a run whose per-worker scratch cannot fit in physical memory.

    Works from the branchings alone, before any tree is built or any scratch
    allocated.  The estimate counts only the two float64 matrices every
    scratch fills, the vertex-major scores and the row-major draw (of every
    vertex, or of the leaves alone under nested means), so a run it refuses
    could not have run.
    """
    n_vertices = sum(_vertex_count(b) for b in config.trees)
    drawn = sum(map(math.prod, config.trees)) if config.dependence == "nested_means" else n_vertices
    rows = min(config.block_size, config.replications)
    need = 8 * rows * (n_vertices + drawn) * workers
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to check against
        return
    if need > physical:
        raise ValueError(
            f"{workers} block(s) of {rows} replications over {n_vertices} vertices need at "
            f"least {need / 2**30:.1f} GiB; this machine has {physical / 2**30:.1f} GiB"
        )


def _available_cpus() -> int:
    """CPUs this process may run on (all of them where there is no affinity mask)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# Blocks handed to the pool at a time: ``Executor.map`` submits all it is given
# up front, a future of ≈2 KB per block, so bookkeeping would grow with blocks.
_BLOCKS_AT_ONCE = 1024


def compare_procedures(
    config: SimConfig,
    procedures: Sequence[str],
    *,
    threads: int = 1,
) -> list[SimReport]:
    """Run several procedures on identical simulated data.

    Every procedure sees the same per-replication draws, so differences are
    paired; reports come back in the order requested.  At most one worker
    per available CPU runs, and block counts are summed in block order as they arrive.
    """
    if isinstance(procedures, str):
        raise ValueError(f"procedures must be a sequence of names, got the string {procedures!r}")
    procedures = list(procedures)
    if not procedures:
        raise ValueError("at least one procedure is required")
    for p in procedures:
        if p not in PROCEDURES:
            raise ValueError(f"unknown procedure {p!r}; choose from {PROCEDURES}")
    threads = _integer(threads, "threads", 1)
    n, size = config.replications, config.block_size
    blocks = range(-(-n // size))
    workers = min(threads, len(blocks), _available_cpus())
    _check_block_memory(config, workers)
    inst = _Instance(config, procedures)
    started = time.perf_counter()
    sort_leaves = "holm_flat" in procedures or "bh_flat" in procedures
    local = threading.local()  # each thread's scratch, made on its first block

    def run_block(block: int) -> list[dict]:
        if not hasattr(local, "scratch"):
            local.scratch = inst.scratch(min(size, n))
        rows = min(size, n - block * size)
        scores, truth, sorted_leaves = inst.draw_block(block, rows, sort_leaves, local.scratch)
        return [
            inst.accumulate(proc, inst.run_procedure(proc, scores, sorted_leaves), truth)
            for proc in procedures
        ]

    # from 0, added in block order: the bits of the builtin ``sum`` over blocks
    totals: list[dict] = [{} for _ in procedures]
    with ThreadPoolExecutor(workers) as pool:  # starts no thread until ``pool.map``
        for lo in range(0, len(blocks), _BLOCKS_AT_ONCE):
            chunk = blocks[lo : lo + _BLOCKS_AT_ONCE]
            for partial in (pool.map if workers > 1 else map)(run_block, chunk):
                totals = [{k: t.get(k, 0) + v for k, v in p.items()}
                          for t, p in zip(totals, partial)]

    elapsed = time.perf_counter() - started
    reports = []
    for proc, total in zip(procedures, totals):
        n, any_false = total["n"], total["any_false"]
        fwer = any_false / n
        report = SimReport(
            procedure=proc,
            replications=n,
            alpha=config.alpha,
            n_hypotheses=max(inst.scope[proc].size, 1),
            fwer_hat=fwer,
            fwer_se=float(np.sqrt(max(fwer * (1.0 - fwer), 0.0) / n)),
            fdr_hat=total["fdp_sum"] / n,
            pcer_hat=total["pcer_sum"] / n,
            power_hat=total["power_sum"] / n,
            any_false=any_false,
            rejection_counts=total["reject_counts"],
            domination_violations=total["domination_violations"],
            elapsed=elapsed,
            config=config.to_doc(),
        )
        if report.fdr_hat > report.fwer_hat + 1e-12 or report.pcer_hat > report.fwer_hat + 1e-12:
            raise RuntimeError("per-replication domination failed; this is a bug")
        reports.append(report)
    return reports


def simulate(config: SimConfig, procedure: str = "descend", *, threads: int = 1) -> SimReport:
    """Monte Carlo error-rate estimate for one procedure (see module docs)."""
    return compare_procedures(config, [procedure], threads=threads)[0]


def format_comparison(reports: Sequence[SimReport]) -> str:
    """Human-readable comparison table, one row per procedure."""
    header = f"{'procedure':<16} {'FWER':>8} {'(se)':>8} {'FDR':>8} {'PCER':>8} {'power':>8}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.procedure:<16} {r.fwer_hat:>8.4f} {r.fwer_se:>8.4f} "
            f"{r.fdr_hat:>8.4f} {r.pcer_hat:>8.4f} {r.power_hat:>8.4f}"
        )
    return "\n".join(lines)
