"""Tree structures, level allocations, and the combinatorial helpers."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from treetest import (
    LEVEL_SUM_TOL,
    AlphaAllocation,
    TestTree,
    allocation_doc,
    allocation_from_doc,
    ancestors,
    build_complete_tree,
    first_true_vertices,
    level_budget_violations,
    uniform_levels,
    weighted_levels,
)
from treetest import (SimConfig, TrialMatrix, WaveletTree, audit_alpha_sums, audit_subtree_sums,
                      benjamini_hochberg, bonferroni, critical_z, denoise, descend, descend_batch,
                      descend_local, error_report, haar_forward, holm, keep_mask, level_thresholds,
                      localize, std_normal_cdf, std_normal_quantile, two_sided_pvalue)
from treetest import trees as trees_module
from treetest.trees import _descent, _fold_up, _subtree_sums, as_levels, as_truth

from helpers import (
    children_from_parents,
    gather_layer_trees,
    preorder_parents,
    random_general_parents,
    random_uniform_shape,
    reference_budget_violations,
    reference_depths,
    reference_first_true,
    reference_subtree_vertices,
    reference_uniform_levels,
    reference_weighted_levels,
)


def sample_parent_arrays() -> list[list[int]]:
    """Random general and layer-uniform trees, some with families of 8 or
    more children (where numpy's pairwise sum departs from left-to-right)."""
    rng = np.random.default_rng(21)
    out = [[-1], [-1, 0, 1, 0, 3], [-1, 0, 0, 1, 1, 2, 2, 2]]
    out += [random_general_parents(rng) for _ in range(30)]
    out += [random_general_parents(rng, 2, 14, 200) for _ in range(10)]
    shapes = [random_uniform_shape(rng) for _ in range(15)] + [(9, 3), (12,), (2, 17, 1)]
    out += [build_complete_tree(b).parent.tolist() for b in shapes]
    return out


class TestBuildCompleteTree:
    def test_binary_depth_two(self):
        tree = build_complete_tree([2, 2])
        assert tree.n_vertices == 7
        assert tree.depth == 2
        assert list(tree.leaves) == [3, 4, 5, 6]
        assert all(tree.depth_of[v] == 2 for v in tree.leaves)

    def test_single_vertex(self):
        tree = build_complete_tree([])
        assert tree.n_vertices == 1
        assert tree.depth == 0
        assert tree.leaves.tolist() == [0]

    def test_mixed_branching(self):
        tree = build_complete_tree([3, 2])
        assert tree.n_vertices == 1 + 3 + 6

    def test_breadth_first_ids(self):
        tree = build_complete_tree([2, 3])
        assert list(tree.children(0)) == [1, 2]
        assert list(tree.children(1)) == [3, 4, 5]
        assert list(tree.children(2)) == [6, 7, 8]
        assert np.all(tree.depth_of == [0, 1, 1, 2, 2, 2, 2, 2, 2])

    @pytest.mark.parametrize("branching", [[2.7], [True], ["2"], 3])
    def test_branching_read_by_the_number_rule(self, branching):
        # [2.7] built the binary tree; 3 ended in "'int' object is not iterable"
        with pytest.raises(TypeError, match="branching"):
            build_complete_tree(branching)

    def test_integral_branching_types(self):
        assert build_complete_tree(np.array([2, 3])).n_vertices == 9
        assert build_complete_tree([2.0]).n_vertices == 3

    def test_zero_branching_rejected(self):
        with pytest.raises(ValueError, match="branching factors"):
            build_complete_tree([2, 0])

    def test_vertex_cap(self):
        with pytest.raises(ValueError, match="exceed"):
            build_complete_tree([10] * 8)

    @pytest.mark.parametrize("branching", [[10] * 8, [trees_module.MAX_VERTICES], [2] * 24])
    def test_vertex_cap_checked_before_allocating(self, branching):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^tree would exceed {trees_module.MAX_VERTICES} vertices$"):
                build_complete_tree(branching)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @staticmethod
    def slots(tree: TestTree) -> dict:
        """Every slot of ``tree``, arrays as dtype, values and flags, and the
        rest by ``repr`` (which tells a numpy integer from a Python one)."""
        tree.families  # a general tree groups its families on first use
        out = {}
        for name in TestTree.__slots__:
            value = getattr(tree, name)
            out[name] = (value.dtype, value.shape, value.tobytes(), value.flags.writeable,
                         value.flags.c_contiguous) if isinstance(value, np.ndarray) else repr(value)
        return out

    SHAPES = [b for k in range(5) for b in itertools.product((1, 2, 3, 5), repeat=k)]

    @pytest.mark.parametrize("shapes", [SHAPES, [(2,) * 10, (4096,), ()]], ids=["small", "large"])
    def test_closed_form_matches_the_generic_tree(self, shapes):
        # the closed form fills every slot that TestTree derives from parents
        for branching in shapes:
            tree = build_complete_tree(branching)
            assert self.slots(tree) == self.slots(TestTree(tree.parent)), branching
            assert tree.layer_branching() == branching


class TestTreeValidation:
    def test_incomplete_tree_rejected(self):
        # vertex 1 is a leaf at depth 1 while vertex 2 has a child at depth 2
        with pytest.raises(ValueError, match="complete"):
            TestTree([-1, 0, 0, 2])

    def test_parent_must_precede_child(self):
        with pytest.raises(ValueError, match="smaller"):
            TestTree([-1, 2, 0])

    def test_root_parent(self):
        with pytest.raises(ValueError, match="root"):
            TestTree([0, 0, 0])

    def test_empty_parents_refused(self):
        with pytest.raises(ValueError, match="^parents must be a non-empty 1-D sequence$"):
            TestTree([])

    def test_general_complete_tree_accepted(self):
        # same-depth vertices may have different child counts
        tree = TestTree([-1, 0, 0, 1, 1, 2, 2, 2])
        assert tree.depth == 2
        assert list(tree.children(2)) == [5, 6, 7]

    def test_layer_branching_requires_uniform_layers(self):
        tree = TestTree([-1, 0, 0, 1, 1, 2, 2, 2])
        with pytest.raises(ValueError, match="layer-uniform"):
            tree.layer_branching()

    @pytest.mark.parametrize("parents", [
        [-1, 0.7, 0],  # once built as [-1, 0, 0]
        [-1, "0"],  # once built as [-1, 0]
        [-1, True],
        (-1, 0, 0.5),
        np.array([-1.0, np.nan]),
        np.array([-1.0, np.inf]),
        np.array([-1, 0], dtype=object),
    ])
    def test_parents_read_by_the_number_rule(self, parents):
        with pytest.raises(ValueError, match="^parents must be "):
            TestTree(parents)

    @pytest.mark.parametrize("parents", [
        [-1.0, 0.0, 0.0], (-1, 0.0, 0), np.array([-1.0, 0.0, 0.0]),
        np.array([-1, 0, 0], dtype=np.int32),
    ])
    def test_integral_parents_read_as_ints(self, parents):
        tree = TestTree(parents)
        assert tree.parent.dtype == np.int64 and tree.parent.tolist() == [-1, 0, 0]

    def test_integer_arrays_skip_the_numeric_rule(self, monkeypatch):
        # build_complete_tree hands an int64 array to every localize call
        def no_pass(*args):
            raise AssertionError("an integer parent array went through _numeric")

        monkeypatch.setattr(trees_module, "_numeric", no_pass)
        assert build_complete_tree([2, 3]).n_vertices == 9
        assert TestTree(np.array([-1, 0, 0], dtype=np.int32)).n_vertices == 3


class TestLayeredStructure:
    """The vectorized tree structure against per-vertex references."""

    @staticmethod
    def check_against_reference(tree, parents):
        depths = reference_depths(parents)
        kids = children_from_parents(parents)
        assert tree.depth_of.tolist() == depths
        assert tree.depth == max(depths)
        for v in range(len(parents)):
            assert tree.children(v).tolist() == kids[v]
        assert tree.leaves.tolist() == [v for v in range(len(parents)) if not kids[v]]
        by_depth: list[list[int]] = [[] for _ in range(max(depths) + 1)]
        for v, d in enumerate(depths):
            by_depth[d].append(v)
        ids = np.arange(tree.n_vertices)
        assert [ids[layer].tolist() for layer in tree.layers] == by_depth
        sizes = [{len(kids[v]) for v in layer} for layer in by_depth[:-1]]
        if all(len(s) == 1 for s in sizes):
            assert tree.layer_branching() == tuple(s.pop() for s in sizes)
        else:
            with pytest.raises(ValueError, match="layer-uniform"):
                tree.layer_branching()

    def test_matches_reference_on_sample_trees(self):
        for parents in sample_parent_arrays():
            self.check_against_reference(TestTree(parents), parents)

    def test_general_parents_give_gather_layers(self):
        # same-depth ids need not be contiguous: depths run 0, 1, 2, 1, 2
        tree = TestTree([-1, 0, 1, 0, 3])
        assert tree.depth_of.tolist() == [0, 1, 2, 1, 2]
        assert [np.asarray(ids).tolist() for ids in tree.layers] == [[0], [1, 3], [2, 4]]
        assert tree.children(0).tolist() == [1, 3]
        assert tree.leaves.tolist() == [2, 4]
        assert tree.layer_branching() == (2, 1)

    def test_breadth_first_trees_give_slices(self):
        tree = build_complete_tree([2, 3])
        assert tree.layers == (slice(0, 1), slice(1, 3), slice(3, 9))

    def test_long_path(self):
        # pointer doubling: a 10**5-vertex path costs log2 passes, not one per layer
        tree = build_complete_tree([1] * 99999)
        parents = tree.parent.tolist()
        self.check_against_reference(tree, parents)
        assert tree.depth_of.tolist() == list(range(100000))
        assert tree.layer_branching() == (1,) * 99999

    def test_structure_is_read_only(self):
        for tree in (build_complete_tree([2, 3]), TestTree([-1, 0, 1, 0, 3])):
            for v in range(tree.n_vertices):
                kids = tree.children(v)
                assert not kids.flags.writeable
                with pytest.raises(ValueError):
                    kids[:] = 0
            arrays = [tree.parent, tree.depth_of, tree.child_counts, tree.leaves]
            arrays += [ids for ids in tree.layers if isinstance(ids, np.ndarray)]
            assert not any(a.flags.writeable for a in arrays)

    def test_caller_parent_array_untouched(self):
        parents = np.array([-1, 0, 0], dtype=np.int64)
        TestTree(parents)
        assert parents.flags.writeable


class TestAllocations:
    def test_uniform_binary_halving(self):
        tree = build_complete_tree([2, 2])
        alloc = uniform_levels(tree, 0.05)
        assert alloc.levels[0] == 0.05
        assert np.allclose(alloc.levels[1:3], 0.025)
        assert np.allclose(alloc.levels[3:], 0.0125)

    def test_uniform_ternary(self):
        tree = build_complete_tree([3])
        alloc = uniform_levels(tree, 0.06)
        assert np.allclose(alloc.levels[1:], 0.02)

    def test_uniform_depth_zero(self):
        alloc = uniform_levels(build_complete_tree([]), 0.05)
        assert alloc.levels.tolist() == [0.05]

    def test_weighted_proportional_split(self):
        tree = build_complete_tree([2])
        alloc = weighted_levels(tree, 0.04, [1.0, 3.0, 1.0])
        assert np.allclose(alloc.levels, [0.04, 0.03, 0.01])

    def test_equal_weights_match_uniform(self):
        tree = build_complete_tree([3, 2])
        a = weighted_levels(tree, 0.05, np.ones(tree.n_vertices))
        b = uniform_levels(tree, 0.05)
        assert np.array_equal(a.levels, b.levels)

    def test_missing_weight_rejected(self):
        tree = build_complete_tree([2])
        with pytest.raises(ValueError, match="^weight array covers 2 vertices, tree has 3$"):
            weighted_levels(tree, 0.05, [1.0, 1.0])

    def test_nonpositive_weight_rejected(self):
        tree = build_complete_tree([2])
        # NaN and inf once passed this check and surfaced as NaN test levels
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^weights must be positive and finite$"):
                weighted_levels(tree, 0.05, [1.0, 1.0, bad])

    def test_alpha_range(self):
        tree = build_complete_tree([2])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                uniform_levels(tree, bad)

    def test_constructors_always_satisfy_budget(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            tree = build_complete_tree(random_uniform_shape(rng))
            u = uniform_levels(tree, 0.05)
            w = weighted_levels(tree, 0.05, rng.uniform(0.2, 2.0, tree.n_vertices))
            assert level_budget_violations(tree, u).size == 0
            assert level_budget_violations(tree, w).size == 0


class TestAllocationsMatchReference:
    def test_uniform_levels_bit_equal(self):
        for parents in sample_parent_arrays():
            got = uniform_levels(TestTree(parents), 0.05).levels
            assert np.array_equal(got, reference_uniform_levels(parents, 0.05))

    def test_weighted_levels_bit_equal(self):
        rng = np.random.default_rng(22)
        for parents in sample_parent_arrays():
            w = rng.uniform(0.1, 10.0, len(parents)) * 10.0 ** rng.integers(-6, 6, len(parents))
            got = weighted_levels(TestTree(parents), 0.05, w).levels
            assert np.array_equal(got, reference_weighted_levels(parents, 0.05, w))

    def test_budget_violations_equal(self):
        rng = np.random.default_rng(23)
        hits = 0
        for parents in sample_parent_arrays():
            tree = TestTree(parents)
            base = uniform_levels(tree, 0.05).levels
            for _ in range(5):
                levels = base * rng.uniform(0.9, 1.1, base.size)
                want = reference_budget_violations(parents, levels, LEVEL_SUM_TOL)
                assert level_budget_violations(tree, levels).tolist() == want
                hits += len(want)
        assert hits > 0


class TestBudgetValidation:
    def test_equality_is_valid(self):
        tree = build_complete_tree([2])
        assert level_budget_violations(tree, [0.05, 0.025, 0.025]).size == 0

    def test_oversubscription_flagged(self):
        tree = build_complete_tree([2])
        assert level_budget_violations(tree, [0.05, 0.03, 0.03]).tolist() == [0]

    def test_depth_zero_vacuous(self):
        tree = build_complete_tree([])
        assert level_budget_violations(tree, [0.05]).size == 0

    def test_missing_entry_rejected(self):
        tree = build_complete_tree([2])
        with pytest.raises(ValueError, match="^allocation covers 2 vertices, tree has 3$"):
            level_budget_violations(tree, [0.05, 0.025])

    def test_tolerance_absorbs_float_residue(self):
        tree = build_complete_tree([3])
        third = 0.05 / 3
        assert level_budget_violations(tree, [0.05, third, third, third]).size == 0

    @pytest.mark.parametrize("levels", [
        [0.05, -0.1, 0.15], [0.05, 0.0, 0.05], [0.05, 0.02, float("nan")], [1.5, 0.5, 0.5],
    ])
    def test_levels_outside_unit_interval_rejected(self, levels):
        # [0.05, -0.1, 0.15] meets the budget, yet tests vertex 2 above the root
        for given in (levels, np.array(levels)):
            with pytest.raises(ValueError, match=r"^test levels must lie in \(0, 1\]$"):
                as_levels(given, 3)
        with pytest.raises(ValueError, match="must lie in"):
            level_budget_violations(build_complete_tree([2]), levels)


class TestAncestors:
    def test_root_has_none(self):
        tree = build_complete_tree([2, 2])
        assert ancestors(tree, 0).size == 0

    def test_leaf_path(self):
        tree = build_complete_tree([2, 2])
        assert ancestors(tree, 5).tolist() == [2, 0]

    def test_depth_one(self):
        tree = build_complete_tree([2])
        assert ancestors(tree, 2).tolist() == [0]

    def test_unknown_vertex(self):
        tree = build_complete_tree([2])
        with pytest.raises(ValueError, match="unknown"):
            ancestors(tree, 9)

    def test_length_equals_depth(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = TestTree(random_general_parents(rng))
            for v in range(tree.n_vertices):
                assert ancestors(tree, v).size == tree.depth_of[v]


class TestFirstTrueVertices:
    def test_no_true_nulls(self):
        tree = build_complete_tree([2, 2])
        assert first_true_vertices(tree, np.zeros(7)).size == 0

    def test_true_root_dominates(self):
        tree = build_complete_tree([2, 2])
        rng = np.random.default_rng(0)
        for _ in range(10):
            truth = rng.integers(0, 2, 7)
            truth[0] = 1
            assert first_true_vertices(tree, truth).tolist() == [0]

    def test_binary_depth_two_case(self):
        # root false; left child true; right child false with both its
        # children true -> {left, right's two children}
        tree = build_complete_tree([2, 2])
        truth = [0, 1, 0, 0, 0, 1, 1]
        assert first_true_vertices(tree, truth).tolist() == [1, 5, 6]

    def test_missing_truth_rejected(self):
        tree = build_complete_tree([2])
        with pytest.raises(ValueError, match="^truth assignment covers 2 vertices, tree has 3$"):
            first_true_vertices(tree, [1, 0])

    def test_antichain_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            tree = TestTree(random_general_parents(rng))
            truth = rng.integers(0, 2, tree.n_vertices)
            members = set(first_true_vertices(tree, truth).tolist())
            for v in members:
                assert not members.intersection(ancestors(tree, v).tolist())


def subtree_sums(tree, alloc, truth) -> np.ndarray:
    """Per vertex, the level sum over the first-true vertices of its subtree."""
    return _subtree_sums(tree, alloc.levels, np.asarray(truth, dtype=bool))


def subtree_vertices(tree, root: int) -> list[int]:
    """The descent pass from every vertex but ``root`` flagged: it clears
    exactly the subtree hanging from ``root``."""
    return np.flatnonzero(~_descent(tree, np.arange(tree.n_vertices) != root)).tolist()


class TestSubtreeAlphaSum:
    def test_empty_intersection(self):
        tree = build_complete_tree([2, 2])
        alloc = uniform_levels(tree, 0.05)
        assert subtree_sums(tree, alloc, np.zeros(7)).tolist() == [0.0] * 7

    def test_true_subtree_root(self):
        tree = build_complete_tree([2, 2])
        alloc = uniform_levels(tree, 0.05)
        truth = [0, 1, 0, 0, 0, 0, 0]
        assert subtree_sums(tree, alloc, truth)[1] == pytest.approx(0.025, abs=1e-15)

    def test_hand_worked_case(self):
        tree = build_complete_tree([2, 2])
        alloc = uniform_levels(tree, 0.05)
        truth = [0, 1, 0, 0, 0, 1, 1]
        total = subtree_sums(tree, alloc, truth)[0]
        assert total == pytest.approx(0.025 + 0.0125 + 0.0125, abs=1e-15)

    def test_subtree_vertices(self):
        tree = build_complete_tree([2, 2])
        assert subtree_vertices(tree, 2) == [2, 5, 6]
        assert len(subtree_vertices(tree, 0)) == 7

    def test_exhaustive_bound_small_trees(self):
        # every truth assignment of several small shapes stays within the
        # root budget, for uniform and randomly weighted allocations
        rng = np.random.default_rng(5)
        for shape in [(2,), (3,), (2, 2), (3, 2), (2, 3)]:
            tree = build_complete_tree(shape)
            allocs = [uniform_levels(tree, 0.05)] + [
                weighted_levels(tree, 0.05, rng.uniform(0.1, 1.0, tree.n_vertices))
                for _ in range(3)
            ]
            for truth in itertools.product((0, 1), repeat=tree.n_vertices):
                members = first_true_vertices(tree, np.array(truth))
                for alloc in allocs:
                    assert alloc.levels[members].sum() <= 0.05 + LEVEL_SUM_TOL


class TestFoldUpFloor:
    """``_fold_up`` with a floor gives every vertex the largest first-true
    level sum of its subtree, ``max(level, sum of the children's)``."""

    @staticmethod
    def brute_force_worst(parents, levels: np.ndarray) -> np.ndarray:
        """Per vertex and row of ``levels`` (n_vertices, rows), the largest
        first-true level sum inside the vertex's subtree over every truth
        assignment, by walking each vertex's root path."""
        n = len(parents)
        inside = np.zeros((n, n))
        for v in range(n):
            inside[v, reference_subtree_vertices(parents, v)] = 1.0
        first = np.zeros((1 << n, n))
        for i in range(1 << n):
            first[i, reference_first_true(parents, [(i >> v) & 1 for v in range(n)])] = 1.0
        # (assignments, n_vertices, rows) -> worst per (vertex, row)
        return np.einsum("av,uv,vr->aur", first, inside, levels).max(axis=0)

    @staticmethod
    def sample_trees() -> list[list[int]]:
        rng = np.random.default_rng(27)
        general = [random_general_parents(rng, 3, 3, 12) for _ in range(12)]
        gather = [t.parent.tolist() for t in gather_layer_trees() if t.n_vertices <= 12]
        return general + [preorder_parents(p) for p in general] + gather

    def test_matches_brute_force_over_every_assignment(self):
        # dyadic levels, so every sum is exact in any order; random levels
        # break the budget, so the floor and the children's sum each win
        # somewhere
        rng = np.random.default_rng(28)
        copied_back = floor_won = sum_won = 0
        for parents in self.sample_trees():
            tree = TestTree(parents)
            n = tree.n_vertices
            levels = rng.integers(1, 33, size=(n, 3)) / 64.0
            values = np.where((tree.child_counts > 0)[:, None], 0.0, levels)
            got = _fold_up(tree, values, np.add, floor=levels)
            want = self.brute_force_worst(parents, levels)
            assert got is values and got.tolist() == want.tolist()
            inner = tree.child_counts > 0
            floor_won += (got[inner] == levels[inner]).sum()
            sum_won += (got[inner] > levels[inner]).sum()
            copied_back += any(isinstance(par, np.ndarray)
                               for layer in tree.families for par, _, _ in layer)
        assert copied_back >= 10 and floor_won >= 10 and sum_won >= 10

    def test_without_floor_the_fold_is_unchanged(self):
        tree = TestTree([-1, 0, 1, 1, 0, 4, 4, 4])
        values = np.arange(1.0, 9.0)
        assert _fold_up(tree, values.copy(), np.add).tolist() == [
            36.0, 9.0, 3.0, 4.0, 26.0, 6.0, 7.0, 8.0]


class TestPerVertexInputs:
    """Allocations, truth, weights and p-value arrays are read as arrays of
    one entry per vertex through one shape rule, and truth through one 0/1
    rule that checks the values before it casts them."""

    tree = build_complete_tree([2])
    READERS = {
        "allocation": lambda tree, x: level_budget_violations(tree, x),
        "truth assignment": lambda tree, x: first_true_vertices(tree, x),
        "weight array": lambda tree, x: weighted_levels(tree, 0.05, x),
        "p-value array": lambda tree, x: descend(tree, [0.05, 0.025, 0.025], x),
    }

    @pytest.mark.parametrize("what", READERS)
    def test_shape_errors_share_one_wording(self, what):
        for given, n in (([1, 0], 2), (np.ones(4), 4), ([], 0)):
            with pytest.raises(ValueError, match=f"^{what} covers {n} vertices, tree has 3$"):
                self.READERS[what](self.tree, given)
        with pytest.raises(ValueError, match=f"^{what} must list one entry per vertex, not a 2-D"):
            self.READERS[what](self.tree, np.ones((3, 1)))

    @pytest.mark.parametrize("read", [
        lambda tree, m: as_levels(m, tree.n_vertices),
        lambda tree, m: as_truth(tree, m),
        lambda tree, m: weighted_levels(tree, 0.05, m),
        lambda tree, m: first_true_vertices(tree, m),
        lambda tree, m: audit_subtree_sums(tree, uniform_levels(tree, 0.05), m),
        lambda tree, m: audit_subtree_sums(tree, m, [0, 1, 1]),
    ])
    def test_mappings_refused(self, read):
        with pytest.raises(ValueError, match="^.* must list one entry per vertex, not a 0-D dict$"):
            read(self.tree, {0: 1, 1: 1, 2: 1})

    def test_truth_checked_before_cast(self):
        # an int8 cast once read 0.9 as a false null and 1.9 as a true one
        alloc = uniform_levels(self.tree, 0.05)
        for bad in ([0.9, 1, 1], [1, 0.5, 0], [0, np.nan, 1], [2, 0, 0]):
            with pytest.raises(ValueError, match="^truth values must be 0 or 1$"):
                first_true_vertices(self.tree, bad)
            with pytest.raises(ValueError, match="^truth values must be 0 or 1$"):
                audit_subtree_sums(self.tree, alloc, bad)
        with pytest.raises(ValueError, match="^truth values must be 0 or 1$"):
            as_truth(self.tree, [True, 1.9, -0.4])

    def test_truth_read_as_flags(self):
        for given in ([0, 1, 1], [False, True, True], np.array([0.0, 1.0, 1.0])):
            flags = as_truth(self.tree, given)
            assert flags.dtype == bool and flags.tolist() == [False, True, True]
            assert first_true_vertices(self.tree, given).tolist() == [1, 2]


class TestVertexIds:
    """Every vertex id a caller names is an integer (Python or numpy, never
    bool) inside the tree, read through one rule; anything else raises,
    where hand-written checks once truncated 1.7 to 1, read True as 1,
    wrapped -7 and dropped 99."""

    tree = build_complete_tree([2, 2])  # children 0 -> [1, 2], 1 -> [3, 4]
    alloc = uniform_levels(tree, 0.05)
    READERS = {
        "children": lambda tree, alloc, v: tree.children(v),
        "ancestors": lambda tree, alloc, v: ancestors(tree, v),
        "descend": lambda tree, alloc, v: descend(tree, alloc, {0: 0.01, v: 0.5, 2: 0.5}),
        "descend_local": lambda tree, alloc, v: descend_local(
            tree, alloc, {0: [0.01, 0.01], v: [0.5, 0.5], 2: [0.5, 0.5]}),
        "descend_local self": lambda tree, alloc, v: descend_local(
            tree, alloc, {0: [0.01], v: [0.5], 2: [0.5]}, hypotheses="self"),
        "error_report": lambda tree, alloc, v: error_report({v}, [1, 0, 1, 1, 1, 1, 1]),
    }
    BAD = [1.7, 1.0, 0.5, True, np.True_, -1, -7, 7, 99, "1", "a", None]

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("v", BAD, ids=repr)
    def test_anything_but_an_id_in_range_refused(self, reader, v):
        message = f"^unknown vertex id {re.escape(repr(v))}, outside the integers 0 to 6$"
        with pytest.raises(ValueError, match=message):
            self.READERS[reader](self.tree, self.alloc, v)

    @pytest.mark.parametrize("v", [1, np.int64(1), np.uint8(1), np.intp(1)], ids=repr)
    def test_python_and_numpy_integers_read_alike(self, v):
        tree, alloc = self.tree, self.alloc
        assert tree.children(v).tolist() == [3, 4]
        assert ancestors(tree, v).tolist() == [0]
        assert descend(tree, alloc, {0: 0.01, v: 0.5, 2: 0.5}).frontier == {1, 2}
        local = self.READERS["descend_local"](tree, alloc, v)
        assert (local.rejected, local.frontier) == ({1, 2}, {1, 2})
        assert self.READERS["descend_local self"](tree, alloc, v).frontier == {1, 2}
        assert error_report({v}, [1, 0, 1, 1, 1, 1, 1]).power == 1.0


class TestNumericInputs:
    """Arrays of numbers (p-values, levels, weights, trial data, signals) are
    read through one dtype rule: integers and floats pass, while strings,
    booleans and other objects raise where a float cast once read "0.01" as
    0.01 and True as 1, a boolean among the numbers of a list included."""

    tree = build_complete_tree([2])
    READERS = {  # a call on a 3-entry input, and the name its message gives it
        "holm": (lambda tree, x: holm(x, 0.05), "p-values"),
        "bonferroni": (lambda tree, x: bonferroni(x, 0.05), "p-values"),
        "benjamini_hochberg": (lambda tree, x: benjamini_hochberg(x, 0.05), "p-values"),
        "descend": (lambda tree, x: descend(tree, uniform_levels(tree, 0.05), x), "p-values"),
        "descend_batch": (lambda tree, x: descend_batch(
            tree, uniform_levels(tree, 0.05), np.array([x])), "pmatrix"),
        "descend_local": (lambda tree, x: descend_local(
            tree, uniform_levels(tree, 0.05), {0: x[:2]}), "local p-values"),
        "level_budget_violations": (level_budget_violations, "test levels"),
        "AlphaAllocation": (lambda tree, x: AlphaAllocation(x), "test levels"),
        "weighted_levels": (lambda tree, x: weighted_levels(tree, 0.05, x), "weights"),
        "TrialMatrix": (lambda tree, x: TrialMatrix([x]), "trial data"),
        "haar_forward": (lambda tree, x: haar_forward(np.resize(x, 8)), "signal"),
        "denoise": (lambda tree, x: denoise(np.resize(x, 64), 0.05, 1.0), "signal"),
        "WaveletTree": (lambda tree, x: WaveletTree(np.resize(x, 4), 1), "coefficients"),
        "two_sided_pvalue": (lambda tree, x: two_sided_pvalue(x), "z-scores"),
        "std_normal_cdf": (lambda tree, x: std_normal_cdf(x), "input"),
        "std_normal_quantile": (lambda tree, x: std_normal_quantile(x), "probabilities"),
    }
    BAD = {
        "strings": ["0.05", "0.025", "0.025"],
        "booleans": [False, False, True],
        "objects": [0.05, None, 0.025],
        "complex numbers": [0.05, 0.025j, 0.025],
    }

    @pytest.mark.parametrize("reader", READERS)
    def test_anything_but_numbers_refused(self, reader):
        read, what = self.READERS[reader]
        for kind, given in self.BAD.items():
            with pytest.raises(ValueError, match=f"^{what} must be real numbers, not {kind}$"):
                read(self.tree, given)

    @pytest.mark.parametrize("reader, given", [
        ("descend", [0.01, True, 0.5]),
        ("AlphaAllocation", [0.05, 0.025, np.True_]),
        ("two_sided_pvalue", [[0.5, True], [1.0, 2.0]]),
        ("TrialMatrix", [0.0, True, 0.5]),  # read as the one row of a nested list
        ("weighted_levels", [1, True, 2]),
    ])
    def test_booleans_among_numbers_refused(self, reader, given):
        # numpy casts such a list to float64, which once read True as 1.0
        read, what = self.READERS[reader]
        with pytest.raises(ValueError, match=f"^{what} must be real numbers, not booleans$"):
            read(self.tree, given)

    def test_integers_read_as_floats(self):
        assert holm(np.array([0, 1], dtype=np.int8), 0.05).tolist() == [True, False]
        p = np.array([0, 1, 0], dtype=np.uint8)
        assert descend(self.tree, [0.05, 0.025, 0.025], p).rejected == {0, 2}
        assert TrialMatrix(np.ones((2, 4), dtype=np.int32)).data.dtype == np.float64
        assert np.array_equal(haar_forward(np.arange(8)).coeffs,
                              haar_forward(np.arange(8.0)).coeffs)
        assert np.array_equal(weighted_levels(self.tree, 0.05, [1, 1, 3]).levels,
                              weighted_levels(self.tree, 0.05, [1.0, 1.0, 3.0]).levels)


class TestLevelArguments:
    """Every scalar test level (``alpha``, ``level``, ``q``, root levels) is
    read through ``trees._level`` and every noise scale through
    ``gaussian._check_sigma``, both by the number rule: True once ran as
    level 1 or scale 1, and "0.05" ended in a bare comparison TypeError."""

    LEVELS = {  # a call at level x, the argument's name, and whether 1 is refused
        "uniform_levels": (lambda x: uniform_levels(build_complete_tree([2]), x), "alpha", False),
        "weighted_levels": (
            lambda x: weighted_levels(build_complete_tree([2]), x, [1, 1, 2]), "alpha", False),
        "holm": (lambda x: holm([0.01, 0.5], x), "level", False),
        "bonferroni": (lambda x: bonferroni([0.01, 0.5], x), "level", False),
        "benjamini_hochberg": (lambda x: benjamini_hochberg([0.01, 0.5], x), "q", False),
        "localize": (lambda x: localize(TrialMatrix(np.zeros((2, 8))), x, 2), "alpha", False),
        "audit_alpha_sums": (
            lambda x: audit_alpha_sums(max_depth=1, branchings=(2,), alpha=x), "alpha", False),
        "SimConfig root_levels": (lambda x: SimConfig(root_levels=(x,)), "root_levels", False),
        "SimConfig alpha": (lambda x: SimConfig(alpha=x), "alpha", True),
        "critical_z": (critical_z, "level", True),
        "level_thresholds": (lambda x: level_thresholds(x, 3, 1.0), "alpha", True),
        "keep_mask": (lambda x: keep_mask(haar_forward(np.arange(8.0)), x, 1.0), "alpha", True),
        "denoise": (lambda x: denoise(np.arange(64.0), x, 1.0), "alpha", True),
    }
    SCALES = {  # a call at noise scale x
        "TrialMatrix": lambda x: TrialMatrix(np.zeros((2, 4)), sigma=x),
        "level_thresholds": lambda x: level_thresholds(0.05, 3, x),
        "keep_mask": lambda x: keep_mask(haar_forward(np.arange(8.0)), 0.05, x),
        "denoise": lambda x: denoise(np.arange(64.0), 0.05, x),
    }

    @pytest.mark.parametrize("given", [True, np.bool_(False), "0.05", None, [0.05]], ids=repr)
    @pytest.mark.parametrize("reader", LEVELS)
    def test_level_that_is_no_number_refused(self, reader, given):
        read, name, _ = self.LEVELS[reader]
        with pytest.raises(TypeError, match=f"^{name}: expected a number, got {re.escape(repr(given))}$"):
            read(given)

    @pytest.mark.parametrize("given", [float("nan"), 0.0, -0.05, 1.5, float("inf"), 1.0])
    @pytest.mark.parametrize("reader", LEVELS)
    def test_level_outside_its_range_refused(self, reader, given):
        read, name, below_one = self.LEVELS[reader]
        if given == 1.0 and not below_one:  # the whole budget is a level
            if reader != "SimConfig root_levels":  # though not above a config's alpha < 1
                read(given)
            return
        bracket = r"\)" if below_one else r"\]"
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}.* must lie in \(0, 1{bracket}$"):
            read(given)

    # a string is denoise's sigma mode: "estimate", or a ValueError naming it
    @pytest.mark.parametrize("reader, given", [
        (r, g) for r in SCALES for g in (True, np.bool_(True), "0.05", None)
        if not (r == "denoise" and isinstance(g, str))
    ], ids=repr)
    def test_scale_that_is_no_number_refused(self, reader, given):
        with pytest.raises(TypeError, match=f"^sigma: expected a number, got {re.escape(repr(given))}$"):
            self.SCALES[reader](given)

    @pytest.mark.parametrize("given", [float("nan"), 0.0, -1.0, float("inf")])
    @pytest.mark.parametrize("reader", SCALES)
    def test_scale_outside_its_range_refused(self, reader, given):
        with pytest.raises(ValueError, match="^sigma must be positive and finite$"):
            self.SCALES[reader](given)

    def test_numbers_are_read_as_floats(self):
        # TrialMatrix once kept the scale as given, True included
        assert type(TrialMatrix(np.zeros((2, 4)), sigma=np.int64(2)).sigma) is float
        assert np.array_equal(holm([0.01, 0.03], np.float32(0.05)), holm([0.01, 0.03], 0.05))
        assert uniform_levels(build_complete_tree([2]), 1).root_level == 1.0


class TestDescentPassesMatchReference:
    """First-true flags and subtree membership come from the descent pass;
    compare them with per-vertex walks on random general trees and on trees
    whose layers are gather arrays (ids assigned depth-first)."""

    @staticmethod
    def trees():
        return [TestTree(p) for p in sample_parent_arrays()] + gather_layer_trees()

    def test_first_true_matches_ancestor_walk(self):
        rng = np.random.default_rng(41)
        for tree in self.trees():
            parents = tree.parent.tolist()
            for density in (0.1, 0.5, 0.9):
                truth = (rng.random(tree.n_vertices) < density).astype(int)
                want = reference_first_true(parents, truth)
                assert first_true_vertices(tree, truth).tolist() == want

    def test_subtree_vertices_match_breadth_first_walk(self):
        for tree in self.trees():
            parents = tree.parent.tolist()
            for v in range(0, tree.n_vertices, max(1, tree.n_vertices // 12)):
                assert subtree_vertices(tree, v) == reference_subtree_vertices(parents, v)


class TestSerialization:
    def test_round_trip(self):
        tree = build_complete_tree([3, 2])
        alloc = weighted_levels(tree, 0.05, np.linspace(1, 2, tree.n_vertices))
        doc = allocation_doc(tree, alloc)
        tree2, alloc2 = allocation_from_doc(doc)
        assert tree2.n_vertices == tree.n_vertices
        assert np.allclose(alloc2.levels, alloc.levels)
        assert doc["alpha_root"] == 0.05
        assert doc["branching"] == [3, 2]

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            allocation_from_doc({"depth": 1})

    @pytest.mark.parametrize("doc, message", [
        ([], "JSON object"),
        ({"depth": 1, "branching": [2.9], "allocation": [0.05, 0.025, 0.025]}, "integer, got 2.9"),
        ({"depth": True, "branching": [2], "allocation": [0.05, 0.025, 0.025]}, "number, got True"),
        ({"depth": 1, "branching": [2], "allocation": [0.05, "0.025", 0.025]}, "got '0.025'"),
        # the first once failed naming no key, the second ran as a one-vertex tree
        ({"depth": 1, "branching": [2], "allocation": 0.05}, "allocation: expected a list, got "),
        ({"depth": 0, "branching": "", "allocation": [0.05]}, "branching: expected a list, got "),
    ])
    def test_numbers_read_as_written(self, doc, message):
        with pytest.raises(ValueError, match=message):
            allocation_from_doc(doc)

    def test_alpha_root_must_match(self):
        doc = allocation_doc(build_complete_tree([2]), [0.05, 0.025, 0.025])
        assert allocation_from_doc({**doc, "alpha_root": 0.05})[1].root_level == 0.05
        with pytest.raises(ValueError, match="alpha_root disagrees"):
            allocation_from_doc({**doc, "alpha_root": 0.1})

    def test_depth_mismatch(self):
        doc = {"depth": 3, "branching": [2, 2], "allocation": [0.05] * 7}
        with pytest.raises(ValueError, match="depth 3 does not match 2 branching factors"):
            allocation_from_doc(doc)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="levels"):
            allocation_from_doc({"depth": 1, "branching": [2], "allocation": [0.05]})

    def test_levels_must_be_probabilities(self):
        with pytest.raises(ValueError):
            AlphaAllocation(np.array([0.05, -0.01]))

    def test_levels_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="^levels must be a non-empty 1-D array$"):
            AlphaAllocation(np.full((2, 2), 0.01))
