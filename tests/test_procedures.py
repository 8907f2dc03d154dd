"""The tree descent, its local-family variant, and the flat baselines."""

import dataclasses
import math
import random

import numpy as np
import pytest

from treetest import (
    ErrorReport,
    TestTree,
    TreeRejections,
    benjamini_hochberg,
    bonferroni,
    build_complete_tree,
    descend,
    descend_batch,
    descend_local,
    error_report,
    holm,
    uniform_levels,
    weighted_levels,
)

from helpers import (
    children_from_parents,
    gather_layer_trees,
    random_general_parents,
    random_uniform_shape,
    reference_bh,
    reference_descend,
    reference_descend_local,
    reference_error_report,
    reference_holm,
)


class TestHolm:
    def test_all_rejected(self):
        # thresholds 0.05/3, 0.025, 0.05
        assert holm([0.001, 0.02, 0.04], 0.05).all()

    def test_none_rejected_on_tied_block(self):
        assert not holm([0.02, 0.02, 0.02], 0.05).any()

    def test_stops_at_first_failure(self):
        assert holm([0.001, 0.5, 0.9], 0.05).tolist() == [True, False, False]

    def test_flags_in_input_order(self):
        assert holm([0.5, 0.001, 0.9], 0.05).tolist() == [False, True, False]

    def test_single_hypothesis_is_plain_test(self):
        assert holm([0.05], 0.05).tolist() == [True]
        assert holm([0.051], 0.05).tolist() == [False]

    def test_rejects_superset_of_bonferroni(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.random(int(rng.integers(1, 12)))
            h, b = holm(p, 0.1), bonferroni(p, 0.1)
            assert np.all(h | ~b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            holm([], 0.05)

    def test_pvalue_range_enforced(self):
        with pytest.raises(ValueError, match="p-values"):
            holm([0.5, 1.2], 0.05)


@pytest.mark.parametrize("procedure", [holm, bonferroni, benjamini_hochberg])
@pytest.mark.parametrize("level", [0.0, 1.5])
def test_flat_level_outside_unit_interval(procedure, level):
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
        procedure([0.01, 0.5], level)


class TestBonferroni:
    def test_two_hypotheses(self):
        assert bonferroni([0.01, 0.02], 0.05).all()

    def test_single_test_at_full_level(self):
        assert bonferroni([0.03], 0.05).tolist() == [True]

    def test_threshold_scales_with_m(self):
        assert not bonferroni([0.02, 0.02, 0.02], 0.05).any()


class TestBenjaminiHochberg:
    def test_step_up(self):
        # thresholds 0.0167, 0.0333, 0.05: k = 2
        assert benjamini_hochberg([0.01, 0.02, 0.06], 0.05).tolist() == [True, True, False]

    def test_all_ones(self):
        assert not benjamini_hochberg([1.0, 1.0, 1.0], 0.05).any()

    def test_all_zeros(self):
        assert benjamini_hochberg([0.0, 0.0, 0.0], 0.05).all()

    def test_revival_beyond_first_failure(self):
        # p_(1) fails its threshold but p_(2) passes, so both are rejected
        flags = benjamini_hochberg([0.03, 0.032], 0.05)
        assert flags.all()


class TestDescend:
    def setup_method(self):
        self.tree = build_complete_tree([2])
        self.alloc = uniform_levels(self.tree, 0.05)

    def test_mixed_outcome(self):
        res = descend(self.tree, self.alloc, {0: 0.01, 1: 0.02, 2: 0.03})
        assert res.rejected == {0, 1}
        assert res.frontier == {2}

    def test_levels_outside_unit_interval_rejected(self):
        # the children's sum meets the root's budget, but vertex 2 would be
        # tested at 0.15, above the root's 0.05
        levels = [0.05, -0.1, 0.15]
        for validate in (True, False):
            with pytest.raises(ValueError, match="must lie in"):
                descend(self.tree, levels, [0.01, 0.5, 0.1], validate=validate)
            with pytest.raises(ValueError, match="must lie in"):
                descend_batch(self.tree, levels, np.full((2, 3), 0.01), validate=validate)
        with pytest.raises(ValueError, match="must lie in"):
            descend_local(self.tree, levels, {0: [0.01, 0.1]})

    def test_stop_at_root(self):
        res = descend(self.tree, self.alloc, {0: 0.10})
        assert res.rejected == frozenset()
        assert res.frontier == {0}

    def test_everything_rejected(self):
        tree = build_complete_tree([2, 2])
        res = descend(tree, uniform_levels(tree, 0.05), np.zeros(7))
        assert res.rejected == frozenset(range(7))
        assert res.frontier == frozenset()

    def test_boundary_tie_rejects(self):
        res = descend(self.tree, self.alloc, {0: 0.05, 1: 0.025, 2: 0.5})
        assert res.rejected == {0, 1}

    def test_unreached_pvalues_not_required(self):
        res = descend(self.tree, self.alloc, {0: 0.9})
        assert res.frontier == {0}
        arr = np.array([0.9, np.nan, np.nan])
        assert descend(self.tree, self.alloc, arr).frontier == {0}

    def test_missing_pvalue_at_tested_vertex(self):
        with pytest.raises(ValueError, match="required"):
            descend(self.tree, self.alloc, {0: 0.01, 1: 0.02})

    def test_budget_violation_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            descend(self.tree, [0.05, 0.03, 0.03], {0: 0.5, 1: 0.5, 2: 0.5})

    def test_pvalue_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            descend(self.tree, self.alloc, {0: 1.5})

    def test_depth_zero_single_test(self):
        tree = build_complete_tree([])
        alloc = uniform_levels(tree, 0.05)
        assert descend(tree, alloc, [0.04]).rejected == {0}
        assert descend(tree, alloc, [0.06]).rejected == frozenset()

    def test_path_closure(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tree = TestTree(random_general_parents(rng))
            alloc = weighted_levels(tree, 0.3, rng.uniform(0.2, 2.0, tree.n_vertices))
            res = descend(tree, alloc, rng.random(tree.n_vertices))
            for v in res.rejected:
                assert v == 0 or int(tree.parent[v]) in res.rejected
            assert not (res.rejected & res.frontier)

    def test_monotone_in_evidence(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tree = build_complete_tree(random_uniform_shape(rng))
            alloc = uniform_levels(tree, 0.2)
            p = rng.random(tree.n_vertices)
            smaller = p * rng.uniform(0.3, 1.0, tree.n_vertices)
            before = descend(tree, alloc, p).rejected
            after = descend(tree, alloc, smaller).rejected
            assert before <= after

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            tree = TestTree(random_general_parents(rng))
            kids = children_from_parents(tree.parent.tolist())
            alloc = uniform_levels(tree, 0.3)
            p = rng.random(tree.n_vertices)
            got = descend(tree, alloc, p)
            want_rej, want_front = reference_descend(kids, alloc.levels, p)
            assert set(got.rejected) == want_rej
            assert set(got.frontier) == want_front

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(5)
        tree = build_complete_tree([3, 2])
        alloc = uniform_levels(tree, 0.2)
        P = rng.random((64, tree.n_vertices))
        rej, front = descend_batch(tree, alloc, P)
        for i in range(P.shape[0]):
            single = descend(tree, alloc, P[i])
            assert set(np.nonzero(rej[i])[0]) == set(single.rejected)
            assert set(np.nonzero(front[i])[0]) == set(single.frontier)


class TestDescendLocal:
    def test_both_children_rejected_continues(self):
        tree = build_complete_tree([2, 2])
        alloc = uniform_levels(tree, 0.05)
        locals_ = {0: [0.001, 0.002], 1: [0.9, 0.9], 2: [0.9, 0.9]}
        res = descend_local(tree, alloc, locals_)
        assert res.rejected == {1, 2}
        assert res.frontier == {1, 2}

    def test_one_acceptance_stops_below(self):
        tree = build_complete_tree([2, 2])
        alloc = uniform_levels(tree, 0.05)
        # first child rejected (0.001 <= 0.025), second accepted (0.2 > 0.05)
        res = descend_local(tree, alloc, {0: [0.001, 0.2]})
        assert res.rejected == {1}
        assert res.frontier == {0}

    def test_nothing_rejected(self):
        tree = build_complete_tree([2])
        res = descend_local(tree, uniform_levels(tree, 0.05), {0: [0.9, 0.9]})
        assert res.rejected == frozenset()
        assert res.frontier == {0}

    def test_arity_mismatch(self):
        tree = build_complete_tree([2])
        with pytest.raises(ValueError, match="local p-values"):
            descend_local(tree, uniform_levels(tree, 0.05), {0: [0.01]})

    def test_missing_family(self):
        tree = build_complete_tree([2, 2])
        with pytest.raises(ValueError, match="required"):
            descend_local(tree, uniform_levels(tree, 0.05), {0: [0.0, 0.0]})

    def test_depth_zero_has_no_families(self):
        tree = build_complete_tree([])
        res = descend_local(tree, uniform_levels(tree, 0.05), {})
        assert res.rejected == frozenset() and res.frontier == frozenset()

    def test_holm_locals_step_down(self):
        tree = build_complete_tree([2])
        alloc = uniform_levels(tree, 0.05)
        # 0.02 <= 0.05 / 2 is rejected first, then 0.03 <= 0.05 / 1
        assert descend_local(tree, alloc, {0: [0.02, 0.03]}).rejected == {1, 2}
        assert descend_local(tree, alloc, {0: [0.03, 0.026]}).rejected == frozenset()

    def test_self_layout_reduces_to_descend(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            tree = TestTree(random_general_parents(rng))
            alloc = weighted_levels(tree, 0.2, rng.uniform(0.2, 2.0, tree.n_vertices))
            p = rng.random(tree.n_vertices)
            # exact boundary ties now and then
            ties = rng.random(tree.n_vertices) < 0.1
            p = np.where(ties, alloc.levels, p)
            plain = descend(tree, alloc, p)
            local = descend_local(
                tree, alloc, {v: [p[v]] for v in range(tree.n_vertices)}, hypotheses="self"
            )
            assert local.rejected == plain.rejected
            assert local.frontier == plain.frontier

    def test_self_layout_expects_one_pvalue(self):
        tree = build_complete_tree([2])
        with pytest.raises(ValueError, match="one p-value"):
            descend_local(
                tree, uniform_levels(tree, 0.05), {0: [0.1, 0.2]}, hypotheses="self"
            )


class TestKernelWrappers:
    """The public procedures wrap the block kernels; these pin the wrapper
    contract: lazy lookups, errors named by vertex, general trees, rows."""

    # depths 0, 1, 2, 1, 2: children 0 -> [1, 3], 1 -> [2], 3 -> [4]
    GATHER = [-1, 0, 1, 0, 3]

    def setup_method(self):
        self.tree = TestTree(self.GATHER)
        self.alloc = uniform_levels(self.tree, 0.05)  # 0.05, then 0.025 each

    def test_mapping_may_omit_untested_vertices(self):
        # vertex 1 is accepted, so vertex 2 below it is never tested
        res = descend(self.tree, self.alloc, {0: 0.01, 1: 0.9, 3: 0.01, 4: 0.02})
        assert (res.rejected, res.frontier) == ({0, 3, 4}, {1})
        arr = np.array([0.01, 0.9, np.nan, 0.01, 0.02])
        assert descend(self.tree, self.alloc, arr) == res
        # an out-of-range value where the walk never goes is never looked at
        assert descend(self.tree, self.alloc, {0: 0.01, 1: 0.9, 2: 7.0, 3: 0.01, 4: 0.02}) == res
        # child 3 accepted in the root's family: no family needed at 1 or 3
        local = descend_local(self.tree, self.alloc, {0: [0.001, 0.5]})
        assert (local.rejected, local.frontier) == ({1}, {0})
        self_layout = descend_local(
            self.tree, self.alloc, {0: [0.01], 1: [0.9], 3: [0.5]}, hypotheses="self"
        )
        assert (self_layout.rejected, self_layout.frontier) == ({0}, {1, 3})

    @pytest.mark.parametrize(
        "pvals, message",
        [
            ({0: 0.01, 1: 0.01, 3: 0.9}, "p-value required at tested vertex 2$"),
            (np.array([0.01, 0.01, np.nan, 0.9, 0.5]), "p-value required at tested vertex 2$"),
            ({0: 0.01, 1: 0.01, 2: 1.5, 3: 0.9}, r"p-value at vertex 2 lies outside \[0, 1\]"),
            ({0: 0.01, 1: 0.01, 2: np.nan, 3: 0.9}, r"p-value at vertex 2 lies outside \[0, 1\]"),
            # 2 and 3 are both tested and bad: the smaller id is named
            ({0: 0.01, 1: 0.01, 3: -0.5}, "p-value required at tested vertex 2$"),
            ({0: 0.01, 1: 0.9, 3: 0.01}, "p-value required at tested vertex 4$"),
            (np.array([0.01, 0.01]), "p-value array covers 2 vertices, tree has 5$"),
        ],
    )
    def test_bad_value_at_tested_vertex_is_named(self, pvals, message):
        with pytest.raises(ValueError, match=message):
            descend(self.tree, self.alloc, pvals)

    @pytest.mark.parametrize(
        "families, message",
        [
            ({0: [0.001, 0.001], 3: [0.9]}, "local p-values required at active vertex 1$"),
            ({0: [0.001, 0.001], 1: [0.9], 3: [0.1, 0.2]}, "vertex 3 has 1 children but 2 local"),
            ({0: [0.001, 0.001], 1: [1.5], 3: [0.9]}, r"p-values must lie in \[0, 1\]"),
            ({0: [0.001, 0.001], 1: [0.9]}, "local p-values required at active vertex 3$"),
            ({0: [[0.001], [0.001]]}, "^local p-values at vertex 0 form a 2-D array, not a list$"),
            ({0: [0.001, 0.001], 1: 0.9, 3: [0.9]}, "at vertex 1 form a 0-D array, not a list$"),
        ],
    )
    def test_bad_family_at_active_vertex_is_named(self, families, message):
        with pytest.raises(ValueError, match=message):
            descend_local(self.tree, self.alloc, families)

    @pytest.mark.parametrize("pmatrix, message", [
        (np.full((2, 4), 0.01), "shape"),
        (np.full(5, 0.01), "shape"),
        (np.array([[0.01, 0.01, 1.5, 0.01, 0.01]]), r"p-values must lie in \[0, 1\]"),
    ])
    def test_batch_input_refused(self, pmatrix, message):
        with pytest.raises(ValueError, match=message):
            descend_batch(self.tree, self.alloc, pmatrix)

    def test_unknown_hypotheses_layout(self):
        with pytest.raises(ValueError, match="hypotheses must be 'children' or 'self'"):
            descend_local(self.tree, self.alloc, {0: [0.5, 0.5]}, hypotheses="x")

    def test_bad_self_layout_value_is_named(self):
        # root and vertex 1 rejected: 2 and 3 are tested, and 2 is the smaller;
        # the walk is descend's, and so is the message
        with pytest.raises(ValueError, match="^p-value required at tested vertex 2$"):
            descend_local(self.tree, self.alloc, {0: [0.01], 1: [0.01]}, hypotheses="self")
        with pytest.raises(ValueError, match="expects one p-value per vertex, got 2"):
            descend_local(
                self.tree, self.alloc, {0: [0.01], 1: [0.01], 2: [0.1, 0.2], 3: [0.9]},
                hypotheses="self",
            )
        # every family is checked, also where the walk never goes: the root
        # is accepted here, so vertex 1 is never tested
        with pytest.raises(ValueError, match="^'self' layout expects one p-value per vertex, got 2$"):
            descend_local(self.tree, self.alloc, {0: [0.9], 1: [0.1, 0.2]}, hypotheses="self")

    def test_batch_matches_reference_on_gather_layer_trees(self):
        rng = np.random.default_rng(41)
        for tree in gather_layer_trees():
            kids = children_from_parents(tree.parent.tolist())
            alloc = weighted_levels(tree, 0.4, rng.uniform(0.2, 2.0, tree.n_vertices))
            P = rng.random((60, tree.n_vertices)) * rng.choice([1.0, 0.1, 0.01], size=(60, 1))
            ties = rng.random(P.shape) < 0.2
            P[ties] = np.broadcast_to(alloc.levels, P.shape)[ties]
            rej, front = descend_batch(tree, alloc, P)
            for i in range(P.shape[0]):
                want_rej, want_front = reference_descend(kids, alloc.levels, P[i])
                assert set(np.flatnonzero(rej[i]).tolist()) == want_rej
                assert set(np.flatnonzero(front[i]).tolist()) == want_front
                single = descend(tree, alloc, P[i])
                assert (single.rejected, single.frontier) == (want_rej, want_front)

    def test_local_matches_reference_on_gather_layer_trees(self):
        rng = np.random.default_rng(42)
        for tree in gather_layer_trees():
            kids = children_from_parents(tree.parent.tolist())
            alloc = weighted_levels(tree, 0.4, rng.uniform(0.2, 2.0, tree.n_vertices))
            for _ in range(20):
                scale = rng.choice([1.0, 0.1, 0.01])
                families = {}
                for v, ks in enumerate(kids):
                    if ks:
                        p = rng.random(len(ks)) * scale
                        ties = rng.random(len(ks)) < 0.3  # on a Holm threshold
                        p[ties] = alloc.levels[v] / rng.integers(1, len(ks) + 1, ties.sum())
                        families[v] = p.tolist()
                got = descend_local(tree, alloc, families)
                want = reference_descend_local(kids, alloc.levels, families)
                assert (got.rejected, got.frontier) == want

    def test_flat_rows_match_references(self):
        rng = np.random.default_rng(43)
        for m in (1, 2, 5, 11, 12, 13, 30):
            level = 0.05
            P = rng.random((80, m)) * rng.choice([1.0, 0.1, 0.01], size=(80, 1))
            on = rng.random(P.shape) < 0.3  # boundary ties
            holm_ties = level / rng.integers(1, m + 1, on.sum())
            bh_ties = rng.integers(1, m + 1, on.sum()) * level / m
            for proc, ref, ties in (
                (holm, reference_holm, holm_ties),
                (benjamini_hochberg, reference_bh, bh_ties),
            ):
                Q = P.copy()
                Q[on] = ties
                got = proc(Q, level)
                assert got.shape == Q.shape
                for i in range(Q.shape[0]):
                    assert np.array_equal(got[i], ref(Q[i], level)), (proc.__name__, Q[i])
                    assert np.array_equal(proc(Q[i], level), got[i])
            assert np.array_equal(bonferroni(P, level), P <= level / m)


class TestMappingInput:
    """Seeded malformed p-value mappings for ``descend``: keys that are numpy
    integers, booleans, floats, strings or ids outside the tree, and values
    that are strings, booleans, lists, NaN or numbers outside [0, 1].  Each
    call returns, or raises a ValueError or TypeError that names the first
    bad key or, when every key is good, the p-values; no other exception
    escapes, and no bad key is accepted.  Values are read by the number
    rule, so a mapping holding a boolean, a string or a list is refused
    even where the walk never tests it."""

    BAD_KEYS = (True, False, np.True_, 1.0, 0.5, np.float64(2.0), math.nan, "1", "", -1,
                np.int64(-1), 10**30)
    BAD_VALUES = ("0.01", "", True, False, np.True_, [0.5], [], math.nan, -0.5, 1.5, 1e308,
                  math.inf, -math.inf)

    @staticmethod
    def good_key(key, n: int) -> bool:
        return (isinstance(key, (int, np.integer)) and not isinstance(key, (bool, np.bool_))
                and 0 <= key < n)

    def cases(self, n: int, seed: int):
        """``n`` cases ``(tree, mapping)``; equal keys collapse as in any dict,
        so ``True`` beside ``1`` is no bad key."""
        rng = random.Random(seed)
        for _ in range(n):
            tree = build_complete_tree(rng.choice(((2,), (2, 2), (3,), (1, 2))))
            size = tree.n_vertices
            items = [(np.int64(v) if rng.random() < 0.3 else v, rng.choice((0.0, 0.01, 0.5, 1.0)))
                     for v in range(size) if rng.random() < 0.9]
            for _ in range(rng.choice((0, 0, 1, 2))):
                key = rng.choice(self.BAD_KEYS + (size, np.int64(size)))
                items.insert(rng.randrange(len(items) + 1), (key, rng.random()))
            for _ in range(rng.choice((0, 1, 2))):
                if items:
                    i = rng.randrange(len(items))
                    items[i] = (items[i][0], rng.choice(self.BAD_VALUES))
            yield tree, dict(items)

    def test_every_mapping_refused_cleanly(self):
        outcomes = set()
        for tree, mapping in self.cases(1000, seed=24):
            case = f"{tree.n_vertices} vertices: {mapping!r}"
            bad = [k for k in mapping if not self.good_key(k, tree.n_vertices)]
            try:
                res = descend(tree, uniform_levels(tree, 0.05), mapping)
            except (ValueError, TypeError) as exc:
                named = repr(bad[0]) if bad else "p-value"
                assert named in str(exc), (case, str(exc))
                outcomes.add("key" if bad else "p-values")
            except Exception as exc:
                raise AssertionError(f"{case}: {exc!r} escaped descend") from exc
            else:
                assert not bad, case
                assert not any(isinstance(x, (bool, np.bool_, str, list))
                               for x in mapping.values()), case
                assert res.rejected | res.frontier <= set(mapping), case
                outcomes.add("returned")
        assert outcomes == {"key", "p-values", "returned"}

    @pytest.mark.parametrize("value", [True, np.True_, "0.5", [0.5], None],
                             ids=["bool", "numpy bool", "string", "list", "None"])
    def test_values_read_by_the_number_rule(self, value):
        # a boolean among numbers once ran as p-value 1, and {0: [0.1]} as 0.1
        tree = build_complete_tree([2])
        for mapping, v in (({0: 0.01, 1: value, 2: 0.5}, 1), ({0: value}, 0)):
            with pytest.raises(TypeError, match=f"^p-value at vertex {v}: expected a number, got "):
                descend(tree, uniform_levels(tree, 0.05), mapping)

    def test_nan_value_reaches_the_unit_check(self):
        tree = build_complete_tree([2])
        with pytest.raises(ValueError, match=r"^p-value at vertex 1 lies outside \[0, 1\]$"):
            descend(tree, uniform_levels(tree, 0.05), {0: 0.01, 1: math.nan, 2: 0.5})


class TestErrorReport:
    def test_no_rejections(self):
        rep = error_report(np.zeros(4, dtype=bool), [1, 1, 0, 0])
        assert (rep.false_rejections, rep.rejections, rep.fdp) == (0, 0, 0.0)
        assert not rep.any_false
        assert rep.power == 0.0

    def test_everything_wrong(self):
        rep = error_report(np.ones(3, dtype=bool), [1, 1, 1])
        assert rep.fdp == 1.0 and rep.any_false

    def test_half_false(self):
        rep = error_report({0, 1}, [0, 1, 0])
        assert (rep.false_rejections, rep.rejections) == (1, 2)
        assert rep.fdp == 0.5 and rep.any_false
        assert rep.power == 0.5  # one of two false nulls caught

    @pytest.mark.parametrize("truth, message", [
        ([[1, 0], [0, 1]], "1-D"), ([], "1-D"), ([1, 2, 0], "0 or 1"),
    ])
    def test_bad_truth(self, truth, message):
        with pytest.raises(ValueError, match=message):
            error_report(np.zeros(3, dtype=bool), truth)

    def test_index_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            error_report(np.ones(3, dtype=bool), [1, 1])
        with pytest.raises(ValueError, match="outside"):
            error_report({5}, [1, 1])

    def test_fdp_dominated_by_any_false(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            rep = error_report(rng.random(n) < 0.4, rng.integers(0, 2, n))
            assert rep.fdp <= float(rep.any_false)
            assert rep.false_rejections / n <= float(rep.any_false)


class TestErrorReportMatchesReference:
    """``error_report`` counts through the simulator's ``_errors``; its
    fields equal a plain ``count_nonzero`` reference, by value and by
    Python type."""

    @staticmethod
    def check(rejected, truth):
        got, want = error_report(rejected, truth), reference_error_report(rejected, truth)
        fields = lambda rep: [(type(v), v) for v in dataclasses.astuple(rep)]
        assert fields(got) == fields(want)
        assert [type(v) for v in dataclasses.astuple(got)] == [int, int, float, bool, float]

    def test_flags_ids_and_tree_rejections(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            flags, truth = rng.random(n) < rng.random(), (rng.random(n) < rng.random()).astype(int)
            ids = frozenset(np.flatnonzero(flags).tolist())
            for rejected in (flags, ids, set(ids), TreeRejections(ids, frozenset())):
                self.check(rejected, truth)
                self.check(rejected, truth.tolist())

    @pytest.mark.parametrize("n", [2**15 - 1, 2**15, 2**15 + 5, 40_000])
    def test_long_columns(self, n):
        # from 2**15 on the counts are summed in int64: R = n would wrap in int16
        rng = np.random.default_rng(n)
        truth = rng.integers(0, 2, n)
        for flags in (np.ones(n, dtype=bool), rng.random(n) < 0.7, np.zeros(n, dtype=bool)):
            self.check(flags, truth)
            self.check(flags, np.ones(n, dtype=int))  # all true: power 0
            self.check(flags, np.zeros(n, dtype=int))
        assert error_report(np.ones(n, dtype=bool), np.ones(n, dtype=int)) == ErrorReport(
            false_rejections=n, rejections=n, fdp=1.0, any_false=True, power=0.0)
