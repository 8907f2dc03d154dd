"""Monte Carlo engine and the exhaustive audits."""

import hashlib
import json

import numpy as np
import pytest

from treetest import (
    PROCEDURES,
    BudgetError,
    SimConfig,
    audit_alpha_sums,
    audit_subtree_sums,
    build_complete_tree,
    compare_procedures,
    monte_carlo_bound,
    simulate,
    uniform_levels,
    format_comparison,
)
from treetest.simulate import (
    _SORT_FROM,
    _attainable_sums_check,
    _bh,
    _holm,
    _Instance,
    _literal_sums_check,
)

from helpers import random_general_parents


class TestSimConfig:
    def test_doc_round_trip(self):
        cfg = SimConfig(
            trees=((2, 2), (3,)),
            alpha=0.1,
            truth="random",
            truth_density=0.3,
            effect=2.0,
            dependence="nested_means",
            replications=500,
            seed=7,
        )
        assert SimConfig.from_doc(cfg.to_doc()) == cfg

    def test_doc_round_trip_explicit(self):
        cfg = SimConfig(
            trees=((2,),),
            allocation="weighted",
            weights=(1.0, 3.0, 1.0),
            truth="explicit",
            truth_values=(1, 0, 1),
        )
        assert SimConfig.from_doc(cfg.to_doc()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(alpha=1.5)
        with pytest.raises(ValueError):
            SimConfig(replications=0)
        with pytest.raises(ValueError):
            SimConfig(truth="explicit")
        with pytest.raises(ValueError):
            SimConfig(dependence="equicorrelated")
        with pytest.raises(ValueError):
            SimConfig(allocation="weighted")
        with pytest.raises(ValueError):
            SimConfig(trees=((2,), (2,)), root_levels=(0.04, 0.04), alpha=0.05)

    def test_malformed_doc(self):
        with pytest.raises(ValueError):
            SimConfig.from_doc({"alpha": "x"})
        with pytest.raises(ValueError):
            SimConfig.from_doc({"frobnicate": 1})

    @pytest.mark.parametrize("key, value", [
        ("allocation", 5), ("allocation", ["weighted"]), ("truth", ["x"]), ("truth", 1.0),
    ])
    def test_section_of_wrong_type(self, key, value):
        with pytest.raises(ValueError, match=key):
            SimConfig.from_doc({key: value})

    @pytest.mark.parametrize("doc", [
        {"tree": 5}, {"tree": []}, {"tree": {"branching": 5}}, {"forest": [5]},
        {"root_levels": 5}, {"allocation": {"kind": "weighted", "weights": 5}},
        {"alpha": [0.1]}, {"seed": None},
    ])
    def test_value_of_wrong_json_type(self, doc):
        with pytest.raises(ValueError, match="malformed"):
            SimConfig.from_doc(doc)


class TestSimulate:
    def test_depth_zero_exact_level(self):
        cfg = SimConfig(trees=((),), alpha=0.05, replications=100_000, seed=1)
        rep = simulate(cfg)
        se = np.sqrt(0.05 * 0.95 / cfg.replications)
        assert abs(rep.fwer_hat - 0.05) <= 3 * se
        assert rep.n_hypotheses == 1

    def test_global_null_bound(self):
        cfg = SimConfig(trees=((2, 2, 2),), alpha=0.05, replications=30_000, seed=2)
        rep = simulate(cfg)
        assert rep.fwer_hat <= monte_carlo_bound(0.05, cfg.replications)

    def test_all_false_truth_never_errs(self):
        cfg = SimConfig(
            trees=((2, 2),),
            truth="explicit",
            truth_values=tuple([0] * 7),
            effect=0.0,
            replications=5_000,
            seed=3,
        )
        rep = simulate(cfg)
        assert rep.fwer_hat == 0.0 and rep.any_false == 0

    def test_domination_in_every_report(self):
        configs = [
            SimConfig(trees=((2, 2),), truth="random", truth_density=0.5, effect=2.0,
                      replications=4_000, seed=4),
            SimConfig(trees=((3, 2),), truth="random", truth_density=0.3, effect=1.0,
                      replications=4_000, seed=5, dependence="nested_means"),
        ]
        for cfg in configs:
            for proc in ("descend", "descend_local", "holm_flat", "bonferroni_flat", "bh_flat"):
                rep = simulate(cfg, proc)
                assert rep.domination_violations == 0
                assert rep.fdr_hat <= rep.fwer_hat + 1e-12
                assert rep.pcer_hat <= rep.fwer_hat + 1e-12
                assert 0.0 <= rep.power_hat <= 1.0

    def test_deterministic_given_seed(self):
        cfg = SimConfig(trees=((2, 2),), truth="random", effect=1.5, replications=9_000, seed=6)
        a, b = simulate(cfg), simulate(cfg)
        assert a.any_false == b.any_false
        assert np.array_equal(a.rejection_counts, b.rejection_counts)
        assert a.fdr_hat == b.fdr_hat

    def test_thread_count_does_not_change_results(self):
        cfg = SimConfig(trees=((2, 2, 2),), truth="random", effect=2.0,
                        replications=20_000, seed=7, block_size=2048)
        serial = simulate(cfg, threads=1)
        threaded = simulate(cfg, threads=4)
        assert serial.any_false == threaded.any_false
        assert np.array_equal(serial.rejection_counts, threaded.rejection_counts)
        assert serial.fdr_hat == threaded.fdr_hat
        assert serial.power_hat == threaded.power_hat

    def test_nested_means_global_null_bound(self):
        cfg = SimConfig(trees=((2, 2, 2),), replications=30_000, seed=8,
                        dependence="nested_means")
        rep = simulate(cfg)
        assert rep.fwer_hat <= monte_carlo_bound(0.05, cfg.replications)

    def test_forest_runs_and_respects_bound(self):
        cfg = SimConfig(trees=((2, 2), (3,)), replications=20_000, seed=9)
        rep = simulate(cfg)
        assert rep.fwer_hat <= monte_carlo_bound(0.05, cfg.replications)
        assert rep.rejection_counts.size == 7 + 4

    def test_effect_increases_power(self):
        base = dict(trees=((2, 2),), truth="explicit",
                    truth_values=(0, 0, 1, 0, 0, 1, 1), replications=5_000, seed=10)
        weak = simulate(SimConfig(effect=1.0, **base))
        strong = simulate(SimConfig(effect=4.0, **base))
        assert strong.power_hat > weak.power_hat

    def test_extended_bound_mixed_truth(self):
        # one all-false root-to-leaf path, everything else a true null
        truth = [1] * 15
        for v in (0, 1, 3, 7):
            truth[v] = 0
        cfg = SimConfig(trees=((2, 2, 2),), truth="explicit", truth_values=tuple(truth),
                        effect=3.0, replications=20_000, seed=11)
        rep = simulate(cfg, "descend_local")
        assert rep.fwer_hat <= monte_carlo_bound(0.05, cfg.replications)
        assert rep.n_hypotheses == 14  # root hosts no single hypothesis

    def test_unknown_procedure(self):
        with pytest.raises(ValueError, match="unknown procedure"):
            simulate(SimConfig(replications=10), "step_up")


class TestCompare:
    def test_paired_holm_dominates_bonferroni(self):
        cfg = SimConfig(trees=((2, 2, 2),), truth="random", truth_density=0.4,
                        effect=2.5, replications=8_000, seed=12)
        reports = compare_procedures(cfg, ["holm_flat", "bonferroni_flat"])
        h, b = reports
        assert h.power_hat >= b.power_hat
        assert np.all(h.rejection_counts >= b.rejection_counts)

    def test_single_row_table(self):
        cfg = SimConfig(trees=((2,),), replications=2_000, seed=13)
        reports = compare_procedures(cfg, ["descend"])
        table = format_comparison(reports)
        assert "descend" in table and len(table.splitlines()) == 3

    def test_empty_procedure_list(self):
        with pytest.raises(ValueError, match="at least one"):
            compare_procedures(SimConfig(replications=10), [])

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one(self, threads):
        with pytest.raises(ValueError, match="threads"):
            compare_procedures(SimConfig(replications=10), ["descend"], threads=threads)

    def test_global_null_all_bounded(self):
        cfg = SimConfig(trees=((2, 2),), replications=20_000, seed=14)
        for rep in compare_procedures(cfg, list(("descend", "holm_flat", "bh_flat"))):
            assert rep.fwer_hat <= monte_carlo_bound(0.05, cfg.replications)


class TestVectorizedKernels:
    """The layer kernels must agree exactly with the scalar procedures.

    Kernel inputs are vertex-major: ``_holm`` takes ``(families, members,
    rows)``, ``_bh`` and ``run_procedure`` take ``(vertices, rows)``.
    """

    SIZES = (1, 2, 5, 9, _SORT_FROM - 1, _SORT_FROM, 20)

    @staticmethod
    def boundary_pvalues(rng, shape, thresholds):
        """Random p-values, a third of them exactly on a threshold or one ulp off it."""
        P = rng.random(shape)
        on = rng.random(shape) < 0.35
        picked = rng.choice(thresholds, size=int(on.sum()))
        P[on] = np.nextafter(picked, picked + rng.integers(-1, 2, picked.size))
        return P

    def test_holm_batch_matches_scalar(self):
        from treetest import holm

        rng = np.random.default_rng(30)
        for m in (1, 2, 5, 9):
            P = rng.random((m, 200))
            P[rng.random(P.shape) < 0.05] = 0.05 / m  # boundary ties
            flags, all_rej = _holm(P[None], np.array([0.05]))
            for i in range(P.shape[1]):
                want = holm(P[:, i], 0.05)
                assert np.array_equal(flags[0, :, i], want)
                assert all_rej[0, i] == want.all()

    def test_holm_at_thresholds_and_ties(self):
        # p exactly at level/(m - i), one ulp either side, and tie groups
        # drawn from those few values so that they straddle the cut
        from treetest import holm

        rng = np.random.default_rng(33)
        for m in self.SIZES:
            thresholds = 0.05 / np.arange(m, 0, -1)
            P = self.boundary_pvalues(rng, (m, 300), thresholds)
            P[:, :100] = rng.choice(thresholds[: max(2, m // 2)], size=(m, 100))
            flags, all_rej = _holm(P[None], np.array([0.05]))
            for i in range(P.shape[1]):
                want = holm(P[:, i], 0.05)
                assert np.array_equal(flags[0, :, i], want), (m, P[:, i])
                assert all_rej[0, i] == want.all()

    def test_holm_per_family_levels(self):
        from treetest import holm

        rng = np.random.default_rng(34)
        for m in self.SIZES:
            levels = rng.uniform(0.001, 0.3, 6)
            thresholds = (levels[:, None] / np.arange(m, 0, -1)).ravel()
            P = self.boundary_pvalues(rng, (6, m, 80), thresholds)
            flags, all_rej = _holm(P, levels)
            assert flags.shape == P.shape and all_rej.shape == (6, 80)
            for f in range(6):
                for i in range(P.shape[2]):
                    want = holm(P[f, :, i], levels[f])
                    assert np.array_equal(flags[f, :, i], want)
                    assert all_rej[f, i] == want.all()

    def test_bh_batch_matches_scalar(self):
        from treetest import benjamini_hochberg

        rng = np.random.default_rng(31)
        for m in (1, 3, 8):
            P = rng.random((m, 200))
            flags = _bh(P, 0.1)
            for i in range(P.shape[1]):
                assert np.array_equal(flags[:, i], benjamini_hochberg(P[:, i], 0.1))

    def test_bh_at_thresholds_and_ties(self):
        from treetest import benjamini_hochberg

        rng = np.random.default_rng(35)
        for m in self.SIZES:
            thresholds = np.arange(1, m + 1) * 0.1 / m
            P = self.boundary_pvalues(rng, (m, 300), thresholds)
            P[:, :100] = rng.choice(thresholds, size=(m, 100))
            flags = _bh(P, 0.1)
            for i in range(P.shape[1]):
                assert np.array_equal(flags[:, i], benjamini_hochberg(P[:, i], 0.1)), (m, P[:, i])

    @staticmethod
    def check_local_descent(cfg, P):
        from treetest import descend_local

        inst = _Instance(cfg)
        tree, levels = inst.trees[0], inst.levels[0]
        rejected = inst.run_procedure("descend_local", P)
        ids, universe = inst.scope["descend_local"]
        assert not universe[0]  # the root hosts no single hypothesis
        for i in range(P.shape[1]):
            families = {
                v: P[tree.children(v), i]
                for v in range(tree.n_vertices)
                if tree.children(v).size
            }
            want = descend_local(tree, levels, families)
            assert set(ids[np.nonzero(rejected[:, i])[0]].tolist()) == set(want.rejected)

    def test_batched_local_descent_matches_scalar(self):
        rng = np.random.default_rng(32)
        cfg = SimConfig(trees=((3, 2),), alpha=0.1, replications=10, seed=0)
        P = rng.random((_Instance(cfg).n_vertices, 100))
        self.check_local_descent(cfg, P)

    def test_local_descent_boundaries_and_weights(self):
        # families on both sides of the sort cut-off, weighted (per-family)
        # levels, and p-values on the local Holm thresholds
        rng = np.random.default_rng(36)
        for branching in ((1, 2), (2, _SORT_FROM - 1), (_SORT_FROM, 2), (4, 3)):
            n = _Instance(SimConfig(trees=(branching,), replications=1)).n_vertices
            cfg = SimConfig(trees=(branching,), alpha=0.2, replications=1, allocation="weighted",
                            weights=tuple(rng.uniform(0.5, 2.0, n)))
            inst = _Instance(cfg)
            tree, levels = inst.trees[0], inst.levels[0]
            thresholds = np.concatenate([
                levels[v] / np.arange(1, tree.children(v).size + 1)
                for v in range(n) if tree.children(v).size
            ])
            P = self.boundary_pvalues(rng, (n, 60), thresholds)
            P[:, :20] = rng.random((n, 20)) * 1e-3  # deep descents
            self.check_local_descent(cfg, P)

    def test_layered_descent_matches_scalar(self):
        from treetest import descend

        rng = np.random.default_rng(37)
        cfg = SimConfig(trees=((2, 3), (), (2,)), alpha=0.3, replications=1)
        inst = _Instance(cfg)
        P = rng.random((inst.n_vertices, 200)) * 0.3
        rejected = inst.run_procedure("descend", P)
        for tree, levels, off in zip(inst.trees, inst.levels, inst.offsets):
            for i in range(P.shape[1]):
                want = descend(tree, levels, P[off : off + tree.n_vertices, i])
                got = np.nonzero(rejected[off : off + tree.n_vertices, i])[0]
                assert set(got.tolist()) == set(want.rejected)

    def test_nested_statistics_aggregate_leaves(self):
        cfg = SimConfig(
            trees=((2, 2),), replications=8, seed=5, dependence="nested_means", effect=0.0
        )
        inst = _Instance(cfg)
        pvals, _ = inst.draw_block(0, 8)
        # rebuild the leaf draws from the same stream and aggregate by hand
        rng = np.random.default_rng([cfg.seed, 0])
        y = rng.standard_normal((8, 4))
        z_root = y.sum(axis=1) / 2.0
        z_internal = y[:, :2].sum(axis=1) / np.sqrt(2.0)
        from scipy import special

        assert np.allclose(pvals[0], 2 * special.ndtr(-np.abs(z_root)), atol=1e-12)
        assert np.allclose(pvals[1], 2 * special.ndtr(-np.abs(z_internal)), atol=1e-12)
        assert np.allclose(pvals[3], 2 * special.ndtr(-np.abs(y[:, 0])), atol=1e-12)

    def test_nested_truth_derived_from_leaves(self):
        cfg = SimConfig(
            trees=((2, 2),),
            truth="random",
            truth_density=0.5,
            replications=64,
            seed=6,
            dependence="nested_means",
        )
        inst = _Instance(cfg)
        _, truth = inst.draw_block(0, 64)
        for row in truth.T:
            assert row[1] == (row[3] and row[4])
            assert row[2] == (row[5] and row[6])
            assert row[0] == (row[1] and row[2])


class TestFixedSeedReports:
    """Reports of a fixed seed, byte for byte (``elapsed_seconds`` aside).

    The digests are sha256 of ``json.dumps([report.to_doc() ...],
    sort_keys=True)`` over all five procedures, recorded from the
    row-major reference engine that preceded the layered kernels.
    """

    CONFIGS = {
        "global_null": (
            SimConfig(trees=((2, 2, 2),), replications=10_000, seed=101, block_size=4096),
            "e0c18c894aaa712e6028553947d4c7c863776c090cd30f6d1c278867ec2ce366",
        ),
        "random_effect": (
            SimConfig(trees=((3, 2),), truth="random", truth_density=0.5, effect=2.0,
                      replications=10_000, seed=102, block_size=4096),
            "76481f76942bdc628ead60252be0629f2c500e9a9dab36cdd1b15be54a072411",
        ),
        "nested_means": (
            SimConfig(trees=((2, 3),), truth="random", truth_density=0.6, effect=1.5,
                      dependence="nested_means", replications=6_000, seed=103, block_size=2048),
            "5bf123b52e3212a70945d7fb7375c8afd09450f010bd0cfccf1c147aa3d795e5",
        ),
        "explicit": (
            SimConfig(trees=((2, 2),), truth="explicit", truth_values=(0, 0, 1, 0, 1, 1, 1),
                      effect=3.0, replications=10_000, seed=104, block_size=4096),
            "bf13dd92e68cffa8a5f67c3122ff0e3ed54e836e7dea59e384c76d97a7a6015b",
        ),
        "weighted_4_3": (
            SimConfig(trees=((4, 3),), allocation="weighted",
                      weights=tuple(float(1 + (v % 5)) for v in range(17)),
                      truth="random", truth_density=0.7, effect=2.5,
                      replications=6_000, seed=105, block_size=2048),
            "1ba5876f71160eb23b9e6caff1d3ed284f0f48279313e73486186fe158ac2809",
        ),
        "forest_single_vertex": (
            SimConfig(trees=((2, 2), ()), truth="random", truth_density=0.5, effect=2.0,
                      replications=6_000, seed=106, block_size=2048),
            "71a549e67a29e3712f676058702dbe64d22eaed6df2d95425d492e91b08a2f7d",
        ),
        "binary_depth_10": (
            SimConfig(trees=((2,) * 10,), truth="random", truth_density=0.9, effect=3.0,
                      replications=1_500, seed=107, block_size=1024),
            "8d626daf94272afa8a189d0e1144093086c4f49b029962e861cab6eb525acda0",
        ),
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_reports_match_recorded_digest(self, name, threads):
        cfg, digest = self.CONFIGS[name]
        docs = []
        for report in compare_procedures(cfg, PROCEDURES, threads=threads):
            doc = report.to_doc()
            del doc["elapsed_seconds"]
            docs.append(doc)
        got = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert got == digest


class TestAuditAlphaSums:
    def test_depth_one_binary(self):
        audit = audit_alpha_sums(1, (2,))
        # shapes () and (2,): 2 + 8 truth assignments
        assert audit.trees_checked == 2
        assert audit.assignments_covered == 2 + 8
        assert audit.max_level_sum == pytest.approx(0.05, abs=1e-12)
        assert audit.passed

    def test_depth_two_binary_counts(self):
        audit = audit_alpha_sums(2, (2,))
        assert audit.assignments_covered == 2 + 8 + 128
        assert audit.cases_checked == audit.assignments_covered * 11
        assert audit.passed

    def test_full_budget_passes(self):
        audit = audit_alpha_sums(3, (2, 3), n_weighted=2)
        assert audit.passed
        assert audit.max_level_sum <= 0.05 + 1e-12

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            audit_alpha_sums(4, (2,))
        with pytest.raises(BudgetError):
            audit_alpha_sums(3, (2, 4))

    def test_routes_agree_on_violations(self):
        # an oversubscribed allocation must be flagged by both routes
        tree = build_complete_tree([2, 2])
        levels = np.array([0.05, 0.04, 0.04, 0.02, 0.02, 0.02, 0.02])
        vmax, vbad = _attainable_sums_check(tree, levels, 0.05, 4_000_000)
        lmax, lbad = _literal_sums_check(tree, levels, 0.05)
        assert vbad > 0 and lbad > 0
        assert vmax == pytest.approx(lmax, abs=1e-12) == pytest.approx(0.08, abs=1e-12)

    def test_summary_mentions_counts(self):
        audit = audit_alpha_sums(1, (3,), n_weighted=1)
        assert "cases" in audit.summary() and "violations 0" in audit.summary()


class TestAuditSubtreeSums:
    def test_all_true_root_sum_is_alpha(self):
        tree = build_complete_tree([2, 2])
        audit = audit_subtree_sums(tree, uniform_levels(tree, 0.05), np.ones(7))
        assert audit.passed
        assert audit.max_sum == pytest.approx(0.05, abs=1e-15)

    def test_all_false_sum_zero(self):
        tree = build_complete_tree([2, 2])
        audit = audit_subtree_sums(tree, uniform_levels(tree, 0.05), np.zeros(7))
        assert audit.passed and audit.max_sum == 0.0

    def test_leaf_subtree_two_cases(self):
        tree = build_complete_tree([2])
        alloc = uniform_levels(tree, 0.05)
        from treetest import subtree_alpha_sum

        assert subtree_alpha_sum(tree, alloc, [0, 0, 0], 1) == 0.0
        assert subtree_alpha_sum(tree, alloc, [0, 1, 0], 1) == pytest.approx(0.025)

    def test_hand_worked_case(self):
        tree = build_complete_tree([2, 2])
        audit = audit_subtree_sums(tree, uniform_levels(tree, 0.05), [0, 1, 0, 0, 0, 1, 1])
        assert audit.passed
        assert audit.max_sum == pytest.approx(0.05, abs=1e-15)

    def test_random_trees_always_pass(self):
        rng = np.random.default_rng(20)
        from treetest import TestTree, weighted_levels

        for _ in range(50):
            tree = TestTree(random_general_parents(rng))
            alloc = weighted_levels(tree, 0.1, rng.uniform(0.1, 1.0, tree.n_vertices))
            truth = rng.integers(0, 2, tree.n_vertices)
            assert audit_subtree_sums(tree, alloc, truth).passed
