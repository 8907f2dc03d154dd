"""Monte Carlo engine and the exhaustive audits."""

import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from treetest import (
    LEVEL_SUM_TOL,
    PROCEDURES,
    BudgetError,
    SimConfig,
    TestTree,
    weighted_levels,
    audit_alpha_sums,
    audit_subtree_sums,
    bonferroni,
    build_complete_tree,
    compare_procedures,
    error_report,
    monte_carlo_bound,
    simulate,
    uniform_levels,
    format_comparison,
)
from treetest.procedures import _SORT_FROM, _holm, _local_descent, _local_thresholds, _sorted_cut
from treetest.exact import _literal_sums_check, _worst_sums
from treetest.gaussian import _score_cuts
from treetest.simulate import _Instance
from treetest.trees import _subtree_sums

from helpers import (
    children_from_parents,
    flat_closed_forms,
    gather_layer_trees,
    random_general_parents,
    reference_attainable_sums,
    reference_bh,
    reference_descend,
    reference_descend_local,
    reference_first_true,
    reference_holm,
    reference_internal_truth,
    reference_leaf_counts,
    reference_subtree_sums,
)

# the package attribute ``treetest.simulate`` is the function, not the module
sim_module = importlib.import_module("treetest.simulate")
procedures_module = importlib.import_module("treetest.procedures")
exact_module = importlib.import_module("treetest.exact")


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
            weights=(1.0, 3.0, 1.0),
            truth="explicit",
            truth_values=(1, 0, 1),
        )
        assert SimConfig.from_doc(cfg.to_doc()) == cfg

    def test_doc_round_trip_root_levels(self):
        cfg = SimConfig(trees=((2,), (3, 2)), root_levels=(0.01, 0.04), alpha=0.05)
        assert cfg.to_doc()["root_levels"] == [0.01, 0.04]
        assert SimConfig.from_doc(cfg.to_doc()) == cfg

    @pytest.mark.parametrize("cfg", [
        SimConfig(),
        SimConfig(trees=((2, 2),), truth="random", truth_density=0.3, effect=1.5),
        SimConfig(trees=((2,),), truth="explicit", truth_values=(0, 1, 0), dependence="nested_means"),
        SimConfig(trees=((3,),), weights=(1.0, 1.0, 2.0, 0.5),
                  truth="random", dependence="nested_means"),
        SimConfig(trees=((2, 2), (3,), ()), truth="explicit", truth_values=(0,) * 12,
                  dependence="nested_means"),
        SimConfig(trees=((2.0, 3),), alpha=0.1, replications=7, seed=0, block_size=3),
    ])
    def test_every_accepted_config_round_trips(self, cfg):
        # a report's config must re-run from its own document
        assert SimConfig.from_doc(json.loads(json.dumps(cfg.to_doc()))) == cfg

    @pytest.mark.parametrize("dependence", ["independent", "nested_means"])
    @pytest.mark.parametrize("truth", [
        {"truth": "global_null"},
        {"truth": "explicit", "truth_values": (0, 1, 1)},
        {"truth": "random"},
        {"truth": "random", "truth_density": 0.3},
    ])
    def test_round_trip_per_truth_kind_and_dependence(self, truth, dependence):
        # the density exists only under random truth, where it defaults to 0.5
        cfg = SimConfig(trees=((2,),), dependence=dependence, **truth)
        density = truth.get("truth_density", 0.5) if cfg.truth == "random" else None
        assert cfg.truth_density == density
        assert SimConfig.from_doc(json.loads(json.dumps(cfg.to_doc()))) == cfg

    def test_branching_read_by_the_number_rule(self):
        with pytest.raises(TypeError, match="integer, got 2.7"):
            SimConfig(trees=((2.7,),))
        assert SimConfig(trees=((2.0,),)).to_doc()["tree"] == {"branching": [2]}
        # a flat list once ended in a bare "'int' object is not iterable"
        for flat in [(2, 2), np.array([2, 2])]:
            with pytest.raises(TypeError, match=r"^trees\[0\]: expected a list, got "):
                SimConfig(trees=flat)
        with pytest.raises(TypeError, match=r"^trees: expected a list, got 5$"):
            SimConfig(trees=5)
        with pytest.raises(TypeError, match=r"^weights: expected a list, got 5$"):
            SimConfig(weights=5)

    @pytest.mark.parametrize("doc, where", [
        # a string or an object once iterated as a list: "" and {} ran a
        # one-vertex tree, and "22" was read as its characters
        ({"tree": {"branching": ""}}, "tree branching"),
        ({"tree": {"branching": {}}}, "tree branching"),
        ({"tree": {"branching": "22"}}, "tree branching"),
        ({"forest": [{"branching": [2]}], "root_levels": ""}, "root_levels"),
        ({"allocation": {"kind": "weighted", "weights": {}}}, "weights"),
    ])
    def test_string_or_object_is_no_list(self, doc, where):
        with pytest.raises(ValueError, match=rf"^malformed configuration: {where}: expected a list"):
            SimConfig.from_doc(doc)

    @pytest.mark.parametrize("truth", [
        {"kind": "random", "density": 0.5, "values": [0, 1, 0]},
        {"kind": "explicit", "values": [0, 1, 0], "density": 0.5},
        {"kind": "global_null", "density": 0.3},
        {"density": 0.3},
    ])
    def test_truth_fields_of_another_kind_refused(self, truth):
        # read, then dropped from to_doc and so from every report's config
        with pytest.raises(ValueError, match="takes no"):
            SimConfig.from_doc({"tree": {"branching": [2]}, "truth": truth})

    @pytest.mark.parametrize("kwargs, message", [
        ({"trees": ()}, "at least one tree"),
        ({"truth": "mixed"}, "truth must be one of"),
        ({"truth": "random", "truth_density": 1.5}, "truth_density"),
        ({"block_size": 0}, "block_size"),
        ({"trees": ((2,), (2,)), "weights": (1.0, 1.0, 1.0)}, "single tree"),
        ({"trees": ((2,), (2,)), "root_levels": (0.01,)}, "one root level per tree"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"trees": ((2,),), "truth": "explicit", "truth_values": (0, 2, 0)}, "0 or 1"),
        ({"trees": ((2,), (1,)), "truth": "explicit", "truth_values": (0, 1, 0)},
         "truth_values needs 5 entries"),
        ({"trees": ((2,),), "truth": "random", "truth_values": (0, 1, 0)},
         "truth_values require truth 'explicit'"),
        ({"truth_density": 0.3}, "truth_density requires truth 'random'"),
        ({"trees": ((2,),), "truth": "explicit", "truth_values": (0, 1, 0), "truth_density": 0.5},
         "truth_density requires truth 'random'"),
        ({"trees": ((-2,),), "truth": "explicit", "truth_values": (1,)},
         "branching factors must be >= 1"),
        ({"trees": ((0,), (2,))}, "branching factors must be >= 1"),
        ({"trees": ((2, -1),)}, "branching factors must be >= 1"),
        # weights were once refused only when a simulation ran
        ({"trees": ((2,),), "weights": (1.0, 2.0)}, "weight array covers 2 vertices, tree has 3"),
        ({"trees": ((2,),), "weights": (1.0, -2.0, 1.0)}, "weights must be positive and finite"),
        # each branching list is checked whole as it is read, before any other field
        ({"trees": ((2, 0),), "seed": "1"}, "branching factors must be >= 1"),
        ({"trees": ((2,) * 24,), "alpha": None}, r"^tree would exceed 10000000 vertices$"),
    ])
    def test_field_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("trees", [((2,) * 1100,), ((2,), (10,) * 8), ((2,) * 24,)])
    def test_tree_above_vertex_limit_refused(self, trees):
        # (2,)*1100 once overflowed the float in the memory check's message;
        # every tree of a forest counts on its own, as build_complete_tree does
        with pytest.raises(ValueError, match=r"^tree would exceed 10000000 vertices$"):
            SimConfig(trees=trees)
        assert SimConfig(trees=((2,) * 22,)).trees == ((2,) * 22,)  # 8,388,607 vertices

    def test_trees_as_an_array_read_row_by_row(self):
        # an array once failed on its own truth value, naming no field
        assert SimConfig(trees=np.array([[2, 2]])) == SimConfig(trees=((2, 2),))
        forest = SimConfig(trees=np.array([[2, 3], [3, 1]]))
        assert forest.trees == ((2, 3), (3, 1)) and type(forest.trees[0][0]) is int
        with pytest.raises(ValueError, match="at least one tree"):
            SimConfig(trees=np.empty((0, 2), dtype=int))

    def test_integral_float_reads_as_int(self):
        cfg = SimConfig.from_doc({"tree": {"branching": [2.0]}, "replications": 1e3, "seed": 5.0})
        assert (cfg.trees, cfg.replications, cfg.seed) == (((2,),), 1000, 5)
        assert type(cfg.replications) is int and type(cfg.trees[0][0]) is int

    def test_python_numbers_round_trip_as_plain_numbers(self):
        # numpy integers once made to_doc unserializable, and integral
        # floats ran into range()
        cfg = SimConfig(
            trees=[[np.int64(2), 2.0]], root_levels=[np.float32(0.04)],
            weights=[1, np.int64(3)] + [1] * 5, alpha=np.float64(0.05), truth="explicit",
            truth_values=list(np.array([1, 0, 1, 1, 0, 1, 1])), effect=np.int64(1),
            replications=np.int64(100), seed=7.0, block_size=np.int32(64),
        )
        assert SimConfig.from_doc(json.loads(json.dumps(cfg.to_doc()))) == cfg
        numbers = [*cfg.trees[0], *cfg.root_levels, *cfg.weights, cfg.alpha, *cfg.truth_values,
                   cfg.effect, cfg.replications, cfg.seed, cfg.block_size]
        want = [int] * 2 + [float] * 9 + [int] * 7 + [float] + [int] * 3
        assert [type(x) for x in numbers] == want
        report = simulate(cfg)
        assert json.loads(json.dumps(report.to_doc()))["config"] == cfg.to_doc()
        density = SimConfig(truth="random", truth_density=np.float32(0.5)).truth_density
        assert type(density) is float

    @pytest.mark.parametrize("field, value, message", [
        ("replications", True, "expected a number, got True"),
        ("replications", 2.5, "expected an integer, got 2.5"),
        ("seed", True, "expected a number, got True"),
        ("block_size", 2.5, "expected an integer, got 2.5"),
        ("truth_values", (True, False, 1.0), "expected a number, got True"),
        ("truth_values", (1, 0.5, 1), "expected an integer, got 0.5"),
        ("alpha", "0.05", "expected a number, got '0.05'"),
        ("effect", "1", "expected a number, got '1'"),
        ("truth_density", "0.5", "expected a number, got '0.5'"),
        ("root_levels", ("0.05",), "expected a number, got '0.05'"),
        ("weights", (1.0, "2", 1.0), "expected a number, got '2'"),
    ])
    def test_number_fields_read_by_the_number_rule(self, field, value, message):
        # True once ran as 1 and wrote "true", which from_doc refuses
        truth = {"truth_values": "explicit", "truth_density": "random"}.get(field, "global_null")
        with pytest.raises(TypeError, match=f"^{field}: {message}$"):
            SimConfig(trees=((2,),), truth=truth, **{field: value})

    def test_weights_make_the_allocation_weighted(self):
        doc = SimConfig(trees=((2,),), weights=(1, 3, 1)).to_doc()
        assert doc["allocation"] == {"kind": "weighted", "weights": [1.0, 3.0, 1.0]}
        assert SimConfig(trees=((2,),)).to_doc()["allocation"] == "uniform"

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
            SimConfig(trees=((2,), (2,)), root_levels=(0.04, 0.04), alpha=0.05)

    @pytest.mark.parametrize("root_levels, index", [
        ((float("nan"), 0.01), 0), ((0.03, -0.01), 1), ((0.0, 0.05), 0),
    ])
    def test_root_levels_must_be_probabilities(self, root_levels, index):
        # each passes the sum check alone; simulate then failed with a
        # message naming neither the field nor the entry
        match = rf"root_levels\[{index}\] = .* must lie in \(0, 1\]"
        with pytest.raises(ValueError, match=match):
            SimConfig(trees=((2,), (2,)), root_levels=root_levels)
        doc = {"forest": [{"branching": [2]}] * 2, "root_levels": list(root_levels)}
        with pytest.raises(ValueError, match=match):
            SimConfig.from_doc(doc)
        assert SimConfig(trees=((2,), (2,)), root_levels=(0.01, 0.04)).root_levels == (0.01, 0.04)

    @pytest.mark.parametrize("effect", [float("nan"), float("inf")])
    def test_effect_must_be_finite(self, effect):
        # a NaN shift makes every score NaN, so nothing is ever rejected
        with pytest.raises(ValueError, match="effect"):
            SimConfig(effect=effect)
        with pytest.raises(ValueError, match="effect"):
            SimConfig.from_doc({"effect": effect})
        assert SimConfig(effect=0.0).effect == 0.0

    @pytest.mark.parametrize("doc", [
        {"tree": {"branching": [2]}, "allocation": {"kind": "uniform", "weights": [1, 2, 3]}},
        {"tree": {"branching": [2]}, "allocation": {"weights": [1, 2, 3]}},
    ])
    def test_weights_need_weighted_allocation(self, doc):
        # the run would be uniform while to_doc reported it weighted
        with pytest.raises(ValueError, match="weights"):
            SimConfig.from_doc(doc)

    def test_malformed_doc(self):
        with pytest.raises(ValueError):
            SimConfig.from_doc({"alpha": "x"})
        with pytest.raises(ValueError):
            SimConfig.from_doc({"frobnicate": 1})

    def test_unknown_allocation_kind_refused(self):
        with pytest.raises(ValueError, match="^allocation must be 'uniform' or 'weighted'$"):
            SimConfig.from_doc({"allocation": "bogus"})

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
        # each was read as another number, or a string as a number
        {"tree": {"branching": [2.7]}}, {"tree": {"branching": [True]}},
        {"replications": 1000.9}, {"seed": 1.5}, {"alpha": "0.05"},
        {"tree": {"branching": [2]}, "truth": {"kind": "explicit", "values": [0, 0.5, 0]}},
        {"truth": {"kind": "random", "density": "0.5"}}, {"root_levels": [True]},
        # a null is not "not given", though these fields default to None
        {"allocation": {"kind": "weighted", "weights": None}},
        {"truth": {"kind": "random", "density": None}}, {"root_levels": None},
        # each once named no field
        {"forest": 5}, {"forest": {"branching": [2]}}, {"forest": [[2, 2]]},
        {"truth": {"kind": "explicit", "values": 1}},
    ])
    def test_value_of_wrong_json_type(self, doc):
        with pytest.raises(ValueError, match="^malformed configuration: ") as info:
            SimConfig.from_doc(doc)
        # the message names the field: a key of the document, or the field it fills
        field = str(info.value).split(": ")[1]
        keys = [key for part in (doc, *doc.values()) if isinstance(part, dict) for key in part]
        assert any(key in field for key in keys), str(info.value)

    @pytest.mark.parametrize("doc, where", [
        ({"forest": [{"x": 1}]}, "forest[0]"),
        ({"forest": [{"branching": [2]}, {}]}, "forest[1]"),
        ({"tree": {}}, "tree"),
    ])
    def test_missing_branching_names_its_place(self, doc, where):
        with pytest.raises(ValueError) as info:
            SimConfig.from_doc(doc)
        assert str(info.value) == f"{where}: missing key 'branching'"


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
        # without root_levels each root gets an equal share of alpha
        assert [levels[0] for levels in _Instance(cfg).levels] == [0.025, 0.025]

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
    def test_domination_failure_raises(self, monkeypatch):
        # FDR and PCER never exceed FWER per replication; a kernel that broke
        # that would be a bug, not a result
        accumulate = _Instance.accumulate
        monkeypatch.setattr(_Instance, "accumulate",
                            lambda self, *a: {**accumulate(self, *a), "fdp_sum": np.inf})
        with pytest.raises(RuntimeError, match="^per-replication domination failed; this is a bug$"):
            compare_procedures(SimConfig(trees=((2,),), replications=10), ["descend"])

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

    @pytest.mark.parametrize("threads, message", [
        (2.5, "expected an integer, got 2.5"), (True, "expected a number, got True"),
    ])
    def test_threads_read_by_the_number_rule(self, threads, message):
        with pytest.raises(TypeError, match=f"^threads: {message}$"):
            compare_procedures(SimConfig(replications=10), ["descend"], threads=threads)

    def test_procedure_string_refused(self):
        # once iterated letter by letter: "unknown procedure 'd'"
        with pytest.raises(ValueError, match="got the string 'descend'"):
            compare_procedures(SimConfig(replications=10), "descend")

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one(self, threads):
        with pytest.raises(ValueError, match="threads"):
            compare_procedures(SimConfig(replications=10), ["descend"], threads=threads)

    def test_block_memory_bound_refused_before_work(self, monkeypatch):
        # (2,)*22 has 8.4M vertices: one 8192-row block needs over 1 TB
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the memory bound was checked")

        monkeypatch.setattr(sim_module, "build_complete_tree", refuse)
        monkeypatch.setattr(sim_module, "_Instance", refuse)
        cfg = SimConfig(trees=((2,) * 22,), replications=65_536)
        with pytest.raises(ValueError, match="8388607 vertices need at least"):
            compare_procedures(cfg, ["descend"], threads=2)

    def test_block_memory_bound_counts_blocks_and_workers(self, monkeypatch):
        # 16 bytes per cell; the bound scales with rows, vertices and workers
        memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 16 * 7 * 100 * 2}
        monkeypatch.setattr(sim_module.os, "sysconf", memory.get)
        monkeypatch.setattr(sim_module, "_available_cpus", lambda: 4)  # 3 workers may start
        small = SimConfig(trees=((2, 2),), replications=300, block_size=100)
        assert compare_procedures(small, ["descend"], threads=2)[0].replications == 300
        with pytest.raises(ValueError, match="3 block"):
            compare_procedures(small, ["descend"], threads=3)
        one_block = SimConfig(trees=((2, 2),), replications=100, block_size=1000)
        assert compare_procedures(one_block, ["descend"], threads=3)[0].replications == 100

    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_does_not_grow_with_block_count(self, threads):
        # each block's counts hold an n_vertices array per procedure; kept
        # until the end, 512 blocks of (2,)*9 peaked at 7x the peak of 16
        peaks = []
        for blocks in (16, 512):
            cfg = SimConfig(trees=((2,) * 9,), truth="random", effect=1.0,
                            replications=4 * blocks, block_size=4)
            tracemalloc.start()
            try:
                compare_procedures(cfg, ["descend", "bonferroni_flat"], threads=threads)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    @pytest.mark.parametrize("threads, cpus, workers", [
        (100_000, 2, 2), (100_000, 64, 16), (3, 64, 3), (2, 1, 1),
    ])
    def test_threads_capped_at_available_cpus(self, monkeypatch, threads, cpus, workers):
        # a fake pool that maps serially: no thread count is ever started for real
        started, mapped = [], []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                mapped.append(fn)
                return map(fn, items)

        monkeypatch.setattr(sim_module, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(sim_module, "_available_cpus", lambda: cpus)
        cfg = SimConfig(trees=((2, 2),), truth="random", replications=160, block_size=10, seed=4)
        reports = compare_procedures(cfg, PROCEDURES, threads=threads)
        assert started == [workers] and len(mapped) == (workers > 1)
        assert TestScratch.docs(reports) == TestScratch.docs(compare_procedures(cfg, PROCEDURES))

    def test_procedures_do_not_see_each_others_work(self):
        # local Holm sorts families of _SORT_FROM or more members; on
        # one-row blocks that sort once ran in place on the shared scores
        cfg = SimConfig(trees=((_SORT_FROM,),), alpha=0.5, replications=6, block_size=1, seed=3)
        together = compare_procedures(cfg, ["descend_local", "bonferroni_flat", "holm_flat"])
        for report in together[1:]:
            alone = simulate(cfg, report.procedure)
            assert np.array_equal(report.rejection_counts, alone.rejection_counts)

    def test_global_null_all_bounded(self):
        cfg = SimConfig(trees=((2, 2),), replications=20_000, seed=14)
        for rep in compare_procedures(cfg, list(("descend", "holm_flat", "bh_flat"))):
            assert rep.fwer_hat <= monte_carlo_bound(0.05, cfg.replications)

    @pytest.mark.parametrize("trees", [((2, 2, 2),), ((2, 2), (3,)), ((4, 3),)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_global_null_matches_closed_forms(self, trees, seed):
        # two-sided, so a draw biased low fails too: independent statistics
        # give every procedure's null familywise error in closed form.  The
        # roots share alpha equally; the flat procedures test the leaves.
        alpha, reps = 0.05, 200_000
        a, m = alpha / len(trees), sum(math.prod(t) for t in trees)
        flat = 1 - (1 - alpha / m) ** m
        exact = {
            "descend": 1 - (1 - a) ** len(trees),  # a rejection needs a root
            "descend_local": 1 - math.prod((1 - a / t[0]) ** t[0] for t in trees),  # root Holm
            "holm_flat": flat,  # a rejection needs the smallest p at alpha / m
            "bonferroni_flat": flat,
            "bh_flat": alpha,  # Simes
        }
        cfg = SimConfig(trees=trees, alpha=alpha, replications=reps, seed=seed)
        for rep in compare_procedures(cfg, PROCEDURES):
            p = exact[rep.procedure]
            assert abs(rep.fwer_hat - p) <= 4 * math.sqrt(p * (1 - p) / reps), rep.procedure

    # 5 of the 8 leaves (ids 7 to 14) are true nulls; the flat procedures read no other entry
    EXPLICIT = {"truth": "explicit", "truth_values": (0,) * 7 + (1, 0, 1, 1, 0, 1, 0, 1)}

    @pytest.mark.parametrize("branching, effect, setting", [
        ((2, 2, 2), 2.0, EXPLICIT),
        ((2, 2, 2), 1.0, {**EXPLICIT, "dependence": "nested_means"}),
        ((3, 4), 2.5, {"truth": "random", "truth_density": 0.3}),
        ((2, 3), 1.5, {"truth": "random", "truth_density": 0.6, "dependence": "nested_means"}),
    ], ids=["explicit", "explicit-nested", "random", "random-nested"])
    def test_flat_baselines_match_closed_forms(self, branching, effect, setting):
        # two-sided at 4 se: the flat procedures read only the leaves, whose
        # statistics are independent under both dependence models; the se of
        # a [0, 1]-valued mean mu is at most sqrt(mu (1 - mu) / n)
        reps = 200_000
        cfg = SimConfig(trees=(branching,), effect=effect, replications=reps, seed=11, **setting)
        m = math.prod(branching)
        m0 = sum(cfg.truth_values[-m:]) if cfg.truth_values else None
        exact = flat_closed_forms(m, cfg.alpha, effect, m0=m0, density=cfg.truth_density)
        bonferroni, bh = compare_procedures(cfg, ["bonferroni_flat", "bh_flat"])
        simulated = {"bonferroni_fwer": bonferroni.fwer_hat, "bonferroni_power": bonferroni.power_hat,
                     "bonferroni_pcer": bonferroni.pcer_hat, "bh_fdr": bh.fdr_hat}
        for name, p in exact.items():
            assert abs(simulated[name] - p) <= 4 * math.sqrt(p * (1 - p) / reps), name


def step_ulps(x, k):
    """``x`` moved ``k`` float64 steps (elementwise; ``k`` may be negative)."""
    x, k = np.array(x, dtype=np.float64), np.broadcast_to(k, np.shape(x))
    for _ in range(int(np.abs(k).max(initial=0))):
        move = k != 0
        x[move] = np.nextafter(x[move], np.where(k[move] > 0, np.inf, -np.inf))
        k = k - np.sign(k)
    return x


def threshold_tables(inst):
    """(cut table, threshold table) pairs of an instance, in the kernels' layout."""
    m, alpha = inst.n_leaves, inst.config.alpha
    pairs = [(inst.vertex_cuts, inst.levels_flat)]
    for tree, levels, tree_cuts in zip(inst.trees, inst.levels, inst.local_cuts):
        families = [group for layer in tree.families for group in layer]
        pairs += [
            (cuts, levels[par, None] / np.arange(k, 0, -1))
            for (par, _, k), cuts in zip(families, tree_cuts, strict=True)
        ]
    pairs += [
        (inst.holm_cuts, alpha / np.arange(m, 0, -1)),
        (np.array([inst.bonferroni_cut]), np.array([alpha / m])),
        (inst.bh_cuts, np.arange(1, m + 1) * alpha / m),
    ]
    return pairs


KINDS = ("z", "p")  # scores: -|z| against score cuts, p-values against thresholds


@pytest.fixture
def make_instance(monkeypatch):
    """``_Instance`` on the requested score: ``"z"`` (-|z|) or ``"p"`` (the p-value fallback)."""

    def make(kind, cfg):
        with monkeypatch.context() as patch:
            if kind == "p":
                patch.setattr(sim_module, "_score_cuts", lambda t: np.full(np.size(t), np.nan))
            inst = _Instance(cfg)
        assert inst.pvalue_score == (kind == "p")
        return inst

    return make


class TestLayeredAggregates:
    """Leaf counts and nested-means truth, one reduction per layer, against
    per-vertex references on every tree of a multi-tree config."""

    FORESTS = [((2, 2, 2, 2),), ((3, 1, 2), (2,), ()), ((1, 1), (4, 3), (2, 2, 2))]

    @staticmethod
    def forest_parents(branchings):
        """One parent array for all trees, roots at -1, ids offset per tree."""
        out, off = [], 0
        for b in branchings:
            parents = build_complete_tree(b).parent
            out += [-1] + (parents[1:] + off).tolist()
            off += parents.size
        return out

    @pytest.mark.parametrize("trees", FORESTS)
    def test_leaf_counts(self, trees):
        inst = _Instance(SimConfig(trees=trees, replications=1))
        assert inst.leaf_counts.tolist() == reference_leaf_counts(self.forest_parents(trees))

    @pytest.mark.parametrize("branching, leaf_truth", [
        ((2, 2), [1, 1, 0, 1]), ((3, 2), [1, 1, 0, 1, 1, 0]),
        # drawn truth under either dependence: each replication is counted
        # against its own column of the mask
        pytest.param((3, 2), "independent", id="random-independent"),
        pytest.param((2, 3), "nested_means", id="random-nested_means"),
    ])
    def test_explicit_truth_under_nested_means(self, branching, leaf_truth):
        # every internal value contradicts its leaves: internal truth must be
        # derived from the leaves, and errors counted against the derived truth
        tree = build_complete_tree(branching)
        if isinstance(leaf_truth, str):  # the block's truth, redrawn from its stream
            nested = leaf_truth == "nested_means"
            cfg = SimConfig(trees=(branching,), alpha=0.2, dependence=leaf_truth, effect=2.0,
                            truth="random", truth_density=0.6, replications=200, seed=9)
            cols = tree.leaves if nested else slice(None)
            want = np.ones((200, tree.n_vertices), dtype=bool)
            want[:, cols] = np.random.default_rng([9, 0]).random(want[:, cols].shape) < 0.6
            want = (reference_internal_truth(tree.parent.tolist(), want) if nested else want).T
        else:
            values = np.ones(tree.n_vertices, dtype=bool)
            values[tree.leaves] = leaf_truth
            want = reference_internal_truth(tree.parent.tolist(), values[None]).T
            inner = tree.child_counts > 0
            values[inner] = ~want[inner, 0]
            cfg = SimConfig(
                trees=(branching,), alpha=0.2, dependence="nested_means", effect=3.0,
                truth="explicit", truth_values=tuple(values.astype(int).tolist()),
                replications=200, seed=9,
            )
        inst = _Instance(cfg)
        scores, truth, shared = inst.draw_block(0, 200, True, inst.scratch(200))
        assert truth.shape == want.shape and np.array_equal(truth, want)
        assert cfg.truth == "random" or np.array_equal(inst.fixed_truth, want[:, 0])
        for proc in PROCEDURES:
            ids = inst.scope[proc]
            rejected = inst.run_procedure(proc, scores, shared)
            null = np.broadcast_to(want[ids], rejected.shape)
            reports = [error_report(rejected[:, i], null[:, i]) for i in range(200)]
            got = inst.accumulate(proc, rejected, truth)
            false_rejections = sum(r.false_rejections for r in reports)
            assert got["any_false"] == sum(r.any_false for r in reports), proc
            assert got["pcer_sum"] * ids.size == pytest.approx(false_rejections), proc
            assert got["fdp_sum"] == pytest.approx(sum(r.fdp for r in reports)), proc
            assert got["power_sum"] == pytest.approx(sum(r.power for r in reports)), proc

    @pytest.mark.parametrize("trees", FORESTS)
    def test_internal_truth(self, trees):
        inst = _Instance(SimConfig(trees=trees, replications=1))
        rng = np.random.default_rng(len(trees))
        truth = rng.random((50, inst.n_vertices)) < 0.8
        want = reference_internal_truth(self.forest_parents(trees), truth)
        out = np.empty(truth.shape, dtype=bool)
        assert inst._nested_truth(truth[:, inst.leaf_ids], out) is out
        assert np.array_equal(out, want)


class TestVectorizedKernels:
    """The layer kernels must agree exactly with the scalar references of
    ``helpers`` (sorts and queue walks).

    Kernels decide on scores against cut tables and take vertex-major input:
    ``_holm`` takes ``(families, members, rows)`` scores and ``(families,
    members)`` cuts, ``run_procedure`` ``(vertices, rows)`` scores, and the
    flat Holm and BH cut ``_sorted_cut`` takes each row's scores sorted,
    rank-major ``(members, rows)``.  ``_local_descent`` runs each family
    group on its live rows only, so its tests pin rows where no family, one
    deep path or every family opens.
    Every test runs on both scores: ``-|z|`` against the cuts of
    ``_score_cuts`` (``kind="z"``) and the p-value fallback against the
    thresholds themselves (``kind="p"``).  The reference always sees the
    p-values the scores stand for.
    """

    SIZES = (1, 2, 5, 9, _SORT_FROM - 1, _SORT_FROM, 20)

    @staticmethod
    def scores(kind, p):
        """Scores whose p-values are ``p`` (up to rounding on the ``z`` side)."""
        return p.copy() if kind == "p" else special.ndtri(p / 2.0)

    @staticmethod
    def pvalues(kind, s):
        return s if kind == "p" else 2.0 * special.ndtr(s)

    @staticmethod
    def cut_table(kind, thresholds):
        if kind == "p":
            return thresholds
        cuts = _score_cuts(thresholds).reshape(np.shape(thresholds))
        assert not np.isnan(cuts).any()
        return cuts

    @staticmethod
    def score_path_levels(kind, rng, draw, thresholds):
        """``draw(rng)``; on the ``z`` side, redrawn until ``thresholds`` of it has clean cuts.

        Where float64 ``ndtr`` is not a clean step at a threshold, its
        configuration decides on p-values (see ``_score_cuts``), so a
        ``z``-side test has no cut table to use there.
        """
        for _ in range(100):
            levels = draw(rng)
            if kind == "p" or not np.isnan(_score_cuts(thresholds(levels))).any():
                return levels
        raise AssertionError("no draw gave clean cuts")

    @classmethod
    def boundary_scores(cls, kind, rng, shape, cuts):
        """Random scores, a third of them on a cut or up to 3 ulps off it."""
        S = cls.scores(kind, rng.random(shape))
        on = rng.random(shape) < 0.35
        picked = rng.choice(np.ravel(cuts), size=int(on.sum()))
        S[on] = step_ulps(picked, rng.integers(-3, 4, picked.size))
        return S

    @staticmethod
    def flat(S, cuts, step_up):
        """Flat Holm (step-down) or BH (step-up) flags of each column of ``S``."""
        return S <= _sorted_cut(np.sort(S, axis=0), cuts, step_up=step_up)

    def check_holm(self, kind, S, levels, cuts):
        """``_holm`` on families ``S[f]`` and, per family, flat Holm, against ``reference_holm``."""
        flags, all_rej = _holm(S, cuts)
        assert flags.shape == S.shape and all_rej.shape == (S.shape[0], S.shape[2])
        P = self.pvalues(kind, S)
        for f in range(S.shape[0]):
            flat = self.flat(S[f], cuts[f], step_up=False)
            for i in range(S.shape[2]):
                want = reference_holm(P[f, :, i], levels[f])
                assert np.array_equal(flags[f, :, i], want), (f, P[f, :, i])
                assert np.array_equal(flat[:, i], want), (f, P[f, :, i])
                assert all_rej[f, i] == want.all()

    def check_bh(self, kind, S, q, cuts):
        flags = self.flat(S, cuts, step_up=True)
        P = self.pvalues(kind, S)
        for i in range(S.shape[1]):
            assert np.array_equal(flags[:, i], reference_bh(P[:, i], q)), P[:, i]

    def test_holm_batch_matches_scalar(self):
        for kind in KINDS:
            rng = np.random.default_rng(30)
            for m in (1, 2, 5, 9):
                P = rng.random((m, 200))
                P[rng.random(P.shape) < 0.05] = 0.05 / m  # boundary ties
                cuts = self.cut_table(kind, 0.05 / np.arange(m, 0, -1))
                self.check_holm(kind, self.scores(kind, P)[None], np.array([0.05]), cuts[None])

    def test_holm_at_thresholds_and_ties(self):
        # scores on the cuts of level/(m - i) and up to 3 ulps off them, and
        # tie groups drawn from those few cuts so that they straddle the cut
        for kind in KINDS:
            rng = np.random.default_rng(33)
            for m in self.SIZES:
                cuts = self.cut_table(kind, 0.05 / np.arange(m, 0, -1))
                S = self.boundary_scores(kind, rng, (m, 300), cuts)
                S[:, :100] = rng.choice(cuts[: max(2, m // 2)], size=(m, 100))
                self.check_holm(kind, S[None], np.array([0.05]), cuts[None])

    def test_holm_per_family_levels(self):
        for kind in KINDS:
            rng = np.random.default_rng(34)
            for m in self.SIZES:
                holm_levels = lambda levels: levels[:, None] / np.arange(m, 0, -1)
                levels = self.score_path_levels(
                    kind, rng, lambda r: r.uniform(0.001, 0.3, 6), holm_levels
                )
                cuts = self.cut_table(kind, holm_levels(levels))
                S = self.boundary_scores(kind, rng, (6, m, 80), cuts)
                self.check_holm(kind, S, levels, cuts)

    def test_bh_batch_matches_scalar(self):
        for kind in KINDS:
            rng = np.random.default_rng(31)
            for m in (1, 3, 8):
                cuts = self.cut_table(kind, np.arange(1, m + 1) * 0.1 / m)
                self.check_bh(kind, self.scores(kind, rng.random((m, 200))), 0.1, cuts)

    def test_bh_at_thresholds_and_ties(self):
        for kind in KINDS:
            rng = np.random.default_rng(35)
            for m in self.SIZES:
                cuts = self.cut_table(kind, np.arange(1, m + 1) * 0.1 / m)
                S = self.boundary_scores(kind, rng, (m, 300), cuts)
                S[:, :100] = rng.choice(cuts, size=(m, 100))
                self.check_bh(kind, S, 0.1, cuts)

    def check_local_descent(self, kind, inst, S):
        tree, levels = inst.trees[0], inst.levels[0]
        rejected = inst.run_procedure("descend_local", S)
        ids = inst.scope["descend_local"]
        assert ids.tolist() == list(range(1, tree.n_vertices))  # the root hosts none
        P = self.pvalues(kind, S)
        kids = children_from_parents(tree.parent.tolist())
        for i in range(S.shape[1]):
            families = {v: P[ks, i] for v, ks in enumerate(kids) if ks}
            want, _ = reference_descend_local(kids, levels, families)
            assert set(ids[np.nonzero(rejected[:, i])[0]].tolist()) == want

    def test_batched_local_descent_matches_scalar(self, make_instance):
        for kind in KINDS:
            rng = np.random.default_rng(32)
            inst = make_instance(kind, SimConfig(trees=((3, 2),), alpha=0.1, replications=10))
            S = self.scores(kind, rng.random((inst.n_vertices, 100)))
            self.check_local_descent(kind, inst, S)

    def test_local_descent_boundaries_and_weights(self, make_instance):
        # families on both sides of the sort cut-off, weighted (per-family)
        # levels, and scores on the local Holm cuts; at alpha 0.2 one BH cut
        # of (2, 11) is not clean, which would send the whole configuration
        # to the p-value side
        for kind in KINDS:
            rng = np.random.default_rng(36)
            for branching in ((1, 2), (2, _SORT_FROM - 1), (_SORT_FROM, 2), (4, 3)):
                n = _Instance(SimConfig(trees=(branching,), replications=1)).n_vertices
                config = lambda r: SimConfig(
                    trees=(branching,), alpha=0.1, replications=1,
                    weights=tuple(r.uniform(0.5, 2.0, n)),
                )
                all_levels = lambda cfg: np.concatenate(
                    [t.ravel() for _, t in threshold_tables(_Instance(cfg))]
                )
                inst = make_instance(kind, self.score_path_levels(kind, rng, config, all_levels))
                cuts = np.concatenate([c.ravel() for cs in inst.local_cuts for c in cs])
                S = self.boundary_scores(kind, rng, (n, 60), cuts)
                S[:, :20] = self.scores(kind, rng.random((n, 20)) * 1e-3)  # deep descents
                self.check_local_descent(kind, inst, S)

    # (2, 3, 2): vertices 1-2, 3-8 and 9-20; 1's children are 3-5, 2's are
    # 6-8, and 6, 7 and 8 have the leaves 15-16, 17-18 and 19-20
    LIVE_TREE = SimConfig(trees=((2, 3, 2),), alpha=0.1, replications=1)

    def live_rows(self, make_instance, kind, P):
        """``_local_descent`` on the scores of p-values ``P`` over ``LIVE_TREE``,
        checked against the reference first."""
        inst = make_instance(kind, self.LIVE_TREE)
        S = self.scores(kind, P)
        self.check_local_descent(kind, inst, S)
        return _local_descent(inst.trees[0], S, inst.local_cuts[0])

    def test_local_descent_no_row_opens_the_root(self, make_instance):
        # every deeper family would be rejected whole, but no row rejects
        # the root's family whole, so none of them is ever tested
        for kind in KINDS:
            P = np.full((21, 64), 1e-8)
            P[1, :32] = P[2, 32:] = 0.9
            rejected, active = self.live_rows(make_instance, kind, P)
            assert np.array_equal(rejected[1:3], P[1:3] < 0.5)
            assert not rejected[3:].any() and not active[1:].any()

    def test_local_descent_one_row_opens_a_deep_path(self, make_instance):
        # only row 37 rejects the root's family whole; there 2's family
        # opens, and below it only 8's: the path 0 -> 2 -> 8 runs through
        # second and last parents, next to live siblings whose families
        # stop and to dead ones whose p-values would reject
        for kind in KINDS:
            P = np.full((21, 64), 1e-8)
            P[1] = 0.9
            P[1, 37] = 1e-8
            P[[3, 15, 17], 37] = 0.9
            rejected, active = self.live_rows(make_instance, kind, P)
            assert np.flatnonzero(rejected[:, 37]).tolist() == [1, 2, 4, 5, 6, 7, 8, 16, 18, 19, 20]
            assert np.flatnonzero(active[:, 37]).tolist() == [0, 1, 2, 6, 7, 8, 19, 20]
            assert np.flatnonzero(rejected[3:].any(axis=0)).tolist() == [37]
            assert np.flatnonzero(active[1:].any(axis=0)).tolist() == [37]

    def test_local_descent_every_row_opens_every_family(self, make_instance):
        for kind in KINDS:
            rejected, active = self.live_rows(make_instance, kind, np.full((21, 64), 1e-8))
            assert rejected[1:].all() and not rejected[0].any() and active.all()

    def test_local_holm_runs_on_contiguous_blocks(self, monkeypatch):
        # the children as a slice and the live columns as an index array once
        # gathered blocks that are not C-contiguous, on which _holm ran
        # several times slower
        contiguous = []
        spy = lambda s, cuts: contiguous.append(s.flags.c_contiguous) or _holm(s, cuts)
        monkeypatch.setattr(procedures_module, "_holm", spy)
        tree = build_complete_tree([2, 3, 2])
        P = np.full((tree.n_vertices, 64), 1e-8)
        P[1, :32] = 0.9  # half the rows open the root's family
        levels = uniform_levels(tree, 0.1).levels
        rejected, _ = _local_descent(tree, P, _local_thresholds(tree, levels))
        assert rejected[3:, 32:].all() and not rejected[3:, :32].any()
        assert contiguous == [True] * 3

    def test_local_descent_on_index_groups_of_mixed_sizes(self):
        # layers 1 and 2 hold families of 2 and 3, and of 1, 2 and 3
        # children, so their groups are index arrays; each row gathers the
        # live columns of those groups
        parents = [-1, 0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 5, 5, 6, 6, 6, 7, 7, 8, 9, 9, 10, 10, 10]
        tree = TestTree(parents)
        assert [[k for _, _, k in layer] for layer in tree.families] == [[3], [2, 3], [1, 2, 3]]
        groups = [group for layer in tree.families[1:] for group in layer]
        assert all(isinstance(kids, np.ndarray) for _, kids, _ in groups)
        levels = uniform_levels(tree, 0.2).levels
        rng = np.random.default_rng(39)
        P = rng.random((tree.n_vertices, 400)) ** rng.choice([1, 8, 30], 400)
        P[:, :10] = 1e-8  # every family opens
        rejected, active = _local_descent(tree, P, _local_thresholds(tree, levels))
        kids = children_from_parents(parents)
        assert 0 < active[4:].any(axis=0).sum() < 400  # some rows live below layer 1, not all
        for i in range(P.shape[1]):
            families = {v: P[ks, i] for v, ks in enumerate(kids) if ks}
            want, _ = reference_descend_local(kids, levels, families)
            opened = [v == 0 or set(kids[parents[v]]) <= want for v in range(tree.n_vertices)]
            assert set(np.flatnonzero(rejected[:, i]).tolist()) == want, i
            assert active[:, i].tolist() == opened, i

    def test_layered_descent_matches_scalar(self, make_instance):
        for kind in KINDS:
            rng = np.random.default_rng(37)
            cfg = SimConfig(trees=((2, 3), (), (2,)), alpha=0.3, replications=1)
            inst = make_instance(kind, cfg)
            S = self.boundary_scores(kind, rng, (inst.n_vertices, 200), inst.vertex_cuts)
            rejected = inst.run_procedure("descend", S)
            P = self.pvalues(kind, S)
            for tree, levels, off in zip(inst.trees, inst.levels, inst.offsets):
                kids = children_from_parents(tree.parent.tolist())
                for i in range(S.shape[1]):
                    want, _ = reference_descend(kids, levels, P[off : off + tree.n_vertices, i])
                    got = np.nonzero(rejected[off : off + tree.n_vertices, i])[0]
                    assert set(got.tolist()) == want

    def test_flat_procedures_match_scalar(self, make_instance):
        # run_procedure on a forest, flat Holm and BH from one shared sort
        for kind in KINDS:
            rng = np.random.default_rng(38)
            cfg = SimConfig(trees=((2, 3), (4,)), alpha=0.2, replications=1)
            inst = make_instance(kind, cfg)
            cuts = np.concatenate([inst.holm_cuts, inst.bh_cuts, [inst.bonferroni_cut]])
            S = self.boundary_scores(kind, rng, (inst.n_vertices, 200), cuts)
            P = self.pvalues(kind, S)[inst.leaf_ids]
            shared = np.sort(S[inst.leaf_ids], axis=0)
            for proc, scalar in (("holm_flat", reference_holm), ("bonferroni_flat", bonferroni),
                                 ("bh_flat", reference_bh)):
                got = inst.run_procedure(proc, S, shared)
                for i in range(S.shape[1]):
                    assert np.array_equal(got[:, i], scalar(P[:, i], 0.2)), proc

    def test_nested_statistics_aggregate_leaves(self, make_instance):
        for kind in KINDS:
            cfg = SimConfig(
                trees=((2, 2),), replications=8, seed=5, dependence="nested_means", effect=0.0
            )
            inst = make_instance(kind, cfg)
            scores, _, leaves = inst.draw_block(0, 8, True, inst.scratch(8))
            # rebuild the leaf draws from the same stream and aggregate by hand
            rng = np.random.default_rng([cfg.seed, 0])
            y = rng.standard_normal((8, 4))
            z_root = y.sum(axis=1) / 2.0
            z_internal = y[:, :2].sum(axis=1) / np.sqrt(2.0)
            score = lambda z: -np.abs(z) if kind == "z" else 2 * special.ndtr(-np.abs(z))
            assert np.allclose(scores[0], score(z_root), atol=1e-12)
            assert np.allclose(scores[1], score(z_internal), atol=1e-12)
            assert np.array_equal(scores[3], score(y[:, 0]))
            assert np.array_equal(leaves, np.sort(score(y), axis=1).T)

    def test_nested_statistics_add_children_in_order(self):
        # numpy sums a contiguous run of 8 or more pairwise; the nested
        # statistics add the 12 children one at a time, left to right
        cfg = SimConfig(trees=((12,),), replications=256, seed=8, dependence="nested_means")
        inst = _Instance(cfg)
        scores, _, _ = inst.draw_block(0, 256, False, inst.scratch(256))
        y = np.random.default_rng([cfg.seed, 0]).standard_normal((256, 12))
        total = y[:, 0].copy()
        for j in range(1, 12):
            total += y[:, j]
        score = -np.abs(total / np.sqrt(12.0))
        assert np.array_equal(scores[0], 2.0 * special.ndtr(score) if inst.pvalue_score else score)

    def test_nested_truth_derived_from_leaves(self, make_instance):
        for kind in KINDS:
            cfg = SimConfig(
                trees=((2, 2),),
                truth="random",
                truth_density=0.5,
                replications=64,
                seed=6,
                dependence="nested_means",
            )
            inst = make_instance(kind, cfg)
            _, truth, _ = inst.draw_block(0, 64, False, inst.scratch(64))
            for row in truth.T:
                assert row[1] == (row[3] and row[4])
                assert row[2] == (row[5] and row[6])
                assert row[0] == (row[1] and row[2])


class TestScoreCuts:
    """The cut table: ``2*ndtr(x) <= level`` iff ``x <= cut``, else the fallback."""

    PINNED = 0.021435546875000003  # i*q/m of BH on (2,)*10 at alpha 0.05, i = 439

    @staticmethod
    def holds(x, level):
        return 2.0 * special.ndtr(x) <= level

    @staticmethod
    def acceptance_configs():
        base = dict(trees=((2, 2, 2, 2),), alpha=0.05, replications=1)
        return [
            SimConfig(seed=101, **base),
            SimConfig(seed=102, dependence="nested_means", **base),
            SimConfig(trees=((2, 2, 2),), truth="explicit", truth_values=(1,) * 15, effect=3.0),
            SimConfig(trees=((3, 2),), truth="random", effect=2.0),
        ]

    def test_every_cut_is_the_last_float_that_passes(self):
        configs = [cfg for cfg, _ in TestFixedSeedReports.CONFIGS.values()]
        fallback = 0
        for cfg in configs + self.acceptance_configs():
            inst = _Instance(cfg)
            for cuts, thresholds in threshold_tables(inst):
                assert cuts.shape == thresholds.shape
                if inst.pvalue_score:
                    assert np.array_equal(cuts, thresholds)
                    cuts = _score_cuts(thresholds).reshape(thresholds.shape)
                    fallback += 1
                ok = ~np.isnan(cuts)
                cuts, thresholds = cuts[ok], thresholds[ok]
                for k in range(-16, 17):
                    x = step_ulps(cuts, k)
                    assert np.array_equal(self.holds(x, thresholds), np.full(x.shape, k <= 0)), k
        assert fallback  # binary_depth_10 takes the p-value path

    def test_pinned_level_falls_back(self):
        level = self.PINNED
        assert np.isnan(_score_cuts(np.array([level])))[0]
        # the predicate is not a step here: it flips back within a few ulps
        x = step_ulps(np.full(21, special.ndtri(level / 2.0)), np.arange(-10, 11))
        flags = self.holds(x, level)
        assert np.count_nonzero(flags[1:] != flags[:-1]) > 1
        assert level in np.arange(1, 1025) * 0.05 / 1024
        inst = _Instance(TestFixedSeedReports.CONFIGS["binary_depth_10"][0])
        assert inst.pvalue_score and level in inst.bh_cuts

    def test_sim_compare_config_takes_score_path(self):
        # the configuration of the sim-compare benchmark workload
        assert not _Instance(SimConfig(trees=((2, 2, 2, 2),), alpha=0.05)).pvalue_score
        assert _Instance(SimConfig(trees=((2,) * 10,), alpha=0.05)).pvalue_score

    def test_run_decides_fallback_from_its_own_procedures(self):
        # only BH's cut of the pinned level is unclean on (2,)*10: a descend
        # run once took the p-value route for a cut it never reads
        cfg = SimConfig(trees=((2,) * 10,), alpha=0.05)
        assert not _Instance(cfg, ["descend"]).pvalue_score
        assert _Instance(cfg, PROCEDURES).pvalue_score
        assert [_Instance(cfg, [p]).pvalue_score for p in PROCEDURES] == [False] * 4 + [True]
        # a run whose procedures have no table at all: local Holm on one vertex
        assert not _Instance(SimConfig(trees=((),)), ["descend_local"]).pvalue_score

    def test_score_route_reports_match_the_pvalue_route(self, monkeypatch):
        cfg = TestFixedSeedReports.CONFIGS["binary_depth_10"][0]
        made, make = [], _Instance
        monkeypatch.setattr(sim_module, "_Instance", lambda *a: made.append(make(*a)) or made[-1])
        docs = lambda reports: [
            {k: v for k, v in r.to_doc().items() if k != "elapsed_seconds"} for r in reports
        ]
        both = docs(compare_procedures(cfg, PROCEDURES))
        alone = docs([simulate(cfg, p) for p in ("descend", "descend_local")])
        assert [inst.pvalue_score for inst in made] == [True, False, False]
        assert alone == both[:2]

    @pytest.mark.parametrize("off, clean", [(0, True), (-30, True), (40, False), (60, False)])
    def test_cut_far_from_its_start_is_refused(self, monkeypatch, off, clean):
        # start the search ``off`` floats away from ndtri(level/2): the cut
        # must be found with 16 floats of clean step on either side of it
        # inside the searched grid, or not at all
        level = np.array([0.05])
        want = _score_cuts(level)
        ndtri = special.ndtri
        monkeypatch.setattr(special, "ndtri", lambda q: step_ulps(ndtri(q), off))
        got = _score_cuts(level)
        assert np.array_equal(got, want) if clean else np.isnan(got).all()

    @pytest.mark.parametrize(
        "at, clean", [(-60, True), (-40, False), (-20, False), (20, False), (40, False), (60, True)]
    )
    def test_flip_inside_the_searched_grid_is_refused(self, monkeypatch, at, clean):
        # flip the predicate at the one float ``at`` steps from the search
        # start: the check covers the whole grid of +-48 floats around it
        level = np.array([0.05])
        want = _score_cuts(level)
        flip = step_ulps(special.ndtri(level / 2.0), at)
        ndtr, flipped = special.ndtr, 0.0 if at > 0 else 1.0
        monkeypatch.setattr(special, "ndtr", lambda x: np.where(x == flip, flipped, ndtr(x)))
        got = _score_cuts(level)
        assert np.array_equal(got, want) if clean else np.isnan(got).all()

    def test_nonpositive_level_has_no_cut(self):
        assert np.isnan(_score_cuts(np.array([0.0, 5e-324]))).all()

    @pytest.mark.parametrize(
        "trees, pvalue_score", [(((2, 2, 2, 2),), False), (((2,) * 10,), True)]
    )
    def test_draw_calls_ndtr_only_in_fallback(self, monkeypatch, trees, pvalue_score):
        cfg = SimConfig(trees=trees, truth="random", effect=1.0, replications=64)
        inst = _Instance(cfg)
        assert inst.pvalue_score == pvalue_score
        calls = []
        ndtr = special.ndtr
        monkeypatch.setattr(special, "ndtr", lambda *a, **k: calls.append(1) or ndtr(*a, **k))
        scores, truth, leaves = inst.draw_block(0, 64, True, inst.scratch(64))
        for proc in PROCEDURES:
            inst.accumulate(proc, inst.run_procedure(proc, scores, leaves), truth)
        assert bool(calls) == pvalue_score


class TestScratch:
    """Every block a worker draws goes into the same memory, and nothing a
    report holds points into it."""

    CONFIGS = [
        SimConfig(trees=((2, 2, 2),), replications=300, block_size=128),
        SimConfig(trees=((3, 2),), truth="random", effect=2.0, replications=300, block_size=128),
        SimConfig(trees=((2,), (3, 2)), truth="random", effect=1.0, dependence="nested_means",
                  replications=300, block_size=128),
        SimConfig(trees=((2, 2),), truth="explicit", truth_values=(0, 1, 0, 1, 1, 0, 1),
                  effect=1.5, dependence="nested_means", replications=300, block_size=128),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_blocks_of_one_worker_share_memory(self, cfg):
        inst = _Instance(cfg)
        scratch = inst.scratch(cfg.block_size)
        first = inst.draw_block(0, 128, True, scratch)
        kept = [None if a is None else a.copy() for a in first]
        # the short last block takes views of the same buffers
        last = inst.draw_block(2, 44, True, scratch)
        for a, b, fresh in zip(first, last, inst.draw_block(2, 44, True, inst.scratch(44))):
            assert (a is None) == (b is None) == (fresh is None)
            if a is not None:
                assert np.shares_memory(a, b) and b.flags.c_contiguous
                assert np.array_equal(b, fresh)
        # redrawing block 0 into the scratch gives block 0 again
        for a, want in zip(inst.draw_block(0, 128, True, scratch), kept):
            assert want is None or np.array_equal(a, want)

    @staticmethod
    def docs(reports):
        return [{k: v for k, v in r.to_doc().items() if k != "elapsed_seconds"} for r in reports]

    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_reports_do_not_alias_the_scratch(self, threads):
        # 16 blocks over up to 5 threads, each drawing into its own scratch
        cfg = dataclasses.replace(self.CONFIGS[2], replications=1000, block_size=64)
        reports = compare_procedures(cfg, PROCEDURES, threads=threads)
        kept = [r.rejection_counts.copy() for r in reports]
        other = compare_procedures(dataclasses.replace(cfg, seed=7), PROCEDURES, threads=threads)
        assert self.docs(other) != self.docs(reports)
        assert all(np.array_equal(r.rejection_counts, k) for r, k in zip(reports, kept))
        assert self.docs(reports) == self.docs(compare_procedures(cfg, PROCEDURES))

    def test_forest_leaves_gathered_into_the_scratch(self):
        # the gather once made a fresh (rows, n_leaves) copy every block: 1,028 KiB here
        inst = _Instance(SimConfig(trees=((2, 2, 2), (2, 2, 2))))
        scratch = inst.scratch(8192)
        inst.draw_block(0, 8192, True, scratch)
        tracemalloc.start()
        try:
            inst.draw_block(1, 8192, True, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_nested_block_folds_in_place(self):
        # the fold once allocated one accumulator per family group: 12,419 KiB here
        cfg = SimConfig(trees=((2,) * 8,), truth="random", dependence="nested_means", effect=1.0)
        inst = _Instance(cfg)
        scratch = inst.scratch(8192)
        inst.draw_block(0, 8192, True, scratch)
        tracemalloc.start()
        try:
            inst.draw_block(1, 8192, True, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_leaves_are_a_slice_when_contiguous(self):
        assert _Instance(self.CONFIGS[0]).leaves == slice(7, 15)
        assert _Instance(SimConfig(trees=((2, 2), ()))).leaves == slice(3, 8)
        gathered = _Instance(self.CONFIGS[2])
        assert gathered.leaves is gathered.leaf_ids
        assert gathered.leaf_ids.tolist() == [1, 2, 7, 8, 9, 10, 11, 12]


class TestNullAccounting:
    """With no false null in a procedure's scope, ``accumulate`` counts by
    V = R; the counts must be those of the general route, bit for bit."""

    CONFIGS = [
        SimConfig(trees=((2, 2, 2),), alpha=0.3),
        SimConfig(trees=((2, 2),), truth="explicit", truth_values=(1,) * 7, alpha=0.3),
        # the root is the one false null: only descend's scope holds it
        SimConfig(trees=((2, 2),), truth="explicit", truth_values=(0,) + (1,) * 6, alpha=0.3,
                  effect=2.0),
        SimConfig(trees=((2,), (3, 2)), alpha=0.3),  # a forest with gathered leaves
    ]

    @pytest.mark.parametrize("procedure", PROCEDURES)
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_both_routes_agree(self, cfg, procedure, monkeypatch):
        inst, rows = _Instance(cfg), 2048
        scores, truth, sorted_leaves = inst.draw_block(0, rows, True, inst.scratch(rows))
        assert truth.shape == (inst.n_vertices, 1)
        assert np.array_equal(truth[:, 0], inst.fixed_truth)
        flags = inst.run_procedure(procedure, scores, sorted_leaves)
        # only the closed forms call count_nonzero: the one-column mask takes
        # them where the scope holds no false null, the repeated mask never
        closed, count_nonzero = [], np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda *a: closed.append(1) or count_nonzero(*a))
        fixed = inst.accumulate(procedure, flags, truth)
        assert bool(closed) == inst.fixed_truth[inst.scope[procedure]].all()
        closed.clear()
        general = inst.accumulate(procedure, flags, np.repeat(inst.fixed_truth[:, None], rows, 1))
        assert not closed
        assert fixed.keys() == general.keys()
        assert np.array_equal(fixed.pop("reject_counts"), general.pop("reject_counts"))
        assert {k: (type(v), float(v).hex()) for k, v in fixed.items()} == {
            k: (type(v), float(v).hex()) for k, v in general.items()
        }
        assert {type(fixed[k]) for k in ("n", "any_false", "domination_violations")} == {int}
        assert fixed["any_false"] > 0  # the counts are not all zero

    def test_reports_of_the_global_null(self):
        for report in compare_procedures(self.CONFIGS[0], PROCEDURES):
            assert report.fdr_hat == report.fwer_hat > 0 and report.power_hat == 0.0
            json.dumps(report.to_doc())


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
            SimConfig(trees=((4, 3),),
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
        # leaf ids 1, 2, 7, ..., 12: the gather path for the leaf scores
        "forest_gathered_leaves": (
            SimConfig(trees=((2,), (3, 2)), truth="random", truth_density=0.5, effect=2.0,
                      replications=6_000, seed=108, block_size=2048),
            "bc981f701d3a4081694eba8b8538ff02ead01ae776609a947370245dfffab167",
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

    @pytest.mark.parametrize("kwargs, where", [
        ({"branchings": (2.7,)}, "branchings"),  # once audited binary trees
        ({"branchings": (True,)}, "branchings"),  # once audited branching 1
        ({"max_depth": True}, "max_depth"),  # once recorded as True
        ({"max_depth": 1.5}, "max_depth"),  # once a TypeError from range()
        ({"n_weighted": 1.5}, "n_weighted"),
        ({"n_weighted": "2"}, "n_weighted"),
        ({"literal_limit": True}, "literal_limit"),  # once read as 1
        ({"literal_limit": "16"}, "literal_limit"),  # once a bare '>' TypeError
        ({"literal_limit": None}, "literal_limit"),
        ({"literal_limit": 1.5}, "literal_limit"),
        ({"seed": True}, "seed"),  # once ran as seed 1
        ({"seed": 2.5}, "seed"),
        ({"seed": "0"}, "seed"),
    ])
    def test_counts_read_by_the_number_rule(self, kwargs, where):
        with pytest.raises(TypeError, match=f"^{where}: expected an? (number|integer), got "):
            audit_alpha_sums(**{"max_depth": 1, "branchings": (2,), **kwargs})

    def test_integral_counts_read_as_ints(self):
        audit = audit_alpha_sums(1.0, (2.0, np.int64(2)), n_weighted=np.int64(1))
        assert (audit.max_depth, audit.branchings, audit.allocations_per_tree) == (1, (2,), 2)
        assert type(audit.max_depth) is int and type(audit.branchings[0]) is int

    def test_integral_seed_and_literal_limit_read_as_ints(self):
        # seed 2.0 was refused by numpy with a message that did not name it
        fields = [dataclasses.replace(audit, elapsed=0.0) for audit in (
            audit_alpha_sums(2, (2,), n_weighted=3, seed=2, literal_limit=16),
            audit_alpha_sums(2, (2,), n_weighted=3, seed=2.0, literal_limit=np.int64(16)))]
        assert fields[0] == fields[1] and fields[0].literal_trees == 2
        assert audit_alpha_sums(2, (2,), literal_limit=0).literal_trees == 0

    def test_negative_weighted_count_rejected(self):
        # -5 used to report "-4 allocations" and a negative case count
        with pytest.raises(ValueError, match="n_weighted must be >= 0"):
            audit_alpha_sums(1, (2,), n_weighted=-5)

    @pytest.mark.parametrize("name", ["literal_limit", "seed"])
    def test_negative_limit_and_seed_rejected(self, name):
        # literal_limit -5 used to run
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            audit_alpha_sums(1, (2,), **{name: -5})

    @pytest.mark.parametrize("max_depth, branchings, message", [
        (1, (0,), "^branching factors must be >= 1$"),
        (1, (), "^branching factors must be >= 1$"),
        (-1, (2,), "^max_depth must be >= 0$"),
    ])
    def test_shape_arguments_refused(self, max_depth, branchings, message):
        with pytest.raises(ValueError, match=message):
            audit_alpha_sums(max_depth, branchings)

    def test_routes_that_disagree_raise(self, monkeypatch):
        # the literal route is the cross-check of the profile route
        literal = _literal_sums_check
        monkeypatch.setattr(exact_module, "_literal_sums_check",
                            lambda *a: (literal(*a)[0] + 0.01, 0))
        with pytest.raises(RuntimeError, match=r"^audit cross-check failed on shape \(\): "):
            audit_alpha_sums(1, (2,))

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            audit_alpha_sums(4, (2,))
        with pytest.raises(BudgetError):
            audit_alpha_sums(3, (2, 4))

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": 4},
        {"branchings": (2, 4)},
        {"n_weighted": 401},  # 100,000 once ran for hours
        {"literal_limit": 2**20 + 1},
    ])
    def test_budget_refused_before_any_tree(self, monkeypatch, kwargs):
        def no_tree(*args):
            raise AssertionError("a tree was built before the budget was checked")

        monkeypatch.setattr(exact_module, "build_complete_tree", no_tree)
        with pytest.raises(BudgetError, match=r"n_weighted <= 400$"):
            audit_alpha_sums(**{"max_depth": 3, "branchings": (2, 3), **kwargs})

    def test_budget_limits_are_accepted(self):
        audit = audit_alpha_sums(0, (3,), n_weighted=400, literal_limit=2**20)
        assert audit.allocations_per_tree == 401 and audit.literal_trees == 1 and audit.passed

    def test_routes_agree_on_violations(self):
        # an oversubscribed allocation must be flagged by both routes, and
        # the uniform one beside it by neither
        tree = build_complete_tree([2, 2])
        levels = np.stack([uniform_levels(tree, 0.05).levels,
                           [0.05, 0.04, 0.04, 0.02, 0.02, 0.02, 0.02]])
        lmax, lbad = _literal_sums_check(tree, levels, 0.05)
        worst = _worst_sums(tree, levels)
        assert worst == pytest.approx([0.05, 0.08], abs=1e-12)
        assert (worst > 0.05 + LEVEL_SUM_TOL).tolist() == [False, True]
        assert lmax == pytest.approx([0.05, 0.08], abs=1e-12)
        assert (lbad > 0).tolist() == [False, True]

    @pytest.mark.parametrize("branchings", [(2, 3), (1, 2, 3)])
    def test_fold_equals_set_enumeration_beyond_literal_reach(self, branchings):
        # shapes over 20 vertices are beyond the literal route's 2**20
        # assignments, so the set enumeration is their reference; the last
        # row raises a child of the root by 2 * LEVEL_SUM_TOL over the budget
        rng = np.random.default_rng(len(branchings))
        shapes = [s for d in range(1, 4) for s in itertools.product(branchings, repeat=d)]
        trees = [t for t in map(build_complete_tree, shapes) if t.n_vertices > 20]
        assert len(trees) >= 5
        for tree in trees:
            n = tree.n_vertices
            over = uniform_levels(tree, 0.05).levels.copy()
            over[1] += 2 * LEVEL_SUM_TOL
            levels = np.stack([uniform_levels(tree, 0.05).levels] + [
                weighted_levels(tree, 0.05, rng.uniform(0.1, 1.0, n)).levels
                for _ in range(3)] + [over])
            worst = _worst_sums(tree, levels)
            want = [reference_attainable_sums(tree, row, 0.05) for row in levels]
            assert [x.hex() for x in worst.tolist()] == [m.hex() for m, _ in want]
            assert (worst > 0.05 + LEVEL_SUM_TOL).tolist() == [False] * 4 + [True]
            assert [bad > 0 for _, bad in want] == [False] * 4 + [True]

    @pytest.mark.parametrize("parents", [
        build_complete_tree((2, 2)).parent.tolist(),
        build_complete_tree((3, 2)).parent.tolist(),
        [-1, 0, 1, 1, 0, 4, 4, 4],  # gather layers
    ])
    def test_literal_route_counts_every_assignment(self, monkeypatch, parents):
        # dyadic levels, so every sum is exact in any order; in the random
        # rows children are oversubscribed, so some assignments exceed alpha
        # and some tie it, while the uniform row never exceeds it
        tree = TestTree(parents)
        n = tree.n_vertices
        alpha = 8 / 64.0
        rng = np.random.default_rng(n)
        levels = np.stack([uniform_levels(tree, alpha).levels,
                           *(rng.integers(1, 9, n) / 64.0 for _ in range(2))])
        first = [reference_first_true(parents, [(i >> v) & 1 for v in range(n)])
                 for i in range(1 << n)]
        want_max, want_bad = [], []
        for row in levels:
            sums = [row[f].sum() for f in first]
            want_max.append(max(sums))
            want_bad.append(sum(x > alpha + LEVEL_SUM_TOL for x in sums))
        assert want_bad[0] == 0 and all(0 < b < len(first) for b in want_bad[1:])
        assert alpha in [row[f].sum() for f in first for row in levels[1:]]
        monkeypatch.setattr(exact_module, "_LITERAL_CHUNK", 64)  # several chunks per tree
        lmax, lbad = _literal_sums_check(tree, levels, alpha)
        assert lmax.tolist() == pytest.approx(want_max, abs=1e-15) and lbad.tolist() == want_bad
        assert lmax[1:].tolist() == want_max[1:]  # exact where every level is dyadic

    @pytest.mark.parametrize("n_weighted", [0, 3])
    def test_assignments_enumerated_once_per_shape(self, monkeypatch, n_weighted):
        # the first-true flags of a shape do not depend on its allocation, so
        # the literal route builds them once per shape and chunk, not once
        # per allocation: 3 shapes of under 2**7 assignments, 3 calls
        calls = []
        first_true = exact_module._first_true
        monkeypatch.setattr(exact_module, "_first_true",
                            lambda *a: calls.append(1) or first_true(*a))
        audit = audit_alpha_sums(2, (2,), n_weighted=n_weighted)
        assert audit.literal_trees == audit.trees_checked == 3 and audit.passed
        assert len(calls) == 3

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
        assert _subtree_sums(tree, alloc.levels, np.array([0, 0, 0], dtype=bool))[1] == 0.0
        truth = np.array([0, 1, 0], dtype=bool)
        assert _subtree_sums(tree, alloc.levels, truth)[1] == pytest.approx(0.025)

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

    def test_matches_per_vertex_reference(self):
        # random general trees, then trees whose layers are gather arrays;
        # half the allocations raise one level above the budget, so some
        # subtrees violate; the sums may differ from the reference's only
        # in summation order
        from treetest import weighted_levels

        rng = np.random.default_rng(23)
        gather = [t.parent.tolist() for t in gather_layer_trees()]
        flagged = 0
        for i in range(200 + len(gather)):
            parents = random_general_parents(rng) if i < 200 else gather[i - 200]
            tree = TestTree(parents)
            n = tree.n_vertices
            levels = weighted_levels(tree, 0.1, rng.uniform(0.1, 1.0, n)).levels.copy()
            if i % 2:
                v = int(rng.integers(n))
                levels[v] = min(1.0, levels[v] * rng.uniform(1.5, 4.0))
            truth = rng.integers(0, 2, n)
            sums, bad = reference_subtree_sums(parents, levels, truth, LEVEL_SUM_TOL)
            audit = audit_subtree_sums(tree, levels, truth)
            assert [v for v, _, _ in audit.violations] == [v for v, _, _ in bad]
            for (_, got, level), (_, want, ref_level) in zip(audit.violations, bad):
                assert abs(got - want) <= 1e-15 and level == ref_level
            assert abs(audit.max_sum - max(sums)) <= 1e-15
            assert np.abs(_subtree_sums(tree, levels, truth.astype(bool)) - sums).max() <= 1e-15
            flagged += bool(bad)
        assert flagged >= 10
