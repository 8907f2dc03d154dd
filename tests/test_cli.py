"""Command-line interface: exit codes, file formats, determinism."""

import copy
import csv
import dataclasses
import json
import math
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import treetest.cli as cli_module
from treetest import SimConfig
from treetest.cli import main
from treetest.simulate import _FIELDS


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


SIM_CONFIG = {
    "tree": {"branching": [2, 2]},
    "alpha": 0.05,
    "truth": "global_null",
    "replications": 4000,
    "seed": 7,
}


class TestSimulateCommand:
    def test_writes_report_and_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", SIM_CONFIG)
        out = tmp_path / "report.json"
        freq = tmp_path / "freq.csv"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--freq-csv", str(freq)])
        assert code == 0
        report = read_json(out)
        assert report["procedure"] == "descend"
        assert report["fwer_hat"] <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / 4000)
        with open(freq) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["vertex", "rejections", "frequency"]
        assert len(rows) == 1 + 7
        assert "fwer" in capsys.readouterr().out

    def test_same_seed_binary_identical(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", SIM_CONFIG)
        outs, csvs = [], []
        for tag in ("a", "b"):
            out, freq = tmp_path / f"r{tag}.json", tmp_path / f"f{tag}.csv"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--freq-csv", str(freq)]) == 0
            outs.append(read_json(out))
            csvs.append(freq.read_bytes())
        assert csvs[0] == csvs[1]
        for doc in outs:
            doc.pop("elapsed_seconds")
        assert outs[0] == outs[1]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", SIM_CONFIG)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "123"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "124"]) == 0
        assert read_json(out1)["any_false"] != read_json(out2)["any_false"] or (
            read_json(out1)["rejection_counts"] != read_json(out2)["rejection_counts"]
        )

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2
        cfg = write_json(tmp_path / "cfg2.json", {"tree": {"branching": [2]}, "alhpa": 0.05})
        assert main(["simulate", "--config", cfg]) == 2
        assert "error" in capsys.readouterr().err

    def test_config_of_wrong_shape_exits_2(self, tmp_path, capsys):
        for name, doc in (
            ("alloc.json", {**SIM_CONFIG, "allocation": 5}),
            ("truth.json", {**SIM_CONFIG, "truth": ["x"]}),
            ("list.json", [1, 2]),
            ("tree.json", {**SIM_CONFIG, "tree": 5}),
        ):
            cfg = write_json(tmp_path / name, doc)
            assert main(["simulate", "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("doc, where", [
        ({"forest": [{"x": 1}]}, "forest[0]"),
        ({"tree": {}}, "tree"),
    ])
    def test_missing_branching_exits_2(self, tmp_path, capsys, doc, where):
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"error: {cfg}: {where}: missing key 'branching'"

    def test_block_beyond_memory_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {**SIM_CONFIG, "tree": {"branching": [2] * 22}})
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "GiB" in err and len(err.strip().splitlines()) == 1

    def test_tree_above_vertex_limit_exits_2(self, tmp_path, capsys):
        # its memory estimate once overflowed a float: exit 1 with a traceback
        cfg = write_json(tmp_path / "cfg.json", {**SIM_CONFIG, "tree": {"branching": [2] * 1100}})
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"error: {cfg}: tree would exceed 10000000 vertices"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        cfg = write_json(tmp_path / "cfg.json", SIM_CONFIG)
        assert main(["simulate", "--config", cfg, "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert "threads" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("extra", [
        {"effect": float("nan")},
        {"effect": float("inf")},
        {"allocation": {"kind": "uniform", "weights": [1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0]}},
    ])
    def test_misused_field_exits_2(self, tmp_path, capsys, extra):
        # a NaN effect read FWER 0; weights without "weighted" ran uniform
        cfg = write_json(tmp_path / "cfg.json", {**SIM_CONFIG, **extra})
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("root_levels, index", [
        ([float("nan"), 0.01], 0), ([0.03, -0.01], 1), ([0.0, 0.05], 0),
    ])
    def test_bad_root_level_exits_2(self, tmp_path, capsys, root_levels, index):
        doc = {**SIM_CONFIG, "forest": [{"branching": [2]}] * 2, "root_levels": root_levels}
        del doc["tree"]
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: root_levels[{index}] = ")
        assert len(err.strip().splitlines()) == 1

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_threads_flag_matches_serial(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {**SIM_CONFIG, "block_size": 512})
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--threads", "3"]) == 0
        a, b = read_json(out1), read_json(out2)
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b


class TestCompareCommand:
    def test_table_and_report(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {**SIM_CONFIG, "replications": 2000})
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--config", cfg, "--procedures", "descend,holm_flat", "--out", str(out),
        ])
        assert code == 0
        assert len(read_json(out)["reports"]) == 2
        printed = capsys.readouterr().out
        assert "descend" in printed and "holm_flat" in printed


class TestBruteForceCommand:
    def test_small_budget_passes(self, capsys):
        assert main(["brute-force", "--max-depth", "2", "--branchings", "2", "--weighted", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_full_budget_passes(self, capsys):
        assert main(["brute-force", "--max-depth", "3", "--branchings", "2,3", "--weighted", "2"]) == 0
        out = capsys.readouterr().out
        assert "violations 0" in out

    def test_branchings_read_by_the_integer_rule(self, capsys):
        # the parser reads each entry as audit_alpha_sums does: 2.0 is 2
        outs = []
        for given in ("2", "2.0,2"):
            assert main(["brute-force", "--max-depth", "1", "--branchings", given]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "over 2 trees" in outs[0]

    def test_budget_exceeded_exits_3(self, capsys):
        assert main(["brute-force", "--max-depth", "4"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_violated_bound_exits_3(self, monkeypatch, capsys):
        audit = cli_module.audit_alpha_sums
        monkeypatch.setattr(cli_module, "audit_alpha_sums",
                            lambda **kw: dataclasses.replace(audit(**kw), violations=1))
        assert main(["brute-force", "--max-depth", "1", "--branchings", "2"]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.splitlines() == ["FAIL: level-sum bound violated"]

    def test_weighted_count_beyond_budget_exits_3_at_once(self, capsys):
        # the budget is checked before any tree is built; this ran for hours
        started = time.perf_counter()
        assert main(["brute-force", "--weighted", "100000"]) == 3
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.splitlines() == [
            "error: enumeration budget is depth <= 3, branching factors <= 3, "
            "literal_limit <= 2**20 and n_weighted <= 400"]

    def test_negative_weighted_count_exits_2(self, capsys):
        assert main(["brute-force", "--max-depth", "1", "--weighted", "-5"]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.splitlines() == ["error: n_weighted must be >= 0, got -5"]


class TestDenoiseCommand:
    def test_zero_signal(self, tmp_path):
        sig = tmp_path / "sig.txt"
        sig.write_text("".join("0.0\n" for _ in range(64)))
        out = tmp_path / "out.txt"
        assert main(["denoise", "--signal", str(sig), "--sigma", "1.0", "--out", str(out)]) == 0
        values = [float(line) for line in out.read_text().splitlines()]
        assert values == [0.0] * 64

    def test_blocks_with_reference_improves_mse(self, tmp_path):
        rng = np.random.default_rng(11)
        truth = np.zeros(256)
        truth[40:120] = 12.0
        truth[180:220] = -14.0
        noisy = truth + rng.standard_normal(256)
        sig, ref = tmp_path / "noisy.txt", tmp_path / "truth.txt"
        sig.write_text("".join(f"{float(x)!r}\n" for x in noisy))
        ref.write_text("".join(f"{float(x)!r}\n" for x in truth))
        out, meta = tmp_path / "out.txt", tmp_path / "meta.json"
        code = main([
            "denoise", "--signal", str(sig), "--sigma", "1.0", "--alpha", "0.05",
            "--out", str(out), "--meta", str(meta), "--reference", str(ref),
        ])
        assert code == 0
        doc = read_json(meta)
        assert doc["output_mse"] < doc["input_mse"]
        assert len(doc["level_thresholds"]) == 7
        assert doc["tested_coefficients"] >= 2 and 1 <= doc["deepest_level"] <= 7
        assert np.all(np.diff(doc["level_thresholds"]) > 0)

    def test_sigma_estimate_close_to_truth(self, tmp_path):
        rng = np.random.default_rng(12)
        sig = tmp_path / "noise.txt"
        sig.write_text("".join(f"{float(x)!r}\n" for x in rng.standard_normal(2**13) * 3.0))
        out, meta = tmp_path / "out.txt", tmp_path / "meta.json"
        code = main(["denoise", "--signal", str(sig), "--out", str(out), "--meta", str(meta)])
        assert code == 0
        assert abs(read_json(meta)["sigma"] - 3.0) / 3.0 <= 0.05

    def test_bad_length_exits_2(self, tmp_path):
        sig = tmp_path / "sig.txt"
        sig.write_text("".join("1.0\n" for _ in range(100)))
        assert main(["denoise", "--signal", str(sig), "--sigma", "1", "--out", str(tmp_path / "o")]) == 2

    def test_force_levels_flag_refused(self, tmp_path, capsys):
        # no flag may void the familywise bound by testing levels unconditionally
        sig = tmp_path / "sig.txt"
        sig.write_text("".join("1.0\n" for _ in range(64)))
        out = tmp_path / "o.txt"
        assert main(["denoise", "--signal", str(sig), "--force-levels", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--force-levels" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_sample_exits_2(self, tmp_path, capsys, bad):
        sig = tmp_path / "sig.txt"
        sig.write_text("".join("1.0\n" for _ in range(63)) + f"{bad}\n")
        out = tmp_path / "o.txt"
        assert main(["denoise", "--signal", str(sig), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_of_another_length_exits_2(self, tmp_path, capsys):
        sig, ref = tmp_path / "sig.txt", tmp_path / "ref.txt"
        sig.write_text("".join("1.0\n" for _ in range(64)))
        ref.write_text("".join("0.0\n" for _ in range(32)))
        out = tmp_path / "o.txt"
        code = main(["denoise", "--signal", str(sig), "--sigma", "1", "--out", str(out),
                     "--reference", str(ref)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ref}: reference length does not match the signal"]
        assert not out.exists()

    def test_blank_signal_file_exits_2(self, tmp_path, capsys):
        sig = tmp_path / "sig.txt"
        sig.write_text("\n  \n\n")
        out = tmp_path / "o.txt"
        assert main(["denoise", "--signal", str(sig), "--sigma", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {sig}: no numbers found"]
        assert not out.exists()

    def test_non_finite_reference_exits_2(self, tmp_path, capsys):
        sig, ref = tmp_path / "sig.txt", tmp_path / "ref.txt"
        sig.write_text("".join("1.0\n" for _ in range(64)))
        ref.write_text("".join("0.0\n" for _ in range(63)) + "nan\n")
        out, meta = tmp_path / "o.txt", tmp_path / "meta.json"
        code = main([
            "denoise", "--signal", str(sig), "--sigma", "1", "--out", str(out),
            "--meta", str(meta), "--reference", str(ref),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "reference" in err and len(err.strip().splitlines()) == 1
        assert not meta.exists() and not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mse_exits_2(self, tmp_path, capsys):
        # finite samples 1e200 off the reference: their squared error is past float64
        sig, ref = tmp_path / "sig.txt", tmp_path / "ref.txt"
        sig.write_text("".join("1e200\n" if i % 2 else "0.0\n" for i in range(64)))
        ref.write_text("0.0\n" * 64)
        out, meta = tmp_path / "o.txt", tmp_path / "meta.json"
        code = main(["denoise", "--signal", str(sig), "--sigma", "1", "--out", str(out),
                     "--meta", str(meta), "--reference", str(ref)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ref}: mean squared error overflows float64"]
        assert not meta.exists() and not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_haar_sums_exit_2(self, tmp_path, capsys):
        sig, out = tmp_path / "sig.txt", tmp_path / "o.txt"
        sig.write_text("1e308\n" * 64)
        assert main(["denoise", "--signal", str(sig), "--sigma", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: Haar sums of the signal overflow float64"]
        assert not out.exists()

    def test_csv_column_input(self, tmp_path):
        sig = tmp_path / "sig.csv"
        sig.write_text("".join(f"{i},0.0\n" for i in range(64)))
        out = tmp_path / "out.txt"
        code = main([
            "denoise", "--signal", str(sig), "--column", "1", "--sigma", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        assert [float(v) for v in out.read_text().splitlines()] == [0.0] * 64
        assert main([
            "denoise", "--signal", str(sig), "--column", "3", "--sigma", "1.0",
            "--out", str(out),
        ]) == 2

    def test_negative_column_exits_2(self, tmp_path, capsys):
        # -1 would otherwise read the last column
        sig = tmp_path / "sig.csv"
        sig.write_text("".join(f"{i},0.0\n" for i in range(64)))
        out = tmp_path / "out.txt"
        argv = ["denoise", "--signal", str(sig), "--column", "-1", "--sigma", "1.0",
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: column must be >= 0, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["inf", "nan", "0", "-1"])
    def test_sigma_not_finite_positive_exits_2(self, tmp_path, capsys, sigma):
        sig = tmp_path / "sig.txt"
        sig.write_text("".join(f"{float(i % 7)!r}\n" for i in range(64)))
        out, meta = tmp_path / "out.txt", tmp_path / "meta.json"
        argv = ["denoise", "--signal", str(sig), "--sigma", sigma, "--out", str(out),
                "--meta", str(meta)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: sigma must be positive and finite"]
        assert not out.exists() and not meta.exists()


class TestLocalizeCommand:
    def write_trials(self, path: Path, data: np.ndarray) -> str:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(data.tolist())
        return str(path)

    def test_planted_interval_reported(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((50, 256))
        data[:, 32:40] += 10.0 / np.sqrt(50)
        trials = self.write_trials(tmp_path / "trials.csv", data)
        out = tmp_path / "loc.json"
        code = main(["localize", "--trials", trials, "--depth", "5", "--out", str(out)])
        assert code == 0
        doc = read_json(out)
        assert any((row["start"], row["end"]) == (32, 40) for row in doc["rejected"])
        assert doc["tested"] == len(doc["intervals"])
        assert "[32, 40)" in capsys.readouterr().out

    def test_noise_only_usually_empty(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        trials = self.write_trials(tmp_path / "t.csv", rng.standard_normal((20, 64)))
        assert main(["localize", "--trials", trials, "--depth", "3"]) == 0

    @pytest.mark.parametrize("sigma", ["inf", "nan", "0"])
    def test_sigma_not_finite_positive_exits_2(self, tmp_path, capsys, sigma):
        # an infinite sigma used to flag nothing, silently
        data = np.zeros((4, 16))
        data[:, :8] = 50.0
        trials = self.write_trials(tmp_path / "t.csv", data)
        out = tmp_path / "loc.json"
        argv = ["localize", "--trials", trials, "--depth", "2", "--sigma", sigma, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: sigma must be positive and finite"]
        assert not out.exists()

    def test_depth_beyond_samples_exits_2(self, tmp_path, capsys):
        trials = self.write_trials(tmp_path / "t.csv", np.zeros((2, 16)))
        assert main(["localize", "--trials", trials, "--depth", "1000000000000", "--arity", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: depth 1000000000000 exceeds the 16 samples"
        ]

    def test_blank_and_whitespace_lines_skipped(self, tmp_path, capsys):
        trials = tmp_path / "t.csv"
        trials.write_text("1.0,2.0\n   \n\n3.0,4.0\n\t\n")
        out = tmp_path / "loc.json"
        assert main(["localize", "--trials", str(trials), "--depth", "1", "--out", str(out)]) == 0
        assert (read_json(out)["n_trials"], read_json(out)["n_times"]) == (2, 2)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trial_sums_exit_2(self, tmp_path, capsys):
        # NaN p-values once, written as bare NaN tokens into the --out JSON
        trials, out = tmp_path / "t.csv", tmp_path / "loc.json"
        trials.write_text((",".join(["1e308"] * 8) + "\n") * 3)
        assert main(["localize", "--trials", str(trials), "--depth", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: trial sums overflow float64"]
        assert not out.exists()

    def test_ragged_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "ragged.csv"
        bad.write_text("1.0,2.0,3.0\n1.0,2.0\n")
        assert main(["localize", "--trials", str(bad), "--depth", "1"]) == 2
        assert "ragged" in capsys.readouterr().err


class TestValidateLbCommand:
    def test_valid_allocation(self, tmp_path, capsys):
        doc = {
            "depth": 2,
            "branching": [2, 2],
            "alpha_root": 0.05,
            "allocation": [0.05, 0.025, 0.025, 0.0125, 0.0125, 0.0125, 0.0125],
        }
        assert main(["validate-lb", "--tree", write_json(tmp_path / "a.json", doc)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_violation_exits_3(self, tmp_path, capsys):
        doc = {
            "depth": 1,
            "branching": [2],
            "alpha_root": 0.05,
            "allocation": [0.05, 0.03, 0.03],
        }
        assert main(["validate-lb", "--tree", write_json(tmp_path / "a.json", doc)]) == 3
        assert "violated" in capsys.readouterr().err

    def test_malformed_doc_exits_2(self, tmp_path):
        assert main(["validate-lb", "--tree", write_json(tmp_path / "a.json", {"depth": 1})]) == 2


class TestMalformedInputs:
    """Inputs once run as something else, or refused without naming their
    file: each exits 2 with one line ``error: <path>: ...``."""

    ALLOCATION = {"depth": 1, "branching": [2], "allocation": [0.05, 0.025, 0.025]}
    EXPLICIT = {"kind": "explicit", "values": [0, 0.5, 0, 0, 0, 0, 0]}

    CASES = {
        "branching-2.7": ("simulate", {**SIM_CONFIG, "tree": {"branching": [2.7]}}),  # ran (2,)
        "branching-true": ("simulate", {**SIM_CONFIG, "tree": {"branching": [True]}}),
        "replications-1000.9": ("simulate", {**SIM_CONFIG, "replications": 1000.9}),
        "seed-1.5": ("simulate", {**SIM_CONFIG, "seed": 1.5}),  # ran seed 1
        "seed-negative": ("simulate", {**SIM_CONFIG, "seed": -1}),
        "truth-0.5": ("simulate", {**SIM_CONFIG, "truth": EXPLICIT}),  # read as a false null
        "truth-length": ("simulate", {**SIM_CONFIG, "truth": {**EXPLICIT, "values": [0, 1]}}),
        # read, then dropped from the report's config
        "truth-random-values": ("simulate", {**SIM_CONFIG, "truth": {"kind": "random", "values": [1]}}),
        "truth-explicit-density": (
            "simulate", {**SIM_CONFIG, "truth": {"kind": "explicit", "values": [0] * 7, "density": 0.5}}
        ),
        "truth-global-density": ("simulate", {**SIM_CONFIG, "truth": {"density": 0.3}}),
        "alpha-string": ("simulate", {**SIM_CONFIG, "alpha": "0.05"}),
        "tree-and-forest": ("simulate", {**SIM_CONFIG, "forest": [{"branching": [3]}]}),  # ran (3,)
        "compare-alpha-string": ("compare", {**SIM_CONFIG, "alpha": "0.05"}),
        "allocation-branching-2.9": ("validate-lb", {**ALLOCATION, "branching": [2.9]}),
        "allocation-list": ("validate-lb", []),
        "allocation-length": ("validate-lb", {**ALLOCATION, "allocation": [0.05, 0.025]}),
        "allocation-not-json": ("validate-lb", "{not json"),
        # written as NaN, read back by json.load; ran as a valid allocation
        "allocation-root-nan": ("validate-lb", {**ALLOCATION, "alpha_root": float("nan")}),
        "config-not-utf8": ("simulate", b"\xff{}"),
        "trials-cell": ("localize", "1.0,2.0\n3.0,x\n"),
        "signal-cell": ("denoise", "".join("1.0\n" for _ in range(63)) + "one\n"),
        "signal-not-utf8": ("denoise", b"1.0\n\xff\n"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_naming_the_file(self, tmp_path, capsys, case):
        command, doc = self.CASES[case]
        path = tmp_path / "input"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        flag = {"simulate": "--config", "compare": "--config", "validate-lb": "--tree",
                "localize": "--trials", "denoise": "--signal"}[command]
        extra = {"localize": ["--depth", "1"], "denoise": ["--out", str(tmp_path / "out")]}
        assert main([command, flag, str(path), *extra.get(command, [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:") and len(err.splitlines()) == 1, err

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        # numpy refused it inside the first block, naming neither the seed nor the flag
        cfg = write_json(tmp_path / "cfg.json", SIM_CONFIG)
        assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]


class TestCountFloors:
    """A count below its floor, from a flag or an input file, exits 2 with one
    line naming the count and the value; the floor itself runs."""

    FLAGS = {  # command, flag, the count it sets, its floor
        "brute-force --max-depth": ("brute-force", "--max-depth", "max_depth", 0),
        "brute-force --weighted": ("brute-force", "--weighted", "n_weighted", 0),
        "brute-force --seed": ("brute-force", "--seed", "seed", 0),
        "brute-force --branchings": ("brute-force", "--branchings", "branchings", 1),
        "simulate --seed": ("simulate", "--seed", "seed", 0),
        "simulate --threads": ("simulate", "--threads", "threads", 1),
        "compare --threads": ("compare", "--threads", "threads", 1),
        "denoise --column": ("denoise", "--column", "column", 0),
        "localize --depth": ("localize", "--depth", "depth", 0),
        "localize --arity": ("localize", "--arity", "arity", 1),
    }
    DOCUMENTS = {  # command, a document with the count at x, the count, its floor
        "simulate block_size": ("simulate", lambda x: {**SIM_CONFIG, "block_size": x}, "block_size", 1),
        "simulate branching": (
            "simulate", lambda x: {**SIM_CONFIG, "tree": {"branching": [x]}}, "tree branching", 1),
        "validate-lb branching": ("validate-lb", lambda x: {
            "depth": 1, "branching": [x], "allocation": [0.05] * (1 + x)}, "branching", 1),
    }

    @staticmethod
    def command(tmp_path, command, doc=None) -> list[str]:
        """``command``'s arguments on small inputs, ``doc`` as its JSON file."""
        if command in ("simulate", "compare", "validate-lb"):
            path = write_json(tmp_path / "in.json", doc or {**SIM_CONFIG, "replications": 100})
            return [command, "--tree" if command == "validate-lb" else "--config", path]
        if command == "denoise":
            (tmp_path / "sig.txt").write_text("".join(f"{i % 3}.0\n" for i in range(64)))
            return [command, "--signal", str(tmp_path / "sig.txt"), "--sigma", "1.0",
                    "--out", str(tmp_path / "out")]
        if command == "localize":
            (tmp_path / "trials.csv").write_text("0.0,1.0,0.0,1.0\n1.0,0.0,1.0,0.0\n")
            return [command, "--trials", str(tmp_path / "trials.csv"), "--depth", "1"]
        return [command, "--max-depth", "1", "--weighted", "0"]  # a later flag overrides these

    @pytest.mark.parametrize("case", FLAGS)
    def test_flag_below_the_floor_exits_2(self, tmp_path, capsys, case):
        command, flag, name, floor = self.FLAGS[case]
        assert main([*self.command(tmp_path, command), flag, str(floor - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {name} must be >= {floor}, got {floor - 1}"]

    @pytest.mark.parametrize("case", FLAGS)
    def test_flag_at_the_floor_runs(self, tmp_path, case):
        command, flag, _, floor = self.FLAGS[case]
        assert main([*self.command(tmp_path, command), flag, str(floor)]) == 0

    @pytest.mark.parametrize("case", DOCUMENTS)
    def test_document_below_the_floor_exits_2(self, tmp_path, capsys, case):
        command, doc, name, floor = self.DOCUMENTS[case]
        args = self.command(tmp_path, command, doc(floor - 1))
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {args[-1]}: {name} must be >= {floor}, got {floor - 1}"]

    @pytest.mark.parametrize("case", DOCUMENTS)
    def test_document_at_the_floor_runs(self, tmp_path, case):
        command, doc, _, floor = self.DOCUMENTS[case]
        assert main(self.command(tmp_path, command, doc(floor))) == 0


PARSER_REFUSALS = [  # (command, case, its arguments, what the error line names)
    *((c, "unknown flag", ["--force-levels", "1"], "--force-levels")
      for c in ("simulate", "compare", "brute-force", "denoise", "localize", "validate-lb")),
    *((c, "missing flag", None, flag) for c, flag in (
        ("simulate", "--config"), ("compare", "--config"), ("denoise", "--signal"),
        ("localize", "--trials"), ("validate-lb", "--tree"))),
    ("simulate", "bad int", ["--threads", "two"], "--threads"),
    ("compare", "bad int", ["--seed", "1.5"], "--seed"),
    ("brute-force", "bad int", ["--max-depth", "x"], "--max-depth"),
    ("denoise", "bad int", ["--column", "0.5"], "--column"),
    ("localize", "bad int", ["--arity", "2.0"], "--arity"),
    ("brute-force", "bad float", ["--alpha", "five"], "--alpha"),
    ("denoise", "bad float", ["--alpha", "0,05"], "--alpha"),
    ("localize", "bad float", ["--sigma", "x"], "--sigma"),
    *(("brute-force", f"branchings {v!r}", ["--branchings", v], "--branchings")
      for v in ("2,x", "2.5", "", "2,,3")),
    ("denoise", "bad sigma", ["--sigma", "abc"], "--sigma"),
    ("simulate", "bad procedure", ["--procedure", "nope"], "procedure 'nope'"),
    ("compare", "bad procedure", ["--procedures", "descend,nope"], "procedure 'nope'"),
    *((c, "alpha -1e-3", ["--alpha", "-1e-3"], "--alpha")
      for c in ("brute-force", "denoise", "localize")),
    *((c, "sigma -inf", ["--sigma", "-inf"], "--sigma") for c in ("denoise", "localize")),
    (None, "no command", [], "command"),
]


class TestParserRefusals:
    """What the argument parser refuses ends like every other refusal:
    ``main`` returns 2 with one ``error:`` line that names the flag or the
    missing command, and prints nothing on stdout."""

    @staticmethod
    def valid(command: str, tmp_path: Path) -> list:
        """Arguments on which ``command`` runs and returns 0, its required flag first."""
        signal, trials = tmp_path / "sig.txt", tmp_path / "trials.csv"
        signal.write_text("".join(f"{math.sin(i)!r}\n" for i in range(64)))
        trials.write_text("0.0,0.0,0.0,0.0\n" * 3)
        config = write_json(tmp_path / "cfg.json", {**SIM_CONFIG, "replications": 100})
        alloc = write_json(tmp_path / "alloc.json", {
            "depth": 1, "branching": [2], "alpha_root": 0.05, "allocation": [0.05, 0.025, 0.025]})
        return {"simulate": ["--config", config], "compare": ["--config", config],
                "brute-force": ["--max-depth", "1"],
                "denoise": ["--signal", str(signal), "--out", str(tmp_path / "out.txt")],
                "localize": ["--trials", str(trials), "--depth", "1"],
                "validate-lb": ["--tree", alloc]}[command]

    @pytest.mark.parametrize("command", ["simulate", "compare", "brute-force", "denoise",
                                         "localize", "validate-lb"])
    def test_valid_arguments_run(self, tmp_path, capsys, command):
        # the refusals below each change one thing on these arguments
        assert main([command, *self.valid(command, tmp_path)]) == 0
        assert not capsys.readouterr().err

    @pytest.mark.parametrize("command, case, extra, named", PARSER_REFUSALS,
                             ids=[f"{c}-{case}" for c, case, _, _ in PARSER_REFUSALS])
    def test_refused_in_one_line(self, tmp_path, capsys, command, case, extra, named):
        if command is None:
            argv = []
        else:
            valid = self.valid(command, tmp_path)
            argv = [command, *(valid[2:] if extra is None else valid + extra)]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert not captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
        assert not (tmp_path / "out.txt").exists()


class TestConfigFieldMutations:
    """Seeded malformed configs.  Each case bends one field of the config
    table ``simulate._FIELDS``: it gives the field, or one entry of a list
    field, a bad value, drops its key or adds a key beside it.  Each runs
    through ``main`` and, but for an added key, through ``SimConfig``.
    Every run exits 0, 2 or 3 with no exception and at most one ``error:``
    line; every refusal in Python is a ValueError or TypeError naming the
    field or its key."""

    BASES = (  # valid configs that hold every key of the table between them
        {"tree": {"branching": [2, 2]}, "root_levels": [0.04], "alpha": 0.05, "effect": 1.0,
         "dependence": "independent", "replications": 600, "seed": 3, "block_size": 512,
         "allocation": {"kind": "weighted", "weights": [1, 1, 2, 1, 1, 1, 1]},
         "truth": {"kind": "random", "density": 0.5}},
        {"tree": {"branching": [2]}, "dependence": "nested_means", "replications": 16,
         "truth": {"kind": "explicit", "values": [0, 1, 0]}},
    )
    EDITS = ("value", "entry", "drop", "extra")

    @staticmethod
    def bad_value(rng: random.Random):
        return rng.choice([
            None, True, False, "", "0.05", "x\ny", -rng.choice([1, 0.5, 1e-300, 7]), 1e308,
            math.nan, math.inf, -math.inf, [], [[rng.random()]], [0.5, [1]], {"x": 1}, {},
        ])

    def cases(self, n: int, seed: int):
        """``n`` cases ``(field row, edit, doc, kwargs)``; kwargs is None for an added key."""
        rng = random.Random(seed)
        for _ in range(n):
            row = name, section, _, key, reader = rng.choice(_FIELDS)
            edit = rng.choice(self.EDITS if reader.endswith("s") else ("value", "drop", "extra"))
            base = next(b for b in self.BASES if key in (b[section] if section else b))
            doc = copy.deepcopy(base)
            holder = doc[section] if section else doc
            config = SimConfig.from_doc(base)
            kwargs = {f.name: getattr(config, f.name) for f in dataclasses.fields(SimConfig)}
            bad = self.bad_value(rng)
            if edit == "value":
                holder[key] = kwargs[name] = bad
            elif edit == "entry":
                i = rng.randrange(len(holder[key]))
                holder[key][i] = bad
                kwargs[name] = (*kwargs[name][:i], bad, *kwargs[name][i + 1 :])
            elif edit == "drop":
                del holder[key], kwargs[name]
            else:
                holder[f"{key}_extra"], kwargs = bad, None
            yield row, edit, doc, kwargs

    def test_every_field_refused_cleanly(self, tmp_path, capsys):
        path, seen, empty, exits = tmp_path / "cfg.json", set(), set(), set()
        for row, edit, doc, kwargs in self.cases(1000, seed=2910):
            case = f"{edit} {row[3]}: {json.dumps(doc)}"
            seen.add((row[0], edit))
            if edit == "value" and (doc[row[1]] if row[1] else doc)[row[3]] == []:
                empty.add(row[0])
            path.write_text(json.dumps(doc))
            try:
                code = main(["simulate", "--config", str(path)])
            except Exception as exc:
                raise AssertionError(f"{case}: {exc!r} escaped main") from exc
            err = capsys.readouterr().err
            exits.add(code)
            assert code in (0, 2, 3), case
            assert (err.startswith("error: ") and len(err.splitlines()) == 1) if code else not err, (
                case, err)
            if kwargs is None:
                continue
            try:
                SimConfig(**kwargs)
            except (ValueError, TypeError) as exc:
                assert row[0] in str(exc) or row[3] in str(exc), (case, str(exc))
        # the generator reaches every field with every edit it has for it,
        # and gives every list field an empty list
        assert len(seen) == sum(4 if row[4].endswith("s") else 3 for row in _FIELDS)
        assert empty >= {row[0] for row in _FIELDS if row[4].endswith("s")}
        assert exits == {0, 2}


class TestRandomNumericArguments:
    """Seeded random numbers for ``denoise``, ``localize`` and ``brute-force``:
    in their flags and in the files they read, among them NaN, +-inf, zero,
    negatives, subnormals, samples near the float64 limit, huge depths and
    words.  Every run through ``main`` exits 0, 2 or 3 with no exception and
    no warning, any error is one ``error:`` line, and no file it writes holds
    a NaN or an infinity.  Each flag keeps a valid value or, at random, takes
    one from the pools, so that cases get past the first check; typed flags
    also take words, which the argument parser refuses.  Each flag is passed
    as ``--flag value`` or ``--flag=value`` at random, so ``--sigma -inf``
    is refused as a flag without its value."""

    FLOATS = ("nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e-300", "0.05", "0.5",
              "0.999", "1", "2.5", "1e300", "1e308", "-1e308", "1.7e308")
    INTS = ("0", "-1", "-7", "1", "2", "3", "4", "6", "10", "64", "100000", str(2**63), str(10**30))
    WORDS = ("x", "", "estimate", "1,2", "0x10", "nan", "inf", "-2", "0", "1e308", "5e-324")
    SCALES = (1.0, 1e-300, 1e150, 1e300, 1e308, 1.7e308)
    BAD_CELLS = ("nan", "inf", "-inf", "x", "1.7e308", "-1.7e308", "5e-324", "")

    @staticmethod
    def pick(rng: random.Random, good: str, pool) -> str:
        return rng.choice(pool) if rng.random() < 0.3 else good

    def samples(self, rng: random.Random, rows: int, cols: int) -> str:
        """A CSV of ``rows`` lines of ``cols`` cells: noise at one scale, or
        one value everywhere; sometimes one cell from ``BAD_CELLS``."""
        scale = rng.choice(self.SCALES)
        if rng.random() < 0.25:
            value = rng.choice(("1e308", "-1e308", "1.7e308", "0", "1", "5e-324"))
            cells = [[value] * cols for _ in range(rows)]
        else:
            cells = [[repr(max(min(rng.gauss(0.0, 1.0) * scale, 1.7e308), -1.7e308))
                      for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.15:
            cells[rng.randrange(rows)][rng.randrange(cols)] = rng.choice(self.BAD_CELLS)
        return "".join(",".join(row) + "\n" for row in cells)

    @staticmethod
    def argv(rng: random.Random, command: str, flags) -> list:
        """``command`` and its ``(flag, value)`` pairs, each pair as one
        ``--flag=value`` or two arguments at random."""
        args = [command]
        for flag, value in flags:
            args += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
        return args

    def cases(self, n: int, seed: int, tmp_path: Path):
        """``n`` argument lists; each writes its input files first."""
        rng = random.Random(seed)
        data, ref = tmp_path / "data.csv", tmp_path / "ref.csv"
        floats, ints = self.FLOATS + self.WORDS, self.INTS + self.WORDS
        for _ in range(n):
            command = rng.choice(("denoise", "localize", "brute-force"))
            if command == "denoise":
                n_samples = int(self.pick(rng, "64", ("128", "16", "4", "63", "1")))
                data.write_text(self.samples(rng, n_samples, 1))
                flags = [("--signal", str(data)), ("--out", str(tmp_path / "out.txt")),
                         ("--meta", str(tmp_path / "meta.json")),
                         ("--alpha", self.pick(rng, "0.05", floats)),
                         ("--sigma", self.pick(rng, rng.choice(("estimate", "1")), floats))]
                if rng.random() < 0.3:
                    ref.write_text(self.samples(rng, int(self.pick(rng, str(n_samples), ("8",))), 1))
                    flags.append(("--reference", str(ref)))
            elif command == "localize":
                data.write_text(self.samples(rng, rng.choice((1, 3, 8)), rng.choice((8, 16, 64))))
                flags = [("--trials", str(data)), ("--out", str(tmp_path / "loc.json")),
                         ("--alpha", self.pick(rng, "0.05", floats)),
                         ("--sigma", self.pick(rng, "1", floats)),
                         ("--depth", self.pick(rng, rng.choice("0123"), ints)),
                         ("--arity", self.pick(rng, "2", self.INTS[:8] + self.WORDS))]
            else:  # trees small enough that a passing audit takes milliseconds
                flags = [("--max-depth", self.pick(rng, rng.choice("12"), ints)),
                         ("--branchings", self.pick(rng, rng.choice(("2", "1,2")), self.WORDS)),
                         ("--alpha", self.pick(rng, "0.05", floats)),
                         ("--weighted", self.pick(rng, "1", ("0", "2", "-1") + self.WORDS)),
                         ("--seed", self.pick(rng, "0", ("-1", str(2**70)) + self.WORDS))]
            yield self.argv(rng, command, flags)

    @staticmethod
    def finite_outputs(tmp_path: Path) -> None:
        def refuse(token):
            raise AssertionError(f"{token} in a JSON output")

        for path in (tmp_path / "meta.json", tmp_path / "loc.json"):
            if path.exists():
                json.loads(path.read_text(), parse_constant=refuse)
                path.unlink()
        if (out := tmp_path / "out.txt").exists():
            assert all(math.isfinite(float(x)) for x in out.read_text().split())
            out.unlink()

    def test_every_run_ends_cleanly(self, tmp_path, capsys):
        exits = {}
        for args in self.cases(300, seed=2311, tmp_path=tmp_path):
            case = " ".join(args)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(args)
                except Exception as exc:
                    raise AssertionError(f"{case}: {exc!r} escaped main") from exc
            err = capsys.readouterr().err
            assert not caught, (case, [str(w.message) for w in caught])
            assert code in (0, 2, 3), case
            assert (err.startswith("error: ") and len(err.splitlines()) == 1) if code else not err, (
                case, err)
            self.finite_outputs(tmp_path)
            exits.setdefault(args[0], set()).add(code)
        # every command both succeeds and refuses somewhere in the run
        assert exits == {"denoise": {0, 2}, "localize": {0, 2}, "brute-force": {0, 2, 3}}


def test_commands_without_pvalues_never_load_scipy(tmp_path):
    # scipy loads at the first Gaussian kernel call, in a fresh interpreter
    alloc = write_json(tmp_path / "alloc.json", {
        "depth": 1, "branching": [2], "alpha_root": 0.05, "allocation": [0.05, 0.025, 0.025]})
    signal = tmp_path / "sig.txt"
    signal.write_text("0.0\n" * 64)
    code = f"""
import sys
from treetest import SimConfig
from treetest.cli import main
SimConfig(trees=((2, 2),))
assert main(["brute-force", "--max-depth", "2", "--branchings", "2", "--weighted", "1"]) == 0
assert main(["validate-lb", "--tree", {alloc!r}]) == 0
assert main(["denoise", "--signal", {str(signal)!r}, "--alpha", "2", "--out", "unused"]) == 2
assert main(["localize", "--trials", {str(signal)!r}, "--depth", "9"]) == 2
assert "scipy" not in sys.modules, "a command without p-values loaded scipy"
from treetest import two_sided_pvalue
two_sided_pvalue(1.0)
assert "scipy.special" in sys.modules, "the first p-value did not load scipy"
"""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stderr


def test_module_entry_point(tmp_path):
    # The checkout that holds this file; its src/ alone must be enough to run the module.
    root = Path(__file__).resolve().parents[1]
    env_ok = subprocess.run(
        [sys.executable, "-m", "treetest.cli", "brute-force", "--max-depth", "1",
         "--branchings", "2", "--weighted", "1"],
        capture_output=True,
        text=True,
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert env_ok.returncode == 0, env_ok.stderr
    assert "PASS" in env_ok.stdout
