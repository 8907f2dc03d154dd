"""Command-line entry point.

Commands
--------
simulate     Monte Carlo error-rate estimation from a JSON config.
compare      Several procedures on the same simulated data.
brute-force  Exhaustive audit of the first-true level-sum bound.
denoise      Haar-threshold a signal file (one float per line).
localize     Flag nonzero-mean time regions in a CSV of trials.
validate-lb  Check a serialized allocation against the level budget.

Exit codes: 0 on success, 2 on usage or configuration errors, 3 on runtime
or assertion failures (including audit violations and exceeded enumeration
budgets).  All randomness flows from ``--seed``; without the flag a fixed
default (1729) keeps runs reproducible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .localize import TrialMatrix, localize
from .simulate import (
    PROCEDURES,
    BudgetError,
    SimConfig,
    SimReport,
    audit_alpha_sums,
    compare_procedures,
    format_comparison,
)
from .simulate import simulate as run_simulation
from .trees import allocation_from_doc, level_budget_violations
from .wavelet import denoise

DEFAULT_SEED = 1729

__all__ = ["main", "DEFAULT_SEED"]


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_signal(path: str, column: int = 0) -> np.ndarray:
    """One float per line, or the given column of a CSV file."""
    if column < 0:
        raise ValueError(f"column must be >= 0, got {column}")
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            fields = line.split(",")
            if column >= len(fields):
                raise ValueError(f"{path} has no column {column}")
            values.append(float(fields[column]))
    if not values:
        raise ValueError(f"no samples found in {path}")
    return np.asarray(values)


def _write_signal(path: str, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x in values:
            fh.write(f"{float(x)!r}\n")


def _read_trials(path: str) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            rows.append([float(x) for x in row])
    if not rows:
        raise ValueError(f"no trials found in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows in {path}: all trials need {width} time points")
    return np.asarray(rows)


def _config_from_file(path: str, seed: Optional[int]) -> SimConfig:
    doc = _read_json(path)
    try:
        config = SimConfig.from_doc(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return config if seed is None else dataclasses.replace(config, seed=seed)


def _write_frequency_csv(path: str, report: SimReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "rejections", "frequency"])
        for vertex, count, freq in report.frequency_rows():
            writer.writerow([vertex, count, repr(freq)])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_file(args.config, args.seed)
    report = run_simulation(config, args.procedure, threads=args.threads)
    if args.out:
        _write_json(args.out, report.to_doc())
    if args.freq_csv:
        _write_frequency_csv(args.freq_csv, report)
    print(
        f"{report.procedure}: fwer={report.fwer_hat:.5f} (se {report.fwer_se:.5f}) "
        f"fdr={report.fdr_hat:.5f} pcer={report.pcer_hat:.5f} power={report.power_hat:.5f} "
        f"over {report.replications} replications"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_file(args.config, args.seed)
    procedures = [p.strip() for p in args.procedures.split(",") if p.strip()]
    reports = compare_procedures(config, procedures, threads=args.threads)
    print(format_comparison(reports))
    if args.out:
        _write_json(args.out, {"reports": [r.to_doc() for r in reports]})
    return 0


def _cmd_brute_force(args: argparse.Namespace) -> int:
    branchings = tuple(int(b) for b in args.branchings.split(","))
    audit = audit_alpha_sums(
        max_depth=args.max_depth,
        branchings=branchings,
        alpha=args.alpha,
        n_weighted=args.weighted,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
    )
    print(audit.summary())
    if not audit.passed:
        print("FAIL: level-sum bound violated", file=sys.stderr)
        return 3
    print("PASS")
    return 0


def _cmd_denoise(args: argparse.Namespace) -> int:
    signal = _read_signal(args.signal, args.column)
    sigma = args.sigma if args.sigma == "estimate" else float(args.sigma)
    result = denoise(signal, args.alpha, sigma, force_levels=args.force_levels)
    _write_signal(args.out, result.denoised)
    meta = result.to_doc()
    meta["n"] = int(signal.size)
    meta["alpha"] = args.alpha
    if args.reference:
        truth = _read_signal(args.reference)
        if not np.isfinite(truth).all():
            raise ValueError("reference samples must be finite")
        if truth.size != signal.size:
            raise ValueError("reference length does not match the signal")
        meta["input_mse"] = float(np.mean((signal - truth) ** 2))
        meta["output_mse"] = float(np.mean((result.denoised - truth) ** 2))
    if args.meta:
        _write_json(args.meta, meta)
    print(f"kept {result.kept} coefficients, sigma={result.sigma:.6g}")
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    trials = TrialMatrix(_read_trials(args.trials), sigma=args.sigma)
    result = localize(trials, args.alpha, args.depth, args.arity)
    doc = result.to_doc()
    doc["alpha"] = args.alpha
    doc["depth"] = args.depth
    doc["arity"] = args.arity
    doc["n_trials"] = trials.n_trials
    doc["n_times"] = trials.n_times
    if args.out:
        _write_json(args.out, doc)
    for node in result.maximal:
        print(f"[{node.start}, {node.end}) depth {node.depth}")
    if not result.maximal:
        print("no intervals flagged")
    return 0


def _cmd_validate_lb(args: argparse.Namespace) -> int:
    tree, alloc = allocation_from_doc(_read_json(args.tree))
    bad = level_budget_violations(tree, alloc)
    if bad.size:
        print(f"level budget violated at vertices {bad.tolist()}", file=sys.stderr)
        return 3
    print(f"allocation valid on {tree.n_vertices} vertices (depth {tree.depth})")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treetest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo error-rate estimation")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.add_argument("--procedure", default="descend", choices=PROCEDURES)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--freq-csv", help="write per-vertex rejection frequencies here")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="several procedures on shared draws")
    p.add_argument("--config", required=True)
    p.add_argument("--procedures", default="descend,holm_flat,bonferroni_flat,bh_flat")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("brute-force", help="exhaustive level-sum audit")
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--branchings", default="2,3", help="comma-separated branching factors")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--weighted", type=int, default=10, help="random-weighted allocations per tree")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_brute_force)

    p = sub.add_parser("denoise", help="Haar-threshold a signal file")
    p.add_argument("--signal", required=True, help="input, one float per line or CSV")
    p.add_argument("--column", type=int, default=0, help="CSV column to read")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--sigma", default="estimate", help="noise scale, or 'estimate'")
    p.add_argument("--out", required=True, help="denoised output path")
    p.add_argument("--meta", help="write threshold metadata JSON here")
    p.add_argument("--reference", help="noise-free reference for MSE reporting")
    p.add_argument("--force-levels", type=int, default=0)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("localize", help="flag nonzero-mean time regions")
    p.add_argument("--trials", required=True, help="CSV, rows=trials, columns=time points")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("validate-lb", help="check a serialized allocation's level budget")
    p.add_argument("--tree", required=True, help="JSON allocation document")
    p.set_defaults(func=_cmd_validate_lb)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
