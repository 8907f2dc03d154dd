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
budgets).  Every refusal, the argument parser's included, is one ``error:``
line on stderr.  brute-force checks its budget (depth <= 3, branching factors
<= 3, --weighted <= 400) before it builds a tree.  Randomness flows from
``--seed``, whose default (1729) keeps runs reproducible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .exact import _MAX_WEIGHTED, audit_alpha_sums
from .localize import TrialMatrix, localize
from .simulate import PROCEDURES, SimConfig, SimReport, compare_procedures, format_comparison
from .simulate import simulate as run_simulation
from .trees import _number, allocation_from_doc, level_budget_violations
from .wavelet import denoise

DEFAULT_SEED = 1729

__all__ = ["main", "DEFAULT_SEED"]


def _load(path: str, parse: Callable):
    """``parse`` of the JSON document at ``path``; every error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except ValueError as exc:  # decode errors are ValueErrors too
        raise ValueError(f"{path}: {exc}") from exc


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_csv(path: str, column: Optional[int] = None) -> np.ndarray:
    """Numbers of a CSV file, blank lines skipped: ``column`` as a 1-D array, or
    every row (all of one width) as a 2-D array.  Errors name the file."""
    if column is not None and column < 0:
        raise ValueError(f"column must be >= 0, got {column}")
    values, width = [], 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row or len(row) == 1 and row[0].isspace():
                    continue
                if column is None:
                    width = width or len(row)
                    if len(row) != width:
                        raise ValueError(f"ragged rows: {len(row)} values, not {width}")
                    values.extend(map(float, row))
                elif column < len(row):
                    values.append(float(row[column]))
                else:
                    raise ValueError(f"no column {column}")
        except UnicodeDecodeError as exc:  # decoded ahead of the parsed lines
            raise ValueError(f"{path}: {exc}") from exc
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not values:
        raise ValueError(f"{path}: no numbers found")
    return np.array(values) if column is not None else np.array(values).reshape(-1, width)


def _write_signal(path: str, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{x!r}\n" for x in values.tolist())


def _write_frequency_csv(path: str, report: SimReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "rejections", "frequency"])
        for vertex, count in enumerate(report.rejection_counts.tolist()):
            writer.writerow([vertex, count, repr(count / report.replications)])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _config(args: argparse.Namespace) -> SimConfig:
    config = _load(args.config, SimConfig.from_doc)
    return config if args.seed is None else dataclasses.replace(config, seed=args.seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config(args)
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
    config = _config(args)
    procedures = [p.strip() for p in args.procedures.split(",") if p.strip()]
    reports = compare_procedures(config, procedures, threads=args.threads)
    print(format_comparison(reports))
    if args.out:
        _write_json(args.out, {"reports": [r.to_doc() for r in reports]})
    return 0


def _cmd_brute_force(args: argparse.Namespace) -> int:
    audit = audit_alpha_sums(max_depth=args.max_depth, branchings=args.branchings,
                             alpha=args.alpha, n_weighted=args.weighted, seed=args.seed)
    print(audit.summary())
    if not audit.passed:
        print("FAIL: level-sum bound violated", file=sys.stderr)
        return 3
    print("PASS")
    return 0


def _cmd_denoise(args: argparse.Namespace) -> int:
    signal = _read_csv(args.signal, args.column)
    result = denoise(signal, args.alpha, args.sigma)
    meta = {**result.to_doc(), "n": int(signal.size), "alpha": args.alpha}
    if args.reference:
        truth = _read_csv(args.reference, 0)
        if not np.isfinite(truth).all():
            raise ValueError(f"{args.reference}: reference samples must be finite")
        if truth.size != signal.size:
            raise ValueError(f"{args.reference}: reference length does not match the signal")
        with np.errstate(over="ignore"):
            mse = [float(np.mean((x - truth) ** 2)) for x in (signal, result.denoised)]
        if not np.isfinite(mse).all():
            raise ValueError(f"{args.reference}: mean squared error overflows float64")
        meta["input_mse"], meta["output_mse"] = mse
    _write_signal(args.out, result.denoised)
    if args.meta:
        _write_json(args.meta, meta)
    print(f"kept {result.kept} coefficients, sigma={result.sigma:.6g}")
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    trials = TrialMatrix(_read_csv(args.trials), sigma=args.sigma)
    result = localize(trials, args.alpha, args.depth, args.arity)
    doc = result.to_doc()
    doc.update(alpha=args.alpha, depth=args.depth, arity=args.arity,
               n_trials=trials.n_trials, n_times=trials.n_times)
    if args.out:
        _write_json(args.out, doc)
    for node in result.maximal:
        print(f"[{node.start}, {node.end}) depth {node.depth}")
    if not result.maximal:
        print("no intervals flagged")
    return 0


def _cmd_validate_lb(args: argparse.Namespace) -> int:
    tree, alloc = _load(args.tree, allocation_from_doc)
    bad = level_budget_violations(tree, alloc)
    if bad.size:
        print(f"level budget violated at vertices {bad.tolist()}", file=sys.stderr)
        return 3
    print(f"allocation valid on {tree.n_vertices} vertices (depth {tree.depth})")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a refusal leaves through main's handler, as one line
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treetest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo error-rate estimation")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.add_argument("--procedure", default="descend", help=f"one of {', '.join(PROCEDURES)}")
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

    def branchings(text: str) -> tuple[int, ...]:  # each entry by the integer number rule
        return tuple(_number(float(b), "branchings", True) for b in text.split(","))

    def sigma(text: str) -> Union[str, float]:
        return text if text == "estimate" else float(text)

    p = sub.add_parser("brute-force", help="exhaustive level-sum audit")
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--branchings", type=branchings, default="2,3",
                   help="comma-separated branching factors")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--weighted", type=int, default=10,
                   help=f"random-weighted allocations per tree, at most {_MAX_WEIGHTED}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_brute_force)

    p = sub.add_parser("denoise", help="Haar-threshold a signal file")
    p.add_argument("--signal", required=True, help="input, one float per line or CSV")
    p.add_argument("--column", type=int, default=0, help="CSV column to read")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--sigma", type=sigma, default="estimate", help="noise scale, or 'estimate'")
    p.add_argument("--out", required=True, help="denoised output path")
    p.add_argument("--meta", help="write threshold metadata JSON here")
    p.add_argument("--reference", help="noise-free reference for MSE reporting")
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
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:  # BudgetError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, RuntimeError) else 2


if __name__ == "__main__":
    sys.exit(main())
