"""Output checks applied to every benchmark operation.

Each check returns a list of problems (empty when the output is correct),
so a caller can count a failed operation without stopping the run.
"""

from __future__ import annotations

import hashlib

import numpy as np

from treetest import LEVEL_SUM_TOL, monte_carlo_bound

# The exhaustive audit at its defaults (depth <= 3, branchings (2, 3), the
# uniform plus 10 weighted allocations) covers this many cases whatever the
# allocation seed, and re-checks 9 shapes literally.
AUDIT_CASES = 12_122_754_853_022
AUDIT_LITERAL_TREES = 9

# At 5 standard errors a procedure exactly at its level exceeds the bound by
# chance about 3e-7 of the time.
FWER_Z = 5.0


def counts_digest(counts) -> str:
    """sha256 of an integer vector, independent of its in-memory dtype."""
    return hashlib.sha256(np.asarray(counts, dtype="<i8").tobytes()).hexdigest()


def sim_identity(reports) -> dict:
    """The integer outputs that must repeat exactly for a fixed seed."""
    return {
        r.procedure: {
            "any_false": int(r.any_false),
            "rejection_counts_sha256": counts_digest(r.rejection_counts),
        }
        for r in reports
    }


def check_sim(reports, config, procedures, n_hypotheses, expected=None) -> list[str]:
    """Familywise bound, domination and shape of ``compare_procedures`` output.

    ``n_hypotheses`` maps each procedure to its accounting universe size;
    ``expected`` is the recorded ``sim_identity`` for this op, if any.
    """
    problems = []
    if [r.procedure for r in reports] != list(procedures):
        return [f"reports {[r.procedure for r in reports]} != requested {list(procedures)}"]
    for r in reports:
        bound = monte_carlo_bound(config.alpha, r.replications, z=FWER_Z)
        if not r.fwer_hat <= bound:
            problems.append(f"{r.procedure}: fwer_hat {r.fwer_hat} above bound {bound}")
        if r.domination_violations != 0:
            problems.append(f"{r.procedure}: {r.domination_violations} domination violations")
        if r.replications != config.replications:
            problems.append(f"{r.procedure}: {r.replications} replications, want {config.replications}")
        if r.n_hypotheses != n_hypotheses[r.procedure]:
            problems.append(
                f"{r.procedure}: {r.n_hypotheses} hypotheses, want {n_hypotheses[r.procedure]}"
            )
    if expected is not None:
        got = sim_identity(reports)
        for proc, want in expected.items():
            if got.get(proc) != want:
                problems.append(f"{proc}: fixed-seed outputs {got.get(proc)} != recorded {want}")
    return problems


def check_audit(audit) -> list[str]:
    problems = []
    if audit.violations != 0:
        problems.append(f"audit found {audit.violations} violations")
    if audit.cases_checked != AUDIT_CASES:
        problems.append(f"audit checked {audit.cases_checked} cases, want {AUDIT_CASES}")
    if audit.literal_trees != AUDIT_LITERAL_TREES:
        problems.append(f"audit re-checked {audit.literal_trees} trees, want {AUDIT_LITERAL_TREES}")
    if not audit.max_level_sum <= audit.alpha + LEVEL_SUM_TOL:
        problems.append(f"max level sum {audit.max_level_sum} above alpha {audit.alpha}")
    return problems


def check_denoise(clean, noisy, denoised) -> list[str]:
    """Finite, same length, and closer to the clean signal than the input."""
    out = np.asarray(denoised)
    if out.shape != noisy.shape:
        return [f"denoised shape {out.shape} != input shape {noisy.shape}"]
    if not np.all(np.isfinite(out)):
        return ["denoised output is not finite"]
    mse_in = float(np.mean((noisy - clean) ** 2))
    mse_out = float(np.mean((out - clean) ** 2))
    if not mse_out < mse_in:
        return [f"denoised mse {mse_out} not below input mse {mse_in}"]
    return []


def check_localize(result, parents, planted) -> list[str]:
    """Some maximal interval overlaps ``planted``; the rejected set is path-closed."""
    problems = []
    lo, hi = planted
    if not any(nd.start < hi and lo < nd.end for nd in result.maximal):
        problems.append(f"no maximal interval overlaps the planted one [{lo}, {hi})")
    rejected = {nd.vertex for nd in result.rejected}
    orphans = sorted(v for v in rejected if v != 0 and int(parents[v]) not in rejected)
    if orphans:
        problems.append(f"rejected set is not path-closed at vertices {orphans[:5]}")
    return problems


def same_localize(a, b) -> bool:
    return (
        a.rejected == b.rejected
        and a.maximal == b.maximal
        and a.frontier == b.frontier
        and np.array_equal(a.pvalues, b.pvalues)
        and np.array_equal(a.levels, b.levels)
    )
