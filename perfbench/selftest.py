"""Show that every output check fires on a corrupted result.

    python3 perfbench/selftest.py

Each case takes a correct result, corrupts one property and expects the
check to report a problem; the uncorrupted result must pass.  Exits 1 if any
check stays silent or a correct result is rejected.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

from treetest import SimConfig, audit_alpha_sums, compare_procedures  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import NO_TRACE  # noqa: E402


def sim_cases():
    procs = ("descend", "holm_flat")
    cfg = SimConfig(trees=((2, 2),), replications=4000, seed=3)
    reports = compare_procedures(cfg, procs)
    n_hyp = {"descend": 7, "holm_flat": 4}
    good = checks.sim_identity(reports)

    def check(rs, expected=good):
        return checks.check_sim(rs, cfg, procs, n_hyp, expected)

    def first(**changes):
        return [dataclasses.replace(reports[0], **changes)] + reports[1:]

    bad_counts = reports[0].rejection_counts.copy()
    bad_counts[0] += 1
    yield "sim: correct reports", check(reports), False
    yield "sim: fwer_hat above the 5-sigma bound", check(first(fwer_hat=0.2)), True
    yield "sim: domination violation", check(first(domination_violations=1)), True
    yield "sim: replication count", check(first(replications=3999)), True
    yield "sim: hypothesis count", check(first(n_hypotheses=6)), True
    yield "sim: any_false differs from the record", check(first(any_false=reports[0].any_false + 1)), True
    yield "sim: rejection_counts differ from the record", check(first(rejection_counts=bad_counts)), True
    yield "sim: procedure order", check(reports[::-1]), True


def audit_cases():
    audit = audit_alpha_sums()
    yield "audit: correct result", checks.check_audit(audit), False
    for field, value in (
        ("violations", 1),
        ("cases_checked", checks.AUDIT_CASES - 1),
        ("literal_trees", 8),
        ("max_level_sum", audit.alpha + 1e-6),
    ):
        yield f"audit: {field}", checks.check_audit(dataclasses.replace(audit, **{field: value})), True


def apps_cases():
    apps = workloads.build("apps")
    apps.POOL = 1
    apps.prepare(workloads.DEFAULT_SEED)
    noisy, trials = apps.pool[0]
    den, loc = apps.op(NO_TRACE, apps.pool[0])
    out = den.denoised

    def denoised(x):
        return checks.check_denoise(apps.clean, noisy, x)

    def located(**changes):
        return checks.check_localize(dataclasses.replace(loc, **changes), apps.parents, apps.planted)

    nan = out.copy()
    nan[5] = np.nan
    yield "apps: correct output", denoised(out) + located(), False
    yield "apps: non-finite output", denoised(nan), True
    yield "apps: output length", denoised(out[:-1]), True
    yield "apps: output no closer than the input", denoised(noisy), True
    yield "apps: no maximal interval on the planted one", located(maximal=()), True
    yield "apps: rejected set not path-closed", located(rejected=loc.rejected[1:]), True
    yield "apps: localize pipelines differ", [] if checks.same_localize(loc, dataclasses.replace(
        loc, frontier=loc.frontier[1:])) else ["differs"], True


def runner_cases():
    class Raising:
        def inputs(self, i):
            return i

        def op(self, tracer, inp):
            raise ValueError("corrupted op")

    ops = run.run_ops(Raising(), 0.01)
    yield "runner: an op that raises counts as failed", [ops["problems"]] if ops["failed"] else [], True

    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        path = workdir / "counts.json"
        counts = {"procedures.tested_frac": 0.25, "simulate.vertex_reps": 31}
        yield "counts: first run", run.compare_counts(path, counts), False
        yield "counts: same counts again", run.compare_counts(path, counts), False
        changed = dict(counts, **{"procedures.tested_frac": 0.2500001})
        yield "counts: a count changed between runs", run.compare_counts(path, changed), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    wrong = 0
    for cases in (sim_cases(), audit_cases(), apps_cases(), runner_cases()):
        for label, problems, should_fire in cases:
            ok = bool(problems) == should_fire
            wrong += not ok
            state = "fires" if problems else "passes"
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {state}")
    print(f"{wrong} case(s) wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
