"""Per-layer probes for the traced run.

Every traced run reports every per-layer metric.  Each probe times public
calls into one module on the workload's own inputs where the workload has
them; otherwise it uses the inputs the sim-compare or apps workload draws
from the same seed.  Each replicated pipeline is checked against the
composite call it stands for.  Count metrics are pure functions of the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import statistics
from pathlib import Path

import numpy as np

from treetest import (
    PROCEDURES,
    TrialMatrix,
    WaveletTree,
    audit_alpha_sums,
    build_complete_tree,
    build_interval_tree,
    cli,
    compare_procedures,
    denoise,
    descend,
    descend_batch,
    estimate_sigma,
    haar_forward,
    haar_inverse,
    interval_pvalues,
    keep_mask,
    localize,
    simulate,
    two_sided_pvalue,
    uniform_levels,
)

import checks
import workloads

CLI_REPEATS = 3
SIM_REPEATS = 3
AUDIT_REPEATS = 3


def median_ms(tracer, name, last):
    """Median duration of the ``last`` spans called ``name``."""
    return statistics.median(tracer.durations_ms(name)[-last:])


def timed(tracer, name, repeats, fn, *args, **kwargs):
    """(median ms over ``repeats`` calls, last result), each call a span."""
    for _ in range(repeats):
        out = tracer.call(name, fn, *args, **kwargs)
    return median_ms(tracer, name, repeats), out


def draw_block0(sim, cfg) -> np.ndarray:
    """The statistics ``z`` of replication block 0 of ``cfg``.

    Re-derived from the simulator's documented stream contract (block b
    draws from ``default_rng([seed, b])``; under the global null with
    independent statistics that is one standard normal per cell).
    ``sim_layer`` checks the result against the simulator's own rejections.
    """
    if cfg.dependence != "independent" or cfg.truth != "global_null":
        raise ValueError("block replica supports the benchmark's design only")
    rows = min(cfg.block_size, cfg.replications)
    return np.random.default_rng([cfg.seed, 0]).standard_normal((rows, sim.n_vertices))


def sim_layer(tracer, wl, seed, problems) -> dict:
    sim = wl if isinstance(wl, workloads.SimWorkload) else workloads.build("sim-compare")
    cfg = sim.program(seed, 0)
    wide = min(2, os.cpu_count() or 1)
    # Calls whose times are subtracted or divided run back to back, round
    # after round, so that a slow phase of the host hits both sides.
    for _ in range(SIM_REPEATS):
        for proc in PROCEDURES:
            tracer.call(f"simulate.simulate[{proc}]", simulate, cfg, proc, threads=sim.threads)
        for threads in sorted({1, wide}):
            tracer.call(
                f"simulate.compare_procedures[threads={threads}]",
                compare_procedures, cfg, sim.procedures, threads=threads,
            )
    single = {p: median_ms(tracer, f"simulate.simulate[{p}]", SIM_REPEATS) for p in PROCEDURES}
    compare = {t: median_ms(tracer, f"simulate.compare_procedures[threads={t}]", SIM_REPEATS) for t in {1, wide}}
    k = len(sim.procedures)
    m = {f"simulate.{p}_ms": (single[p], "ms") for p in PROCEDURES}
    m["simulate.draw_est_ms"] = (
        (sum(single[p] for p in sim.procedures) - compare[sim.threads]) / (k - 1), "ms"
    )
    m["simulate.thread_speedup"] = (compare[1] / compare[wide], "ratio")
    m["simulate.vertex_reps"] = (cfg.replications * sim.n_vertices, "count")

    z = tracer.call("perfbench.draw_block0", draw_block0, sim, cfg)
    ms, pvals = timed(tracer, "gaussian.two_sided_pvalue", 3, two_sided_pvalue, z)
    m["gaussian.two_sided_pvalue_ms"] = (ms, "ms")
    m["gaussian.pvalue_mb"] = (16 * z.size / 1e6, "MB")
    tree = build_complete_tree(sim.branching)
    alloc = uniform_levels(tree, cfg.alpha)
    ms, (rejected, frontier) = timed(
        tracer, "procedures.descend_batch", 3, descend_batch, tree, alloc, pvals, validate=False
    )
    m["procedures.descend_batch_ms"] = (ms, "ms")
    m["procedures.tested_frac"] = (float((rejected | frontier).mean()), "fraction")

    one_block = dataclasses.replace(cfg, replications=pvals.shape[0])
    report = tracer.call("simulate.simulate[descend,block0]", simulate, one_block, "descend")
    if not np.array_equal(report.rejection_counts, rejected.sum(axis=0)):
        problems.append("descend_batch on the replicated block 0 disagrees with simulate")
    return m


def audit_layer(tracer, seed, problems) -> dict:
    alloc_seed = workloads.op_seed(seed, 0)
    for _ in range(AUDIT_REPEATS):
        profile = tracer.call(
            "simulate.audit_alpha_sums[profile]", audit_alpha_sums, seed=alloc_seed, literal_limit=0
        )
        full = tracer.call("simulate.audit_alpha_sums", audit_alpha_sums, seed=alloc_seed)
    problems.extend(checks.check_audit(full))
    if profile.violations or profile.cases_checked != full.cases_checked:
        problems.append("profile-only audit disagrees with the default audit")
    profile_ms = median_ms(tracer, "simulate.audit_alpha_sums[profile]", AUDIT_REPEATS)
    full_ms = median_ms(tracer, "simulate.audit_alpha_sums", AUDIT_REPEATS)
    return {
        "simulate.audit_profile_ms": (profile_ms, "ms"),
        "simulate.audit_literal_est_ms": (full_ms - profile_ms, "ms"),
    }


def apps_layer(tracer, apps, problems) -> dict:
    alpha, depth = apps.alpha, apps.depth
    tested = {"wavelet": [0, 0], "localize": [0, 0]}  # tested, testable
    for noisy, trials in apps.pool:
        wt = tracer.call("wavelet.haar_forward", haar_forward, noisy)
        sigma = tracer.call("wavelet.estimate_sigma", estimate_sigma, wt)
        mask = tracer.call("wavelet.keep_mask", keep_mask, wt, alpha, sigma)
        kept = WaveletTree(np.where(mask, wt.coeffs, 0.0), wt.J, sigma)
        rebuilt = tracer.call("wavelet.haar_inverse", haar_inverse, kept)
        den = tracer.call("wavelet.denoise", denoise, noisy, alpha)
        if not np.array_equal(rebuilt, den.denoised):
            problems.append("forward->sigma->keep_mask->inverse differs from denoise")
        # level-1 coefficients are always tested; below, the two children
        # of every kept coefficient of levels 1..J-1
        n = noisy.size
        tested["wavelet"][0] += 2 + 2 * int(mask[2 : n // 2].sum())
        tested["wavelet"][1] += n - 2

        tree = tracer.call("trees.build_complete_tree", build_complete_tree, [2] * depth)
        alloc = tracer.call("trees.uniform_levels", uniform_levels, tree, alpha)
        itree = tracer.call("localize.build_interval_tree", build_interval_tree, trials.shape[1], depth)
        tm = tracer.call("localize.TrialMatrix", TrialMatrix, trials)
        pv = tracer.call("localize.interval_pvalues", interval_pvalues, tm, itree)
        walk = tracer.call("procedures.descend", descend, tree, alloc, pv, validate=False)
        pre = tracer.call("localize.localize_prebuilt", localize, tm, alpha, depth, itree=itree)
        full = tracer.call("localize.localize", localize, tm, alpha, depth)
        if not checks.same_localize(pre, full):
            problems.append("localize with a prebuilt itree differs from localize")
        if walk.rejected != {nd.vertex for nd in full.rejected}:
            problems.append("descend on interval p-values differs from localize")
        tested["localize"][0] += len(walk.rejected) + len(walk.frontier)
        tested["localize"][1] += tree.n_vertices

    m = {}
    for name in (
        "trees.build_complete_tree", "trees.uniform_levels", "localize.build_interval_tree",
        "localize.interval_pvalues", "localize.localize_prebuilt", "procedures.descend",
        "wavelet.haar_forward", "wavelet.estimate_sigma", "wavelet.keep_mask", "wavelet.haar_inverse",
    ):
        m[f"{name}_ms"] = (median_ms(tracer, name, len(apps.pool)), "ms")
    for layer, (hit, total) in tested.items():
        m[f"{layer}.tested_frac"] = (hit / total, "fraction")
    return m


def cli_layer(tracer, apps, workdir: Path, problems) -> dict:
    noisy, trials = apps.pool[0]
    workdir.mkdir(parents=True, exist_ok=True)
    signal, trials_csv = workdir / "signal.txt", workdir / "trials.csv"
    denoised, located = workdir / "denoised.txt", workdir / "localize.json"
    signal.write_text("".join(f"{x!r}\n" for x in noisy.tolist()), encoding="utf-8")
    trials_csv.write_text(
        "".join(",".join(repr(x) for x in row) + "\n" for row in trials.tolist()), encoding="utf-8"
    )
    runs = {
        "cli.denoise": ["denoise", "--signal", str(signal), "--out", str(denoised)],
        "cli.localize": [
            "localize", "--trials", str(trials_csv), "--depth", str(apps.depth), "--out", str(located),
        ],
    }
    m = {}
    for name, argv in runs.items():
        for _ in range(CLI_REPEATS):
            with contextlib.redirect_stdout(io.StringIO()):
                code = tracer.call(name, cli.main, argv)
            if code != 0:
                problems.append(f"{name} exited with {code}")
        m[f"{name}_ms"] = (median_ms(tracer, name, CLI_REPEATS), "ms")

    want = denoise(noisy, apps.alpha).denoised
    got = np.array([float(x) for x in denoised.read_text(encoding="utf-8").split()])
    if not np.array_equal(got, want):
        problems.append("cli denoise output differs from denoise")
    doc = json.loads(located.read_text(encoding="utf-8"))
    lib = localize(TrialMatrix(trials), apps.alpha, apps.depth)
    if [(r["start"], r["end"]) for r in doc["maximal"]] != [(nd.start, nd.end) for nd in lib.maximal]:
        problems.append("cli localize output differs from localize")
    return m


def measure(tracer, wl, seed, workdir: Path, problems) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    tracer.op_id = "probe"
    if isinstance(wl, workloads.AppsWorkload):
        apps = wl
    else:
        apps = workloads.build("apps")
        apps.prepare(seed)
    m = {}
    m.update(sim_layer(tracer, wl, seed, problems))
    m.update(audit_layer(tracer, seed, problems))
    m.update(apps_layer(tracer, apps, problems))
    m.update(cli_layer(tracer, apps, workdir, problems))
    return m


def counts(metrics: dict) -> dict:
    """The per-layer metrics that must repeat exactly for a fixed seed."""
    names = ("simulate.vertex_reps", "gaussian.pvalue_mb", "procedures.tested_frac",
             "localize.tested_frac", "wavelet.tested_frac")
    return {n: metrics[n][0] for n in names}
