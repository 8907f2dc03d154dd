"""The two benchmark workloads.

Each workload turns ``(seed, i)`` into the inputs of operation ``i``, runs
one operation through treetest's public API via a tracer (see ``spans``),
counts the work done and checks the output.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from treetest import (
    PROCEDURES,
    SimConfig,
    TrialMatrix,
    build_interval_tree,
    compare_procedures,
    denoise,
    localize,
)

import checks
from spans import NO_TRACE

EXPECTED_PATH = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 0


def op_seed(seed: int, i: int) -> int:
    """Program seed of operation ``i``: a pure function of (seed, i)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class SimWorkload:
    """One ``compare_procedures`` call per op: global null, independent statistics."""

    unit = "replications"

    def __init__(self, name, branching, procedures, replications, threads):
        self.name = name
        self.branching = tuple(branching)
        self.procedures = tuple(procedures)
        self.replications = replications
        self.threads = threads
        n_vertices = sum(int(np.prod(self.branching[:d])) for d in range(len(self.branching) + 1))
        n_leaves = int(np.prod(self.branching))
        universe = {"descend": n_vertices, "descend_local": n_vertices - 1}
        self.n_hypotheses = {p: universe.get(p, n_leaves) for p in PROCEDURES}
        self.n_vertices = n_vertices
        self._expected = None

    def program(self, seed: int, i: int) -> SimConfig:
        return SimConfig(
            trees=(self.branching,),
            replications=self.replications,
            seed=op_seed(seed, i),
        )

    def prepare(self, seed: int) -> None:
        self.seed = seed
        recorded = load_expected().get(self.name, {})
        self._expected = recorded.get("ops", []) if recorded.get("seed") == seed else []

    def inputs(self, i: int) -> SimConfig:
        return self.program(self.seed, i)

    def warmup(self) -> None:
        small = SimConfig(trees=(self.branching,), replications=64)
        compare_procedures(small, self.procedures, threads=self.threads)

    def op(self, tracer, cfg):
        return tracer.call(
            "simulate.compare_procedures",
            compare_procedures, cfg, self.procedures, threads=self.threads,
        )

    def work(self, reports) -> int:
        return reports[0].replications

    def check(self, i: int, cfg, reports) -> list[str]:
        expected = self._expected[i] if i < len(self._expected) else None
        return checks.check_sim(reports, cfg, self.procedures, self.n_hypotheses, expected)


class AppsWorkload:
    """One ``denoise`` plus one ``TrialMatrix`` + ``localize`` per op."""

    name = "apps"
    unit = "analyses"
    threads = 1
    alpha = 0.05
    n_samples = 1 << 16
    blocks = ((10000, 25000, 3.0), (40000, 47000, -2.0))
    n_trials, n_times, depth = 50, 4096, 10
    planted = (1000, 1100)
    effect = 0.5
    # Inputs are drawn once into a pool so that generating them stays out of
    # the timed loop; op i uses pool entry i mod POOL, drawn from (seed, i).
    POOL = 16

    def program(self, seed: int, i: int) -> None:
        return None

    def prepare(self, seed: int) -> None:
        self.seed = seed
        clean = np.zeros(self.n_samples)
        for lo, hi, value in self.blocks:
            clean[lo:hi] = value
        self.clean = clean
        self.pool = [self.draw(seed, j) for j in range(self.POOL)]
        # The benchmark's own copy of the subdivision, for the path check.
        self.parents = build_interval_tree(self.n_times, self.depth).tree.parent

    def draw(self, seed: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([seed, j])
        noisy = self.clean + rng.standard_normal(self.n_samples)
        trials = rng.standard_normal((self.n_trials, self.n_times))
        lo, hi = self.planted
        trials[:, lo:hi] += self.effect
        return noisy, trials

    def inputs(self, i: int):
        return self.pool[i % self.POOL]

    def warmup(self) -> None:
        for j in range(4):
            self.op(NO_TRACE, self.pool[j])

    def op(self, tracer, inp):
        noisy, trials = inp
        den = tracer.call("wavelet.denoise", denoise, noisy, self.alpha)
        tm = tracer.call("localize.TrialMatrix", TrialMatrix, trials)
        loc = tracer.call("localize.localize", localize, tm, self.alpha, self.depth)
        return den, loc

    def work(self, out) -> int:
        return 1

    def check(self, i: int, inp, out) -> list[str]:
        den, loc = out
        return checks.check_denoise(self.clean, inp[0], den.denoised) + checks.check_localize(
            loc, self.parents, self.planted
        )


def build(name: str):
    """A fresh workload object for ``name``."""
    if name == "sim-compare":
        return SimWorkload(
            "sim-compare", (2, 2, 2, 2), PROCEDURES, replications=65_536, threads=1,
        )
    if name == "apps":
        return AppsWorkload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sim-compare", "apps")
