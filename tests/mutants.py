"""The mutation register: one-line mutants of the package, each with the test
that must kill it.

Run from the checkout as ``python tests/mutants.py``.  The runner first runs
the suite below on an unmutated copy, which must pass.  Then, for each
mutant, it copies ``src/`` and ``tests/`` to a temporary directory, with
``demos/`` and ``perfbench/``, which tests read and run, applies the mutant
and runs pytest ``-x``: the expected killer alone, then, if the killer
passes, the rest of the suite.  Left out are the pinned-output checks
(``tests/test_demos.py`` and ``TestFixedSeedReports``), which any change of
output fails.  It prints "killed" with the first failing test, or
"survived", and exits 1 if a mutant that is not in ``KNOWN_SURVIVORS``
survives.

Pytest does not collect this file; ``tests/test_structure.py`` checks that
every mutant's old text occurs exactly once in its module, so a refactor
cannot orphan an entry silently.  Never weaken or reword a mutant so that it
dies: add the test that kills it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
LEFT_OUT = [
    "--ignore=tests/test_demos.py",
    "--deselect=tests/test_simulate.py::TestFixedSeedReports",
]


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/treetest
    old: str  # occurs exactly once in the module
    new: str
    killer: str  # a pytest node id, relative to the checkout


MUTANTS = [
    Mutant("draw x0.98", "simulate.py",
           "        rng.standard_normal(out=draw)\n",
           "        rng.standard_normal(out=draw)\n        draw *= 0.98\n",
           "tests/test_simulate.py::TestCompare::test_global_null_matches_closed_forms"),
    Mutant("effect halved", "simulate.py",
           "np.add(draw, cfg.effect, out=draw, where=alt)",
           "np.add(draw, cfg.effect / 2, out=draw, where=alt)",
           "tests/test_simulate.py::TestCompare::test_flat_baselines_match_closed_forms"),
    Mutant("fold max as a sum", "trees.py",
           "np.maximum(acc, floor[par], out=acc)",
           "np.add(acc, floor[par], out=acc)",
           "tests/test_simulate.py::TestAuditAlphaSums::test_routes_agree_on_violations"),
    Mutant("fold drops the root layer", "trees.py",
           "for layer in reversed(tree.families):",
           "for layer in reversed(tree.families[1:]):",
           "tests/test_trees.py::TestFoldUpFloor::test_without_floor_the_fold_is_unchanged"),
    Mutant("denoise scans for the stop level from deepest - 1", "wavelet.py",
           "out = _synthesize(c, J, deepest)",
           "out = _synthesize(c, J, deepest - 1)",
           "tests/test_wavelet.py::TestDenoiseMatchesDenseReference::test_nothing_kept"),
    Mutant("denoise zeroes coeffs[2 : 1 << L]", "wavelet.py",
           "c[2 : 2 << deepest] = 0.0",
           "c[2 : 1 << deepest] = 0.0",
           "tests/test_wavelet.py::TestDenoiseMatchesDenseReference::test_deepest_kept_level"),
    Mutant("tested counts level J", "wavelet.py",
           "kept[: J - 1]",
           "kept[:J]",
           "tests/test_wavelet.py::TestDenoiseMatchesDenseReference::test_deepest_kept_level"),
    Mutant("haar_inverse reads -0.0 details as zero", "wavelet.py",
           "bits = c.view(np.int64)",
           "bits = c != 0.0",
           "tests/test_wavelet.py::TestBytesMatchFreshArrayReferences"
           "::test_inverse_below_the_finest_nonzero_level"),
    Mutant("haar_forward reads the last axis of a 0-d signal", "wavelet.py",
           "x.shape[-1] if x.ndim else 0",
           "x.shape[-1]",
           "tests/test_wavelet.py::TestHaarTransform::test_rejects_bad_lengths"),
    Mutant("tree depth = len(layers)", "trees.py",
           "len(layers) - 1",
           "len(layers)",
           "tests/test_trees.py::TestBuildCompleteTree::test_binary_depth_two"),
    Mutant("kid_start cumsum into kid_start[:-1]", "trees.py",
           "np.cumsum(counts, out=kid_start[1:])",
           "np.cumsum(counts, out=kid_start[:-1])",
           "tests/test_trees.py::TestBuildCompleteTree::test_breadth_first_ids"),
    Mutant("descent drops the last layer", "trees.py",
           "    for ids in tree.layers[1:]:\n        rejected[ids] &=",
           "    for ids in tree.layers[1:-1]:\n        rejected[ids] &=",
           "tests/test_procedures.py::TestDescend::test_matches_naive_reference"),
    Mutant("score cut one float low", "gaussian.py",
           "np.maximum(last, 0)",
           "np.maximum(last - 1, 0)",
           "tests/test_simulate.py::TestScoreCuts::test_every_cut_is_the_last_float_that_passes"),
    Mutant("nested truth by OR", "simulate.py",
           "self._nested(alt, truth, np.logical_and)",
           "self._nested(alt, truth, np.logical_or)",
           "tests/test_simulate.py::TestVectorizedKernels::test_nested_truth_derived_from_leaves"),
    Mutant("_nested skips the identity fill", "simulate.py",
           "            rows[:inner] = ufunc.identity\n",
           "",
           "tests/test_simulate.py::TestScratch::test_nested_block_ignores_what_the_scratch_held"),
    Mutant("nested sums normalized by L", "simulate.py",
           "np.sqrt(self.leaf_counts)",
           "self.leaf_counts",
           "tests/test_simulate.py::TestCompare::test_nested_descend_matches_closed_forms"),
    Mutant("BH step-down in the simulator", "simulate.py",
           "_sorted_cut(sorted_leaves, self.bh_cuts, step_up=True)",
           "_sorted_cut(sorted_leaves, self.bh_cuts)",
           "tests/test_simulate.py::TestVectorizedKernels::test_flat_procedures_match_scalar"),
    Mutant("< in the keep walk", "wavelet.py",
           "f[p <= alpha / (1 << j)]",
           "f[p < alpha / (1 << j)]",
           "tests/test_wavelet.py::TestKeepMaskMatchesDenseReference"
           "::test_coefficients_exactly_on_the_threshold"),
    Mutant("localize at alpha/2", "localize.py",
           "alloc = uniform_levels(tree, alpha)",
           "alloc = uniform_levels(tree, alpha / 2)",
           "tests/test_localize.py::TestLocalize::test_pure_noise_family_error_is_exact"),
    Mutant("sigma-hat quantile 0.24", "wavelet.py",
           "std_normal_quantile(0.25)",
           "std_normal_quantile(0.24)",
           "tests/test_wavelet.py::TestEstimateSigma::test_matches_two_median_reference_1d"),
    Mutant("FDP denominator +1", "procedures.py",
           "fdp = false_rej / np.maximum(n_rej, 1)",
           "fdp = false_rej / (np.maximum(n_rej, 1) + 1)",
           "tests/test_procedures.py::TestErrorReportMatchesReference"
           "::test_flags_ids_and_tree_rejections"),
    Mutant("power denominator +1", "procedures.py",
           "np.maximum(rejected.shape[0] - _count(null, axis=0), 1)",
           "(np.maximum(rejected.shape[0] - _count(null, axis=0), 1) + 1)",
           "tests/test_procedures.py::TestErrorReportMatchesReference"
           "::test_flags_ids_and_tree_rejections"),
    Mutant("local Holm too strict", "procedures.py",
           "levels[par, None] / np.arange(k, 0, -1)",
           "levels[par, None] / np.arange(k + 1, 1, -1)",
           "tests/test_simulate.py::TestCompare::test_descend_local_matches_closed_forms"),
    Mutant("budget slack 1e-3", "trees.py",
           "> levels + LEVEL_SUM_TOL",
           "> levels + 1e-3",
           "tests/test_trees.py::TestAllocationsMatchReference::test_budget_violations_equal"),
    Mutant("weighted levels +1%", "trees.py",
           "_split_levels(tree, alpha, w, tree.child_sums(w))",
           "_split_levels(tree, alpha, w * 1.01, tree.child_sums(w))",
           "tests/test_trees.py::TestAllocationsMatchReference::test_weighted_levels_bit_equal"),
    Mutant("interval z scaled down", "localize.py",
           "z = (prefix[ends] - prefix[starts]) / scales",
           "z = (prefix[ends] - prefix[starts]) / scales * 0.99",
           "tests/test_localize.py::TestIntervalPvalue::test_reference_shift"),
    Mutant("p-value kernel without its factor 2", "gaussian.py",
           "z *= 2.0",
           "z *= 1.0",
           "tests/test_localize.py::TestIntervalPvalue::test_reference_shift"),
    Mutant("pool gets every block at once", "simulate.py",
           "_BLOCKS_AT_ONCE = 1024",
           "_BLOCKS_AT_ONCE = 1 << 30",
           "tests/test_simulate.py::TestCompare::test_bookkeeping_does_not_grow_with_block_count"),
    Mutant("chunk of blocks one short", "simulate.py",
           "blocks[lo : lo + _BLOCKS_AT_ONCE]",
           "blocks[lo : lo + _BLOCKS_AT_ONCE - 1]",
           "tests/test_simulate.py::TestCompare"
           "::test_blocks_handed_over_in_chunks_sum_like_one_run"),
    Mutant("count floor refuses the floor", "trees.py",
           "if (value := _number(value, where, True)) < least:",
           "if (value := _number(value, where, True)) <= least:",
           "tests/test_trees.py::TestCountArguments::test_floor_accepted"),
]

# Mutants no test is known to kill, by name; each is a gap to close.
KNOWN_SURVIVORS: frozenset[str] = frozenset()


def mutated(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's old text replaced; ``ValueError`` unless it
    occurs exactly once."""
    if (found := text.count(mutant.old)) != 1:
        raise ValueError(f"{mutant.name}: old text found {found} times in {mutant.module}")
    return text.replace(mutant.old, mutant.new)


def first_failure(copy: Path, args: list[str]) -> Optional[str]:
    """The first failing test of ``pytest -x args`` in ``copy``, or None if it passes."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=copy, capture_output=True, text=True, env={"PYTHONPATH": str(copy / "src"),
                                                       "PATH": "/usr/bin:/bin"},
    )
    if run.returncode == 0:
        return None
    failed = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode not in (1, 2) or not failed:
        raise RuntimeError(f"pytest {' '.join(args)} exited {run.returncode}:\n"
                           f"{run.stdout}{run.stderr}")
    return failed[0]


def run(mutant: Optional[Mutant], tests: list[list[str]]) -> Optional[str]:
    """Copy the sources and tests, apply ``mutant`` (none: the copy is left
    as it is) and return the first failure of the pytest runs ``tests``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "demos", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = copy / "src" / "treetest" / mutant.module
            path.write_text(mutated(mutant, path.read_text()))
        for args in tests:
            if (failed := first_failure(copy, args)) is not None:
                return failed
    return None


def main() -> int:
    started = time.perf_counter()
    if (failed := run(None, [["tests", *LEFT_OUT]])) is not None:
        print(f"unmutated copy fails {failed}")
        return 2
    unexpected = []
    for mutant in MUTANTS:
        began = time.perf_counter()
        failed = run(mutant, [[mutant.killer], ["tests", *LEFT_OUT]])
        took = time.perf_counter() - began
        if failed is None:
            print(f"survived  {mutant.name}  ({took:.1f} s)")
            if mutant.name not in KNOWN_SURVIVORS:
                unexpected.append(mutant.name)
        else:
            print(f"killed    {mutant.name}  by {failed}  ({took:.1f} s)")
    print(f"{len(MUTANTS)} mutants, {len(unexpected)} unexpected survivor(s), "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
