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
    Mutant("denoise L = deepest or -1", "wavelet.py",
           "L = deepest or (0 if c[1:2].view(np.int64).any() else -1)",
           "L = deepest or -1",
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
