"""Record the fixed-seed integer outputs of the sim-compare workload.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: for the default seed, the ``any_false``
count and a digest of ``rejection_counts`` of each procedure, for the first
ops of sim-compare.  The benchmark compares every such op against it, so
rerun this only when the simulator's outputs are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import NO_TRACE  # noqa: E402

OPS = {"sim-compare": 48}


def main() -> int:
    doc = {}
    for name, n_ops in OPS.items():
        wl = workloads.build(name)
        seed = workloads.DEFAULT_SEED
        ops = []
        for i in range(n_ops):
            cfg = wl.program(seed, i)
            reports = wl.op(NO_TRACE, cfg)
            problems = checks.check_sim(reports, cfg, wl.procedures, wl.n_hypotheses)
            if problems:
                print(f"{name} op {i}: {problems}", file=sys.stderr)
                return 1
            ops.append(checks.sim_identity(reports))
        doc[name] = {"seed": seed, "ops": ops}
        print(f"{name}: recorded {n_ops} ops", flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
