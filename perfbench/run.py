"""treetest benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sim-compare --seed 1 --seconds 45 --trace 0

``--trace 0`` runs the workload's ops closed-loop (each op starts when the
previous one has finished) for ``--seconds`` and reports the end-to-end
metrics, with every timing scaled to a fixed host speed (see
``hostspeed``).  ``--trace 1`` runs the same ops, alternately with and
without spans, then probes every layer and reports the per-layer metrics.  Both
check every op's output.  The last stdout line is the JSON result; the full
record (provenance, samples, spans) goes to ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# setup_s is the median over fresh processes, half timed before the ops and
# half after, so that it samples more than one moment of a noisy machine;
# the first process only warms the file cache and is not timed.
SETUP_RUNS = 5
# The untraced ops are cut into windows of at least this much op time; the
# host speed is measured in each window and scales that window's op times.
WINDOW_S = 0.5
# Host-speed samples are taken before an op, SAMPLES_EACH at a time, once
# this long has passed since the last ones.
SAMPLE_EVERY_S = 0.2
SAMPLES_EACH = 3
SETUP_SAMPLES = 5

SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
started = time.perf_counter()
import treetest
import workloads
workloads.build({name!r}).program({seed!r}, 0)
took = time.perf_counter() - started
import hostspeed
hostspeed.sample()
print(took, hostspeed.factor([hostspeed.sample() for _ in range({samples})]))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(wl, args) -> dict:
    import scipy
    import treetest

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": wl.threads,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "treetest": treetest.__version__,
        "git_sha": git_sha(),
    }


def measure_setup(name: str, seed: int, runs: int) -> list[list[float]]:
    """[seconds, host-speed factor] to import treetest and build the
    workload's program objects, each in a fresh interpreter."""
    code = SETUP_CHILD.format(
        src=str(SRC), bench=str(BENCH), name=name, seed=seed, samples=SETUP_SAMPLES
    )
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            cwd=ROOT, check=True,
        )
        times.append([float(x) for x in done.stdout.split()[-2:]])
    return times


def run_ops(wl, seconds: float, tracer=None) -> dict:
    """Closed loop over ops 0, 1, ... until ``seconds`` have passed.

    With a tracer, odd ops run traced and even ops untraced, so the two
    latency lists give the tracing overhead; at least one op of each kind
    runs.
    """
    from spans import NO_TRACE

    plain, plain_work, plain_speed, traced, problems = [], [], [], [], []
    pending, sampled = [], None
    attempted = 0
    started = time.perf_counter()
    i = 0
    while time.perf_counter() - started < seconds or i < (2 if tracer else 1):
        if sampled is None or time.perf_counter() - sampled >= SAMPLE_EVERY_S:
            pending += [hostspeed.sample() for _ in range(SAMPLES_EACH)]
            sampled = time.perf_counter()
        inp = wl.inputs(i)
        use = tracer if tracer is not None and i % 2 else NO_TRACE
        bad = []
        t0 = time.perf_counter()
        try:
            if use is NO_TRACE:
                out = wl.op(use, inp)
            else:
                use.op_id = i
                with use.span("op"):
                    out = wl.op(use, inp)
            t1 = time.perf_counter()
            bad = wl.check(i, inp, out)
        except Exception as exc:  # an op that raises is a failed op; keep going
            t1 = time.perf_counter()
            bad = [f"raised {exc!r}", traceback.format_exc()]
        attempted += 1
        if bad:
            problems.append({"op": i, "problems": bad})
        elif use is NO_TRACE:
            plain.append((t1 - t0) * 1e3)
            plain_work.append(wl.work(out))
            plain_speed.append(pending)
            pending = []
        else:
            traced.append((t1 - t0) * 1e3)
        i += 1
    return {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "plain_ms": plain,
        "plain_work": plain_work,
        "plain_speed_ms": plain_speed,
        "traced_ms": traced,
    }


def percentile(values, q):
    """``q``-th percentile, or 0 when every op failed."""
    return float(numpy.percentile(values, q)) if values else 0.0


def windows(ops: dict) -> list[dict]:
    """The untraced ops cut, in order, into windows of at least ``WINDOW_S``
    of op time (the last window takes any remainder), each with the factor
    that scales its times to the nominal host speed.  A window without a
    host-speed sample of its own uses the previous window's factor."""
    out, cur = [], None
    for ms, done, speed in zip(ops["plain_ms"], ops["plain_work"], ops["plain_speed_ms"]):
        if cur is None:
            cur = {"ms": [], "work": 0, "speed_ms": []}
        cur["ms"].append(ms)
        cur["work"] += done
        cur["speed_ms"] += speed
        if sum(cur["ms"]) >= WINDOW_S * 1e3:
            out.append(cur)
            cur = None
    if cur is not None and out:
        last = out[-1]
        last["ms"] += cur["ms"]
        last["work"] += cur["work"]
        last["speed_ms"] += cur["speed_ms"]
    elif cur is not None:
        out.append(cur)
    for k, w in enumerate(out):
        w["factor"] = hostspeed.factor(w["speed_ms"]) if w["speed_ms"] else out[k - 1]["factor"]
    return out


def end_to_end(ops: dict, setup: list[list[float]], scaled: bool = True) -> dict:
    """The end-to-end metrics; with ``scaled``, timings are at the nominal
    host speed, otherwise as measured."""
    wins = windows(ops)
    scale = [w["factor"] if scaled else 1.0 for w in wins]
    lat = [ms * f for w, f in zip(wins, scale) for ms in w["ms"]]
    busy_s = sum(lat) / 1e3
    work = sum(w["work"] for w in wins)
    return {
        "work_per_s": (work / busy_s if busy_s else 0.0, "1/s"),
        "op_ms_p50": (percentile(lat, 50), "ms"),
        "op_ms_p90": (percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(t * (f if scaled else 1.0) for t, f in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def compare_counts(path: Path, counts: dict) -> list[str]:
    """Problems if ``counts`` differ from those a previous traced run with
    the same workload and seed left at ``path``; then store ``counts``."""
    problems = []
    if path.is_file():
        before = json.loads(path.read_text(encoding="utf-8"))
        problems = [
            f"count {k} was {before.get(k)!r} in an earlier run with this seed, now {v!r}"
            for k, v in counts.items() if before.get(k) != v
        ]
    path.write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="utf-8")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treetest" / "__init__.py").is_file():
        print(f"error: no treetest package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import treetest

    if Path(treetest.__file__).resolve().parent != SRC / "treetest":
        print(f"error: imported treetest from {treetest.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from spans import Tracer

    try:
        wl = workloads.build(args.workload)
    except ValueError as exc:
        print(f"error: {exc}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    prov = provenance(wl, args)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"

    setup, checks_failed = [], []
    if args.trace == 0:
        setup = measure_setup(wl.name, args.seed, SETUP_RUNS + 1)[1:]
    wl.prepare(args.seed)
    wl.warmup()
    record = {"provenance": prov, "setup_s": setup}
    if args.trace == 0:
        ops = run_ops(wl, args.seconds)
        setup += measure_setup(wl.name, args.seed, SETUP_RUNS)
        metrics = end_to_end(ops, setup)
        measured = {k: v for k, (v, _) in end_to_end(ops, setup, scaled=False).items()}
        print("as measured, before host-speed scaling " + json.dumps(measured), flush=True)
        record["as_measured"] = measured
    else:
        tracer = Tracer()
        ops = run_ops(wl, args.seconds, tracer)
        workdir = OUT / f"tmp-{os.getpid()}"
        try:
            metrics = layers.measure(tracer, wl, args.seed, workdir, checks_failed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        overhead = percentile(ops["traced_ms"], 50) - percentile(ops["plain_ms"], 50)
        metrics["trace.overhead_ms"] = (overhead, "ms")
        counts = layers.counts(metrics)
        checks_failed += compare_counts(OUT / f"counts-{wl.name}-seed{args.seed}.json", counts)
        record["counts"] = counts
        record["spans"] = tracer.to_doc()

    n = len(ops["plain_ms"]) + len(ops["traced_ms"])
    done = sum(ops["plain_work"])
    print(f"{wl.name}: {n} ops ok of {ops['attempted']}, {done} {wl.unit} done untraced", flush=True)
    for p in ops["problems"]:
        print(f"check failed on op {p['op']}: {p['problems'][0]}", file=sys.stderr)
    for problem in checks_failed:
        print(f"check failed in the layer probes: {problem}", file=sys.stderr)
    result = {
        "correct": ops["failed"] == 0 and not checks_failed,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(ops=ops, checks_failed=checks_failed, result=result)
    (OUT / f"{tag}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
