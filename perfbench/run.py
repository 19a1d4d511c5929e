"""Benchmark for sphereq: one workload per run, end to end or layer by layer.

    python3 perfbench/run.py --workload greedy_ladder --seed 1 --seconds 12 --trace 0

The program is imported from ``src/`` next to this directory.  A run sets up
three times (imports timed in fresh interpreters, then input generation and
warm-up in this one), then runs the workload's round once cold and repeats
it until ``--seconds`` of timed rounds have passed and at least MIN_TIMED ran.
The outputs of the cold round are checked against computations made apart
from the program; every later round must reproduce them byte for byte.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``: end-to-end medians over the timed rounds with ``--trace 0``, or
with ``--trace 1`` per-layer figures from one more, traced, round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_TIMED = 2  # rounds after the first, which runs cold and is checked but not timed
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sphereq; "
    "print(time.perf_counter() - t); print(sphereq.__file__)"
)


def load_program():
    """Import sphereq from this checkout's src/; exit with an error when it is absent."""
    src = ROOT / "src"
    if not (src / "sphereq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'sphereq'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import sphereq
    import sphereq.cli  # noqa: F401  (submodules the workloads address by name)

    if Path(sphereq.__file__).resolve().parent != (src / "sphereq").resolve():
        sys.exit(f"perfbench: sphereq imported from {sphereq.__file__}, not {src}")
    return sphereq


def child_import_s() -> float:
    """Seconds a fresh interpreter spends importing sphereq from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, origin = proc.stdout.split("\n")[:2]
    if Path(origin).resolve().parent != (ROOT / "src" / "sphereq").resolve():
        raise RuntimeError(f"import probe loaded sphereq from {origin}")
    return float(seconds)


def environment(np_mod, scipy_mod):
    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "cores": os.cpu_count(),
        "SPHERE_EQ_THREADS": os.environ.get("SPHERE_EQ_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np_mod.__version__,
        "scipy": scipy_mod.__version__,
        "numpy_blas": blas(np_mod),
        "scipy_blas": blas(scipy_mod),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sq = load_program()
    import numpy as np
    import scipy

    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    print("# env " + json.dumps(environment(np, scipy)), flush=True)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, sq, wl, tr, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, sq, wl, tr, work) -> int:
    # --- set-up, several times: imports in fresh interpreters, then inputs and warm-up here
    imports = [child_import_s() for _ in range(SETUP_REPS)]
    prepare = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        load = wl.WORKLOADS[args.workload](sq, work, args.seed)
        load.make_inputs()
        wl.warm_up(sq, work)
        prepare.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(prepare)
    print(f"# setup: import {imports}, inputs+warm-up {prepare}")

    ops = load.ops()
    rounds, digests = [], []

    def one_round():
        rounds.append(load.run_round())
        digests.append({k: hashlib.sha256(v).hexdigest() for k, v in load.blobs(rounds[-1]).items()})

    # untraced rounds until --seconds of timed rounds have run, and at least MIN_TIMED
    while len(rounds) < 1 + MIN_TIMED or sum(r.wall_s for r in rounds[1:]) < args.seconds:
        one_round()
    timed = rounds[1:]
    layers = None
    if args.trace:
        probes = {
            "kernels.pycke_ns_per_arg": tr.ns_per_arg(sq, "pycke", args.seed),
            "kernels.cui_freeden_ns_per_arg": tr.ns_per_arg(sq, "cui-freeden", args.seed),
        }
        tracer = tr.Tracer(sq)
        tracer.install()
        try:
            wl.warm_up(sq, work)
            one_round()
        finally:
            tracer.uninstall()
        layers = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        for k, v in probes.items():
            layers[k] = {"value": v, "unit": "ns"}
        untraced = statistics.median(r.wall_s for r in timed)
        overhead = 100.0 * (rounds[-1].wall_s / untraced - 1.0)
        layers["bench.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
        # stage 2 is reported here, not gated end to end: see perfbench/README.md
        layers["workload.stage2_s"] = {
            "value": statistics.median(r.stage_s[1] for r in timed), "unit": "s"
        }
        for what in ("polish_objective", "polish_gradient"):
            print(f"# {what} calls per node by kernel: {tracer.per_node(what)[1]}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # --- checks of the first round, outside the timed section
    fails = load.check(rounds[0])
    failed = 0
    for i, dig in enumerate(digests):
        for op in ops:
            why = None
            if op not in dig:
                why = "no output (the call raised or exited nonzero)"
            elif fails.get(op):
                why = "; ".join(fails[op])
            elif op not in fails:
                why = "output was not checked"
            elif i > 0 and dig[op] != digests[0].get(op):
                why = f"round {i + 1} output differs from round 1"
            if why:
                failed += 1
                print(f"# FAILED round {i + 1} {op}: {why}")
    try:
        self_tests = load.self_tests(rounds[0])
    except KeyError as exc:  # a failed operation left no output to perturb
        print(f"# self-tests skipped: no output {exc}")
        self_tests = []
    correct = True
    for name, messages in self_tests:
        print(f"# self-test {name}: {'rejected' if messages else 'ACCEPTED (check is blind)'}")
        correct = correct and bool(messages)
    for i, r in enumerate(rounds):
        print(f"# round {i + 1}: stages {[round(s, 4) for s in r.stage_s]} s")

    if layers is None:
        med = statistics.median
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": med([r.wall_s for r in timed]), "unit": "s"},
            "stage1_s": {"value": med([r.stage_s[0] for r in timed]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layers
    result = {
        "correct": correct,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
