"""voxelmatch benchmark: one workload per process, or all three in turn.

    python3 benchmarks/run.py --workload all            # every end-to-end metric, checked
    python3 benchmarks/run.py --workload all --trace 1  # every per-layer metric
    python3 benchmarks/run.py --workload align-nn-128 --seed 0 --seconds 15 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src``.  The last stdout line of a single-workload run is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 900


def _limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def machine_info(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": platform.machine(),
    }


def run_one(args, nproc: int) -> int:
    from voxbench import layers, workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{wl.name}-seed{args.seed}.trace.jsonl"
        result = workloads.measure_traced(wl, args.seed, trace_path)
        units = layers.PER_LAYER
    else:
        result = workloads.measure(wl, args.seed, args.seconds)
        units = workloads.END_TO_END

    inputs = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "pairs": [f"{s}/{r}" for s, r in workloads.pair_plan(wl.n_pairs)],
        "phantom": f"{wl.dims}^3 at 1 mm", "working_grid": f"{wl.dims // 2}^3 at 2 mm",
        "matcher": wl.matcher,
    }
    if wl.kind == "train":
        inputs["train_steps_per_call"] = workloads.TRAIN_STEPS
    print(f"# voxelmatch benchmark: {wl.name} (seed {args.seed}, trace {args.trace})")
    print("machine " + json.dumps(machine_info(nproc)))
    print("inputs " + json.dumps(inputs))
    for name, value in result.metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print("report " + json.dumps(result.report, default=float))
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print("checks " + ("ok" if not result.problems else f"{len(result.problems)} failed"))
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so its peak RSS is its own; then one summary table."""
    from voxbench import workloads

    rows, ok = [], True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for metric, v in result["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "correct", result["correct"], ""))
    print("\n# summary")
    for name, metric, value, unit in rows:
        shown = f"{value:14.6g}" if not isinstance(value, bool) else f"{value!s:>14}"
        print(f"{name:20s} {metric:40s} {shown} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (SRC / "voxelmatch" / "__init__.py").is_file():
        print(f"voxelmatch sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    from voxbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
