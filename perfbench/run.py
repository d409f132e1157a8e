"""Benchmark of sphshepard's fit and evaluate pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit-16k --seed 0 --seconds 20 --trace 0

The program is imported from ./src; the benchmark only hands it generated
arrays.  Standard output ends with an info line (workload, seed, machine,
run details) and, last, one JSON object with keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones from a traced run, whose spans
are also written to perfbench/out/.  Output checks that fail are listed on
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fit-16k", "eval-20k", "flat-limit")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or the capped setting."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (setting)"


def machine(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphshepard" / "__init__.py").is_file():
        print(f"error: no sphshepard sources at {SRC}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import sphshepard

    if Path(sphshepard.__file__).resolve().parent != (SRC / "sphshepard").resolve():
        print(f"error: imported sphshepard from {sphshepard.__file__}", file=sys.stderr)
        return 2
    import workloads

    outcome, metrics, info, tracer = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("info " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(nproc),
        **info,
    }))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
