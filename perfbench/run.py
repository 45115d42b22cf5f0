"""End-to-end and per-layer benchmark for sparseagg.

    python3 perfbench/run.py --workload train-sparse40 --seed 1 --seconds 24 --trace 0

Run from the repository root.  A run writes synthetic CIFAR-10 from
``--seed`` and drives one workload of ``workloads.py`` in a single process.

``--trace 0`` repeats [analysis task set, set-up, timed training, analysis
task set] three times; each repetition trains whole epochs for about
``--seconds / 3``.
It prints the end-to-end metrics:

* ``setup_s``: median of load_cifar10 + compile_network + one warm-up
  optimizer step.  Writing the synthetic data is input generation and is
  not counted.
* ``step_s.p50``: median optimizer-step wall time, warm-up excluded.
* ``train_img_per_s``: train images / (time in train_model - time in evaluate).
* ``eval_img_per_s``: images / time in evaluate.
* ``peak_train_bytes`` / ``peak_eval_bytes``: tracemalloc peak (numpy heap)
  over one optimizer step / one evaluate batch, in a pass of its own;
  tracemalloc is off while anything is timed.  ``ru_maxrss`` is printed
  beside them as supporting data.
* ``analysis_s``: median wall time of the analysis task set (``analysis.py``)
  at a fixed host speed: each run's wall time is divided by the mean time
  of the host-speed probes timed just before and after it, and multiplied
  by ``PROBE_NOMINAL_S``.  The raw wall times are kept as supporting data.

``--trace 1`` prints the per-layer metrics instead, from an untraced
timing pass, a traced pass restarted from the same checkpoint, a
tracemalloc pass for retained bytes and traced analysis runs.  Per-op
times are seconds per training step; ``trace.overhead_s`` is traced minus
untraced ``step_s.p50``.  It also prints forward and backward time,
retained bytes, analyzer FLOPs and achieved GFLOP/s for each CostReport row.

Metric names and units are those declared in ``BENCHMARK.json``.  Every
run checks its outputs: finite losses, bit-identical losses across repeats
of the same seed, closed-form graph counts and published analyzer totals.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the error rate.  The
exit code is 1 when a check or a step fails, and 2 when the package, its
configs or ``BENCHMARK.json`` are missing.  The full report, with
provenance, is also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use.

    Runs before numpy is imported, because BLAS reads these at load time.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def git_sha() -> str:
    # The ceiling keeps git from reading a repository above this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def blas_threads(np) -> int | str:
    """Thread count reported by the OpenBLAS that numpy bundles, else the env cap."""
    import ctypes

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def provenance(args, nproc: int) -> dict:
    import numpy as np

    from sparseagg import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "kernel_backend": _kernels.active_backend(),
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="sparseagg end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    needed = (os.path.join(ROOT, "src", "sparseagg", "__init__.py"),
              os.path.join(ROOT, "configs"), os.path.join(ROOT, "BENCHMARK.json"))
    missing = [path for path in needed if not os.path.exists(path)]
    if missing:
        print(f"cannot run: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, Bench  # noqa: E402 - needs the BLAS cap and sys.path above

    args = parse_args(argv, WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workdir = os.path.join(HERE, "work", str(os.getpid()))
    bench = Bench(args.workload, args.seed, args.seconds, ROOT, workdir)
    metrics: dict[str, float] = {}
    error = None
    os.makedirs(workdir)
    try:
        bench.write_inputs()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except Exception:  # a failed step or pass is reported as a failure, not raised
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not error:
        bench.check("metrics match BENCHMARK.json", set(metrics) == set(units),
                    f"extra {sorted(set(metrics) - set(units))}, "
                    f"missing {sorted(set(units) - set(metrics))}")

    info = provenance(args, nproc)
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, ok, detail in bench.checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}")
    failed = sum(not ok for _, ok, _ in bench.checks) + (error is not None)
    attempted = bench.steps_attempted + len(bench.checks) + (error is not None)
    print(f"error_rate {failed / attempted:.4g} ({failed} failed of {attempted} "
          f"steps and output checks)")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units.get(name, '?')}")
    bench.supporting["ru_maxrss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"ru_maxrss_bytes {bench.supporting['ru_maxrss_bytes']} (whole process, supporting data)")
    if bench.rows:
        print(f"{'row':>12} {'fwd_s':>9} {'bwd_s':>9} {'retained_B':>11} {'flops':>12} {'GFLOP/s':>8}")
        for r in bench.rows:
            print(f"{r['row']:>12} {r['fwd_s']:9.4f} {r['bwd_s']:9.4f} {r['retained_bytes']:11d} "
                  f"{r['flops']:12d} {r['gflops']:8.2f}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units.get(name, "?")}
                    for name in sorted(metrics)},
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": info, "checks": bench.checks, "rows": bench.rows,
                   "supporting": bench.supporting, "error": error}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
