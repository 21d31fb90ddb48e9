"""Benchmark for cullsq: label-free culling, sketched Kaczmarz and the CLI.

Run one workload, from the root of a checkout:

    python3 perfbench/run.py --workload cull --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes a separate traced
run and reports the per-layer metrics.  ``--workload all`` runs the
three workloads, each in its own process, and prints every metric.
``--smoke`` runs every workload at a small size, with every check.

cullsq is imported from ``src/`` of the checkout; the benchmark stops
with an error when it is missing.  The BLAS thread count is fixed in the
environment of this process and of every process it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("cull", "sketch-solve", "cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEFAULT_BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small sizes, every check")
    p.add_argument("--blas-threads", type=int, default=DEFAULT_BLAS_THREADS,
                   help="BLAS threads per process, at most the core count (default 1)")
    return p.parse_args(argv)


def child_env(threads):
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_all(args, env):
    """Each workload in its own process; prints every metric it reports."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--blas-threads", str(args.blas_threads)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print(f"  {line}")
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 3


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cullsq" / "__init__.py").is_file():
        print(f"error: no cullsq sources under {SRC}", file=sys.stderr)
        return 1
    cores = os.cpu_count() or 1
    if not 1 <= args.blas_threads <= cores:
        print(f"error: --blas-threads must be between 1 and {cores}", file=sys.stderr)
        return 1
    env = child_env(args.blas_threads)
    os.environ.update({var: env[var] for var in BLAS_THREAD_VARS})
    if args.workload == "all":
        return run_all(args, env)

    # numpy reads the BLAS thread count when it is first imported
    sys.path[:0] = [str(SRC), str(HERE)]
    import cullsq
    if Path(cullsq.__file__).resolve().parent != (SRC / "cullsq").resolve():
        print(f"error: imported cullsq from {cullsq.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import workloads

    out_dir = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if args.trace:
        import traced
        metrics, detail, tally = traced.run(args.seed, args.smoke, out_dir, env)
    else:
        metrics, detail, tally = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, args.smoke, out_dir, env)
    shutil.rmtree(out_dir / "cli", ignore_errors=True)  # CSV inputs, tens of MB
    for problem in tally.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **detail}.items():
        shown = " ".join(f"{v:.4g}" for v in value) if isinstance(value, list) else f"{value:.6g}"
        print(f"{name} {shown} {unit}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (out_dir / "result.json").write_text(json.dumps(
        {**result, "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}},
        indent=1) + "\n")
    print(line)
    return 0 if tally.correct else 3


if __name__ == "__main__":
    sys.exit(main())
