"""Command-line round trip at the scale target, through .npy files.

Runs four cullsq commands, one child process each, in a scratch
directory:

    cullsq gen --n N --d D --noise 1 --seed 0 --out-x x.npy --out-y y.npy
    cullsq reject-sample --x x.npy --k K --count COUNT --seed 0 --out subsets.csv
    cullsq solve --x x.npy --y y.npy --out w.csv
    cullsq kaczmarz --x x.npy --y y.npy --mode exact --iters ITERS --seed 0

It prints each child's peak resident set, read with ``os.wait4``, and its
wall time, then deletes the files.  It exits 1 if a command fails or a
child's peak exceeds X + 150 MiB, X being the n x d float64 design: a
gaussian X takes one Cholesky QR pass, so the thin SVD holds X itself
as its basis and a d x d factor, and forms the rows of U that a command
reads from them; no n x d array besides X is allowed.  The
default size is the scale target, n = 10^6 and d = 50, with the paper's
k = n / (d + sqrt n) and 200 subsets.  The exact Kaczmarz solve takes
its leverage weights from one sweep of U's rows formed block by block,
sums them in place into the cumulative weights it draws from, and forms
its sampled rows; its 1000 iterations are about twice the
d ln(n / d) it needs on this well conditioned X (the labels carry noise,
so the run measures time and memory, not convergence).

    python tools/scale_roundtrip.py [--n N] [--dir DIR]

The script imports no numpy, so its own small resident set, which a
child started by vfork is charged for, stays far below the limit.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
D, COUNT, ITERS = 50, 200, 1000
SLACK_MIB = 150


def run_child(argv, env):
    """(exit status, peak RSS in MiB, wall seconds) of one cullsq command."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "cullsq.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, usage.ru_maxrss / 1024, time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=10**6, help="rows of X (default 10^6)")
    p.add_argument("--dir", help="parent of the scratch directory (default: the system temp)")
    args = p.parse_args(argv)
    N = args.n
    if N <= D:
        p.error(f"--n must exceed d = {D}")
    K = int(N / (D + math.sqrt(N)))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    limit = N * D * 8 / 2**20 + SLACK_MIB

    work = Path(tempfile.mkdtemp(prefix="cullsq-scale-", dir=args.dir))
    x, y = str(work / "x.npy"), str(work / "y.npy")
    commands = [
        ("gen", ["gen", "--n", str(N), "--d", str(D), "--noise", "1",
                 "--seed", "0", "--out-x", x, "--out-y", y]),
        ("reject-sample", ["reject-sample", "--x", x, "--k", str(K), "--count", str(COUNT),
                           "--seed", "0", "--out", str(work / "subsets.csv")]),
        ("solve", ["solve", "--x", x, "--y", y, "--out", str(work / "w.csv")]),
        ("kaczmarz", ["kaczmarz", "--x", x, "--y", y, "--mode", "exact",
                      "--iters", str(ITERS), "--seed", "0"]),
    ]
    print(f"{N}x{D}, k = {K}, count = {COUNT}, Kaczmarz iterations = {ITERS}; "
          f"limit X + {SLACK_MIB} MiB = {limit:.0f} MiB")
    ok = True
    try:
        for name, cmd in commands:
            code, peak, wall = run_child(cmd, env)
            within = code == 0 and peak <= limit
            ok = ok and within
            print(f"{name:>14}: exit {code}, peak {peak:7.1f} MiB, "
                  f"{wall:6.2f} s{'' if within else '  FAIL'}", flush=True)
            if code != 0:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
