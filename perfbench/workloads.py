"""The benchmark's three workloads and their output checks.

Each workload builds its inputs from the seed, warms up, then repeats
one fixed block of work (a round) until the run's seconds are used and
reports medians over the rounds.  Every output is checked against
numpy computations made apart from cullsq or against properties the
method must have.

* cull: label-free row rejection at the paper's k = n/(d + sqrt n).
* sketch-solve: fast (sketched) and exact (SVD) Kaczmarz on a
  consistent, ill-conditioned system.
* cli: the ``cullsq`` command line over CSV files, one process per
  command, plus the six ``cullsq verify`` experiments.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cullsq.errors import CullsqError
from cullsq.kaczmarz import FastSolverConfig, labels_for_target
from cullsq.regression import Dataset
from cullsq.rng import RngStream

from tracing import NullTracer, TracedModule

LIBRARY_LAYERS = ("regression", "influence", "sketching", "kaczmarz", "dataio",
                  "experiments", "designs")
SPEC_TOL = 1e-10           # a kept subset must leave ||P_A||_2 below 1 - SPEC_TOL
MARKOV = 100.0             # an expected-error bound may be exceeded by this factor
EMBEDDING_KAPPA = math.sqrt(3.0)  # kappa(X R^-1) under a 1/2-embedding
CLI_TIMEOUT_S = 170.0
GAUSSIAN_KAPPA = 2.0       # bounds kappa of a tall gaussian matrix; sets the cli iteration counts


class Lib:
    """The cullsq modules a workload calls: plain, or traced per call."""

    def __init__(self, tracer=None):
        self.tracer = tracer if tracer is not None else NullTracer()
        for name in LIBRARY_LAYERS:
            module = importlib.import_module(f"cullsq.{name}")
            setattr(self, name, module if tracer is None else TracedModule(module, name, tracer))


class Tally:
    """Operations attempted and failed, and whether the outputs are correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def attempt(self, count=1):
        self.attempted += count

    def fail(self, why):
        """An operation raised or exited nonzero."""
        self.failed += 1
        self.problems.append(why)

    def wrong(self, why):
        """An operation returned an output that fails its check."""
        self.fail(why)
        self.correct = False

    def require(self, ok, why):
        """A check on a whole round, such as a mean against its bound."""
        if not ok:
            self.correct = False
            self.problems.append(why)


def timed_rounds(seconds, round_fn):
    """Repeat a round while the next one still fits in ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(round_fn())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return rounds


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def rel_err(w, ref):
    return float(np.linalg.norm(np.asarray(w) - ref) / np.linalg.norm(ref))


def spec_norms_sq(U, subsets):
    """||U_A||_2^2 = ||P_A||_2 for each row of ``subsets``, by numpy SVD."""
    return np.linalg.svd(U[subsets], compute_uv=False)[:, 0] ** 2


# ----------------------------------------------------------------------
# cull
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CullSize:
    n: int
    d: int
    subsets: int       # drawn by one rejection_sample_many call per round
    singles: int       # rejection_sample_subset + deficient_solve pairs per round
    setup_reps: int

    @property
    def k(self):
        return int(self.n / (self.d + math.sqrt(self.n)))


CULL = CullSize(n=32768, d=10, subsets=1000, singles=300, setup_reps=31)
CULL_SMOKE = CullSize(n=2048, d=5, subsets=200, singles=30, setup_reps=5)


def cull_inputs(size, seed):
    """Gaussian design with noisy labels y = X w0 + g."""
    gen = np.random.default_rng([seed, 1])
    X = gen.standard_normal((size.n, size.d))
    y = X @ gen.standard_normal(size.d) + gen.standard_normal(size.n)
    return X, y


def cull_setup(lib, data):
    svd = lib.regression.thin_svd(data)
    return svd, lib.regression.leverage_scores(svd)


@dataclass
class CullRound:
    batch_s: float
    fits_s: float
    subsets: object        # (count, k) array, or None if the batch call failed
    stats: object          # SamplerStats, or None
    singles: list          # (indices, trials, w_minus), or None for a failed pair


def cull_round(lib, data, svd, profile, size, seed):
    k = size.k
    t0 = time.perf_counter()
    try:
        subsets, stats = lib.influence.rejection_sample_many(
            svd, profile, k, size.subsets, RngStream(seed, 1))
    except CullsqError:
        subsets = stats = None
    t1 = time.perf_counter()
    singles = []
    for i in range(size.singles):
        try:
            subset, trials = lib.influence.rejection_sample_subset(
                svd, profile, k, RngStream(seed, 2).substream(i))
            fit = lib.regression.deficient_solve(data, subset, svd)
        except CullsqError:
            singles.append(None)
            continue
        singles.append((subset.array(), trials, fit.w_minus))
    t2 = time.perf_counter()
    return CullRound(t1 - t0, t2 - t1, subsets, stats, singles)


def check_subsets(U, subsets, k, tally, what):
    n = U.shape[0]
    ok = (
        (subsets.shape[1] == k)
        & np.all(np.diff(subsets, axis=1) > 0, axis=1)
        & (subsets[:, 0] >= 0)
        & (subsets[:, -1] < n)
    )
    ok[ok] = spec_norms_sq(U, subsets[ok]) < 1.0 - SPEC_TOL
    for row in np.flatnonzero(~ok):
        tally.wrong(f"{what} {row}: not k distinct sorted in-range indices with ||P_A|| < 1 - 1e-10")
    return ok


def acceptance_check(rate, proposals, bound, tally, what):
    se = math.sqrt(max(rate * (1.0 - rate), 0.0) / proposals)
    tally.require(rate >= bound - 3.0 * se,
                  f"{what} acceptance {rate:.4f} below k^2/(n mu) = {bound:.4f} - 3 SE")


def cull_digest(rnd):
    h = hashlib.sha256(b"none" if rnd.subsets is None else rnd.subsets.tobytes())
    for single in rnd.singles:
        if single is None:
            h.update(b"none")
        else:
            idx, trials, w_minus = single
            h.update(idx.tobytes() + trials.to_bytes(8, "little") + w_minus.tobytes())
    return h.hexdigest()


class CullReference:
    """numpy's SVD of X, the leverage bound and the full lstsq fit."""

    def __init__(self, X, y, size):
        self.X, self.y, self.size = X, y, size
        self.U = np.linalg.svd(X, full_matrices=False)[0]
        ell = np.einsum("ij,ij->i", self.U, self.U)
        self.accept_bound = size.k**2 / (size.n * float(np.mean(1.0 / ell)))
        w_star = np.linalg.lstsq(X, y, rcond=None)[0]
        self.opt = float(np.sum((X @ w_star - y) ** 2))


def check_cull(ref, rnd, tally):
    """Independent checks of one round: numpy SVD, lstsq refits, bounds."""
    X, y, size = ref.X, ref.y, ref.size
    n, d, k = size.n, size.d, size.k
    if rnd.subsets is None:
        for _ in range(size.subsets):
            tally.fail("rejection_sample_many raised")
    else:
        check_subsets(ref.U, rnd.subsets, k, tally, "batch subset")
        acceptance_check(rnd.stats.acceptance_rate, rnd.stats.proposals, ref.accept_bound,
                         tally, "batch")
    ratios = []
    trials = 0
    for i, single in enumerate(rnd.singles):
        if single is None:
            tally.fail(f"single draw {i} raised")
            tally.fail(f"fit {i} not run")
            continue
        idx, t, w_minus = single
        trials += t
        if not check_subsets(ref.U, idx[None, :], k, tally, f"single draw {i}")[0]:
            tally.wrong(f"fit {i} on a bad subset")
            continue
        keep = np.ones(n, dtype=bool)
        keep[idx] = False
        if rel_err(w_minus, np.linalg.lstsq(X[keep], y[keep], rcond=None)[0]) > 1e-8:
            tally.wrong(f"fit {i}: w_minus differs from lstsq on the kept rows")
        ratios.append(float(np.sum((X @ w_minus - y) ** 2)) / ref.opt)
    if len(ratios) > 1:
        mean = statistics.fmean(ratios)
        se = statistics.stdev(ratios) / math.sqrt(len(ratios))
        bound = 1.0 + d * k**2 / (n - d * k) ** 2
        tally.require(mean + 3 * se <= bound,
                      f"mean error ratio + 3 SE = {mean + 3 * se:.6f} above {bound:.6f}")
    if trials:
        draws = sum(s is not None for s in rnd.singles)
        acceptance_check(draws / trials, trials, ref.accept_bound, tally, "single-draw")


def run_cull(seed, seconds, smoke, out_dir, env):
    size = CULL_SMOKE if smoke else CULL
    lib = Lib()
    X, y = cull_inputs(size, seed)
    data = Dataset(X=X, y=y)
    cull_setup(lib, data)
    setup_times = []
    for _ in range(size.setup_reps):
        t0 = time.perf_counter()
        svd, profile = cull_setup(lib, data)
        setup_times.append(time.perf_counter() - t0)

    ref = CullReference(X, y, size)
    tally = Tally()
    failures_by_outputs = {}

    def one_round():
        tally.attempt(size.subsets + 2 * size.singles)
        rnd = cull_round(lib, data, svd, profile, size, seed)
        # rounds repeat the same seeds; bit-identical outputs get the same verdict
        key = cull_digest(rnd)
        if key in failures_by_outputs:
            tally.failed += failures_by_outputs[key]
        else:
            before = tally.failed
            check_cull(ref, rnd, tally)
            failures_by_outputs[key] = tally.failed - before
        return rnd

    one_round()  # warm-up
    rounds = timed_rounds(seconds, one_round)
    batch_s = statistics.median(r.batch_s for r in rounds)
    fits_s = statistics.median(r.fits_s for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_s": (statistics.median(r.batch_s + r.fits_s for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "subsets_per_s": (size.subsets / batch_s, "1/s"),
        "fits_per_s": (size.singles / fits_s, "1/s"),
        "round_s": ([r.batch_s + r.fits_s for r in rounds], "s"),
    }
    return metrics, detail, tally


# ----------------------------------------------------------------------
# sketch-solve
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SketchSize:
    log2n: int
    d: int
    kappa: float

    @property
    def n(self):
        return 1 << self.log2n


SKETCH = SketchSize(log2n=18, d=20, kappa=1e4)
SKETCH_SMOKE = SketchSize(log2n=13, d=8, kappa=1e3)


def sketch_inputs(lib, size, seed):
    """Consistent system y = X w0 with a prescribed condition number."""
    gen = np.random.default_rng([seed, 2])
    X = lib.designs.conditioned_design(size.n, size.d, size.kappa, gen)
    w0 = gen.standard_normal(size.d)
    return X, X @ w0, w0


@dataclass
class SketchRound:
    setup_s: float
    fast_s: float
    exact_s: float
    setup: object
    fast: object       # KaczmarzRun, or None if it raised
    exact: object
    K_fast: int
    K_exact: int


def sketch_round(lib, data, size, seed):
    K_fast = labels_for_target(size.n, size.d, size.kappa, "fast")
    setup = fast = exact = None
    K_exact = 0
    t0 = t1 = time.perf_counter()
    try:
        setup = lib.kaczmarz.fast_setup(data.X, FastSolverConfig(), RngStream(seed, 3))
        t1 = time.perf_counter()
        fast = lib.kaczmarz.kaczmarz_fast(data, K_fast, RngStream(seed, 3), setup=setup)
    except CullsqError:
        pass
    t2 = time.perf_counter()
    try:
        svd = lib.regression.thin_svd(data)
        K_exact = labels_for_target(size.n, size.d, svd.condition_number, "exact")
        exact = lib.kaczmarz.kaczmarz_exact(svd, data.y, K_exact, RngStream(seed, 4))
    except CullsqError:
        pass
    t3 = time.perf_counter()
    return SketchRound(t1 - t0, t2 - t0, t3 - t2, setup, fast, exact, K_fast, K_exact)


class SketchReference:
    """numpy's SVD of X and the true weights."""

    def __init__(self, X, w0):
        _, self.sigma, self.Vt = np.linalg.svd(X, full_matrices=False)
        self.X = X
        self.w0 = w0

    def x_rinv_kappa(self, R):
        s = np.linalg.svd(np.linalg.solve(R.T, self.X.T).T, compute_uv=False)
        return float(s[0] / s[-1])

    def exact_error_ok(self, w, w0, K):
        """The exact variant contracts ||v - v*||^2, v = diag(sigma) V^T w,
        by (1 - 1/d) per step in expectation."""
        to_v = lambda u: self.sigma * (self.Vt @ u)
        return within_contraction(np.sum((to_v(w) - to_v(w0)) ** 2), np.sum(to_v(w0) ** 2),
                                  1.0 - 1.0 / len(self.sigma), K)


def within_contraction(err_sq, start_sq, rate, K):
    """Squared error after K steps within MARKOV times its expectation
    bound rate^K * start (Markov's inequality)."""
    return err_sq <= (MARKOV * rate**K + 1e-20) * start_sq


def within_floor(w, w0, n, d):
    """Relative squared error within MARKOV times the d/n floor that the
    label targets aim for."""
    return rel_err(w, w0) ** 2 <= MARKOV * d / n


def check_sketch(ref, size, rnd, tally):
    n, d, w0 = size.n, size.d, ref.w0
    if rnd.fast is None:
        tally.fail("fast solve raised")
    else:
        R = rnd.setup.precond.r_matrix()
        kappa = ref.x_rinv_kappa(R)
        tally.require(kappa <= EMBEDDING_KAPPA,
                      f"kappa(X R^-1) = {kappa:.4f} above the 1/2-embedding bound sqrt(3)")
        if not (within_contraction(np.sum((R @ (rnd.fast.w - w0)) ** 2), np.sum((R @ w0) ** 2),
                                   1.0 - 1.0 / (9.0 * d), rnd.K_fast)
                and within_floor(rnd.fast.w, w0, n, d)
                and 1 <= rnd.fast.labels_used <= rnd.K_fast):
            tally.wrong("fast solve: error above its bound or more labels than iterations")
    if rnd.exact is None:
        tally.fail("exact solve raised")
    elif not (ref.exact_error_ok(rnd.exact.w, w0, rnd.K_exact)
              and within_floor(rnd.exact.w, w0, n, d)
              and 1 <= rnd.exact.labels_used <= rnd.K_exact):
        tally.wrong("exact solve: error above its bound or more labels than iterations")


def run_sketch_solve(seed, seconds, smoke, out_dir, env):
    size = SKETCH_SMOKE if smoke else SKETCH
    lib = Lib()
    X, y, w0 = sketch_inputs(lib, size, seed)
    data = Dataset(X=X, y=y)
    ref = SketchReference(X, w0)
    tally = Tally()

    def one_round():
        tally.attempt(2)
        rnd = sketch_round(lib, data, size, seed)
        check_sketch(ref, size, rnd, tally)
        return rnd

    one_round()  # warm-up
    rounds = timed_rounds(seconds, one_round)
    labels = [r.fast.labels_used for r in rounds if r.fast is not None]
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "work_s": (statistics.median(r.fast_s + r.exact_s for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "fast_solve_s": (statistics.median(r.fast_s for r in rounds), "s"),
        "exact_solve_s": (statistics.median(r.exact_s for r in rounds), "s"),
        "labels_revealed": (max(labels) if labels else 0, "count"),
        "round_s": ([r.fast_s + r.exact_s for r in rounds], "s"),
    }
    return metrics, detail, tally


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CliSize:
    n: int
    d: int
    startup_reps: int

    @property
    def k(self):
        return int(self.n / (self.d + math.sqrt(self.n)))

    @property
    def r1(self):
        return FastSolverConfig().resolve_r1(self.n, self.d)


CLI = CliSize(n=65536, d=20, startup_reps=5)
CLI_SMOKE = CliSize(n=2048, d=8, startup_reps=2)

VERIFY_COMMANDS = (
    ("one_point", ["one-point", "--n", "128", "--d", "5", "--design", "hadamard-uniform"]),
    ("k_points", ["k-points", "--n", "400", "--d", "4", "--k", "16", "--trials", "2000"]),
    ("sampler", ["sampler", "--n", "10", "--d", "2", "--k", "2", "--trials", "100000"]),
    ("precond", ["precond"]),
    ("jlt", ["jlt"]),
    ("kaczmarz", ["kaczmarz"]),
)


class Cli:
    """Runs ``python -m cullsq.cli`` in a fresh process per command."""

    def __init__(self, work_dir, env, tracer):
        self.work_dir = Path(work_dir)
        self.env = env
        self.tracer = tracer

    def __call__(self, span, args):
        cmd = [sys.executable, "-m", "cullsq.cli", *args]
        with self.tracer.span(f"cli.{span}"):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.work_dir, env=self.env,
                                      capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:  # the child is killed and reaped
                proc = subprocess.CompletedProcess(cmd, -9, "", "timed out")
            return time.perf_counter() - t0, proc


def cli_pipeline(cli, size, seed):
    """The file pipeline: gen twice, then every command that reads the files."""
    n, d = str(size.n), str(size.d)
    K_fast = labels_for_target(size.n, size.d, GAUSSIAN_KAPPA, "fast")
    K_exact = labels_for_target(size.n, size.d, GAUSSIAN_KAPPA, "exact")
    steps = [
        ("gen", ["gen", "--n", n, "--d", d, "--noise", "1", "--seed", str(4 * seed),
                 "--out-x", "xn.csv", "--out-y", "yn.csv"]),
        ("gen", ["gen", "--n", n, "--d", d, "--noise", "0", "--seed", str(4 * seed + 1),
                 "--out-x", "xc.csv", "--out-y", "yc.csv"]),
        ("solve", ["solve", "--x", "xn.csv", "--y", "yn.csv", "--out", "w.csv"]),
        ("reject_sample", ["reject-sample", "--x", "xn.csv", "--k", str(size.k), "--count", "1",
                           "--seed", str(seed), "--out", "subset.csv"]),
        ("kaczmarz_fast", ["kaczmarz", "--x", "xc.csv", "--y", "yc.csv", "--mode", "fast",
                           "--iters", str(K_fast), "--seed", str(seed), "--out", "w_fast.csv"]),
        ("kaczmarz_exact", ["kaczmarz", "--x", "xc.csv", "--y", "yc.csv", "--mode", "exact",
                            "--iters", str(K_exact), "--seed", str(seed), "--out", "w_exact.csv"]),
        ("precond", ["precond", "--x", "xc.csv", "--kind", "srht", "--r", str(size.r1),
                     "--seed", str(seed), "--out-t", "t.csv", "--out-p", "p.csv",
                     "--out-summary", "precond.json"]),
    ]
    results = {}
    for name, args in steps:
        dt, proc = cli(name, args)
        results.setdefault(name, []).append((dt, proc))
    return results, K_fast, K_exact


def cli_verify(cli):
    results = {}
    for name, args in VERIFY_COMMANDS:
        results[f"verify_{name}"] = [
            cli(f"verify_{name}", ["verify", *args, "--out", f"verify_{name}.json"])]
    return results


def labels_printed(proc):
    """Distinct labels from the kaczmarz command's summary line."""
    words = proc.stdout.split()
    return int(words[words.index("distinct") - 1])


def check_cli(work_dir, size, pipeline, verify, K_fast, K_exact, tally):
    work = Path(work_dir)
    failed = set()
    for name, runs in {**pipeline, **verify}.items():
        tally.attempt(len(runs))
        for _, proc in runs:
            if proc.returncode != 0:
                failed.add(name)
                tally.fail(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if "gen" in failed:
        return
    n, d = size.n, size.d
    load = lambda name: np.loadtxt(work / name, delimiter=",", ndmin=2)
    Xn, yn, Xc, yc = load("xn.csv"), load("yn.csv")[:, 0], load("xc.csv"), load("yc.csv")[:, 0]
    if Xn.shape != (n, d) or Xc.shape != (n, d) or yn.shape != (n,) or yc.shape != (n,):
        tally.wrong("gen wrote files of the wrong shape")
        return
    wc = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    if np.linalg.norm(Xc @ wc - yc) > 1e-8 * np.linalg.norm(yc):
        tally.wrong("gen --noise 0 labels are not in the column space")
    if "solve" not in failed:
        if rel_err(load("w.csv")[:, 0], np.linalg.lstsq(Xn, yn, rcond=None)[0]) > 1e-8:
            tally.wrong("solve weights differ from lstsq")
    if "reject_sample" not in failed:
        rows = (work / "subset.csv").read_text().split()
        idx = np.array([[int(v) for v in row.split(";")] for row in rows])
        Un = np.linalg.svd(Xn, full_matrices=False)[0]
        if idx.shape[0] != 1:
            tally.wrong("reject-sample wrote other than one subset")
        else:
            check_subsets(Un, idx, size.k, tally, "reject-sample subset")
    if "kaczmarz_fast" not in failed:
        (_, proc), = pipeline["kaczmarz_fast"]
        if not (within_floor(load("w_fast.csv")[:, 0], wc, n, d)
                and 1 <= labels_printed(proc) <= K_fast):
            tally.wrong("kaczmarz --mode fast: error above the d/n floor or too many labels")
    if "kaczmarz_exact" not in failed:
        (_, proc), = pipeline["kaczmarz_exact"]
        w = load("w_exact.csv")[:, 0]
        if not (SketchReference(Xc, wc).exact_error_ok(w, wc, K_exact)
                and within_floor(w, wc, n, d)
                and 1 <= labels_printed(proc) <= K_exact):
            tally.wrong("kaczmarz --mode exact: error above its bound or too many labels")
    if "precond" not in failed:
        R = load("t.csv") @ load("p.csv")
        s = np.linalg.svd(np.linalg.solve(R.T, Xc.T).T, compute_uv=False)
        kappa = s[0] / s[-1]
        reported = json.loads((work / "precond.json").read_text())["condition_number_x_rinv"]
        if kappa > EMBEDDING_KAPPA or abs(kappa - reported) > 1e-6 * kappa:
            tally.wrong(f"precond: kappa(X R^-1) = {kappa:.4f} (reported {reported:.4f})")
    for name, _ in VERIFY_COMMANDS:
        if f"verify_{name}" in failed:
            continue
        report = json.loads((work / f"verify_{name}.json").read_text())
        if not report["passed"] or not all(c["passed"] for c in report["criteria"]):
            tally.wrong(f"verify {name}: a criterion failed")


def run_cli(seed, seconds, smoke, out_dir, env):
    size = CLI_SMOKE if smoke else CLI
    work = Path(out_dir) / "cli"
    work.mkdir(parents=True, exist_ok=True)
    cli = Cli(work, env, NullTracer())
    tally = Tally()

    def startup():
        dt, proc = cli("startup", ["--version"])
        tally.require(proc.returncode == 0, f"--version exited {proc.returncode}")
        return dt

    startup()  # warm-up: interpreter and imports into the page cache
    startup_times = [startup() for _ in range(size.startup_reps)]

    def one_round():
        t0 = time.perf_counter()
        pipeline, K_fast, K_exact = cli_pipeline(cli, size, seed)
        t1 = time.perf_counter()
        verify = cli_verify(cli)
        t2 = time.perf_counter()
        check_cli(work, size, pipeline, verify, K_fast, K_exact, tally)
        return t1 - t0, t2 - t1

    rounds = timed_rounds(seconds, one_round)
    metrics = {
        "setup_s": (statistics.median(startup_times), "s"),
        "work_s": (statistics.median(p + v for p, v in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
    }
    detail = {
        "pipeline_s": (statistics.median(p for p, _ in rounds), "s"),
        "verify_s": (statistics.median(v for _, v in rounds), "s"),
        "round_s": ([p + v for p, v in rounds], "s"),
    }
    return metrics, detail, tally


WORKLOADS = {
    "cull": run_cull,
    "sketch-solve": run_sketch_solve,
    "cli": run_cli,
}
