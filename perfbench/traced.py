"""The traced run: per-layer numbers from spans around calls into cullsq.

Every traced run covers all eight layers, so it makes one traced round
of each of the three workloads, whichever workload is named, plus a few
calls that time one layer on its own (the steps of ``fast_setup``, CSV
load and save, the verify experiments in-process).  Each part warms up
untraced first.  The outputs of the traced rounds pass the same checks
as in the untraced runs.  The spans are written to ``trace.json``.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

from cullsq.experiments import ExperimentConfig
from cullsq.influence import DEFAULT_BATCH
from cullsq.kaczmarz import FastSolverConfig
from cullsq.regression import Dataset
from cullsq.rng import RngStream
from cullsq.sketching import apply_sketch

import workloads as wl
from tracing import Tracer

LAYERS = (*wl.LIBRARY_LAYERS, "cli")
ENUMERATE_REPS = 20


def duration(rec):
    return rec["end"] - rec["start"]


class Spans:
    """Span totals by name inside one part of the trace."""

    def __init__(self, tracer, root):
        self.durations = {}
        for rec in tracer.descendants(root["id"]):
            self.durations.setdefault(rec["name"], []).append(duration(rec))

    def total(self, *names):
        return sum(sum(self.durations[name]) for name in names)

    def mean(self, name):
        return statistics.fmean(self.durations[name])


def cull_part(lib, seed, smoke, tally, m):
    size = wl.CULL_SMOKE if smoke else wl.CULL
    k = size.k
    X, y = wl.cull_inputs(size, seed)
    data = Dataset(X=X, y=y)
    ref = wl.CullReference(X, y, size)
    plain = wl.Lib()
    svd, profile = wl.cull_setup(plain, data)
    wl.cull_round(plain, data, svd, profile, size, seed)
    with lib.tracer.span("bench.cull") as root:
        svd, profile = wl.cull_setup(lib, data)
        lib.influence.sample_sum_over_rows_many(1.0 / profile.ell, k, DEFAULT_BATCH,
                                                RngStream(seed, 5))
        with lib.tracer.span("bench.cull_round") as rnd_span:
            tally.attempt(size.subsets + 2 * size.singles)
            rnd = wl.cull_round(lib, data, svd, profile, size, seed)
        bound = lib.influence.estimate_acceptance(profile, k).lower_bound
    wl.check_cull(ref, rnd, tally)
    s = Spans(lib.tracer, root)
    drawn = [single for single in rnd.singles if single is not None]
    trials = sum(t for _, t, _ in drawn)
    m["regression.thin_svd_s"] = (s.total("regression.thin_svd", "regression.leverage_scores"), "s")
    m["regression.deficient_solve_ms"] = (1e3 * s.mean("regression.deficient_solve"), "ms")
    m["influence.propose_s"] = (s.total("influence.sample_sum_over_rows_many"), "s")
    m["influence.batch_draw_s"] = (s.total("influence.rejection_sample_many"), "s")
    if rnd.stats is not None:
        m["influence.proposals"] = (rnd.stats.proposals, "count")
        m["influence.proposals_per_subset"] = (rnd.stats.proposals / size.subsets, "ratio")
        m["influence.acceptance_rate"] = (rnd.stats.acceptance_rate, "ratio")
    m["influence.single_acceptance_rate"] = (len(drawn) / max(trials, 1), "ratio")
    m["influence.acceptance_bound"] = (bound, "ratio")
    m["influence.single_draw_ms"] = (1e3 * s.mean("influence.rejection_sample_subset"), "ms")
    m["influence.single_trials"] = (trials, "count")
    m["trace.cull_round_s"] = (duration(rnd_span), "s")


def sketch_part(lib, seed, smoke, tally, m):
    size = wl.SKETCH_SMOKE if smoke else wl.SKETCH
    n, d = size.n, size.d
    X, y, w0 = wl.sketch_inputs(lib, size, seed)
    data = Dataset(X=X, y=y)
    ref = wl.SketchReference(X, w0)
    wl.sketch_round(wl.Lib(), data, size, seed)
    cfg = FastSolverConfig()
    rng = RngStream(seed, 3)
    with lib.tracer.span("bench.sketch-solve") as root:
        # the steps fast_setup takes, one span each
        op1 = lib.sketching.make_srht(n, cfg.resolve_r1(n, d), rng.substream(1))
        lib.sketching.apply_sketch(op1, X)
        precond = lib.sketching.build_preconditioner(X, op1)
        op2 = lib.sketching.make_dense_sign_jlt(d, cfg.resolve_r2(n), rng.substream(2))
        lib.sketching.approx_leverage(X, precond, op2)
        with lib.tracer.span("bench.sketch_round") as rnd_span:
            tally.attempt(2)
            rnd = wl.sketch_round(lib, data, size, seed)
    wl.check_sketch(ref, size, rnd, tally)
    s = Spans(lib.tracer, root)
    m["sketching.srht_apply_s"] = (s.total("sketching.apply_sketch"), "s")
    m["sketching.build_preconditioner_s"] = (s.total("sketching.build_preconditioner"), "s")
    m["sketching.approx_leverage_s"] = (s.total("sketching.approx_leverage"), "s")
    if rnd.setup is not None:
        m["sketching.r1"] = (rnd.setup.column_op.r, "count")
        m["sketching.r2"] = (rnd.setup.row_op.r, "count")
        U = np.linalg.svd(X, full_matrices=False)[0]
        sketched_u = apply_sketch(rnd.setup.column_op, U)
        m["sketching.embedding_defect"] = (float(np.linalg.norm(
            np.eye(d) - sketched_u.T @ sketched_u, ord=2)), "ratio")
        m["sketching.kappa_x_rinv"] = (ref.x_rinv_kappa(rnd.setup.precond.r_matrix()), "ratio")
    m["regression.exact_svd_s"] = (s.total("regression.thin_svd"), "s")
    m["kaczmarz.fast_setup_s"] = (s.total("kaczmarz.fast_setup"), "s")
    m["kaczmarz.fast_iterate_s"] = (s.total("kaczmarz.kaczmarz_fast"), "s")
    m["kaczmarz.exact_iterate_s"] = (s.total("kaczmarz.kaczmarz_exact"), "s")
    if rnd.fast is not None:
        m["kaczmarz.iterations_fast"] = (rnd.fast.iterations, "count")
        m["kaczmarz.labels_fast"] = (rnd.fast.labels_used, "count")
    if rnd.exact is not None:
        m["kaczmarz.iterations_exact"] = (rnd.exact.iterations, "count")
        m["kaczmarz.labels_exact"] = (rnd.exact.labels_used, "count")
    m["trace.sketch_round_s"] = (duration(rnd_span), "s")


def cli_part(lib, seed, smoke, out_dir, env, tally, m):
    size = wl.CLI_SMOKE if smoke else wl.CLI
    work = out_dir / "cli"
    work.mkdir(parents=True, exist_ok=True)
    wl.Cli(work, env, wl.NullTracer())("startup", ["--version"])
    cli = wl.Cli(work, env, lib.tracer)
    with lib.tracer.span("bench.cli") as root:
        for _ in range(size.startup_reps):
            cli("startup", ["--version"])
        with lib.tracer.span("bench.cli_round") as rnd_span:
            pipeline, K_fast, K_exact = wl.cli_pipeline(cli, size, seed)
            verify = wl.cli_verify(cli)
        wl.check_cli(work, size, pipeline, verify, K_fast, K_exact, tally)

        csv = work / "xn.csv"
        X = lib.dataio.load_matrix(csv)
        lib.dataio.save_matrix(work / "x_saved.csv", X)
        tally.require(all(np.array_equal(X, np.loadtxt(path, delimiter=","))
                          for path in (csv, work / "x_saved.csv")),
                      "dataio: load_matrix or save_matrix does not round-trip the CSV exactly")
        lib.designs.make_dataset("gaussian", size.n, size.d, 1.0, RngStream(4 * seed))

        configs = {}
        for name, _ in wl.VERIFY_COMMANDS:
            fields = json.loads((work / f"verify_{name}.json").read_text())["config"]
            fields["out"] = None
            configs[name] = ExperimentConfig(**fields)
            report = lib.experiments.run_experiment(configs[name])
            tally.require(report.passed, f"in-process verify {name}: a criterion failed")

        sampler = configs["sampler"]
        svd = lib.regression.thin_svd(lib.experiments.generate_dataset(sampler))
        profile = lib.regression.leverage_scores(svd)
        for _ in range(ENUMERATE_REPS):
            lib.influence.enumerate_subset_distribution(svd, profile, sampler.k)

        kz = configs["kaczmarz"]
        gen = np.random.default_rng([seed, 6])
        Xk = lib.designs.conditioned_design(kz.n, kz.d, kz.kappa, gen)
        w0 = gen.standard_normal(kz.d)
        lib.kaczmarz.kaczmarz_fast(Dataset(X=Xk, y=Xk @ w0), kz.iters or 400,
                                   RngStream(seed, 6), w_star=w0)
    s = Spans(lib.tracer, root)
    m["cli.startup_s"] = (statistics.median(s.durations["cli.startup"]), "s")
    for name in ("gen", "solve", "reject_sample", "kaczmarz_fast", "kaczmarz_exact", "precond"):
        m[f"cli.{name}_s"] = (s.total(f"cli.{name}"), "s")
    m["cli.verify_s"] = (s.total(*(f"cli.verify_{name}" for name, _ in wl.VERIFY_COMMANDS)), "s")
    load_s = s.total("dataio.load_matrix")
    m["dataio.load_matrix_s"] = (load_s, "s")
    m["dataio.save_matrix_s"] = (s.total("dataio.save_matrix"), "s")
    m["dataio.load_mb_per_s"] = (csv.stat().st_size / 1e6 / load_s, "MB/s")
    m["designs.make_dataset_s"] = (s.total("designs.make_dataset"), "s")
    experiment_times = s.durations["experiments.run_experiment"]  # in VERIFY_COMMANDS order
    for (name, _), seconds in zip(wl.VERIFY_COMMANDS, experiment_times):
        m[f"experiments.{name}_s"] = (seconds, "s")
    m["influence.enumerate_s"] = (s.mean("influence.enumerate_subset_distribution"), "s")
    m["kaczmarz.traced_run_ms"] = (1e3 * s.total("kaczmarz.kaczmarz_fast"), "ms")
    m["trace.cli_round_s"] = (duration(rnd_span), "s")


def run(seed, smoke, out_dir, env):
    tracer = Tracer()
    lib = wl.Lib(tracer)
    tally = wl.Tally()
    metrics = {}
    cull_part(lib, seed, smoke, tally, metrics)
    sketch_part(lib, seed, smoke, tally, metrics)
    cli_part(lib, seed, smoke, out_dir, env, tally, metrics)
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_times.get(layer, 0.0), "s")
    tracer.write(out_dir / "trace.json")
    return metrics, {}, tally
