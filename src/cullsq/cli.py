"""Command-line harness.

Subcommands: gen, solve, reject-sample, sketch, precond, kaczmarz,
verify, whose flags are the :class:`ExperimentConfig` fields its
experiment reads.  Files go through :mod:`cullsq.dataio` (CSV, or
``.npy`` by extension); reports are JSON.  Exit codes: 0 on success, 2
on a failed criterion, 1 otherwise.

The parser is staged: every subcommand is registered with its help, but
only the one being run, the first token of argv that is not an option,
gets its arguments.  Argument builders and handlers import what they
use, so ``--version`` and ``--help`` load no numpy and each command only
its own modules.
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .errors import CullsqError


class _Parser(argparse.ArgumentParser):
    # a usage error exits 1 with one line, as any CullsqError does in main
    def error(self, message):
        raise CullsqError(f"{self.prog}: {message}")


def _build_parser(command):
    """Every subcommand with its help; arguments only for ``command``."""
    parser = _Parser(
        prog="cullsq",
        description="Influence-based row rejection and preconditioned Kaczmarz "
        "for label-frugal least squares.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            add_arguments(p)
    return parser


def _gen_arguments(p):
    from .designs import DESIGN_KINDS

    p.set_defaults(run=_cmd_gen)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--design", choices=DESIGN_KINDS, default="gaussian")
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--out-x", required=True, help="design matrix path, CSV or .npy")
    p.add_argument("--out-y", help="labels path, CSV or .npy")
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _solve_arguments(p):
    p.set_defaults(run=_cmd_solve)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--out", help="write weights here, CSV or .npy")


def _reject_sample_arguments(p):
    p.set_defaults(run=_cmd_reject_sample)
    p.add_argument("--x", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--exact", action="store_true",
                   help="export the exact subset distribution instead of sampling")
    p.add_argument("--out", help="CSV output (indices semicolon-joined[, probability])")
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _sketch_arguments(p):
    p.set_defaults(run=_cmd_sketch)
    p.add_argument("--kind", choices=["srht", "sign", "identity"], required=True)
    p.add_argument("--r", type=int, help="embedding dimension")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _precond_arguments(p):
    p.set_defaults(run=_cmd_precond)
    p.add_argument("--x", required=True)
    p.add_argument("--kind", choices=["srht", "sign", "identity"], default="srht")
    p.add_argument("--r", type=int, help="embedding dimension")
    p.add_argument("--out-t", help="triangular factor path, CSV or .npy")
    p.add_argument("--out-p", help="permutation matrix path, CSV or .npy")
    p.add_argument("--out-summary", help="JSON summary with singular values")
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _kaczmarz_arguments(p):
    p.set_defaults(run=_cmd_kaczmarz)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--mode", choices=["exact", "fast"], default="exact")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--trace", help="CSV error trace (t, squared_error); test mode")
    p.add_argument("--out", help="write weights here, CSV or .npy")
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _verify_arguments(p):
    from typing import get_args, get_type_hints

    from .experiments import EXPERIMENT_NAMES, ExperimentConfig

    p.set_defaults(run=_cmd_verify)
    p.add_argument("experiment", choices=EXPERIMENT_NAMES)
    p.add_argument("--config", help="JSON config file (over the defaults; flags override it)")
    # a flag per config field, typed by its annotation; from_file refuses one
    # the experiment does not read, and validate() judges values
    for name, hint in get_type_hints(ExperimentConfig).items():
        if name != "experiment":
            p.add_argument("--" + name.replace("_", "-"), type=(get_args(hint) or (hint,))[0])


_COMMANDS = {
    "gen": ("generate a synthetic dataset", _gen_arguments),
    "solve": ("full least-squares solve", _solve_arguments),
    "reject-sample": ("sample row subsets to throw out", _reject_sample_arguments),
    "sketch": ("apply a sketch to a matrix", _sketch_arguments),
    "precond": ("build the sketched QR preconditioner", _precond_arguments),
    "kaczmarz": ("run a randomized Kaczmarz solve", _kaczmarz_arguments),
    "verify": ("run a theorem-verification experiment", _verify_arguments),
}


def _cmd_gen(args) -> int:
    from . import dataio
    from .designs import make_dataset
    from .rng import RngStream

    data = make_dataset(args.design, args.n, args.d, args.noise, RngStream(args.seed))
    dataio.save_matrix(args.out_x, data.X)
    if args.out_y:
        dataio.save_vector(args.out_y, data.y)
    print(f"wrote {args.n}x{args.d} {args.design} design to {args.out_x}")
    return 0


def _cmd_solve(args) -> int:
    from . import dataio
    from .regression import Dataset, full_solve

    data = Dataset(X=dataio.load_matrix(args.x), y=dataio.load_vector(args.y))
    w_star, opt_error = full_solve(data)
    if args.out:
        dataio.save_vector(args.out, w_star)
    print(f"optimal squared error: {opt_error:.17g}")
    print("weights:", " ".join(format(v, ".12g") for v in w_star))
    return 0


def _emit(text: str, path) -> int:
    """Write ``text`` to ``path``, or to stdout without one; returns exit code 0."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_reject_sample(args) -> int:
    from . import dataio
    from .influence import _enumerate, rejection_sample_many
    from .regression import Dataset, leverage_scores, thin_svd
    from .rng import RngStream

    data = Dataset(X=dataio.load_matrix(args.x))
    svd = thin_svd(data)
    if args.exact:
        subsets, _, probs, _ = _enumerate(svd, args.k)
        dataio.save_distribution(args.out or sys.stdout, subsets, probs)
        return 0
    profile = leverage_scores(svd)
    rng = RngStream(args.seed)
    draws, stats = rejection_sample_many(svd, profile, args.k, args.count, rng)
    print(
        f"accepted {args.count} subsets from {stats.proposals} proposals "
        f"(rate {stats.acceptance_rate:.4f})",
        file=sys.stdout if args.out else sys.stderr,
    )
    dataio.save_subsets(args.out or sys.stdout, draws)
    return 0


def _make_op(kind, n_in, r, seed):
    from .rng import RngStream
    from .sketching import make_dense_sign_jlt, make_identity_sketch, make_srht

    if kind == "identity":
        if r is not None:
            raise CullsqError("--r applies only to srht/sign sketches")
        return make_identity_sketch(n_in)
    if r is None:
        raise CullsqError("--r is required for srht/sign sketches")
    if kind == "srht":
        return make_srht(n_in, r, RngStream(seed))
    return make_dense_sign_jlt(n_in, r, RngStream(seed))


def _cmd_sketch(args) -> int:
    from . import dataio
    from .sketching import apply_sketch

    M = dataio.load_matrix(args.input)
    op = _make_op(args.kind, M.shape[0], args.r, args.seed)
    dataio.save_matrix(args.out, apply_sketch(op, M))
    print(f"sketched {M.shape[0]}x{M.shape[1]} -> {op.r}x{M.shape[1]} ({args.kind})")
    return 0


def _cmd_precond(args) -> int:
    import json

    import numpy as np

    from . import dataio
    from .sketching import build_preconditioner

    X = dataio.load_matrix(args.x)
    op = _make_op(args.kind, X.shape[0], args.r, args.seed)
    precond = build_preconditioner(X, op)
    svals = np.linalg.svd(precond.x_times_inverse(X), compute_uv=False)  # reads X before any save
    if args.out_t:
        dataio.save_matrix(args.out_t, precond.T)
    if args.out_p:
        dataio.save_matrix(args.out_p, precond.permutation_matrix())
    summary = {
        "kind": args.kind,
        "r": int(op.r),
        "seed": int(args.seed),
        "singular_values_x_rinv": [float(s) for s in svals],
        "condition_number_x_rinv": float(svals[0] / svals[-1]),
    }
    return _emit(json.dumps(summary, sort_keys=True, indent=2) + "\n", args.out_summary)


def _cmd_kaczmarz(args) -> int:
    from . import dataio
    from .kaczmarz import kaczmarz_exact, kaczmarz_fast
    from .regression import Dataset, full_solve, thin_svd
    from .rng import RngStream

    data = Dataset(X=dataio.load_matrix(args.x), y=dataio.load_vector(args.y))
    rng = RngStream(args.seed)
    svd = thin_svd(data) if args.mode == "exact" else None
    w_star = full_solve(data, svd)[0] if args.trace else None  # oracle solve, test mode only
    if args.mode == "exact":
        run = kaczmarz_exact(svd, data.y, args.iters, rng, w_star=w_star)
    else:
        run = kaczmarz_fast(data, args.iters, rng, w_star=w_star)
    if args.out:
        dataio.save_vector(args.out, run.w)
    if args.trace:
        dataio.save_trace(args.trace, run.error_trace)
    print(
        f"{args.mode} kaczmarz: {run.iterations} iterations, "
        f"{run.labels_used} distinct labels"
    )
    return 0


def _cmd_verify(args) -> int:
    from .experiments import ExperimentConfig, run_experiment

    flags = {k: v for k, v in vars(args).items() if k not in ("command", "run", "config")}
    cfg = ExperimentConfig.from_file(args.config, **flags)
    report = run_experiment(cfg)
    for crit in report.criteria:
        verdict = "PASS" if crit["passed"] else "FAIL"
        print(
            f"criterion {crit['name']}: {verdict} "
            f"(measured={crit['measured']}, bound={crit['bound']})"
        )
    if cfg.out:
        _emit(report.to_json(), cfg.out)
        print(f"report written to {cfg.out}")
    return 0 if report.passed else 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option with a value, so the first token
    # that is not an option is the command argparse will run
    command = next((a for a in argv if not a.startswith("-")), None)
    try:
        args = _build_parser(command).parse_args(argv)
        return args.run(args)
    except (CullsqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
