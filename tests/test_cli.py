import ast
import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cullsq import (
    Dataset,
    ExperimentConfig,
    RngStream,
    dataio,
    enumerate_subset_distribution,
    influence,
    leverage_scores,
    rejection_sample_many,
    thin_svd,
)
from cullsq.cli import main
from cullsq.dataio import load_matrix, load_vector


def run_cli(*args):
    return main([str(a) for a in args])


def accept_every_proposal(monkeypatch):
    """Make the rejection sampler accept every proposal it draws."""
    monkeypatch.setattr(
        influence, "_acceptance_ratios", lambda spec, q_weight, d, k: np.ones(len(spec))
    )


@pytest.fixture
def dataset_files(tmp_path):
    rc = run_cli(
        "gen", "--n", 40, "--d", 3, "--design", "gaussian", "--noise", 0.5,
        "--seed", 7, "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv",
    )
    assert rc == 0
    return tmp_path / "x.csv", tmp_path / "y.csv"


class TestGen:
    def test_writes_expected_shapes(self, dataset_files):
        x_path, y_path = dataset_files
        X = load_matrix(x_path)
        y = load_vector(y_path)
        assert X.shape == (40, 3) and y.shape == (40,)

    def test_same_seed_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            rc = run_cli(
                "gen", "--n", 16, "--d", 2, "--design", "hadamard-uniform",
                "--noise", 0, "--seed", 3, "--out-x", tmp_path / f"{name}.csv",
            )
            assert rc == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_hadamard_requires_power_of_two(self, tmp_path, capsys):
        rc = run_cli(
            "gen", "--n", 20, "--d", 2, "--design", "hadamard-uniform",
            "--out-x", tmp_path / "x.csv",
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestSolve:
    def test_matches_lstsq(self, dataset_files, tmp_path):
        x_path, y_path = dataset_files
        rc = run_cli("solve", "--x", x_path, "--y", y_path, "--out", tmp_path / "w.csv")
        assert rc == 0
        X, y = load_matrix(x_path), load_vector(y_path)
        expect = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(load_vector(tmp_path / "w.csv"), expect, atol=1e-10)


    @pytest.mark.parametrize(
        "x_text, y_text",
        [
            (b"1,0\n0,1\n", b"1\n2\n"),  # n = d = 2
            (b"1,0\nnan,1\n0,2\n", b"1\n2\n3\n"),  # a non-finite entry
            (b"1,2\n3,\xc3\xa9\n5,7\n", b"1\n2\n3\n"),  # UTF-8, not ASCII
        ],
        ids=["two-by-two", "nan-entry", "non-ascii"],
    )
    def test_bad_design_exits_one_with_one_line(self, tmp_path, capsys, x_text, y_text):
        (tmp_path / "x.csv").write_bytes(x_text)
        (tmp_path / "y.csv").write_bytes(y_text)
        rc = run_cli("solve", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    def test_npy_files_give_the_csv_bits(self, tmp_path, capsys):
        # the format follows the extension; both paths read the same doubles
        outs = []
        for ext in ("csv", "npy"):
            assert run_cli("gen", "--n", 300, "--d", 4, "--noise", 0.5, "--seed", 11,
                           "--out-x", tmp_path / f"x.{ext}", "--out-y", tmp_path / f"y.{ext}") == 0
            capsys.readouterr()
            assert run_cli("solve", "--x", tmp_path / f"x.{ext}", "--y", tmp_path / f"y.{ext}",
                           "--out", tmp_path / f"w{ext}.csv") == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert (tmp_path / "x.npy").read_bytes().startswith(b"\x93NUMPY")
        assert (tmp_path / "wcsv.csv").read_bytes() == (tmp_path / "wnpy.csv").read_bytes()
        assert np.array_equal(load_matrix(tmp_path / "x.csv"), load_matrix(tmp_path / "x.npy"))

    def test_bad_npy_exits_one_with_one_line(self, tmp_path, capsys):
        np.save(tmp_path / "x.npy", np.ones((5, 2), dtype=np.int64))
        dataio.save_vector(tmp_path / "y.npy", np.ones(5))
        rc = run_cli("solve", "--x", tmp_path / "x.npy", "--y", tmp_path / "y.npy")
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'x.npy'}: expected a nonempty 2-D float64 matrix, "
                       f"got int64 of shape (5, 2)\n")


class TestRejectSample:
    def test_single_draw(self, dataset_files, tmp_path, capsys):
        x_path, _ = dataset_files
        rc = run_cli(
            "reject-sample", "--x", x_path, "--k", 2, "--seed", 1,
            "--out", tmp_path / "s.csv",
        )
        assert rc == 0
        line = (tmp_path / "s.csv").read_text().strip()
        idx = [int(v) for v in line.split(";")]
        assert len(idx) == 2 and idx == sorted(idx)
        # one stats line at every count: all proposals made, the last kept included
        assert capsys.readouterr().out.startswith("accepted 1 subsets from ")

    def test_rows_piped_to_stdout_read_back(self, dataset_files):
        # with no --out the rows alone go to stdout and the summary to stderr,
        # so `reject-sample ... > s.csv` writes a file of subsets only
        x_path, _ = dataset_files
        proc = subprocess.run(
            [sys.executable, "-m", "cullsq.cli", "reject-sample", "--x", str(x_path),
             "--k", "3", "--count", "3", "--seed", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [[int(v) for v in line.split(";")] for line in proc.stdout.splitlines()]
        svd = thin_svd(Dataset(X=load_matrix(x_path)))
        draws, _ = rejection_sample_many(svd, leverage_scores(svd), 3, 3, RngStream(5))
        assert rows == draws.tolist()
        assert proc.stderr.startswith("accepted 3 subsets from ")

    def test_many_draws(self, dataset_files, tmp_path):
        x_path, _ = dataset_files
        rc = run_cli(
            "reject-sample", "--x", x_path, "--k", 3, "--count", 50,
            "--seed", 2, "--out", tmp_path / "many.csv",
        )
        assert rc == 0
        lines = (tmp_path / "many.csv").read_text().strip().splitlines()
        assert len(lines) == 50
        assert all(len(line.split(";")) == 3 for line in lines)

    def test_exact_distribution_export(self, tmp_path):
        run_cli(
            "gen", "--n", 8, "--d", 2, "--seed", 5, "--noise", 0,
            "--out-x", tmp_path / "x.csv",
        )
        rc = run_cli(
            "reject-sample", "--x", tmp_path / "x.csv", "--k", 2, "--exact",
            "--out", tmp_path / "dist.csv",
        )
        assert rc == 0
        lines = (tmp_path / "dist.csv").read_text().strip().splitlines()
        assert len(lines) == 28  # C(8, 2)
        total = 0.0
        for line in lines:
            idx_part, prob_part = line.rsplit(",", 1)
            assert len(idx_part.split(";")) == 2
            total += float(prob_part)
        assert abs(total - 1.0) <= 1e-10


class TestSubsetExportsAcrossWriterBlocks:
    """The exports equal rows built one at a time with str.join, across
    more than one block of the dataio writer."""

    @pytest.fixture
    def design(self, tmp_path):
        assert run_cli("gen", "--n", 50, "--d", 3, "--seed", 21,
                       "--out-x", tmp_path / "x.csv") == 0
        svd = thin_svd(Dataset(X=load_matrix(tmp_path / "x.csv")))
        return tmp_path / "x.csv", svd, leverage_scores(svd)

    def test_exact_export_to_file_and_stdout(self, design, tmp_path, capsys):
        x_path, svd, profile = design
        subsets, probs = enumerate_subset_distribution(svd, profile, 3)
        assert len(probs) == 19_600 > dataio.WRITE_BLOCK_VALUES // 4
        expect = "".join(";".join(map(str, row)) + f",{p:.17g}\n"
                         for row, p in zip(subsets.tolist(), probs.tolist()))
        assert run_cli("reject-sample", "--x", x_path, "--k", 3, "--exact",
                       "--out", tmp_path / "e.csv") == 0
        assert (tmp_path / "e.csv").read_text() == expect
        capsys.readouterr()
        assert run_cli("reject-sample", "--x", x_path, "--k", 3, "--exact") == 0
        assert capsys.readouterr().out == expect

    def test_sampled_export(self, design, tmp_path, capsys):
        x_path, svd, profile = design
        count = dataio.WRITE_BLOCK_VALUES // 3 + 100
        draws, stats = rejection_sample_many(svd, profile, 3, count, RngStream(22))
        expect = "".join(";".join(map(str, row)) + "\n" for row in draws.tolist())
        assert run_cli("reject-sample", "--x", x_path, "--k", 3, "--count", count,
                       "--seed", 22, "--out", tmp_path / "s.csv") == 0
        assert (tmp_path / "s.csv").read_text() == expect
        assert f"from {stats.proposals} proposals" in capsys.readouterr().out


def test_exact_export_memory_is_one_writer_block(tmp_path):
    # C(100, 3) = 161,700 rows: the subsets, probabilities and kernel
    # blocks, plus one block of formatted text, not every row's string
    assert run_cli("gen", "--n", 100, "--d", 4, "--seed", 23, "--out-x", tmp_path / "x.csv") == 0
    tracemalloc.start()
    try:
        rc = run_cli("reject-sample", "--x", tmp_path / "x.csv", "--k", 3, "--exact",
                     "--out", tmp_path / "e.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestSketchAndPrecond:
    def test_sketch_shapes(self, dataset_files, tmp_path):
        x_path, _ = dataset_files
        rc = run_cli(
            "sketch", "--kind", "srht", "--r", 16, "--seed", 4,
            "--in", x_path, "--out", tmp_path / "sk.csv",
        )
        assert rc == 0
        assert load_matrix(tmp_path / "sk.csv").shape == (16, 3)

    def test_sketch_requires_r(self, dataset_files, tmp_path, capsys):
        x_path, _ = dataset_files
        rc = run_cli(
            "sketch", "--kind", "sign", "--in", x_path, "--out", tmp_path / "s.csv"
        )
        assert rc == 1

    def test_identity_refuses_r(self, dataset_files, tmp_path, capsys):
        # the identity sketch has no embedding dimension to set
        x_path, _ = dataset_files
        out = tmp_path / "s.csv"
        for argv in (["sketch", "--in", x_path, "--out", out],
                     ["precond", "--x", x_path, "--out-t", out]):
            assert run_cli(*argv, "--kind", "identity", "--r", 5) == 1
            assert capsys.readouterr().err == "error: --r applies only to srht/sign sketches\n"
            assert not out.exists()

    def test_precond_outputs(self, dataset_files, tmp_path):
        x_path, _ = dataset_files
        rc = run_cli(
            "precond", "--x", x_path, "--kind", "identity",
            "--out-t", tmp_path / "t.csv", "--out-p", tmp_path / "p.csv",
            "--out-summary", tmp_path / "sum.json",
        )
        assert rc == 0
        T = load_matrix(tmp_path / "t.csv")
        P = load_matrix(tmp_path / "p.csv")
        assert T.shape == (3, 3) and P.shape == (3, 3)
        np.testing.assert_allclose(np.abs(np.linalg.det(P)), 1.0, atol=1e-12)
        summary = json.loads((tmp_path / "sum.json").read_text())
        svals = summary["singular_values_x_rinv"]
        np.testing.assert_allclose(svals, np.ones(3), atol=1e-10)
        X = load_matrix(x_path)
        R = T @ P
        np.testing.assert_allclose(
            np.linalg.svd(X @ np.linalg.inv(R), compute_uv=False),
            np.ones(3), atol=1e-10,
        )

    def test_precond_may_write_over_its_mapped_input(self, tmp_path):
        # x.npy is mapped, not copied: saving T over it must come after the
        # last read of X, or the read finds the truncated file (SIGBUS past
        # its end), so the command runs in a child
        assert run_cli("gen", "--n", 4096, "--d", 4, "--out-x", tmp_path / "ref.npy") == 0
        (tmp_path / "x.npy").write_bytes((tmp_path / "ref.npy").read_bytes())
        assert run_cli("precond", "--x", tmp_path / "ref.npy", "--kind", "identity",
                       "--out-t", tmp_path / "t.npy", "--out-summary", tmp_path / "ref.json") == 0
        proc = subprocess.run(
            [sys.executable, "-m", "cullsq.cli", "precond", "--x", str(tmp_path / "x.npy"),
             "--kind", "identity", "--out-t", str(tmp_path / "x.npy"),
             "--out-summary", str(tmp_path / "x.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert (tmp_path / "x.npy").read_bytes() == (tmp_path / "t.npy").read_bytes()


class TestKaczmarzCommand:
    def test_trace_and_solution(self, tmp_path):
        run_cli(
            "gen", "--n", 100, "--d", 4, "--noise", 0, "--seed", 8,
            "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv",
        )
        rc = run_cli(
            "kaczmarz", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv",
            "--mode", "exact", "--iters", 120, "--seed", 9,
            "--trace", tmp_path / "trace.csv", "--out", tmp_path / "w.csv",
        )
        assert rc == 0
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,squared_error"
        assert len(lines) == 122  # header + t = 0..120
        final = float(lines[-1].split(",")[1])
        first = float(lines[1].split(",")[1])
        assert final <= 1e-6 * first
        X, y = load_matrix(tmp_path / "x.csv"), load_vector(tmp_path / "y.csv")
        w = load_vector(tmp_path / "w.csv")
        w_star = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.linalg.norm(w - w_star) <= 1e-3 * np.linalg.norm(w_star)

    def test_fast_mode_runs(self, tmp_path):
        run_cli(
            "gen", "--n", 128, "--d", 3, "--noise", 0, "--seed", 10,
            "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv",
        )
        rc = run_cli(
            "kaczmarz", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv",
            "--mode", "fast", "--iters", 80, "--seed", 11, "--out", tmp_path / "w.csv",
        )
        assert rc == 0


class TestVerifyCommand:
    def test_one_point_passes_and_writes_report(self, tmp_path, capsys):
        rc = run_cli(
            "verify", "one-point", "--n", 128, "--d", 5,
            "--design", "hadamard-uniform", "--seed", 12,
            "--out", tmp_path / "report.json",
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "criterion one-point-ratio-le-bound: PASS" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["config"]["seed"] == 12
        assert "timings" in report

    def test_rerun_byte_identical_modulo_timings(self, tmp_path):
        path = tmp_path / "report.json"
        texts, codes = [], []
        for _ in range(2):
            codes.append(
                run_cli(
                    "verify", "sampler", "--n", 10, "--d", 2, "--k", 2,
                    "--trials", 5000, "--seed", 13, "--out", path,
                )
            )
            texts.append(path.read_text())
        assert codes[0] == codes[1]
        a, b = (json.loads(t) for t in texts)
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_failing_criterion_exits_two(self, capsys, monkeypatch):
        # the accept-every-proposal mutant, at 2000 draws
        accept_every_proposal(monkeypatch)
        rc = run_cli(
            "verify", "sampler", "--n", 10, "--d", 2, "--k", 2,
            "--trials", 2000, "--seed", 14,
        )
        assert rc == 2
        assert "sampler-tv-lt-bound: FAIL" in capsys.readouterr().out

    def test_sampler_defaults_pass(self, capsys):
        assert run_cli("verify", "sampler") == 0
        assert "FAIL" not in capsys.readouterr().out

    # an exact sampler's expected TV is 0.053 at 2000 draws, and seed
    # 1053 measures 0.0101 at the defaults: both above 0.01, both inside
    # the bound calibrated at the run's own draw count
    @pytest.mark.parametrize("flags", [["--trials", 2000], ["--seed", 1053]],
                             ids=["trials-2000", "seed-1053"])
    def test_exact_sampler_passes_tv_at_its_draw_count(self, capsys, flags):
        assert run_cli("verify", "sampler", *flags) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_accept_every_proposal_fails_tv_at_defaults(self, tmp_path, monkeypatch):
        # the proposal distribution itself, about 0.27 from the target in
        # TV; test_failing_criterion_exits_two runs it at 2000 draws
        accept_every_proposal(monkeypatch)
        out = tmp_path / "rep.json"
        assert run_cli("verify", "sampler", "--out", out) == 2
        crit = {c["name"]: c for c in json.loads(out.read_text())["criteria"]}
        tv = crit["sampler-tv-lt-bound"]
        assert not tv["passed"] and tv["measured"] > 0.25

    def test_invalid_config_exits_one(self, capsys):
        rc = run_cli("verify", "k-points", "--n", 12, "--d", 2, "--k", 6)
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--mode", "fast", "--iters", "0"], "iters"),
            (["--kappa", "nan"], "kappa"),
            (["--kappa", "0.5"], "kappa"),
            (["--trials", "1"], "trials"),
        ],
        ids=["iters-zero", "kappa-nan", "kappa-below-one", "one-trial"],
    )
    def test_bad_kaczmarz_setting_exits_one_naming_it(self, capsys, flags, field):
        rc = run_cli("verify", "kaczmarz", *flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    def test_sampler_tv_bound_at_one_exits_one_naming_it(self, capsys):
        # 2000 draws over C(22, 15) = 170,544 subsets: the TV bound is 1.037,
        # above the largest possible TV, so the check could not fail
        assert run_cli("verify", "sampler", "--n", 22, "--d", 1, "--k", 15,
                       "--trials", 2000) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1.0368" in err and "2000 draws" in err

    @pytest.mark.parametrize("experiment", ["jlt", "k-points"])
    def test_one_trial_has_no_standard_error(self, capsys, experiment):
        assert run_cli("verify", experiment, "--trials", 1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trials" in err

    @pytest.mark.parametrize("experiment", ["sampler", "jlt"])
    def test_config_naming_only_the_experiment_matches_the_bare_command(
        self, tmp_path, experiment
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": experiment}))
        configs = []
        for extra in ([], ["--config", cfg_path]):
            out = tmp_path / "rep.json"
            assert run_cli("verify", experiment, *extra, "--out", out) == 0
            configs.append(json.loads(out.read_text())["config"])
        assert configs[0] == configs[1]

    @pytest.mark.parametrize(
        "text",
        [b'{"n": 12,', b'["sampler"]', b'{"design": "gau\xc3\x9fian"}',
         b'{"experiment": "sampler", "n": "12"}', b'{"n": true}', b'{"kappa": [1e6]}'],
        ids=["truncated", "not-an-object", "non-ascii", "string-n", "bool-n", "list-kappa"],
    )
    def test_bad_config_file_exits_one_with_one_line(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(text)
        assert run_cli("verify", "sampler", "--config", cfg_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # for each field but the experiment, one that reads it and a valid value
    FLAG_CASES = dict(n=("one-point", 64), d=("one-point", 3), k=("k-points", 3),
                      design=("one-point", "coherent"), noise=("one-point", 0.5),
                      trials=("precond", 3), seed=("one-point", 9), mode=("kaczmarz", "exact"),
                      kappa=("kaczmarz", 10.0), iters=("kaczmarz", 7),
                      out=("one-point", "rep.json"))

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"])
    def test_every_config_field_is_a_flag(self, tmp_path, monkeypatch, field):
        monkeypatch.chdir(tmp_path)
        experiment, value = self.FLAG_CASES[field]
        flag = "--" + field.replace("_", "-")
        assert run_cli("verify", experiment, flag, value, "--out", "rep.json") == 0
        assert json.loads((tmp_path / "rep.json").read_text())["config"][field] == value

    @pytest.mark.parametrize("experiment, flag, value",
                             [("one-point", "--design", "nope"), ("kaczmarz", "--mode", "slow")],
                             ids=["--design-nope", "--mode-slow"])
    def test_bad_choice_reaches_validate(self, capsys, experiment, flag, value):
        assert run_cli("verify", experiment, flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown") and err.count("\n") == 1 and value in err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "k-points", "n": 12, "d": 2, "k": 2, "seed": 15}))
        rc = run_cli(
            "verify", "k-points", "--config", cfg_path, "--k", 3,
            "--out", tmp_path / "rep.json",
        )
        assert rc == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["config"]["k"] == 3
        assert report["config"]["n"] == 12


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["verify", "k-points", "--n", "abc"], "error: cullsq"),
        (["gen", "--n", "5", "--out-x", "x.csv"], "error: cullsq"),
        (["verify", "nope"], "error: cullsq"),
        (["reject-sample", "--x", "x.csv", "--k", "2", "--max-trials", "3"], "error: cullsq"),
        (["verify", "one-point", "--spike-fraction", "0.2"], "error: cullsq"),
        ([], "error: cullsq"),
        (["gen", "--n", "-1", "--d", "2", "--out-x", "a.csv"], "error: need n > d >= 1"),
        (["gen", "--n", "10", "--d", "-2", "--out-x", "a.csv"], "error: need n > d >= 1"),
        (["verify", "kaczmarz", "--d", "1"], "error: kaczmarz experiment needs d >= 2"),
        (["verify", "jlt", "--d", "1"], "error: jlt experiment needs d >= 2"),
        (["verify", "sampler", "--noise", "7"], "error: sampler experiment does not read noise"),
        (["verify", "one-point", "--kappa", "5"], "error: one-point experiment does not read"),
        (["verify", "one-point", "--mode", "fast"], "error: one-point experiment does not read"),
        (["verify", "one-point", "--iters", "3"], "error: one-point experiment does not read"),
        (["verify", "one-point", "--k", "4"], "error: one-point experiment does not read k"),
        (["verify", "kaczmarz", "--design", "coherent"],
         "error: kaczmarz experiment does not read design"),
    ],
    ids=["bad-int", "missing-flag", "unknown-experiment", "deleted-max-trials",
         "deleted-spike-fraction", "no-command", "gen-negative-n", "gen-negative-d",
         "kaczmarz-d1", "jlt-d1", "sampler-noise", "one-point-kappa", "one-point-mode",
         "one-point-iters", "one-point-k", "kaczmarz-design"],
)
def test_usage_error_exits_one_with_one_line(capsys, argv, prefix):
    # exit 2 from verify means a failed criterion and nothing else
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 0
    assert capsys.readouterr().out


# the --help text of the top level and of each command, 80 columns wide: a
# parser that dropped, added or reordered a flag or a help string differs
HELP_TEXT = json.loads((Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.parametrize("argv", list(HELP_TEXT))
def test_help_text_is_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as info:
        run_cli(*argv.split())
    assert info.value.code == 0
    assert capsys.readouterr().out == HELP_TEXT[argv]


def modules_loaded_by(*argvs):
    """The numpy and cullsq modules a fresh interpreter holds after ``main``
    runs each argv in turn; every run must exit 0."""
    script = f"""
import sys
from cullsq.cli import main
for argv in {[[str(a) for a in argv] for argv in argvs]!r}:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "cullsq")))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", [["--version"], ["--help"]])
def test_version_and_help_load_no_numpy(argv):
    # _Parser.error raises CullsqError, so errors is the one module beyond cli
    assert modules_loaded_by(argv) == {"cullsq", "cullsq._version", "cullsq.cli", "cullsq.errors"}


def modules_imported(argv, cwd=None):
    """Every module the import-time log of ``python -X importtime argv``
    names; the module ``-m`` runs as __main__ is not among them."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "imported package" not in line}


def test_version_imports_nothing_beyond_argparse(tmp_path):
    # against a stub that runs argparse's version action under python -m,
    # a new standard-library import on the start-up path shows; __future__
    # is the annotations import cullsq's modules open with
    (tmp_path / "version_stub.py").write_text(
        "import argparse\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_argument('--version', action='version', version='0')\n"
        "parser.parse_args(['--version'])\n"
    )
    stub = modules_imported(["-m", "version_stub"], cwd=tmp_path)
    cli = modules_imported(["-m", "cullsq.cli", "--version"]) | {"cullsq.cli"}
    assert cli - stub == {"__future__", "cullsq", "cullsq._version", "cullsq.cli",
                          "cullsq.errors"}


def test_gen_and_solve_load_only_their_modules(tmp_path):
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    loaded = modules_loaded_by(["gen", "--n", 64, "--d", 3, "--out-x", x, "--out-y", y],
                               ["solve", "--x", x, "--y", y])
    assert "cullsq.regression" in loaded and "numpy" in loaded
    assert not loaded & {"cullsq.experiments", "cullsq.influence", "cullsq.kaczmarz"}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cullsq.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_commands_that_never_factor_do_not_import_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy made unimportable,
    # every command runs, the ones that factor and sketch included
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    script = f"""
import sys
sys.modules["scipy"] = None
import cullsq
from cullsq import influence
from cullsq.cli import main
codes = [main(argv) for argv in (
    ["gen", "--n", "64", "--d", "3", "--out-x", {str(x)!r}, "--out-y", {str(y)!r}],
    ["solve", "--x", {str(x)!r}, "--y", {str(y)!r}],
    ["reject-sample", "--x", {str(x)!r}, "--k", "2"],
    ["kaczmarz", "--x", {str(x)!r}, "--y", {str(y)!r}, "--mode", "exact", "--iters", "50"],
    ["kaczmarz", "--x", {str(x)!r}, "--y", {str(y)!r}, "--mode", "fast", "--iters", "50"],
    ["precond", "--x", {str(x)!r}, "--kind", "srht", "--r", "32"],
    ["sketch", "--in", {str(x)!r}, "--kind", "srht", "--r", "32",
     "--out", {str(tmp_path / "s.csv")!r}],
    ["verify", "one-point"],
    ["verify", "k-points"],
    ["verify", "sampler"],
    ["verify", "precond"],
    ["verify", "jlt"],
    ["verify", "kaczmarz"],
)]
print(codes)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == str([0] * 13)
