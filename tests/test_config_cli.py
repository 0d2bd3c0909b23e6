"""Tests for config parsing, serialization, and the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrdextremes
from lrdextremes import cli
from lrdextremes.cli import main
from lrdextremes.config import build_problem, parse_config
from lrdextremes.errors import ConfigError
from lrdextremes.mc import run_replicates
from lrdextremes.scaling import select_p
from lrdextremes.simulate import config_hash

MINIMAL_CASE4 = """
# Case 4 reference: Gaussian X, exponential Y
beta = 0.8
y_marginal = exponential
xi = 0.9
n = 32768
R = 400
master_seed = 2026004
"""

# fitted (empirical) X marginal: its MDA tag, and so the case, is known only
# after the fit, so the parse step cannot check xi
FITTED_CASE1 = """
beta = 0.8
x_marginal = empirical:0.05
innovation = student_t:6,1
y_marginal = pareto:8
xi = 0.5
n = 1024
R = 4
master_seed = 1
"""

CASE2_ANALYTIC = """
beta = 0.8
x_marginal = pareto:4
y_marginal = exponential
xi = 0.5
n = 10000
R = 4
master_seed = 99
"""

# declared X marginals that mc and convergence refuse under student_t:6,1 innovations:
# xi = 0.95 clears the Case 2 threshold, so only the Pareto marginal itself is refused,
# and a t_6 linear process lies in the Frechet domain, not in the Gaussian's
PARETO_X = CASE2_ANALYTIC.replace("xi = 0.5", "xi = 0.95")
GAUSSIAN_X = MINIMAL_CASE4.replace("n = 32768", "n = 10000")
GAUSSIAN_UNDER_T = "Gaussian X marginal under student_t innovations"


# prints config_hash of the problem that the config on standard input builds
HASH_SCRIPT = """
import sys
from lrdextremes.config import build_problem, parse_config
from lrdextremes.simulate import config_hash
cfg = parse_config(sys.stdin.read())
coeffs, dist, mx, ty = build_problem(cfg)
print(config_hash(coeffs, dist, mx, ty, cfg.n))
"""


def test_fitted_config_hash_is_the_same_in_every_interpreter():
    # the fitted marginal's repr enters the hash; it must not carry an object address
    src = str(Path(lrdextremes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    hashes = [
        subprocess.run(
            [sys.executable, "-c", HASH_SCRIPT], input=FITTED_CASE1, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
        for _ in range(2)
    ]
    cfg = parse_config(FITTED_CASE1)
    coeffs, dist, mx, ty = build_problem(cfg)
    assert "0x" not in repr(mx)
    assert hashes == [config_hash(coeffs, dist, mx, ty, cfg.n)] * 2


class TestParseConfig:
    def test_minimal_case4(self):
        cfg = parse_config(MINIMAL_CASE4)
        assert cfg.beta == 0.8
        assert cfg.xi == 0.9
        assert cfg.replicates == 400
        assert cfg.p_override is None
        assert select_p(cfg.beta) == 1  # p auto-selected downstream

    def test_xi_below_threshold_cites_condition(self):
        text = MINIMAL_CASE4.replace("xi = 0.9", "xi = 0.7")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "(****)" in msg
        assert "0.8" in msg

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_CASE4 + "gamma = 1\n")
        assert "gamma" in str(err.value)

    def test_missing_master_seed(self):
        text = MINIMAL_CASE4.replace("master_seed = 2026004", "")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "master_seed" in str(err.value)

    def test_all_violations_collected(self):
        text = "beta = 2.0\nxi = 1.5\ngamma = 1\nn = 100\ny_marginal = exponential\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        v = err.value.violations
        assert len(v) >= 4  # beta, xi, gamma, missing master_seed
        joined = "\n".join(v)
        assert "beta" in joined and "xi" in joined and "gamma" in joined and "master_seed" in joined

    def test_feasibility_can_be_relaxed(self):
        cfg = parse_config(CASE2_ANALYTIC, require_feasible=False)
        assert cfg.x_marginal == "pareto:4"
        with pytest.raises(ConfigError):
            parse_config(CASE2_ANALYTIC)  # strict mode rejects xi = 0.5

    def test_k_n_bounds(self):
        # ceil(5^0.99) = 5 = n breaks k_n <= n - 1
        text = MINIMAL_CASE4.replace("n = 32768", "n = 5").replace("xi = 0.9", "xi = 0.99")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "k_n" in str(err.value)

    def test_empirical_marginal_spec(self):
        text = MINIMAL_CASE4.replace("beta = 0.8", "beta = 0.8\nx_marginal = empirical:0.05\ninnovation = student_t:6,1")
        cfg = parse_config(text)
        assert cfg.x_marginal == "empirical:0.05"

    def test_logpareto_requires_frechet_base(self):
        text = MINIMAL_CASE4.replace("y_marginal = exponential", "y_marginal = logpareto:0.5")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "Frechet" in str(err.value)


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


class TestCli:
    def test_simulate_writes_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_CASE4.replace("n = 32768", "n = 256").replace("R = 400", "R = 2"))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == "i,x,y"
        assert len(lines) == 257

    def test_scaling_prints_karamata_product_even_when_infeasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CASE2_ANALYTIC)
        code = main(["scaling", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "k_n = 100" in out
        assert "feasible = no" in out
        line = next(ln for ln in out.splitlines() if ln.startswith("A_n_K_n"))
        assert float(line.split("=")[1]) == pytest.approx(0.9969, abs=5e-4)

    def test_mc_reproducible_files(self, tmp_path):
        text = MINIMAL_CASE4.replace("n = 32768", "n = 512").replace("R = 400", "R = 10")
        cfg = write_config(tmp_path, text)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["mc", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["mc", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
        for name in ("z_samples.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mc_rejects_infeasible_with_exit_2_and_errors_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CASE2_ANALYTIC)
        code = main(["mc", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        errors = (tmp_path / "errors.csv").read_text().splitlines()
        assert errors[0] == "code,message"
        assert any("(**)" in ln for ln in errors[1:])

    def test_mc_runtime_refusal_cites_condition(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FITTED_CASE1)
        assert parse_config(FITTED_CASE1).xi == 0.5  # accepted at parse time
        code = main(["mc", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        errors = (tmp_path / "errors.csv").read_text().splitlines()
        assert errors[0] == "code,message"
        assert any("(*)" in ln and "CASE1" in ln for ln in errors[1:])

    @pytest.mark.parametrize(
        "command,size,text,refusal",
        [
            pytest.param("mc", "n = 512", PARETO_X, "declared Pareto X marginal", id="mc-n = 512"),
            pytest.param(
                "convergence", "n_grid = 256,512", PARETO_X, "declared Pareto X marginal", id="convergence-n_grid = 256,512"
            ),
            pytest.param("mc", "n = 512", GAUSSIAN_X, GAUSSIAN_UNDER_T, id="gaussian_x_student_t-mc-n = 512"),
            pytest.param(
                "convergence",
                "n_grid = 256,512",
                GAUSSIAN_X,
                GAUSSIAN_UNDER_T,
                id="gaussian_x_student_t-convergence-n_grid = 256,512",
            ),
        ],
    )
    def test_declared_pareto_marginal_refused(self, tmp_path, capsys, command, size, text, refusal):
        cfg = write_config(tmp_path, text.replace("n = 10000", size) + "innovation = student_t:6,1\n")
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        errors = (tmp_path / "errors.csv").read_text().splitlines()
        assert errors[0] == "code,message"
        assert any(ln.startswith(f"2,{refusal}") for ln in errors[1:])
        assert not (tmp_path / "z_samples.csv").exists()

    def test_fit_failure_exit_2_and_errors_csv(self, tmp_path, capsys):
        # a tail fraction of 0.6 reaches below zero, where a Frechet fit is undefined
        text = FITTED_CASE1.replace("empirical:0.05", "empirical:0.6").replace("xi = 0.5", "xi = 0.95")
        cfg = write_config(tmp_path, text)
        code = main(["mc", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        errors = (tmp_path / "errors.csv").read_text().splitlines()
        assert errors[0] == "code,message"
        assert any("Frechet tail fit requires positive tail values" in ln for ln in errors[1:])

    def test_diag_shares_the_replicate_kernel(self, tmp_path, capsys):
        text = MINIMAL_CASE4.replace("n = 32768", "n = 512").replace("R = 400", "R = 12")
        cfg = write_config(tmp_path, text)
        assert main(["diag", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines() if " = " in ln)
        reps = run_replicates(parse_config(text), R=10).replicates
        assert out["median_u_ratio"] == repr(float(np.median([r.u_ratio for r in reps])))
        sup = repr(float(np.median([r.reduction_sup for r in reps])))
        assert out["median_reduction_sup"] == f"{sup} (over 10 replicates)"

    def test_diag_fitted_marginal_has_no_u_ratio(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FITTED_CASE1)
        assert main(["diag", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "median_u_ratio = unavailable" in out
        assert "median_reduction_sup = unavailable" in out

    def test_diag_names_why_the_reduction_is_skipped(self, tmp_path, capsys):
        text = MINIMAL_CASE4.replace("n = 32768", "n = 256").replace("R = 400", "R = 2") + "p_override = 5\n"
        cfg = write_config(tmp_path, text)
        assert main(["diag", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "median_reduction_sup = unavailable (p = 5 > MAX_REDUCTION_ORDER = 4)" in out

    def test_diag_runs_no_replicate_on_a_declared_pareto_marginal(self, tmp_path, capsys, monkeypatch):
        text = CASE2_ANALYTIC.replace("xi = 0.5", "xi = 0.95").replace("n = 10000", "n = 4096")
        cfg = write_config(tmp_path, text + "innovation = student_t:6,1\n")

        def no_replicates(*args, **kwargs):
            raise AssertionError("diag ran replicates on a declared Pareto X marginal")

        monkeypatch.setattr(cli, "_run_replicate_loop", no_replicates)
        assert main(["diag", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines() if " = " in ln)
        assert "power_rank_integral" in out and "D_1" in out
        for name in ("median_u_ratio", "median_reduction_sup"):
            assert out[name].startswith("unavailable (declared Pareto X marginal")

    def test_diag_runs_no_replicate_on_a_gaussian_marginal_under_student_t(self, tmp_path, capsys, monkeypatch):
        text = MINIMAL_CASE4.replace("n = 32768", "n = 4096")
        cfg = write_config(tmp_path, text + "innovation = student_t:6,1\n")

        def no_replicates(*args, **kwargs):
            raise AssertionError("diag ran replicates on a Gaussian X marginal under Student-t innovations")

        monkeypatch.setattr(cli, "_run_replicate_loop", no_replicates)
        assert main(["diag", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines() if " = " in ln)
        assert "power_rank_integral" in out and "D_1" in out
        for name in ("median_u_ratio", "median_reduction_sup"):
            assert out[name].startswith("unavailable (Gaussian X marginal under student_t innovations")

    def test_diag_identity_power_rank(self, tmp_path, capsys):
        text = MINIMAL_CASE4.replace("y_marginal = exponential", "y_marginal = identity").replace(
            "n = 32768", "n = 256"
        ).replace("R = 400", "R = 3")
        cfg = write_config(tmp_path, text)
        code = main(["diag", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        line = next(ln for ln in out.splitlines() if ln.startswith("power_rank_integral"))
        assert float(line.split("=")[1]) == pytest.approx(1.0, rel=1e-6)

    def test_convergence_writes_csv(self, tmp_path):
        text = MINIMAL_CASE4.replace("n = 32768", "n_grid = 256,512").replace("R = 400", "R = 8")
        cfg = write_config(tmp_path, text)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n,k_n,ks_d")

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "beta = 5\n")
        code = main(["mc", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert (tmp_path / "errors.csv").exists()

    def test_missing_config_file(self, capsys):
        assert main(["mc", "--config", "/nonexistent/x.cfg"]) == 2
