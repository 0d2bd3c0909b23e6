"""Tests for config parsing, serialization, and the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrdextremes
from lrdextremes import cli, simulate
from lrdextremes import config as config_module
from lrdextremes.cli import main
from lrdextremes.config import ExperimentConfig, build_problem, parse_config
from lrdextremes.errors import ConfigError, InfeasibleConfigError
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

CASE2_ANALYTIC = """
beta = 0.8
x_marginal = pareto:4
y_marginal = exponential
xi = 0.5
n = 10000
R = 4
master_seed = 99
"""

# declared X marginals that mc, convergence and simulate refuse under student_t:6,1 innovations:
# xi = 0.95 clears the Case 2 threshold, so only the Pareto marginal itself is refused,
# and a t_6 linear process lies in the Frechet domain, not in the Gaussian's
PARETO_X = CASE2_ANALYTIC.replace("xi = 0.5", "xi = 0.95")
GAUSSIAN_X = MINIMAL_CASE4.replace("n = 32768", "n = 10000")
GAUSSIAN_UNDER_T = "Gaussian X marginal under student_t innovations"
# an 'empirical:' spec names no X marginal: parse refuses it like any other unknown spec
EMPIRICAL_X = GAUSSIAN_X + "x_marginal = empirical:0.05\n"
EMPIRICAL_REFUSAL = "key 'x_marginal': unknown x_marginal spec 'empirical:0.05'"

SMALL_CASE4 = MINIMAL_CASE4.replace("n = 32768", "n = 512").replace("R = 400", "R = 2")

# Y = X over the Gaussian marginal: the target's repr nests the marginal's
IDENTITY_OVER_GAUSSIAN = MINIMAL_CASE4.replace("y_marginal = exponential", "y_marginal = identity")


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
    # the marginals' reprs enter the hash; a nested one must not carry an object address either
    src = str(Path(lrdextremes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    hashes = [
        subprocess.run(
            [sys.executable, "-c", HASH_SCRIPT],
            input=IDENTITY_OVER_GAUSSIAN,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for _ in range(2)
    ]
    cfg = parse_config(IDENTITY_OVER_GAUSSIAN)
    coeffs, dist, mx, ty = build_problem(cfg)
    assert repr(mx) in repr(ty) and "0x" not in repr(ty)
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

    @pytest.mark.parametrize("spec", ["bogus", "empirical:0.05"])
    def test_build_problem_refuses_an_unknown_x_marginal_by_name(self, spec):
        # a config built directly skips parse_config; no unknown spec may fall into a known branch
        cfg = ExperimentConfig(beta=0.8, y_marginal="exponential", xi=0.9, master_seed=1, n=512, x_marginal=spec)
        with pytest.raises(ConfigError, match=f"unknown x_marginal spec '{spec}'"):
            build_problem(cfg)

    @pytest.mark.parametrize(
        "field,spec,key",
        [
            ("x_marginal", "pareto", "x_marginal"),
            ("y_marginal", "pareto", "y_marginal"),
            ("innovation", "gaussian:abc", "innovation"),
            ("l0", "logpower:1", "L0"),
        ],
    )
    def test_build_problem_refuses_a_malformed_spec_by_key(self, field, spec, key):
        # the parser that parse_config uses reads a directly built config's specs too
        fields = dict(beta=0.8, y_marginal="exponential", xi=0.9, master_seed=1, n=512)
        cfg = ExperimentConfig(**{**fields, field: spec})
        with pytest.raises(ConfigError, match=f"^key '{key}': "):
            build_problem(cfg)

    # config text -> parse_config's whole violation list, text and order
    BASE = "beta = 0.8\ny_marginal = exponential\nxi = 0.9\nn = 512\nmaster_seed = 7\n"
    VIOLATIONS = {
        "out_of_range": (
            "beta = 1.5\ny_marginal = exponential\nxi = 1.5\nn = 3\nR = 0\np_override = 0\nmaster_seed = -1\n"
            "trunc_tol = 0.5\n",
            [
                "key 'beta': beta must lie in (1/2, 1) (got 1.5)",
                "key 'xi': xi must lie in (0, 1) (got 1.5)",
                "key 'n': n must be >= 4 (got 3)",
                "key 'R': R must be >= 1 (got 0)",
                "key 'p_override': p_override must be >= 1 (got 0)",
                "key 'master_seed': master_seed must be a nonnegative integer (got -1)",
                "key 'trunc_tol': trunc_tol must lie in (0, 0.1) (got 0.5)",
            ],
        ),
        "non_numeric": (
            "beta = abc\ny_marginal = exponential\nxi = abc\nn = abc\nR = abc\np_override = abc\nmaster_seed = abc\n"
            "trunc_tol = abc\nn_grid = 256,x\n",
            [
                "key 'beta': could not convert string to float: 'abc'",
                "key 'xi': could not convert string to float: 'abc'",
                "key 'n': invalid literal for int() with base 10: 'abc'",
                "key 'R': invalid literal for int() with base 10: 'abc'",
                "key 'p_override': invalid literal for int() with base 10: 'abc'",
                "key 'master_seed': invalid literal for int() with base 10: 'abc'",
                "key 'trunc_tol': could not convert string to float: 'abc'",
                "key 'n_grid': invalid literal for int() with base 10: 'x'",
            ],
        ),
        "missing": (
            "R = 2\n",
            [
                "missing required key 'beta'",
                "missing required key 'y_marginal'",
                "missing required key 'xi'",
                "missing required key 'master_seed'",
                "one of 'n' or 'n_grid' is required",
            ],
        ),
        "lines": (
            BASE + "beta = 0.7\ngamma = 1\nno equals sign\n",
            ["duplicate key 'beta'", "unknown key 'gamma'", "line 8: expected 'key = value', got 'no equals sign'"],
        ),
        "unordered_n_grid": (
            BASE.replace("n = 512", "n_grid = 512,256"),
            ["key 'n_grid': must be a strictly increasing comma-separated list"],
        ),
        "L0": (BASE + "L0 = logpower:1\n", ["key 'L0': logpower needs 'logpower:C,B', got 'logpower:1'"]),
        "innovation": (
            BASE + "innovation = student_t:abc\n",
            ["key 'innovation': student_t needs 'student_t:NU[,SIGMA]', got 'student_t:abc'"],
        ),
        "x_marginal": (
            BASE + "x_marginal = pareto:4,x\n",
            ["key 'x_marginal': pareto needs 'pareto:ALPHA[,XM]', got 'pareto:4,x'"],
        ),
        "y_marginal": (
            BASE.replace("exponential", "pareto:abc"),
            ["key 'y_marginal': pareto needs 'pareto:ALPHA0', got 'pareto:abc'"],
        ),
        "k_n": (
            BASE.replace("n = 512", "n = 5").replace("xi = 0.9", "xi = 0.99"),
            ["k_n = ceil(5^0.99) = 5 must lie in [2, n-1]"],
        ),
    }

    @pytest.mark.parametrize("name", list(VIOLATIONS))
    def test_violation_battery(self, name):
        text, violations = self.VIOLATIONS[name]
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == violations

    # the out-of-range battery's refusal of each key
    REFUSED = {v.split("'")[1]: v for v in VIOLATIONS["out_of_range"][1]}

    @pytest.mark.parametrize(
        "fields,violations",
        [
            pytest.param({"trunc_tol": 0.5}, [REFUSED["trunc_tol"]], id="trunc_tol"),
            pytest.param({"master_seed": -1}, [REFUSED["master_seed"]], id="master_seed"),
            pytest.param({"p_override": 0}, [REFUSED["p_override"]], id="p_override"),
            pytest.param({"n": 3}, [REFUSED["n"]], id="n"),
            pytest.param({"xi": 1.5}, [REFUSED["xi"]], id="xi"),
            pytest.param({"n": 5, "xi": 0.99}, VIOLATIONS["k_n"][1], id="k_n"),
            pytest.param({"n": 3, "trunc_tol": 0.5}, [REFUSED["n"], REFUSED["trunc_tol"]], id="two"),
        ],
    )
    def test_build_problem_refuses_a_directly_built_config_with_the_parsers_text(self, fields, violations, monkeypatch):
        # every violation at once, before any coefficient is built
        def no_coefficients(*args, **kwargs):
            raise AssertionError("build_problem built coefficients for a refused config")

        monkeypatch.setattr(config_module, "build_coefficient_model", no_coefficients)
        cfg = ExperimentConfig(**{**dict(beta=0.8, y_marginal="exponential", xi=0.9, master_seed=1, n=512), **fields})
        with pytest.raises(ConfigError) as err:
            build_problem(cfg)
        assert err.value.violations == violations

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

    def test_scaling_builds_its_set_up_on_its_threads(self, tmp_path, capsys, monkeypatch):
        # beta 0.7 puts M at the 2^22 cap: many row blocks and chunks, so --threads 2 starts
        # set-up threads, --threads 1 none, and the report is the same bytes
        pools = []

        class Counting(simulate.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers", args[0] if args else None))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Counting)
        cfg = write_config(tmp_path, MINIMAL_CASE4.replace("beta = 0.8", "beta = 0.7").replace("n = 32768", "n = 8192"))
        reports = {}
        for threads in (1, 2):
            del pools[:]
            assert main(["scaling", "--config", cfg, "--out", str(tmp_path), "--threads", str(threads)]) == 0
            reports[threads] = capsys.readouterr().out
            assert (len(pools) > 0) == (threads > 1) and all(k == 2 for k in pools)
        assert "sigma_n1 = " in reports[1] and reports[2] == reports[1]

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

    @pytest.mark.parametrize("command", ["mc", "convergence", "diag"])
    def test_negative_threads_exit_2_with_errors_csv(self, command, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CASE4 + "n_grid = 256,512\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--threads", "-1"]) == 2
        errors = (tmp_path / "errors.csv").read_text().splitlines()
        assert errors[0] == "code,message"
        assert len(errors) == 2 and errors[1].startswith("2,threads = -1 must be >= 0")
        assert "threads = -1" in capsys.readouterr().err
        assert not (tmp_path / "z_samples.csv").exists()

    def test_mc_runtime_refusal_cites_condition(self):
        # a config built directly skips parse_config, so the run itself refuses xi below the threshold
        cfg = ExperimentConfig(beta=0.8, y_marginal="exponential", xi=0.7, master_seed=1, n=512, replicates=2)
        with pytest.raises(InfeasibleConfigError) as err:
            run_replicates(cfg)
        assert "(****)" in str(err.value) and "CASE4" in str(err.value)

    @pytest.mark.parametrize(
        "xi,spec,refusal",
        [
            pytest.param(0.95, {"x_marginal": "pareto:4"}, "declared Pareto X marginal", id="pareto_x"),
            pytest.param(0.9, {"innovation": "student_t:6,1"}, GAUSSIAN_UNDER_T, id="gaussian_x_student_t"),
        ],
    )
    def test_run_refuses_a_directly_built_marginal_it_cannot_run(self, xi, spec, refusal):
        # scaling and diag parse these configs without the refusal; a run refuses them with the CLI's text
        cfg = ExperimentConfig(beta=0.8, y_marginal="exponential", xi=xi, master_seed=2026004, n=512, replicates=2, **spec)
        text = SMALL_CASE4.replace("xi = 0.9", f"xi = {xi}") + "".join(f"{k} = {v}\n" for k, v in spec.items())
        assert parse_config(text, require_feasible=False) == cfg
        with pytest.raises(InfeasibleConfigError, match=f"^{refusal}"):
            run_replicates(cfg)

    @pytest.mark.parametrize(
        "command,size,text,refusal",
        [
            pytest.param("mc", "n = 512", PARETO_X, "declared Pareto X marginal", id="mc-n = 512"),
            pytest.param("simulate", "n = 512", PARETO_X, "declared Pareto X marginal", id="simulate-n = 512"),
            pytest.param(
                "convergence", "n_grid = 256,512", PARETO_X, "declared Pareto X marginal", id="convergence-n_grid = 256,512"
            ),
            pytest.param("mc", "n = 512", GAUSSIAN_X, GAUSSIAN_UNDER_T, id="gaussian_x_student_t-mc-n = 512"),
            pytest.param(
                "simulate", "n = 512", GAUSSIAN_X, GAUSSIAN_UNDER_T, id="gaussian_x_student_t-simulate-n = 512"
            ),
            pytest.param(
                "convergence",
                "n_grid = 256,512",
                GAUSSIAN_X,
                GAUSSIAN_UNDER_T,
                id="gaussian_x_student_t-convergence-n_grid = 256,512",
            ),
            pytest.param("mc", "n = 512", EMPIRICAL_X, EMPIRICAL_REFUSAL, id="empirical_x-mc-n = 512"),
            pytest.param(
                "convergence",
                "n_grid = 256,512",
                EMPIRICAL_X,
                EMPIRICAL_REFUSAL,
                id="empirical_x-convergence-n_grid = 256,512",
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
        assert not (tmp_path / "path.csv").exists()

    def test_diag_shares_the_replicate_kernel(self, tmp_path, capsys):
        text = MINIMAL_CASE4.replace("n = 32768", "n = 512").replace("R = 400", "R = 12")
        cfg = write_config(tmp_path, text)
        assert main(["diag", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines() if " = " in ln)
        reps = run_replicates(parse_config(text), R=10).replicates
        assert out["median_u_ratio"] == repr(float(np.median([r.u_ratio for r in reps])))
        sup = repr(float(np.median([r.reduction_sup for r in reps])))
        assert out["median_reduction_sup"] == f"{sup} (over 10 replicates)"

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

    @pytest.mark.parametrize("command", ["mc", "scaling"])
    @pytest.mark.parametrize(
        "text,key",
        [
            pytest.param("beta = 5\n", "beta", id="beta"),
            pytest.param(
                SMALL_CASE4.replace("y_marginal = exponential", "y_marginal = pareto:abc"), "y_marginal", id="y_marginal"
            ),
            pytest.param(SMALL_CASE4 + "innovation = gaussian:abc\n", "innovation", id="innovation"),
            pytest.param(SMALL_CASE4 + "x_marginal = pareto:4,x\n", "x_marginal", id="x_marginal"),
            pytest.param(SMALL_CASE4 + "L0 = constant:abc\n", "L0", id="L0"),
        ],
    )
    def test_bad_config_exit_code(self, tmp_path, capsys, command, text, key):
        cfg = write_config(tmp_path, text)
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        errors = (tmp_path / "errors.csv").read_text().splitlines()
        assert any(ln.startswith(f"2,key '{key}'") for ln in errors[1:])

    def test_mc_refuses_a_config_without_n_before_any_set_up(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("mc started a run on a config without n")

        monkeypatch.setattr(cli, "run_replicates", no_run)
        cfg = write_config(tmp_path, SMALL_CASE4.replace("n = 512", "n_grid = 256,512"))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert (tmp_path / "errors.csv").read_text().splitlines() == ["code,message", "2,mc requires the 'n' key"]
        assert "mc requires the 'n' key" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["mc", "--config", "/nonexistent/x.cfg"]) == 2
