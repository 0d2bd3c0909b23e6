"""Tests for the Monte Carlo harness: KS test, replicates, convergence."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtri

from lrdextremes.config import ExperimentConfig, build_problem
from lrdextremes.errors import DomainError, InfeasibleConfigError
from lrdextremes.estats import ProcessFrame, decompose_I, reduction_sup, u_ratio, z_statistic
from lrdextremes.mc import (
    ReplicatePlan,
    ReplicateResult,
    _problem_and_bundle,
    _run_one,
    convergence_study,
    ks_test,
    run_replicates,
    summarize,
    trend_nonincreasing,
    write_convergence_csv,
    write_summary_csv,
    write_z_samples_csv,
)
from lrdextremes.model import (
    CoefficientModel,
    ExponentialTarget,
    GaussianMarginal,
    IdentityTarget,
    InnovationDist,
    ParetoTarget,
    SvConstant,
)
from lrdextremes.scaling import make_bundle
from lrdextremes.simulate import (
    FilterPlan,
    autocovariance,
    config_hash,
    derive_seed,
    gen_innovations,
    moving_average,
    simulate_path,
)
from test_estats import searchsorted_reduction_sup
from test_simulate import peak_over_result


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        beta=0.8,
        y_marginal="exponential",
        xi=0.9,
        master_seed=2026004,
        n=2**10,
        replicates=12,
        trunc_tol=1e-2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestKsTest:
    def test_plugin_grid_distance(self):
        m = 100
        sample = ndtri((np.arange(1, m + 1) - 0.5) / m)
        d, p = ks_test(sample)
        assert d <= 0.005 + 1e-12
        assert p > 0.99

    def test_degenerate_zeros(self):
        d, p = ks_test(np.zeros(100))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_tiny_distance_gives_p_one(self):
        m = 10**5
        sample = ndtri((np.arange(1, m + 1) - 0.5) / m)
        d, p = ks_test(sample)
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_small_sample_rejected(self):
        with pytest.raises(DomainError):
            ks_test(np.zeros(7))

    def test_null_sanity_of_the_tester(self):
        # feeding true standard normal draws: p > 0.01 in >= 95 of 100 batches
        rng = np.random.default_rng(31415)
        hits = 0
        for _ in range(100):
            _, p = ks_test(rng.standard_normal(400))
            hits += p > 0.01
        assert hits >= 95


class TestRunReplicates:
    def test_thread_invariance(self):
        cfg = small_config()
        r1 = run_replicates(cfg, threads=1)
        r2 = run_replicates(cfg, threads=3)
        np.testing.assert_array_equal(r1.z_samples, r2.z_samples)
        assert r1.replicates == r2.replicates
        assert r1.summary == r2.summary

    def test_single_replicate_matches_direct_composition(self):
        cfg = small_config(replicates=1)
        res = run_replicates(cfg)
        coeffs, dist, mx, ty = build_problem(cfg)
        seed = derive_seed(cfg.master_seed, 0)
        pp = simulate_path(coeffs, dist, mx, ty, cfg.n, seed)
        bundle = make_bundle(
            mx,
            ty,
            coeffs.c,
            dist.variance,
            cfg.beta,
            coeffs.L0,
            cfg.n,
            cfg.xi,
            spec_hash=config_hash(coeffs, dist, mx, ty, cfg.n),
        )
        assert res.z_samples[0] == pytest.approx(z_statistic(pp, bundle), rel=1e-12)
        assert res.replicates[0].seed == seed

    def test_infeasible_config_rejected_before_simulation(self):
        cfg = small_config(xi=0.75)  # below the Case 4 threshold beta = 0.8
        with pytest.raises(InfeasibleConfigError):
            run_replicates(cfg)

    def test_identity_holds_per_replicate(self):
        res = run_replicates(small_config())
        for rep in res.replicates:
            assert rep.i1 + rep.i2 + rep.i3 == pytest.approx(rep.z, rel=1e-10, abs=1e-12)

    def test_summary_recomputable_bit_exactly(self):
        res = run_replicates(small_config())
        again = summarize(res.z_samples)
        for key, val in again.items():
            assert res.summary[key] == val

    def test_feasibility_record_present(self):
        res = run_replicates(small_config())
        feas = res.summary["feasibility"]
        assert feas["case"] == "CASE4"
        assert feas["xi_threshold"] == pytest.approx(0.8)
        assert feas["power_rank_integral"] > 0
        assert feas["p"] == 1
        assert feas["reduction_sup"] == "computed"
        off = run_replicates(small_config(replicates=2), with_reduction=False)
        assert off.summary["feasibility"]["reduction_sup"] == "reduction off"
        assert all(math.isnan(rep.reduction_sup) for rep in off.replicates)

    @pytest.mark.parametrize("p", [2, 4])
    def test_higher_order_reduction_sup(self, p):
        # orders above 1 go through the plan's cached c**m spectra, in the pool too
        cfg = small_config(p_override=p, replicates=3)
        res = run_replicates(cfg, threads=1)
        assert run_replicates(cfg, threads=2).replicates == res.replicates
        coeffs, dist, mx, ty = build_problem(cfg)
        for rep in res.replicates:
            eps = gen_innovations(dist, cfg.n + coeffs.M, rep.seed)
            x = moving_average(coeffs.c, eps)
            assert rep.reduction_sup == searchsorted_reduction_sup(x, eps, coeffs.c, p, mx, res.bundle.sigma_n1)

    def test_partitioned_filter_thread_invariance(self):
        # M + 1 = 32263 >= 32 n at n = 2^6: the filter runs in segments of 4 n taps
        cfg = small_config(p_override=2, replicates=4, n=2**6, trunc_tol=1e-3)
        res = run_replicates(cfg, threads=1)
        again = run_replicates(cfg, threads=2)
        assert again.z_samples.tobytes() == res.z_samples.tobytes()
        assert again.replicates == res.replicates
        assert all(math.isfinite(rep.reduction_sup) for rep in res.replicates)

    def test_partitioned_filter_thread_invariance_order_three(self):
        # p = 3: c**2 filtered in segments, the c**3 total from the window sums, in the pool too
        cfg = small_config(p_override=3, replicates=4, n=2**6, trunc_tol=1e-3)
        res = run_replicates(cfg, threads=1)
        again = run_replicates(cfg, threads=2)
        assert again.z_samples.tobytes() == res.z_samples.tobytes()
        assert again.replicates == res.replicates
        coeffs, dist, mx, _ = build_problem(cfg)
        for rep in res.replicates:
            eps = gen_innovations(dist, cfg.n + coeffs.M, rep.seed)
            x = moving_average(coeffs.c, eps)
            assert rep.reduction_sup == searchsorted_reduction_sup(x, eps, coeffs.c, 3, mx, res.bundle.sigma_n1)

    @pytest.mark.parametrize("n,segments", [(2**6, 127), (2**10, 1)])
    def test_run_transforms_the_taps_once_per_power(self, n, segments, monkeypatch):
        # M = 32262: partitioned at n = 2^6 (M + 1 >= 32 n), one segment at n = 2^10
        spectrum = FilterPlan._spectrum
        for p, transformed in [(2, [1]), (3, [1, 2])]:
            # the top power p is summed through its window sums: c**p is never transformed
            cfg = small_config(p_override=p, replicates=2, n=n, trunc_tol=1e-3)
            problem, bundle = _problem_and_bundle(cfg, n)
            plan = ReplicatePlan.build(problem, bundle, with_reduction=True)
            assert len(bundle.filter_plan.spectra[0]) == segments
            assert plan.filter.spectra[0] is bundle.filter_plan.spectra[0]
            assert len(plan.filter.spectra) == p - 1
            assert plan.filter.weights.shape == (n + plan.filter.M,)
            powers = []
            monkeypatch.setattr(FilterPlan, "_spectrum", lambda self, m: powers.append(m) or spectrum(self, m))
            res = run_replicates(cfg, threads=1)
            monkeypatch.undo()
            assert powers == transformed
            # the result keeps the bundle's numbers, not its spectra and taps
            assert res.bundle.filter_plan is None and res.bundle.sigma_n1 == bundle.sigma_n1

    def test_partitioned_bundle_sigma_matches_pairwise_weights(self):
        cfg = small_config(p_override=2, n=2**6, trunc_tol=1e-3)
        (coeffs, dist, _, _), bundle = _problem_and_bundle(cfg, cfg.n)
        assert coeffs.M == 32262 and len(bundle.filter_plan.spectra[0]) > 1
        n, s2 = cfg.n, dist.variance
        rho = np.array([autocovariance(coeffs.c, s2, k) for k in range(n)])
        oracle = math.sqrt(n * rho[0] + 2.0 * float(np.dot(n - np.arange(1.0, n), rho[1:])))
        assert bundle.sigma_n1 == pytest.approx(oracle, rel=1e-13)

    def test_reduction_order_above_four_is_not_computed(self):
        res = run_replicates(small_config(p_override=5, replicates=2))
        assert np.all(np.isfinite(res.z_samples))
        assert all(math.isnan(rep.reduction_sup) for rep in res.replicates)
        assert res.summary["feasibility"]["reduction_sup"] == "p = 5 > MAX_REDUCTION_ORDER = 4"


def result_bytes(rep: ReplicateResult) -> bytes:
    return np.array(dataclasses.astuple(rep)[2:]).tobytes()


@dataclasses.dataclass(frozen=True)
class CountedGaussian(GaussianMarginal):
    """Gaussian X marginal that counts the points it evaluates F, F^(r) and Q at."""

    counts: Counter = dataclasses.field(default_factory=Counter, compare=False, repr=False)

    def F(self, x):
        self.counts["F"] += np.size(x)
        return super().F(x)

    def F_deriv(self, r, x):
        self.counts[f"F{r}"] += np.size(x)
        return super().F_deriv(r, x)

    def F_derivs(self, p, x):
        for r in range(1, p + 1):
            self.counts[f"F{r}"] += np.size(x)
        return super().F_derivs(p, x)

    def Q(self, y):
        self.counts["Q"] += np.size(y)
        return super().Q(y)


def counted_target(base):
    """Subclass of the target dataclass ``base`` that counts the points it evaluates Q_Y at."""

    @dataclasses.dataclass(frozen=True)
    class Counted(base):
        counts: Counter = dataclasses.field(default_factory=Counter, compare=False, repr=False)

        def Q(self, u):
            self.counts["Q"] += np.size(u)
            return super().Q(u)

    return Counted


class TestReplicateKernel:
    # M = 32262 at trunc_tol 1e-3: partitioned at n = 2^6 (M + 1 >= 32 n), one segment at n = 2^10
    @pytest.mark.parametrize("n,segments", [(2**6, 127), (2**10, 1)])
    @pytest.mark.parametrize("y_marginal,xi", [("exponential", 0.9), ("pareto:6", 0.97), ("identity", 0.9)])
    def test_run_one_matches_the_public_route(self, y_marginal, xi, n, segments):
        cfg = small_config(y_marginal=y_marginal, xi=xi, n=n, trunc_tol=1e-3)
        problem, bundle = _problem_and_bundle(cfg, n)
        plan = ReplicatePlan.build(problem, bundle, with_reduction=True)
        assert len(plan.filter.spectra[0]) == segments
        coeffs, dist, mx, ty = problem
        for r in range(4):
            seed = derive_seed(cfg.master_seed, r)
            rep = _run_one(r, seed, problem, bundle, plan)
            # the public functions, each building what it needs on its own
            eps = gen_innovations(dist, n + coeffs.M, seed)
            x = moving_average(coeffs.c, eps)
            frame = ProcessFrame.from_path(x, mx, ty, bundle.sigma_n1)
            dec = decompose_I(frame, bundle)
            red = reduction_sup(x, eps, coeffs.c, bundle.p, mx, bundle.sigma_n1).value
            public = ReplicateResult(r, seed, dec.z, dec.i1, dec.i2, dec.i3, u_ratio(frame, bundle.k_n), red)
            assert result_bytes(rep) == result_bytes(public)
            assert red == searchsorted_reduction_sup(x, eps, coeffs.c, bundle.p, mx, bundle.sigma_n1)
            assert dec.z == z_statistic(ty.Q(frame.u_sorted), bundle)

    def test_a_replicate_holds_no_innovation_array(self):
        # a partitioned p = 2 plan: the pass holds one row block (its buffer, the padded copy rfft
        # makes and the transform, about 3 * _BLOCK_POINTS floats whatever M is), never the n + M
        # innovations, so the replicate peaks below half of one (n + M)-float array above its result
        n, M = 2**8, 2**21
        cm = CoefficientModel.build(0.7, SvConstant(1.0), M)
        mx, ty = GaussianMarginal(math.sqrt(cm.total_square_sum)), ExponentialTarget()
        bundle = make_bundle(mx, ty, cm.c, 1.0, 0.7, cm.L0, n, 0.9, p=2)
        problem = (cm, InnovationDist.gaussian(1.0), mx, ty)
        plan = ReplicatePlan.build(problem, bundle, with_reduction=True)
        assert plan.filter.order == 2 and len(plan.filter.spectra[0]) > 1
        peak, rep = peak_over_result(lambda: _run_one(0, derive_seed(5, 0), problem, bundle, plan))
        assert math.isfinite(rep.reduction_sup)
        assert peak < 8 * (n + M) // 2

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("target", ["exponential", "pareto", "identity"])
    def test_one_evaluation_per_point(self, target, p):
        n = 2**10
        cfg = small_config(n=n, p_override=p, xi=0.97 if target == "pareto" else 0.9)
        (coeffs, dist, mx, _), bundle = _problem_and_bundle(cfg, n)
        counted_x = CountedGaussian(mx.s)
        counted_y = {
            "exponential": counted_target(ExponentialTarget)(),
            "pareto": counted_target(ParetoTarget)(6.0),
            "identity": IdentityTarget(counted_x),  # Q_Y is the counted X quantile
        }[target]
        q_counts = counted_x.counts if target == "identity" else counted_y.counts
        problem = (coeffs, dist, counted_x, counted_y)
        plan = ReplicatePlan.build(problem, bundle, with_reduction=True)
        k_n = bundle.k_n
        for r in range(3):
            counted_x.counts.clear()
            q_counts.clear()
            seed = derive_seed(cfg.master_seed, r)
            rep = _run_one(r, seed, problem, bundle, plan)
            assert math.isfinite(rep.reduction_sup)
            # F at the n sample points and the few midpoints that could raise the supremum,
            # each F^(r) at the same points
            assert n <= counted_x.counts["F"] <= n + 64
            assert [counted_x.counts[f"F{m}"] for m in range(1, p + 1)] == [counted_x.counts["F"]] * p
            # the decomposition grids: [lo, U's in (lo, hi], hi] for I1 and [hi, U's above hi, last] for I2
            us = np.sort(mx.F(moving_average(coeffs.c, gen_innovations(dist, n + coeffs.M, seed))))
            i_lo = int(np.searchsorted(us, 1.0 - k_n / n, side="right"))
            assert q_counts["Q"] <= k_n + (n - i_lo + 4)


class TestConvergenceStudy:
    def test_single_row_smoke(self):
        cfg = small_config(replicates=8, n=None, n_grid=(2**10,))
        rows = convergence_study(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == 2**10
        for key in ("ks_d", "z_var", "med_abs_i2", "med_abs_i3", "med_u_ratio_dev", "iid_contrast"):
            assert math.isfinite(row[key])

    def test_iid_contrast_strictly_increasing(self):
        cfg = small_config(replicates=8, n=None, n_grid=(2**10, 2**11, 2**12))
        rows = convergence_study(cfg)
        contrast = [r["iid_contrast"] for r in rows]
        assert contrast[0] < contrast[1] < contrast[2]

    def test_rejects_unordered_grid(self):
        cfg = small_config(n=None, n_grid=None)
        with pytest.raises(DomainError):
            convergence_study(cfg, n_grid=[2**11, 2**10])


class TestTrendHelper:
    def test_allows_one_inversion(self):
        assert trend_nonincreasing([5.0, 3.0, 3.5, 2.0], allowed_inversions=1)
        assert not trend_nonincreasing([5.0, 3.0, 3.5, 4.0], allowed_inversions=1)
        assert trend_nonincreasing([5.0, 4.0, 3.0], allowed_inversions=0)


class TestCsvWriters:
    def test_z_samples_schema_and_determinism(self, tmp_path):
        cfg = small_config()
        res = run_replicates(cfg)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_z_samples_csv(res, p1)
        write_z_samples_csv(run_replicates(cfg, threads=2), p2)
        assert p1.read_text().splitlines()[0] == "replicate,seed,z,i1,i2,i3,u_ratio,reduction_sup"
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_schema(self, tmp_path):
        res = run_replicates(small_config())
        path = tmp_path / "summary.csv"
        write_summary_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,value"
        metrics = {ln.split(",")[0] for ln in lines[1:]}
        assert {"mean", "variance", "ks_d", "ks_p", "replicates", "master_seed"} <= metrics

    def test_convergence_schema(self, tmp_path):
        cfg = small_config(replicates=8, n=None, n_grid=(2**10,))
        rows = convergence_study(cfg)
        path = tmp_path / "conv.csv"
        write_convergence_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("n,k_n,ks_d,ks_p,z_mean,z_var,med_abs_i2,med_abs_i3")

    def test_floats_round_trip(self, tmp_path):
        res = run_replicates(small_config())
        path = tmp_path / "z.csv"
        write_z_samples_csv(res, path)
        for line, rep in zip(path.read_text().splitlines()[1:], res.replicates):
            fields = line.split(",")
            assert float(fields[2]) == rep.z  # shortest round-trip repr
