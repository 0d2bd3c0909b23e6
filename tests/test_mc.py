"""Tests for the Monte Carlo harness: KS test, replicates, convergence."""

import dataclasses
import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from lrdextremes.config import ExperimentConfig, build_problem
from lrdextremes.errors import DomainError, InfeasibleConfigError, NumericError
from lrdextremes.estats import ProcessFrame, decompose_I, reduction_sup, top_k_sum, u_ratio, z_statistic
from lrdextremes import mc, simulate
from lrdextremes.mc import (
    ReplicatePlan,
    ReplicateResult,
    _problem_and_bundle,
    _reduction_skip_reason,
    _resolve_threads,
    _run_one,
    convergence_study,
    ks_test,
    run_replicates,
    summarize,
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
    config_hash,
    derive_seed,
    gen_innovations,
    moving_average,
    simulate_path,
)
from test_estats import searchsorted_reduction_sup
from test_simulate import lag_oracle, peak_over_result


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

    def test_set_up_threads_keep_the_bytes_and_end_before_the_pool(self, monkeypatch):
        # p = 2 with M = 325178 > 2^16 taps at n = 2^6: the spectra take 2 row blocks, the
        # window sums of c (sigma_n1) and of c**2 5 chunks each, so 3 threads run only for those
        cfg = small_config(p_override=2, replicates=4, n=2**6, trunc_tol=2.5e-4)
        assert build_problem(cfg)[0].M == 325178
        pools, alive = [], []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        def forking_pool(*args, **kwargs):
            alive.append(threading.active_count())
            return process_pool(*args, **kwargs)

        process_pool = mc.ProcessPoolExecutor
        before = threading.active_count()
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", forking_pool)
        ref = run_replicates(cfg, threads=1)
        assert pools == [] and alive == []
        for threads in (2, 3):
            res = run_replicates(cfg, threads=threads)
            assert pools and max(pools) == threads
            assert len(alive) == 1 and alive[0] <= before  # the set-up's threads were joined before the pool started
            assert res.z_samples.tobytes() == ref.z_samples.tobytes()
            assert res.replicates == ref.replicates
            pools.clear()
            alive.clear()

    def test_one_thread_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", refuse)
        cfg = small_config(p_override=2, replicates=2, n=2**6, trunc_tol=2.5e-4)
        assert len(run_replicates(cfg, threads=1).z_samples) == 2

    @pytest.mark.parametrize("threads", [-1, -3])
    def test_negative_threads_refused(self, threads):
        with pytest.raises(DomainError, match=f"threads = {threads} must be >= 0"):
            run_replicates(small_config(), threads=threads)
        with pytest.raises(DomainError, match=f"threads = {threads}"):
            convergence_study(small_config(), n_grid=[2**8, 2**9], R=2, threads=threads)

    def test_zero_threads_counts_the_cores_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert _resolve_threads(0) == 1
        assert [_resolve_threads(k) for k in (1, 2, 7)] == [1, 2, 7]

        def refuse(*args, **kwargs):
            raise AssertionError("a pool was started on one usable core")

        # one usable core of 64: the run is inline, with no process or thread pool
        monkeypatch.setattr(mc, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", refuse)
        assert len(run_replicates(small_config(replicates=3), threads=0).z_samples) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert _resolve_threads(0) == 3
        # without an affinity call, the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _resolve_threads(0) == 64

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
        # M = 32533: 127 segments of 257 taps at n = 2^6 (M + 1 >= 32 n), one segment at n = 2^10
        spectrum, powers = FilterPlan._spectrum, []
        monkeypatch.setattr(
            FilterPlan, "_spectrum", lambda self, m, workers=1: powers.append(m) or spectrum(self, m, workers)
        )
        for p, transformed in [(2, [1]), (3, [1, 2])]:
            # the bundle transforms no taps; the replicate plan transforms c**m for m < p, and
            # the top power p is summed through its window sums: c**p is never transformed
            cfg = small_config(p_override=p, replicates=2, n=n, trunc_tol=9.95e-4)
            powers.clear()
            problem, bundle = _problem_and_bundle(cfg, n)
            assert powers == []
            plan = ReplicatePlan.build(problem, bundle, with_reduction=True)
            assert powers == transformed
            assert len(plan.source.plan.spectra[0]) == segments
            assert len(plan.source.plan.spectra) == p - 1
            assert plan.source.plan.weights.shape == (n + plan.source.plan.M,)
            powers.clear()
            res = run_replicates(cfg, threads=1)
            assert powers == transformed
            assert res.bundle == bundle

    def test_bundle_sigma_matches_pairwise_weights(self):
        cfg = small_config(p_override=2, n=2**6, trunc_tol=1e-3)
        (coeffs, dist, _, _), bundle = _problem_and_bundle(cfg, cfg.n)
        assert coeffs.M == 32262
        n, s2 = cfg.n, dist.variance
        rho = np.array([lag_oracle(coeffs.c, s2, k) for k in range(n)])
        oracle = math.sqrt(n * rho[0] + 2.0 * float(np.dot(n - np.arange(1.0, n), rho[1:])))
        assert bundle.sigma_n1 == pytest.approx(oracle, rel=1e-13)

    def test_reduction_order_above_four_is_not_computed(self):
        res = run_replicates(small_config(p_override=5, replicates=2))
        assert np.all(np.isfinite(res.z_samples))
        assert all(math.isnan(rep.reduction_sup) for rep in res.replicates)
        assert res.summary["feasibility"]["reduction_sup"] == "p = 5 > MAX_REDUCTION_ORDER = 4"

    def test_non_finite_z_refused_by_replicate_and_seed(self, monkeypatch):
        cfg = small_config(replicates=5)
        monkeypatch.setattr(mc, "FilterSource", nan_path_source(cfg.master_seed, {1, 3}))
        monkeypatch.setattr(mc, "summarize", lambda z: pytest.fail("a non-finite Z_n reached summarize"))
        with pytest.raises(NumericError) as err:
            run_replicates(cfg, with_reduction=False)
        bad = [(r, derive_seed(cfg.master_seed, r)) for r in (1, 3)]
        assert str(err.value) == f"non-finite Z_n at 2 of 5 replicates (replicate, seed): {bad}"


def nan_path_source(master_seed: int, replicates: set):
    """A stand-in for ``simulate.FilterSource`` whose path is all NaN at the seeds of ``replicates``."""
    seeds = {derive_seed(master_seed, r) for r in replicates}

    class NanPathSource(simulate.FilterSource):
        def draw(self, seed):
            sums = super().draw(seed)
            if seed in seeds:
                sums = sums._replace(paths=(np.full_like(sums.paths[0], np.nan), *sums.paths[1:]))
            return sums

    return NanPathSource


def result_bytes(rep: ReplicateResult) -> bytes:
    return np.array(dataclasses.astuple(rep)[2:]).tobytes()


@dataclasses.dataclass(frozen=True)
class CountedGaussian(GaussianMarginal):
    """Gaussian X marginal that counts the points it evaluates F, F^(r) and Q at."""

    counts: Counter = dataclasses.field(default_factory=Counter, compare=False, repr=False)

    def F(self, x):
        self.counts["F"] += np.size(x)
        return super().F(x)

    def F_derivs(self, p, x):
        for r in range(1, p + 1):
            self.counts[f"F{r}"] += np.size(x)
        return super().F_derivs(p, x)

    def Q(self, y):
        self.counts["Q"] += np.size(y)
        return super().Q(y)


def counted_target(base):
    """Subclass of the target dataclass ``base`` that counts the points it evaluates Q_Y and cum_Q at."""

    @dataclasses.dataclass(frozen=True)
    class Counted(base):
        counts: Counter = dataclasses.field(default_factory=Counter, compare=False, repr=False)

        def Q(self, u):
            self.counts["Q"] += np.size(u)
            return super().Q(u)

        def cum_Q(self, u):
            self.counts["cum_Q"] += np.size(u)
            return super().cum_Q(u)

    return Counted


class TestReplicateKernel:
    # M = 32533 at trunc_tol 9.95e-4: 127 segments of 257 taps at n = 2^6 (M + 1 >= 32 n), one
    # segment at n = 2^10
    @pytest.mark.parametrize("n,segments", [(2**6, 127), (2**10, 1)])
    @pytest.mark.parametrize("y_marginal,xi", [("exponential", 0.9), ("pareto:6", 0.97), ("identity", 0.9)])
    def test_run_one_matches_the_public_route(self, y_marginal, xi, n, segments):
        cfg = small_config(y_marginal=y_marginal, xi=xi, n=n, trunc_tol=9.95e-4)
        problem, bundle = _problem_and_bundle(cfg, n)
        plan = ReplicatePlan.build(problem, bundle, with_reduction=True)
        assert len(plan.source.plan.spectra[0]) == segments
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
            ur, s = u_ratio(frame, bundle.k_n), top_k_sum(ty.Q(frame.u_sorted), bundle.k_n)
            public = ReplicateResult(r, seed, dec.z, dec.i1, dec.i2, dec.i3, ur, red, s)
            assert result_bytes(rep) == result_bytes(public)
            assert red == searchsorted_reduction_sup(x, eps, coeffs.c, bundle.p, mx, bundle.sigma_n1)
            assert dec.z == z_statistic(ty.Q(frame.u_sorted), bundle)

    def test_a_replicate_holds_no_innovation_array(self):
        # a partitioned p = 2 plan: the pass holds one row block (its buffer and its transform,
        # about 2 * _BLOCK_POINTS floats whatever M is) and one running spectrum, never the n + M
        # innovations, so the replicate peaks below half of one (n + M)-float array above its result
        n, M = 2**8, 2**21
        cm = CoefficientModel.build(0.7, SvConstant(1.0), M)
        mx, ty = GaussianMarginal(math.sqrt(cm.total_square_sum)), ExponentialTarget()
        bundle = make_bundle(mx, ty, cm.c, 1.0, 0.7, cm.L0, n, 0.9, p=2)
        problem = (cm, InnovationDist.gaussian(1.0), mx, ty)
        plan = ReplicatePlan.build(problem, bundle, with_reduction=True)
        assert plan.source.plan.order == 2 and len(plan.source.plan.spectra[0]) > 1
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
            # the closed-form decomposition: Q_Y at lo = 1 - k_n/n, hi = 1 - 1/n and the top
            # max(k_n, n - i_lo) order statistics, which Z_n, I1 and I2 share; cum_Q only at lo,
            # hi and 1, for the two integrals int_lo^hi Q_Y and int_hi^1 Q_Y
            us = np.sort(mx.F(moving_average(coeffs.c, gen_innovations(dist, n + coeffs.M, seed))))
            i_lo = int(np.searchsorted(us, 1.0 - k_n / n, side="right"))
            assert q_counts["Q"] <= max(k_n, n - i_lo) + 2
            if target != "identity":
                assert counted_y.counts["cum_Q"] <= 4


class TestConvergenceStudy:
    def test_single_row_smoke(self):
        cfg = small_config(replicates=8, n=None, n_grid=(2**10,))
        rows = convergence_study(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == 2**10
        for key in ("ks_d", "z_var", "med_abs_i2", "med_abs_i3", "med_u_ratio_dev", "var_s", "var_s_iid", "var_ratio"):
            assert math.isfinite(row[key])

    def test_rows_do_not_depend_on_the_worker_count(self, tmp_path):
        # the twin's columns too: its replicates are reduced by index like the paths'
        cfg = small_config(replicates=8, n=None, n_grid=(2**9, 2**10))
        paths = [tmp_path / f"conv{threads}.csv" for threads in (1, 2)]
        for threads, path in zip((1, 2), paths):
            write_convergence_csv(convergence_study(cfg, threads=threads), path)
        header = paths[0].read_text().splitlines()[0]
        assert header.endswith(",lrd_scale,var_s,var_s_iid,var_ratio")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rejects_unordered_grid(self):
        cfg = small_config(n=None, n_grid=None)
        with pytest.raises(DomainError):
            convergence_study(cfg, n_grid=[2**11, 2**10])


def renyi_variance(n: int, k: int) -> float:
    """Var of the top-k sum of n i.i.d. Exp(1) draws: k + k^2 sum_{i=k+1}^n i^-2 (Renyi's representation)."""
    return k + k * k * math.fsum(1.0 / (i * i) for i in range(k + 1, n + 1))


class TestIidTwin:
    def test_renyi_oracle(self):
        # the values quoted for exponential Y at xi = 0.9: 1.533k, 1.594k and 1.646k
        for j, ratio in [(11, 1.533), (13, 1.594), (15, 1.646)]:
            n = 2**j
            k = math.ceil(n**0.9)
            assert renyi_variance(n, k) / k == pytest.approx(ratio, abs=5e-4)
        # the representation's small cases: k = n is n unit-variance draws, k = 1 the maximum
        assert renyi_variance(5, 5) == 5.0
        assert renyi_variance(3, 1) == pytest.approx(1.0 + 1.0 / 4 + 1.0 / 9, rel=1e-15)

    @pytest.mark.parametrize("n", [2**11, 2**13])
    def test_variance_matches_renyi(self, n):
        # exponential Y: S_iid is the top-k_n sum of n i.i.d. Exp(1) draws.  R, the seed and the
        # band were fixed before the first run: R = 2000, master seed 7, and the two-sided 1e-3
        # band of chi2(R-1)/(R-1) (S_iid is close to Gaussian, excess kurtosis about 3.5/k_n)
        R, lo, hi = 2000, 0.8992, 1.1074
        problem, bundle = _problem_and_bundle(small_config(n=n), n)
        twin = mc._run_replicate_loop(problem, bundle, ReplicatePlan.iid_twin(problem, bundle), 7, R, 1)
        ratio = float(np.var([rep.s for rep in twin], ddof=1)) / renyi_variance(n, bundle.k_n)
        assert lo <= ratio <= hi, f"var(S_iid) / Renyi oracle = {ratio:.4f} at n = {n}"

    def test_twin_draws_no_path_stream(self):
        problem, bundle = _problem_and_bundle(small_config(n=2**10), 2**10)
        coeffs, dist, mx, _ = problem
        seed = derive_seed(3, 0)
        twin = ReplicatePlan.iid_twin(problem, bundle).source
        x = twin.draw(seed).paths[0]
        assert x.shape == (2**10,)
        # not the path's innovations, scaled or not
        eps = gen_innovations(dist, 2**10, seed)
        assert not np.allclose(x, mx.s * eps)
        # nested like a path: the draw at n is the first n of the draw at a larger n
        longer = simulate.IidSource(mx.s, 2**12).draw(seed).paths[0]
        assert longer[: 2**10].tobytes() == x.tobytes()
        assert _reduction_skip_reason(twin, bundle.p, True) == "i.i.d. twin: no power sums of a linear process"


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
