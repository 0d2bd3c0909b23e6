"""Tests for order-statistic functionals and the Z_n decomposition."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from lrdextremes.errors import ConfigError, DomainError
from lrdextremes.estats import (
    TAIL_GRID_EPS,
    TAIL_GRID_SIZE,
    ProcessFrame,
    TailGrid,
    decompose_I,
    multilinear_sums,
    reduction_sup,
    reduction_sup_sorted,
    top_k_sum,
    trimmed_sum,
    u_ratio,
    z_statistic,
)
from lrdextremes.model import (
    CLAMP_EPS,
    ExponentialTarget,
    GaussianMarginal,
    IdentityTarget,
    InnovationDist,
    LogParetoTarget,
    MdaCase,
    ParetoMarginal,
    ParetoTarget,
    TurningGaps,
)
from lrdextremes.scaling import ScalingBundle, make_bundle
from lrdextremes.simulate import (
    FilterPlan,
    PathPair,
    PowerSums,
    array_source,
    build_coefficient_model,
    derive_seed,
    gen_innovations,
    moving_average,
    sigma_n1_exact,
)


def frame_from_uniforms(u_values, sigma_n1=1.0):
    """Frame whose uniform transform equals the given values exactly."""
    mx = GaussianMarginal(1.0)
    x = mx.Q(np.asarray(u_values, dtype=float))
    return ProcessFrame.from_path(x, mx, IdentityTarget(mx), sigma_n1)


class TestTopKSum:
    def test_tiny(self):
        assert top_k_sum([3.0, 1.0, 2.0], 2) == 5.0

    def test_k_equals_n(self):
        assert top_k_sum([3.0, 1.0, 2.0], 3) == 6.0

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(10**4)
        assert top_k_sum(x, 37) == pytest.approx(float(np.sum(np.sort(x)[-37:])), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            top_k_sum([1.0, 2.0], 0)
        with pytest.raises(DomainError):
            top_k_sum([1.0, 2.0], 3)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.data())
    @settings(max_examples=50, deadline=None)
    def test_complements_trimmed(self, xs, data):
        k = data.draw(st.integers(0, len(xs) - 1))
        total = top_k_sum(xs, k) if k else 0.0
        rest = trimmed_sum(xs, 0, k)
        assert total + rest == pytest.approx(float(np.sum(xs)), rel=1e-9, abs=1e-6)


class TestTrimmedSum:
    def test_tiny(self):
        assert trimmed_sum([3.0, 1.0, 2.0], 1, 1) == 2.0

    def test_no_trimming(self):
        assert trimmed_sum([3.0, 1.0, 2.0], 0, 0) == 6.0

    def test_dual_representation_random(self):
        # the function itself cross-checks the stair-integral route
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        val = trimmed_sum(x, 50, 70)
        assert val == pytest.approx(float(np.sum(np.sort(x)[50:930])), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            trimmed_sum([1.0, 2.0], 1, 1)


def brute_multilinear(eps, c, r, n):
    """Exhaustive enumeration over strictly increasing index tuples."""
    M = len(c) - 1
    total = 0.0
    for i in range(1, n + 1):
        for combo in itertools.combinations(range(M + 1), r):
            prod = 1.0
            for j in combo:
                prod *= c[j] * eps[(i - j) + M - 1]
            total += prod
    return total


def kernel_Y(eps, c, r, p=None):
    """Y_{n,r} as a replicate of order p (default r) computes it: one plan of order p, then multilinear_sums.

    At r = p >= 2 this is the route of the top power, one weighted sum of
    eps**p; below p the power sum of order r is a filtered path.
    """
    eps, c = np.asarray(eps, dtype=float), np.asarray(c, dtype=float)
    p = r if p is None else p
    plan = FilterPlan.build(c, len(eps) - (len(c) - 1), p)
    return multilinear_sums(plan.stream(array_source(eps)), p)[r - 1]


class TestMultilinear:
    def test_order_one_is_partial_sum(self):
        rng = np.random.default_rng(4)
        c = rng.uniform(0.2, 1.0, 5)
        eps = rng.standard_normal(12 + 4)
        x = moving_average(c, eps)
        assert kernel_Y(eps, c, 1) == pytest.approx(float(np.sum(x)), rel=1e-12)

    def test_single_pair_example(self):
        # n = 1, c = (1, 1/2), eps = (2, 1): only the pair c_0 c_1 eps_1 eps_0
        val = kernel_Y(np.array([2.0, 1.0]), np.array([1.0, 0.5]), 2)
        assert val == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n,M,r", [(n, M, r) for n in (1, 2, 3, 4) for M in (0, 1, 2, 3, 4) for r in (1, 2, 3) if r <= M + 1])
    def test_newton_matches_enumeration(self, n, M, r):
        rng = np.random.default_rng(100 * n + 10 * M + r)
        c = rng.uniform(0.2, 1.5, M + 1)
        eps = rng.standard_normal(n + M)
        expected = brute_multilinear(eps, c, r, n)
        assert kernel_Y(eps, c, r) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_partitioned_plan_matches_single_fft(self, p):
        # M + 1 = 32263 >= 32 n: segments of 4 n taps, the last one padded
        n = 2**8
        cm = build_coefficient_model(0.8, tol=1e-3)
        plan = FilterPlan.build(cm.c, n, p)
        assert len(plan.spectra[0]) == 32
        reference = SingleFftFilter(cm.c, n)
        for r in range(3):
            eps = gen_innovations(InnovationDist.gaussian(1.0), n + cm.M, derive_seed(2026004, r))
            got = multilinear_sums(plan.stream(array_source(eps)), p)
            expected = multilinear_sums(reference.sums(eps, p), p)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


class SingleFftFilter:
    """The unpartitioned filter: one transform of every power at next_fast_len(n + M)."""

    def __init__(self, c, n):
        self.c, self.n, self.M = np.asarray(c, dtype=float), n, len(c) - 1
        self.L = sfft.next_fast_len(n + self.M, real=True)

    def apply(self, eps, m=1):
        spec = sfft.rfft(eps**m, self.L) * sfft.rfft(self.c**m, self.L)
        return sfft.irfft(spec, self.L)[self.M : self.M + self.n].copy()

    def sums(self, eps, p):
        # the paths below the top power, and the whole path of the top power summed
        paths = tuple(self.apply(eps, m) for m in range(1, max(p - 1, 1) + 1))
        return PowerSums(paths, float(np.sum(self.apply(eps, p))) if p >= 2 else None)


class TestReductionSup:
    def test_single_point_hand_formula(self):
        mx = GaussianMarginal(1.0)
        x1 = 0.3
        eps = np.array([x1])
        res = reduction_sup(np.array([x1]), eps, np.array([1.0]), 1, mx, sigma_n1=1.0)
        # brute force on a dense grid; the step extremes sit at the sample point
        grid = np.linspace(-8.0, 8.0, 2_000_001)
        vals = (grid >= x1).astype(float) - mx.F(grid) + mx.F_deriv(1, grid) * x1
        vals_left = (grid > x1).astype(float) - mx.F(grid) + mx.F_deriv(1, grid) * x1
        brute = max(np.max(np.abs(vals)), np.max(np.abs(vals_left)))
        assert res.value == pytest.approx(brute, abs=1e-5)
        assert res.value >= brute - 1e-12

    def test_p_zero_is_plain_empirical_sup(self):
        mx = GaussianMarginal(1.0)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(64)
        res = reduction_sup(x, x, np.array([1.0]), 0, mx, sigma_n1=2.0)
        xs = np.sort(x)
        i = np.arange(1, 65)
        ks = max(np.max(np.abs(i - 64 * mx.F(xs))), np.max(np.abs(i - 1 - 64 * mx.F(xs))))
        assert res.value == pytest.approx(ks / 2.0, rel=1e-12)

    def test_unsupported_orders(self):
        with pytest.raises(DomainError):
            reduction_sup(np.ones(4), np.ones(4), np.array([1.0]), 5, GaussianMarginal(1.0), 1.0)


def searchsorted_reduction_sup(x, eps, c, p, mx, sigma_n1):
    """Reference supremum: exact searchsorted counts on the full 2n - 1 + 512 point grid."""
    x = np.asarray(x, dtype=float)
    n = x.size
    xs = np.sort(x)
    mids = 0.5 * (xs[:-1] + xs[1:])
    tail = np.asarray(mx.Q(np.linspace(TAIL_GRID_EPS, 1.0 - TAIL_GRID_EPS, TAIL_GRID_SIZE)))
    grid = np.concatenate([xs, mids, tail])
    F_g = np.asarray(mx.F(grid), dtype=float)
    smooth = np.zeros_like(F_g)
    for r in range(1, p + 1):
        y_r = kernel_Y(eps, c, r, p)
        smooth += (-1.0) ** (r - 1) * np.asarray(mx.F_deriv(r, grid), dtype=float) * y_r
    right = np.searchsorted(xs, grid, side="right") - n * F_g + smooth
    left = np.searchsorted(xs, grid, side="left") - n * F_g + smooth
    sup = max(float(np.max(np.abs(right))), float(np.max(np.abs(left))))
    return sup / sigma_n1


class TestReductionSupOracle:
    """The rank-based kernel equals the searchsorted reference bit for bit."""

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_case4_replicates(self, p):
        n = 2**12
        cm = build_coefficient_model(0.8, tol=1e-3)
        mx = GaussianMarginal(math.sqrt(cm.total_square_sum))
        sig = sigma_n1_exact(cm.c, 1.0, n)
        plan, tail = FilterPlan.build(cm.c, n, max(p, 1)), TailGrid.build(mx, p)
        for r in range(20):
            eps = gen_innovations(InnovationDist.gaussian(1.0), n + cm.M, derive_seed(2026004, r))
            sums = plan.stream(array_source(eps))
            x = sums.paths[0]
            expected = searchsorted_reduction_sup(x, eps, cm.c, p, mx, sig)
            # the replicate kernel: one plan and one tail grid for all replicates, one pass for x and Y
            y = multilinear_sums(sums, p)
            xs = np.sort(x)
            assert reduction_sup_sorted(xs, mx.F(xs), y, tail, mx, sig).value == expected
            assert reduction_sup(x, eps, cm.c, p, mx, sig).value == expected

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_ties_need_no_exact_counts(self, p):
        # repeated values, and neighbours one ulp apart whose midpoint rounds onto one of them
        mx = GaussianMarginal(1.0)
        hand = np.array([0.3, -1.2, 0.3, 2.0, 1.0, np.nextafter(1.0, 2.0), -1.2, 0.3, 0.7, -0.1])
        rng = np.random.default_rng(p)
        for x in [hand] + [rng.integers(-3, 4, 40) / 2.0 for _ in range(20)]:
            expected = searchsorted_reduction_sup(x, x, np.array([1.0]), p, mx, 1.5)
            assert reduction_sup(x, x, np.array([1.0]), p, mx, 1.5).value == expected

    def test_order_three_tiny_filter(self):
        rng = np.random.default_rng(33)
        c = rng.uniform(0.2, 1.0, 4)
        eps = rng.standard_normal(50 + 3)
        x = moving_average(c, eps)
        mx = GaussianMarginal(math.sqrt(float(np.sum(c * c))))
        expected = searchsorted_reduction_sup(x, eps, c, 3, mx, 2.0)
        assert math.isfinite(expected)
        assert reduction_sup(x, eps, c, 3, mx, 2.0).value == expected

    # (s, z* = t*/s, samples in units of s): the gap around t* = -n s^2 / Y_1 is wide, and
    # in the first case its midpoint is t* itself, where |S_{n,1}| is largest
    @pytest.mark.parametrize(
        "s,z_star,z",
        [
            (1.0, 0.04, [-2.8, -1.96, 2.04, 2.8]),
            (3.0, -2.2, [-2.8, -1.6, -0.9, 0.9]),
            (2.0, 2.6, [-1.2, 0.1, 1.1, 3.9, 4.5]),
            (0.5, -0.9, [-3.0, 0.5]),
        ],
    )
    def test_turning_point_inside_a_wide_gap(self, s, z_star, z):
        mx, x = GaussianMarginal(s), s * np.array(z)
        n, t_star = x.size, z_star * s
        eps = np.array([-n * s * s / t_star])  # one tap of 1: Y_1 = sum eps
        gap = int(np.searchsorted(x, t_star)) - 1
        assert gap in mx.turning_gaps(x, list(eps)).gaps
        expected = searchsorted_reduction_sup(x, eps, np.array([1.0]), 1, mx, 1.3)
        assert reduction_sup(x, eps, np.array([1.0]), 1, mx, 1.3).value == expected
        if z_star == 0.04:
            # the midpoint raises the supremum: skipping the turning gap would lower it
            assert reduction_sup(x, eps, np.array([1.0]), 1, NoTurnsGaussian(s), 1.3).value < expected

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("scale", [4.0, 8.0])
    def test_several_turning_points_in_the_sample_range(self, p, scale):
        c = np.array([1.0, 0.7, 0.4, 0.2])
        rng = np.random.default_rng(p)
        eps = scale * rng.standard_normal(12 + 3)
        x = rng.uniform(-3.5, 3.5, 40)
        mx = GaussianMarginal(1.0)
        y = [kernel_Y(eps, c, r, p) for r in range(1, p + 1)]
        # dS/dt = phi(t) P(t), P = -n - sum_r Y_r He_r: three of its roots fall between samples
        roots = np.polynomial.hermite_e.HermiteE([-x.size] + [-v for v in y]).roots()
        xs = np.sort(x)
        inside = [r.real for r in roots if abs(r.imag) < 1e-9 and xs[0] < r.real < xs[-1]]
        gaps = set((np.searchsorted(xs, inside) - 1).tolist())
        assert len(gaps) == 3
        assert gaps <= set(mx.turning_gaps(xs, y).gaps.tolist())
        expected = searchsorted_reduction_sup(x, eps, c, p, mx, 1.0)
        assert reduction_sup(x, eps, c, p, mx, 1.0).value == expected

    def test_two_turning_points_in_one_gap(self):
        # P(z) = -a_2 (z - 1.2)(z - 1.3) has the same sign at both ends of (0.5, 2.0): only
        # the chain of derivatives (P' changes sign there) finds that S turns twice inside
        n, (z1, z2) = 3, (1.2, 1.3)
        a2 = n / (1.0 + z1 * z2)
        y1, y2 = -a2 * (z1 + z2), a2
        # one window of c = (1, 1): Y_1 = e0 + e1 and Y_2 = e0 e1
        e0 = 0.5 * (y1 - math.sqrt(y1 * y1 - 4.0 * y2))
        eps, c = np.array([e0, y1 - e0]), np.array([1.0, 1.0])
        x, mx = np.array([-1.0, 0.5, 2.0]), GaussianMarginal(1.0)
        y = [kernel_Y(eps, c, r, 2) for r in (1, 2)]
        assert y == pytest.approx([y1, y2], rel=1e-12)
        assert 1 in mx.turning_gaps(x, y).gaps
        expected = searchsorted_reduction_sup(x, eps, c, 2, mx, 1.0)
        assert reduction_sup(x, eps, c, 2, mx, 1.0).value == expected

    @pytest.mark.parametrize("p", [0, 1, 2, 4])
    def test_one_and_two_samples(self, p):
        mx = GaussianMarginal(1.7)
        c, eps = np.array([1.0, 0.6]), np.array([0.4, -2.5, 1.1])
        for x in ([0.3], [-4.0], [0.3, 0.3], [-0.2, 1.9], [2.5, -6.0]):
            x = np.array(x)
            expected = searchsorted_reduction_sup(x, eps, c, p, mx, 0.9)
            assert reduction_sup(x, eps, c, p, mx, 0.9).value == expected

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_in_y_or_an_infinite_sample_gives_nan(self, p):
        mx = GaussianMarginal(1.0)
        c = np.array([1.0, 0.5])
        x = np.array([-1.0, 0.2, 0.4, 1.5])
        eps = np.array([0.3, np.nan, -0.2, 0.8, 0.1])
        assert math.isnan(searchsorted_reduction_sup(x, eps, c, p, mx, 1.0))
        assert math.isnan(reduction_sup(x, eps, c, p, mx, 1.0).value)
        eps = np.array([0.3, 1.0, -0.2, 0.8, 0.1])
        for bad in (np.inf, -np.inf):
            xb = np.append(x, bad)
            expected = searchsorted_reduction_sup(xb, eps, c, p, mx, 1.0)
            if p >= 2:  # He_1(+-inf) phi(+-inf) = inf * 0
                assert math.isnan(expected)
            got = reduction_sup(xb, eps, c, p, mx, 1.0).value
            assert got == expected or math.isnan(got) and math.isnan(expected)

    def test_random_small_samples(self):
        # p = 0..4, |Y_r| up to 1e3, samples with and without ties, and in about a third
        # of the runs a gap around a root of P (a turning point of S_{n,p}); skipping
        # the turning gaps' midpoints would lower the supremum in some of the runs
        rng = np.random.default_rng(2205)
        raised = 0
        for _ in range(2000):
            p = int(rng.integers(0, 5))
            n = int(rng.integers(1, 25))
            s = float(np.exp(rng.uniform(-1.0, 1.0)))
            c = rng.uniform(0.1, 1.0, int(rng.integers(1, 5)))
            eps = rng.standard_normal(int(rng.integers(1, 8)) + c.size - 1)
            y = []
            if p:
                # scale eps by lam: Y_r moves by lam^r, and each |Y_r| lands at or below 10^U(-1, 3)
                top = max(abs(kernel_Y(eps, c, r, p)) ** (1.0 / r) for r in range(1, p + 1))
                eps *= 10.0 ** (rng.uniform(-1.0, 3.0) / p) / max(top, 1e-300)
                y = [kernel_Y(eps, c, r, p) for r in range(1, p + 1)]
            x = s * rng.standard_normal(n) * rng.uniform(0.3, 3.0)
            roots = np.polynomial.hermite_e.HermiteE([-n] + [-v / s**r for r, v in enumerate(y, start=1)]).roots()
            real = roots.real[np.abs(roots.imag) < 1e-7 * (1.0 + np.abs(roots))]
            if real.size and n >= 2 and rng.random() < 0.5:
                t, h = s * rng.choice(real), s * rng.uniform(0.01, 1.0)
                x = np.where(np.abs(x - t) < h, x + 2.0 * h * np.sign(x - t), x)
                x[:2] = t - h, t + h
            if rng.random() < 0.3:
                x = np.round(x, 1)
            mx = GaussianMarginal(s)
            expected = searchsorted_reduction_sup(x, eps, c, p, mx, 1.0)
            assert reduction_sup(x, eps, c, p, mx, 1.0).value == expected
            raised += reduction_sup(x, eps, c, p, NoTurnsGaussian(s), 1.0).value < expected
        assert raised >= 20

    def test_midpoints_evaluated_on_a_case4_replicate(self):
        # F at the n sample points for the frame, and at no more than 64 midpoints
        n = 2**12
        cm = build_coefficient_model(0.8, tol=1e-3)
        mx = CountingGaussian(math.sqrt(cm.total_square_sum))
        sig = sigma_n1_exact(cm.c, 1.0, n)
        plan, tail = FilterPlan.build(cm.c, n), TailGrid.build(mx, 1)
        for r in range(5):
            eps = gen_innovations(InnovationDist.gaussian(1.0), n + cm.M, derive_seed(2026004, r))
            sums = plan.stream(array_source(eps))
            mx.points.clear()
            frame = ProcessFrame.from_path(sums.paths[0], mx, ExponentialTarget(), sig)
            res = reduction_sup_sorted(frame.x_sorted, frame.F_sorted, multilinear_sums(sums, 1), tail, mx, sig)
            assert sum(mx.points) <= n + 64
            assert res.grid_size == 2 * n - 1 + TAIL_GRID_SIZE
            plain = GaussianMarginal(mx.s)
            assert res.value == searchsorted_reduction_sup(sums.paths[0], eps, cm.c, 1, plain, sig)


class NoTurnsGaussian(GaussianMarginal):
    """A Gaussian marginal whose turning rule names no gap and no slack: only the midpoints at the maximum are evaluated."""

    def turning_gaps(self, xs, y):
        return TurningGaps(np.array([], dtype=np.intp), 0.0)


@dataclasses.dataclass(frozen=True)
class CountingGaussian(GaussianMarginal):
    """A Gaussian marginal that records how many points each call of F takes."""

    points: list = dataclasses.field(default_factory=list, compare=False)

    def F(self, x):
        self.points.append(np.size(x))
        return super().F(x)


def i3_direct(frame: ProcessFrame, bundle: ScalingBundle) -> float:
    """Direct integral form of I3, for cross-checking the residual definition.

    I3 = A_n sigma^-1 n int_{U_{n-k_n:n}}^{1-k_n/n} (1 - k_n/n - E_n(y)) dQ_Y(y),
    oriented (negative when the order statistic exceeds 1 - k_n/n).
    """
    n, k_n = frame.n, bundle.k_n
    us = frame.u_sorted
    ty = frame.ty
    c0 = 1.0 - k_n / n
    a = frame.u_order(n - k_n)
    sign = 1.0
    lo, hi = a, c0
    if a > c0:
        sign, lo, hi = -1.0, c0, a
    i_lo = int(np.searchsorted(us, lo, side="right"))
    i_hi = int(np.searchsorted(us, hi, side="right"))
    pts = np.concatenate([[lo], us[i_lo:i_hi], [hi]])
    evals = (i_lo + np.arange(len(pts) - 1)) / n
    qs = np.asarray(ty.Q(pts), dtype=float)
    val = float(np.sum((c0 - evals) * np.diff(qs)))
    return sign * bundle.A_n / bundle.sigma_n1 * n * val


def segment_sum(ty, pts, e0: int, n: int) -> float:
    """int_(pts[0], pts[-1]] (y - E_n(y)) dQ_Y(y) segment by segment, with E_n = e0/n on the first segment.

    Each segment (a, b] between consecutive points holds no jump of E_n, so it
    contributes (b - e) Q_Y(b) - (a - e) Q_Y(a) - (cum_Q(b) - cum_Q(a)); the
    terms are summed with math.fsum.
    """
    pts = np.asarray(pts, dtype=float)
    q = np.asarray(ty.Q(pts), dtype=float)
    cum = np.asarray(ty.cum_Q(pts), dtype=float)
    terms = []
    for s in range(len(pts) - 1):
        a, b, e = pts[s], pts[s + 1], (e0 + s) / n
        terms += [(b - e) * q[s + 1], -(a - e) * q[s], -(cum[s + 1] - cum[s])]
    return math.fsum(terms)


def i1_i2_oracle(frame: ProcessFrame, bundle: ScalingBundle) -> tuple[float, float]:
    """I1 and I2 as sums over the segments between the jumps of E_n.

    I1 integrates over (1 - k_n/n, 1 - 1/n], I2 over (1 - 1/n, U_{n:n}] and then
    the limit piece (U_{n:n}, 1], where E_n = 1 and (y - 1) Q_Y(y) -> 0 at 1.
    """
    n, ty, us = frame.n, frame.ty, frame.u_sorted
    scale = bundle.A_n / bundle.sigma_n1 * n
    lo, hi = 1.0 - bundle.k_n / n, 1.0 - 1.0 / n
    i_lo = int(np.searchsorted(us, lo, side="right"))
    i_hi = int(np.searchsorted(us, hi, side="right"))
    i1 = segment_sum(ty, np.concatenate([[lo], us[i_lo:i_hi], [hi]]), i_lo, n)
    top = np.concatenate([[hi], us[i_hi:]])
    last = top[-1]
    limit = -(last - 1.0) * float(ty.Q(last)) - (float(ty.cum_Q(1.0)) - float(ty.cum_Q(last)))
    i2 = math.fsum([segment_sum(ty, top, i_hi, n), limit])
    return scale * i1, scale * i2


def frame_at(u_values, ty) -> ProcessFrame:
    """Frame whose F values are ``u_values`` (sorted), clamped as ``from_path`` clamps them."""
    F = np.sort(np.asarray(u_values, dtype=float))
    u = np.clip(F, CLAMP_EPS, 1.0 - CLAMP_EPS)
    return ProcessFrame(x_sorted=F, F_sorted=F, u_sorted=u, n=F.size, sigma_n1=1.0, mx=GaussianMarginal(1.0), ty=ty)


def tiny_case4_setup(n=512, seed_r=0, xi=0.9):
    cm = build_coefficient_model(0.8, tol=0.01)
    mx = GaussianMarginal(math.sqrt(cm.total_square_sum))
    ty = ExponentialTarget()
    bundle = make_bundle(mx, ty, cm.c, 1.0, 0.8, cm.L0, n, xi)
    eps = gen_innovations(InnovationDist.gaussian(1.0), n + cm.M, derive_seed(77, seed_r))
    x = moving_average(cm.c, eps)
    frame = ProcessFrame.from_path(x, mx, ty, bundle.sigma_n1)
    return frame, bundle


class TestZStatistic:
    def test_arithmetic_contract(self):
        bundle = ScalingBundle(
            case=MdaCase.CASE4,
            n=4,
            k_n=2,
            xi=0.5,
            p=1,
            sigma_n1=2.0,
            A_n=10.0,
            d_np=1.0,
            mu_n=63.2455532033676,
        )
        y = np.array([30.0, 1.0, 40.0, 2.0])
        assert z_statistic(y, bundle) == pytest.approx(10.0 / 2.0 * (70.0 - 63.2455532033676), rel=1e-12)

    def test_permutation_invariance(self):
        frame, bundle = tiny_case4_setup()
        y = frame.top_y(frame.n)
        rng = np.random.default_rng(3)
        z1 = z_statistic(y, bundle)
        z2 = z_statistic(rng.permutation(y), bundle)
        assert z1 == z2

    def test_length_mismatch(self):
        frame, bundle = tiny_case4_setup()
        with pytest.raises(ConfigError):
            z_statistic(np.ones(100), bundle)

    def test_path_from_another_configuration(self):
        frame, bundle = tiny_case4_setup()
        tagged = dataclasses.replace(bundle, spec_hash="model-a")
        y = frame.top_y(frame.n)
        same = PathPair(x=frame.x_sorted, y=y, seed=0, spec_hash="model-a")
        assert z_statistic(same, tagged) == z_statistic(y, bundle)
        other = PathPair(x=frame.x_sorted, y=y, seed=0, spec_hash="model-b")
        with pytest.raises(ConfigError, match="different configuration"):
            z_statistic(other, tagged)


class TestDecomposition:
    def test_identity_exact(self):
        frame, bundle = tiny_case4_setup()
        dec = decompose_I(frame, bundle)
        assert dec.i1 + dec.i2 + dec.i3 == pytest.approx(dec.z, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed_r", range(6))
    def test_residual_matches_direct_integral(self, seed_r):
        # the residual definition of I3 equals its Stieltjes integral form
        frame, bundle = tiny_case4_setup(seed_r=seed_r)
        dec = decompose_I(frame, bundle)
        direct = i3_direct(frame, bundle)
        assert dec.i3 == pytest.approx(direct, rel=1e-8, abs=1e-10)

    def test_direct_integral_with_pareto_target(self):
        cm = build_coefficient_model(0.8, tol=0.01)
        mx = GaussianMarginal(math.sqrt(cm.total_square_sum))
        ty = ParetoTarget(6.0)
        bundle = make_bundle(mx, ty, cm.c, 1.0, 0.8, cm.L0, 512, 0.97)
        eps = gen_innovations(InnovationDist.gaussian(1.0), 512 + cm.M, derive_seed(78, 1))
        frame = ProcessFrame.from_path(moving_average(cm.c, eps), mx, ty, bundle.sigma_n1)
        dec = decompose_I(frame, bundle)
        assert dec.i3 == pytest.approx(i3_direct(frame, bundle), rel=1e-8, abs=1e-10)

    # n = 64, k_n = 16: lo = 1 - k_n/n = 0.75 and hi = 1 - 1/n = 63/64, n - k_n = 48
    ORACLE_LAYOUTS = {
        "spread": lambda rng: (np.arange(64) + rng.uniform(size=64)) / 64,
        "none_above_hi": lambda rng: rng.uniform(0.0, 63 / 64, size=64),
        "i_lo_below_n_minus_k": lambda rng: np.concatenate([rng.uniform(0.0, 0.75, 40), rng.uniform(0.75, 1.0, 24)]),
        "i_lo_above_n_minus_k": lambda rng: np.concatenate([rng.uniform(0.0, 0.75, 56), rng.uniform(0.75, 1.0, 8)]),
        "at_lo_and_hi": lambda rng: np.concatenate([rng.uniform(0.0, 1.0, 62), [0.75, 63 / 64]]),
        "clamped_top": lambda rng: np.concatenate([rng.uniform(0.0, 1.0, 63), [1.0]]),
    }

    @pytest.mark.parametrize("layout", sorted(ORACLE_LAYOUTS))
    @pytest.mark.parametrize(
        "ty",
        [ExponentialTarget(), ParetoTarget(6.0), LogParetoTarget(ParetoMarginal(4.0)), IdentityTarget(GaussianMarginal(1.0))],
        ids=["exponential", "pareto:6", "logpareto", "identity"],
    )
    def test_i1_i2_match_segment_sums(self, ty, layout):
        frame = frame_at(self.ORACLE_LAYOUTS[layout](np.random.default_rng(11)), ty)
        bundle = ScalingBundle(
            case=MdaCase.CASE4, n=64, k_n=16, xi=0.75, p=1, sigma_n1=8.0, A_n=0.5, d_np=1.0, mu_n=0.0
        )
        us, n_minus_k = frame.u_sorted, 48
        i_lo = int(np.searchsorted(us, 0.75, side="right"))
        i_hi = int(np.searchsorted(us, 63 / 64, side="right"))
        # each layout is the case its name says
        assert {
            "spread": i_hi < 64,
            "none_above_hi": i_hi == 64,
            "i_lo_below_n_minus_k": i_lo < n_minus_k,
            "i_lo_above_n_minus_k": i_lo > n_minus_k,
            "at_lo_and_hi": 0.75 in us and 63 / 64 in us,
            "clamped_top": us[-1] == 1.0 - CLAMP_EPS,
        }[layout]
        dec = decompose_I(frame, bundle)
        i1, i2 = i1_i2_oracle(frame, bundle)
        assert dec.i1 == pytest.approx(i1, rel=0.0, abs=1e-12)
        assert dec.i2 == pytest.approx(i2, rel=0.0, abs=1e-12)
        if layout == "none_above_hi":
            hi, scale = 63 / 64, bundle.A_n / bundle.sigma_n1 * 64
            tail = float(ty.cum_Q(1.0) - ty.cum_Q(hi))
            assert dec.i2 == pytest.approx(scale * (float(ty.Q(hi)) / 64 - tail), rel=0.0, abs=1e-12)

    def test_degenerate_range_rejected(self):
        frame, bundle = tiny_case4_setup()
        small = ScalingBundle(
            case=bundle.case,
            n=bundle.n,
            k_n=1,
            xi=bundle.xi,
            p=bundle.p,
            sigma_n1=bundle.sigma_n1,
            A_n=bundle.A_n,
            d_np=bundle.d_np,
            mu_n=bundle.mu_n,
        )
        with pytest.raises(DomainError):
            decompose_I(frame, small)


class TestLemmaDiagnostics:
    def test_u_ratio_near_one_for_exact_grid(self):
        n = 1000
        grid = (np.arange(n) + 0.5) / n
        fr = frame_from_uniforms(grid)
        assert u_ratio(fr, 100) == pytest.approx(1.0, abs=2e-3)
