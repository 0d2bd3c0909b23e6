"""Tests for slowly varying functions, marginals, targets, subordination and the quadrature."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from lrdextremes import model, scaling
from lrdextremes.errors import ClampWarning, DomainError
from lrdextremes.model import (
    CoefficientModel,
    ExponentialTarget,
    GaussianMarginal,
    IdentityTarget,
    InnovationDist,
    LogParetoTarget,
    MdaCase,
    MdaTag,
    ParetoMarginal,
    ParetoTarget,
    SvConstant,
    SvLogPower,
    clamp_events,
    reset_clamp_events,
    subordinate,
    sv_eval,
)
from lrdextremes.model import (
    _GK_MIN_WIDTH,
    _GK_PARTS,
    _GK_STEPS,
    _QK21_GAUSS,
    _QK21_KRONROD,
    _QK21_NODES,
    _check_prob_open,
    _gauss_kronrod,
    _gauss_kronrod_groups,
    _qk21,
)
from lrdextremes.scaling import check_condition_Dr, power_rank_integral
from lrdextremes.simulate import gen_innovations

# high-precision values computed with an independent mpmath oracle
# (root-solve of ncdf(x) = 0.975, and 1/sqrt(2*pi))
Q_975 = 1.9599639845400542
FQ_HALF = 0.3989422804014327


class TestSlowlyVarying:
    def test_constant(self):
        assert sv_eval(SvConstant(1.0), 100.0) == 1.0

    def test_log_power_at_e(self):
        assert sv_eval(SvLogPower(1.0, 0.5), math.e) == pytest.approx(1.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sv_eval(SvConstant(1.0), 1.0)
        with pytest.raises(DomainError):
            sv_eval(SvLogPower(1.0, 1.0), 0.5)

    @pytest.mark.parametrize(
        "L",
        [
            SvConstant(2.5),
            SvLogPower(1.0, 0.5),
            SvLogPower(3.0, -1.0),
            SvLogPower(0.25, 1.0),
            SvLogPower(0.5, 0.25),
            GaussianMarginal(1.0).L,
        ],
    )
    def test_slow_variation_and_positivity(self, L):
        # a log-power part with |b| <= 1 deviates by at most b*log(2)/log(1e6)
        assert abs(sv_eval(L, 2e6) / sv_eval(L, 1e6) - 1.0) < 0.06
        u = np.geomspace(1.0 + 1e-9, 1e9, 50)
        assert np.all(sv_eval(L, u) > 0)

    def test_numeric_variant_pickles(self):
        L = GaussianMarginal(2.0).L
        L2 = pickle.loads(pickle.dumps(L))
        assert sv_eval(L2, 50.0) == sv_eval(L, 50.0)


class TestInnovations:
    def test_student_t_requires_heavy_moment(self):
        with pytest.raises(DomainError):
            InnovationDist.student_t(4.0)
        with pytest.raises(DomainError):
            InnovationDist.student_t(3.5)
        InnovationDist.student_t(4.5)  # fine

    def test_student_t_unit_variance_scaling(self):
        s = gen_innovations(InnovationDist.student_t(6.0, 1.0), 200_000, 11)
        assert np.var(s) == pytest.approx(1.0, rel=0.05)
        assert abs(np.mean(s)) < 0.02

    def test_gaussian_scale(self):
        s = gen_innovations(InnovationDist.gaussian(2.0), 100_000, 12)
        assert np.std(s) == pytest.approx(2.0, rel=0.02)


class TestGaussianMarginal:
    def test_quantile_examples(self):
        m = GaussianMarginal(1.0)
        assert m.Q(0.5) == pytest.approx(0.0, abs=1e-12)
        assert m.Q(0.975) == pytest.approx(Q_975, abs=1e-8)
        assert m.fQ_upper(0.5) == pytest.approx(FQ_HALF, abs=1e-10)

    def test_domain_errors(self):
        m = GaussianMarginal(1.0)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                m.Q(bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_scalar_and_array_refusals_agree(self, bad):
        # Python floats take the scalar path, the quadrature's node arrays the other; both refuse alike
        messages = set()
        for arg in (bad, np.float64(bad), np.array(bad), np.array([0.5, bad])):
            with pytest.raises(DomainError) as exc:
                _check_prob_open(arg)
            messages.add(str(exc.value))
        assert messages == {"quantile-side argument must lie in the open interval (0, 1)"}

    def test_nan_passes_the_check_on_both_paths(self):
        assert math.isnan(_check_prob_open(float("nan")))
        assert np.isnan(_check_prob_open(np.array([0.5, np.nan]))[1])
        assert _check_prob_open(0.25) == 0.25
        assert math.isnan(GaussianMarginal(1.0).Q(float("nan")))
        assert np.isnan(GaussianMarginal(1.0).Q(np.array([np.nan]))[0])

    @pytest.mark.parametrize("s", [1.0, 0.5, 3.7])
    def test_fq_identity_grid(self, s):
        m = GaussianMarginal(s)
        y = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(m.F(m.Q(y)) - y)) < 1e-8
        np.testing.assert_allclose(m.fQ_upper(1.0 - y), m.F_deriv(1, m.Q(y)), rtol=1e-12)

    def test_derivatives_match_finite_differences(self):
        m = GaussianMarginal(1.7)
        xs = np.array([-2.0, -0.5, 0.3, 1.1, 2.4])
        h = 1e-5
        for r in (1, 2, 3):
            approx = (m.F_deriv(r - 1, xs + h) - m.F_deriv(r - 1, xs - h)) / (2 * h)
            np.testing.assert_allclose(m.F_deriv(r, xs), approx, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_all_derivatives_have_f_deriv_bits(self, p):
        # against the closed form F^(r)(t) = (-1)^(r-1) He_(r-1)(z) phi(z) / s^r, z = t/s, taken
        # point by point through math and the recurrence He_(m+1)(z) = z He_m(z) - m He_(m-1)(z)
        s = 1.7
        m = GaussianMarginal(s)
        xs = np.concatenate([np.random.default_rng(p).normal(0.0, 4.0, 401), [0.0, -0.0, 1e-300, 60.0, -60.0]])
        got = m.F_derivs(p, xs)
        assert len(got) == p
        for i, t in enumerate(xs.tolist()):
            z = t / s
            phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            he_prev, he = 0.0, 1.0  # He_(-1) stands in as 0, He_0 = 1
            for r in range(1, p + 1):
                want = (-1.0) ** (r - 1) * he * phi / s**r
                assert got[r - 1][i] == pytest.approx(want, rel=1e-13, abs=1e-300)
                he_prev, he = he, z * he - (r - 1) * he_prev
        # the accessor takes the last of them, a scalar point included
        assert m.F_deriv(p, xs).tobytes() == got[-1].tobytes()
        assert float(m.F_deriv(p, float(xs[0]))) == got[-1][0]

    def test_turning_gaps(self):
        m = GaussianMarginal(2.0)
        xs = np.linspace(-6.0, 6.0, 13)
        # p = 1: P(z) = -13 - z Y_1 / 2 vanishes at t = 2 z = -13 * 4 / Y_1 = 2.6, in gap 8
        turns = m.turning_gaps(xs, [-20.0])
        assert turns.gaps.tolist() == [7, 8, 9]
        assert turns.slack == pytest.approx(1e-9 * (13 + 10.0))
        assert m.turning_gaps(xs, []).gaps.size == 0  # p = 0: P = -n
        assert m.turning_gaps(xs[:1], [-20.0, 3.0]).gaps.size == 0
        assert m.turning_gaps(xs, [np.nan]) is None
        assert m.turning_gaps(np.append(xs, 1e60), [1.0]) is None
        assert m.turning_gaps(np.append(xs, np.inf), [1.0]) is None

    def test_von_mises_ratio_tends_to_one(self):
        # Gumbel membership: fQ_upper(y) / (y * L(1/y)) -> 1 as y -> 0
        m = GaussianMarginal(1.0)
        ys = np.array([1e-2, 1e-4, 1e-6, 1e-8])
        ratios = m.fQ_upper(ys) / (ys * sv_eval(m.L, 1.0 / ys))
        devs = np.abs(ratios - 1.0)
        # convergence is as slow as 1/Phi^-1(1-y)^2, about 0.03 at y = 1e-8
        assert devs[-1] < 0.05
        assert np.all(np.diff(devs) < 0)


class TestParetoMarginal:
    def test_tail_relations_exact(self):
        m = ParetoMarginal(4.0)
        y = np.linspace(0.01, 0.99, 99)
        # Q(1-y) = y^(-1/alpha) and fQ_upper(y) = alpha * y^(1+1/alpha) exactly
        np.testing.assert_allclose(m.Q(1.0 - y), y ** (-0.25), rtol=1e-13)
        np.testing.assert_allclose(m.fQ_upper(y), 4.0 * y**1.25, rtol=1e-13)
        assert np.max(np.abs(m.F(m.Q(y)) - y)) < 1e-12

    def test_all_derivatives_default_to_f_deriv(self):
        m = ParetoMarginal(4.0, x_m=2.0)
        xs = np.array([1.0, 2.5, 3.0, 9.0])
        for r, d in enumerate(m.F_derivs(3, xs), start=1):
            np.testing.assert_array_equal(d, m.F_deriv(r, xs))
        assert m.turning_gaps(np.sort(xs), [1.0, 2.0]) is None  # every gap may turn

    def test_derivatives_match_finite_differences(self):
        m = ParetoMarginal(4.0, x_m=2.0)
        xs = np.array([2.5, 3.0, 5.0, 9.0])
        h = 1e-6
        for r in (1, 2, 3):
            approx = (m.F_deriv(r - 1, xs + h) - m.F_deriv(r - 1, xs - h)) / (2 * h)
            np.testing.assert_allclose(m.F_deriv(r, xs), approx, rtol=1e-6)


class TestTargets:
    def test_pareto_relation_exact(self):
        ty = ParetoTarget(2.0)
        u = np.linspace(1e-6, 1 - 1e-6, 101)
        # f_Y Q_Y (1-y) = alpha0 * y^(1+1/alpha0), so L = L2 = alpha0
        np.testing.assert_allclose(ty.fQ_upper(1.0 - u), 2.0 * (1.0 - u) ** 1.5, rtol=1e-13)
        y = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(ty.fQ_upper(y), 2.0 * y**1.5, rtol=1e-9)
        assert sv_eval(ty.L, 100.0) == 2.0

    def test_pareto_needs_finite_mean(self):
        with pytest.raises(DomainError):
            ParetoTarget(1.0)

    def test_exponential_relation_exact(self):
        ty = ExponentialTarget()
        u = np.linspace(1e-6, 1 - 1e-6, 101)
        np.testing.assert_allclose(ty.fQ_upper(1.0 - u), 1.0 - u, rtol=1e-13)
        y = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(ty.fQ_upper(y), y, rtol=1e-9)
        assert float(ty.cum_Q(1.0) - ty.cum_Q(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_cum_q_matches_quadrature(self):
        for ty in (ParetoTarget(2.0), ExponentialTarget(), LogParetoTarget(ParetoMarginal(4.0))):
            for lo, hi in [(0.0, 0.5), (0.3, 0.9), (0.9, 0.999)]:
                ref, _ = quad(lambda u: ty.Q(u), lo, hi, limit=200)
                assert float(ty.cum_Q(hi) - ty.cum_Q(lo)) == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_log_pareto_of_exact_pareto_is_exponential_in_tail(self):
        # alpha*log Q(u) = -log(1-u) when Q(1-y) = y^(-1/alpha)
        ty = LogParetoTarget(ParetoMarginal(4.0), u0=0.5)
        u = np.linspace(0.51, 1 - 1e-9, 50)
        np.testing.assert_allclose(ty.Q(u), -np.log1p(-u), rtol=1e-12)
        np.testing.assert_allclose(sv_eval(ty.L, np.array([10.0, 1e4])), 1.0, rtol=1e-12)

    def test_log_pareto_requires_positive_quantile(self):
        with pytest.raises(DomainError):
            LogParetoTarget(GaussianMarginal(1.0))  # gumbel base rejected

    def test_identity_target_gaussian_cum_q(self):
        ty = IdentityTarget(GaussianMarginal(2.0))
        ref, _ = quad(lambda u: ty.Q(u), 0.2, 0.8, limit=200)
        assert float(ty.cum_Q(0.8) - ty.cum_Q(0.2)) == pytest.approx(ref, rel=1e-9)


class TestMdaCase:
    def test_classification_table(self):
        fre = MdaTag("frechet", 4.0)
        gum = MdaTag("gumbel")
        assert MdaCase.classify(fre, MdaTag("frechet", 6.0)) is MdaCase.CASE1
        assert MdaCase.classify(fre, gum) is MdaCase.CASE2
        assert MdaCase.classify(gum, MdaTag("frechet", 6.0)) is MdaCase.CASE3
        assert MdaCase.classify(gum, gum) is MdaCase.CASE4

    def test_derivation_consistent(self):
        mx = ParetoMarginal(4.0)
        ty = ExponentialTarget()
        assert MdaCase.classify(mx.mda, ty.mda) is MdaCase.classify(mx.mda, ty.mda)


class TestSubordinate:
    def test_gaussian_exponential_at_zero(self):
        # Q_Y(0.5) = -log(0.5)
        val = subordinate(GaussianMarginal(1.0), ExponentialTarget(), 0.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_identity(self):
        mx = GaussianMarginal(1.0)
        assert subordinate(mx, IdentityTarget(mx), 1.3) == pytest.approx(1.3, abs=1e-9)

    def test_gaussian_pareto_at_zero(self):
        val = subordinate(GaussianMarginal(1.0), ParetoTarget(2.0), 0.0)
        assert val == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @given(st.floats(-7, 7), st.floats(-7, 7))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, a, b):
        mx = GaussianMarginal(1.0)
        ty = ParetoTarget(3.0)
        lo, hi = min(a, b), max(a, b)
        assert subordinate(mx, ty, lo) <= subordinate(mx, ty, hi)

    def test_boundary_clamp_counted(self):
        reset_clamp_events()
        before = clamp_events()
        with pytest.warns(ClampWarning):
            subordinate(GaussianMarginal(1.0), ExponentialTarget(), 1e9)
        assert clamp_events() == before + 1


CHUNK = model._CHUNK_POINTS


class TestCoefficientModel:
    def test_convention_and_positivity(self):
        cm = CoefficientModel.build(0.75, SvConstant(1.0), M=100)
        assert cm.c[0] == 1.0
        k = np.arange(1, 101, dtype=float)
        np.testing.assert_allclose(cm.c[1:], k**-0.75, rtol=1e-14)
        assert np.all(cm.c > 0)
        assert np.all(np.diff(cm.c[1:]) <= 0)  # monotone for constant L0

    def test_square_summable(self):
        cm = CoefficientModel.build(0.6, SvConstant(1.0), M=10_000)
        assert np.isfinite(cm.total_square_sum)

    @pytest.mark.parametrize("size", [4_194_305, 1_000_003, 131_073, 65_537, 32_263])
    def test_total_square_sum_has_the_bytes_of_the_squared_copy(self, size):
        # numpy's pairwise tree, split down to chunk-sized leaves: the cap, odd and chunk-straddling lengths
        cm = CoefficientModel.build(0.7, SvConstant(1.0), size - 1)
        assert np.float64(cm.total_square_sum).tobytes() == np.sum(cm.c * cm.c).tobytes()

    @pytest.mark.parametrize("leaf", [128, 1000])
    def test_total_square_sum_leaves_keep_the_tree(self, leaf, monkeypatch):
        # any leaf of at least numpy's 128-point pairwise block keeps the sum's tree
        c = np.random.default_rng(leaf).lognormal(0.0, 2.0, 100_003)
        monkeypatch.setattr(model, "_CHUNK_POINTS", leaf)
        cm = CoefficientModel(0.7, SvConstant(1.0), c.size - 1, c)
        assert np.float64(cm.total_square_sum).tobytes() == np.sum(c * c).tobytes()

    def test_identity_filter_allowed(self):
        cm = CoefficientModel.build(0.75, SvConstant(1.0), M=0)
        assert list(cm.c) == [1.0]

    @pytest.mark.parametrize("L0", [SvConstant(1.0), SvConstant(2.5), SvLogPower(1.3, 0.7), SvLogPower(2.0, -1.5)])
    @pytest.mark.parametrize("M", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3, 3 * CHUNK + 17])
    def test_chunks_match_the_one_pass_formula(self, L0, M):
        # the one-pass formula over k = 1..M, byte for byte, across chunk boundaries and
        # with a short last chunk (2 * CHUNK + 3 leaves 3 points)
        k = np.arange(1, M + 1, dtype=float)
        oracle = np.concatenate([[1.0], k**-0.7 * L0._eval(k)])
        assert CoefficientModel.build(0.7, L0, M).c.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("L0", [SvConstant(1.0), SvConstant(0.37)])
    def test_constant_l0_multiplies_by_its_scalar(self, L0, monkeypatch):
        # four chunks, the last of 5 points: k^-beta * L0(k) taken chunk by chunk, with no
        # chunk-sized array of L0
        M = 3 * CHUNK + 5
        oracle = [np.ones(1)]
        for lo in range(1, M + 1, CHUNK):
            ks = np.arange(lo, min(lo + CHUNK, M + 1), dtype=float)
            oracle.append(ks**-0.7 * L0._eval(ks))

        def refuse(self, u):
            raise AssertionError("a constant L0 was evaluated on an array")

        monkeypatch.setattr(SvConstant, "_eval", refuse)
        assert CoefficientModel.build(0.7, L0, M).c.tobytes() == np.concatenate(oracle).tobytes()

    def test_small_chunks_match_the_one_pass_formula(self, monkeypatch):
        L0, M = SvLogPower(1.3, 0.7), 1000
        k = np.arange(1, M + 1, dtype=float)
        oracle = np.concatenate([[1.0], k**-0.6 * L0._eval(k)])
        for chunk in (1, 3, 7, 999, 1000, 1001):
            monkeypatch.setattr(model, "_CHUNK_POINTS", chunk)
            assert CoefficientModel.build(0.6, L0, M).c.tobytes() == oracle.tobytes()


def counted(fn, sizes):
    """fn, recording the number of nodes of each call in ``sizes``."""

    def wrapper(x):
        sizes.append(x.size)
        return fn(x)

    return wrapper


def lone_gauss_kronrod(fn, a, b, *, epsabs, epsrel, limit, points=None):
    """The adaptive loop of one integral refining on its own: the reference for the bits of a group."""
    edges = np.array([a, *(points or ()), b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err = _qk21(fn, lo, hi)
    while True:
        value, error = float(np.sum(val)), float(np.sum(err))
        tol = max(epsabs, epsrel * abs(value))
        if not error > tol:
            return value, error
        width = hi - lo
        over = (err * lo.size > tol) & (width > _GK_MIN_WIDTH * np.maximum(np.abs(lo), np.abs(hi)))
        cut = np.flatnonzero(over)
        room = max(0, (limit - lo.size) // (_GK_PARTS - 1))
        if cut.size > room:
            cut = cut[np.argsort(err[cut])[cut.size - room :]]
        if not cut.size:
            return value, error
        grid = lo[cut, None] + width[cut, None] * _GK_STEPS
        grid[:, -1] = hi[cut]
        new_lo, new_hi = grid[:, :-1].ravel(), grid[:, 1:].ravel()
        new_val, new_err = _qk21(fn, new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[cut] = False
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))


def hexes(*xs):
    return [float(x).hex() for x in xs]


# the X and Y marginals and p of the benchmark's three workloads (X's scale is the model's s at
# beta 0.8 and 0.7), and a pair whose power-rank integrand grows like u^-0.8 at u = 0
FEASIBILITY_PAIRS = [
    (GaussianMarginal(1.8117615600050787), ExponentialTarget(), 1),
    (GaussianMarginal(1.8117615600050787), ParetoTarget(6.0), 1),
    (GaussianMarginal(2.02483046192972), ExponentialTarget(), 2),
    (GaussianMarginal(1.0), ParetoTarget(1.25), 1),
]


class TestGaussKronrod:
    """The package's adaptive quadrature, against scipy.integrate.quad and closed forms."""

    def test_rule_is_qk21(self):
        # every second node carries the 10-point Gauss-Legendre rule
        x, w = np.polynomial.legendre.leggauss(10)
        gauss = _QK21_GAUSS != 0.0
        np.testing.assert_allclose(_QK21_NODES[gauss], x, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(_QK21_GAUSS[gauss], w, rtol=0.0, atol=1e-15)
        # and the 21-point Kronrod rule integrates every polynomial of degree <= 31 exactly
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert math.fsum(_QK21_KRONROD * _QK21_NODES**k) == pytest.approx(exact, abs=1e-15)

    def test_smooth_integrand(self):
        f = lambda x: 1.0 / (1.0 + 25.0 * x * x)
        val, err = _gauss_kronrod(f, -1.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
        ref, _ = quad(f, -1.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
        assert val == pytest.approx(0.4 * math.atan(5.0), rel=1e-14)
        assert val == pytest.approx(ref, rel=1e-14)
        assert err <= 1e-12 * val

    def test_endpoint_singular_power_rank_integrand(self):
        # f(Q(1 - u)) / f_Y(Q_Y(1 - u)) grows like u^-0.8 at u = 0 for a Gaussian X and a Pareto(1.25) Y.
        # Each piece of power_rank_integral's partition meets its tolerance and its error estimate
        # covers the distance to a tight quad; the sum matches the independent route in z = Q(y)
        mx, ty = GaussianMarginal(1.0), ParetoTarget(1.25)
        f = lambda u: mx.fQ_upper(u) / ty.fQ_upper(u)
        total = 0.0
        for a, b in [(0.0, 1e-6), (1e-6, 0.5), (0.5, 1.0 - 1e-6), (1.0 - 1e-6, 1.0)]:
            val, err = _gauss_kronrod(f, a, b, epsabs=1e-12, epsrel=1e-8, limit=1000)
            ref, _ = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=5000)
            assert err <= max(1e-12, 1e-8 * abs(val))
            assert abs(val - ref) <= err
            total += val
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        ref, _ = quad(lambda z: phi(z) ** 2 / (1.25 * ndtr(-z) ** 1.8), -10.0, 25.0, limit=400)
        assert total == pytest.approx(ref, rel=1e-8)

    def test_breakpoint(self):
        # a jump at 0.3; as a breakpoint it splits the first partition, where both sides are polynomials
        f = lambda x: np.where(x < 0.3, x, 2.0 * x)
        exact = 0.045 + 2.0 * (0.5 - 0.045)
        sizes = []
        val, err = _gauss_kronrod(counted(f, sizes), 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=50, points=[0.3])
        ref, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=50, points=[0.3])
        assert sizes == [42]
        assert val == pytest.approx(exact, rel=1e-15)
        assert val == pytest.approx(ref, rel=1e-15)
        # without it, refinement finds the jump
        val, err = _gauss_kronrod(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=500)
        assert abs(val - exact) <= err <= 1e-12 * val

    def test_nan_integrand_gives_a_non_finite_value(self):
        sizes = []
        f = counted(lambda x: np.where(x > 0.7, np.nan, x), sizes)
        val, err = _gauss_kronrod(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-8, limit=100)
        assert not math.isfinite(val)
        assert len(sizes) == 1  # no refinement of a value that is already lost

    def test_limit_exhaustion_reports_an_error_above_the_tolerance(self):
        f = lambda x: np.abs(np.sin(300.0 * x))
        sizes = []
        val, err = _gauss_kronrod(counted(f, sizes), 0.0, 10.0, epsabs=0.0, epsrel=1e-10, limit=50)
        _, quad_err = quad(f, 0.0, 10.0, epsabs=0.0, epsrel=1e-10, limit=50)
        assert err > 1e-10 * abs(val)
        assert quad_err > 1e-10 * abs(val)
        # every cut interval became 8 parts, and the partition stayed within the limit
        evaluated = sum(sizes) // 21
        assert 1 + 7 * (evaluated - 1) // 8 <= 50

    def test_endpoints_are_never_evaluated(self):
        def guarded(f, a, b):
            def fn(x):
                assert np.all((x > a) & (x < b)), "an endpoint was evaluated"
                return f(x)

            return fn

        # singular at both ends; the rule cannot refine to the end at 1, where the floats are
        # 2^-53 apart, so it reports an error above the tolerance that still covers the true error
        val, err = _gauss_kronrod(
            guarded(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0), 0.0, 1.0, epsabs=0.0, epsrel=1e-8, limit=1000
        )
        assert abs(val - math.pi) <= err
        # a Gaussian quantile raises at 0 and 1; the breakpoint at 0.5 is not evaluated either
        mx = GaussianMarginal(1.0)
        val, err = _gauss_kronrod(
            guarded(lambda u: mx.Q(u) ** 2, 0.0, 1.0), 0.0, 1.0, epsabs=0.0, epsrel=1e-8, limit=1000, points=[0.5]
        )
        assert val == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("mx,ty,p", FEASIBILITY_PAIRS)
    def test_grouped_pieces_keep_the_bits_of_lone_runs(self, mx, ty, p, monkeypatch):
        # record the grouped quadratures of the feasibility checks, then run each piece alone
        grouped = []

        def recording(fn, edges, **options):
            grouped.append((fn, edges, options))
            return _gauss_kronrod_groups(fn, edges, **options)

        monkeypatch.setattr(scaling, "_gauss_kronrod_groups", recording)
        power_rank_integral(mx, ty)
        for r in range(1, p + 1):
            check_condition_Dr(mx, ty, r)
        monkeypatch.undo()
        assert [len(edges) for _, edges, _ in grouped] == [4] + [2] * p
        for fn, edges, options in grouped:
            values, errors = _gauss_kronrod_groups(fn, edges, **options)
            for (a, b), value, error in zip(edges, values, errors):
                assert hexes(value, error) == hexes(*lone_gauss_kronrod(fn, a, b, **options))
                assert hexes(value, error) == hexes(*_gauss_kronrod(fn, a, b, **options))

    def test_a_lost_and_a_limit_bound_group_leave_the_others_alone(self):
        # four groups on one integrand: smooth; NaN above 1.7; |sin(300 x)|, which exhausts the
        # limit; and x^-1/2 from 12, with a breakpoint
        def f(x):
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.select(
                    [x < 1.0, x < 2.0, x < 12.0],
                    [1.0 / (1.0 + 25.0 * (x - 0.5) ** 2), np.where(x > 1.7, np.nan, x), np.abs(np.sin(300.0 * x))],
                    1.0 / np.sqrt(np.abs(x - 12.0)),
                )

        edges = [[0.0, 1.0], [1.0, 2.0], [2.0, 12.0], [12.0, 12.5, 13.0]]
        options = dict(epsabs=0.0, epsrel=1e-10, limit=50)
        sizes = []
        values, errors = _gauss_kronrod_groups(counted(f, sizes), edges, **options)
        lone_sizes = []
        for e, value, error in zip(edges, values, errors):
            lone_sizes.append([])
            lone = lone_gauss_kronrod(counted(f, lone_sizes[-1]), e[0], e[-1], points=e[1:-1], **options)
            assert hexes(value, error) == hexes(*lone)
        assert values[0] == pytest.approx(0.4 * math.atan(2.5), rel=1e-12)
        assert not math.isfinite(values[1]) and len(lone_sizes[1]) == 1
        assert errors[2] > 1e-10 * abs(values[2])
        assert abs(values[3] - 2.0) <= errors[3]
        # a round takes the new nodes of all groups in one call: as many calls as the longest lone
        # run, and the same nodes
        assert len(sizes) == max(map(len, lone_sizes))
        assert sum(sizes) == sum(map(sum, lone_sizes))
