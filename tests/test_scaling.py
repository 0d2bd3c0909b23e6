"""Tests for the deterministic scaling constants and hypothesis checkers."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from lrdextremes.errors import ConfigError, DomainError, InfeasibleConfigError, NumericError
from lrdextremes.model import (
    ExponentialTarget,
    GaussianMarginal,
    IdentityTarget,
    LogParetoTarget,
    MarginalX,
    MdaCase,
    MdaTag,
    ParetoMarginal,
    ParetoTarget,
    SlowlyVaryingFn,
    SvConstant,
)
from lrdextremes.scaling import (
    big_A,
    case_exponent,
    centering,
    check_condition_Dr,
    d_np,
    iid_contrast,
    iid_scale,
    karamata_K,
    karamata_product,
    make_bundle,
    power_rank_integral,
    select_p,
    xi_threshold,
)
from lrdextremes.simulate import build_coefficient_model, sigma_n1_exact

CONST1 = SvConstant(1.0)

# mpmath oracle values (30 digits, frozen)
D_NP_REF = 74.2167404951329  # n=1e4, p=1, beta=0.8, constant L0
K_N_CASE2_REF = 0.0100872885125388  # 3.2*(0.01^1.25 - 0.0001^1.25)
A_N_CASE2_REF = 98.8211768802619  # 100^1.25 * 0.3125
# A_n at (n, k_n) = (1e4, 1e2), one marginal pair per case; pinned exactly,
# so a change in the order of A_n's float operations shows
A_N_PINS = [
    (ParetoMarginal(4.0), ParetoTarget(6.0), 238.51738098858624),
    (ParetoMarginal(4.0), ExponentialTarget(), 98.82117688026186),
    (GaussianMarginal(1.0), ParetoTarget(6.0), 78.64391245481399),
    (GaussianMarginal(1.0), ExponentialTarget(), 33.886634630496346),
]
CENT_PARETO2_REF = 63.2455532033676  # 100*2*sqrt(0.1)
CENT_EXP_REF = 33.0258509299405  # 100*0.1*(1 - log 0.1)
A_N_SCALE_REF = 0.0316227766016838  # 100^0.25/100
# Case 3 (Gaussian X, Pareto(6) Y) at n = 2^15, k_n = ceil(n^0.97) = 23988
AK_CASE3_N15_REF = 1.3320593015


class TestSelectP:
    @pytest.mark.parametrize("beta,expected", [(0.8, 1), (0.75, 2), (0.7, 2), (0.6, 5), (0.9, 1)])
    def test_values(self, beta, expected):
        p = select_p(beta)
        assert p == expected
        # defining property: smallest positive integer with (p+1)(2b-1) > 1
        assert (p + 1) * (2 * beta - 1) > 1
        assert p == 1 or p * (2 * beta - 1) <= 1

    def test_domain(self):
        with pytest.raises(DomainError):
            select_p(0.5)


class TestDnp:
    def test_reference_value(self):
        assert d_np(10**4, 1, 0.8, CONST1) == pytest.approx(D_NP_REF, rel=1e-12)

    def test_eventually_decreasing(self):
        # the log factors dominate until about n = 2^18.6, then the power wins
        for j in range(21, 28):
            assert d_np(2 ** (j + 1), 1, 0.8, CONST1) < d_np(2**j, 1, 0.8, CONST1)

    def test_constant_l0_branch_invariance(self):
        # with L0 = 1 both branch formulas lose their L0 factors entirely
        val = d_np(10**5, 2, 0.75, CONST1)
        n = 10**5
        expected = n ** -0.25 * math.log(n) ** 2.5 * math.log(math.log(n)) ** 0.75
        assert val == pytest.approx(expected, rel=1e-12)

    def test_second_branch(self):
        # beta = 0.6, p = 1: (p+1)(2b-1) = 0.4 < 1 uses the p-power branch
        n = 10**4
        expected = n ** -0.1 * math.log(n) ** 0.5 * math.log(math.log(n)) ** 0.75
        assert d_np(n, 1, 0.6, CONST1) == pytest.approx(expected, rel=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            d_np(8, 1, 0.8, CONST1)


FRECHET4 = MdaTag("frechet", 4.0)
GUMBEL = MdaTag("gumbel")


@dataclass(frozen=True)
class TagOnlyMarginal(MarginalX):
    """An X marginal with only the tag and the slowly varying part that big_A reads."""

    mda: MdaTag
    L: SlowlyVaryingFn | None = None


@dataclass(frozen=True)
class JaggedMarginal(GaussianMarginal):
    """A Gaussian whose density-quantile is scaled by a square wave that jumps every 1/2000 in t."""

    def fQ_upper(self, t):
        return super().fQ_upper(t) * (1.5 + 0.5 * np.sign(np.sin(2000.0 * np.pi * np.asarray(t))))


@dataclass(frozen=True)
class NanTailMarginal(GaussianMarginal):
    """A Gaussian whose density-quantile is NaN below t = 1e-3."""

    def fQ_upper(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 1e-3, np.nan, super().fQ_upper(t))


@pytest.mark.parametrize(
    "x_mda,y_mda,expected",
    [
        (FRECHET4, MdaTag("frechet", 6.0), 1 + 1 / 4 - 1 / 6),
        (FRECHET4, GUMBEL, 1 + 1 / 4),
        (GUMBEL, MdaTag("frechet", 6.0), 1 - 1 / 6),
        (GUMBEL, GUMBEL, 1.0),
    ],
    ids=["case1", "case2", "case3", "case4"],
)
def test_case_exponent(x_mda, y_mda, expected):
    assert case_exponent(x_mda, y_mda) == expected


class TestXiThreshold:
    def test_case1(self):
        assert xi_threshold(FRECHET4, MdaTag("frechet", 5.0), 0.7) == pytest.approx(0.95 / 1.05, rel=1e-12)

    def test_case2(self):
        assert xi_threshold(FRECHET4, GUMBEL, 0.8) == pytest.approx(1.05 / 1.25, rel=1e-12)

    def test_case3(self):
        assert xi_threshold(GUMBEL, MdaTag("frechet", 6.0), 0.8) == pytest.approx(0.96, rel=1e-12)

    def test_case4(self):
        assert xi_threshold(GUMBEL, GUMBEL, 0.8) == pytest.approx(0.8)

    def test_infeasible_alpha0(self):
        # alpha0 <= (1-beta)^-1 pushes the threshold to 1
        with pytest.raises(InfeasibleConfigError):
            xi_threshold(GUMBEL, MdaTag("frechet", 2.0), 0.8)
        with pytest.raises(InfeasibleConfigError):
            xi_threshold(FRECHET4, MdaTag("frechet", 5.0), 0.8)  # needs alpha0 > 5

    def test_alpha_floor(self):
        with pytest.raises(InfeasibleConfigError):
            xi_threshold(MdaTag("frechet", 3.0), GUMBEL, 0.8)

    def test_missing_index(self):
        # a Frechet tag without its tail index is refused before any threshold
        with pytest.raises(DomainError):
            MdaTag("frechet")


class TestBigA:
    def test_case4_identical_light_tails(self):
        mx = GaussianMarginal(1.0)
        assert big_A(mx, IdentityTarget(mx), 1000, 100) == pytest.approx(10.0, rel=1e-12)

    def test_case2_reference(self):
        assert big_A(ParetoMarginal(4.0), ExponentialTarget(), 10**4, 10**2) == pytest.approx(A_N_CASE2_REF, rel=1e-12)

    @pytest.mark.parametrize("mx,ty,expected", A_N_PINS, ids=["case1", "case2", "case3", "case4"])
    def test_pinned_values(self, mx, ty, expected):
        assert big_A(mx, ty, 10**4, 10**2) == expected

    def test_increasing_in_ratio_all_cases(self):
        for mx, ty, _ in A_N_PINS:
            k_n = 1000
            vals = [big_A(mx, ty, k_n * r, k_n) for r in (10, 100, 1000, 10000)]
            assert all(b > a for a, b in zip(vals, vals[1:])), MdaCase.classify(mx.mda, ty.mda)

    def test_missing_components(self):
        # a Gumbel X without its L has no normalizing constant
        with pytest.raises(ConfigError, match="CASE4"):
            big_A(TagOnlyMarginal(GUMBEL), ExponentialTarget(), 1000, 10)

    def test_log_slope_equals_case_exponent_for_constant_L(self):
        # with constant slowly varying parts the constant cancels from the
        # two-point log slope, leaving the case exponent exactly; no Gumbel
        # X of the package has a constant L, so that side is tag-only
        gumbel_x = TagOnlyMarginal(GUMBEL, L=SvConstant(0.3125))
        pairs = [
            (ParetoMarginal(4.0), ParetoTarget(6.0)),
            (ParetoMarginal(4.0), ExponentialTarget()),
            (gumbel_x, ParetoTarget(6.0)),
            (gumbel_x, ExponentialTarget()),
        ]
        k_n = 10**3
        for mx, ty in pairs:
            a1 = big_A(mx, ty, 10**5 * k_n, k_n)
            a2 = big_A(mx, ty, 10**8 * k_n, k_n)
            slope = (math.log(a2) - math.log(a1)) / (math.log(1e8) - math.log(1e5))
            assert slope == pytest.approx(case_exponent(mx.mda, ty.mda), abs=1e-6)


class TestKaramata:
    def test_case2_reference_integral(self):
        k = karamata_K(ParetoMarginal(4.0), ExponentialTarget(), 10**4, 10**2)
        assert k == pytest.approx(K_N_CASE2_REF, rel=1e-6)

    def test_product_near_one(self):
        prod = karamata_product(ParetoMarginal(4.0), ExponentialTarget(), 10**4, 10**2)
        assert prod == pytest.approx(0.9969, abs=5e-4)

    def test_identical_marginals_closed_form(self):
        mx = ParetoMarginal(4.0)
        k = karamata_K(mx, IdentityTarget(mx), 10**4, 10**2)
        assert k == pytest.approx((100 - 1) / 10**4, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            karamata_K(ParetoMarginal(4.0), ExponentialTarget(), 100, 100)

    def test_refuses_when_the_interval_limit_binds(self):
        # about 1000 jumps in [1/n, k_n/n]: 500 intervals cannot resolve them, and the error estimate says so
        with pytest.raises(NumericError, match="did not converge"):
            karamata_K(JaggedMarginal(1.0), ExponentialTarget(), 10**4, 5000)

    def test_nan_integrand_is_refused(self):
        with pytest.raises(NumericError, match="did not converge"):
            karamata_K(NanTailMarginal(1.0), ExponentialTarget(), 10**4, 10**2)

    def test_case3_product_closed_form(self):
        """A_n K_n for Gaussian X, Pareto(6) Y at n = 2^15 without package code.

        With y = k_n/n and z = Phi^-1(1 - y), the Mills-ratio form of the
        von Mises integral is V = phi(z) - z*y (unit scale), so L3(n/k_n) =
        1/((n/k_n) V) and A_n = (n/k_n)^(5/6) (5/6) 6 / L3(n/k_n).  K_n
        integrates phi(Phi^-1(1-u)) / (6 u^(7/6)) over [1/n, k_n/n];
        Phi^-1(1-u) = -Phi^-1(u) keeps the small-u end exact.  The scale s
        of X cancels between the two factors.
        """
        n, k_n = 2**15, 23988
        t = n / k_n
        z = -ndtri(k_n / n)

        def phi(x):
            return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

        a_n = t ** (5.0 / 6.0) * 5.0 * t * (phi(z) - z / t)
        k, _ = quad(
            lambda u: phi(ndtri(u)) / (6.0 * u ** (7.0 / 6.0)), 1.0 / n, k_n / n, epsabs=0.0, epsrel=1e-12, limit=400
        )
        oracle = a_n * k
        assert oracle == pytest.approx(AK_CASE3_N15_REF, rel=1e-8)
        for s in (1.0, 2.5):
            prod = karamata_product(GaussianMarginal(s), ParetoTarget(6.0), n, k_n)
            assert prod == pytest.approx(oracle, rel=1e-8)


class TestCentering:
    def test_pareto_reference(self):
        assert centering(ParetoTarget(2.0), 100, 10) == pytest.approx(CENT_PARETO2_REF, rel=1e-10)

    def test_exponential_reference(self):
        assert centering(ExponentialTarget(), 100, 10) == pytest.approx(CENT_EXP_REF, rel=1e-10)

    def test_full_mean(self):
        assert centering(ExponentialTarget(), 100, 100) == pytest.approx(100.0, rel=1e-12)

    def test_quadrature_path_agrees(self):
        # generic quadrature route (after u = 1 - y) vs the closed form
        ref, _ = quad(lambda t: t**-0.5, 0.0, 0.1, limit=400)
        assert centering(ParetoTarget(2.0), 100, 10) == pytest.approx(100 * ref, rel=1e-6)

    @pytest.mark.parametrize(
        "ty",
        [ParetoTarget(6.0), ExponentialTarget(), LogParetoTarget(ParetoMarginal(4.0)), IdentityTarget(GaussianMarginal(2.0))],
        ids=["pareto6", "exponential", "logpareto", "identity_gaussian"],
    )
    def test_matches_quadrature_up_to_one(self, ty):
        # mu_n = n int_{1-k_n/n}^1 Q_Y, the closed antiderivative read at u = 1, against quad
        # of Q_Y(1 - t) over t in (0, k_n/n)
        ref, _ = quad(lambda t: float(ty.Q(1.0 - t)), 0.0, 0.1, limit=400)
        assert centering(ty, 100, 10) == pytest.approx(100 * ref, rel=1e-10)

    def test_divergent_mean_rejected_at_construction(self):
        with pytest.raises(DomainError):
            ParetoTarget(0.9)


class TestIidScale:
    def test_reference(self):
        assert iid_scale(10**4, 10**2, 4.0) == pytest.approx(A_N_SCALE_REF, rel=1e-12)

    def test_alpha_limit(self):
        # alpha -> inf: a_n -> k_n^(-1/2)
        assert iid_scale(10**4, 10**2, 1e12) == pytest.approx(0.1, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            iid_scale(100, 10, 2.0)

    def test_normalized_contrast_diverges(self):
        # the whole-sum-normalized LRD/iid contrast grows along any n grid
        vals = [iid_contrast(2**j, math.ceil((2**j) ** 0.9), 4.0) for j in range(10, 21)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPowerRank:
    def test_identity_is_one(self):
        mx = ParetoMarginal(4.0)
        assert power_rank_integral(mx, IdentityTarget(mx)) == pytest.approx(1.0, rel=1e-8)

    def test_gaussian_exponential_two_routes(self):
        mx = GaussianMarginal(1.0)
        val = power_rank_integral(mx, ExponentialTarget())
        # independent route: substitute y = Phi(x): int phi(x)^2 / Phi(-x) dx
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        ref, _ = quad(lambda x: phi(x) ** 2 / ndtr(-x), -10, 12, limit=400)
        assert val > 0
        assert val == pytest.approx(ref, rel=1e-6)

    def test_gaussian_pareto_two_routes(self):
        mx = GaussianMarginal(1.0)
        ty = ParetoTarget(2.0)
        val = power_rank_integral(mx, ty)
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        ref, _ = quad(lambda x: phi(x) ** 2 / (2.0 * ndtr(-x) ** 1.5), -10, 12, limit=400)
        assert val > 0
        assert val == pytest.approx(ref, rel=1e-6)

    def test_nan_integrand_is_refused(self):
        with pytest.raises(NumericError, match="diverges"):
            power_rank_integral(NanTailMarginal(1.0), ExponentialTarget())

    def test_the_first_lost_piece_is_named(self):
        # NaN below t = 1e-3: the pieces (0, 1e-6) and (1e-6, 0.5) are both lost
        with pytest.raises(NumericError, match=r"diverges on \(0\.0, 1e-06\)"):
            power_rank_integral(NanTailMarginal(1.0), ExponentialTarget())

    def test_nodes_where_one_minus_u_rounds_to_one(self):
        # int_0^1 fQ(1-u)/f_YQ_Y(1-u) du = int phi(z)^2 / (alpha0 Phi(-z)^(1 + 1/alpha0)) dz by mpmath at
        # 30 digits.  Near u = 0 the plain forms saw only u's leading digits: they gave 1.4086144398758411
        # (1.8e-10 off) at Pareto(2) and 0.3631655282842784 (1.4e-12 off) at Pareto(4); the upper-tail
        # forms are within 6e-13, so 1e-11 tells the two apart.
        reference = {2.0: 1.40861443962217618006655708735, 4.0: 0.363165528283778960558251997897}
        for alpha0, ref in reference.items():
            assert power_rank_integral(GaussianMarginal(1.0), ParetoTarget(alpha0)) == pytest.approx(ref, rel=1e-11)


class TestFeasibilityQuadratures:
    def test_pieces_refine_in_one_integrand_call_a_round(self, monkeypatch):
        # each integrand call takes f_Y Q_Y once; 17 and 13 calls when each piece refines on its own
        calls = []
        fQ_upper = ExponentialTarget.fQ_upper

        def counted(self, t):
            calls.append(np.size(t))
            return fQ_upper(self, t)

        monkeypatch.setattr(ExponentialTarget, "fQ_upper", counted)
        power_rank_integral(GaussianMarginal(1.0), ExponentialTarget())
        assert len(calls) <= 7
        calls.clear()
        check_condition_Dr(GaussianMarginal(1.0), ExponentialTarget(), 1)
        assert len(calls) <= 7


class TestConditionDr:
    def test_gaussian_exponential_two_routes(self):
        mx = GaussianMarginal(1.0)
        val = check_condition_Dr(mx, ExponentialTarget(), 1)
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        ref, _ = quad(lambda x: phi(x) ** 2 / ndtr(-x), 0, 12, limit=400)
        assert val == pytest.approx(ref, rel=1e-6)

    def test_gaussian_pareto_finite(self):
        mx = GaussianMarginal(1.0)
        v1 = check_condition_Dr(mx, ParetoTarget(4.0), 1)
        v2 = check_condition_Dr(mx, ParetoTarget(4.0), 2)
        assert math.isfinite(v1) and math.isfinite(v2)

    def test_r_zero_rejected(self):
        with pytest.raises(DomainError):
            check_condition_Dr(GaussianMarginal(1.0), ExponentialTarget(), 0)

    def test_nodes_where_one_minus_u_rounds_to_one(self):
        # the quadrature refines below u = 2^-54 here; D_3 used to be a DomainError.
        # References: int_0^inf F^(r)(s z) phi(z) / (2 Phi(-z)^1.5) dz by mpmath at 30 digits
        reference = {
            1: 0.984339457005495303493249034216,
            2: -1.28156203086085569273582666757,
            3: 1.6700067486901657520435665673,
            4: -2.43799424425758054072943124427,
            5: 4.21614499570083929991755769212,
        }
        mx, ty = GaussianMarginal(1.3), ParetoTarget(2.0)
        for r, ref in reference.items():
            assert check_condition_Dr(mx, ty, r) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("t", [0.5, 0.25, 2.0**-20])
    def test_upper_tail_forms_match_the_plain_ones(self, t):
        # 1 - t is exact at these t, so both routes see the same point
        for mx in (GaussianMarginal(1.3), ParetoMarginal(3.0, 2.0)):
            assert mx.Q_upper(t) == pytest.approx(mx.Q(1.0 - t), rel=1e-13)
            assert mx.fQ_upper(t) == pytest.approx(mx.F_deriv(1, mx.Q(1.0 - t)), rel=1e-13)
        # closed forms: alpha0 t^(1 + 1/alpha0), t, and the Gaussian density at Phi^-1(t)
        gauss = math.exp(-0.5 * ndtri(t) ** 2) / (1.3 * math.sqrt(2.0 * math.pi))
        closed_forms = [
            (ParetoTarget(2.0), 2.0 * t**1.5),
            (ExponentialTarget(), t),
            (IdentityTarget(GaussianMarginal(1.3)), gauss),
        ]
        for ty, closed in closed_forms:
            assert ty.fQ_upper(t) == pytest.approx(closed, rel=1e-13)
        # alpha log Q_X of a Pareto(3) X is unit exponential above u0 = 1/2, so f_Y Q_Y(1 - t) = t;
        # the linear body below u0 keeps the value 1/2 it has at the splice point
        log_target = LogParetoTarget(ParetoMarginal(3.0))
        assert log_target.fQ_upper(t) == pytest.approx(t, rel=1e-13)
        assert log_target.fQ_upper(0.75) == pytest.approx(0.5, rel=1e-13)


class TestMakeBundle:
    def test_consistent_bundle(self):
        cm = build_coefficient_model(0.8, tol=0.01)
        mx = GaussianMarginal(math.sqrt(cm.total_square_sum))
        ty = ExponentialTarget()
        b = make_bundle(mx, ty, cm.c, 1.0, 0.8, CONST1, 2**12, 0.9)
        assert b.case is MdaCase.CASE4
        assert b.k_n == math.ceil((2**12) ** 0.9)
        assert b.p == select_p(0.8) == 1
        assert b.sigma_n1 == pytest.approx(sigma_n1_exact(cm.c, 1.0, 2**12), rel=1e-12)
        assert b.mu_n == pytest.approx(centering(ty, 2**12, b.k_n), rel=1e-12)
        assert b.A_n > 0 and b.d_np > 0

    def test_infeasible_xi_rejected(self):
        cm = build_coefficient_model(0.8, tol=0.01)
        mx = GaussianMarginal(math.sqrt(cm.total_square_sum))
        with pytest.raises(InfeasibleConfigError):
            make_bundle(mx, ExponentialTarget(), cm.c, 1.0, 0.8, CONST1, 2**12, 0.75)

    def test_feasibility_can_be_relaxed(self):
        cm = build_coefficient_model(0.8, tol=0.01)
        mx = ParetoMarginal(4.0)
        b = make_bundle(mx, ExponentialTarget(), cm.c, 1.0, 0.8, CONST1, 10**4, 0.5, check_feasible=False)
        assert b.k_n == 100
        assert b.A_n == pytest.approx(A_N_CASE2_REF, rel=1e-12)
