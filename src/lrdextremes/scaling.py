"""Deterministic scaling constants of the extreme-sum limit theorem.

Everything here is a pure function of the declared model: the reduction
order p, the variance scale sigma_{n,p}, the uniform rate d_{n,p}, the
feasibility threshold for the extreme-count exponent xi, the normalizing
constant A_n with its slowly varying corrections, the Karamata integral
K_n (their product tends to 1), the centering mu_n, and the i.i.d.
baseline scale used for the LRD-vs-iid contrast diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, InfeasibleConfigError, NumericError
from .model import (
    _gauss_kronrod,
    _gauss_kronrod_groups,
    MarginalX,
    MdaCase,
    MdaTag,
    SlowlyVaryingFn,
    TargetMarginalY,
    sv_eval,
)
from .simulate import sigma_n1_exact

# quadrature tolerances: absolute, relative for K_n, relative for the
# power-rank and D_r integrals; and the endpoint split
QUAD_EPSABS = 1e-8
QUAD_EPSREL = 1e-6
PIECES_EPSREL = 1e-8
ENDPOINT_SPLIT = 1e-12

# conventional star labels of the four feasibility conditions on xi
CASE_LABELS = {
    MdaCase.CASE1: "(*)",
    MdaCase.CASE2: "(**)",
    MdaCase.CASE3: "(***)",
    MdaCase.CASE4: "(****)",
}


def select_p(beta: float) -> int:
    """Smallest positive integer p with (p+1)(2*beta - 1) > 1."""
    if not 0.5 < beta < 1.0:
        raise DomainError("beta must lie in (1/2, 1)")
    p = 1
    while (p + 1) * (2.0 * beta - 1.0) <= 1.0:
        p += 1
    return p


def d_np(n: int, p: int, beta: float, L0: SlowlyVaryingFn) -> float:
    """Uniform reduction-principle rate d_{n,p}.

    Branch on (p+1)(2*beta-1) >= 1: the n^-(1-beta) rate with (log n)^(5/2),
    else the n^(-p(beta-1/2)) rate with (log n)^(1/2); both carry the
    (log log n)^(3/4) factor.
    """
    if n < 16:
        raise DomainError("n must be >= 16 so that log log n is positive")
    if p < 1:
        raise DomainError("p must be >= 1")
    ln = math.log(n)
    lln = math.log(ln)
    L0n = sv_eval(L0, float(n))
    if (p + 1) * (2.0 * beta - 1.0) >= 1.0:
        return n ** -(1.0 - beta) / L0n * ln**2.5 * lln**0.75
    return n ** (-p * (beta - 0.5)) * L0n**p * ln**0.5 * lln**0.75


def case_exponent(x_mda: MdaTag, y_mda: MdaTag) -> float:
    """Exponent e = 1 + 1/alpha [X Frechet] - 1/alpha0 [Y Frechet] of the case of (X, Y).

    The only place the four MDA cases differ: A_n grows like (n/k_n)^e and
    the xi threshold divides by e.
    """
    e = 1.0
    if x_mda.kind == "frechet":
        e += 1.0 / x_mda.alpha
    if y_mda.kind == "frechet":
        e -= 1.0 / y_mda.alpha
    return e


def xi_threshold(x_mda: MdaTag, y_mda: MdaTag, beta: float) -> float:
    """Lower bound (beta + 1/alpha [X Frechet]) / e on the extreme-count exponent xi.

    Feasibility (threshold < 1) requires alpha0 > (1-beta)^-1 when only Y
    is Frechet; a Frechet X additionally needs alpha >= 4 because the
    innovations have a finite fourth moment.
    """
    if not 0.5 < beta < 1.0:
        raise DomainError("beta must lie in (1/2, 1)")
    case = MdaCase.classify(x_mda, y_mda)
    x_frechet = x_mda.kind == "frechet"
    if x_frechet and x_mda.alpha < 4:
        raise InfeasibleConfigError(
            f"alpha = {x_mda.alpha} < 4: finite fourth innovation moment forces alpha >= 4 in {case.name}"
        )
    thr = (beta + 1.0 / x_mda.alpha if x_frechet else beta) / case_exponent(x_mda, y_mda)
    if thr >= 1.0:
        raise InfeasibleConfigError(
            f"{case.name} infeasible: xi threshold {thr:.4g} >= 1 "
            f"(needs alpha0 > (1 - beta)^-1 = {1.0 / (1.0 - beta):.4g})"
        )
    return thr


@dataclass(frozen=True)
class Feasibility:
    """Verdict of the xi condition; ``refusal`` is None when xi is admissible."""

    case: MdaCase
    threshold: float | None
    refusal: str | None


def xi_feasibility(x_mda: MdaTag, y_mda: MdaTag, beta: float, xi: float) -> Feasibility:
    """Decide whether xi exceeds the threshold of the case of (X, Y).

    The refusal message cites the case's condition label; a threshold of
    None means no xi in (0, 1) satisfies the condition.
    """
    case = MdaCase.classify(x_mda, y_mda)
    condition = f"{case.name} condition {CASE_LABELS[case]}"
    try:
        thr = xi_threshold(x_mda, y_mda, beta)
    except InfeasibleConfigError as exc:
        return Feasibility(case, None, f"no xi satisfies the {condition}: {exc}")
    if xi <= thr:
        return Feasibility(case, thr, f"xi = {xi} must exceed the {condition} threshold {thr:.6g}")
    return Feasibility(case, thr, None)


def big_A(mx: MarginalX, ty: TargetMarginalY, n: int, k_n: int) -> float:
    """A_n = (n/k_n)^e * e * L_Y(n/k_n) / L_X(n/k_n), e = case_exponent, L the marginal's ``L``."""
    if not 1 <= k_n < n:
        raise DomainError("need 1 <= k_n < n")
    L_X, L_Y = mx.L, ty.L
    if L_X is None or L_Y is None:
        raise ConfigError(f"missing slowly varying components for {MdaCase.classify(mx.mda, ty.mda).name}")
    e = case_exponent(mx.mda, ty.mda)
    u = n / k_n
    return u**e * (e * (sv_eval(L_Y, u) / sv_eval(L_X, u)))


def _density_quantile_ratio(mx: MarginalX, ty: TargetMarginalY):
    """u -> f(Q(1 - u)) / f_Y(Q_Y(1 - u)), the integrand of K_n and of the power-rank integral."""

    def integrand(u):
        return mx.fQ_upper(u) / ty.fQ_upper(u)

    return integrand


def karamata_K(mx: MarginalX, ty: TargetMarginalY, n: int, k_n: int) -> float:
    """K_n = int_{1-k_n/n}^{1-1/n} f(Q(y))/f_Y(Q_Y(y)) dy by adaptive quadrature.

    Evaluated after the substitution u = 1 - y, on the upper-tail forms at
    u itself; endpoint singularities are integrable for every supported
    marginal pair.
    """
    if not 1 <= k_n < n:
        raise DomainError("need 1 <= k_n < n")
    lo, hi = 1.0 / n, k_n / n
    points = None
    if lo < ENDPOINT_SPLIT < hi:
        points = [ENDPOINT_SPLIT]
    val, err = _gauss_kronrod(
        _density_quantile_ratio(mx, ty), lo, hi, epsabs=0.0, epsrel=QUAD_EPSREL, limit=500, points=points
    )
    if not math.isfinite(val) or (val != 0 and err / abs(val) > 100 * QUAD_EPSREL):
        raise NumericError(f"Karamata integral did not converge (value {val}, error {err})")
    return float(val)


def karamata_product(mx: MarginalX, ty: TargetMarginalY, n: int, k_n: int) -> float:
    """A_n * K_n; tends to 1 as k_n and n/k_n grow."""
    return big_A(mx, ty, n, k_n) * karamata_K(mx, ty, n, k_n)


def centering(ty: TargetMarginalY, n: int, k_n: int) -> float:
    """mu_n = n * int_{1-k_n/n}^1 Q_Y(y) dy, a difference of the closed-form antiderivative ``cum_Q``."""
    if not 1 <= k_n <= n:
        raise DomainError("need 1 <= k_n <= n")
    return n * float(ty.cum_Q(1.0) - ty.cum_Q(1.0 - k_n / n))


def iid_scale(n: int, k_n: int, alpha: float) -> float:
    """i.i.d. extreme-sum scale a_n = (n/k_n)^(1/2 - 1/alpha) * n^(-1/2)."""
    if not alpha > 2:
        raise DomainError("alpha must exceed 2")
    if not 1 <= k_n <= n:
        raise DomainError("need 1 <= k_n <= n")
    return (n / k_n) ** (0.5 - 1.0 / alpha) / math.sqrt(n)


def iid_contrast(n: int, k_n: int, alpha: float) -> float:
    """Relative LRD-vs-iid scaling contrast (n/k_n)^(1/2 + 1/alpha).

    Both extreme-sum scales are first normalized by their whole-sum scale
    (sigma_{n,1}^-1 in the LRD case, n^-1/2 in the i.i.d. case); the ratio
    of the normalized scales is (n/k_n) / (n/k_n)^(1/2 - 1/alpha).  Its
    divergence expresses that extremes contribute relatively less under
    long-range dependence.
    """
    if not alpha > 2:
        raise DomainError("alpha must exceed 2")
    return (n / k_n) ** (0.5 + 1.0 / alpha)


def _quad_pieces(fn, edges) -> float:
    """Adaptive quadrature piecewise over [edges[0], edges[-1]].

    Each piece is a group of ``_gauss_kronrod_groups``: integrated to its
    own tolerance, which keeps more digits of the small pieces than one
    group with the edges as breakpoints, and refined in lockstep with the
    others, so a round is one call of fn for all pieces.  The nodes stay
    interior, so integrable endpoint singularities are never evaluated
    directly.  The first non-finite piece, in edge order, raises.
    """
    pieces = [[a, b] for a, b in zip(edges[:-1], edges[1:])]
    values, _ = _gauss_kronrod_groups(fn, pieces, epsabs=QUAD_EPSABS * 1e-4, epsrel=PIECES_EPSREL, limit=1000)
    total = 0.0
    for (a, b), val in zip(pieces, values):
        if not math.isfinite(val):
            raise NumericError(f"integral diverges on ({a}, {b})")
        total += val
    return total


def power_rank_integral(mx: MarginalX, ty: TargetMarginalY) -> float:
    """int_0^1 f(Q(y))/f_Y(Q_Y(y)) dy; nonzero value certifies power rank 1.

    The integrand is taken at the upper-tail probability u = 1 - y itself,
    as in ``check_condition_Dr``: the quadrature refines towards u = 0,
    where 1 - u keeps only u's leading digits.
    """
    val = _quad_pieces(_density_quantile_ratio(mx, ty), [0.0, 1e-6, 0.5, 1.0 - 1e-6, 1.0])
    if not math.isfinite(val):
        raise NumericError("power-rank integrand is not integrable for this configuration")
    return float(val)


def check_condition_Dr(mx: MarginalX, ty: TargetMarginalY, r: int) -> float:
    """D_r = int_{1/2}^1 F^(r)(Q(y))/f_YQ_Y(y) dy for r = 1, ..., p.

    Finite values verify the derivative-weighted integrability hypothesis;
    divergence raises NumericError.  The integrand is taken at the
    upper-tail probability u = 1 - y itself: the quadrature refines towards
    u = 0, where 1 - u rounds to 1 and would lose u's digits.
    """
    if r < 1:
        raise DomainError("r must be >= 1")

    def integrand(u):
        return mx.F_deriv(r, mx.Q_upper(u)) / ty.fQ_upper(u)

    val = _quad_pieces(integrand, [0.0, 1e-6, 0.5])
    if not math.isfinite(val) or abs(val) > 1e12:
        raise NumericError(f"condition integral D_{r} appears divergent (value {val})")
    return float(val)


@dataclass(frozen=True)
class ScalingBundle:
    """All deterministic constants needed to normalize one experiment size.

    It holds no array of the filter's length, so a run's result keeps it
    as it is.
    """

    case: MdaCase
    n: int
    k_n: int
    xi: float
    p: int
    sigma_n1: float
    A_n: float
    d_np: float
    mu_n: float
    spec_hash: str = ""
    feasibility: Feasibility | None = field(default=None, repr=False)

    def __post_init__(self):
        if not 1 <= self.k_n < self.n:
            raise ConfigError(f"k_n = {self.k_n} must lie in [1, n)")
        if not self.A_n > 0 or not self.sigma_n1 > 0:
            raise ConfigError("A_n and sigma_n1 must be positive")


def make_bundle(
    mx: MarginalX,
    ty: TargetMarginalY,
    c: np.ndarray,
    sigma_eps2: float,
    beta: float,
    L0: SlowlyVaryingFn,
    n: int,
    xi: float,
    p: int | None = None,
    spec_hash: str = "",
    check_feasible: bool = True,
    workers: int = 1,
) -> ScalingBundle:
    """Assemble the ScalingBundle for one experiment size.

    With ``check_feasible`` the xi threshold of the case is enforced;
    disable it for purely diagnostic bundles outside the theorem's domain.
    The verdict is kept on the bundle either way.  sigma_{n,1} comes from
    ``sigma_n1_exact``, its one route, on ``workers`` threads, with the
    same bytes at every count; the bundle transforms no taps.
    """
    if not 0.0 < xi < 1.0:
        raise ConfigError(f"xi = {xi} must lie in (0, 1)")
    verdict = xi_feasibility(mx.mda, ty.mda, beta, xi)
    if check_feasible and verdict.refusal is not None:
        raise InfeasibleConfigError(verdict.refusal)
    case = verdict.case
    k_n = int(math.ceil(n**xi))
    if k_n >= n:
        raise ConfigError(f"k_n = ceil(n^xi) = {k_n} must be < n = {n}")
    pp = p if p is not None else select_p(beta)
    return ScalingBundle(
        case=case,
        n=n,
        k_n=k_n,
        xi=xi,
        p=pp,
        sigma_n1=sigma_n1_exact(c, sigma_eps2, n, workers),
        A_n=big_A(mx, ty, n, k_n),
        d_np=d_np(n, pp, beta, L0),
        mu_n=centering(ty, n, k_n),
        spec_hash=spec_hash,
        feasibility=verdict,
    )
