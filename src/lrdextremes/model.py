"""Declarative model pieces: coefficients, innovations, marginals, MDA cases.

Marginal distributions expose F, its derivatives F^(1..p) (``F_derivs``)
and Q together with their maximum-domain-of-attraction tag and one slowly
varying function ``L``, the part of the tail that the normalizing constant
A_n reads: L2 in ``f(Q(1-y)) ~ y^(1+1/alpha) L2(1/y)`` for a Frechet tag,
L3 in the von Mises form ``f(Q(1-y)) ~ y L3(1/y)`` for a Gumbel tag, with
f = F^(1).  The density-quantile exists only in upper-tail form,
``fQ_upper(t) = f(Q(1 - t))``, beside ``Q_upper(t) = Q(1 - t)``: both take
the tail probability t itself, since 1 - t keeps only t's leading digits,
and none below t = 2^-54, where it rounds to 1.  All types are immutable
after construction and safe to share between processes.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import erfcx, ndtr, ndtri

from .errors import ClampWarning, DomainError

_SQRT2PI = math.sqrt(2.0 * math.pi)

# points per chunk of the cap-sized set-up arrays (coefficients here, window
# sums in ``simulate``) and per block of ``simulate``'s top-power sum, 512 KB,
# so the working arrays stay in cache
_CHUNK_POINTS = 2**16

# probabilities are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before applying
# quantile functions, so float saturation of F never produces infinities
CLAMP_EPS = 1e-15

_clamp_events = 0


def clamp_events() -> int:
    """Number of probability clamps recorded in this process so far."""
    return _clamp_events


def reset_clamp_events() -> None:
    global _clamp_events
    _clamp_events = 0


def _record_clamps(count: int) -> None:
    global _clamp_events
    if count:
        _clamp_events += int(count)
        warnings.warn(
            f"clamped {count} probability value(s) at the quantile-domain boundary",
            ClampWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# QUADPACK's qk21 rule on [-1, 1] (Piessens et al. 1983): the 21 Kronrod nodes
# from 0 outwards with their weights, and the weights of the 10-point Gauss
# rule, whose nodes are every second Kronrod node
_QK21_X = np.array([
    0.0, 0.148874338981631210884826001129720, 0.294392862701460198131126603103866,
    0.433395394129247190799265943165784, 0.562757134668604683339000099272694,
    0.679409568299024406234327365114874, 0.780817726586416897063717578345042,
    0.865063366688984510732096688423493, 0.930157491355708226001207180059508,
    0.973906528517171720077964012084452, 0.995657163025808080735527280689003,
])
_QK21_WK = np.array([
    0.149445554002916905664936468389821, 0.147739104901338491374841515972068,
    0.142775938577060080797094273138717, 0.134709217311473325928054001771707,
    0.123491976262065851077500010025785, 0.109387158802297641899210590325805,
    0.093125454583697605535065465083366, 0.075039674810919952767043140916190,
    0.054755896574351996031381300244580, 0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
])
_QK21_WG = np.array([
    0.0, 0.295524224714752870173892994651338, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.066671344308688137593568809893332, 0.0,
])
# the same, mirrored onto the 21 nodes in ascending order
_QK21_NODES = np.concatenate((-_QK21_X[:0:-1], _QK21_X))
_QK21_KRONROD = np.concatenate((_QK21_WK[:0:-1], _QK21_WK))
_QK21_GAUSS = np.concatenate((_QK21_WG[:0:-1], _QK21_WG))
# QUADPACK's floor on an interval's error estimate, per unit of int |f| there
_QK21_FLOOR = 50.0 * np.finfo(float).eps

# a refining round cuts an interval into this many equal parts, unless it is
# narrower than _GK_MIN_WIDTH of its magnitude: the outermost node of a part
# lies 2.7e-4 of the interval's width inside it, so 2^-38 keeps it 4 ulps
# from the part's ends, and never on a or b
_GK_PARTS = 8
_GK_STEPS = np.arange(_GK_PARTS + 1) / _GK_PARTS
_GK_MIN_WIDTH = 2.0**-38


def _qk21(fn, lo, hi):
    """QUADPACK's qk21 value and error estimate on each interval [lo[i], hi[i]], with one call of fn."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _QK21_NODES
    f = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    fk = f * _QK21_KRONROD
    resk = fk.sum(axis=1)
    resg = (f * _QK21_GAUSS).sum(axis=1)
    resabs = half * np.abs(fk).sum(axis=1)
    resasc = half * (np.abs(f - 0.5 * resk[:, None]) * _QK21_KRONROD).sum(axis=1)
    err = half * np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc != 0.0, scaled, err)
    return half * resk, np.maximum(err, _QK21_FLOOR * resabs)


def _gauss_kronrod(fn, a: float, b: float, *, epsabs: float, epsrel: float, limit: int, points=None):
    """int_a^b fn(x) dx, a <= b, by adaptive Gauss-Kronrod quadrature: (value, error estimate).

    Called and answering like SciPy's QUADPACK ``quad``: the one-group case
    of ``_gauss_kronrod_groups``, with the breakpoints ``points`` splitting
    the first partition.  fn never sees a, b or a breakpoint.
    """
    (value,), (error,) = _gauss_kronrod_groups(fn, [[a, *(points or ()), b]], epsabs=epsabs, epsrel=epsrel, limit=limit)
    return value, error


def _gauss_kronrod_groups(fn, edges, *, epsabs: float, epsrel: float, limit: int):
    """Adaptive Gauss-Kronrod quadrature of several groups of intervals in lockstep: (values, errors), lists.

    Group g integrates fn over [edges[g][0], edges[g][-1]], its inner edges
    splitting its first partition, with QUADPACK's qk21 rule and error
    estimate on each interval.  ``fn`` takes a 1-d array of nodes and
    returns its values there; the nodes are interior to each interval, so
    fn never sees an edge.  In each round every unfinished group cuts each
    of its intervals whose error exceeds an equal share of its tolerance
    (the tolerance over its number of intervals) into _GK_PARTS equal
    parts, the largest errors first while it stays within ``limit``
    intervals; the new nodes of all groups go through one call of fn.  A
    share in proportion to width would not do: next to an endpoint
    singularity the rounding floor of a narrow interval's error exceeds it,
    and every such interval would be cut until the limit.  A group finishes
    when its summed error is at most max(epsabs, epsrel |value|), when its
    value is not finite, or when none of its intervals can be cut; the
    error it returns then exceeds the tolerance.  The others go on.

    Each group's value and error are those it gets alone: it keeps its
    intervals in the order a lone run does, kept ones first and then the
    parts of each cut, and sums them by itself.  One sum across groups
    (np.add.reduceat) would add in another order and round differently.
    """
    todo = []  # per unfinished group: its id, the (lo, hi, val, err) it keeps, and the (lo, hi) it adds
    for g, e in enumerate(edges):
        e = np.asarray(e, dtype=float)
        todo.append((g, (e[:0],) * 4, (e[:-1], e[1:])))
    values, errors = [0.0] * len(todo), [0.0] * len(todo)
    while todo:
        # one call of fn for the new intervals of every unfinished group
        new_val, new_err = _qk21(fn, np.concatenate([t[2][0] for t in todo]), np.concatenate([t[2][1] for t in todo]))
        refined, stop = [], 0
        for g, kept, (new_lo, new_hi) in todo:
            start, stop = stop, stop + new_lo.size
            lo, hi = np.concatenate((kept[0], new_lo)), np.concatenate((kept[1], new_hi))
            val, err = np.concatenate((kept[2], new_val[start:stop])), np.concatenate((kept[3], new_err[start:stop]))
            value, error = float(val.sum()), float(err.sum())
            values[g], errors[g] = value, error
            tol = max(epsabs, epsrel * abs(value))
            if not error > tol:  # a non-finite value ends here too
                continue
            width = hi - lo
            over = (err * lo.size > tol) & (width > _GK_MIN_WIDTH * np.maximum(np.abs(lo), np.abs(hi)))
            cut = over.nonzero()[0]
            room = max(0, (limit - lo.size) // (_GK_PARTS - 1))
            if cut.size > room:
                cut = cut[np.argsort(err[cut])[cut.size - room :]]
            if not cut.size:
                continue
            grid = lo[cut, None] + width[cut, None] * _GK_STEPS
            grid[:, -1] = hi[cut]
            keep = np.ones(lo.size, dtype=bool)
            keep[cut] = False
            refined.append((g, (lo[keep], hi[keep], val[keep], err[keep]), (grid[:, :-1].ravel(), grid[:, 1:].ravel())))
        todo = refined
    return values, errors


# ---------------------------------------------------------------------------
# slowly varying functions
# ---------------------------------------------------------------------------


class SlowlyVaryingFn:
    """A slowly varying function L on (1, inf): L(t*u)/L(u) -> 1 for fixed t."""

    def _eval(self, u):
        raise NotImplementedError

    def __call__(self, u):
        return sv_eval(self, u)


@dataclass(frozen=True)
class SvConstant(SlowlyVaryingFn):
    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise DomainError(f"constant slowly varying part must be positive, got {self.c}")

    def _eval(self, u):
        return np.broadcast_to(np.float64(self.c), np.shape(u)).copy() if np.ndim(u) else self.c


@dataclass(frozen=True)
class SvLogPower(SlowlyVaryingFn):
    """c * (log u)^b for u > e; held constant at c on (1, e] to stay positive."""

    c: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if not self.c > 0:
            raise DomainError(f"log-power scale must be positive, got {self.c}")

    def _eval(self, u):
        lg = np.maximum(np.log(u), 1.0)
        return self.c * lg**self.b


@dataclass(frozen=True)
class SvNumeric(SlowlyVaryingFn):
    """Slowly varying part given as a plain numeric function of u.

    Used for a marginal whose L has no closed form (the Gaussian light
    tail).  ``fn`` must be picklable, i.e. a module-level function or a
    bound method of a picklable object.
    """

    fn: object
    label: str = ""

    def _eval(self, u):
        return self.fn(u)


def sv_eval(L: SlowlyVaryingFn, u) -> float | np.ndarray:
    """Evaluate a slowly varying function at u > 1."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 1.0):
        raise DomainError("slowly varying functions are evaluated on (1, inf)")
    out = L._eval(arr if arr.ndim else float(arr))
    return out if arr.ndim else float(out)


# ---------------------------------------------------------------------------
# innovations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnovationDist:
    """Centered i.i.d. innovation law with finite fourth moment.

    ``student_t`` is rescaled by sqrt((nu-2)/nu) so sigma_eps stays the
    standard deviation in both variants; nu > 4 keeps the fourth moment
    finite.
    """

    kind: str
    sigma_eps: float = 1.0
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "student_t"):
            raise DomainError(f"unknown innovation kind {self.kind!r}")
        if not self.sigma_eps > 0:
            raise DomainError("sigma_eps must be positive")
        if self.kind == "student_t":
            if self.nu is None or not self.nu > 4:
                raise DomainError("student_t innovations require nu > 4 for a finite fourth moment")

    @classmethod
    def gaussian(cls, sigma_eps: float = 1.0) -> "InnovationDist":
        return cls("gaussian", sigma_eps)

    @classmethod
    def student_t(cls, nu: float, sigma_eps: float = 1.0) -> "InnovationDist":
        return cls("student_t", sigma_eps, nu)

    @property
    def variance(self) -> float:
        return self.sigma_eps**2

    def fill(self, out: np.ndarray, rng: np.random.Generator) -> None:
        """Write the next ``out.size`` draws of ``rng`` into ``out``.

        Each draw takes the generator's next values in turn, so filling
        consecutive pieces gives the bytes of one draw of their total length.
        A unit scale is not multiplied in: x * 1.0 is x.
        """
        if self.kind == "gaussian":
            rng.standard_normal(out=out)
            if self.sigma_eps != 1.0:
                out *= self.sigma_eps
        else:
            scale = self.sigma_eps * math.sqrt((self.nu - 2.0) / self.nu)
            np.multiply(rng.standard_t(self.nu, size=out.size), scale, out=out)


# ---------------------------------------------------------------------------
# MDA tags and case classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MdaTag:
    """Maximum domain of attraction: 'frechet' with tail index, or 'gumbel'."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("frechet", "gumbel"):
            raise DomainError(f"unknown MDA kind {self.kind!r}")
        if self.kind == "frechet" and (self.alpha is None or not self.alpha > 0):
            raise DomainError("frechet tag requires a positive tail index")


class MdaCase(enum.Enum):
    """The four combinations of MDA membership for (X, Y)."""

    CASE1 = 1  # X frechet, Y frechet
    CASE2 = 2  # X frechet, Y gumbel
    CASE3 = 3  # X gumbel,  Y frechet
    CASE4 = 4  # X gumbel,  Y gumbel

    @classmethod
    def classify(cls, x_tag: MdaTag, y_tag: MdaTag) -> "MdaCase":
        table = {
            ("frechet", "frechet"): cls.CASE1,
            ("frechet", "gumbel"): cls.CASE2,
            ("gumbel", "frechet"): cls.CASE3,
            ("gumbel", "gumbel"): cls.CASE4,
        }
        return table[(x_tag.kind, y_tag.kind)]


# ---------------------------------------------------------------------------
# marginal distribution of X
# ---------------------------------------------------------------------------


class MarginalX:
    """Interface: cdf F, its derivatives F^(1..p), quantile Q, and the upper-tail forms Q_upper, fQ_upper.

    ``F_derivs`` is the one definition of F^(r); the density f is F^(1).
    ``L`` is the slowly varying part of the tail that A_n reads: L2 for a
    Frechet tag, L3 for a Gumbel tag, None where the marginal has none.
    """

    mda: MdaTag
    L: SlowlyVaryingFn | None

    def F(self, x):
        raise NotImplementedError

    def Q(self, y):
        raise NotImplementedError

    def Q_upper(self, t):
        """Q(1 - t) from the upper-tail probability t."""
        raise NotImplementedError

    def fQ_upper(self, t):
        """f(Q(1 - t)) from the upper-tail probability t."""
        raise NotImplementedError

    def F_derivs(self, p: int, x) -> list:
        """F^(1), ..., F^(p) at x, as arrays the caller may overwrite."""
        raise NotImplementedError

    def F_deriv(self, r: int, x):
        """F^(r) at x: F itself at r = 0, else the last of ``F_derivs(r, x)``."""
        if r < 0:
            raise DomainError("derivative order must be >= 0")
        return self.F(x) if r == 0 else self.F_derivs(r, x)[-1]

    def turning_gaps(self, xs, y) -> TurningGaps | None:
        """Gaps of the sorted sample ``xs`` on which the reduction remainder may turn.

        ``y`` holds Y_{n,1..p}.  None means that any gap (xs[i], xs[i+1])
        may hold an extremum of S_{n,p} above both its endpoint values, so
        the supremum evaluates every midpoint; a marginal that can bound the
        turning points returns a ``TurningGaps``.
        """
        return None


class TurningGaps(NamedTuple):
    """Gap indices i of (xs[i], xs[i+1]) where S_{n,p} may turn, and the rounding slack of its values.

    ``slack`` bounds, with a wide margin, twice the floating-point error of
    one evaluated value of S_{n,p} (a count minus n F plus the F^(r) terms).
    """

    gaps: np.ndarray
    slack: float


_PROB_OPEN_REFUSAL = "quantile-side argument must lie in the open interval (0, 1)"


def _check_prob_open(y):
    # scalar callers pass Python floats: compare them as they are, no array
    # round trip (the quadrature's nodes come as one array and take the other path)
    if isinstance(y, float):
        if y <= 0.0 or y >= 1.0:
            raise DomainError(_PROB_OPEN_REFUSAL)
        return y
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(_PROB_OPEN_REFUSAL)
    return arr


# |z| beyond which He_r(z), r <= MAX_REDUCTION_ORDER = 4, may overflow while phi(z) underflows to 0
_Z_FINITE = 1e50


def _horner(poly: list, z: float) -> float:
    v = 0.0
    for c in reversed(poly):
        v = v * z + c
    return v


def _widen(gaps, last: int) -> set:
    """The gaps and their neighbours, within 0..last."""
    return {j for g in gaps for j in (g - 1, g, g + 1) if 0 <= j <= last}


def _sign_change_gap(poly: list, xs, s: float, lo: int, hi: int) -> int | None:
    """The gap between samples lo and hi where ``poly`` at z = t/s changes sign, if it does, given it is monotone there."""
    positive_lo = _horner(poly, float(xs[lo]) / s) > 0.0
    if (_horner(poly, float(xs[hi]) / s) > 0.0) == positive_lo:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (_horner(poly, float(xs[mid]) / s) > 0.0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return lo


def _rolle_gaps(poly: list, xs, s: float) -> set:
    """Gaps (xs[i], xs[i+1]) of a sorted sample that may hold a sign change of ``poly`` at z = t/s.

    Rolle's theorem, down the chain of derivatives: the last nonconstant
    derivative is linear, so monotone.  If a derivative changes sign only
    in the gaps found for it, the polynomial one order lower is monotone on
    each run of samples between those gaps (widened by one), and changes
    sign at most once there: where the signs at the run's ends differ,
    bisection over the run's indices finds the gap.  That gap and the run
    breaks are the level's result.  A run costs two evaluations and one per
    halving, so a sample of n points costs O(p^2 log n) scalar evaluations.
    """
    while len(poly) > 1 and poly[-1] == 0.0:
        poly = poly[:-1]
    chain = []
    while len(poly) > 1:
        chain.append(poly)
        poly = [k * poly[k] for k in range(1, len(poly))]
    last, found = len(xs) - 1, set()
    for q in reversed(chain):
        breaks = sorted(_widen(found, last - 1))
        lo = 0
        for b in breaks + [last]:
            gap = _sign_change_gap(q, xs, s, lo, b) if b > lo else None
            if gap is not None:
                found.add(gap)
            lo = b + 1
        found.update(breaks)
    return found


@dataclass(frozen=True)
class GaussianMarginal(MarginalX):
    """Centered Gaussian marginal with total standard deviation s.

    Belongs to the Gumbel domain of attraction.  Its slowly varying tail
    part L (an L3) is defined through the von Mises integral
    ``L(1/y) = (y^-1 * int_{1-y}^1 (1-v)/f(Q(v)) dv)^-1``, which for the
    Gaussian has the closed form s*(phi(z) - z*(1-Phi(z))), z = Phi^-1(1-y).
    """

    s: float = 1.0

    def __post_init__(self):
        if not self.s > 0:
            raise DomainError("standard deviation must be positive")

    @property
    def mda(self) -> MdaTag:
        return MdaTag("gumbel")

    @property
    def L(self) -> SlowlyVaryingFn:
        return SvNumeric(self._L, label="gaussian-L3")

    def F(self, x):
        return ndtr(np.asarray(x, dtype=float) / self.s)

    def Q(self, y):
        return self.s * ndtri(_check_prob_open(y))

    def Q_upper(self, t):
        return -self.s * ndtri(_check_prob_open(t))

    def fQ_upper(self, t):
        # the density is even, so f(Q(1 - t)) = f(-Q(1 - t)) = f(s ndtri(t))
        z = ndtri(_check_prob_open(t))
        return np.exp(-0.5 * z * z) / (_SQRT2PI * self.s)

    def _L(self, u):
        # 1 / (u V(1/u)), with the von Mises integral V(y) = int_{1-y}^1 (1-v)/f(Q(v)) dv
        # exact via the Mills ratio: 1 - z*sqrt(pi/2)*erfcx(z/sqrt(2)) equals 1 - z*(1-Phi(z))/phi(z)
        u = np.asarray(u, dtype=float)
        z = ndtri(1.0 - _check_prob_open(1.0 / u))
        phi = np.exp(-0.5 * z * z) / _SQRT2PI
        bracket = 1.0 - z * math.sqrt(math.pi / 2.0) * erfcx(z / math.sqrt(2.0))
        return 1.0 / (u * (self.s * phi * bracket))

    def F_derivs(self, p: int, x) -> list:
        # F^(r)(t) = phi^(r-1)(z) / s^r at z = t/s, with phi^(m)(z) = (-1)^m He_m(z) phi(z)
        # (probabilists' Hermite He_m), on one z and one phi array for every r
        if p == 0:
            return []
        z = np.asarray(x, dtype=float) / self.s
        # an array even for a scalar x, so the steps below can write into it
        phi = np.asarray(z * -0.5)
        phi *= z
        np.exp(phi, out=phi)
        phi /= _SQRT2PI
        out = [np.divide(phi, self.s, out=phi if p == 1 else None)]
        for m in range(1, p):
            coeffs = np.zeros(m + 1)
            coeffs[m] = 1.0
            d = (-1.0) ** m * np.polynomial.hermite_e.hermeval(z, coeffs)
            d *= phi
            d /= self.s ** (m + 1)
            out.append(d)
        return out

    def turning_gaps(self, xs, y) -> TurningGaps | None:
        """Gaps of the sorted sample ``xs`` on which S_{n,p} may turn, given Y_{n,1..p} in ``y``.

        On (xs[i], xs[i+1]) the count is i + 1 and, with z = t/s and
        F^(r)(t) = (-1)^(r-1) He_{r-1}(z) phi(z) / s^r,

            dS_{n,p}/dt = phi(z)/s * P(z),  P(z) = -n - sum_r He_r(z) Y_{n,r} / s^r,

        a polynomial of degree p or less.  On a gap where P does not change
        sign, S_{n,p} is monotone, so its value at the midpoint lies between
        its right limit at xs[i] and its left limit at xs[i+1], which the
        supremum already holds.  The gaps returned are those that may hold a
        sign change of P (``_rolle_gaps``), widened by one gap on each side
        against rounding in P's signs.  Any other gap's midpoint can exceed
        the larger endpoint magnitude only by the evaluation error of the
        two values, which ``slack`` bounds: F and each F^(r) are evaluated
        to a few ulp, and Cramer's inequality |He_m(z)| exp(-z^2/4) <=
        1.09 sqrt(m!) bounds |F^(r)| by 0.44 sqrt((r-1)!) / s^r, so an
        evaluated S_{n,p} is off by far less than the 1e-9 (n + sum_r
        |Y_{n,r}| sqrt((r-1)!) / s^r) taken.  None (every gap) when a Y_{n,r}
        or an extreme sample is not finite, or so large that He_r(z) phi(z)
        could reach inf * 0: there a midpoint may be NaN where no endpoint is.
        """
        n = len(xs)
        a = [float(y_r) / self.s**r for r, y_r in enumerate(y, start=1)]
        if not (all(map(math.isfinite, a)) and -_Z_FINITE < xs[0] / self.s and xs[-1] / self.s < _Z_FINITE):
            return None
        slack = 1e-9 * (n + sum(abs(a_r) * math.sqrt(math.factorial(r - 1)) for r, a_r in enumerate(a, start=1)))
        # P in the power basis of z
        poly = np.polynomial.hermite_e.herme2poly([-float(n)] + [-a_r for a_r in a]).tolist()
        gaps = _widen(_rolle_gaps(poly, xs, self.s), n - 2)
        return TurningGaps(gaps=np.array(sorted(gaps), dtype=np.intp), slack=slack)


@dataclass(frozen=True)
class ParetoMarginal(MarginalX):
    """Exact Pareto marginal, F(x) = 1 - (x/x_m)^-alpha on [x_m, inf).

    Frechet domain of attraction with the constant L = L2 = alpha/x_m, so
    the tail relations hold exactly rather than asymptotically.  Used for
    the deterministic scaling checks of the heavy-tailed cases.
    """

    alpha: float
    x_m: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError("tail index must be positive")
        if not self.x_m > 0:
            raise DomainError("scale must be positive")

    @property
    def mda(self) -> MdaTag:
        return MdaTag("frechet", self.alpha)

    @property
    def L(self) -> SlowlyVaryingFn:
        return SvConstant(self.alpha / self.x_m)

    def F(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.x_m, 1.0 - (np.maximum(x, self.x_m) / self.x_m) ** -self.alpha, 0.0)

    def Q(self, y):
        y = _check_prob_open(y)
        return self.x_m * (1.0 - y) ** (-1.0 / self.alpha)

    def Q_upper(self, t):
        return self.x_m * _check_prob_open(t) ** (-1.0 / self.alpha)

    def fQ_upper(self, t):
        return (self.alpha / self.x_m) * _check_prob_open(t) ** (1.0 + 1.0 / self.alpha)

    def F_derivs(self, p: int, x) -> list:
        # F^(r)(x) = (-1)^(r-1) alpha (alpha + 1) ... (alpha + r - 1) / x_m^r (x/x_m)^(-alpha-r) on [x_m, inf)
        x = np.asarray(x, dtype=float)
        ratio = np.maximum(x, self.x_m) / self.x_m
        out = []
        for r in range(1, p + 1):
            rising = math.prod(self.alpha + i for i in range(r))
            d = (-1.0) ** (r - 1) * rising / self.x_m**r * ratio ** (-self.alpha - r)
            out.append(np.where(x >= self.x_m, d, 0.0))
        return out


def _marginal_refusal(mx, dist) -> str | None:
    """Why no replicate can run on this X marginal under these innovations, or None when replicates can."""
    if isinstance(mx, ParetoMarginal):
        return (
            "declared Pareto X marginal: no linear process of this model has it "
            "(use 'gaussian' with gaussian innovations, whose X marginal is exact)"
        )
    if isinstance(mx, GaussianMarginal) and dist.kind != "gaussian":
        # at q = 1e-4 under t_5, F_gauss(X) exceeds 1 - q at about 8 q (beta 0.8, n = 2^13)
        return (
            f"Gaussian X marginal under {dist.kind} innovations: a linear process with t_{dist.nu:g} "
            f"innovations has a regularly varying tail of index {dist.nu:g}, so X lies in "
            "the Frechet domain and F(X) is not uniform in the tail "
            f"(there is no exact X marginal for {dist.kind} innovations yet)"
        )
    return None


# ---------------------------------------------------------------------------
# target marginal of Y
# ---------------------------------------------------------------------------


class TargetMarginalY:
    """Quantile-analytic description of the subordination target F_Y.

    ``L`` is the slowly varying part of the tail that A_n reads, as for
    ``MarginalX``.
    """

    mda: MdaTag
    L: SlowlyVaryingFn | None

    def Q(self, u):
        raise NotImplementedError

    def fQ_upper(self, t):
        """Density-quantile f_Y(Q_Y(1 - t)) from the upper-tail probability t."""
        raise NotImplementedError

    def cum_Q(self, u):
        """Vectorized antiderivative P(u) = int_0^u Q_Y(v) dv, in closed form."""
        raise NotImplementedError


@dataclass(frozen=True)
class ParetoTarget(TargetMarginalY):
    """Pareto target with Q_Y(1-y) = y^(-1/alpha0); needs alpha0 > 1 for E Y < inf."""

    alpha0: float

    def __post_init__(self):
        if not self.alpha0 > 1:
            raise DomainError("Pareto target requires alpha0 > 1 so that E Y is finite")

    @property
    def mda(self) -> MdaTag:
        return MdaTag("frechet", self.alpha0)

    @property
    def L(self) -> SlowlyVaryingFn:
        return SvConstant(self.alpha0)

    def Q(self, u):
        return (1.0 - np.asarray(u, dtype=float)) ** (-1.0 / self.alpha0)

    def fQ_upper(self, t):
        # f_Y Q_Y (1-t) = alpha0 * t^(1 + 1/alpha0) exactly
        return self.alpha0 * np.asarray(t, dtype=float) ** (1.0 + 1.0 / self.alpha0)

    def cum_Q(self, u):
        g = 1.0 - 1.0 / self.alpha0
        return (1.0 - (1.0 - np.asarray(u, dtype=float)) ** g) / g


@dataclass(frozen=True)
class ExponentialTarget(TargetMarginalY):
    """Unit exponential target: Q_Y(1-y) = -log y, f_YQ_Y(1-y) = y exactly."""

    @property
    def mda(self) -> MdaTag:
        return MdaTag("gumbel")

    @property
    def L(self) -> SlowlyVaryingFn:
        return SvConstant(1.0)

    def Q(self, u):
        return -np.log1p(-np.asarray(u, dtype=float))

    def fQ_upper(self, t):
        return np.asarray(t, dtype=float)

    def cum_Q(self, u):
        # P(u) = 1 - (1-u)(1 - log(1-u)), with limit 1 at u = 1
        t = 1.0 - np.asarray(u, dtype=float)
        safe = np.where(t > 0.0, t, 1.0)
        return np.where(t > 0.0, 1.0 - safe * (1.0 - np.log(safe)), 1.0)


@dataclass(frozen=True)
class LogParetoTarget(TargetMarginalY):
    """Target of the logarithmic transform of a heavy-tailed X.

    Above u0 the quantile is Q_Y(u) = alpha * log Q_X(u); below u0 the body
    is spliced linearly with matched value and slope, which only fixes the
    irrelevant lower tail.  Requires a Frechet-tagged base with Q_X(u0) > 0.
    """

    base: MarginalX
    u0: float = 0.5

    def __post_init__(self):
        if self.base.mda.kind != "frechet":
            raise DomainError("log transform target requires a Frechet-tagged base marginal")
        if not 0.0 < self.u0 < 1.0:
            raise DomainError("u0 must lie in (0, 1)")
        if not self.base.Q(self.u0) > 0:
            raise DomainError("base quantile must be positive at the splice point u0")

    @property
    def mda(self) -> MdaTag:
        return MdaTag("gumbel")

    @property
    def L(self) -> SlowlyVaryingFn:
        # L3 = L1 L2 / alpha with Q_X(1-y) = y^(-1/alpha) L1(1/y), and
        # L2 = alpha / L1 holds exactly for both Frechet bases of the package
        return SvConstant(1.0)

    def _slope0(self) -> float:
        a = self.base.mda.alpha
        return a / (self.base.fQ_upper(1.0 - self.u0) * self.base.Q(self.u0))

    def Q(self, u):
        u = np.asarray(u, dtype=float)
        a = self.base.mda.alpha
        above = u > self.u0
        q0 = a * math.log(self.base.Q(self.u0))
        upper = a * np.log(self.base.Q(np.where(above, u, self.u0)))
        lower = q0 - self._slope0() * (self.u0 - u)
        out = np.where(above, upper, lower)
        return out if out.ndim else float(out)

    def fQ_upper(self, t):
        t = np.asarray(t, dtype=float)
        above = t < 1.0 - self.u0
        tt = np.where(above, t, 1.0 - self.u0)
        upper = self.base.fQ_upper(tt) * self.base.Q_upper(tt) / self.base.mda.alpha
        out = np.where(above, upper, 1.0 / self._slope0())
        return out if out.ndim else float(out)

    def cum_Q(self, u):
        # the base is Frechet, so a Pareto marginal: Q_Y(v) = alpha*log(x_m) - log(1-v) above u0,
        # a shifted unit exponential quantile
        arr = np.asarray(u, dtype=float)
        a = self.base.mda.alpha
        q0 = a * math.log(self.base.Q(self.u0))
        s0 = self._slope0()
        cshift = a * math.log(self.base.x_m)
        exp = ExponentialTarget()
        below = q0 * arr - s0 * (self.u0 * arr - 0.5 * arr**2)
        p_u0 = q0 * self.u0 - 0.5 * s0 * self.u0**2
        vv = np.maximum(arr, self.u0)
        above = p_u0 + cshift * (vv - self.u0) + exp.cum_Q(vv) - exp.cum_Q(self.u0)
        out = np.where(arr > self.u0, above, below)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class IdentityTarget(TargetMarginalY):
    """F_Y = F_X, so the subordinator G = Q_Y(F(x)) is the identity."""

    mx: MarginalX

    @property
    def mda(self) -> MdaTag:
        return self.mx.mda

    @property
    def L(self):
        return self.mx.L

    def Q(self, u):
        return self.mx.Q(u)

    def fQ_upper(self, t):
        return self.mx.fQ_upper(t)

    def cum_Q(self, u):
        # closed antiderivatives of the two X marginals, Gaussian and Pareto
        arr = np.asarray(u, dtype=float)
        if isinstance(self.mx, GaussianMarginal):
            z = ndtri(np.clip(arr, CLAMP_EPS, 1.0 - CLAMP_EPS))
            out = -self.mx.s * np.exp(-0.5 * z * z) / _SQRT2PI
            return out if out.ndim else float(out)
        a = self.mx.alpha
        if a <= 1:
            raise DomainError("identity target over a Pareto base needs alpha > 1 for E Y < inf")
        g = 1.0 - 1.0 / a
        out = self.mx.x_m * (1.0 - (1.0 - arr) ** g) / g
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# coefficient model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoefficientModel:
    """Truncated regularly varying coefficients c_k = k^-beta L0(k), c_0 = 1."""

    beta: float
    L0: SlowlyVaryingFn
    M: int
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0.5 < self.beta < 1.0:
            raise DomainError("beta must lie in (1/2, 1)")
        if self.M < 0:
            raise DomainError("truncation length must be >= 0")
        if len(self.c) != self.M + 1:
            raise DomainError("coefficient vector must have length M + 1")

    @classmethod
    def build(cls, beta: float, L0: SlowlyVaryingFn, M: int) -> "CoefficientModel":
        """c_1..c_M written chunk by chunk into the one array that is kept.

        Each chunk of ``_CHUNK_POINTS`` coefficients writes k^-beta straight
        into c and multiplies it by L0(k) in place, exactly as one pass over
        1..M would; a constant L0 multiplies by its scalar, the same product
        as by an array of it.  The chunk's k is one float arange plus its
        offset, exact below 2^53, so the only other arrays are that arange, k
        and L0(k) (none for a constant L0), one chunk each.
        """
        c = np.empty(M + 1)
        c[0] = 1.0
        steps = np.arange(min(_CHUNK_POINTS, M), dtype=float)
        k = np.empty_like(steps)
        for lo in range(1, M + 1, _CHUNK_POINTS):
            size = min(_CHUNK_POINTS, M + 1 - lo)
            ks, out = k[:size], c[lo : lo + size]
            np.add(steps[:size], lo, out=ks)
            np.power(ks, -beta, out=out)
            # L0 applied on [1, inf); the log-power variant is constant below e
            out *= L0.c if isinstance(L0, SvConstant) else L0._eval(ks)
        return cls(beta, L0, M, c)

    @property
    def total_square_sum(self) -> float:
        return float(_square_sum(self.c))


def _pairwise_sum(size: int, leaf_sums) -> np.float64:
    """The np.sum of ``size`` terms from the sums of its leaves, with the bytes of one np.sum over them all.

    numpy sums a contiguous array pairwise: it halves a length m above 128
    at m // 2 rounded down to a multiple of 8.  Splitting range(size) the
    same way down to leaves of at most ``_CHUNK_POINTS`` gives the leaves
    (lo, hi), in order; ``leaf_sums(leaves)`` returns the np.sum of each
    leaf's terms, and they are added back up the same tree.
    """
    leaves = []

    def split(lo: int, hi: int):
        if hi - lo <= _CHUNK_POINTS:
            leaves.append((lo, hi))
            return len(leaves) - 1
        half = (hi - lo) // 2
        half -= half % 8
        return split(lo, lo + half), split(lo + half, hi)

    tree = split(0, size)
    sums = leaf_sums(leaves)

    def add(node) -> np.float64:
        return sums[node] if isinstance(node, int) else add(node[0]) + add(node[1])

    return add(tree)


def _square_sum(s: np.ndarray) -> np.float64:
    """np.sum(s * s) without the squared copy of s: one leaf of ``_pairwise_sum`` squared at a time."""
    return _pairwise_sum(s.size, lambda leaves: [np.sum(s[lo:hi] * s[lo:hi]) for lo, hi in leaves])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def subordinate(mx: MarginalX, ty: TargetMarginalY, x):
    """G(x) = Q_Y(F(x)), with F(x) clamped away from {0, 1} before Q_Y."""
    scalar = np.ndim(x) == 0
    y = np.atleast_1d(np.asarray(mx.F(x), dtype=float))
    n_clamped = int(np.sum((y < CLAMP_EPS) | (y > 1.0 - CLAMP_EPS)))
    if n_clamped:
        np.clip(y, CLAMP_EPS, 1.0 - CLAMP_EPS, out=y)
        _record_clamps(n_clamped)
    out = np.asarray(ty.Q(y), dtype=float)
    return float(out[0]) if scalar else out
