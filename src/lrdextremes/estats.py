"""Order-statistic functionals and empirical-process machinery.

Holds the extreme and trimmed sums, the uniform empirical and quantile
processes, the multilinear forms entering the reduction principle, the
normalized extreme-sum statistic Z_n, and its exact three-term split into
the driving integral I1 and the two asymptotically negligible remainders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, NumericError, StateError
from .model import CLAMP_EPS, EmpiricalMarginal, MarginalX, TargetMarginalY
from .scaling import ScalingBundle
from .simulate import FilterPlan, PathPair

# highest order of the multilinear forms, and so of the reduction supremum (a cost guard)
MAX_REDUCTION_ORDER = 4

# grid used for the smooth part of the reduction supremum
TAIL_GRID_SIZE = 512
TAIL_GRID_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class ProcessFrame:
    """Sorted view of one path with its uniform transform precomputed.

    ``u_sorted`` holds the order statistics of U_i = F(X_i); it is only
    meaningful when the X marginal is analytic (a fitted marginal would
    feed its own estimation error back into the process).
    """

    x_sorted: np.ndarray = field(repr=False)
    u_sorted: np.ndarray = field(repr=False)
    y_sorted: np.ndarray = field(repr=False)
    n: int
    sigma_n1: float
    mx: MarginalX = field(repr=False)
    ty: TargetMarginalY = field(repr=False)
    analytic: bool = True

    @classmethod
    def from_path(cls, path, mx: MarginalX, ty: TargetMarginalY, sigma_n1: float) -> "ProcessFrame":
        x = path.x if isinstance(path, PathPair) else np.asarray(path, dtype=float)
        xs = np.sort(x)
        u = np.clip(np.asarray(mx.F(xs), dtype=float), CLAMP_EPS, 1.0 - CLAMP_EPS)
        ys = np.asarray(ty.Q(u), dtype=float)
        return cls(
            x_sorted=xs,
            u_sorted=u,
            y_sorted=ys,
            n=len(xs),
            sigma_n1=float(sigma_n1),
            mx=mx,
            ty=ty,
            analytic=not isinstance(mx, EmpiricalMarginal),
        )

    def E_n(self, y):
        """Uniform empirical CDF at y."""
        return np.searchsorted(self.u_sorted, y, side="right") / self.n

    def u_order(self, k: int) -> float:
        """Order statistic U_{k:n}, 1-indexed."""
        if not 1 <= k <= self.n:
            raise DomainError(f"order statistic index {k} out of range")
        return float(self.u_sorted[k - 1])


def top_k_sum(sample, k: int) -> float:
    """Sum of the k largest entries via partial selection.

    The selected block is summed in sorted order, so the result is exactly
    invariant under permutations of the input.
    """
    arr = np.asarray(sample, dtype=float)
    n = arr.size
    if not 1 <= k <= n:
        raise DomainError(f"k = {k} must lie in [1, n = {n}]")
    block = arr if k == n else np.partition(arr, n - k)[n - k :]
    return float(np.sum(np.sort(block)))


def trimmed_sum(sample, m: int, k: int) -> float:
    """Trimmed sum of order statistics X_{m+1:n} + ... + X_{n-k:n}.

    Evaluated both directly and as the quantile stair integral
    n * int_{m/n}^{1-k/n} Q_n(y) dy; the two must agree to 1e-10.
    """
    arr = np.asarray(sample, dtype=float)
    n = arr.size
    if m < 0 or k < 0 or m + k >= n:
        raise DomainError(f"need m, k >= 0 and m + k < n (got m={m}, k={k}, n={n})")
    srt = np.sort(arr)
    direct = float(np.sum(srt[m : n - k]))
    # stair integral: Q_n is constant srt[i-1] on ((i-1)/n, i/n], and the
    # trimming bounds sit on the same 1/n lattice, so the intersections are
    # exact in integer units of 1/n
    i = np.arange(1, n + 1)
    units = np.clip(np.minimum(i, n - k) - np.maximum(i - 1, m), 0, None)
    integral = float(np.dot(units.astype(float), srt))
    scale = max(abs(direct), abs(integral), 1.0)
    if abs(direct - integral) > 1e-10 * scale:
        raise NumericError(f"trimmed-sum representations disagree: {direct} vs {integral}")
    return direct


def alpha_n(frame: ProcessFrame, y: float) -> float:
    """Uniform empirical process sigma_{n,1}^-1 * n * (E_n(y) - y)."""
    if not frame.analytic:
        raise StateError("empirical-marginal frames do not carry a valid uniform transform")
    if not 0.0 < y < 1.0:
        raise DomainError("y must lie in (0, 1)")
    return float(frame.n * (frame.E_n(y) - y) / frame.sigma_n1)


def quantile_process(frame: ProcessFrame, y: float) -> float:
    """General quantile process sigma_{n,1}^-1 * n * (Q(y) - Q_n(y)).

    Q_n is the left-continuous sample quantile, Q_n(y) = X_{k:n} on
    ((k-1)/n, k/n].
    """
    if not 0.0 < y < 1.0:
        raise DomainError("y must lie in (0, 1)")
    k = int(math.ceil(frame.n * y))
    k = min(max(k, 1), frame.n)
    return float(frame.n * (frame.mx.Q(y) - frame.x_sorted[k - 1]) / frame.sigma_n1)


def hh_partial_sum_sup(frame: ProcessFrame, y0: float = 0.25, y1: float = 0.75) -> float:
    """sup over [y0, y1] of |q_n(y) + sigma_{n,1}^-1 * sum_i X_i|.

    The quantile-process approximation by partial sums predicts this
    supremum vanishes in probability on interior intervals.  Q_n is
    piecewise constant and Q is increasing, so the supremum is attained at
    segment endpoints; the evaluation is exact.
    """
    if not 0.0 < y0 < y1 < 1.0:
        raise DomainError("need 0 < y0 < y1 < 1")
    n = frame.n
    shift = float(np.sum(frame.x_sorted)) / frame.sigma_n1
    k_lo = int(math.ceil(n * y0))
    k_hi = int(math.ceil(n * y1))
    ks = np.arange(k_lo, k_hi + 1)
    lefts = np.maximum((ks - 1) / n, y0) + 1e-300  # just inside the half-open segment
    rights = np.minimum(ks / n, y1)
    qn = frame.x_sorted[ks - 1]
    vals_left = n * (frame.mx.Q(lefts) - qn) / frame.sigma_n1 + shift
    vals_right = n * (frame.mx.Q(rights) - qn) / frame.sigma_n1 + shift
    return float(max(np.max(np.abs(vals_left)), np.max(np.abs(vals_right))))


def multilinear_sums(plan: FilterPlan, eps, p: int, x=None) -> list[float]:
    """Y_{n,1..p} of one innovation vector, from the plan's cached filter spectra.

    The power-sum paths p_m[i] = sum_k (c_k eps_{i-k})^m cost one rfft and
    one irfft each; ``x``, when given, is p_1 = ``plan.apply(eps)``, the
    path already computed.  Newton's identities e_m = (1/m) sum_{j=1}^m
    (-1)^(j-1) e_{m-j} p_j assemble the elementary symmetric polynomials.
    """
    if p == 0:
        return []
    power_sums = [plan.apply(eps) if x is None else x] + [plan.apply(eps, m) for m in range(2, p + 1)]
    e = [np.ones_like(power_sums[0]), power_sums[0]]
    for m in range(2, p + 1):
        acc = np.zeros_like(power_sums[0])
        for j in range(1, m + 1):
            acc += (-1.0) ** (j - 1) * e[m - j] * power_sums[j - 1]
        e.append(acc / m)
    return [float(np.sum(v)) for v in e[1:]]


def multilinear_Y(eps, c, r: int) -> float:
    """Multilinear form Y_{n,r} over strictly increasing filter indices.

    Y_{n,r} = sum_{i=1}^n e_r(c_0 eps_i, c_1 eps_{i-1}, ..., c_M eps_{i-M})
    with e_r the elementary symmetric polynomial; r = 1 recovers the plain
    partial sum of the path.  Power sums are FFT convolutions and Newton's
    identities assemble e_r, O(r (n + M) log(n + M)).
    """
    if not 1 <= r <= MAX_REDUCTION_ORDER:
        raise StateError(f"order r = {r} unsupported (cost guard allows 1 <= r <= {MAX_REDUCTION_ORDER})")
    eps = np.asarray(eps, dtype=float)
    c = np.asarray(c, dtype=float)
    return multilinear_sums(FilterPlan.build(c, len(eps) - (len(c) - 1), r), eps, r)[r - 1]


class ReductionSupResult(NamedTuple):
    value: float
    grid_size: int


@dataclass(frozen=True, eq=False)
class TailGrid:
    """Quantile-spaced grid for the smooth part of the reduction supremum.

    Holds the points and F, F^(1..p) at them; they depend only on the X
    marginal and p, so a replicate study computes them once.
    """

    points: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    derivs: tuple = field(repr=False)

    @classmethod
    def build(cls, mx: MarginalX, p: int) -> "TailGrid":
        pts = np.asarray(mx.Q(np.linspace(TAIL_GRID_EPS, 1.0 - TAIL_GRID_EPS, TAIL_GRID_SIZE)), dtype=float)
        derivs = tuple(np.asarray(mx.F_deriv(r, pts), dtype=float) for r in range(1, p + 1))
        return cls(points=pts, F=np.asarray(mx.F(pts), dtype=float), derivs=derivs)


def reduction_sup_sorted(xs, y, tail: TailGrid, mx: MarginalX, sigma_n1: float) -> ReductionSupResult:
    """``reduction_sup`` of a sorted sample ``xs`` given Y_{n,1..p} in ``y``.

    The empirical term is evaluated at the sample points, their left limits
    and the midpoints, with counts read off the ranks of the sort: i + 1
    (right) and i (left) at sample point i, i + 1 at midpoint i.  Only the
    tail grid is searched.  Ties need no exact counts: at a value v held by
    xs[a..b-1] the ranks give counts between a and b, the first copy's left
    count is a and the last copy's right count is b, and the remainder is
    monotone in the count, so the supremum is the one exact counts give (a
    midpoint that rounds onto a neighbour is covered the same way).
    """
    n = xs.size
    mids = 0.5 * (xs[:-1] + xs[1:])
    pts = np.concatenate([xs, mids])
    nF = n * np.asarray(mx.F(pts), dtype=float)
    nF_t = n * tail.F
    smooth, smooth_t = np.zeros_like(nF), np.zeros_like(nF_t)
    for r, y_r in enumerate(y, start=1):
        smooth += (-1.0) ** (r - 1) * np.asarray(mx.F_deriv(r, pts), dtype=float) * y_r
        smooth_t += (-1.0) ** (r - 1) * tail.derivs[r - 1] * y_r
    right = np.arange(1.0, n + 1.0)
    parts = (
        (np.concatenate([right, right[:-1]]) - nF) + smooth,
        (right - 1.0 - nF[:n]) + smooth[:n],  # a midpoint's left count equals its right count
        (np.searchsorted(xs, tail.points, side="right") - nF_t) + smooth_t,
        (np.searchsorted(xs, tail.points, side="left") - nF_t) + smooth_t,
    )
    sup = float(np.max([np.max(np.abs(v)) for v in parts]))
    return ReductionSupResult(value=sup / sigma_n1, grid_size=pts.size + tail.points.size)


def reduction_sup(x, eps, c, p: int, mx: MarginalX, sigma_n1: float) -> ReductionSupResult:
    """Normalized supremum of the reduction-principle remainder.

    S_{n,p}(t) = sum_i (1_{X_i <= t} - F(t)) + sum_{r=1}^p (-1)^(r-1) F^(r)(t) Y_{n,r},
    maximized over the exact jump set of the empirical term (sample points
    and their left limits), the midpoints between consecutive samples, and
    a 512-point quantile-spaced tail grid for the smooth correction.
    """
    if isinstance(mx, EmpiricalMarginal):
        raise StateError("reduction diagnostics need analytic derivatives of F")
    if not 0 <= p <= MAX_REDUCTION_ORDER:
        raise DomainError(f"supported correction orders are 0 <= p <= {MAX_REDUCTION_ORDER}")
    x = np.asarray(x, dtype=float)
    y = []
    if p > 0:
        eps = np.asarray(eps, dtype=float)
        c = np.asarray(c, dtype=float)
        y = multilinear_sums(FilterPlan.build(c, len(eps) - (len(c) - 1), p), eps, p)
    return reduction_sup_sorted(np.sort(x), y, TailGrid.build(mx, p), mx, sigma_n1)


def z_statistic(y, bundle: ScalingBundle) -> float:
    """Normalized extreme sum A_n sigma_{n,1}^-1 (top k_n sum - mu_n)."""
    if isinstance(y, PathPair):
        if bundle.spec_hash and y.spec_hash and y.spec_hash != bundle.spec_hash:
            raise ConfigError("path was generated under a different configuration than the bundle")
        arr = y.y
    else:
        arr = np.asarray(y, dtype=float)
    if arr.size != bundle.n:
        raise ConfigError(f"sample length {arr.size} does not match bundle n = {bundle.n}")
    return bundle.A_n / bundle.sigma_n1 * (top_k_sum(arr, bundle.k_n) - bundle.mu_n)


@dataclass(frozen=True)
class Decomposition:
    """Three-term split of Z_n; i3 is defined as the residual z - i1 - i2."""

    i1: float
    i2: float
    i3: float
    z: float


def _stieltjes_y_minus_en(frame: ProcessFrame, lo: float, hi: float, i_lo: int) -> float:
    """int_(lo,hi] (y - E_n(y)) dQ_Y(y), exactly, given E_n(lo) = i_lo/n.

    Between consecutive jumps of E_n the integrand is affine in y, so each
    segment contributes (b - e) Q_Y(b) - (a - e) Q_Y(a) - int_a^b Q_Y.
    """
    ty = frame.ty
    us = frame.u_sorted
    n = frame.n
    i_hi = np.searchsorted(us, hi, side="right")
    pts = np.concatenate([[lo], us[i_lo:i_hi], [hi]])
    evals = (i_lo + np.arange(len(pts) - 1)) / n
    a, b = pts[:-1], pts[1:]
    qa = np.asarray(ty.Q(a), dtype=float)
    qb = np.asarray(ty.Q(b), dtype=float)
    cq = np.asarray(ty.cum_Q(pts), dtype=float)
    anti = np.diff(cq)
    return float(np.sum((b - evals) * qb - (a - evals) * qa - anti))


def decompose_I(frame: ProcessFrame, bundle: ScalingBundle) -> Decomposition:
    """Exact Stieltjes evaluation of the decomposition Z_n = I1 + I2 + I3.

    I1 = -A_n int_(1-k_n/n, 1-1/n] alpha_n(y) dQ_Y(y) drives the normal
    limit; I2 covers (1-1/n, 1] where the final segment uses the boundary
    limit (y-1) Q_Y(y) -> 0; I3 is the residual (its direct integral form
    is ``i3_direct``).
    """
    if not frame.analytic:
        raise StateError("decomposition requires an analytic X marginal")
    if bundle.k_n < 2:
        raise DomainError("k_n must be >= 2 for a nondegenerate integration range")
    if frame.n != bundle.n:
        raise ConfigError(f"frame size {frame.n} does not match bundle n = {bundle.n}")
    n, k_n = frame.n, bundle.k_n
    ty = frame.ty
    us = frame.u_sorted
    scale = bundle.A_n / bundle.sigma_n1 * n

    lo, hi = 1.0 - k_n / n, 1.0 - 1.0 / n
    i_lo = int(np.searchsorted(us, lo, side="right"))
    i1 = scale * _stieltjes_y_minus_en(frame, lo, hi, i_lo)

    # (1-1/n, 1]: proper segments up to the largest U, then the limit piece
    i_hi = int(np.searchsorted(us, hi, side="right"))
    last = max(hi, float(us[-1]))
    body = _stieltjes_y_minus_en(frame, hi, last, i_hi)
    tail = -(last - 1.0) * float(ty.Q(last)) - ty.integral_Q(last, 1.0)
    i2 = scale * (body + tail)

    z = bundle.A_n / bundle.sigma_n1 * (float(np.sum(frame.y_sorted[n - k_n :])) - bundle.mu_n)
    return Decomposition(i1=i1, i2=i2, i3=z - i1 - i2, z=z)


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


def u_ratio(frame: ProcessFrame, k_n: int) -> float:
    """Diagnostic ratio U_{n-k_n:n} / (1 - k_n/n); tends to 1 in probability."""
    if not 1 <= k_n < frame.n:
        raise DomainError("need 1 <= k_n < n")
    return frame.u_order(frame.n - k_n) / (1.0 - k_n / frame.n)


def tail_alpha_sup(frame: ProcessFrame, k_n: int) -> float:
    """sup over (1 - k_n/n, 1) of |alpha_n|, evaluated on the jump grid."""
    if not frame.analytic:
        raise StateError("empirical-marginal frames do not carry a valid uniform transform")
    if not 1 <= k_n < frame.n:
        raise DomainError("need 1 <= k_n < n")
    n = frame.n
    lo = 1.0 - k_n / n
    us = frame.u_sorted
    i_lo = int(np.searchsorted(us, lo, side="right"))
    pts = np.concatenate([[lo], us[i_lo:], [1.0]])
    evals = (i_lo + np.arange(len(pts) - 1)) / n
    # on each segment (a, b] the integrand e - y is monotone in y
    a, b = pts[:-1], pts[1:]
    dev = np.maximum(np.abs(evals - a), np.abs(evals - b))
    return float(n * np.max(dev) / frame.sigma_n1)
