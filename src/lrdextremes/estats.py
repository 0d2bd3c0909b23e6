"""Order-statistic functionals and empirical-process machinery.

Holds the extreme and trimmed sums, the multilinear forms entering the
reduction principle, the normalized extreme-sum statistic Z_n, and its
exact three-term split into the driving integral I1 and the two
asymptotically negligible remainders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .model import CLAMP_EPS, MarginalX, TargetMarginalY, TurningGaps
from .scaling import ScalingBundle
from .simulate import FilterPlan, PathPair, PowerSums, array_source

# highest order of the multilinear forms, and so of the reduction supremum (a cost guard)
MAX_REDUCTION_ORDER = 4

# grid used for the smooth part of the reduction supremum
TAIL_GRID_SIZE = 512
TAIL_GRID_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class ProcessFrame:
    """Sorted view of one path with its uniform transform precomputed.

    ``F_sorted`` holds F(X_{i:n}) as evaluated, and ``u_sorted`` the same
    values clamped to [CLAMP_EPS, 1 - CLAMP_EPS]: the order statistics of
    U_i = F(X_i), with F the exact X marginal (``mc`` refuses one that the
    simulated process does not have).  A replicate evaluates F at the
    sample points here only: the reduction supremum reads ``F_sorted``.
    The frame holds no Y values; ``top_y(k)`` applies Q_Y to the k largest
    order statistics, so a replicate evaluates Q_Y only where Z_n and the
    decomposition read it.
    """

    x_sorted: np.ndarray = field(repr=False)
    F_sorted: np.ndarray = field(repr=False)
    u_sorted: np.ndarray = field(repr=False)
    n: int
    sigma_n1: float
    mx: MarginalX = field(repr=False)
    ty: TargetMarginalY = field(repr=False)
    # always True, as no X marginal is fitted; kept because perfbench/jobs.py reads it
    analytic = True

    @classmethod
    def from_path(cls, x, mx: MarginalX, ty: TargetMarginalY, sigma_n1: float) -> "ProcessFrame":
        xs = np.sort(np.asarray(x, dtype=float))
        F = np.asarray(mx.F(xs), dtype=float)
        return cls(
            x_sorted=xs,
            F_sorted=F,
            u_sorted=np.clip(F, CLAMP_EPS, 1.0 - CLAMP_EPS),
            n=len(xs),
            sigma_n1=float(sigma_n1),
            mx=mx,
            ty=ty,
        )

    def u_order(self, k: int) -> float:
        """Order statistic U_{k:n}, 1-indexed."""
        if not 1 <= k <= self.n:
            raise DomainError(f"order statistic index {k} out of range")
        return float(self.u_sorted[k - 1])

    def top_y(self, k: int) -> np.ndarray:
        """Y_{n-k+1:n}, ..., Y_{n:n} = Q_Y(U_{n-k+1:n}), ..., Q_Y(U_{n:n}), ascending."""
        if not 1 <= k <= self.n:
            raise DomainError(f"k = {k} must lie in [1, n = {self.n}]")
        return np.asarray(self.ty.Q(self.u_sorted[self.n - k :]), dtype=float)


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
    integral = float(np.sum(units * srt))
    scale = max(abs(direct), abs(integral), 1.0)
    if abs(direct - integral) > 1e-10 * scale:
        raise NumericError(f"trimmed-sum representations disagree: {direct} vs {integral}")
    return direct


def multilinear_sums(sums: PowerSums, p: int) -> list[float]:
    """Y_{n,1..p} of one innovation vector, from the pass of a filter plan of order p over it.

    Y_{n,r} = sum_{i=1}^n e_r(c_0 eps_i, c_1 eps_{i-1}, ..., c_M eps_{i-M}),
    with e_r the elementary symmetric polynomial (a sum over strictly
    increasing filter indices); Y_{n,1} is the plain partial sum of the path.

    Newton's identities e_m = (1/m) sum_{j=1}^m (-1)^(j-1) e_{m-j} p_j
    assemble the elementary symmetric polynomials from the power-sum paths
    p_j[i] = sum_k (c_k eps_{i-k})^j.  ``FilterPlan.stream`` gives the paths
    p_j, j < p, as ``sums.paths`` (the first is the path x itself), and the
    top power only through its total ``sums.top_total``, one weighted sum of
    eps**p taken in the same pass, not a path:

        Y_{n,p} = (1/p) [sum_{j<p} (-1)^(j-1) sum_i e_{p-j}[i] p_j[i] + (-1)^(p-1) sum_i p_p[i]].
    """
    if p == 0:
        return []
    if p >= 2 and (sums.top_total is None or len(sums.paths) != p - 1):
        order = len(sums.paths) + 1 if sums.top_total is not None else 1
        raise DomainError(f"the pass of a plan of order {order} gives Y_(n,1..{order}), not Y_(n,{p})")
    x, power_sums = sums.paths[0], sums.paths
    e = [None, x]  # e_0 = 1 enters as the plain power sum
    for m in range(2, p + 1):
        acc = np.zeros_like(x)
        for j in range(1, m):
            acc += (-1.0) ** (j - 1) * e[m - j] * power_sums[j - 1]
        if m < p:
            acc += (-1.0) ** (m - 1) * power_sums[m - 1]
            e.append(acc / m)
    y = [float(np.sum(v)) for v in e[1:]]
    if p >= 2:
        y.append((float(np.sum(acc)) + (-1.0) ** (p - 1) * sums.top_total) / p)
    return y


class ReductionSupResult(NamedTuple):
    """The normalized supremum, and the size of the grid the statistic is defined on.

    ``grid_size`` is 2n - 1 + 512 (sample points, midpoints, tail grid)
    however few of the midpoints the supremum had to evaluate.
    """

    value: float
    grid_size: int


@dataclass(frozen=True, eq=False)
class TailGrid:
    """Quantile-spaced grid for the smooth part of the reduction supremum.

    Holds the points and F, F^(1..p) at them; they depend only on the X
    marginal and p, so a replicate study computes them once, and no
    replicate writes into them.
    """

    points: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    derivs: tuple = field(repr=False)

    @classmethod
    def build(cls, mx: MarginalX, p: int) -> "TailGrid":
        pts = np.asarray(mx.Q(np.linspace(TAIL_GRID_EPS, 1.0 - TAIL_GRID_EPS, TAIL_GRID_SIZE)), dtype=float)
        return cls(points=pts, F=np.asarray(mx.F(pts), dtype=float), derivs=tuple(mx.F_derivs(p, pts)))


def _add_smooth_part(values, derivs, y) -> None:
    """Add sum_r (-1)^(r-1) F^(r)(t) Y_{n,r} to each array of ``values``, given F^(1..p)(t) in ``derivs``.

    The sum is taken in r order, each term rounded once, F^(r) * (+-Y_{n,r}),
    and added as it comes; ``derivs`` is only read.  The first term stands
    for 0 + term: the two differ only at -0.0, and adding either to a value,
    a count minus n F(t) that is never -0.0, gives the same result.  Nothing
    is added when p = 0.
    """
    smooth = None
    for r, (d, y_r) in enumerate(zip(derivs, y), start=1):
        term = d * (y_r if r % 2 else -y_r)
        if smooth is None:
            smooth = term
        else:
            smooth += term
    if smooth is not None:
        for v in values:
            v += smooth


def _extremes(v: np.ndarray) -> tuple:
    return (v.max(), -v.min()) if v.size else ()


def reduction_sup_sorted(xs, F_xs, y, tail: TailGrid, mx: MarginalX, sigma_n1: float) -> ReductionSupResult:
    """``reduction_sup`` of a sorted sample ``xs`` given F(xs) and Y_{n,1..p} in ``y``.

    ``F_xs`` is F at the sample points as the frame evaluated it
    (``ProcessFrame.F_sorted``, unclamped), and each F^(r) is evaluated
    at them once.  The empirical term is evaluated at the sample points and
    their left limits, with counts read off the ranks of the sort: i + 1
    (right) and i (left) at sample point i.  Only the tail grid is
    searched.  Ties need no exact counts: at a value v held by xs[a..b-1]
    the ranks give counts between a and b, the first copy's left count is a
    and the last copy's right count is b, and the remainder is monotone in
    the count, so the supremum is the one exact counts give.

    The midpoint of gap i, with count i + 1, enters the supremum too, but F
    and F^(r) are evaluated there only where its value could raise the
    maximum of the sample-point and tail-grid values.  The marginal's
    ``turning_gaps`` names the gaps on which S_{n,p} may turn; on any other
    gap S_{n,p} is monotone, so the midpoint value lies between the gap's
    two endpoint values (the right limit at xs[i] and the left limit at
    xs[i+1]), up to the evaluation error that its ``slack`` bounds.  So the
    midpoints evaluated are those of the turning gaps and of the gaps whose
    larger endpoint magnitude comes within ``slack`` of that maximum; the
    others cannot exceed it, and the returned value is the one every
    midpoint gives, bit for bit.  A marginal with no rule, or a maximum that
    is not finite, has every midpoint evaluated.  A midpoint that rounds
    onto a neighbour takes that neighbour's count, as ties do.
    """
    n = xs.size
    counts = np.arange(n + 1.0)
    nF = n * np.asarray(F_xs, dtype=float)
    right = np.subtract(counts[1:], nF)
    left = np.subtract(counts[:-1], nF, out=nF)
    _add_smooth_part((right, left), mx.F_derivs(len(y), xs), y)
    nF_t = n * tail.F
    right_t = np.searchsorted(xs, tail.points, side="right") - nF_t
    left_t = np.searchsorted(xs, tail.points, side="left") - nF_t
    _add_smooth_part((right_t, left_t), tail.derivs, y)
    ext = [_extremes(v) for v in (right, left, right_t, left_t)]
    # max |v| = max(max v, -min v); np.max keeps a NaN
    sup = float(np.max([m for pair in ext for m in pair]))
    gaps = _midpoint_gaps(right, left, ext[0], ext[1], sup, mx.turning_gaps(xs, y))
    if gaps.size:
        mids = 0.5 * (xs[gaps] + xs[gaps + 1])
        mid = counts[gaps + 1] - n * np.asarray(mx.F(mids), dtype=float)
        _add_smooth_part((mid,), mx.F_derivs(len(y), mids), y)
        sup = float(np.max([sup, *_extremes(mid)]))
    return ReductionSupResult(value=sup / sigma_n1, grid_size=2 * n - 1 + tail.points.size)


def _midpoint_gaps(right, left, right_ext, left_ext, sup: float, turns: TurningGaps | None) -> np.ndarray:
    """Gaps whose midpoint may raise ``sup``: the turning gaps and those with an endpoint within the slack of it.

    ``right`` and ``left`` are the values at the sample points, ``*_ext``
    their (max, -min); gap i has the endpoint values right[i] and left[i + 1].
    """
    if turns is None or not math.isfinite(sup):
        return np.arange(right.size - 1)
    thr = sup - turns.slack
    near = [turns.gaps]
    # one pass for each side whose extreme reaches thr, none for the others
    for ends, (hi, lo) in ((right[:-1], right_ext), (left[1:], left_ext)):
        if hi >= thr:
            near.append(np.flatnonzero(ends >= thr))
        if lo >= thr:
            near.append(np.flatnonzero(ends <= -thr))
    return np.unique(np.concatenate(near))


def reduction_sup(x, eps, c, p: int, mx: MarginalX, sigma_n1: float) -> ReductionSupResult:
    """Normalized supremum of the reduction-principle remainder.

    S_{n,p}(t) = sum_i (1_{X_i <= t} - F(t)) + sum_{r=1}^p (-1)^(r-1) F^(r)(t) Y_{n,r},
    maximized over the exact jump set of the empirical term (sample points
    and their left limits), the midpoints between consecutive samples, and
    a 512-point quantile-spaced tail grid for the smooth correction.
    """
    if not 0 <= p <= MAX_REDUCTION_ORDER:
        raise DomainError(f"supported correction orders are 0 <= p <= {MAX_REDUCTION_ORDER}")
    x = np.asarray(x, dtype=float)
    y = []
    if p > 0:
        eps = np.asarray(eps, dtype=float)
        c = np.asarray(c, dtype=float)
        plan = FilterPlan.build(c, len(eps) - (len(c) - 1), p)
        y = multilinear_sums(plan.stream(array_source(eps)), p)
    xs = np.sort(x)
    return reduction_sup_sorted(xs, np.asarray(mx.F(xs), dtype=float), y, TailGrid.build(mx, p), mx, sigma_n1)


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


def _frame_z(s: float, bundle: ScalingBundle) -> float:
    """Z_n = A_n sigma_{n,1}^-1 (S - mu_n), from the top k_n sum S."""
    return bundle.A_n / bundle.sigma_n1 * (s - bundle.mu_n)


@dataclass(frozen=True)
class Decomposition:
    """Three-term split of Z_n; i3 is defined as the residual z - i1 - i2.  s is the top k_n sum of Y."""

    i1: float
    i2: float
    i3: float
    z: float
    s: float


def decompose_I(frame: ProcessFrame, bundle: ScalingBundle) -> Decomposition:
    """Closed-form evaluation of the decomposition Z_n = I1 + I2 + I3.

    With alpha_n(y) = sigma_{n,1}^-1 n (E_n(y) - y) the uniform empirical
    process, I1 = -A_n int_(lo, hi] alpha_n(y) dQ_Y(y), lo = 1 - k_n/n and
    hi = 1 - 1/n, drives the normal limit, and I2 is the same integral over
    (hi, 1].  E_n is constant between its jumps, so summation by parts over
    the order statistics gives both in closed form.  With scale =
    A_n sigma_{n,1}^-1 n, i_lo = #{U <= lo}, i_hi = #{U <= hi} and
    q_i = Q_Y(U_{i+1:n}):

        I1 = scale [Q_Y(hi)(hi - i_hi/n) - Q_Y(lo)(lo - i_lo/n) + (1/n) sum_{i_lo <= i < i_hi} q_i - int_lo^hi Q_Y]
        I2 = scale [(1/n) sum_{i >= i_hi} q_i - Q_Y(hi)(hi - i_hi/n) - int_hi^1 Q_Y]

    (I2's boundary term (U_{n:n} - 1) Q_Y(U_{n:n}) cancels).  I3 is the
    residual z - I1 - I2, so the three sum to Z_n by construction; it
    equals A_n sigma_{n,1}^-1 n int_{U_{n-k_n:n}}^{lo} (lo - E_n(y)) dQ_Y(y),
    oriented (negative when the order statistic exceeds lo).

    Q_Y is evaluated once at each point: at lo and hi, and, through
    ``frame.top_y``, at the top k_n order statistics and every order
    statistic above lo.  I1, I2 and Z_n read their values off that one
    array.  Both integrals come from one call of ``ty.cum_Q`` at lo, hi and
    1, the only points a replicate evaluates it at.
    """
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
    i_hi = int(np.searchsorted(us, hi, side="right"))
    j = min(i_lo, n - k_n)
    q = frame.top_y(n - j)  # q[i - j] = Q_Y(us[i]) for i >= j
    q_lo, q_hi = np.asarray(ty.Q(np.array([lo, hi])), dtype=float)

    cum_lo, cum_hi, cum_1 = np.asarray(ty.cum_Q(np.array([lo, hi, 1.0])), dtype=float)
    at_hi = q_hi * (hi - i_hi / n)
    mid_sum = float(np.sum(q[i_lo - j : i_hi - j])) / n
    top_sum = float(np.sum(q[i_hi - j :])) / n
    i1 = scale * float(at_hi - q_lo * (lo - i_lo / n) + mid_sum - (cum_hi - cum_lo))
    i2 = scale * float(top_sum - at_hi - (cum_1 - cum_hi))

    s = float(np.sum(q[n - k_n - j :]))
    z = _frame_z(s, bundle)
    return Decomposition(i1=i1, i2=i2, i3=z - i1 - i2, z=z, s=s)


def u_ratio(frame: ProcessFrame, k_n: int) -> float:
    """Diagnostic ratio U_{n-k_n:n} / (1 - k_n/n); tends to 1 in probability."""
    if not 1 <= k_n < frame.n:
        raise DomainError("need 1 <= k_n < n")
    return frame.u_order(frame.n - k_n) / (1.0 - k_n / frame.n)
