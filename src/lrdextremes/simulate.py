"""Path generation for LRD moving averages and exact second-moment bookkeeping.

The linear process is realized with a truncated filter of length M + 1 and
exactly M pre-sample innovations, so the path is stationary under the
truncated model with no burn-in discard.  ``truncation_length`` bounds only
the neglected *marginal* variance and ignores n, so the partial-sum
variance falls further short of the model's as n grows (``model_lags``).

Filtering is a uniformly partitioned FFT convolution (sectioned convolution,
Stockham 1966).  The filter taps are cut into S = ceil((M + 1) / B) segments
of B taps, and each segment meets a window of n + B - 1 innovations in a
circular convolution of length L, where the n outputs kept never wrap
around.  The segment and transform lengths are

    L = next_fast_len(5 n - 1), B = L - n + 1   when M + 1 >= 32 n,
    L = next_fast_len(n + M),   B = M + 1       otherwise (one segment),

with next_fast_len that of scipy.fft for real input.  A partitioned
segment fills its transform: its window is exactly L inputs, so the
transform reads the window in place, with no zero-padded copy, and B is
at least 4 n (at n = 2^13, L = 5 n = 40960 and B = 32769).  One segment
is the plain transform at next_fast_len(n + M), O((n + M) log(n + M));
many segments turn one transform far larger than cache into S transforms
of about 5 n points, O((n + M) log n).  The rule depends only on (n, M).
Its constants come from two sweeps of one filter pass at n = 2^8, 2^10,
2^13 (2-core x86 box, scipy.fft with one worker): segments of 4 n taps
against one transform ran 1.35-5.6x faster for M / n >= 32, 1.2-1.8x at
M / n = 16 and 0.88-1.25x at M / n = 8.  An earlier prototype sweep on
the same box lost at M / n = 16 for some n (0.83-1.35x), so the partition
starts at M / n = 32, where every sweep won.  Among B = n, 2 n, 4 n, 8 n
and 16 n, 4 n was the fastest at every n above with M / n = 64 and 512
(B = L - n + 1 adds the taps its transform leaves free: one at n = 2^k >= 4).

A ``FilterPlan`` of order p serves the power-sum paths
p_m[i] = sum_k c_k^m eps_{i-k}^m, m = 1..p, of one (filter, n), and it is
the only place the taps are transformed.  It holds the segment spectra of
c**m for the powers it filters, m = 1..max(p-1, 1); each replicate pays one
batched rfft over its windows and one irfft per such power.  The top power
p >= 2 is needed only through its total, and

    sum_{i=1}^n p_p[i] = sum_j eps_j^p w_p[j],

where w_p[j] sums c**p over the n taps that meet eps_j (a window of n
consecutive taps, length n + M in all).  So the plan keeps w_p instead of
a spectrum, and a replicate pays one blocked multiply-and-sum over eps for
it, not a filter pass.  The window sums are built by pairwise doubling in
cache-sized chunks (``window_sums``), which keeps each within a relative
(ceil(log2 n) + 1) * 2^-53 of exact; differences of a running cumsum lose
digits on the small windows of the tail.  No code of the package calls
a BLAS-backed routine (np.dot, np.vdot, np.inner, np.matmul, @): those run
OpenBLAS's own threads, so a run with one worker would not be one core,
and OpenBLAS splits a sum by its thread count, so the sum's bits would
depend on that count.  The package starts threads of its own in one
place, ``_each``, and only when given more than one worker: a pool run's
set-up builds the segment spectra and the window sums (of c for
sigma_{n,1}, of c**p for the top power) a piece per thread, on as many
threads as the run has worker processes.  Each piece writes its own slice
with the operations it would run alone, so the bytes do not depend on the
worker count.  The threads are joined before the set-up returns, so none
is alive when the process pool forks; a one-worker run, and a loop of one
piece, starts no thread.

A replicate study builds its plan of order p once, in its replicate plan,
so the taps are transformed once per filtered power and run, and c**p is
not transformed at all.  sigma_{n,1} has one route, ``sigma_n1_exact``:
sum_i X_i = sum_j eps_j w[j] with w the window sums of n taps, so
sigma_{n,1}^2 = sigma_eps^2 ||w||^2, with ||w||^2 summed by numpy's
pairwise tree (``_square_sum``) and no transform.  The exact
autocovariances rho_k at the lags 0..min(n-1, M) have one route too,
``FilterPlan.autocovariances``, which streams the reversed taps through
the plan's power-1 pass.  A study's set-up does not need them.  The
untruncated model's lags 0..kmax <= M are those of a plan that serves at
least ``_LAG_PLAN_MIN_LAGS`` lags, plus the tail past the taps
(``model_lags``), vectorized for a constant L0: 0.16 s for 2^15 lags at
the cap (2-core x86 box).

Every filtering goes through one pass, ``FilterPlan.stream``, which reads
its n + M inputs from a source (a seeded draw, an array, or, for the exact
lags, the reversed taps followed by zeros) one row block at a time.  Each
block's product is added into one running spectrum of L/2 + 1 complex
numbers per filtered power, and the padded last row's product is added
last.  Apart from those and the paths it returns, the pass keeps one row
block: its buffer and its transform, about 2 * _BLOCK_POINTS floats
whatever M and n are, so a replicate's memory does not grow with the
number of row blocks, and no replicate builds its n + M innovations as
one array.  A one-segment plan reads its whole window of n + M inputs as
one block, as its one transform needs.

At the cap (M = 2^22, reached for p >= 2) an array as long as the filter
takes 33.5 MB, so the set-up writes each one it keeps once, in place, from
chunk- or block-sized pieces: the coefficients (``CoefficientModel.build``,
chunks of ``_CHUNK_POINTS``), each power's segment spectra
(``FilterPlan._spectrum``, blocks of about ``_BLOCK_POINTS`` taps) and the
window sums w_p (``window_sums``, chunks of ``_CHUNK_POINTS``);
``sigma_n1_exact`` builds the window sums of c the same way and squares
them a leaf of ``_square_sum`` at a time.  These builders make no other
array as long as the filter.  Each piece goes through the elementwise
operations, transform length and summation tree of one pass over the
whole array, so the results are the same bytes; the same holds for the
row blocks of ``FilterPlan.stream``.

Importing this module raises glibc's mmap and trim thresholds once, before
the package allocates (``_raise_mmap_threshold``), so those pieces and a
replicate's arrays reuse heap pages at every entry point: a study's set-up
and replicates, ``sigma_n1_exact``, ``simulate_path`` and the CLI.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy.special import beta as beta_fn, betainc, gamma as gamma_fn, gammaincc, zeta

from .errors import ConfigError, DomainError, TruncationWarning
from .model import (
    _CHUNK_POINTS,
    _gauss_kronrod,
    _marginal_refusal,
    _square_sum,
    CoefficientModel,
    InnovationDist,
    MarginalX,
    SlowlyVaryingFn,
    SvConstant,
    SvLogPower,
    TargetMarginalY,
    subordinate,
)

# hard cap on the truncation length; binding the cap is reported
M_CAP = 2**22

DEFAULT_TRUNC_TOL = 1e-3

# the filter is partitioned when M + 1 >= _PARTITION_MIN_PATHS * n, into
# segments that fill the fast transform length of a window of
# _SEGMENT_PATHS * n taps (see the module docstring)
_PARTITION_MIN_PATHS = 32
_SEGMENT_PATHS = 4

# the plan of ``model_lags`` serves at least this many lags, so a small kmax on a
# long filter keeps segments of about 4 * 2^13 taps: at the cap, a plan at
# kmax + 1 = 1 would cut the taps into 2^20 segments of 4
_LAG_PLAN_MIN_LAGS = 2**13

# innovations (or taps, when a plan transforms its segments) per batched
# segment transform, about 2 MB: the block depends only on the FFT length,
# so results do not depend on the worker count
_BLOCK_POINTS = 2**18

# A replicate allocates a few dozen arrays of about n + M floats (one-segment
# filters) or of a row block of the filter pass (partitioned ones), and the
# set-up at the cap builds its coefficients, spectra and window sums from
# chunks and row blocks of the same sizes.  glibc's malloc maps blocks above
# its mmap threshold to fresh pages and returns free heap above its trim
# threshold (both 128 KiB at start), so each such array faults its pages in
# anew.  Freeing a mapped block raises the mmap threshold to the block's size
# and the trim threshold to twice that (mallopt(3)): 8 MiB keeps the arrays
# of n + M <= 2^20, every row block and every chunk on reused heap pages.
# It is done once, when this module is imported, before the package
# allocates anything: forked pool workers inherit it, and spawned ones
# import the module again.  Other allocators ignore it.
_HEAP_BLOCK_FLOATS = 2**20


def _raise_mmap_threshold() -> None:
    np.empty(_HEAP_BLOCK_FLOATS)  # allocated and freed at once


_raise_mmap_threshold()


@dataclass(frozen=True, eq=False)
class PathPair:
    """One simulated path of the linear process and its subordinated values."""

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    seed: int
    spec_hash: str

    @property
    def n(self) -> int:
        return len(self.x)


def truncation_length(beta: float, L0: SlowlyVaryingFn | None = None, tol: float = DEFAULT_TRUNC_TOL) -> int:
    """Smallest M with neglected variance sum_{k>M} c_k^2 <= tol * total.

    A constant L0 = C takes the integral bound sum_{k>M} k^-2beta <=
    M^(1-2beta)/(2beta-1), scaled by C^2, against the closed-form total.  A
    log-power L0 = C (ln t)^B is scanned against the running partial sum of
    the total (which only makes the choice of M conservative), with the
    tail bound int_M^inf C^2 (ln t)^2B t^-2beta dt: for B <= 0, L0 falls,
    and L0(M)^2 M^(1-2beta)/(2beta-1) bounds it; for B > 0 it is exactly
    C^2 (2beta-1)^-(2B+1) Gamma(2B+1, (2beta-1) ln M), a bound once c_k^2
    falls, for ln M >= max(1, B/beta).  Capped at 2^22, with a warning that
    prints the neglected fraction that the bound gives at the cap.
    """
    if not 0.5 < beta < 1.0:
        raise DomainError("beta must lie in (1/2, 1)")
    if not 0.0 < tol < 1.0:
        raise DomainError("tol must be a variance fraction in (0, 1)")
    if L0 is None:
        L0 = SvConstant(1.0)

    def capped(length, fraction):
        warnings.warn(
            f"{length} exceeds the cap 2^22; capped (neglected variance fraction {fraction:.2e})",
            TruncationWarning,
            stacklevel=3,
        )
        return M_CAP

    if isinstance(L0, SvConstant):
        total = 1.0 + L0.c**2 * float(zeta(2.0 * beta))

        def tail_bound(M):
            return L0.c**2 * M ** (1.0 - 2.0 * beta) / (2.0 * beta - 1.0)

        M = int(math.ceil((tol * total * (2.0 * beta - 1.0) / L0.c**2) ** (1.0 / (1.0 - 2.0 * beta))))
        M = max(M, 1)
        return capped(f"truncation length {M}", tail_bound(M_CAP) / total) if M > M_CAP else M
    if not isinstance(L0, SvLogPower):
        raise DomainError(f"no tail bound for the slowly varying part {L0!r}; give M")

    if L0.b > 0:
        a, s = 2.0 * L0.b + 1.0, 2.0 * beta - 1.0
        first = math.exp(max(1.0, L0.b / beta))

        def tail_bound(k):
            return L0.c**2 * s**-a * gamma_fn(a) * gammaincc(a, s * np.log(k))

    else:
        first = 1.0

        def tail_bound(k):
            return L0._eval(k) ** 2 * k ** (1.0 - 2.0 * beta) / (2.0 * beta - 1.0)

    # grow the partial sum in blocks until the bound clears
    partial = 1.0
    M = 1
    block = 4096
    while True:
        k = np.arange(M, min(M + block, M_CAP) + 1, dtype=float)
        ck2 = k ** (-2.0 * beta) * L0._eval(k) ** 2
        csum = partial + np.cumsum(ck2)
        ok = (tail_bound(k) <= tol * csum) & (k >= first)
        if np.any(ok):
            return int(k[np.argmax(ok)])
        partial = float(csum[-1])
        M = int(k[-1]) + 1
        if M > M_CAP:
            bound = float(tail_bound(float(M_CAP)))
            return capped("truncation length", bound / (partial + bound))
        block = min(2 * block, 2**20)


def build_coefficient_model(
    beta: float, L0: SlowlyVaryingFn | None = None, tol: float = DEFAULT_TRUNC_TOL, M: int | None = None
) -> CoefficientModel:
    """Coefficient model with M derived from the variance tolerance unless given."""
    if L0 is None:
        L0 = SvConstant(1.0)
    if M is None:
        M = truncation_length(beta, L0, tol)
    return CoefficientModel.build(beta, L0, M)


def derive_seed(master_seed: int, r: int) -> int:
    """Replicate seed h(master_seed, r) via the SeedSequence spawn tree.

    Equivalent to SeedSequence(master_seed, spawn_key=(r,)); deterministic
    and independent of execution order or parallelism.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(r,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def gen_innovations(dist: InnovationDist, count: int, seed: int) -> np.ndarray:
    """Deterministic i.i.d. innovation vector for the given seed."""
    if count < 1:
        raise DomainError("count must be >= 1")
    out = np.empty(count)
    dist.fill(out, np.random.default_rng(seed))
    return out


def innovation_source(dist: InnovationDist, seed: int):
    """``gen_innovations(dist, count, seed)`` as a source for ``FilterPlan.stream``, drawn piece by piece.

    The pass reads its inputs once, in order, and ``dist.fill`` continues
    one generator, so the pieces hold the bytes of the whole draw.
    """
    rng = np.random.default_rng(seed)

    def read(out: np.ndarray, start: int) -> None:
        dist.fill(out, rng)

    return read


def array_source(a: np.ndarray):
    """The entries of ``a``, then zeros, as a source for ``FilterPlan.stream``."""

    def read(out: np.ndarray, start: int) -> None:
        got = a[start : start + out.size]
        out[: got.size] = got
        out[got.size :] = 0.0

    return read


def _power(x: np.ndarray, m: int, out: np.ndarray) -> None:
    """Write x ** m into ``out``, with np.square for m = 2 as ``x ** 2`` runs, and x itself for m = 1.

    The power must be taken on ``x`` as laid out: the elementwise result can
    depend on the strides (a reversed view raised to the power 3 differs in
    the last bit from the reversal of the contiguous power).
    """
    if m == 1:
        out[...] = x
    elif m == 2:
        np.square(x, out=out)
    else:
        np.power(x, m, out=out)


def _each(body, starts, workers: int = 1) -> None:
    """Run ``body(start)`` for every start: inline for one worker or one piece, else on up to ``workers`` threads.

    Each piece must write its own slice of the output, so the order the
    pieces run in changes no byte.  The threads are joined before this
    returns, so none is alive when a process pool forks.
    """
    if workers <= 1 or len(starts) <= 1:
        for start in starts:
            body(start)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
        list(pool.map(body, starts))  # reads every result, so an exception in a piece is raised here


def window_sums(a: np.ndarray, n: int, m: int = 1, workers: int = 1) -> np.ndarray:
    """s[j] = a[j-n+1]**m + ... + a[j]**m for j = 0..len(a)+n-2, entries outside ``a`` counting as 0.

    Pairwise doubling: level h holds the sums of h consecutive entries, and
    level 2h adds two neighbours of level h.  A window takes the levels of
    the binary digits of n, lowest first, so each sum is a tree of depth at
    most floor(log2 n) + 1 and, on input of one sign, lies within
    (ceil(log2 n) + 1) * 2^-53 of exact.  The output is cut into chunks of
    about ``_CHUNK_POINTS`` so each level stays in cache; every sum has the
    same tree whatever the chunk, so the result does not depend on it, and
    the chunks run on ``workers`` threads (``_each``).

    Level 0 of a chunk is raised to the power m straight from ``a`` as
    given (a view such as the reversed taps, with the power taken on that
    layout), with zeros where the windows run past either end of ``a``.
    Apart from the output, the only arrays built are two buffers of
    T + n - 1 points per chunk in flight, T = max(_CHUNK_POINTS, n).
    """
    a = np.asarray(a, dtype=float)
    if n < 1:
        raise DomainError("window length n must be >= 1")
    size = a.size + n - 1
    out = np.empty(size)
    T = max(_CHUNK_POINTS, n)

    def chunk(lo: int) -> None:
        t = min(T, size - lo)
        spare, other = np.empty(t + n - 1), np.empty(t + n - 1)
        # level 0 holds a[lo-n+1 .. lo+t-1] ** m; level[i] is a[lo+i-n+1]
        level, acc = other, out[lo : lo + t]
        first, last = max(n - 1 - lo, 0), min(a.size + n - 1 - lo, t + n - 1)
        level[:first] = 0.0
        _power(a[lo + first - n + 1 : lo + last - n + 1], m, level[first:last])
        level[last:] = 0.0
        h, start = 1, 0
        while True:
            if n & h:
                if start:
                    np.add(acc, level[start : start + t], out=acc)
                else:
                    acc[:] = level[:t]
                start += h
            if 2 * h > n:
                break
            up = spare[: level.size - h]
            np.add(level[:-h], level[h:], out=up)
            level, h = up, 2 * h
            spare, other = other, spare

    _each(chunk, range(0, size, T), workers)
    return out


class PowerSums(NamedTuple):
    """One pass of a filter plan of order p: the paths p_1..p_max(p-1,1), and sum_i p_p[i] for p >= 2 (else None)."""

    paths: tuple
    top_total: float | None


@dataclass(frozen=True, eq=False)
class FilterPlan:
    """The power sums p_m[i] = sum_k c_k^m eps_{i-k}^m, m = 1..order, at one path length n.

    ``stream(source)`` is the one filter pass: it reads the n + M inputs
    (the M pre-sample innovations first) from a source a row block at a
    time and returns p_m[1..n] for the filtered powers m = 1..max(order-1, 1),
    the path itself for m = 1, and for order >= 2 the total sum_i p_order[i]
    from the window sums ``weights`` of c**order, with no filter pass for
    that power (module docstring).  A source is a seeded draw
    (``innovation_source``) or an array, with zeros past its end
    (``array_source``).  The taps are transformed here only, once per
    filtered power.  ``autocovariances`` gives the exact lags
    0..min(n-1, M) from the power-1 pass, the package's one route to them.

    The taps are cut into ``S`` segments of ``B`` taps by the rule of the
    module docstring (L = next_fast_len(5 n - 1) and B = L - n + 1 when
    M + 1 >= 32 n, else B = M + 1), after S * B - (M + 1) zero taps in
    front.  Row r of a power's ``(S, L//2+1)`` spectrum array is the
    segment that meets the innovation window eps[r B : r B + n + B - 1],
    which is L long when S > 1, so the padded segment is the last row; its
    window runs past the end of eps by as many entries, and the zeros that
    rfft pads there meet only the zero taps.  With S = 1 this is the plain
    transform at next_fast_len(n + M).

    ``_spectrum(m)`` builds a power's spectra a block of rows at a time: it
    raises the block's segments (rows reversed, the pad zeros in front of
    the last) to the power m into a ``(rows, L)`` buffer whose last L - B
    columns are zero, with rows = max(1, _BLOCK_POINTS // L),
    and writes the block's rfft into the preallocated ``(S, L//2+1)``
    array.  ``build`` takes the window sums of the reversed taps raised to
    ``order`` with ``window_sums``, which takes the power chunk by chunk.
    Neither makes another array as long as the filter.

    ``build`` takes a worker count (1 by default): the row blocks and
    chunks of those loops then run on as many threads (``_each``), joined
    before the call returns, so a pool run's set-up uses the run's workers
    before its process pool forks.  The plan is the same bytes at every
    count; the count is not kept on it.
    """

    n: int
    M: int
    B: int
    L: int
    taps: np.ndarray = field(repr=False)
    spectra: tuple = field(repr=False)
    order: int = 1
    weights: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, c, n: int, order: int = 1, workers: int = 1) -> "FilterPlan":
        c = np.asarray(c, dtype=float)
        if n < 1:
            raise DomainError("n must be >= 1")
        if order < 1:
            raise DomainError("filter order must be >= 1")
        M = len(c) - 1
        if M + 1 >= _PARTITION_MIN_PATHS * n:
            # segments fill the transform that holds a window of _SEGMENT_PATHS * n taps
            L = sfft.next_fast_len((_SEGMENT_PATHS + 1) * n - 1, real=True)
            B = L - n + 1
        else:
            B = M + 1
            L = sfft.next_fast_len(n + M, real=True)
        plan = cls(n=n, M=M, B=B, L=L, taps=c, spectra=(), order=order)
        spectra = tuple(plan._spectrum(m, workers) for m in range(1, max(order - 1, 1) + 1))
        # eps[j] meets the taps M-j .. M-j+n-1: windows of n reversed taps
        weights = window_sums(c[::-1], n, order, workers) if order >= 2 else None
        return replace(plan, spectra=spectra, weights=weights)

    def _spectrum(self, m: int, workers: int = 1):
        B, L, taps = self.B, self.L, self.taps
        S = -(-(self.M + 1) // B)
        pad = S * B - (self.M + 1)
        out = np.empty((S, L // 2 + 1), dtype=complex)
        rows = max(1, _BLOCK_POINTS // L)

        def block_spectra(lo: int) -> None:
            # row r holds taps (S-1-r) B - pad .. (S-r) B - pad - 1 raised to the power m, then L - B zeros
            block = np.empty((min(rows, S - lo), L))
            block[:, B:] = 0.0
            whole = min(len(block), S - 1 - lo)  # every row but the padded last one
            end = (S - lo) * B - pad  # one past the last tap of row lo
            _power(taps[end - whole * B : end].reshape(whole, B)[::-1], m, block[:whole, :B])
            if whole < len(block):  # the last row: the pad zeros, then taps 0..B-pad-1
                block[-1, :pad] = 0.0
                _power(taps[: B - pad], m, block[-1, pad:B])
            out[lo : lo + len(block)] = sfft.rfft(block, axis=-1)

        _each(block_spectra, range(0, S, rows), workers)
        return out

    def stream(self, source) -> PowerSums:
        """The filtered paths p_1..p_f, f = max(order-1, 1), and for order >= 2 the total of p_order, in one pass.

        ``source(out, start)`` writes the inputs start .. start+len(out)-1
        (the M pre-sample innovations first, n + M in all) into ``out``; the
        pass asks for each input once, in order.  It advances a row block at
        a time: rows = max(1, _BLOCK_POINTS // L) segment windows, that is
        rows * B new inputs after the n - 1 the block shares with the one
        before, in one reused buffer.  For each filtered power m it raises
        the block to the power m, transforms the windows of its full rows
        (each exactly L inputs, read in place) in one batched rfft,
        multiplies them by their spectra and adds the sum of the rows into
        the power's running spectrum.  The padded last row comes with the
        last block: its product is added last, and one irfft gives the
        path.  For order >= 2 the same inputs, raised to the power order
        and weighted by ``weights``, are summed in chunks of
        ``_CHUNK_POINTS`` counted from input 0, and the chunk sums pairwise.
        These are the transform shapes, rows and summation order of one
        pass over the whole input array, so the results have its bytes.
        """
        n, M, B, L = self.n, self.M, self.B, self.L
        size, S = n + M, -(-(M + 1) // B)
        rows = max(1, _BLOCK_POINTS // L)
        top = self.order if self.order >= 2 else 0
        buf = np.empty(min(rows * B + n - 1, size))
        powered = np.empty_like(buf) if len(self.spectra) >= 2 else None
        running = [None] * len(self.spectra)  # each filtered power's sum over the full rows so far
        paths = [None] * len(self.spectra)
        if top:
            parts, prod = np.empty(-(-size // _CHUNK_POINTS)), np.empty(min(_CHUNK_POINTS, size))
        done = filled = 0  # inputs read so far, the last ``filled`` of them in buf
        for lo in range(0, S, rows):
            hi, base = min(lo + rows, S), lo * B
            end = min(hi * B + n - 1, size)
            shared = done - base  # the n - 1 inputs shared with the block before (none at the first)
            buf[:shared] = buf[filled - shared : filled]
            block = buf[: end - base]
            filled = block.size
            source(block[shared:], done)
            full = min(hi, S - 1) - lo  # rows before the padded last one
            for i, C in enumerate(self.spectra):
                e = block
                if i:
                    e = powered[: block.size]
                    _power(block, i + 1, e)
                if full:
                    # the windows of the full rows are L = n + B - 1 inputs each: no padded copy
                    spec = sfft.rfft(sliding_window_view(e[: full * B + n - 1], L)[::B], axis=-1)
                    spec *= C[lo : lo + full]
                    part = spec.sum(axis=0)
                    del spec  # freed before the next block's transform is allocated
                    if running[i] is None:
                        running[i] = part
                    else:
                        running[i] += part
                if hi < S:
                    continue
                # the last row: inputs (S-1) B .. n+M-1, zero-padded by rfft
                spec = sfft.rfft(e[(S - 1 - lo) * B :], L)
                spec *= C[S - 1]
                if running[i] is not None:
                    spec += running[i]
                # a copy, so the result does not pin the length-L buffer
                paths[i] = sfft.irfft(spec, L)[B - 1 : B - 1 + n].copy()
            if top:
                # the block's new inputs done .. end-1, cut where the chunks of the top total end
                for first in range(done - done % _CHUNK_POINTS, end, _CHUNK_POINTS):
                    a, b = max(first, done), min(first + _CHUNK_POINTS, end)
                    piece = prod[a - first : b - first]
                    _power(buf[a - base : b - base], top, piece)
                    piece *= self.weights[a:b]
                    if b == min(first + _CHUNK_POINTS, size):  # the chunk is complete
                        parts[first // _CHUNK_POINTS] = np.sum(prod[: b - first])
            done = end
        return PowerSums(tuple(paths), float(np.sum(parts)) if top else None)

    def autocovariances(self, sigma_eps2: float) -> np.ndarray:
        """sigma_eps^2 * sum_j c_j c_{j+k} at the lags k = 0..min(n-1, M), the package's one route to the lags.

        The reversed taps followed by n - 1 zeros, [c_M, ..., c_0, 0, ...],
        go through the power-1 pass (of the plan at order 1, whatever its
        order); its output i is sum_{k>=i} c_k c_{k-i}.
        """
        power1 = replace(self, spectra=self.spectra[:1], order=1, weights=None)
        acorr = power1.stream(array_source(self.taps[::-1])).paths[0]
        return sigma_eps2 * acorr[: min(self.n - 1, self.M) + 1]


@dataclass(frozen=True, eq=False)
class FilterSource:
    """The linear process: the seeded innovations of ``dist`` streamed through ``plan``'s one pass.

    A path source gives a replicate its path from the replicate's seed:
    ``draw(seed)`` returns the power sums of one pass, ``paths[0]`` the
    path, and ``multilinear`` says whether they carry what the reduction
    supremum needs.
    """

    plan: FilterPlan
    dist: InnovationDist
    multilinear = True

    def draw(self, seed: int) -> PowerSums:
        return self.plan.stream(innovation_source(self.dist, seed))


@dataclass(frozen=True, eq=False)
class IidSource:
    """The i.i.d. twin: n independent draws of the Gaussian X marginal N(0, s^2), no linear process.

    Replicate seed ``seed`` draws from ``SeedSequence(seed, spawn_key=(0,))``,
    the first child of the stream its path reads, so no path uses it; like
    a path, the draw at size n is the first n of the draw at any larger size.
    """

    s: float
    n: int
    multilinear = False

    def draw(self, seed: int) -> PowerSums:
        x = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))).standard_normal(self.n)
        x *= self.s
        return PowerSums((x,), None)


def moving_average(c: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """X_i = sum_{k=0}^M c_k eps_{i-k} for i = 1..n via FFT convolution.

    ``eps`` carries the M pre-sample innovations first, so its length is
    n + M for a filter of length M + 1.
    """
    c = np.asarray(c, dtype=float)
    eps = np.asarray(eps, dtype=float)
    M = len(c) - 1
    n = len(eps) - M
    if n < 1:
        raise DomainError(f"innovation vector too short: need more than {M} entries")
    if len(c) == 1:
        # one tap scales eps, exactly and with no transform
        return c[0] * eps
    return FilterPlan.build(c, n).stream(array_source(eps)).paths[0]


def config_hash(coeffs: CoefficientModel, dist: InnovationDist, mx: MarginalX, ty: TargetMarginalY, n: int) -> str:
    """Opaque identifier of a generating configuration."""
    parts = repr((coeffs.beta, coeffs.L0, coeffs.M, dist, type(mx).__name__, repr(mx), type(ty).__name__, repr(ty), n))
    return hashlib.sha256(parts.encode()).hexdigest()[:16]


def simulate_path(
    coeffs: CoefficientModel,
    dist: InnovationDist,
    mx: MarginalX,
    ty: TargetMarginalY,
    n: int,
    seed: int,
) -> PathPair:
    """Generate one stationary PathPair, deterministic in the seed.

    The declared X marginal must be one the path has: ``_marginal_refusal``
    refuses any other, as it does for replicates, so it is the Gaussian of
    Gaussian innovations, with s^2 = sigma_eps^2 * sum c_k^2 (relative
    deviation <= 1e-6).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if (refusal := _marginal_refusal(mx, dist)) is not None:
        raise ConfigError(refusal)
    s_expected = dist.sigma_eps * math.sqrt(coeffs.total_square_sum)
    if abs(mx.s - s_expected) > 1e-6 * s_expected:
        raise ConfigError(
            f"marginal std {mx.s!r} inconsistent with model value {s_expected!r} (sigma_eps^2 * sum c_k^2)"
        )
    x = FilterSource(FilterPlan.build(coeffs.c, n), dist).draw(seed).paths[0]
    y = subordinate(mx, ty, x)
    return PathPair(x=x, y=np.atleast_1d(y), seed=seed, spec_hash=config_hash(coeffs, dist, mx, ty, n))


def model_lags(coeffs: CoefficientModel, sigma_eps2: float, kmax: int) -> np.ndarray:
    """rho_k = sigma_eps^2 sum_{j>=0} c_j c_{j+k} of the untruncated model at the lags k = 0..kmax <= M.

    The taps' part is that of a plan at min(max(kmax, _LAG_PLAN_MIN_LAGS), M) + 1
    (``FilterPlan.autocovariances``); the tail j > M - k integrates
    t^-beta L0(t) (t+k)^-beta L0(t+k) from the midpoint a = M - k + 1/2, in
    closed form over every lag at once for a constant L0
    (L0^2 a^(1-2beta) / (2beta-1) at k = 0), else per lag.
    """
    beta, L0, M = coeffs.beta, coeffs.L0, coeffs.M
    if not 0 <= kmax <= M:
        raise DomainError(f"need 0 <= kmax <= M = {M}, got kmax = {kmax}")
    tail = np.empty(kmax + 1)
    if isinstance(L0, SvConstant):
        # k + a = M + 1/2 at every lag
        tail[0] = (M + 0.5) ** (1.0 - 2.0 * beta) / (2.0 * beta - 1.0)
        k, b = np.arange(1.0, kmax + 1), (2.0 * beta - 1.0, 1.0 - beta)
        tail[1:] = k ** (1.0 - 2.0 * beta) * beta_fn(*b) * betainc(*b, k / (M + 0.5))
        tail *= L0.c**2
    else:
        for k in range(kmax + 1):

            def integrand(t, a=M - k + 0.5, k=k):
                x = a / t  # (a, inf) mapped to (0, 1]
                return a / t**2 * x**-beta * L0._eval(x) * (x + k) ** -beta * L0._eval(x + k)

            tail[k] = _gauss_kronrod(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=400)[0]
    plan = FilterPlan.build(coeffs.c, min(max(kmax, _LAG_PLAN_MIN_LAGS), M) + 1)
    return plan.autocovariances(sigma_eps2)[: kmax + 1] + sigma_eps2 * tail


def sigma_n1_exact(c: np.ndarray, sigma_eps2: float, n, workers: int = 1):
    """Exact sigma_{n,1} = sqrt(Var(sum_{i<=n} X_i)) for the truncated model, the package's one route to it.

    sum_i X_i = sum_j eps_j w[j] with w the window sums of n taps, so
    sigma_{n,1}^2 = sigma_eps^2 ||w||^2.  Past M + 1 the window sums of n
    taps are those of M + 1 taps with n - M - 1 more entries equal to
    w[M] = sum c, so a size m takes w = window_sums(c, min(m, M + 1)) and
    adds max(m - M - 1, 0) w[M]^2 to ||w||^2 (``_square_sum``).  ``n`` may
    be a sequence of sizes: the result is then an array, and each size has
    the bits of a call with that size alone.  The window sums run on
    ``workers`` threads, with the same bytes at every count.
    """
    ns = np.atleast_1d(np.asarray(n))
    if ns.ndim != 1 or ns.size == 0 or not np.issubdtype(ns.dtype, np.integer):
        raise DomainError("n must be an integer or a non-empty sequence of integers")
    if np.any(ns < 1):
        raise DomainError("n must be >= 1")
    c = np.asarray(c, dtype=float)
    M = c.size - 1
    sums = {}  # capped size -> (||w||^2, w[M])
    out = np.empty(ns.size)
    for i, m in enumerate(ns.tolist()):
        size = min(m, M + 1)
        if size not in sums:
            w = window_sums(c, size, 1, workers)
            sums[size] = (_square_sum(w), w[M])
            del w  # freed before the next size's window sums are built
        square, total = sums[size]
        out[i] = math.sqrt(sigma_eps2 * (square + max(m - M - 1, 0) * total**2))
    return float(out[0]) if np.ndim(n) == 0 else out


def dump_path_csv(pp: PathPair, path) -> None:
    """Write the path as CSV with header ``i,x,y`` (shortest round-trip floats)."""
    with open(path, "w", newline="") as fh:
        fh.write("i,x,y\n")
        for i in range(pp.n):
            fh.write(f"{i + 1},{float(pp.x[i])!r},{float(pp.y[i])!r}\n")

