"""Path generation for LRD moving averages and exact second-moment bookkeeping.

The linear process is realized with a truncated filter of length M + 1 and
exactly M pre-sample innovations, so the path is stationary under the
truncated model with no burn-in discard.

Filtering is a uniformly partitioned FFT convolution (sectioned convolution,
Stockham 1966).  The filter taps are cut into S = ceil((M + 1) / B) segments
of B taps, with segment length

    B = 4 n     when M + 1 >= 32 n,
    B = M + 1   otherwise (one segment),

and each segment meets a window of n + B - 1 innovations in a circular
convolution of length L = scipy.fft.next_fast_len(n + B - 1, real=True),
where the n outputs kept never wrap around.  One segment is the plain
transform at next_fast_len(n + M), O((n + M) log(n + M)); many segments
turn one transform far larger than cache into S transforms of about 5 n
points, O((n + M) log n).  The rule depends only on (n, M).  Its constants
come from two sweeps of one filter pass at n = 2^8, 2^10, 2^13 (2-core
x86 box, scipy.fft with one worker): segments of 4 n taps against one
transform ran 1.35-5.6x faster for M / n >= 32, 1.2-1.8x at M / n = 16
and 0.88-1.25x at M / n = 8.  An earlier prototype sweep on the same box
lost at M / n = 16 for some n (0.83-1.35x), so the partition starts at
M / n = 32, where every sweep won.  Among B = n, 2 n, 4 n, 8 n and 16 n,
4 n was the fastest at every n above with M / n = 64 and 512.

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
digits on the small windows of the tail.  Neither a replicate kernel nor
the set-up (coefficients, plans, window sums, sigma_{n,1}) nor the exact
lags calls a BLAS-backed routine (np.dot, np.vdot, np.inner, np.matmul, @):
those run OpenBLAS's own threads, so a run with one worker would not be
one core, and OpenBLAS splits a sum by its thread count, so the sum's bits
would depend on that count.

A replicate study builds the power-1 plan once, in its scaling bundle, and
raises it to order p in its replicate plan, so the taps are transformed
once per filtered power and run, and c**p is not transformed at all.  The
bundle's sigma_{n,1} comes from the same spectra (``FilterPlan.sigma_n1``):
sum_i X_i = sum_j eps_j w[j] with w the window sums of n taps, so
sigma_{n,1}^2 = sigma_eps^2 ||w||^2; Parseval gives the part of ||w||^2 that
each segment makes alone from its spectrum, and sums over the n - 1 taps on
either side of each segment boundary give the overlaps, so no filter pass
follows the spectra.  The exact autocovariances at lags 0..min(n-1, M) are
not part of a study's set-up: they are the reference that tests check
sigma_{n,1} and the spectra against, and what the partial-sum variance
checks of the roadmap build on.  A one-segment plan reads them off its
spectrum, and a partitioned one streams the reversed taps through its
power-1 pass, O((n + M) log n).

Every filtering goes through one pass, ``FilterPlan.stream``, which reads
its n + M inputs from a source (a seeded draw, an array, or, for the exact
lags, the reversed taps followed by zeros) one row block at a time.  The
padded last row arrives with the last block and its product starts each
power's sum, so the pass holds the row-block sums until then: S / rows
spectra of L/2 + 1 complex numbers per filtered power, about 7 MB at the
cap (n = 2^13).
Apart from those and the paths it returns, it keeps one row block: its
buffer, the padded copy rfft makes and the transform, about
3 * _BLOCK_POINTS floats whatever M is, so no replicate builds its n + M
innovations as one array.  A one-segment plan reads its whole window of
n + M inputs as one block, as its one transform needs.

At the cap (M = 2^22, reached for p >= 2) an array as long as the filter
takes 33.5 MB, so the set-up writes each one it keeps once, in place, from
chunk- or block-sized pieces: the coefficients (``CoefficientModel.build``,
chunks of ``_CHUNK_POINTS``), each power's segment spectra
(``FilterPlan._spectrum``, blocks of about ``_BLOCK_POINTS`` taps) and the
window sums w_p (``window_sums``, chunks of ``_CHUNK_POINTS``).  These
builders make no other array as long as the filter.  Each piece goes
through the elementwise operations, transform length and summation tree
of one pass over the whole array, so the results are the same bytes; the
same holds for the row blocks of ``FilterPlan.stream``.

Importing this module raises glibc's mmap and trim thresholds once, before
the package allocates (``_raise_mmap_threshold``), so those pieces and a
replicate's arrays reuse heap pages at every entry point: a study's set-up
and replicates, ``sigma_n1_exact``, ``simulate_path`` and the CLI.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy.special import beta as beta_fn, betainc, zeta

from .errors import ConfigError, DomainError, TruncationWarning
from .model import (
    _CHUNK_POINTS,
    _gauss_kronrod,
    CoefficientModel,
    GaussianMarginal,
    InnovationDist,
    MarginalX,
    SlowlyVaryingFn,
    SvConstant,
    TargetMarginalY,
    subordinate,
)

# hard cap on the truncation length; binding the cap is reported
M_CAP = 2**22

DEFAULT_TRUNC_TOL = 1e-3

# the filter is partitioned when M + 1 >= _PARTITION_MIN_PATHS * n, into
# segments of _SEGMENT_PATHS * n taps (see the module docstring)
_PARTITION_MIN_PATHS = 32
_SEGMENT_PATHS = 4

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

    Uses the integral bound sum_{k>M} k^-2beta <= M^(1-2beta)/(2beta-1)
    scaled by L0(M)^2, against the running partial sum of the total (which
    only makes the choice of M conservative).  Capped at 2^22.
    """
    if not 0.5 < beta < 1.0:
        raise DomainError("beta must lie in (1/2, 1)")
    if not 0.0 < tol < 1.0:
        raise DomainError("tol must be a variance fraction in (0, 1)")
    if L0 is None:
        L0 = SvConstant(1.0)

    if isinstance(L0, SvConstant):
        total = 1.0 + L0.c**2 * float(zeta(2.0 * beta))

        def tail_bound(M):
            return L0.c**2 * M ** (1.0 - 2.0 * beta) / (2.0 * beta - 1.0)

        M = int(math.ceil((tol * total * (2.0 * beta - 1.0) / L0.c**2) ** (1.0 / (1.0 - 2.0 * beta))))
        M = max(M, 1)
        if M > M_CAP:
            warnings.warn(
                f"truncation length {M} exceeds the cap 2^22; capped (neglected "
                f"variance fraction {tail_bound(M_CAP) / total:.2e})",
                TruncationWarning,
                stacklevel=2,
            )
            return M_CAP
        return M

    # general L0: grow the partial sum in blocks until the bound clears
    partial = 1.0
    M = 1
    block = 4096
    while True:
        k = np.arange(M, min(M + block, M_CAP) + 1, dtype=float)
        ck2 = k ** (-2.0 * beta) * L0._eval(k) ** 2
        csum = partial + np.cumsum(ck2)
        bounds = L0._eval(k) ** 2 * k ** (1.0 - 2.0 * beta) / (2.0 * beta - 1.0)
        ok = bounds <= tol * csum
        if np.any(ok):
            return int(k[np.argmax(ok)])
        partial = float(csum[-1])
        M = int(k[-1]) + 1
        if M > M_CAP:
            warnings.warn(
                "truncation length exceeds the cap 2^22; capped",
                TruncationWarning,
                stacklevel=2,
            )
            return M_CAP
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
    rng = np.random.default_rng(seed)
    return dist.sample(count, rng)


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


def window_sums(a: np.ndarray, n: int, m: int = 1) -> np.ndarray:
    """s[j] = a[j-n+1]**m + ... + a[j]**m for j = 0..len(a)+n-2, entries outside ``a`` counting as 0.

    Pairwise doubling: level h holds the sums of h consecutive entries, and
    level 2h adds two neighbours of level h.  A window takes the levels of
    the binary digits of n, lowest first, so each sum is a tree of depth at
    most floor(log2 n) + 1 and, on input of one sign, lies within
    (ceil(log2 n) + 1) * 2^-53 of exact.  The output is cut into chunks of
    about ``_CHUNK_POINTS`` so each level stays in cache; every sum has the
    same tree whatever the chunk, so the result does not depend on it.

    Level 0 of a chunk is raised to the power m straight from ``a`` as
    given (a view such as the reversed taps, with the power taken on that
    layout), with zeros where the windows run past either end of ``a``.
    Apart from the output, the only arrays built are two chunk buffers of
    T + n - 1 points, T = max(_CHUNK_POINTS, n).
    """
    a = np.asarray(a, dtype=float)
    if n < 1:
        raise DomainError("window length n must be >= 1")
    size = a.size + n - 1
    out = np.empty(size)
    T = max(_CHUNK_POINTS, n)
    spare, other = np.empty(T + n - 1), np.empty(T + n - 1)
    for lo in range(0, size, T):
        t = min(T, size - lo)
        # level 0 holds a[lo-n+1 .. lo+t-1] ** m; level[i] is a[lo+i-n+1]
        level, acc = other[: t + n - 1], out[lo : lo + t]
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
    (``array_source``); ``apply(eps, m)`` is the pass on an array.
    ``sigma_n1`` takes sigma_{n,1} from the power-1 spectra and the taps
    around the segment boundaries, with no further transform of the taps,
    so the taps are transformed here only, once per filtered power.
    ``autocovariances`` gives the exact lags 0..min(n-1, M) from the same
    spectra, as a reference for tests; no study's set-up calls it.

    The taps are cut into ``S`` segments of ``B`` taps by the rule of the
    module docstring (B = 4 n when M + 1 >= 32 n, else B = M + 1), after
    S * B - (M + 1) zero taps in front.  Row r of a power's ``(S, L//2+1)``
    spectrum array is the segment that meets the innovation window
    eps[r B : r B + n + B - 1], so the padded segment is the last row; its
    window runs past the end of eps by as many entries, and the zeros that
    rfft pads there meet only the zero taps.  With S = 1 this is the plain
    transform at next_fast_len(n + M).  A length-one filter (M = 0) is a
    pointwise product and needs no FFT, so its ``spectra`` hold the scalars
    c_0**m.

    ``_spectrum(m)`` builds a power's spectra a block of rows at a time: it
    raises the block's segments (rows reversed, the pad zeros in front of
    the last) to the power m into one reused ``(rows, L)`` buffer whose
    last L - B columns stay zero, with rows = max(1, _BLOCK_POINTS // L),
    and writes the block's rfft into the preallocated ``(S, L//2+1)``
    array.  ``with_order`` builds the window sums of the reversed taps
    raised to ``order`` with ``window_sums``, which takes the power chunk
    by chunk.  Neither makes another array as long as the filter.
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
    def build(cls, c, n: int, order: int = 1) -> "FilterPlan":
        c = np.asarray(c, dtype=float)
        if n < 1:
            raise DomainError("n must be >= 1")
        M = len(c) - 1
        B = _SEGMENT_PATHS * n if M + 1 >= _PARTITION_MIN_PATHS * n else M + 1
        L = sfft.next_fast_len(n + B - 1, real=True)
        return cls(n=n, M=M, B=B, L=L, taps=c, spectra=()).with_order(order)

    def with_order(self, order: int) -> "FilterPlan":
        """This plan raised or lowered to ``order``; the spectra it holds are kept, not recomputed."""
        if order < 1:
            raise DomainError("filter order must be >= 1")
        filtered = max(order - 1, 1)
        kept = self.spectra[:filtered]
        spectra = kept + tuple(self._spectrum(m) for m in range(len(kept) + 1, filtered + 1))
        if order == self.order:
            weights = self.weights
        else:
            # eps[j] meets the taps M-j .. M-j+n-1: windows of n reversed taps
            weights = window_sums(self.taps[::-1], self.n, order) if order >= 2 else None
        return replace(self, spectra=spectra, order=order, weights=weights)

    def _spectrum(self, m: int):
        if self.M == 0:
            return float(self.taps[0]) ** m
        B, L, taps = self.B, self.L, self.taps
        S = -(-(self.M + 1) // B)
        pad = S * B - (self.M + 1)
        out = np.empty((S, L // 2 + 1), dtype=complex)
        rows = max(1, _BLOCK_POINTS // L)
        # row r holds taps (S-1-r) B - pad .. (S-r) B - pad - 1 raised to the power m,
        # then L - B zeros that no block overwrites
        buf = np.zeros((min(rows, S), L))
        for lo in range(0, S, rows):
            block = buf[: min(rows, S - lo)]
            whole = min(len(block), S - 1 - lo)  # every row but the padded last one
            end = (S - lo) * B - pad  # one past the last tap of row lo
            _power(taps[end - whole * B : end].reshape(whole, B)[::-1], m, block[:whole, :B])
            if whole < len(block):  # the last row: the pad zeros, then taps 0..B-pad-1
                block[-1, :pad] = 0.0
                _power(taps[: B - pad], m, block[-1, pad:B])
            out[lo : lo + len(block)] = sfft.rfft(block, axis=-1)
        return out

    def _check_length(self, eps: np.ndarray) -> None:
        if len(eps) != self.n + self.M:
            raise DomainError(f"innovation vector has length {len(eps)}, expected n + M = {self.n + self.M}")

    def stream(self, source) -> PowerSums:
        """The filtered paths p_1..p_f, f = max(order-1, 1), and for order >= 2 the total of p_order, in one pass.

        ``source(out, start)`` writes the inputs start .. start+len(out)-1
        (the M pre-sample innovations first, n + M in all) into ``out``; the
        pass asks for each input once, in order.  It advances a row block at
        a time: rows = max(1, _BLOCK_POINTS // L) segment windows, that is
        rows * B new inputs after the n - 1 the block shares with the one
        before, in one reused buffer.  For each filtered power m it raises
        the block to the power m, transforms the windows of its full rows
        in one batched rfft, multiplies them by their spectra and holds the
        sum of the rows.  The padded last row comes with the last block: its
        product starts the sum, the held block sums follow in order, and one
        irfft gives the path.  For order >= 2 the same inputs, raised to the
        power order and weighted by ``weights``, are summed in chunks of
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
        held = [[] for _ in self.spectra]
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
                    spec = sfft.rfft(sliding_window_view(e[: full * B + n - 1], n + B - 1)[::B], L, axis=-1)
                    spec *= C[lo : lo + full]
                    held[i].append(spec.sum(axis=0))
                    del spec  # freed before the next block's transform is allocated
                if hi < S:
                    continue
                # the last row: inputs (S-1) B .. n+M-1, zero-padded by rfft
                last = e[(S - 1 - lo) * B :]
                if M == 0:
                    paths[i] = C * last
                    continue
                spec = sfft.rfft(last, L)
                spec *= C[S - 1]
                for part in held[i]:
                    spec += part
                # a copy, so the result does not pin the length-L buffer
                paths[i] = sfft.irfft(spec, L)[B - 1 : B - 1 + n].copy()
            if top:
                # the block's new inputs done .. end-1, cut where the chunks of the top total end
                for first in range(done - done % _CHUNK_POINTS, end, _CHUNK_POINTS):
                    a, b = max(first, done), min(first + _CHUNK_POINTS, end)
                    piece = prod[a - first : b - first]
                    np.power(buf[a - base : b - base], top, out=piece)
                    piece *= self.weights[a:b]
                    if b == min(first + _CHUNK_POINTS, size):  # the chunk is complete
                        parts[first // _CHUNK_POINTS] = np.sum(prod[: b - first])
            done = end
        return PowerSums(tuple(paths), float(np.sum(parts)) if top else None)

    def apply(self, eps: np.ndarray, m: int = 1) -> np.ndarray:
        """p_m[1..n] of the innovation array ``eps``: the pass on ``array_source(eps)``."""
        self._check_length(eps)
        if not 1 <= m <= len(self.spectra):
            raise DomainError(f"a plan of order {self.order} filters the powers 1..{len(self.spectra)}, not {m}")
        return self.stream(array_source(eps)).paths[m - 1]

    def autocovariances(self, sigma_eps2: float) -> np.ndarray:
        """sigma_eps^2 * sum_j c_j c_{j+k} at the lags k = 0..min(n-1, M).

        One segment reads them off its own spectrum as irfft(|C|^2, L): a
        circular autocorrelation of length L >= n + M does not wrap on lags
        below n.  Several segments stream the reversed taps followed by
        n - 1 zeros, [c_M, ..., c_0, 0, ...], through the power-1 pass;
        its output i is sum_{k>=i} c_k c_{k-i}.
        """
        C = self.spectra[0]
        if self.M > 0 and len(C) == 1:
            acorr = sfft.irfft(C[0].real**2 + C[0].imag**2, self.L)
        else:
            acorr = self.with_order(1).stream(array_source(self.taps[::-1])).paths[0]
        return sigma_eps2 * acorr[: min(self.n - 1, self.M) + 1]

    def sigma_n1(self, sigma_eps2: float) -> float:
        """sigma_{n,1} = sqrt(Var(sum_{i<=n} X_i)) = sqrt(sigma_eps^2 ||w||^2), w = c (*) 1_n, from the power-1 spectra.

        w is the window sums of n taps, so it is the sum of the pieces
        a_s (*) 1_n of the plan's segments a_s, B apart.  Consecutive pieces
        overlap on n - 1 entries and no others meet (n - 1 < B), so

            ||w||^2 = sum_s ||a_s (*) 1_n||^2 + 2 sum_s <suf_s, pre_{s+1}>,

        where suf_s[t] sums the last n-1-t taps of a_s and pre_{s+1}[t] the
        first t+1 of a_{s+1}.  Since B + n - 1 <= L, Parseval gives the first
        term from the spectra: (1/L) sum_f g_f |D_f|^2 sum_s |A_s(f)|^2, with
        D = rfft(1_n, L) and g_f = 1 for a bin without a conjugate twin (DC,
        and Nyquist at even L), 2 for the others.  The spectra are read in
        row blocks of rows = max(1, _BLOCK_POINTS // L) segments, and the
        strips of 2 (n - 1) taps around the boundaries as many at a time, so
        no array as long as the filter is made.  One segment has no boundary.
        """
        n, M, B, L, taps = self.n, self.M, self.B, self.L, self.taps
        C = self.spectra[0]
        if M == 0:
            return math.sqrt(sigma_eps2 * (n * C**2))
        S = len(C)
        D = sfft.rfft(np.ones(n), L)
        weight = np.square(D.real) + np.square(D.imag)
        weight[1 : (L + 1) // 2] *= 2.0
        rows = max(1, _BLOCK_POINTS // L)
        parts = []
        for lo in range(0, S, rows):
            power = np.square(C[lo : lo + rows].real)
            power += np.square(C[lo : lo + rows].imag)
            power *= weight
            parts.append(np.sum(power) / L)
        k = n - 1
        if S > 1 and k:
            pad = S * B - (M + 1)
            # the strip of taps k before to k after the first boundary, zero where it
            # reaches into the pad; those of the other S - 2 boundaries lie within the taps
            first = B - pad - k
            lead = np.zeros((1, 2 * k))
            lead[0, max(-first, 0) :] = taps[max(first, 0) : B - pad + k]
            parts.append(2.0 * _strip_cross(lead, k))
            if S > 2:
                # the other strips, a row block of them at a time (2 k < L taps a strip)
                strips = sliding_window_view(taps[first + B :], 2 * k)[::B]
                parts.extend(2.0 * _strip_cross(strips[lo : lo + rows], k) for lo in range(0, S - 2, rows))
        return math.sqrt(sigma_eps2 * math.fsum(parts))

    def sigma_n1_shorter(self, sigma_eps2: float, ns) -> np.ndarray:
        """sigma_{n,1} at window lengths n < self.n, from a one-segment plan's spectrum.

        The plan's L >= self.n + M > n + M, so c (*) 1_n does not wrap in
        length L, and Parseval gives ||w||^2 = (1/L) sum_f g_f |D_f|^2 |C(f)|^2
        as in ``sigma_n1``, with D = rfft(1_n, L) of each n.  Its modulus is
        the Dirichlet kernel, |D_f|^2 = sin^2(pi f n / L) / sin^2(pi f / L)
        (n^2 at f = 0), taken in closed form from one table of
        sin^2(pi r / L), r = 0..L/2: sin^2 has period pi and is even about
        pi/2, so the numerator is the entry at r = (f n mod L) folded into
        [0, L/2], reduced exactly in integers.  So the table and
        g |C|^2 / sin^2(pi f / L) are computed once for all sizes, and each
        size costs one gather and one sum, with no transform.
        """
        ns = np.asarray(ns)
        C, L = self.spectra[0], self.L
        if np.any(ns < 1) or np.any(ns >= self.n) or (self.M > 0 and len(C) > 1):
            raise DomainError(f"a plan at n = {self.n} with a partitioned filter or n at or above it does not serve n = {ns}")
        if self.M == 0:
            return np.sqrt(sigma_eps2 * (ns * C**2))
        bins = np.arange(L // 2 + 1)
        sin2 = np.square(np.sin(bins * (math.pi / L)))
        power = np.square(C[0].real)
        power += np.square(C[0].imag)
        power[1 : (L + 1) // 2] *= 2.0
        power[1:] /= sin2[1:]
        out = []
        for n in ns.tolist():
            r = bins[1:] * n % L
            np.minimum(r, L - r, out=r)
            weighted = sin2[r]
            weighted *= power[1:]
            out.append(math.sqrt(sigma_eps2 * ((float(n) ** 2 * power[0] + np.sum(weighted)) / L)))
        return np.array(out)


def _strip_cross(strips: np.ndarray, k: int) -> float:
    """sum over rows of <suffix sums of the first k entries, prefix sums of the last k>, the overlap of two pieces."""
    suffix = np.cumsum(strips[:, k - 1 :: -1], axis=1)[:, ::-1]
    prefix = np.cumsum(strips[:, k:], axis=1)
    prefix *= suffix
    return float(np.sum(prefix))


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
    return FilterPlan.build(c, n).apply(eps)


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

    For Gaussian innovations the declared marginal must be Gaussian with
    s^2 = sigma_eps^2 * sum c_k^2 (relative deviation <= 1e-6).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if dist.kind == "gaussian":
        if not isinstance(mx, GaussianMarginal):
            raise ConfigError("Gaussian innovations require a Gaussian X marginal")
        s_expected = dist.sigma_eps * math.sqrt(coeffs.total_square_sum)
        if abs(mx.s - s_expected) > 1e-6 * s_expected:
            raise ConfigError(
                f"marginal std {mx.s!r} inconsistent with model value {s_expected!r} "
                "(sigma_eps^2 * sum c_k^2)"
            )
    x = FilterPlan.build(coeffs.c, n).stream(innovation_source(dist, seed)).paths[0]
    y = subordinate(mx, ty, x)
    return PathPair(x=x, y=np.atleast_1d(y), seed=seed, spec_hash=config_hash(coeffs, dist, mx, ty, n))


def autocovariance(c: np.ndarray, sigma_eps2: float, k: int) -> float:
    """Exact lag-k autocovariance of the truncated model, sigma_eps^2 * sum_j c_j c_{j+k}.

    Lags beyond the truncation length return 0.0 with a TruncationWarning.
    """
    c = np.asarray(c, dtype=float)
    M = len(c) - 1
    if k < 0:
        raise DomainError("lag must be >= 0")
    if k > M:
        warnings.warn(f"lag {k} exceeds truncation length {M}; returning 0", TruncationWarning, stacklevel=2)
        return 0.0
    return float(sigma_eps2 * np.dot(c[: M - k + 1], c[k:]))


def autocovariances(c: np.ndarray, sigma_eps2: float, kmax: int) -> np.ndarray:
    """Lags 0..kmax of the exact truncated-model autocovariance.

    Lags 0..min(kmax, M) come from ``FilterPlan.autocovariances`` on the
    plan at n = min(kmax, M) + 1, so the cost follows the lags asked for;
    lags beyond M are 0.
    """
    c = np.asarray(c, dtype=float)
    out = np.zeros(kmax + 1)
    rho = FilterPlan.build(c, min(kmax, len(c) - 1) + 1).autocovariances(sigma_eps2)
    out[: rho.size] = rho
    return out


def autocovariance_model(beta: float, L0: SlowlyVaryingFn | None, M: int, k: int, sigma_eps2: float = 1.0) -> float:
    """Theoretical lag-k autocovariance of the untruncated model.

    Sums c_j c_{j+k} exactly for j <= M - k and adds the analytic tail
    integral over j > M - k (closed incomplete-beta form for constant L0,
    quadrature otherwise).  This is the model quantity rho_k whose scaled
    limit is the beta-function constant; the truncated-path value is
    ``autocovariance``.
    """
    if L0 is None:
        L0 = SvConstant(1.0)
    if k < 1 or k > M:
        raise DomainError("need 1 <= k <= M")
    j = np.arange(1, M - k + 1, dtype=float)
    partial = float(k**-beta * L0._eval(np.array([float(k)]))[0]) + float(
        np.sum(j**-beta * L0._eval(j) * (j + k) ** -beta * L0._eval(j + k))
    )
    a = M - k + 0.5  # midpoint continuation of the discrete sum
    if isinstance(L0, SvConstant):
        x = k / (k + a)
        tail = L0.c**2 * k ** (1.0 - 2.0 * beta) * beta_fn(2.0 * beta - 1.0, 1.0 - beta) * betainc(
            2.0 * beta - 1.0, 1.0 - beta, x
        )
    else:
        # map (a, inf) to (0, 1] by x = a/t
        def integrand(t):
            x = a / t
            return a / t**2 * x**-beta * L0._eval(x) * (x + k) ** -beta * L0._eval(x + k)

        tail, _ = _gauss_kronrod(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=400)
    return sigma_eps2 * (partial + float(tail))


def sigma_n1_exact(c: np.ndarray, sigma_eps2: float, n):
    """Exact sigma_{n,1} = sqrt(Var(sum_{i<=n} X_i)) for the truncated model.

    ``FilterPlan.sigma_n1`` on power-1 plans, at each distinct
    min(n, M + 1).  Past M + 1 the window sums w of n taps are those of
    M + 1 taps with n - M - 1 more entries equal to sum c, so the plan at
    M + 1 serves every larger n, adding (n - M - 1) sigma_eps^2 (sum c)^2.
    ``n`` may be a sequence of sizes: the result is then an array.  The
    sizes whose plan is one segment (M + 1 < 32 n) are all served by the
    plan of the largest of them, so a grid transforms the taps once for
    them; each partitioned size builds its own plan.  A single n, and the
    largest one-segment size of a grid, take the plan a study's bundle
    builds at that n, and its value; the smaller one-segment sizes of a
    grid sum over a longer transform and may differ from their single-n
    value in the last bits.
    """
    ns = np.atleast_1d(np.asarray(n))
    if ns.ndim != 1 or ns.size == 0 or not np.issubdtype(ns.dtype, np.integer):
        raise DomainError("n must be an integer or a non-empty sequence of integers")
    if np.any(ns < 1):
        raise DomainError("n must be >= 1")
    c = np.asarray(c, dtype=float)
    capped = np.minimum(ns, len(c))
    sizes, where = np.unique(capped, return_inverse=True)
    # the one-segment sizes are the largest ones: M + 1 < 32 n
    first = int(np.searchsorted(_PARTITION_MIN_PATHS * sizes, len(c), side="right"))
    vals = [FilterPlan.build(c, int(size)).sigma_n1(sigma_eps2) for size in sizes[:first]]
    if first < sizes.size:
        shared = FilterPlan.build(c, int(sizes[-1]))
        vals += [*shared.sigma_n1_shorter(sigma_eps2, sizes[first:-1]), shared.sigma_n1(sigma_eps2)]
    out = np.array(vals)[where]
    # the plateau entries past M + 1
    over = ns > capped
    if over.any():
        out[over] = np.hypot(out[over], np.sqrt((ns[over] - capped[over]) * sigma_eps2) * abs(math.fsum(c)))
    return float(out[0]) if np.ndim(n) == 0 else out


def dump_path_csv(pp: PathPair, path) -> None:
    """Write the path as CSV with header ``i,x,y`` (shortest round-trip floats)."""
    with open(path, "w", newline="") as fh:
        fh.write("i,x,y\n")
        for i in range(pp.n):
            fh.write(f"{i + 1},{float(pp.x[i])!r},{float(pp.y[i])!r}\n")

