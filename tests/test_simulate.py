"""Tests for path generation, truncation, and second-moment bookkeeping."""

import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy.special import beta as beta_fn, betainc

from lrdextremes import simulate
from lrdextremes.errors import ConfigError, DomainError, TruncationWarning
from lrdextremes.model import (
    _gauss_kronrod,
    CoefficientModel,
    GaussianMarginal,
    IdentityTarget,
    InnovationDist,
    ParetoTarget,
    SvConstant,
    SvLogPower,
    SvNumeric,
)
from lrdextremes.estats import multilinear_sums
from lrdextremes.simulate import (
    M_CAP,
    FilterPlan,
    array_source,
    build_coefficient_model,
    derive_seed,
    dump_path_csv,
    gen_innovations,
    innovation_source,
    model_lags,
    moving_average,
    sigma_n1_exact,
    simulate_path,
    truncation_length,
    window_sums,
)


def lag_oracle(c, sigma_eps2, k):
    """Scalar oracle for the truncated model's lag k: sigma_eps^2 * sum_j c_j c_{j+k}, summed exactly."""
    c = np.asarray(c, dtype=float)
    return sigma_eps2 * math.fsum(c[: c.size - k] * c[k:])


def pairwise_sigma_oracle(c, sigma_eps2, n):
    """sigma_{n,1} = sqrt(sum_{|k|<n} (n - |k|) rho_k) over the lags of ``lag_oracle``, summed exactly.

    A route that takes no window sums.
    """
    kmax = min(n - 1, len(c) - 1)
    pairs = [2.0 * (n - k) * lag_oracle(c, sigma_eps2, k) for k in range(1, kmax + 1)]
    return math.sqrt(math.fsum([n * lag_oracle(c, sigma_eps2, 0), *pairs]))


def running_sum_sigma_oracle(c, sigma_eps2, n):
    """sigma_{n,1} = sqrt(sigma_eps^2 sum_j w[j]^2), w[j] a difference of two long-double running sums of c.

    A route that takes no ``window_sums``.
    """
    M = len(c) - 1
    run = np.concatenate([[0.0], np.cumsum(np.asarray(c, dtype=np.longdouble))])
    j = np.arange(M + n)
    w = run[np.minimum(j, M) + 1] - run[np.maximum(j - n + 1, 0)]
    return math.sqrt(sigma_eps2 * float(np.sum(w * w)))


def model_lag_oracle(beta, L0, M, k, sigma_eps2=1.0):
    """Scalar oracle for the untruncated model's lag k, 1 <= k <= M, O(M) per lag.

    Sums c_j c_{j+k} directly for j <= M - k and adds the tail integral over
    j > M - k from the midpoint M - k + 1/2: the closed incomplete-beta form
    for a constant L0, quadrature otherwise.
    """
    j = np.arange(1, M - k + 1, dtype=float)
    partial = float(k**-beta * L0._eval(np.array([float(k)]))[0]) + float(
        np.sum(j**-beta * L0._eval(j) * (j + k) ** -beta * L0._eval(j + k))
    )
    a = M - k + 0.5
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


def direct_convolution(c, eps):
    """Brute-force O(nM) oracle for the moving average."""
    c = np.asarray(c, dtype=float)
    eps = np.asarray(eps, dtype=float)
    M = len(c) - 1
    n = len(eps) - M
    out = np.empty(n)
    for i in range(n):
        # X_i = sum_k c_k eps_{i-k}; eps index of eps_s is s + M - 1 (1-based s)
        window = eps[i : i + M + 1][::-1]
        out[i] = float(np.dot(c, window))
    return out


class TestTruncationLength:
    def test_reference_value(self):
        # solve M^(-1/2)/(1/2) <= tol * (1 + zeta(3/2)) by hand: ~3.06e5
        M = truncation_length(0.75, SvConstant(1.0), 1e-3)
        assert 2.9e5 <= M <= 3.3e5

    def test_monotone_in_beta(self):
        assert truncation_length(0.99, tol=1e-3) < truncation_length(0.75, tol=1e-3)

    def test_bound_holds_by_direct_summation(self):
        tol = 0.5
        M = truncation_length(0.75, SvConstant(1.0), tol)
        assert M < 100
        k = np.arange(1, 10**7, dtype=float)
        ck2 = k**-1.5
        total = 1.0 + float(np.sum(ck2))
        neglected = float(np.sum(ck2[M:]))
        assert neglected <= tol * total

    def test_tol_domain(self):
        for bad in (0.0, -1e-3, 1.0, 2.0):
            with pytest.raises(DomainError):
                truncation_length(0.75, tol=bad)

    def test_l0_without_a_tail_bound_is_refused(self):
        # the bound frozen at L0(M) holds only for a falling L0, so no other slowly varying part is guessed at
        with pytest.raises(DomainError, match="no tail bound"):
            truncation_length(0.75, SvNumeric(np.sqrt))

    def test_cap_warns(self):
        with pytest.warns(TruncationWarning):
            M = truncation_length(0.51, tol=1e-3)
        assert M == M_CAP

    def test_general_l0_bound(self):
        L0 = SvLogPower(1.0, 0.5)
        M = truncation_length(0.75, L0, 0.01)
        k = np.arange(1, 10**7, dtype=float)
        ck2 = k**-1.5 * np.maximum(np.log(k), 1.0)
        total = 1.0 + float(np.sum(ck2))
        assert float(np.sum(ck2[M:])) <= 0.011 * total


class TestInnovationGeneration:
    def test_deterministic(self):
        d = InnovationDist.gaussian(1.0)
        a = gen_innovations(d, 1000, 42)
        b = gen_innovations(d, 1000, 42)
        np.testing.assert_array_equal(a, b)

    def test_gaussian_mean_clt_band(self):
        d = InnovationDist.gaussian(1.0)
        x = gen_innovations(d, 10**6, 123)
        assert abs(float(np.mean(x))) < 0.004  # 4 sigma / sqrt(n)

    def test_student_t_variance_band(self):
        d = InnovationDist.student_t(5.0, 1.0)
        x = gen_innovations(d, 10**6, 99)
        assert abs(float(np.var(x)) - 1.0) < 0.1

    def test_count_domain(self):
        with pytest.raises(DomainError):
            gen_innovations(InnovationDist.gaussian(), 0, 1)


class TestMovingAverage:
    def test_tiny_example(self):
        # c = (1, 0.5), prehistory eps_0 = 2, then eps_1 = 1, eps_2 = 3
        x = moving_average(np.array([1.0, 0.5]), np.array([2.0, 1.0, 3.0]))
        np.testing.assert_allclose(x, [1.0 + 0.5 * 2.0, 3.0 + 0.5 * 1.0])

    def test_identity_filter(self):
        eps = np.arange(10.0)
        np.testing.assert_array_equal(moving_average(np.array([1.0]), eps), eps)

    def test_fft_matches_direct(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(0.1, 1.0, size=64)
        eps = rng.standard_normal(256 + 63)
        fft_path = moving_average(c, eps)
        direct = direct_convolution(c, eps)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fft_path - direct)) <= 1e-10 * scale

    @given(st.integers(1, 32), st.integers(0, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fft_matches_direct_property(self, n, M, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.01, 2.0, size=M + 1)
        eps = rng.standard_normal(n + M)
        scale = max(1.0, float(np.max(np.abs(direct_convolution(c, eps)))))
        assert np.max(np.abs(moving_average(c, eps) - direct_convolution(c, eps))) <= 1e-10 * scale

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            moving_average(np.ones(5), np.ones(3))

    @pytest.mark.parametrize(
        "n,M,segments",
        [(1, 30, 1), (1, 31, 8), (1, 3000, 751), (64, 2046, 1), (64, 2047, 8), (64, 3000, 12), (64, 2**18 + 5, 1021)],
    )
    def test_partition_rule(self, n, M, segments):
        # once M + 1 >= 32 n, segments of at least 4 n taps that fill their transform (B = 4 at
        # n = 1, 257 at n = 64), else one segment of M + 1 taps
        plan = FilterPlan.build(np.ones(M + 1), n)
        assert len(plan.spectra[0]) == segments
        if segments > 1:
            assert plan.B + n - 1 == plan.L and plan.B >= 4 * n
        else:
            assert plan.B == M + 1

    @pytest.mark.parametrize(
        "n,M",
        [
            (1, 3000),  # a single output of a long filter: B = 4, M + 1 not a multiple
            (500, 0),  # identity-length filter
            (1024 - 200, 200),  # n + M is a fast length: L = n + M exactly
            (1025 - 200, 200),  # one above: L > n + M
            (1, 31),  # n = 1 with M + 1 = 32 n
            (64, 32 * 64 - 1),  # M + 1 = 32 n: the shortest partitioned filter
            (64, 32 * 64 - 2),  # M + 1 = 32 n - 1: one segment
            (64, 8 * 257 - 1),  # segments of B = 257 fill the taps exactly
            (64, 3000),  # M + 1 not a multiple of B = 257
            (64, 2**18 + 5),  # more windows than one row block
        ],
    )
    def test_filter_length_edges(self, n, M):
        rng = np.random.default_rng(n + 7 * M)
        c = rng.uniform(0.05, 1.0, M + 1)
        eps = rng.standard_normal(n + M)
        x = moving_average(c, eps)
        direct = direct_convolution(c, eps)
        assert x.shape == (n,)
        assert x.flags.owndata
        assert np.max(np.abs(x - direct)) <= 1e-10 * np.max(np.abs(direct))


def product_apply(plan, eps, m=1):
    """The pass on the array ``eps`` with a fresh array for every spectrum product: the plain formula the in-place one matches.

    The row blocks' sums are added in order, and the padded last row's product last.
    """
    e = eps if m == 1 else eps**m
    n, B, L, C = plan.n, plan.B, plan.L, plan.spectra[m - 1]
    last = len(C) - 1
    windows, full = sliding_window_view(e, n + B - 1)[: last * B : B], C[:last]
    rows = max(1, simulate._BLOCK_POINTS // L)
    spec = None
    for lo in range(0, last, rows):
        part = (sfft.rfft(windows[lo : lo + rows], L, axis=-1) * full[lo : lo + rows]).sum(axis=0)
        spec = part if spec is None else spec + part
    product = sfft.rfft(e[last * B :], L) * C[last]
    spec = product if spec is None else spec + product
    return sfft.irfft(spec, L)[B - 1 : B - 1 + n]


class TestInPlaceKernels:
    """The in-place forms of the replicate kernels give the bytes of the plain formulas."""

    def test_unit_innovations_are_the_standard_draw(self):
        expected = np.random.default_rng(99).standard_normal(5000)
        assert gen_innovations(InnovationDist.gaussian(1.0), 5000, 99).tobytes() == expected.tobytes()

    def test_innovations_match_the_scaled_draw(self):
        rng = np.random.default_rng(99)
        expected = 1.7 * rng.standard_normal(5000)
        assert gen_innovations(InnovationDist.gaussian(1.7), 5000, 99).tobytes() == expected.tobytes()
        rng = np.random.default_rng(99)
        expected = 0.8 * math.sqrt((6.0 - 2.0) / 6.0) * rng.standard_t(6.0, size=5000)
        assert gen_innovations(InnovationDist.student_t(6.0, 0.8), 5000, 99).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n,M", [(64, 3000), (64, 2046), (64, 2**18 + 5), (200, 50)])
    def test_apply_matches_the_product_formula(self, n, M):
        rng = np.random.default_rng(n + M)
        c = rng.uniform(0.05, 1.0, M + 1)
        eps = rng.standard_normal(n + M)
        plan = FilterPlan.build(c, n, 3)
        paths = plan.stream(array_source(eps)).paths
        for m in (1, 2):
            assert paths[m - 1].tobytes() == product_apply(plan, eps, m).tobytes()


def whole_array_top_total(plan, eps, m):
    """sum_j eps_j^m w_m[j] over the whole array: chunks of _CHUNK_POINTS from index 0, each summed, then the sums."""
    chunk = simulate._CHUNK_POINTS
    parts = [np.sum(eps[lo : lo + chunk] ** m * plan.weights[lo : lo + chunk]) for lo in range(0, eps.size, chunk)]
    return float(np.sum(parts))


class TestStream:
    """The pass reads its input a row block at a time and gives the bytes of the whole-array formulas."""

    @pytest.mark.parametrize("dist", [InnovationDist.gaussian(1.7), InnovationDist.student_t(6.0, 0.8)])
    def test_draw_in_pieces_is_the_whole_draw(self, dist):
        pieces = np.empty(5000)
        read = innovation_source(dist, 99)
        for lo, hi in [(0, 1), (1, 1000), (1000, 1001), (1001, 3333), (3333, 5000)]:
            read(pieces[lo:hi], lo)
        assert pieces.tobytes() == gen_innovations(dist, 5000, 99).tobytes()

    # one segment (M = 0 too); partitioned with S = 1021 segments > 819 rows a block;
    # S = 77 segments of 65 taps (4 pad taps) in blocks of 1, 2, 3 and 100 rows, where the padded row
    # comes alone (1 and 2), with others (3) or in the only block (100); S = 79 (15 pad taps), the
    # padded row alone in a block of 3; S = 80 with no pad taps
    GEOMETRIES = [
        (64, 1000, None),
        (200, 50, None),
        (5, 0, None),
        (64, 2**18 + 5, None),
        (16, 5000, 1),
        (16, 5000, 2),
        (16, 5000, 3),
        (16, 5000, 100),
        (16, 64 * 80 - 1, 3),
        (16, 65 * 80 - 1, 3),
    ]

    @pytest.mark.parametrize("n,M,rows", GEOMETRIES)
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_stream_matches_the_whole_array_formulas(self, n, M, rows, p, monkeypatch):
        plan = FilterPlan.build(np.random.default_rng(n + M).uniform(0.05, 1.0, M + 1), n, p)
        if rows is not None:
            monkeypatch.setattr(simulate, "_BLOCK_POINTS", rows * plan.L)
        dist = InnovationDist.gaussian(1.3)
        eps = gen_innovations(dist, n + M, 7)
        sums = plan.stream(innovation_source(dist, 7))
        from_array = plan.stream(array_source(eps)).paths
        assert len(sums.paths) == max(p - 1, 1)
        for m, path in enumerate(sums.paths, start=1):
            assert path.tobytes() == product_apply(plan, eps, m).tobytes()
            assert from_array[m - 1].tobytes() == path.tobytes()
        if p == 1:
            assert sums.top_total is None
        else:
            assert np.float64(sums.top_total).tobytes() == np.float64(whole_array_top_total(plan, eps, p)).tobytes()

    def test_peak_does_not_grow_with_the_row_blocks(self, monkeypatch):
        # n = 2^6 (L = 320, B = 257) in row blocks of 2 windows: 150 and 1500 row blocks, both
        # past one chunk of the top total.  A pass of order 3 holds one row block, one running
        # spectrum per filtered power and one chunk, so its traced peak is the same for both;
        # holding a sum per row block would add 2 * 1350 spectra, 6.9 MB
        dist, peaks = InnovationDist.gaussian(1.0), []
        for S in (300, 3000):
            plan = FilterPlan.build(np.random.default_rng(S).uniform(0.05, 1.0, S * 257), 2**6, 3)
            assert (len(plan.spectra[0]), plan.L) == (S, 320)
            monkeypatch.setattr(simulate, "_BLOCK_POINTS", 2 * plan.L)
            peaks.append(peak_over_result(lambda: plan.stream(innovation_source(dist, 7)))[0])
        assert peaks[1] < peaks[0] + (plan.L // 2 + 1) * 16

    @pytest.mark.parametrize("rows", [None, 2])
    def test_autocovariances_stream_the_zero_extended_taps(self, rows, monkeypatch):
        c = np.random.default_rng(5).uniform(0.05, 1.0, 5001)
        plan = FilterPlan.build(c, 16)
        if rows is not None:
            monkeypatch.setattr(simulate, "_BLOCK_POINTS", rows * plan.L)
        expected = 0.7 * product_apply(plan, np.concatenate([c[::-1], np.zeros(15)]))
        assert plan.autocovariances(0.7).tobytes() == expected.tobytes()


def window_oracle(a, n, j):
    return math.fsum(a[max(0, j - n + 1) : j + 1])


class TestWindowSums:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 100, 2**13])
    def test_against_fsum(self, n):
        rng = np.random.default_rng(n)
        a = rng.lognormal(0.0, 3.0, n + 700)  # positive, over many binades
        w = window_sums(a, n)
        assert w.shape == (a.size + n - 1,)
        # every window at small n; edges and a stride of the rest at n = 2^13
        js = np.arange(w.size) if n <= 100 else np.unique(np.r_[0 : 40, w.size - 40 : w.size, 0 : w.size : 97])
        oracle = np.array([window_oracle(a, n, j) for j in js])
        bound = (math.ceil(math.log2(n)) + 1) * 2.0**-53
        assert np.max(np.abs(w[js] - oracle) / oracle) <= bound

    def test_chunks_do_not_change_the_sums(self, monkeypatch):
        a = np.random.default_rng(3).uniform(0.0, 1.0, 2000)
        for n in (1, 5, 100, 1024):
            whole = window_sums(a, n)
            cubes = window_sums(a[::-1], n, 3)
            for chunk in (1, 7, 256):
                monkeypatch.setattr(simulate, "_CHUNK_POINTS", chunk)
                assert window_sums(a, n).tobytes() == whole.tobytes()
                assert window_sums(a[::-1], n, 3).tobytes() == cubes.tobytes()
            monkeypatch.undo()

    def test_power_total_is_the_sum_of_the_top_path(self):
        # windows of n reversed taps: sum_i p_m[i] = sum_j eps_j^m w_m[j], against the direct path
        rng = np.random.default_rng(12)
        for n, M in [(1, 0), (5, 0), (9, 4), (64, 3000), (3, 200)]:
            c = rng.uniform(0.05, 1.0, M + 1)
            eps = rng.standard_normal(n + M)
            for m in (2, 3, 4):
                direct = math.fsum(direct_convolution(c**m, eps**m))
                total = FilterPlan.build(c, n, m).stream(array_source(eps)).top_total
                assert total == pytest.approx(direct, rel=1e-12)

    def test_a_plan_serves_only_its_powers(self):
        plan = FilterPlan.build(np.ones(10), 4, 3)
        eps = np.ones(13)
        with pytest.raises(DomainError):
            multilinear_sums(plan.stream(array_source(eps)), 2)
        with pytest.raises(DomainError):
            multilinear_sums(FilterPlan.build(np.ones(10), 4).stream(array_source(eps)), 2)
        assert FilterPlan.build(np.ones(10), 4).stream(array_source(eps)).top_total is None


def one_transform_spectrum(plan, m):
    """The segment spectra as one batched rfft of the padded segments, rows reversed."""
    S = -(-(plan.M + 1) // plan.B)
    pad = np.zeros(S * plan.B - (plan.M + 1))
    return sfft.rfft(np.concatenate([pad, plan.taps**m]).reshape(S, plan.B)[::-1], plan.L, axis=-1)


def padded_window_sums(a, n):
    """Window sums by pairwise doubling over one zero-padded copy of ``a``, in chunks."""
    size = a.size + n - 1
    padded = np.zeros(size + n - 1)
    padded[n - 1 : n - 1 + a.size] = a
    out = np.empty(size)
    T = max(simulate._CHUNK_POINTS, n)
    spare, other = np.empty(T + n - 1), np.empty(T + n - 1)
    for lo in range(0, size, T):
        t = min(T, size - lo)
        level, acc = padded[lo : lo + t + n - 1], out[lo : lo + t]
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


def peak_over_result(build):
    """(bytes traced at the peak of ``build()`` above the start, its result)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


class TestInPlaceBuilders:
    """The set-up arrays are written in place, byte for byte equal to the one-pass formulas."""

    # (n, M): one segment; partitioned (B = 65) with 4 zero taps in front; with 15; with none, and
    # S = 4033 > 3276 rows a block
    GEOMETRIES = [(64, 1000), (16, 5000), (16, 64 * 80 - 1), (16, 2**18)]

    @pytest.mark.parametrize("n,M", GEOMETRIES)
    def test_spectra_match_one_transform(self, n, M):
        c = np.random.default_rng(M).uniform(0.05, 1.0, M + 1)
        plan = FilterPlan.build(c, n, 4)
        assert len(plan.spectra) == 3
        for m, spectrum in enumerate(plan.spectra, start=1):
            oracle = one_transform_spectrum(plan, m)
            assert spectrum.shape == oracle.shape and spectrum.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 100])
    def test_spectra_do_not_depend_on_the_row_block(self, rows, monkeypatch):
        # S = 79 segments of 65 taps: blocks that end on the padded row alone, with it, and one block
        # for all
        c = np.random.default_rng(5).uniform(0.05, 1.0, 5080)
        plan = FilterPlan.build(c, 16)
        assert len(plan.spectra[0]) == 79 and plan.L == 80
        monkeypatch.setattr(simulate, "_BLOCK_POINTS", rows * plan.L)
        for m in (1, 2, 3):
            assert plan._spectrum(m).tobytes() == one_transform_spectrum(plan, m).tobytes()

    @pytest.mark.parametrize("n,M", [(1, 0), (1, 300), (5, 0), *GEOMETRIES])
    def test_weights_match_the_reversed_power(self, n, M):
        c = np.random.default_rng(n + M).lognormal(0.0, 2.0, M + 1)
        for order in (2, 3, 4):
            oracle = padded_window_sums(c[::-1] ** order, n)
            assert FilterPlan.build(c, n, order).weights.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("size,n", [(700, 1), (50, 100), (1, 7), (3000, 2**16 + 5), (200, 2**16 + 5)])
    def test_window_sums_match_the_padded_copy(self, size, n):
        # n = 1, a shorter than its window, and n above _CHUNK_POINTS (one chunk of n points)
        a = np.random.default_rng(size + n).lognormal(0.0, 3.0, size)
        assert window_sums(a, n).tobytes() == padded_window_sums(a, n).tobytes()
        for m in (2, 3, 4):
            # the power is taken on the reversed view, as the taps are: that differs
            # from reversing the contiguous power in the last bit
            assert window_sums(a[::-1], n, m).tobytes() == padded_window_sums(a[::-1] ** m, n).tobytes()

    def test_no_builder_makes_a_second_cap_sized_array(self):
        # a partitioned p = 2 plan; each builder may trace the arrays it returns
        # plus less than half of one (n + M)-float array.  M = 2^21, because a row
        # block of the spectrum build (a real buffer and its transform) takes about
        # 2 * _BLOCK_POINTS floats, 4.2 MB, whatever M is.  sigma_{n,1} returns a float
        # but squares the window sums of n taps, one (n + M)-float array
        n, M = 2**8, 2**21
        slack = (n + M) * 8 // 2
        peak, cm = peak_over_result(lambda: CoefficientModel.build(0.7, SvConstant(1.0), M))
        assert peak < cm.c.nbytes + slack
        peak, plan = peak_over_result(lambda: FilterPlan.build(cm.c, n))
        assert len(plan.spectra[0]) > 1
        assert peak < plan.spectra[0].nbytes + slack
        peak, top = peak_over_result(lambda: FilterPlan.build(cm.c, n, 2))
        assert peak < top.spectra[0].nbytes + top.weights.nbytes + slack
        peak, _ = peak_over_result(lambda: sigma_n1_exact(cm.c, 1.0, n))
        assert peak < (n + M) * 8 + slack


class TestSetUpWorkers:
    """The set-up's chunk loops give the same bytes on any number of threads, and start none for one."""

    def test_the_plan_does_not_depend_on_the_worker_count(self):
        # n = 2^6, 526 500 taps: 2049 segments of 257 in 3 row blocks of 819, and 9 chunks of
        # the window sums of c**3 (the plan) and of c (sigma_{n,1}), on up to 3 threads that
        # switch often, so a lost or misplaced write of a piece would change the bytes
        n = 2**6
        c = np.random.default_rng(19).uniform(0.05, 1.0, 526_500)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            plans = [FilterPlan.build(c, n, order=3, workers=k) for k in (1, 2, 3)]
            sigmas = [sigma_n1_exact(c, 1.0, n, workers=k) for k in (1, 2, 3)]
            threaded_sums = window_sums(c[::-1], n, 3, workers=2)
        finally:
            sys.setswitchinterval(interval)
        S, rows = len(plans[0].spectra[0]), max(1, simulate._BLOCK_POINTS // plans[0].L)
        assert (S, len(range(0, S, rows))) == (2049, 3)
        assert -(-plans[0].weights.size // simulate._CHUNK_POINTS) == 9
        for plan, sigma in zip(plans[1:], sigmas[1:]):
            assert len(plan.spectra) == 2
            for spectrum, first in zip(plan.spectra, plans[0].spectra):
                assert spectrum.tobytes() == first.tobytes()
            assert plan.weights.tobytes() == plans[0].weights.tobytes()
            assert sigma.hex() == sigmas[0].hex()
        assert threaded_sums.tobytes() == plans[0].weights.tobytes()

    def test_one_worker_or_one_piece_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", refuse)
        c = np.random.default_rng(4).uniform(0.05, 1.0, 2**19 + 1)
        # many pieces on one worker
        FilterPlan.build(c, 2**6, order=3)
        sigma_n1_exact(c, 1.0, 2**6)
        # one piece per loop on many workers: one row block of 32 600 taps, one chunk
        plan = FilterPlan.build(c[:32600], 2**6, order=3, workers=4)
        assert len(plan.spectra[0]) == 127 and plan.weights.size <= simulate._CHUNK_POINTS
        sigma_n1_exact(c[:32600], 1.0, 2**6, workers=4)
        with pytest.raises(AssertionError, match="thread pool"):
            FilterPlan.build(c, 2**6, workers=2)
        with pytest.raises(AssertionError, match="thread pool"):
            sigma_n1_exact(c, 1.0, 2**6, workers=2)


# a fresh interpreter that only imports the package, then counts the minor page
# faults of a coefficient build at M = 2^21 and of one streamed pass of a p = 2
# plan (n = 2^10: 512 segments, row blocks of 51 windows) after its set-up and
# one untimed pass of the same shapes
FAULTS_SCRIPT = """
import json, resource
import lrdextremes
from lrdextremes.model import CoefficientModel, InnovationDist, SvConstant
from lrdextremes.simulate import FilterPlan, innovation_source, sigma_n1_exact

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

f0 = faults()
cm = CoefficientModel.build(0.7, SvConstant(1.0), 2**21)
f1 = faults()
sigma_n1_exact(cm.c, 1.0, 1024)
plan = FilterPlan.build(cm.c, 1024, 2)
plan.stream(innovation_source(InnovationDist.gaussian(1.0), 6))
f2 = faults()
plan.stream(innovation_source(InnovationDist.gaussian(1.0), 7))
f3 = faults()
print(json.dumps({"coefficients": f1 - f0, "stream": f3 - f2}))
"""


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults that glibc's malloc thresholds avoid; other allocators ignore them",
)
def test_importing_the_package_keeps_cap_sized_work_on_reused_heap():
    # Importing simulate raises glibc's mmap and trim thresholds before any set-up
    # allocates, so the coefficient chunks and the pass's row blocks reuse heap
    # pages.  With the thresholds at their start value of 128 KiB, the build took
    # about 960 faults and the timed pass about 9 900 on a 2-core x86 box, the
    # untimed pass before it notwithstanding; raised, about 780 and under 10.
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env, capture_output=True, text=True, check=True)
    faults = json.loads(run.stdout.splitlines()[-1])
    assert faults["coefficients"] < 2000
    assert faults["stream"] < 1000


class TestSimulatePath:
    def test_identity_subordination(self):
        cm = CoefficientModel.build(0.75, SvConstant(1.0), M=0)
        mx = GaussianMarginal(1.0)
        pp = simulate_path(cm, InnovationDist.gaussian(1.0), mx, IdentityTarget(mx), 100, 7)
        np.testing.assert_allclose(pp.y, pp.x, rtol=1e-9, atol=1e-12)

    def test_determinism(self):
        cm = build_coefficient_model(0.75, tol=0.05)
        mx = GaussianMarginal(math.sqrt(cm.total_square_sum))
        ty = ParetoTarget(6.0)
        a = simulate_path(cm, InnovationDist.gaussian(1.0), mx, ty, 2**10, 7)
        b = simulate_path(cm, InnovationDist.gaussian(1.0), mx, ty, 2**10, 7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.spec_hash == b.spec_hash

    def test_inconsistent_marginal_rejected(self):
        cm = build_coefficient_model(0.8, tol=0.01)
        with pytest.raises(ConfigError):
            simulate_path(cm, InnovationDist.gaussian(1.0), GaussianMarginal(1.0), ParetoTarget(6.0), 64, 1)

    def test_rank_preservation(self):
        cm = build_coefficient_model(0.8, tol=0.01)
        mx = GaussianMarginal(math.sqrt(cm.total_square_sum))
        pp = simulate_path(cm, InnovationDist.gaussian(1.0), mx, ParetoTarget(6.0), 512, 3)
        np.testing.assert_array_equal(np.argsort(pp.x, kind="stable"), np.argsort(pp.y, kind="stable"))

    def test_pooled_variance_matches_model(self):
        cm = build_coefficient_model(0.8, tol=1e-3)
        mx = GaussianMarginal(math.sqrt(cm.total_square_sum))
        ty = ParetoTarget(6.0)
        rng_seeds = [derive_seed(314, r) for r in range(50)]
        acc = 0.0
        count = 0
        for seed in rng_seeds:
            pp = simulate_path(cm, InnovationDist.gaussian(1.0), mx, ty, 2**14, seed)
            acc += float(np.sum(pp.x**2))
            count += pp.n
        pooled = acc / count
        assert pooled == pytest.approx(cm.total_square_sum, rel=0.05)


class TestAutocovariance:
    def test_tiny_example(self):
        rho = FilterPlan.build(np.array([1.0, 0.5]), 2).autocovariances(1.0)
        assert rho == pytest.approx([1.25, 0.5])

    def test_white_noise(self):
        assert FilterPlan.build(np.array([1.0]), 1).autocovariances(2.5) == pytest.approx([2.5])

    @pytest.mark.parametrize("kmax", [0, 3, 40, 4095, 5000])
    def test_short_autocorrelation_matches_dot(self, kmax):
        # lags 0..min(kmax, M) come from the plan at min(kmax, M) + 1: partitioned for kmax 0, 3, 40
        cm = build_coefficient_model(0.8, M=4095)
        vec = FilterPlan.build(cm.c, min(kmax, cm.M) + 1).autocovariances(1.3)
        assert vec.shape == (min(kmax, cm.M) + 1,)
        direct = [lag_oracle(cm.c, 1.3, k) for k in range(vec.size)]
        np.testing.assert_allclose(vec, direct, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n,M", [(64, 3000), (64, 2046), (1, 31), (1, 30), (7, 0), (40, 4095), (20, 19)])
    def test_plan_autocovariances_match_dot(self, n, M):
        # partitioned and one-segment plans alike filter the reversed taps
        c = np.random.default_rng(n + M).uniform(0.05, 1.0, M + 1)
        plan = FilterPlan.build(c, n)
        rho = plan.autocovariances(0.7)
        assert rho.shape == (min(n - 1, M) + 1,)
        np.testing.assert_allclose(rho, [lag_oracle(c, 0.7, k) for k in range(rho.size)], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n,M", [(64, 3000), (64, 2046), (1, 31), (7, 0), (40, 4095), (20, 19)])
    def test_autocovariances_do_not_depend_on_the_order(self, n, M):
        # order 3 filters c and c**2 and keeps the window sums of c**3; the lags take its power-1 pass
        c = np.random.default_rng(4).uniform(0.05, 1.0, M + 1)
        plan = FilterPlan.build(c, n, 3)
        assert len(plan.spectra) == 2 and plan.weights is not None
        assert plan.autocovariances(0.7).tobytes() == FilterPlan.build(c, n).autocovariances(0.7).tobytes()

    def test_model_tail_correction_consistent(self):
        # enlarging M must not change the tail-corrected values at lags 0 and 10; a constant
        # L0 takes the closed incomplete-beta tail, a log-power one the quadrature.  The tail
        # from the midpoint M - k + 1/2 misses the sum by O(M^(-2beta-1)), about 1e-12 of
        # rho_k here; one from M - k would miss by about 1e-7
        for L0 in (SvConstant(1.5), SvLogPower(1.0, 0.5)):
            a, b = (model_lags(build_coefficient_model(0.75, L0, M=M), 1.0, 10)[[0, 10]] for M in (2 * 10**4, 2 * 10**6))
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=0.0)

    def test_model_vs_truncated_direction(self):
        # the truncated sum omits positive mass, so the model value is larger at every lag
        cm = build_coefficient_model(0.75, M=10**4)
        rho = model_lags(cm, 1.0, 100)
        assert np.all(rho > FilterPlan.build(cm.c, 101).autocovariances(1.0))
        assert rho[100] > lag_oracle(cm.c, 1.0, 100)


class TestModelLags:
    # (L0, beta, M, kmax, rtol): kmax = M, and 1000 below M = 10^6, on a one-segment plan (the
    # lag plan serves at least _LAG_PLAN_MIN_LAGS lags); 1000 at M = 10^6 on a partitioned one;
    # the log-power tail is one quadrature per lag
    ORACLE_CASES = [
        (SvConstant(1.0), 0.75, 10**5, 10**5, 1e-14),
        (SvConstant(1.0), 0.75, 10**5, 1000, 1e-14),
        (SvConstant(1.0), 0.8, 32262, 32262, 1e-14),
        (SvConstant(1.0), 0.8, 32262, 1000, 1e-14),
        (SvLogPower(1.0, 0.5), 0.75, 10**4, 128, 1e-9),
        (SvConstant(1.0), 0.75, 10**6, 1000, 1e-14),
    ]

    @pytest.mark.parametrize("L0,beta,M,kmax,rtol", ORACLE_CASES)
    def test_matches_scalar_oracle(self, L0, beta, M, kmax, rtol):
        rho = model_lags(build_coefficient_model(beta, L0, M=M), 1.3, kmax)
        assert rho.shape == (kmax + 1,)
        for k in (1, 10, 100, kmax // 2, kmax):
            assert rho[k] == pytest.approx(model_lag_oracle(beta, L0, M, k, 1.3), rel=rtol, abs=0.0), k

    def test_a_small_kmax_keeps_the_segments_of_the_lag_plan(self, monkeypatch):
        # at kmax + 1 = 1 the partition rule would cut the 2^22 + 1 taps into 2^20 segments of
        # 4; the lag plan serves at least _LAG_PLAN_MIN_LAGS lags, in 127 segments of 33280 taps
        cm = build_coefficient_model(0.8, M=M_CAP)
        build, built = FilterPlan.build.__func__, []

        def recording_build(cls, *args, **kwargs):
            built.append(build(cls, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(FilterPlan, "build", classmethod(recording_build))
        rho = model_lags(cm, 1.0, 0)
        assert rho.shape == (1,)
        assert len(built) == 1 and len(built[0].spectra[0]) <= 128
        np.testing.assert_allclose(rho[0], model_lags(cm, 1.0, 2**13)[0], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kmax", [-1, 4097])
    def test_refuses_lags_outside_the_taps(self, kmax):
        with pytest.raises(DomainError, match="kmax"):
            model_lags(build_coefficient_model(0.8, M=4096), 1.0, kmax)


class TestTruncationFindings:
    """What the default truncation leaves out of the model, read from ``model_lags``."""

    @pytest.mark.parametrize("beta", [0.8, 0.9, 0.95])
    def test_neglected_marginal_variance_within_tol(self, beta):
        cm = build_coefficient_model(beta)
        rho0 = model_lags(cm, 1.0, 0)[0]
        assert (rho0 - cm.total_square_sum) / rho0 <= simulate.DEFAULT_TRUNC_TOL

    def test_cap_fraction_matches_its_warning(self):
        with pytest.warns(TruncationWarning) as record:
            cm = build_coefficient_model(0.7)
        assert cm.M == M_CAP
        printed = float(re.search(r"neglected variance fraction ([0-9.e+-]+)\)", str(record[0].message)).group(1))
        rho0 = model_lags(cm, 1.0, 0)[0]
        assert (rho0 - cm.total_square_sum) / rho0 == pytest.approx(printed, rel=0.01)

    # (beta, B, tol) of the grid whose M stays below the cap: a falling log-power L0 (B < 0)
    # frozen at M, or a rising one (B > 0) integrated from M
    LOG_POWER_GRID = [
        (beta, B, tol)
        for beta in (0.75, 0.8, 0.9, 0.95)
        for B in (-0.5, 0.5, 1.0)
        for tol in (1e-3, 1e-2)
        if (beta, B, tol) not in {(0.75, 0.5, 1e-3), (0.75, 1.0, 1e-3), (0.75, 1.0, 1e-2), (0.8, 1.0, 1e-3)}
    ]

    @pytest.mark.parametrize("beta,B,tol", LOG_POWER_GRID)
    def test_log_power_neglected_marginal_variance_within_tol(self, beta, B, tol):
        cm = build_coefficient_model(beta, SvLogPower(1.0, B), tol)
        assert cm.M < M_CAP
        rho0 = model_lags(cm, 1.0, 0)[0]
        assert (rho0 - cm.total_square_sum) / rho0 <= tol

    def test_log_power_cap_fraction_matches_its_warning(self):
        with pytest.warns(TruncationWarning) as record:
            cm = build_coefficient_model(0.6, SvLogPower(1.0, 0.5))
        assert cm.M == M_CAP
        printed = float(re.search(r"neglected variance fraction ([0-9.e+-]+)\)", str(record[0].message)).group(1))
        rho0 = model_lags(cm, 1.0, 0)[0]
        assert (rho0 - cm.total_square_sum) / rho0 == pytest.approx(printed, rel=0.01)

    def test_partial_sum_variance_drifts_below_the_model(self):
        # the marginal bound ignores n: the truncated filter's partial-sum variance falls
        # further below the model's as n grows (about 0.986 at 2^10 and 0.955 at 2^13)
        cm = build_coefficient_model(0.8)
        assert cm.M == 32262
        rho = model_lags(cm, 1.0, 2**13 - 1)
        ratios = []
        for n in (2**10, 2**13):
            model = n * rho[0] + 2.0 * np.sum((n - np.arange(1.0, n)) * rho[1:n])
            ratios.append(sigma_n1_exact(cm.c, 1.0, n) ** 2 / model)
        assert ratios[1] < ratios[0] < 1.0


class TestSigmaN1:
    def test_examples(self):
        c = np.array([1.0, 0.5])  # rho = (1.25, 0.5)
        assert sigma_n1_exact(c, 1.0, 2) == pytest.approx(math.sqrt(3.5), rel=1e-12)
        assert sigma_n1_exact(c, 1.0, 3) == pytest.approx(math.sqrt(5.75), rel=1e-12)
        assert sigma_n1_exact(np.array([1.0]), 1.0, 5) == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_window_sum_oracle(self):
        # independent route: Var(sum X) = sigma_eps^2 * sum_s (window sum)^2
        rng = np.random.default_rng(8)
        for trial in range(5):
            M = int(rng.integers(0, 30))
            n = int(rng.integers(1, 50))
            c = rng.uniform(0.05, 1.5, M + 1)
            cc = np.concatenate([[0.0], np.cumsum(c)])
            s = np.arange(1 - M, n + 1)
            lo = np.maximum(0, 1 - s)
            hi = np.minimum(M, n - s)
            w = cc[hi + 1] - cc[lo]
            oracle = math.sqrt(2.3 * float(np.sum(w * w)))
            assert sigma_n1_exact(c, 2.3, n) == pytest.approx(oracle, rel=1e-10)

    # (n, M): the window sums in one chunk; in 5 chunks (2^18 + 16 of them); n = 1 (no
    # overlap), M = 0, and n past M + 1, once by a little and once by 2^20 - 4 plateau
    # entries, each w[M] = sum c
    SIZES = [(64, 1000), (16, 2**18), (1, 300), (1, 0), (7, 0), (2, 0), (50, 10), (2**16 + 5, 300), (2**20, 3)]

    @pytest.mark.parametrize("n,M", SIZES)
    def test_matches_the_pairwise_lag_weights(self, n, M):
        c = np.random.default_rng(n + M).uniform(0.05, 1.0, M + 1)
        assert sigma_n1_exact(c, 1.3, n) == pytest.approx(pairwise_sigma_oracle(c, 1.3, n), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("chunk", [1, 17, 1018, 1019, 5094, 5095])
    def test_does_not_depend_on_the_chunk(self, chunk, monkeypatch):
        # n = 16, M = 5079: 5095 window sums.  Chunks of fewer points than the window (T = n),
        # of 17, 5 chunks that divide the sums, 5 with a last one of 5 points, 2 with a last
        # one of 1 point, and one chunk; sizes past M + 1 take w[M] from the same sums
        c = np.random.default_rng(5).uniform(0.05, 1.0, 5080)
        ns = [16, 5081, 2**20]
        whole = sigma_n1_exact(c, 0.7, ns)
        assert whole[0] == pytest.approx(pairwise_sigma_oracle(c, 0.7, 16), rel=1e-14, abs=0.0)
        monkeypatch.setattr(simulate, "_CHUNK_POINTS", chunk)
        assert sigma_n1_exact(c, 0.7, ns).tobytes() == whole.tobytes()
        assert sigma_n1_exact(c, 0.7, 16, workers=2) == whole[0]

    def test_exact_at_a_size_no_plan_could_hold(self):
        # w = [1, 1.5 (2^40 - 1 times), 0.5]; the window sums of 2^40 taps would need 2^40 floats
        n = 2**40
        assert sigma_n1_exact(np.array([1.0, 0.5]), 1.0, n) == pytest.approx(
            math.sqrt(1.25 + (n - 1) * 2.25), rel=1e-15
        )
        assert sigma_n1_exact(np.array([1.0, 0.5]), 1.0, [n, 2]) == pytest.approx(
            [math.sqrt(1.25 + (n - 1) * 2.25), math.sqrt(1.25 + 2.25)], rel=1e-15
        )

    def test_mc_variance_band(self):
        cm = build_coefficient_model(0.8, tol=1e-3)
        sig2 = sigma_n1_exact(cm.c, 1.0, 2**10) ** 2
        d = InnovationDist.gaussian(1.0)
        sums = []
        for r in range(400):
            eps = gen_innovations(d, 2**10 + cm.M, derive_seed(2718, r))
            sums.append(float(np.sum(moving_average(cm.c, eps))))
        assert np.var(sums, ddof=1) == pytest.approx(sig2, rel=0.15)

    def test_n_grid_matches_the_running_sum_oracle(self):
        cm = build_coefficient_model(0.8, tol=1e-3)
        ns = [2**15, 1, 2, 1000, cm.M, cm.M + 1, cm.M + 2, 2**17, 1000]
        grid = sigma_n1_exact(cm.c, 1.3, ns)
        assert grid.shape == (len(ns),)
        for n, val in zip(ns, grid):
            assert val == pytest.approx(running_sum_sigma_oracle(cm.c, 1.3, n), rel=1e-13)
        assert isinstance(sigma_n1_exact(cm.c, 1.3, 1000), float)

    def test_every_grid_size_has_the_bits_of_its_single_n(self):
        # the filter and grid of criterion 5 (beta 0.75, M = 2^20), and a short filter with
        # sizes on both sides of M + 1 = 301
        short = np.random.default_rng(9).uniform(0.05, 1.0, 301)
        for c, sigma_eps2, ns in [
            (build_coefficient_model(0.75, M=2**20).c, 1.0, [2**j for j in range(10, 21)]),
            (short, 1.3, [20, 50, 100, 301, 500, 5, 11, 302, 2**40, 20]),
        ]:
            grid = sigma_n1_exact(c, sigma_eps2, ns)
            assert [v.hex() for v in grid.tolist()] == [sigma_n1_exact(c, sigma_eps2, n).hex() for n in ns]

    def test_n_grid_domain(self):
        with pytest.raises(DomainError):
            sigma_n1_exact(np.array([1.0, 0.5]), 1.0, [4, 0])
        with pytest.raises(DomainError):
            sigma_n1_exact(np.array([1.0, 0.5]), 1.0, [])

    def test_growth_exponent_smoke(self):
        cm = build_coefficient_model(0.75, M=2**16)
        ns = [2**j for j in range(10, 17)]
        logs = [math.log(sigma_n1_exact(cm.c, 1.0, n) ** 2) for n in ns]
        slope = np.polyfit(np.log(ns), logs, 1)[0]
        assert slope == pytest.approx(1.5, abs=0.08)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(1234, r) for r in range(100)]
        assert seeds == [derive_seed(1234, r) for r in range(100)]
        assert len(set(seeds)) == 100

    def test_master_independence(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestPathDump:
    def test_csv_header_and_roundtrip(self, tmp_path):
        cm = CoefficientModel.build(0.75, SvConstant(1.0), M=0)
        mx = GaussianMarginal(1.0)
        pp = simulate_path(cm, InnovationDist.gaussian(1.0), mx, IdentityTarget(mx), 16, 5)
        csv_path = tmp_path / "path.csv"
        dump_path_csv(pp, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "i,x,y"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pp.x[0]
