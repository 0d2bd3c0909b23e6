"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (visible with -rA or
-s).  Each Monte Carlo criterion (2, 3, 4, 7, 8, 12) is one function of
``criteria.py``, called here at master_seed = 2026004, so the suite is
deterministic.  How often a criterion fails on the true model, with the
same configs, bands and R at other master seeds, is what
``size_report.py`` measures and commits as SIZE.json: criterion 2 fails
at 14 of seeds 1-40 (its variance band at 5, KS at 6, the KS trend at 9),
criterion 3 at 1 of 40 (seed 17), criterion 4 at none of 1-40, criteria 7
and 8 at none of seeds 13-40, and criterion 12 at none of seeds 1-10.
"""

import itertools
import math

import numpy as np
import pytest

from criteria import (
    CASE4_SIZES,
    MASTER_SEED,
    R_REF,
    R_TREND,
    TREND_SIZES,
    case3_config,
    case4_config,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_7,
    criterion_8,
    criterion_12,
    criterion_line,
    iid_contrast,
    iid_scale,
    trend_nonincreasing,
)
from lrdextremes.estats import multilinear_sums
from lrdextremes.model import (
    ExponentialTarget,
    GaussianMarginal,
    InnovationDist,
    ParetoMarginal,
    ParetoTarget,
)
from lrdextremes.scaling import karamata_product
from lrdextremes.simulate import (
    FilterPlan,
    array_source,
    build_coefficient_model,
    derive_seed,
    innovation_source,
    model_lags,
    moving_average,
    sigma_n1_exact,
)


def report(line: str) -> None:
    print(line)


def _karamata_deviations(mx, ty, power, ratios=(1e2, 1e3, 1e4, 1e5)):
    devs = []
    for ratio in ratios:
        n = int(ratio**power)
        k_n = int(ratio ** (power - 1))
        devs.append(abs(karamata_product(mx, ty, n, k_n) - 1.0))
    return devs


def test_criterion_1_karamata_identity():
    """|A_n K_n - 1| <= 0.05 at n/k_n = 1e4, non-increasing over the ratio grid.

    All four cases run with analytic marginals.  The Pareto target index
    alpha0 = 2 enters through Case 1; the subordinated-Frechet cases of the
    theorem require alpha0 > (1-beta)^-1 > 2, which excludes alpha0 = 2
    from Case 3 (its deviation at n/k_n = 1e4 is printed for information).
    Frechet-X cases run along n = ratio^2, k_n = ratio; Gumbel-X cases
    along n = ratio^3, k_n = ratio^2.
    """
    case_defs = {
        "case1_a0_2": (ParetoMarginal(4.0), ParetoTarget(2.0), 2),
        "case1_a0_6": (ParetoMarginal(4.0), ParetoTarget(6.0), 2),
        "case2": (ParetoMarginal(4.0), ExponentialTarget(), 2),
        "case3_a0_6": (GaussianMarginal(1.0), ParetoTarget(6.0), 3),
        "case4": (GaussianMarginal(1.0), ExponentialTarget(), 3),
    }
    all_ok = True
    details = []
    for name, (mx, ty, power) in case_defs.items():
        devs = _karamata_deviations(mx, ty, power)
        ok = devs[2] <= 0.05 and trend_nonincreasing(devs, allowed_inversions=0, rtol=1e-6)
        all_ok &= ok
        details.append(f"{name}: dev@1e4 = {devs[2]:.2e}, devs = {['%.1e' % d for d in devs]}")
    info = _karamata_deviations(GaussianMarginal(1.0), ParetoTarget(2.0), 3)
    details.append(f"case3_a0_2 (outside the theorem's alpha0 > 2 domain): dev@1e4 = {info[2]:.2e}")
    report(criterion_line(1, all_ok, "; ".join(details)))
    assert all_ok, details


def test_criterion_2_case4_reference_mc():
    """Case 4 reference: KS <= 0.08, p > 0.01, var in [0.7, 1.3], mean in [-0.25, 0.25]."""
    verdict = criterion_2(case4_config(2**15), case4_config(2**11), MASTER_SEED, R_REF)
    report(verdict.line)
    assert verdict.ok, verdict.band


def test_criterion_3_case3_mc():
    """Case 3: KS <= 0.10 and variance in [0.6, 1.4] for Z_n / (A_n K_n) at n = 2^15, xi = 0.97.

    The limit theorem splits into a stochastic and a deterministic part.
    Its driving term is I1 ~ A_n K_n sigma_{n,1}^-1 sum x_i, which is exactly
    N(0, (A_n K_n)^2) for Gaussian innovations, and A_n K_n -> 1 holds only
    as n/k_n -> inf.  Here n/k_n = n^0.03 ~ 1.37 and A_n K_n = 1.3321, so
    raw Z_n has variance (A_n K_n)^2 = 1.774 (measured: 1.725); no
    desk-scale n moves n/k_n far enough for raw Z_n to reach unit variance.
    This criterion checks the stochastic part, the normality of Z_n once
    the finite-n Karamata factor of the run's own marginals is divided
    out.  The deterministic part, A_n K_n -> 1, is criterion 1
    (case3_a0_6).
    """
    verdict = criterion_3(case3_config(2**15), MASTER_SEED, R_REF)
    report(verdict.line)
    assert verdict.ok, verdict.band


def test_criterion_4_decomposition():
    """|I2|, |I3| medians < 0.1 median |I1|; I1 + I2 + I3 = Z_n to 1e-10 relative.

    The identity holds by construction: ``decompose_I`` defines I3 as the
    residual Z_n - I1 - I2, so its check here only bounds rounding.  The
    check of the split that can fail is
    ``tests/test_estats.py::TestDecomposition::test_residual_matches_direct_integral``,
    which compares that residual with the direct integral form of I3.
    """
    verdict = criterion_4(case4_config(2**15), case3_config(2**15), MASTER_SEED, R_REF)
    report(verdict.line)
    assert verdict.ok, verdict.band


def test_criterion_5_variance_bookkeeping():
    """MC Var(sum x) within 10% at n = 2^12; log-log variance slope = 3 - 2 beta."""
    cm = build_coefficient_model(0.8, tol=1e-3)
    dist = InnovationDist.gaussian(1.0)
    n = 2**12
    plan = FilterPlan.build(cm.c, n)
    sums = np.empty(2000)
    for r in range(2000):
        sums[r] = float(np.sum(plan.stream(innovation_source(dist, derive_seed(555, r))).paths[0]))
    mc_var = float(np.var(sums, ddof=1))
    exact = sigma_n1_exact(cm.c, 1.0, n) ** 2
    var_ok = abs(mc_var / exact - 1.0) <= 0.10

    cm75 = build_coefficient_model(0.75, M=2**20)
    ns = [2**j for j in range(10, 21)]
    logs = np.log(sigma_n1_exact(cm75.c, 1.0, ns) ** 2)
    slope = float(np.polyfit(np.log(ns), logs, 1)[0])
    slope_ok = abs(slope - 1.5) <= 0.05

    ok = var_ok and slope_ok
    report(criterion_line(5, ok, f"MC/exact = {mc_var / exact:.4f} (10% band); slope = {slope:.4f} (target 1.5 +- 0.05)"))
    assert ok, (mc_var / exact, slope)


def test_criterion_6_covariance_constant():
    """Theoretical rho_k * k^(2 beta - 1) within 5% of B(1/2, 1/4) at k = 1e4."""
    beta = 0.75
    # independent gamma-function oracle for the Beta value
    B = math.exp(math.lgamma(0.5) + math.lgamma(0.25) - math.lgamma(0.75))
    assert B == pytest.approx(5.2441, abs=2e-4)
    rho = model_lags(build_coefficient_model(beta, M=10**5), 1.0, 10**4)[10**4]
    val = rho * (10**4) ** (2 * beta - 1)
    ok = abs(val / B - 1.0) <= 0.05
    report(criterion_line(6, ok, f"rho_k k^0.5 = {val:.4f} vs B = {B:.4f} (rel dev {val / B - 1.0:+.4f})"))
    assert ok, (val, B)


def test_criterion_7_reduction_trend():
    """Median of sup|S_{n,1}|/sigma_{n,1} non-increasing along n = 2^12, 2^14, 2^16."""
    verdict = criterion_7([case4_config(n) for n in TREND_SIZES], MASTER_SEED, R_TREND)
    report(verdict.line)
    assert verdict.ok, verdict.band


def test_criterion_8_u_ratio():
    """median |U_{n-k_n:n}/(1-k_n/n) - 1| < 0.05 at n = 2^15 and decreasing in n."""
    verdict = criterion_8([case4_config(n) for n in CASE4_SIZES], MASTER_SEED, R_REF)
    report(verdict.line)
    assert verdict.ok, verdict.band


def test_criterion_9_oracle_equivalences():
    """Exhaustive equivalences: multilinear forms, FFT filter, trimmed sums, top-k."""
    from lrdextremes.estats import top_k_sum, trimmed_sum

    ok = True
    # the replicate kernel's multilinear forms vs brute enumeration, n, M <= 4, r <= 3
    for n, M, r in itertools.product((1, 2, 3, 4), (0, 1, 2, 3, 4), (1, 2, 3)):
        if r > M + 1:
            continue
        rng = np.random.default_rng(1000 * n + 100 * M + r)
        c = rng.uniform(0.2, 1.5, M + 1)
        eps = rng.standard_normal(n + M)
        brute = 0.0
        for i in range(1, n + 1):
            for combo in itertools.combinations(range(M + 1), r):
                prod = 1.0
                for j in combo:
                    prod *= c[j] * eps[(i - j) + M - 1]
                brute += prod
        val = multilinear_sums(FilterPlan.build(c, n, r).stream(array_source(eps)), r)[r - 1]
        ok &= abs(val - brute) <= 1e-10 * max(1.0, abs(brute))

    # FFT vs direct convolution at 1e-10
    rng = np.random.default_rng(9)
    c = rng.uniform(0.1, 1.0, 2**8)
    eps = rng.standard_normal(2**10 + 2**8 - 1)
    direct = np.array([float(np.dot(c, eps[i : i + 2**8][::-1])) for i in range(2**10)])
    fft_path = moving_average(c, eps)
    ok &= float(np.max(np.abs(fft_path - direct))) <= 1e-10 * float(np.max(np.abs(direct)))

    # trimmed-sum dual representation (checked internally) and top-k vs sort
    x = rng.standard_normal(10**4)
    ok &= trimmed_sum(x, 123, 456) == pytest.approx(float(np.sum(np.sort(x)[123 : 10**4 - 456])), rel=1e-12)
    ok &= top_k_sum(x, 37) == pytest.approx(float(np.sum(np.sort(x)[-37:])), rel=1e-12)

    report(criterion_line(9, bool(ok), "multilinear, FFT filter, trimmed dual, top-k all match their oracles"))
    assert ok


def test_criterion_10_lrd_vs_iid_contrast():
    """Extreme-sum scale contrast strictly increasing along n = 2^10..2^20.

    Two readings are verified: the whole-sum-normalized contrast
    (n/k_n)^(1/2 + 1/alpha) at the reference beta = 0.8 (the relative-
    contribution comparison), and the raw ratio (n/k_n) sigma_{n,1}^-1/a_n,
    which grows iff (1-xi)(1/2 + 1/alpha) > 1 - beta, here at beta = 0.95.
    """
    xi, alpha = 0.9, 4.0
    ns = [2**j for j in range(10, 21)]

    normalized = [iid_contrast(n, math.ceil(n**xi), alpha) for n in ns]
    norm_ok = all(b > a for a, b in zip(normalized, normalized[1:]))

    cm = build_coefficient_model(0.95, tol=1e-3)
    raw = []
    for n in ns:
        k_n = math.ceil(n**xi)
        sig = sigma_n1_exact(cm.c, 1.0, n)
        raw.append((n / k_n) / sig / iid_scale(n, k_n, alpha))
    raw_ok = all(b > a for a, b in zip(raw, raw[1:]))

    ok = norm_ok and raw_ok
    report(
        criterion_line(
            10,
            ok,
            f"normalized contrast (beta-free) {normalized[0]:.3f} -> {normalized[-1]:.3f}; "
            f"raw ratio at beta=0.95 {raw[0]:.3e} -> {raw[-1]:.3e}",
        )
    )
    assert ok


def test_criterion_11_reproducibility(tmp_path):
    """Identical config + master seed give byte-identical CSVs across runs/threads."""
    from lrdextremes.cli import main

    text = (
        "beta = 0.8\ny_marginal = exponential\nxi = 0.9\nn = 1024\nR = 16\n"
        f"master_seed = {MASTER_SEED}\ntrunc_tol = 0.01\n"
    )
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    outs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        out = tmp_path / name
        assert main(["mc", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
        outs.append(out)
    ok = True
    for name in ("z_samples.csv", "summary.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        ok &= blobs[0] == blobs[1] == blobs[2]
    report(criterion_line(11, ok, "z_samples.csv and summary.csv byte-identical across 3 runs (threads 1, 1, 4)"))
    assert ok


def test_criterion_12_lrd_vs_iid_twin():
    """The top-k_n sum's variance over its i.i.d. twin's grows with n under LRD, and not under short memory.

    S is the top-k_n sum of Y and S_iid the same statistic on n i.i.d.
    draws of the X marginal (``mc._iid_twin_columns``).  S is
    min_t [k t + sum_i (Y_i - t)_+], so to first order var(S) is the
    variance of sum_i h(X_i), h = (Q_Y(F(x)) - u)_+.  Under LRD its rank-1
    part grows as n^(3 - 2 beta) = n^1.4 against var(S_iid) ~ k_n = n^0.9,
    so the ratio must increase strictly over n = 2^11, 2^13, 2^15 (Case 4,
    R = 400).  For the MA(3) control only lags 1..3 enter, and the ratio
    (3.11, 3.05, 2.99 by quadrature) falls slowly; it must not grow by more
    than ``criteria.CONTROL_GROWTH_BAND`` = 1.5 from 2^11 to 2^15.
    """
    verdict = criterion_12([case4_config(n) for n in CASE4_SIZES], MASTER_SEED, R_REF)
    report(verdict.line)
    assert verdict.ok, verdict.band
