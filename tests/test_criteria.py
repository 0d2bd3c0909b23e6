"""Tests for the acceptance criteria's helpers in ``tests/criteria.py``."""

import math

import numpy as np
import pytest

from criteria import MASTER_SEED, case4_config, iid_contrast, iid_scale, study, trend_nonincreasing
from lrdextremes.errors import DomainError
from lrdextremes.estats import TailGrid, multilinear_sums, reduction_sup_sorted
from lrdextremes.model import GaussianMarginal, InnovationDist
from lrdextremes.simulate import (
    FilterPlan,
    array_source,
    build_coefficient_model,
    derive_seed,
    gen_innovations,
    sigma_n1_exact,
)

A_N_SCALE_REF = 0.0316227766016838  # 100^0.25/100


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


class TestTrendHelper:
    def test_allows_one_inversion(self):
        assert trend_nonincreasing([5.0, 3.0, 3.5, 2.0], allowed_inversions=1)
        assert not trend_nonincreasing([5.0, 3.0, 3.5, 4.0], allowed_inversions=1)
        assert trend_nonincreasing([5.0, 4.0, 3.0], allowed_inversions=0)


def test_criterion_7_studies_hold_the_hand_built_suprema():
    # criterion 7 reads its suprema off the package's replicate kernel; they have the bits of the
    # route it once built by hand: the seed's whole innovation vector through a filter plan of
    # order 1, and the order-1 supremum at the Case 4 marginal and sigma_{n,1}
    n, R = 2**10, 3
    cm = build_coefficient_model(0.8, tol=1e-3)
    mx = GaussianMarginal(math.sqrt(cm.total_square_sum))
    tail = TailGrid.build(mx, 1)
    sig = sigma_n1_exact(cm.c, 1.0, n)
    plan = FilterPlan.build(cm.c, n)
    by_hand = []
    for r in range(R):
        sums = plan.stream(array_source(gen_innovations(InnovationDist.gaussian(1.0), n + cm.M, derive_seed(MASTER_SEED, r))))
        xs = np.sort(sums.paths[0])
        by_hand.append(reduction_sup_sorted(xs, mx.F(xs), multilinear_sums(sums, 1), tail, mx, sig).value)
    run = study(case4_config(n), MASTER_SEED, R, with_reduction=True)
    assert [rep.reduction_sup for rep in run.replicates] == by_hand
