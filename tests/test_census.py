import math
import tracemalloc
from fractions import Fraction

import pytest

from normwalk.census import (
    SphereCensus,
    asymptotic_constant,
    census_for,
    check_a4,
    count_bruteforce,
    count_max_closed,
    gf_residual_l1,
    growth_bounds,
)
from normwalk.errors import ResourceError, UsageError
from normwalk.norms import make_norm

UNIMODULAR = [[1, -1, 0], [0, 1, -1], [1, -1, 1]]


class TestClosedForms:
    def test_max_values(self):
        assert count_max_closed(3, 1) == 26
        assert count_max_closed(3, 2) == 98
        assert count_max_closed(4, 1) == 80
        assert count_max_closed(3, 500) == 6_000_002

    def test_l1_one_dim(self):
        assert census_for(make_norm("l1", 1), 6).counts == (1, 2, 2, 2, 2, 2, 2)

    def test_l1_small(self):
        cen = census_for(make_norm("l1", 3), 2)
        assert cen[1] == 6  # the six unit vectors
        assert cen[2] == 18  # frozen from the brute-force oracle

    def test_w1_two_dim(self):
        cen = census_for(make_norm("w1", 2), 20)
        assert cen[0] == 1
        assert all(cen[k] == 2 * k for k in range(1, 21))

    def test_w1_three_dim_piecewise(self):
        cen = census_for(make_norm("w1", 3), 9)
        assert cen[3] == 8    # (2/3) 9 + 2
        assert cen[4] == 12   # (2/3) 16 + 4/3
        assert cen[6] == 26
        assert cen[9] == 56


class TestBruteForceOracle:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family", ["max", "l1", "w1"])
    def test_fast_equals_brute(self, family, d):
        spec = make_norm(family, d)
        assert census_for(spec, 10).counts == count_bruteforce(spec, 10).counts

    def test_transformed_counts_match_base(self):
        spec = make_norm("l1", 3, transform=UNIMODULAR)
        assert count_bruteforce(spec, 8).counts == \
            census_for(make_norm("l1", 3), 8).counts

    def test_scaled_max(self):
        spec = make_norm("scaled_max", 3, factor=2)
        cen = count_bruteforce(spec, 4)
        assert cen.counts == (1, 0, 26, 0, 98)
        assert census_for(spec, 4).counts == cen.counts

    @pytest.mark.parametrize("transform", [None, UNIMODULAR])
    @pytest.mark.parametrize("family,factor", [("max", 1), ("l1", 1), ("w1", 1),
                                               ("scaled_max", 1), ("scaled_max", 3)])
    def test_every_shape_keeps_the_callers_spec(self, family, factor, transform):
        spec = make_norm(family, 3, factor=factor, transform=transform)
        cen = census_for(spec, 9)
        assert cen.spec is spec
        assert cen.method == ("closed" if spec.max_shaped else "recursive")
        assert cen.counts == count_bruteforce(spec, 9).counts

    def test_budget(self):
        with pytest.raises(ResourceError):
            count_bruteforce(make_norm("max", 3), 500)

    def test_peak_memory_d4(self):
        # 61^4 = 13.8 million box points, binned one slab at a time
        spec = make_norm("l1", 4)
        tracemalloc.start()
        try:
            cen = count_bruteforce(spec, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cen.counts == census_for(spec, 30).counts
        assert peak < 8 << 20

    @pytest.mark.parametrize("spec", [
        make_norm("max", 3), make_norm("l1", 3), make_norm("w1", 3),
        make_norm("scaled_max", 3, factor=2)], ids=lambda s: s.family)
    def test_negative_k_max_refused(self, spec):
        with pytest.raises(UsageError, match="k_max must be >= 0"):
            census_for(spec, -1)


def test_convolution_split_identity():
    # splitting d = d1 + d2 convolves the tables identically
    k_max = 12
    t2 = census_for(make_norm("l1", 2), k_max).counts
    t3 = census_for(make_norm("l1", 3), k_max).counts
    t5 = census_for(make_norm("l1", 5), k_max).counts
    conv = tuple(sum(t2[j] * t3[k - j] for j in range(k + 1))
                 for k in range(k_max + 1))
    assert conv == t5


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_l1_census_at_scale_matches_closed_form(d):
    # N(k) = sum_j 2^j C(d, j) C(k - 1, j - 1): j nonzero coordinates with
    # signs, their absolute values a composition of k into j parts
    k_max = 2000
    want = (1,) + tuple(sum(2 ** j * math.comb(d, j) * math.comb(k - 1, j - 1)
                            for j in range(1, d + 1))
                        for k in range(1, k_max + 1))
    assert census_for(make_norm("l1", d), k_max).counts == want


def test_recursion_matches_the_literal_convolution():
    # table[k::-w] lists table[k - w j] for j = 0, 1, ...
    k_max = 80
    for family, weights in (("l1", (1, 1, 1, 1)), ("w1", (1, 2, 3, 4))):
        base = [1] + [2] * k_max
        table = base
        for w in weights[1:]:
            table = [sum(base[j] * table[k - w * j] for j in range(k // w + 1))
                     for k in range(k_max + 1)]
        assert census_for(make_norm(family, 4), k_max).counts == tuple(table)


class TestGeneratingFunction:
    def test_d3_half(self):
        assert gf_residual_l1(3, 0.5, 200) < 1e-6

    def test_d1_half(self):
        assert gf_residual_l1(1, 0.5, 50) < 1e-9

    def test_slow_near_one(self):
        assert gf_residual_l1(2, 0.9, 10) > 1.0

    def test_domain(self):
        with pytest.raises(UsageError):
            gf_residual_l1(3, 1.0, 10)
        with pytest.raises(UsageError):
            gf_residual_l1(3, -0.1, 10)


class TestAsymptotics:
    def test_constants(self):
        assert asymptotic_constant("max", 3) == 24
        assert asymptotic_constant("l1", 3) == 4
        assert asymptotic_constant("w1", 3) == Fraction(2, 3)
        assert asymptotic_constant("w1", 2) == 2
        assert asymptotic_constant("max", 4) == 64
        # 2^d / ((d-1)! prod_i w_i): w1 has prod_i w_i = d!
        assert asymptotic_constant("w1", 4) == Fraction(1, 9)
        assert asymptotic_constant("l1", 5) == Fraction(4, 3)

    def test_unsupported(self):
        with pytest.raises(UsageError):
            asymptotic_constant("scaled_max", 3)

    @pytest.mark.parametrize("family,c", [("max", 24), ("l1", 4)])
    def test_ratio_convergence_bound(self, family, c):
        # |N(k)/(c k^2) - 1| <= 1/k, exact from the quadratic forms at d=3
        cen = census_for(make_norm(family, 3), 100)
        for k in range(1, 101):
            assert abs(cen[k] / (c * k * k) - 1) <= 1.0 / k


class TestMonotonicityAndGrowth:
    def test_a4_max(self):
        assert check_a4(census_for(make_norm("max", 3), 50), 1)

    def test_a4_scaled_max_fails(self):
        assert not check_a4(census_for(make_norm("scaled_max", 3, factor=2), 20), 1)

    def test_a4_w1(self):
        assert check_a4(census_for(make_norm("w1", 3), 60), 3)

    def test_growth_bounds_max(self):
        c1, c2 = growth_bounds(census_for(make_norm("max", 3), 100))
        assert c1 >= 24 and c2 <= 26

    def test_growth_bounds_l1(self):
        c1, c2 = growth_bounds(census_for(make_norm("l1", 3), 100))
        assert c1 >= 4 and c2 <= 6

    def test_growth_bounds_zero_level(self):
        with pytest.raises(UsageError, match="N\\(1\\) = 0"):
            growth_bounds(census_for(make_norm("scaled_max", 3, factor=2), 10))


def test_census_invariants():
    with pytest.raises(UsageError):
        SphereCensus(spec=make_norm("max", 2), counts=(2, 8), method="closed")
    with pytest.raises(UsageError):
        SphereCensus(spec=make_norm("max", 2), counts=(1, -1), method="closed")


def test_census_max_closed_table():
    cen = census_for(make_norm("max", 3), 5)
    assert cen.counts == (1, 26, 98, 218, 386, 602)
