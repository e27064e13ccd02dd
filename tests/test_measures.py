import numpy as np
import pytest
from scipy import stats

from normwalk import walk
from normwalk.errors import UsageError
from normwalk.measures import (
    ScaledLocalTimeSample,
    default_test_functions,
    distributional_cauchy,
    invariance_surrogate,
    ks_statistic,
    mu_surface_integral_max,
    scaled_samples,
    sphere_measure,
    weak_convergence_report,
)
from normwalk.norms import make_norm
from normwalk.walk import make_simple_walk

MAX3 = make_norm("max", 3)
SW3 = make_simple_walk(3)

SQ1 = lambda p: p[:, 0] ** 2


class TestMuK:
    def test_probability_measure(self):
        for k in (1, 3, 10):
            assert sphere_measure(MAX3, k).integral(lambda p: np.ones(len(p))) == 1.0

    def test_odd_symmetry_exact_zero(self):
        assert sphere_measure(MAX3, 9).integral(lambda p: p[:, 0]) == 0.0
        assert sphere_measure(MAX3, 9).integral(lambda p: p[:, 0] * p[:, 1]) == 0.0

    def test_square_coordinate_near_cube_value(self):
        # frozen from the exact lattice sums: sum (x1)^2 over the shell via
        # F(R) = (2R+1)^3 R(R+1)/3 differences
        v100 = sphere_measure(MAX3, 100).integral(SQ1)
        assert v100 == pytest.approx(1_333_380_000 / (10_000 * 240_002),
                                     abs=1e-12)
        assert abs(v100 - 5 / 9) <= 0.01

    def test_points_have_unit_norm(self):
        mu = sphere_measure(MAX3, 6)
        assert np.allclose(MAX3.values_real(mu.points), 1.0, atol=1e-12)

    def test_empty_level_rejected(self):
        spec = make_norm("scaled_max", 3, factor=2)
        with pytest.raises(UsageError):
            sphere_measure(spec, 3).integral(SQ1)

    def test_negative_level_rejected(self):
        with pytest.raises(UsageError, match="k must be >= 0, got -2"):
            sphere_measure(MAX3, -2)


class TestSurfaceIntegral:
    def test_constant(self):
        assert mu_surface_integral_max(3, lambda p: np.ones(len(p))) \
            == pytest.approx(1.0, abs=1e-13)

    def test_square_coordinate_exact(self):
        # faces x1 = +-1 give 1 on area 8; four side faces give 4/3 each:
        # (8 + 16/3) / 24 = 5/9
        assert mu_surface_integral_max(3, SQ1) == pytest.approx(5 / 9, abs=1e-12)

    def test_odd_products_vanish(self):
        assert mu_surface_integral_max(3, lambda p: p[:, 0] * p[:, 1]) \
            == pytest.approx(0.0, abs=1e-13)

    def test_d2_perimeter(self):
        # boundary of the square: mean of x1^2 = (2*1 + 2*(1/3)) / 4 = 2/3
        assert mu_surface_integral_max(2, SQ1) == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_constant_is_exactly_one(self, d):
        # a probability average, like mu_k: no rounding residue from the weights
        assert mu_surface_integral_max(d, lambda p: np.ones(len(p))) == 1.0


class TestWeakConvergence:
    def test_max_norm_discrepancy_decreases(self):
        rep = weak_convergence_report(MAX3, {"sq": SQ1}, [10, 20, 40, 80])
        ds = rep.discrepancies("sq")
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_constant_discrepancies_zero(self):
        rep = weak_convergence_report(MAX3, {"one": lambda p: np.ones(len(p))},
                                      [5, 10])
        assert rep.discrepancies("one") == [0.0, 0.0]

    def test_l1_proxy_reference(self):
        spec = make_norm("l1", 3)
        rep = weak_convergence_report(spec, {"sq": SQ1}, [8, 24])
        assert rep.reference == "proxy(k=96)"
        d8, d24 = rep.discrepancies("sq")
        assert d24 < d8

    def test_reference_follows_the_norm_shape(self):
        # scaled_max at factor 1 is the max norm, so it gets the same
        # analytic reference and the same rows
        same = weak_convergence_report(make_norm("scaled_max", 3, factor=1),
                                       {"sq": SQ1}, [8, 24])
        base = weak_convergence_report(MAX3, {"sq": SQ1}, [8, 24])
        assert same.reference == base.reference == "analytic"
        assert same.rows == base.rows
        scaled = weak_convergence_report(make_norm("scaled_max", 3, factor=2),
                                         {"sq": SQ1}, [8, 24])
        assert scaled.reference == "proxy(k=96)"

    def test_lipschitz_rate_constant(self):
        # |mu_k(f) - surface(f)| <= C/k with a moderate fitted constant
        rep = weak_convergence_report(MAX3, {"sq": SQ1}, [10, 20, 40, 80])
        cs = [row["discrepancy"] * row["k"] for row in rep.rows]
        assert max(cs) < 0.5

    def test_battery_shape(self):
        fns = default_test_functions(3)
        assert {"one", "x1", "x1^2", "x1x2", "bump"} <= set(fns)


class TestKS:
    def test_identical_sets_zero(self):
        a = np.array([1.0, 2.0, 2.0, 5.0])
        assert ks_statistic(a, a.copy()) == 0.0

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 8, 300).astype(float)
        b = rng.integers(1, 9, 450).astype(float)
        assert ks_statistic(a, b) == pytest.approx(
            stats.ks_2samp(a, b).statistic, abs=1e-12)

    def test_undersized_rejected(self):
        with pytest.raises(UsageError):
            distributional_cauchy(np.ones(10), np.ones(200))

    def test_obvious_difference_detected(self):
        rng = np.random.default_rng(0)
        chk = distributional_cauchy(rng.normal(0, 1, 400),
                                    rng.normal(3, 1, 400))
        assert chk.statistic > 0.8 and not chk.close()


class TestScaledSamples:
    def test_positive_and_reproducible(self):
        s = scaled_samples(SW3, MAX3, 5, replicas=150, master_seed=11)
        assert s.zero_fraction == 0.0
        assert (s.samples > 0).all()
        t = scaled_samples(SW3, MAX3, 5, replicas=150, master_seed=11)
        assert np.array_equal(s.samples, t.samples)

    def test_l1_also_positive(self):
        spec = make_norm("l1", 3)
        s = scaled_samples(SW3, spec, 6, replicas=100, master_seed=13)
        assert s.zero_fraction == 0.0

    def test_mean_tracks_green_level_sum(self):
        # E L(k) = sum of Green values over the sphere; the truncated mean
        # sits below it by at most the bias certificate (plus noise)
        from normwalk.green import GreenField
        k = 3
        s = scaled_samples(SW3, MAX3, k, replicas=900, master_seed=15,
                           k_cut=12 * k)
        field = GreenField(SW3, n_max=900, box_radius=30)
        from normwalk.census import census_for
        scale = k ** (2 - 3) * census_for(MAX3, k)[k]
        target = field.level_sum(MAX3, k) / scale
        se = s.samples.std(ddof=1) / np.sqrt(len(s.samples))
        assert s.mean <= target + 3 * se
        assert s.mean >= target * (1 - s.bias_bound) - 3 * se

    def test_degenerate_level_rejected(self):
        spec = make_norm("scaled_max", 3, factor=2)
        with pytest.raises(UsageError):
            scaled_samples(SW3, spec, 3, replicas=10, master_seed=0)

    def test_counts_are_the_level_visits(self):
        s = scaled_samples(SW3, MAX3, 4, replicas=50, master_seed=7)
        assert s.counts.dtype == np.int64 and (s.counts >= 1).all()
        scale = 4.0 ** -1 * s.n_level
        assert s.samples.tobytes() == (s.counts.astype(float) / scale).tobytes()

    def test_synthetic_zero_detection(self):
        s = ScaledLocalTimeSample(spec=MAX3, k=1, k_cut=8, n_level=26,
                                  counts=np.array([0, 52, 78]),
                                  samples=np.array([0.0, 2.0, 3.0]),
                                  bias_bound=0.0)
        assert s.zero_fraction == pytest.approx(1 / 3)


class TestInvarianceSurrogate:
    def test_small_ladder_report(self):
        rep = invariance_surrogate(SW3, MAX3, [4, 8], replicas=120,
                                   master_seed=3)
        assert rep.zero_fraction == 0.0
        assert len(rep.ks_sequence) == 1
        assert rep.means_bounded()

    def test_too_few_samples_refused_before_walking(self, monkeypatch):
        # the KS checks need 100 samples per set; refuse before any level runs
        monkeypatch.setattr(walk, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        with pytest.raises(UsageError, match="at least 100 samples per set"):
            invariance_surrogate(SW3, MAX3, [10, 20, 40], replicas=99,
                                 master_seed=1)

    @pytest.mark.parametrize("seed", [2 ** 64 - 1, 2 ** 64 - 7919 * 2, -1])
    def test_out_of_range_seed_refused_before_walking(self, monkeypatch, seed):
        # level j walks with seed + 7919 j; the refusal names the seed given
        monkeypatch.setattr(walk, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        with pytest.raises(UsageError, match=f"seed {seed} is out of range"):
            invariance_surrogate(SW3, MAX3, [10, 20, 40], replicas=100,
                                 master_seed=seed)

    def test_negative_control_norm_mismatch(self):
        # same level, different norms: clearly different scaled laws
        a = scaled_samples(SW3, MAX3, 8, replicas=250, master_seed=5)
        b = scaled_samples(SW3, make_norm("l1", 3), 8, replicas=250,
                           master_seed=6)
        chk = distributional_cauchy(a.samples, b.samples)
        assert chk.statistic > chk.noise_band
