import math

import numpy as np
import pytest

from normwalk.errors import ResourceError, UsageError
from normwalk.green import (
    GreenField,
    clt_tail_estimate,
    green_dp,
    green_mc,
    green_vs_hitting,
    spitzer_asymptotic,
    spitzer_constant_isotropic,
)
from normwalk.norms import make_norm
from normwalk.walk import (
    StepDistribution,
    hitting_probability,
    make_lazy_walk,
    make_simple_walk,
)

MAX3 = make_norm("max", 3)

# DP oracle with generous budgets puts G(0,0) at 0.516386 (matching the
# classical return probability p(0) = 1 - 1/1.516386 = 0.340537); frozen here.
G00 = 0.516386
P0 = G00 / (1 + G00)


# -- reference: the per-atom slice update the flat stencil replaced -----------

def reference_green_field(step, n_max, radius):
    """(partial, leak) from a fresh q and one strided slice add per atom."""
    d = step.dim
    shape = (2 * radius + 1,) * d
    p = np.zeros(shape)
    p[(radius,) * d] = 1.0
    g = np.zeros(shape)
    leak = 0.0
    atoms = list(zip(step.support, step.probabilities))
    for _ in range(n_max):
        q = np.zeros(shape)
        for vec, prob in atoms:
            src = [slice(None)] * d
            dst = [slice(None)] * d
            ok = True
            for ax, off in enumerate(vec):
                off = int(off)
                if abs(off) > 2 * radius:
                    ok = False
                    break
                if off > 0:
                    src[ax] = slice(0, shape[ax] - off)
                    dst[ax] = slice(off, shape[ax])
                elif off < 0:
                    src[ax] = slice(-off, shape[ax])
                    dst[ax] = slice(0, shape[ax] + off)
            if ok:
                q[tuple(dst)] += prob * p[tuple(src)]
        leak += p.sum() - q.sum()
        p = q
        g += p
    return g, float(leak)


def _random_law(d, seed):
    """Asymmetric law: offsets up to +-3 on several axes, one atom of mass 0."""
    rng = np.random.default_rng(seed)
    support = rng.integers(-3, 4, size=(9, d))
    support[0] = (2,) + (-3,) * (d - 1)
    support[1] = (-3,) + (2,) * (d - 1)
    probs = rng.random(9)
    probs[4] = 0.0
    return StepDistribution(d, support, probs / probs.sum())


STENCIL_LAWS = {
    **{f"simple{d}": make_simple_walk(d) for d in (1, 2, 3, 4)},
    "lazy3": make_lazy_walk(3),
    "random2": _random_law(2, 11),
    "random3": _random_law(3, 12),
    # (0, 5, 0) and (-7, 0, 1) reach past a radius-2 box (side 5)
    "far3": StepDistribution(3, [[1, 0, 0], [0, 5, 0], [-1, 0, 0],
                                 [-7, 0, 1], [0, -2, 3], [2, -1, -3]],
                             [0.3, 0.1, 0.2, 0.05, 0.2, 0.15]),
}


class TestStencilBitIdentity:
    @pytest.mark.parametrize("law", sorted(STENCIL_LAWS))
    @pytest.mark.parametrize("n_max", [1, 40])
    @pytest.mark.parametrize("radius", [2, 6])
    def test_partial_and_leak_equal_reference(self, law, n_max, radius):
        step = STENCIL_LAWS[law]
        field = GreenField(step, n_max=n_max, box_radius=radius)
        partial, leak = reference_green_field(step, n_max, radius)
        assert field.partial.tobytes() == partial.tobytes()
        assert field.leak == leak


class TestSpitzer:
    def test_isotropic_constant_d3(self):
        c = spitzer_constant_isotropic(3, 1 / 3)
        assert c == pytest.approx(3 / (2 * math.pi), rel=1e-14)

    def test_general_formula_reduces_to_isotropic(self):
        q = np.eye(3) / 3
        for r in (3.0, 5.0):
            want = spitzer_constant_isotropic(3, 1 / 3) / r
            assert spitzer_asymptotic(q, [r, 0, 0]) == pytest.approx(want, rel=1e-12)

    def test_homogeneity_degree(self):
        q = np.eye(3) / 3
        v = spitzer_asymptotic(q, [2, 1, 2])
        assert spitzer_asymptotic(q, [4, 2, 4]) == pytest.approx(v / 2, rel=1e-12)

    def test_anisotropic_det_factor(self):
        q = np.diag([0.5, 0.25, 0.25])
        x = [5, 0, 0]
        quad = 25 / 0.5
        want = math.gamma(0.5) / (2 * math.pi ** 1.5) \
            * (0.5 * 0.25 * 0.25) ** -0.5 * quad ** -0.5
        assert spitzer_asymptotic(q, x) == pytest.approx(want, rel=1e-12)

    def test_rejects_singular(self):
        with pytest.raises(UsageError):
            spitzer_asymptotic(np.diag([1.0, 1.0, 0.0]), [1, 0, 0])

    def test_rejects_d2(self):
        with pytest.raises(UsageError):
            spitzer_asymptotic(np.eye(2), [1, 0])


@pytest.fixture(scope="module")
def field():
    return GreenField(make_simple_walk(3), n_max=600, box_radius=24)


class TestGreenDP:
    def test_first_return_terms(self):
        f = GreenField(make_simple_walk(3), n_max=2, box_radius=3)
        assert f.partial_at((0, 0, 0)) == pytest.approx(1 / 6, abs=1e-15)
        assert f.partial_at((1, 0, 0)) == pytest.approx(1 / 6, abs=1e-15)

    def test_parity_zeros_exact(self):
        # P(S_n = x) = 0 when n and ||x||_1 have different parity
        sw = make_simple_walk(3)
        p1 = GreenField(sw, n_max=1, box_radius=3)
        p2 = GreenField(sw, n_max=2, box_radius=3)
        p3 = GreenField(sw, n_max=3, box_radius=3)
        assert p1.partial_at((1, 1, 0)) == 0.0   # even site, odd step count
        assert p1.partial_at((0, 0, 0)) == 0.0
        # an odd site gains nothing at n = 2, an even site nothing at n = 3
        assert p2.partial_at((1, 0, 0)) == p1.partial_at((1, 0, 0))
        assert p3.partial_at((1, 1, 0)) == p2.partial_at((1, 1, 0))

    def test_symmetry(self, field):
        assert field.partial_at((2, 1, 0)) == field.partial_at((-2, -1, 0))
        assert field.green((3, 0, 0)).value == \
            pytest.approx(field.green((0, 0, 3)).value, rel=1e-12)

    def test_g00_and_neighbour_identity(self, field):
        g0 = field.green((0, 0, 0))
        assert g0.value == pytest.approx(G00, abs=5e-3)
        # every visit to 0 at n >= 1 arrives from a neighbour: G(0,e1) = G(0,0)
        assert field.green((1, 0, 0)).value == pytest.approx(g0.value, abs=5e-3)

    def test_partial_nondecreasing_in_nmax(self):
        sw = make_simple_walk(3)
        f1 = GreenField(sw, n_max=50, box_radius=12)
        f2 = GreenField(sw, n_max=150, box_radius=12)
        assert f2.partial_at((1, 0, 0)) >= f1.partial_at((1, 0, 0))
        assert f2.partial_at((0, 0, 0)) >= f1.partial_at((0, 0, 0))

    def test_estimate_brackets_truth(self, field):
        g = field.green((0, 0, 0))
        assert g.lower_bound <= G00 <= g.lower_bound + 3 * g.error_bound + 0.05

    def test_box_budget(self):
        with pytest.raises(ResourceError):
            GreenField(make_simple_walk(3), n_max=10, box_radius=500)

    def test_outside_box_rejected(self, field):
        with pytest.raises(UsageError):
            field.partial_at((30, 0, 0))

    def test_wrong_dimension_rejected(self, field):
        for query in (lambda: field.partial_at((1, 0)),
                      lambda: field.partial_at((1, 0, 0, 0)),
                      lambda: field.green((1, 0)),
                      lambda: field.level_sum(make_norm("max", 2), 1)):
            with pytest.raises(UsageError, match="dimension 3"):
                query()

    def test_green_dp_wrapper_defaults(self):
        est = green_dp(make_simple_walk(3), (1, 0, 0), n_max=400)
        assert est.method == "dp"
        assert est.value == pytest.approx(G00, abs=0.01)


def test_clt_tail_estimate_matches_series():
    # windowed integral against the directly summed local-CLT series
    q = np.eye(3) / 3
    x = np.array([2, 0, 0])
    n0, n1 = 500, 400_000
    ns = np.arange(n0 + 1, n1 + 1)
    dens = (2 * np.pi * ns) ** -1.5 * (1 / 27) ** -0.5 \
        * np.exp(-(x @ x) * 3 / (2 * ns))
    window = clt_tail_estimate(q, x, n0) - clt_tail_estimate(q, x, n1)
    assert window == pytest.approx(dens.sum(), rel=2e-3)


class TestGreenMC:
    def test_agrees_with_dp_within_bars(self, field):
        sw = make_simple_walk(3)
        mc = green_mc(sw, MAX3, (1, 0, 0), replicas=6000, master_seed=3,
                      k_cut=32)
        dp = field.green((1, 0, 0))
        # allow the truncation deficit on top of the statistical bars
        trunc = mc.value * (np.sqrt(3) / 32) * 3
        assert abs(mc.value - dp.value) <= mc.error_bound + dp.error_bound + trunc

    def test_fixed_seed_reproducible(self):
        sw = make_simple_walk(3)
        a = green_mc(sw, MAX3, (1, 0, 0), replicas=500, master_seed=7, k_cut=16)
        b = green_mc(sw, MAX3, (1, 0, 0), replicas=500, master_seed=7, k_cut=16)
        assert a.value == b.value

    def test_origin_default_k_cut_flags_its_bias(self):
        est = green_mc(make_simple_walk(3), MAX3, (0, 0, 0), replicas=4000,
                       master_seed=5)
        # exit bias estimate C / k_cut at k_cut 16, C = 3 / (2 pi) for
        # sigma^2 = 1/3, against the one-sigma error_bound / 3
        bias = 3 / (2 * np.pi) / 16
        assert bias > est.error_bound / 3
        assert est.undercovered
        assert abs(est.value - G00) <= est.error_bound + bias

    @pytest.mark.parametrize("x", [(1, 0, 0), (2, 1, 0)])
    def test_far_cut_not_flagged(self, x):
        # C / (64 - |x|) <= 0.0076 against a one-sigma error of about 0.03
        est = green_mc(make_simple_walk(3), MAX3, x, replicas=500,
                       master_seed=5, k_cut=64)
        assert not est.undercovered

    def test_far_outside_cut_returns_zero_flagged(self):
        sw = make_simple_walk(3)
        est = green_mc(sw, MAX3, (40, 0, 0), replicas=100, master_seed=1,
                       k_cut=16)
        assert est.value == 0.0
        assert est.undercovered


class TestGreenVsHitting:
    def test_consistency_at_e1(self, field):
        sw = make_simple_walk(3)
        g = green_mc(sw, MAX3, (1, 0, 0), replicas=8000, master_seed=41,
                     k_cut=48)
        px = hitting_probability(sw, MAX3, (1, 0, 0), replicas=8000,
                                 master_seed=42, k_cut=48)
        p0 = hitting_probability(sw, MAX3, (0, 0, 0), replicas=8000,
                                 master_seed=43, k_cut=48)
        rep = green_vs_hitting(g.value, g.error_bound / 3,
                               px.p_hat, px.std_error, p0.p_hat, p0.std_error)
        assert rep.passed, rep

    def test_negative_control_mismatched_laws(self):
        # deliberately compare the lazy walk's Green value against simple-walk
        # hitting probabilities: the identity must fail
        lazy_g = 2 * G00  # lazy walk doubles visit counts (half the moves)
        rep = green_vs_hitting(lazy_g, 0.002, P0, 0.002, P0, 0.002)
        assert not rep.passed

    def test_ratio_formula(self):
        rep = green_vs_hitting(P0 / (1 - P0), 0.0, P0, 0.0, P0, 0.0)
        assert rep.passed and rep.gap == pytest.approx(0.0, abs=1e-15)

    def test_p0_domain(self):
        with pytest.raises(UsageError):
            green_vs_hitting(1.0, 0.1, 0.3, 0.01, 1.0, 0.01)
