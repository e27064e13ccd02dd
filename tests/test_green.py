import itertools
import math
import tracemalloc

import numpy as np
import pytest

from normwalk import green, walk
from normwalk.errors import ResourceError, UsageError
from normwalk.green import (
    GreenField,
    _symmetries,
    clt_tail_bound,
    clt_tail_estimate,
    green_dp,
    green_mc,
    green_vs_hitting,
    spitzer_asymptotic,
    spitzer_constant_isotropic,
)
from normwalk.norms import make_norm, sphere_points
from normwalk.walk import (
    StepDistribution,
    hitting_probability,
    make_lazy_walk,
    make_simple_walk,
    site_visit_samples,
)

MAX3 = make_norm("max", 3)

# DP oracle with generous budgets puts G(0,0) at 0.516386 (matching the
# classical return probability p(0) = 1 - 1/1.516386 = 0.340537); frozen here.
G00 = 0.516386
P0 = G00 / (1 + G00)


# -- reference: the per-atom slice update, set to orbit representatives ------

def law_symmetries(step):
    """(flippable axes, swap classes) from the law's atom -> mass map, built
    apart from `green._symmetries`: a swap class is an axis with every axis
    it can be swapped with."""
    d = step.dim
    law = {}
    for vec, prob in zip(step.support.tolist(), step.probabilities.tolist()):
        if prob > 0:
            law[tuple(vec)] = law.get(tuple(vec), 0.0) + prob

    def kept(image):
        return {image(list(a)): m for a, m in law.items()} == law

    def flip(ax):
        return lambda a: tuple(-v if i == ax else v for i, v in enumerate(a))

    def swap(i, j):
        return lambda a: tuple(a[j] if k == i else a[i] if k == j else a[k]
                               for k in range(d))

    flips = [ax for ax in range(d) if kept(flip(ax))]
    classes = sorted({tuple(b for b in range(d) if b == ax or kept(swap(ax, b)))
                      for ax in range(d)})
    return flips, [list(cls) for cls in classes]


def representative_map(step, radius):
    """Flat index of every cell's representative: |y| on the flippable axes,
    each swap class in nonincreasing order."""
    flips, classes = law_symmetries(step)
    shape = (2 * radius + 1,) * step.dim
    rep = []
    for cell in np.ndindex(shape):
        y = [abs(c - radius) if ax in flips else c - radius
             for ax, c in enumerate(cell)]
        for cls in classes:
            for ax, v in zip(cls, sorted((y[ax] for ax in cls), reverse=True)):
                y[ax] = v
        rep.append(np.ravel_multi_index(tuple(v + radius for v in y), shape))
    return np.array(rep)


def reference_green_field(step, n_max, radius, symmetrize=True, by_orbit=False):
    """(partial, leak) from a fresh q and one strided slice add per atom;
    with `symmetrize`, every cell then takes its representative's value.
    ``leak`` is 1 less the `math.fsum` of the last step's mass, clamped at
    0: that mass is q over the whole box or, with `by_orbit` (which needs
    `symmetrize`), each representative's value times its orbit size, as
    the DP weighs it."""
    d = step.dim
    shape = (2 * radius + 1,) * d
    rep = representative_map(step, radius) if symmetrize else None
    p = np.zeros(shape)
    p[(radius,) * d] = 1.0
    g = np.zeros(shape)
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
        if rep is not None:
            q = q.reshape(-1)[rep].reshape(shape)
        p = q
        g += p
    mass = p.reshape(-1)
    if by_orbit:
        reps = np.unique(rep)
        mass = mass[reps] * np.bincount(rep)[reps].astype(float)
    return g, max(1.0 - math.fsum(mass.tolist()), 0.0)


def _random_law(d, seed):
    """Asymmetric law: offsets up to +-3 on several axes, one atom of mass 0."""
    rng = np.random.default_rng(seed)
    support = rng.integers(-3, 4, size=(9, d))
    support[0] = (2,) + (-3,) * (d - 1)
    support[1] = (-3,) + (2,) * (d - 1)
    probs = rng.random(9)
    probs[4] = 0.0
    return StepDistribution(d, support, probs / probs.sum())


def _mixed_law():
    """Flipping axis 0 or 1 and swapping them keep this law; nothing moves
    axis 2."""
    mass = {}
    for (a, b, c), prob in [((1, 0, 2), 0.2), ((2, -1, 0), 0.3),
                            ((0, 0, -1), 0.25), ((-1, -1, 1), 0.25)]:
        for s, t in itertools.product((1, -1), repeat=2):
            for image in ((s * a, t * b, c), (t * b, s * a, c)):
                mass[image] = mass.get(image, 0.0) + prob / 8
    return StepDistribution(3, list(mass), list(mass.values()))


STENCIL_LAWS = {
    **{f"simple{d}": make_simple_walk(d) for d in (1, 2, 3, 4)},
    "lazy3": make_lazy_walk(3),
    "random2": _random_law(2, 11),
    "random3": _random_law(3, 12),
    # (0, 5, 0) and (-7, 0, 1) reach past a radius-2 box (side 5)
    "far3": StepDistribution(3, [[1, 0, 0], [0, 5, 0], [-1, 0, 0],
                                 [-7, 0, 1], [0, -2, 3], [2, -1, -3]],
                             [0.3, 0.1, 0.2, 0.05, 0.2, 0.15]),
    "mixed3": _mixed_law(),
    # bipartite (every coordinate sum odd) and asymmetric: multi-axis
    # offsets, an atom of mass 0, and (0, 5, 0) past a radius-2 box
    "bipartite3": StepDistribution(3, [[1, 0, 0], [-1, 0, 0], [2, 1, 0],
                                       [-3, 0, 0], [0, -2, 3], [0, 0, -1],
                                       [1, 1, -1], [0, 5, 0]],
                                   [0.2, 0.2, 0.1, 0.1, 0.15, 0.0, 0.15, 0.1]),
}


SYMMETRIC_LAWS = ["lazy3", "mixed3", "simple1", "simple2", "simple3", "simple4"]


class TestStencilBitIdentity:
    def test_law_symmetries(self):
        for law, step in STENCIL_LAWS.items():
            flips, classes = law_symmetries(step)
            d = step.dim
            if law == "mixed3":
                assert (flips, classes) == ([0, 1], [[0, 1], [2]])
            elif law in SYMMETRIC_LAWS:
                assert (flips, classes) == (list(range(d)), [list(range(d))])
            else:
                assert (flips, classes) == ([], [[ax] for ax in range(d)])
            assert _symmetries(step) == (flips, classes)

    @pytest.mark.parametrize("law", sorted(STENCIL_LAWS))
    def test_closed_form_rep_count(self, law):
        # the count FIELD_BUDGET reads before the orbit pass, against the
        # representatives the pass finds
        step = STENCIL_LAWS[law]
        flips, classes = _symmetries(step)
        for radius in range(1, 7):
            field = GreenField(step, n_max=1, box_radius=radius)
            assert green._rep_count(flips, classes, radius) == len(field._reps)

    @pytest.mark.parametrize("law", sorted(STENCIL_LAWS))
    @pytest.mark.parametrize("n_max", [1, 40])
    @pytest.mark.parametrize("radius", [2, 6])
    def test_partial_and_leak_equal_reference(self, law, n_max, radius):
        step = STENCIL_LAWS[law]
        field = self.assert_equals_reference(law, n_max, radius)
        # the full box adds each orbit's value once per cell, where the DP
        # rounds its product with the orbit size
        _, leak = reference_green_field(step, n_max, radius)
        assert abs(field.leak - leak) <= 4 * n_max * np.spacing(1.0)

    @pytest.mark.parametrize("law", SYMMETRIC_LAWS)
    def test_partial_invariant_under_law_symmetries(self, law):
        step = STENCIL_LAWS[law]
        partial = GreenField(step, n_max=40, box_radius=6).partial
        flips, classes = law_symmetries(step)
        for ax in flips:
            assert np.flip(partial, ax).tobytes() == partial.tobytes()
        for cls in classes:
            for a, b in zip(cls, cls[1:]):
                assert np.swapaxes(partial, a, b).tobytes() == partial.tobytes()

    @pytest.mark.parametrize("law", SYMMETRIC_LAWS)
    def test_drift_from_unsymmetrized_reference(self, law):
        # each cell of the plain slice update adds its atoms in one fixed
        # order, so it breaks the symmetry in the last bits; setting cells to
        # their representatives moves them by at most 5 ulps here
        step = STENCIL_LAWS[law]
        partial = GreenField(step, n_max=40, box_radius=6).partial
        plain, _ = reference_green_field(step, 40, 6, symmetrize=False)
        ulps = np.abs(partial - plain) / np.spacing(np.maximum(partial, plain))
        assert ulps.max() <= 5

    @staticmethod
    def assert_equals_reference(law, n_max, radius):
        step = STENCIL_LAWS[law]
        field = GreenField(step, n_max=n_max, box_radius=radius)
        partial, leak = reference_green_field(step, n_max, radius, by_orbit=True)
        assert field.partial.tobytes() == partial.tobytes()
        assert field.leak == leak
        return field

    @pytest.mark.parametrize("law, radius, reps", [
        ("simple3", 31, 5984), ("lazy3", 29, 4960),
        ("random3", 10, 9261), ("bipartite3", 10, 9261)])
    def test_boxes_past_one_gather(self, law, radius, reps):
        # more representatives than one gather of _GATHER_BYTES holds
        # columns of the law's atoms, so a step takes several chunks
        step = STENCIL_LAWS[law]
        atoms = int(np.count_nonzero(step.probabilities))
        orbits = green._orbits(*_symmetries(step), step.dim, radius,
                               law in BIPARTITE_LAWS)
        assert len(orbits[1]) == reps
        assert reps > green._GATHER_BYTES // (8 * atoms)
        self.assert_equals_reference(law, 5, radius)

    @pytest.mark.parametrize("law", sorted(STENCIL_LAWS))
    def test_two_column_gathers(self, monkeypatch, law):
        # every gather takes 2 columns, the last 2 or 3: chunk edges fall
        # all over the box
        monkeypatch.setattr(green, "_GATHER_BYTES", 16)
        self.assert_equals_reference(law, 40, 6)

    @pytest.mark.parametrize("n_max", [1, 2, 30])
    def test_box_of_radius_n_max_never_absorbs(self, n_max):
        # every point reachable in n_max steps lies inside the box, so the
        # partial sums hold all n_max steps' mass
        field = GreenField(make_simple_walk(3), n_max=n_max, box_radius=n_max)
        assert field.leak <= 1e-12
        assert field.partial.sum() == pytest.approx(n_max, rel=1e-12)


def spy_steps(monkeypatch):
    """The arguments of every `green._steps` call, appended to a list."""
    calls, steps = [], green._steps

    def spy(*args):
        calls.append(args)
        return steps(*args)

    monkeypatch.setattr(green, "_steps", spy)
    return calls


# every atom of positive mass has an odd coordinate sum: mixed3's four
# generators do, and flips and swaps keep the sum's parity
BIPARTITE_LAWS = ["bipartite3", "mixed3", "simple1", "simple2", "simple3",
                  "simple4"]


class TestParityClasses:
    """A bipartite law steps one parity class of representatives at a time:
    `_orbits` numbers them in class order, and `_steps` receives the class
    bounds."""

    @staticmethod
    def parity(field):
        r = field.box_radius
        return (np.stack(np.unravel_index(field._reps, field._rep_of.shape))
                - r).sum(axis=0) % 2

    @pytest.mark.parametrize("law", sorted(STENCIL_LAWS))
    def test_split_taken_for_bipartite_laws(self, monkeypatch, law):
        step = STENCIL_LAWS[law]
        sums = step.support[step.probabilities > 0].sum(axis=1) % 2
        assert sums.all() == (law in BIPARTITE_LAWS)
        calls = spy_steps(monkeypatch)
        field = GreenField(step, n_max=3, box_radius=6)
        bounds, reps, n = calls[0][2], field._reps, len(field._reps)
        # every representative is its own representative's index
        assert (field._rep_of.reshape(-1)[reps] == np.arange(n)).all()
        if law not in BIPARTITE_LAWS:
            assert len(bounds) == 1 and (np.diff(reps) > 0).all()
            return
        # even coordinate sums first, each class in ascending order
        even = bounds[0][-1]
        assert [bounds[0][0], bounds[1][0], bounds[1][-1]] == [0, even, n]
        parity = self.parity(field)
        for cls, bit in ((slice(0, even), 0), (slice(even, n), 1)):
            assert (parity[cls] == bit).all() and (np.diff(reps[cls]) > 0).all()

    @pytest.mark.parametrize("law, radius", [
        ("simple1", 1), ("simple1", 2), ("simple2", 1)])
    def test_class_of_one_not_split(self, monkeypatch, law, radius):
        # a one-column gather would add its rows pairwise
        calls = spy_steps(monkeypatch)
        field = TestStencilBitIdentity.assert_equals_reference(law, 40, radius)
        assert len(calls[0][2]) == 1
        assert (np.diff(field._reps) > 0).all()
        assert min(np.count_nonzero(self.parity(field) == bit) for bit in (0, 1)) == 1

    @pytest.mark.parametrize("law", ["simple3", "bipartite3"])
    def test_several_gathers_per_class(self, monkeypatch, law):
        # gathers of 3 columns, a class's last of 2 to 4: each class takes
        # many chunks
        monkeypatch.setattr(green, "_GATHER_BYTES", 8 * 7 * 3)
        calls = spy_steps(monkeypatch)
        field = TestStencilBitIdentity.assert_equals_reference(law, 40, 6)
        bounds = calls[0][2]
        assert len(bounds) == 2 and min(map(len, bounds)) > 4
        assert field.leak > 0


class TestLeakNonnegative:
    # a box of radius at least n_max times the largest offset cannot
    # absorb, so its leak is 1 less the rounded mass left in it; unclamped,
    # random3 at n_max 2 reads -2.2e-16 and seed 2 in d = 4 at n_max 3
    # -4.4e-16
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n_max", [2, 5, 10])
    def test_simple_walk(self, d, n_max):
        field = GreenField(make_simple_walk(d), n_max=n_max, box_radius=n_max)
        assert 0.0 <= field.leak <= 1e-12

    @pytest.mark.parametrize("d, seed", [(3, 12), (4, 0), (4, 2)])
    @pytest.mark.parametrize("n_max", [2, 3])
    def test_asymmetric_law(self, d, seed, n_max):
        # offsets of at most 3
        field = GreenField(_random_law(d, seed), n_max=n_max, box_radius=3 * n_max)
        assert 0.0 <= field.leak <= 1e-12


class TestFieldMemory:
    # numpy reports its data allocations to tracemalloc, so the peaks are
    # deterministic; a float64 box of radius 30 is 8 * 61**3 bytes
    @pytest.mark.parametrize("law, boxes", [
        ("simple3", 3.25),   # the orbit pass: 16 B per cell
        ("lazy3", 4.07),
        # every cell its own orbit: rep_of, nine int32 tables, p, q, sums,
        # gather buffer and take's intp index copy, 88 B per cell
        ("random3", 11.1),
        # every cell its own orbit: the steps fit the build's 4 + 48 + 4 B
        # per atom of the 8 in the box, 84 B per cell
        ("bipartite3", 10.5),
        # 30,256 orbits: the build's 4 B per cell and 48 + 4 B per atom of
        # the 17 per orbit, and the index box padded by 2
        ("mixed3", 3.04),
    ])
    def test_peak_in_boxes(self, law, boxes):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            GreenField(STENCIL_LAWS[law], n_max=3, box_radius=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= boxes * 8 * 61 ** 3

    def test_budget_refuses_before_allocating(self):
        # 261**3 cells of an asymmetric nine-atom law need about 1.6 GB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with pytest.raises(ResourceError, match="bytes, over budget"):
                GreenField(STENCIL_LAWS["random3"], n_max=1, box_radius=130)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_symmetric_law_admits_a_larger_box(self, monkeypatch):
        # 351**3 cells is over 40 million, the cap of a full-box DP at 32 B
        # per cell; the simple walk's orbit DP holds about 16 B per cell
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(green, "_orbits", admitted)
        with pytest.raises(Admitted):
            GreenField(make_simple_walk(3), n_max=1, box_radius=175)
        with pytest.raises(ResourceError):
            GreenField(STENCIL_LAWS["random3"], n_max=1, box_radius=175)


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

    def test_negative_level_refused(self, field):
        with pytest.raises(UsageError, match="k must be >= 0, got -2"):
            field.level_sum(make_norm("max", 3), -2)

    def test_green_dp_wrapper_defaults(self):
        est = green_dp(make_simple_walk(3), (1, 0, 0), n_max=400)
        assert est.method == "dp"
        assert est.value == pytest.approx(G00, abs=0.01)


def green_exact(x, rates=None):
    """G(0,x) of the walk that steps +-e_i with probability rates[i] / 2
    each (the simple walk's rates 1/d by default): int_0^inf prod_i
    ive(|x_i|, rates[i] t) dt minus the n = 0 term (Lawler & Limic, Random
    Walk: A Modern Introduction, 2010, ch. 4)."""
    from scipy.integrate import quad
    from scipy.special import ive

    d = len(x)
    rates = [1 / d] * d if rates is None else rates
    val = quad(lambda t: math.prod(ive(abs(v), r * t) for v, r in zip(x, rates)),
               0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=500)[0]
    return val - (not any(x))


@pytest.fixture(scope="module")
def lazy_field():
    return GreenField(make_lazy_walk(3), n_max=600, box_radius=24)


class TestGreenQueryPinned:
    def test_value_and_bound_bits(self):
        # recorded before the step moments were fixed at construction
        field = GreenField(make_simple_walk(3), n_max=200, box_radius=12)
        est = field.green((3, 1, 0))
        assert est.value.hex() == "0x1.39822d25a3106p-3"
        assert est.error_bound.hex() == "0x1.41809aba8e377p-4"


def per_point_green(field, x):
    """(value, error_bound) of field.green(x) by the per-point formula the
    field evaluated before its table: one solve of Q y = x, a scalar
    gammainc and Python float powers."""
    from scipy.special import gammainc

    step, d, n = field.step, field.step.dim, field.n_max
    q = np.asarray(step.covariance, dtype=float)
    v = np.asarray(x, dtype=float)
    c = float(np.linalg.det(q)) ** -0.5 * (2 * math.pi) ** (-d / 2)
    a = float(v @ np.linalg.solve(q, v)) / 2.0
    s = d / 2 - 1
    if a == 0.0:
        tail = c * n ** (-s) / s
    else:
        tail = c * a ** (-s) * math.gamma(s) * float(gammainc(s, a / n))
    gap = max(field.box_radius - max(map(abs, x)), 1)
    leak_bound = field.leak * spitzer_constant_isotropic(d, step.sigma2) \
        * gap ** (2 - d)
    err = max(clt_tail_bound(q, n) - tail, 0.0) + leak_bound \
        + 0.05 * tail
    return field.partial_at(x) + tail, err


class TestGreenTable:
    """green, partial_at and level_sum read one table over the orbit
    representatives."""

    RADIUS = 10

    @pytest.fixture(scope="class")
    def tables(self):
        # (field, (value, error_bound) at every box cell in C order)
        out = {}
        for law in ("simple3", "lazy3", "mixed3", "bipartite3", "random3"):
            field = GreenField(STENCIL_LAWS[law], n_max=150, box_radius=self.RADIUS)
            cells = itertools.product(range(-self.RADIUS, self.RADIUS + 1), repeat=3)
            out[law] = field, np.array([(e.value, e.error_bound)
                                        for e in map(field.green, cells)])
        return out

    @pytest.mark.parametrize("law", ["simple3", "lazy3", "mixed3", "bipartite3"])
    def test_constant_on_orbits(self, tables, law):
        field, got = tables[law]
        rep = representative_map(field.step, self.RADIUS)
        assert got.tobytes() == got[rep].tobytes()

    @pytest.mark.parametrize("law, ulps, rel", [
        ("simple3", 2, 0.0), ("lazy3", 2, 0.0), ("random3", 0, 1e-14)])
    def test_agrees_with_per_point_formula(self, tables, law, ulps, rel):
        # numpy's array power rounds a few values other than Python's
        # scalar one, and a batched solve other than one per point
        field, got = tables[law]
        cells = itertools.product(range(-self.RADIUS, self.RADIUS + 1), repeat=3)
        want = np.array([per_point_green(field, x) for x in cells])
        slack = np.maximum(ulps * np.spacing(want), rel * want)
        assert np.all(np.abs(got - want) <= slack)

    @pytest.mark.parametrize("family", ["max", "l1", "w1"])
    def test_level_sum_adds_green_values(self, field, family):
        norm = make_norm(family, 3)
        for k in range(5):
            want = math.fsum(field.green(p).value
                             for p in sphere_points(norm, k).tolist())
            assert field.level_sum(norm, k).hex() == want.hex()

    def test_partial_at_reads_the_box(self, tables):
        field, _ = tables["mixed3"]
        cells = itertools.product(range(-self.RADIUS, self.RADIUS + 1), repeat=3)
        got = np.array([field.partial_at(x) for x in cells])
        assert got.tobytes() == field.partial.reshape(-1).tobytes()

    @pytest.mark.parametrize("law", ["simple3", "lazy3", "random3"])
    def test_tail_estimate_on_an_array_of_points(self, law):
        q = STENCIL_LAWS[law].covariance
        points = np.array([(2, -1, 0), (0, 0, 0), (5, 3, -4), (0, 0, 0),
                           (-1, 0, 0), (9, 9, 9)])
        got = clt_tail_estimate(q, points, 40)
        want = [clt_tail_estimate(q, x, 40) for x in points]
        assert got.shape == (len(points),)
        if law == "random3":
            # a solve for many points rounds other than one per point
            assert got == pytest.approx(want, rel=1e-14, abs=0)
        else:
            assert got.tolist() == want


class TestPointLookup:
    """green and partial_at find one point's representative without an
    array: the same checks and messages, the same table entry."""

    @pytest.mark.parametrize("query", ["green", "partial_at"])
    @pytest.mark.parametrize("x, message", [
        ((25, 0, 0), "point (25, 0, 0) lies outside the DP box"),
        ((0, -3, -30), "point (0, -3, -30) lies outside the DP box"),
        ((1, 0), "point (1, 0) is not a lattice point of dimension 3"),
        ((1, 0, 0, 0), "point (1, 0, 0, 0) is not a lattice point of dimension 3"),
        ((1.7, 0, 0), "point (1.7, 0, 0) is not a lattice point of dimension 3"),
    ])
    def test_refusals(self, field, query, x, message):
        with pytest.raises(UsageError) as exc:
            getattr(field, query)(x)
        assert str(exc.value) == message

    def test_box_corner_accepted(self, field):
        assert field.partial_at((24, -24, 24)) == field.partial[-1, 0, -1]

    @pytest.mark.parametrize("law", ["simple3", "lazy3", "mixed3", "bipartite3",
                                     "random3"])
    def test_scalar_and_array_lookups_agree(self, law):
        field = GreenField(STENCIL_LAWS[law], n_max=5, box_radius=3)
        cells = list(itertools.product(range(-3, 4), repeat=3))
        assert [field._point(x)[1] for x in cells] == \
            field._rep(np.array(cells)).tolist()


class TestDPBoundAgainstExact:
    # the realised error is below 5e-4 of error_bound at these points
    POINTS = [(0, 0, 0), (1, 0, 0), (3, 0, 0), (2, 2, 1), (6, 0, 0)]

    @pytest.mark.parametrize("x", POINTS)
    def test_simple_walk(self, field, x):
        est = field.green(x)
        assert abs(est.value - green_exact(x)) <= est.error_bound

    @pytest.mark.parametrize("x", POINTS)
    def test_lazy_walk(self, lazy_field, x):
        # half the steps stay put: the lazy walk's Green function with the
        # n = 0 term is twice the simple walk's
        est = lazy_field.green(x)
        exact = 2 * green_exact(x) + (not any(x))
        assert abs(est.value - exact) <= est.error_bound


# +-e1 with probability 0.02 each and +-e2, +-e3 with 0.24 each:
# Q = diag(0.04, 0.48, 0.48), far from sigma^2 I
ANISOTROPIC_RATES = (0.04, 0.48, 0.48)
ANISOTROPIC = StepDistribution(
    3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    [0.02, 0.02, 0.24, 0.24, 0.24, 0.24])


class TestTailBoundAgainstExact:
    # clt_tail_bound is documented as conservative: it must cover the exact
    # tail sum_{m > n} P(S_m = x), the Bessel-integral G(0, x) minus the
    # partial sum of a field of radius n, which never absorbs in n steps
    LAWS = {"simple": (make_simple_walk(3), lambda x: green_exact(x)),
            "lazy": (make_lazy_walk(3), lambda x: 2 * green_exact(x) + (not any(x))),
            "anisotropic": (ANISOTROPIC, lambda x: green_exact(x, ANISOTROPIC_RATES))}

    @pytest.mark.parametrize("n", [20, 50])
    @pytest.mark.parametrize("law", LAWS)
    def test_bound_covers_exact_tail(self, law, n):
        step, exact = self.LAWS[law]
        field = GreenField(step, n_max=n, box_radius=n)
        assert field.leak == pytest.approx(0.0, abs=1e-12)  # rounding only
        claimed = clt_tail_bound(step.covariance, n)
        for x in [*TestDPBoundAgainstExact.POINTS, (0, 1, 0)]:
            realised = exact(x) - field.partial_at(x)
            assert 0.0 < realised <= claimed, (x, realised, claimed)


class TestRefusals:
    """Recurrent walks and points off the lattice are usage errors, not a
    traceback from inside the formulas or a silently truncated point."""

    @pytest.mark.parametrize("call", [
        lambda: GreenField(make_simple_walk(2), n_max=10, box_radius=5).green((1, 0)),
        lambda: GreenField(make_simple_walk(2), n_max=10,
                           box_radius=5).level_sum(make_norm("max", 2), 1),
        lambda: green_dp(make_simple_walk(1), (1,), n_max=10),
        lambda: green_dp(make_simple_walk(2), (1, 0), n_max=10),
        lambda: green_dp(make_simple_walk(2), (0, 0), n_max=10),
        lambda: clt_tail_estimate(np.eye(2) / 2, (1, 0), 10),
        lambda: clt_tail_bound(np.eye(2) / 2, 10),
    ], ids=["field-2d", "field-2d-level-sum", "dp-1d", "dp-2d", "dp-2d-origin",
            "clt-estimate-2d", "clt-bound-2d"])
    def test_recurrent(self, call):
        with pytest.raises(UsageError, match="walks are recurrent"):
            call()

    def test_field_2d_partial_sums_stay_readable(self):
        # the table of Green values is built, and refused, at the first query
        field = GreenField(make_simple_walk(2), n_max=2, box_radius=3)
        assert field.partial_at((0, 0)) == 0.25

    @pytest.mark.parametrize("call", [
        lambda: clt_tail_estimate(np.eye(3) / 3, (0, 0, 0), 0),
        lambda: clt_tail_estimate(np.eye(3) / 3, (1, 0, 0), -5),
        lambda: clt_tail_estimate(np.eye(3) / 3, np.eye(3), 0),
        lambda: clt_tail_bound(np.eye(3) / 3, 0),
    ], ids=["estimate-origin-0", "estimate-negative", "estimate-array-0",
            "bound-0"])
    def test_tail_before_step_one(self, call):
        # the tail sums over n > n_from; from n_from 0 it divided by zero
        # at the origin and came out nan from below 0
        with pytest.raises(UsageError, match="n_from must be >= 1"):
            call()

    def test_asymptotic_point_of_wrong_dimension(self):
        with pytest.raises(UsageError, match="dimension 3"):
            spitzer_asymptotic(np.eye(3), (1, 0))

    @pytest.mark.parametrize("call", [
        lambda field: field.green((1.7, 0, 0)),
        lambda field: field.partial_at((1.7, 0, 0)),
        lambda field: green_mc(make_simple_walk(3), MAX3, (1.5, 0, 0), 4, 0),
        lambda field: hitting_probability(make_simple_walk(3), MAX3, (1.5, 0, 0), 4, 0),
        lambda field: site_visit_samples(make_simple_walk(3), MAX3, (1.5, 0, 0),
                                         4, 0, k_cut=8),
    ], ids=["green", "partial_at", "green_mc", "hitting_probability",
            "site_visit_samples"])
    def test_non_integer_point(self, monkeypatch, field, call):
        monkeypatch.setattr(walk, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        with pytest.raises(UsageError, match="lattice point of dimension 3"):
            call(field)


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

    def test_one_replica_refused(self, monkeypatch):
        # ddof=1 has no standard error for one sample, so no error_bound
        monkeypatch.setattr(walk, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        with pytest.raises(UsageError, match="replicas must be >= 2"):
            green_mc(make_simple_walk(3), MAX3, (1, 0, 0), replicas=1,
                     master_seed=0)

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
