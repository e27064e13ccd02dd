import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normwalk import norms
from normwalk.errors import ResourceError, UsageError
from normwalk.norms import (
    NormSpec,
    iter_box_slabs,
    make_norm,
    sphere_points,
    validate_unimodular,
)

UNIMODULAR = [[1, -1, 0], [0, 1, -1], [1, -1, 1]]
# entries 2 and -3 exercise the general integer row combination
SHEAR = [[1, 2, 0], [0, 1, 0], [0, -3, 1]]


def lattice_points(dim, radius=5):
    return st.lists(st.integers(-radius, radius), min_size=dim, max_size=dim)


class TestNormValues:
    def test_max_norm(self):
        assert make_norm("max", 3).value([1, -2, 3]) == 3

    def test_weighted_l1(self):
        assert make_norm("w1", 3).value([1, -2, 3]) == 1 * 1 + 2 * 2 + 3 * 3

    @pytest.mark.parametrize("family, want", [("w1", [1, 2, 3]), ("l1", [1, 1, 1]),
                                              ("max", [1, 1, 1])])
    def test_weights_fixed_at_construction(self, family, want):
        spec = make_norm(family, 3)
        assert spec.weights is spec.weights
        assert spec.weights.dtype == np.int64 and spec.weights.tolist() == want
        with pytest.raises(ValueError):
            spec.weights[0] = 5

    def test_unimodular_example(self):
        spec = make_norm("l1", 3, transform=UNIMODULAR)
        # |x1-x2| + |x2-x3| + |x1-x2+x3| at (1,0,0)
        assert spec.value([1, 0, 0]) == 2
        assert spec.value([0, 1, 0]) == 3
        assert spec.value([1, 1, 1]) == 1

    def test_l1_real(self):
        assert make_norm("l1", 3).values([[0.5, -0.5, 0.0]])[0] == 1.0

    def test_max_real_zero(self):
        assert make_norm("max", 3).values([[0.0, 0.0, 0.0]])[0] == 0.0

    def test_scaled_max_real(self):
        assert make_norm("scaled_max", 3, factor=2).values([[1.0, 0, 0]])[0] == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            make_norm("max", 3).value([1, 2])
        with pytest.raises(UsageError):
            make_norm("max", 3).values([[1.0, 2.0]])

    def test_zero_iff_origin(self):
        spec = make_norm("w1", 4)
        assert spec.value([0, 0, 0, 0]) == 0
        assert spec.value([0, 0, 0, 1]) == 4


EVALUATED_SPECS = [
    make_norm("max", 3), make_norm("l1", 3), make_norm("w1", 4),
    make_norm("scaled_max", 3, factor=2),
    make_norm("l1", 3, transform=UNIMODULAR),
    make_norm("w1", 3, transform=UNIMODULAR),
    make_norm("max", 3, transform=SHEAR),
]


@pytest.mark.parametrize("spec", EVALUATED_SPECS,
                         ids=lambda s: json.dumps(s.describe()))
def test_values_equal_value_in_both_layouts(spec):
    rng = np.random.default_rng(4)
    rows = rng.integers(-50, 51, size=(300, spec.dim))
    exact = [spec.value(p) for p in rows.tolist()]
    cols = np.ascontiguousarray(rows.T)
    for pts in (rows, cols.T, rows.astype(np.int32)):
        got = spec.values(pts)
        assert got.dtype == np.int64
        assert got.tolist() == exact
    assert spec.values(rows[0]).tolist() == [exact[0]]


@pytest.mark.parametrize("spec", EVALUATED_SPECS,
                         ids=lambda s: json.dumps(s.describe()))
def test_values_of_real_points_are_float64(spec):
    # integer dtypes are evaluated in int64; every other dtype in float64,
    # so a real point is not truncated to a lattice point first
    rng = np.random.default_rng(5)
    rows = rng.integers(-50, 51, size=(300, spec.dim))
    exact = [spec.value(p) for p in rows.tolist()]
    for dtype in (np.float64, np.float32):
        got = spec.values(rows.astype(dtype))
        assert got.dtype == np.float64
        assert got.tolist() == exact
    half = np.zeros((1, spec.dim))
    half[0, 0] = 0.5
    assert spec.values(half)[0] == pytest.approx(spec.value([1] + [0] * (spec.dim - 1)) / 2,
                                                 rel=1e-15)


class TestUnimodular:
    def test_identity(self):
        assert validate_unimodular(np.eye(3, dtype=int))

    def test_paper_matrix(self):
        assert validate_unimodular(UNIMODULAR)

    def test_diag2_rejected(self):
        assert not validate_unimodular(np.diag([2, 1, 1]))

    def test_non_integer_rejected_at_construction(self):
        with pytest.raises(UsageError):
            make_norm("l1", 2, transform=np.array([[1.5, 0], [0, 1.0]]))

    @pytest.mark.parametrize("transform", [
        [[1, -1], [0, 1, -1], [1, -1, 1]],
        [[1, -1, 0], [], [1, -1, 1]],
        [[1, -1, 0, 0], [0, 1, -1], [1, -1, 1]],
    ], ids=["short-row", "empty-row", "long-row"])
    def test_ragged_rejected_at_construction(self, transform):
        with pytest.raises(UsageError, match="transform must be 3x3, got ragged rows"):
            make_norm("l1", 3, transform=transform)

    @pytest.mark.parametrize("entry", ["x", "1", None, float("inf")])
    def test_non_numeric_rejected_at_construction(self, entry):
        with pytest.raises(UsageError, match="transform entries must be integers"):
            make_norm("l1", 3, transform=[[1, entry, 0], [0, 1, -1], [1, -1, 1]])

    def test_non_unimodular_rejected_at_construction(self):
        with pytest.raises(UsageError):
            make_norm("l1", 3, transform=np.diag([2, 1, 1]))

    def test_matches_float_determinant(self):
        rng = np.random.default_rng(1)
        outcomes = []
        for _ in range(400):
            m = rng.integers(-2, 3, size=(3, 3))
            outcomes.append(validate_unimodular(m))
            assert outcomes[-1] == (abs(round(np.linalg.det(m))) == 1)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("matrix", [
        [[1, 0], [0]], [[1, 0]], [], [[]], [1, 0], 7, None, "ab", [["a"]],
        [[1.5, 0], [0, 1]], [[float("nan"), 0], [0, 1]], [[float("inf"), 0], [0, 1]],
        [[None, 0], [0, 1]], [["1", 0], [0, 1]], np.ones((2, 2, 2), dtype=int),
    ])
    def test_malformed_is_false_not_an_error(self, matrix):
        assert validate_unimodular(matrix) is False

    def test_python_ints_of_any_size_decided_exactly(self):
        assert validate_unimodular([[2 ** 70, 1], [1, 0]])  # det -1
        # det 1 and 2, both 0 in floating point
        assert validate_unimodular([[2 ** 70 + 1, 2 ** 70], [1, 1]])
        assert not validate_unimodular([[2 ** 70 + 2, 2 ** 70], [1, 1]])
        assert validate_unimodular([[2.0, 1.0], [1.0, 1.0]])  # integral floats

    def test_inverse_fixed_at_construction(self):
        spec = make_norm("l1", 3, transform=np.array(UNIMODULAR))
        a, inv = np.array(spec.transform), np.array(spec.inverse)
        assert spec.transform == tuple(map(tuple, UNIMODULAR))
        assert (a @ inv == np.eye(3, dtype=int)).all()
        assert (inv @ a == np.eye(3, dtype=int)).all()
        assert make_norm("l1", 3).inverse is None

    def test_entries_past_int64_rejected_at_construction(self):
        for big in (2 ** 70, 2.0 ** 63):  # an object array, a float array
            with pytest.raises(UsageError, match="transform entries must be integers"):
                make_norm("l1", 2, transform=[[big, 1], [1, 0]])


@pytest.mark.parametrize("family,factor", [("max", 1), ("l1", 1), ("w1", 1),
                                           ("scaled_max", 2)])
class TestNormAxioms:
    @settings(max_examples=60, deadline=None)
    @given(x=lattice_points(3), y=lattice_points(3))
    def test_triangle_and_symmetry(self, family, factor, x, y):
        spec = make_norm(family, 3, factor=factor)
        s = spec.value([a + b for a, b in zip(x, y)])
        assert s <= spec.value(x) + spec.value(y)
        assert spec.value([-a for a in x]) == spec.value(x)

    @settings(max_examples=40, deadline=None)
    @given(x=lattice_points(3), n=st.integers(0, 7))
    def test_integer_homogeneity(self, family, factor, x, n):
        spec = make_norm(family, 3, factor=factor)
        assert spec.value([n * a for a in x]) == n * spec.value(x)


@settings(max_examples=50, deadline=None)
@given(x=lattice_points(3))
def test_transformed_axioms(x):
    spec = make_norm("l1", 3, transform=UNIMODULAR)
    assert spec.value([-a for a in x]) == spec.value(x)
    assert spec.value([2 * a for a in x]) == 2 * spec.value(x)


@settings(max_examples=60, deadline=None)
@given(x=lattice_points(4, radius=20))
def test_real_matches_exact_on_lattice(x):
    spec = make_norm("w1", 4)
    exact = spec.value(x)
    real = spec.values([[float(v) for v in x]])[0]
    assert abs(real - exact) <= 1e-9 * max(1, exact)


def test_positive_homogeneity_real():
    spec = make_norm("l1", 3, transform=UNIMODULAR)
    v = np.array([0.3, -1.2, 0.7])
    for lam in (0.0, 0.5, 2.5):
        got = spec.values([lam * v])[0]
        want = lam * spec.values([v])[0]
        assert abs(got - want) <= 1e-12 * max(1.0, want)


class TestSpherePointsAndCounts:
    def test_cube_shell_matches_filter(self):
        spec = make_norm("max", 3)
        for k in (1, 2, 4):
            fast = sphere_points(spec, k)
            vals = spec.values(fast)
            assert (vals == k).all()
            # recount via box filtering
            slow = np.concatenate([slab[spec.values(slab) == k]
                                   for slab in iter_box_slabs(3, k)])
            assert fast.shape == slow.shape
            a = {tuple(r) for r in fast.tolist()}
            b = {tuple(r) for r in slow.tolist()}
            assert a == b

    def test_count_preserved_under_transform(self):
        base = make_norm("l1", 3)
        spec = make_norm("l1", 3, transform=UNIMODULAR)
        for k in range(0, 6):
            assert sphere_points(spec, k).shape[0] == \
                sphere_points(base, k).shape[0]

    def test_scaled_max_odd_levels_empty(self):
        spec = make_norm("scaled_max", 3, factor=2)
        assert sphere_points(spec, 3).shape[0] == 0
        assert sphere_points(spec, 4).shape[0] == 98

    def test_negative_level_refused(self):
        with pytest.raises(UsageError, match="k must be >= 0, got -2"):
            sphere_points(make_norm("max", 3), -2)

    # A^{-1} = [[1, -100, 10000], [0, 1, -100], [0, 0, 1]]: the enclosing
    # box of the unit sphere has radius 10101, about 8.2e12 points
    WIDE = make_norm("max", 3, transform=[[1, 100, 0], [0, 1, 100], [0, 0, 1]])

    def test_box_over_budget_refused_before_enumerating(self, monkeypatch):
        from normwalk.green import GreenField
        from normwalk.measures import sphere_measure
        from normwalk.walk import make_simple_walk

        monkeypatch.setattr(norms, "iter_box_slabs",
                            lambda *a: pytest.fail("the box was enumerated"))
        field = GreenField(make_simple_walk(3), n_max=4, box_radius=3)
        for call in (lambda: sphere_points(self.WIDE, 1),
                     lambda: sphere_measure(self.WIDE, 1),
                     lambda: field.level_sum(self.WIDE, 1)):
            with pytest.raises(ResourceError) as exc:
                call()
            assert str(exc.value) == ("sphere box radius 10101 holds "
                                      "8246080905427 points, over budget 200000000")

    def test_box_budget_read_at_call_time(self, monkeypatch):
        # the max sphere of radius 2 in d = 3 spans a box of 125 points;
        # one budget governs both enumerations
        from normwalk.census import count_bruteforce

        spec = make_norm("max", 3)
        monkeypatch.setattr(norms, "BOX_BUDGET", 124)
        for what, call in (("sphere", sphere_points), ("brute-force", count_bruteforce)):
            with pytest.raises(ResourceError, match=f"^{what} box radius 2 holds "
                                                    "125 points, over budget 124$"):
                call(spec, 2)
        monkeypatch.setattr(norms, "BOX_BUDGET", 125)
        assert sphere_points(spec, 2).shape == (98, 3)

    def test_peak_memory_at_k100(self):
        # the 201^3 box comes in slabs of at most SLAB_POINTS points: the
        # peak is the 240,002 sphere points (5.8 MB) and their concatenation
        spec = make_norm("max", 3)
        tracemalloc.start()
        try:
            assert sphere_points(spec, 100).shape == (240_002, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


def check_slabs(dim, radius, cap):
    """The slabs hold at most cap points each, in the (d, n) int64 layout,
    and concatenate to the meshgrid box."""
    slabs = list(iter_box_slabs(dim, radius))
    for slab in slabs:
        assert slab.dtype == np.int64 and slab.shape[1] == dim
        assert slab.T.flags.c_contiguous
        assert 1 <= slab.shape[0] <= cap
    axis = np.arange(-radius, radius + 1, dtype=np.int64)
    ref = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"),
                   axis=-1).reshape(-1, dim)
    assert np.array_equal(np.concatenate(slabs), ref)


class TestBoxSlabs:
    @pytest.mark.parametrize("dim, radius", [(1, 3), (2, 4), (3, 3), (4, 0), (4, 2), (4, 16)])
    def test_lexicographic_order_and_layout(self, dim, radius):
        check_slabs(dim, radius, norms.SLAB_POINTS)

    @pytest.mark.parametrize("cap", [1, 5, 50])
    def test_small_cap(self, monkeypatch, cap):
        # cap 50 fixes the first coordinate in d = 4; cap 5 fixes up to
        # three and splits last-axis rows of 7 points; cap 1 yields single
        # points
        monkeypatch.setattr(norms, "SLAB_POINTS", cap)
        for dim in range(1, 5):
            for radius in range(4):
                check_slabs(dim, radius, cap)

    def test_negative_radius_refused(self):
        with pytest.raises(UsageError, match="radius must be >= 0, got -1"):
            next(iter_box_slabs(3, -1))


def product_sphere(spec, k):
    """Points of norm k in lexicographic order, by spec.value over the box."""
    r = spec.enclosing_box_radius(k)
    pts = [p for p in itertools.product(range(-r, r + 1), repeat=spec.dim)
           if spec.value(p) == k]
    return np.array(pts, dtype=np.int64).reshape(-1, spec.dim)


class TestSpherePointsOracle:
    SPECS = [make_norm("l1", 2), make_norm("w1", 2),
             make_norm("l1", 2, transform=[[2, 1], [1, 1]]),
             make_norm("l1", 3), make_norm("w1", 3),
             make_norm("l1", 3, transform=UNIMODULAR),
             make_norm("max", 3), make_norm("scaled_max", 3, factor=2)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: json.dumps(s.describe()))
    def test_equals_product_enumeration_in_order(self, spec):
        for k in range(7):
            got = sphere_points(spec, k)
            want = product_sphere(spec, k)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestEuclidRange:
    @pytest.mark.parametrize("spec,lo,hi", [
        (make_norm("max", 3), 1.0, np.sqrt(3)),
        (make_norm("l1", 3), 1 / np.sqrt(3), 1.0),
        # the w1 sphere is nearest the origin along (1, 2, 3)
        (make_norm("w1", 3), 1 / np.sqrt(14), 1.0),
        (make_norm("scaled_max", 3, factor=2), 0.5, np.sqrt(3) / 2),
        # A^T c over c = (+-1, +-2, +-3) peaks at A^T (1, -2, 3) = (4, -6, 5)
        (make_norm("w1", 3, transform=UNIMODULAR), 1 / np.sqrt(77), np.sqrt(2)),
        (make_norm("l1", 3, transform=UNIMODULAR), 1 / np.sqrt(17), np.sqrt(3)),
        (make_norm("max", 3, transform=UNIMODULAR), 1 / np.sqrt(3), np.sqrt(17)),
    ])
    def test_exact_values_bound_dense_directions(self, spec, lo, hi):
        got_lo, got_hi = spec.euclid_range_on_unit_sphere()
        assert got_lo == pytest.approx(lo, rel=1e-12)
        assert got_hi == pytest.approx(hi, rel=1e-12)
        u = np.random.default_rng(6).normal(size=(200_000, spec.dim))
        u /= np.linalg.norm(u, axis=1)[:, None]
        r = 1.0 / spec.values(u)  # Euclidean length of u / ||u||
        assert r.min() >= lo * (1 - 1e-12) and r.max() <= hi * (1 + 1e-12)
        assert r.min() <= lo * 1.001 and r.max() >= hi * 0.98


def sphere_digest(spec):
    """First 16 hex digits of the sha256 of sphere_points(spec, k) for
    k = 0..6: each level's shape, then its int64 bytes."""
    h = hashlib.sha256()
    for k in range(7):
        pts = np.ascontiguousarray(sphere_points(spec, k))
        h.update(f"{k}:{pts.shape}:".encode())
        h.update(pts.tobytes())
    return h.hexdigest()[:16]


class TestPinnedGeometry:
    # Recorded from the implementation that kept A as an int64 array and
    # re-derived A^{-1} on each call: (family, factor, A, m with
    # enclosing_box_radius(k) = (k // factor) m for k <= 20, the unit
    # sphere's Euclidean range as float.hex, sphere_digest, describe()).
    PINNED = [
        ('max', 1, None, 1, '0x1.0000000000000p+0', '0x1.bb67ae8584caap+0',
         '1ee52cedac15905b', '{"family": "max", "dim": 3}'),
        ('max', 1, UNIMODULAR, 3, '0x1.279a74590331dp-1', '0x1.07e0f66afed07p+2',
         '2b6f8fc1e49eac1b', '{"family": "max", "dim": 3, "transform": [1, -1, 0, 0, 1, -1, 1, -1, 1]}'),
        ('max', 1, SHEAR, 4, '0x1.43d136248490fp-2', '0x1.465655f122ff6p+2',
         '0de40efa98654d76', '{"family": "max", "dim": 3, "transform": [1, 2, 0, 0, 1, 0, 0, -3, 1]}'),
        ('l1', 1, None, 1, '0x1.279a74590331dp-1', '0x1.0000000000000p+0',
         '84cd068673fa6adb', '{"family": "l1", "dim": 3}'),
        ('l1', 1, UNIMODULAR, 3, '0x1.f0b6848d2af1cp-3', '0x1.bb67ae8584caap+0',
         '8d9be7ccaeb054d0', '{"family": "l1", "dim": 3, "transform": [1, -1, 0, 0, 1, -1, 1, -1, 1]}'),
        ('l1', 1, SHEAR, 4, '0x1.4c3abe93bcf74p-3', '0x1.deeea11683f49p+1',
         '0d735f1ca75da531', '{"family": "l1", "dim": 3, "transform": [1, 2, 0, 0, 1, 0, 0, -3, 1]}'),
        ('w1', 1, None, 1, '0x1.11acee560242ap-2', '0x1.0000000000000p+0',
         '8d44f5aa0613b031', '{"family": "w1", "dim": 3}'),
        ('w1', 1, UNIMODULAR, 3, '0x1.d2c8534ed6d86p-4', '0x1.6a09e667f3bcdp+0',
         '709263c456ea9193', '{"family": "w1", "dim": 3, "transform": [1, -1, 0, 0, 1, -1, 1, -1, 1]}'),
        ('w1', 1, SHEAR, 4, '0x1.32263ffecdbd1p-4', '0x1.deeea11683f49p+0',
         '3ec49306a8b052c9', '{"family": "w1", "dim": 3, "transform": [1, 2, 0, 0, 1, 0, 0, -3, 1]}'),
        ('scaled_max', 2, None, 1, '0x1.0000000000000p-1', '0x1.bb67ae8584caap-1',
         '98267e669c6ddadb', '{"family": "scaled_max", "dim": 3, "factor": 2}'),
        ('scaled_max', 2, UNIMODULAR, 3, '0x1.279a74590331dp-2', '0x1.07e0f66afed07p+1',
         'a9784e80677fd3d9', '{"family": "scaled_max", "dim": 3, "factor": 2, "transform": [1, -1, 0, 0, 1, -1, 1, -1, 1]}'),
        ('scaled_max', 2, SHEAR, 4, '0x1.43d136248490fp-3', '0x1.465655f122ff6p+1',
         '4f2abc9d263fb37a', '{"family": "scaled_max", "dim": 3, "factor": 2, "transform": [1, 2, 0, 0, 1, 0, 0, -3, 1]}'),
    ]

    @pytest.mark.parametrize("family, factor, transform, m, lo, hi, digest, desc",
                             PINNED, ids=[row[-1] for row in PINNED])
    def test_recorded_values(self, family, factor, transform, m, lo, hi, digest, desc):
        spec = make_norm(family, 3, factor=factor, transform=transform)
        assert json.dumps(spec.describe()) == desc
        assert [spec.enclosing_box_radius(k) for k in range(21)] == \
            [k // factor * m for k in range(21)]
        assert tuple(v.hex() for v in spec.euclid_range_on_unit_sphere()) == (lo, hi)
        assert sphere_digest(spec) == digest

    @pytest.mark.parametrize("transform", [UNIMODULAR, SHEAR])
    def test_equal_and_hash_equal_whatever_the_container(self, transform):
        specs = [make_norm("w1", 3, transform=transform),
                 make_norm("w1", 3, transform=np.array(transform, dtype=np.int64)),
                 make_norm("w1", 3, transform=tuple(map(tuple, transform)))]
        assert all(s == specs[0] and hash(s) == hash(specs[0]) for s in specs)
        assert len(set(specs)) == 1
        assert specs[0] != make_norm("w1", 3)
        assert specs[0] != make_norm("l1", 3, transform=transform)
        assert NormSpec("w1", 3) == make_norm("w1", 3)
