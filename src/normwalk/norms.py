"""Integer-valued polytope norms on the lattice.

Four families are supported, each taking integer values on integer points.
They come in two shapes, and every reader of a norm reads the shape:

* weighted l1, sum_i w_i |x^i|: ``l1`` (w_i = 1) and ``w1`` (w_i = i);
* scaled max, factor * max_i |x^i|: ``max`` (factor 1) and ``scaled_max``
  (factor c >= 1; degenerate, with empty levels, when c > 1).

Any family may be composed with a unimodular integer matrix A, giving
``x -> base_norm(A x)``.  Unimodularity (|det A| = 1) makes A a lattice
bijection, so sphere counts are preserved.  One exact routine,
``_integer_inverse``, decides it and inverts A; a `NormSpec` runs it once,
at construction, and keeps A and A^{-1} as tuples of int rows.

Scalar evaluation uses exact Python integer arithmetic; the vectorised
paths use int64, which is exact for the coordinate ranges reachable by
the walk and census machinery here.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ResourceError, UsageError

FAMILIES = ("max", "l1", "w1", "scaled_max")

# iter_box_slabs yields at most this many points per slab: 1 MB of int64
# coordinates in d = 4, so a slab, its norms and their temporaries fit a
# 2 MB L2 cache (2^14 and 2^15 ran fastest in a sweep from 2^13 to 2^20).
SLAB_POINTS = 1 << 15

# sphere_points and census.count_bruteforce refuse boxes of more than this
# many points; read at call time.
BOX_BUDGET = 200_000_000


def _integer_inverse(rows: Sequence[Sequence[int]]) -> Optional[tuple]:
    """A^{-1} of a square matrix of Python ints, as a tuple of int rows, or
    None unless |det A| = 1: exact Gauss-Jordan elimination over Fractions.
    det A and det A^{-1} = 1 / det A are both integers exactly when A^{-1}
    is integral, so an integral inverse is the unimodularity test."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return None  # singular
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [v / pivot for v in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    if any(v.denominator != 1 for row in a for v in row[n:]):
        return None
    return tuple(tuple(int(v) for v in row[n:]) for row in a)


def _is_integral(v) -> bool:
    """True for an int of any size, or a finite real with no fractional part."""
    return isinstance(v, numbers.Integral) or (
        isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v))


def validate_unimodular(matrix: Sequence[Sequence[int]]) -> bool:
    """True iff the matrix is square, integral and of determinant +-1 (decided
    exactly); ragged, empty or non-numeric input is False, never an error."""
    try:
        rows = [[int(v) if _is_integral(v) else None for v in row] for row in matrix]
    except (TypeError, OverflowError):
        return False
    return (bool(rows) and all(len(row) == len(rows) and None not in row for row in rows)
            and _integer_inverse(rows) is not None)


@dataclass(frozen=True)
class NormSpec:
    """A lattice norm: base family, dimension, optional unimodular transform.

    ``factor`` is only meaningful for the scaled_max family.  Construction
    fixes what readers need (fail fast): ``transform`` becomes a tuple of
    int rows within int64 and ``inverse`` the rows of its exact inverse
    (both None without a transform); ``weights``, the weighted l1 shape's
    coordinate weights (1..dim for w1, else 1), a read-only int64 array.
    Equality and hashing are the dataclass's, by field.
    """

    family: str
    dim: int
    factor: int = 1
    transform: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown norm family {self.family!r}; expected one of {FAMILIES}")
        if self.dim < 1:
            raise UsageError("dim must be >= 1")
        if self.family == "scaled_max":
            if self.factor < 1:
                raise UsageError("scaled_max factor must be a positive integer")
        elif self.factor != 1:
            raise UsageError("factor is only supported for scaled_max")
        inverse = None
        if self.transform is not None:
            try:
                arr = np.asarray(self.transform)
            except ValueError:  # ragged rows have no shape
                raise UsageError(f"transform must be {self.dim}x{self.dim}, "
                                 "got ragged rows") from None
            if arr.shape != (self.dim, self.dim):
                raise UsageError(f"transform must be {self.dim}x{self.dim}, got {arr.shape}")
            # integers within int64, which the vectorised paths use;
            # integral floats count, nan, inf, strings and objects do not
            if arr.dtype.kind not in "biuf" or not all(
                    _is_integral(v) and -2 ** 63 <= v < 2 ** 63 for v in arr.ravel().tolist()):
                raise UsageError("transform entries must be integers")
            rows = tuple(tuple(int(v) for v in row) for row in arr.tolist())
            inverse = _integer_inverse(rows)
            if inverse is None:
                raise UsageError("transform must be unimodular (|det| = 1)")
            object.__setattr__(self, "transform", rows)
        object.__setattr__(self, "inverse", inverse)
        weights = (np.arange(1, self.dim + 1, dtype=np.int64) if self.family == "w1"
                   else np.ones(self.dim, dtype=np.int64))
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @property
    def degenerate(self) -> bool:
        """True when the norm has empty levels (scaled_max with factor > 1;
        construction fixes every other family's factor at 1)."""
        return self.factor > 1

    @property
    def max_shaped(self) -> bool:
        """True for the scaled max shape, False for the weighted l1 shape."""
        return self.family in ("max", "scaled_max")

    # -- evaluation -------------------------------------------------------

    def value(self, x: Sequence[int]) -> int:
        """Exact integer norm of a lattice point."""
        y = [int(v) for v in x]
        if len(y) != self.dim:
            raise UsageError(f"point has dim {len(y)}, norm expects {self.dim}")
        if self.transform is not None:
            y = [sum(a * v for a, v in zip(row, y)) for row in self.transform]
        if self.max_shaped:
            return self.factor * max(abs(v) for v in y)
        return sum(w * abs(v) for w, v in zip(self.weights.tolist(), y))

    def values(self, points: np.ndarray) -> np.ndarray:
        """Vectorised norm of an (n, dim) int array; returns int64 array.

        Works one coordinate column at a time, so it takes a row-major
        (n, dim) array as well as the transposed view of a (dim, n) block,
        whose columns are contiguous.
        """
        pts = np.asarray(points)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.dim:
            raise UsageError(f"points have dim {pts.shape[1]}, norm expects {self.dim}")
        if pts.dtype != np.int64:
            pts = pts.astype(np.int64)
        max_shaped, weights = self.max_shaped, self.weights.tolist()
        out = self._abs_coordinate(pts, 0, None)  # weight 1 in the weighted l1 shape
        a = None  # one temporary, reused by every later coordinate
        for i in range(1, self.dim):
            a = self._abs_coordinate(pts, i, a)
            if max_shaped:
                np.maximum(out, a, out=out)
                continue
            if weights[i] != 1:
                a *= weights[i]
            out += a
        if self.factor != 1:
            out *= self.factor
        return out

    def _abs_coordinate(self, pts: np.ndarray, i: int,
                        out: Optional[np.ndarray]) -> np.ndarray:
        """|(A x)^i| for every row x of pts, written into the int64 array
        out (a new one when out is None)."""
        if self.transform is None:
            return np.abs(pts[:, i], out=out)
        acc = None
        for j, a in enumerate(self.transform[i]):
            if a == 0:
                continue
            col = pts[:, j]
            if acc is None:
                acc = np.multiply(col, a, out=out)
            elif a == 1:
                acc += col
            elif a == -1:
                acc -= col
            else:
                acc += col * a
        return np.abs(acc, out=acc)

    def values_real(self, points: np.ndarray) -> np.ndarray:
        """Vectorised real norm of an (n, dim) float array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.dim:
            raise UsageError(f"points have dim {pts.shape[1]}, norm expects {self.dim}")
        y = pts
        if self.transform is not None:
            y = y @ np.array(self.transform, dtype=float).T
        a = np.abs(y)
        if self.max_shaped:
            return self.factor * a.max(axis=1)
        return a @ self.weights.astype(float)

    # -- geometry ---------------------------------------------------------

    def enclosing_box_radius(self, k: int) -> int:
        """R such that every lattice x with ||x|| <= k has max-norm <= R.

        Both shapes dominate factor * max_i |x^i| (factor 1 for weighted l1)
        coordinatewise, so the base ball of radius k sits in the cube of
        radius k // factor.  A transform A maps the ball to A^{-1}(base
        ball), and ||A^{-1} y||_inf <= (max abs row sum of A^{-1}) * ||y||_inf.
        """
        base = k // self.factor
        if self.inverse is None:
            return base
        return base * max(sum(abs(v) for v in row) for row in self.inverse)

    def euclid_range_on_unit_sphere(self) -> tuple[float, float]:
        """(min, max) Euclidean length over the unit sphere, in closed form.

        The unit ball is the polytope A^{-1} B, with B the base family's
        unit ball and A the transform (identity when absent).  The Euclidean
        length is convex, so its maximum sits at a vertex: hi = max |A^{-1} v|
        over the vertices v of B.  The ball is cut out by the half-spaces
        <A^T c, x> <= 1, c over the vertices of the dual ball, so its
        inradius is lo = 1 / max |A^T c|.  The factor divides both.
        Used as the norm-equivalence certificate of truncation-bias bounds.
        """
        d = self.dim
        eye = np.eye(d, dtype=np.int64)
        axes = np.vstack([eye, -eye])
        corners = np.array(list(itertools.product((-1, 1), repeat=d)), dtype=np.int64)
        if self.max_shaped:
            vertices, dual = corners.astype(float), axes
        else:
            vertices, dual = axes / self.weights, corners * self.weights
        if self.transform is not None:
            vertices = vertices @ np.array(self.inverse).T
            dual = dual @ np.array(self.transform)
        hi = float(np.linalg.norm(vertices, axis=1).max())
        lo = 1.0 / float(np.linalg.norm(dual, axis=1).max())
        return lo / self.factor, hi / self.factor

    # -- description ------------------------------------------------------

    def describe(self) -> dict:
        out = {"family": self.family, "dim": self.dim}
        if self.family == "scaled_max":
            out["factor"] = self.factor
        if self.transform is not None:
            out["transform"] = [v for row in self.transform for v in row]
        return out


def make_norm(family: str, dim: int, factor: int = 1,
              transform: Optional[Sequence[Sequence[int]]] = None) -> NormSpec:
    return NormSpec(family=family, dim=dim, factor=factor, transform=transform)


def iter_box_slabs(dim: int, radius: int) -> Iterator[np.ndarray]:
    """Yield the lattice cube [-radius, radius]^dim in slabs of at most
    SLAB_POINTS points.

    With side = 2 radius + 1, a slab fixes the fewest leading coordinates
    0..j-1 such that one value of coordinate j spans side^(dim-1-j) <=
    SLAB_POINTS points, and runs over floor(SLAB_POINTS / side^(dim-1-j))
    consecutive values of coordinate j.  So a slab, its norms and their
    temporaries stay cache-sized however large the box.  The points come
    in lexicographic order (the order of ``np.meshgrid(..., indexing="ij")``),
    slab after slab.  Each slab is the (n, dim) transposed view of a
    (dim, n) int64 block, the walk kernel's layout: coordinate i of every
    point is one contiguous row, which `NormSpec.values` reads.
    SLAB_POINTS is read at call time.
    """
    if radius < 0:
        raise UsageError(f"box radius must be >= 0, got {radius}")
    side = 2 * radius + 1
    axis = np.arange(-radius, radius + 1, dtype=np.int64)
    j = next(j for j in range(dim) if side ** (dim - 1 - j) <= SLAB_POINTS)
    inner = side ** (dim - 1 - j)  # points per value of coordinate j
    per_slab = SLAB_POINTS // inner  # values of coordinate j per slab
    for prefix in itertools.product(axis.tolist(), repeat=j):
        for i in range(0, side, per_slab):
            values = axis[i:i + per_slab]
            block = np.empty((dim, values.size * inner), dtype=np.int64)
            block[:j] = np.array(prefix, dtype=np.int64).reshape(j, 1)
            block[j].reshape(values.size, inner)[:] = values[:, None]
            for c in range(j + 1, dim):
                # coordinate c holds each axis value for side^(dim-1-c) points in a row
                block[c].reshape(-1, side, side ** (dim - 1 - c))[:] = axis[:, None]
            yield block.T


def check_box_budget(dim: int, radius: int, what: str) -> None:
    """Refuses, before any point is made, a box [-radius, radius]^dim of
    more than BOX_BUDGET points for the enumeration `what`."""
    n_points = (2 * radius + 1) ** dim
    if n_points > BOX_BUDGET:
        raise ResourceError(f"{what} box radius {radius} holds {n_points} "
                            f"points, over budget {BOX_BUDGET}")


def sphere_points(spec: NormSpec, k: int) -> np.ndarray:
    """All lattice points with exact norm k >= 0, in lexicographic order:
    the box-slab enumeration that `census.count_bruteforce` bins, for every
    norm, within the same BOX_BUDGET."""
    if k < 0:
        raise UsageError(f"norm level k must be >= 0, got {k}")
    radius = spec.enclosing_box_radius(k)
    check_box_budget(spec.dim, radius, "sphere")
    hits = [np.zeros((0, spec.dim), dtype=np.int64)]
    for slab in iter_box_slabs(spec.dim, radius):
        hits.append(slab[spec.values(slab) == k])
    return np.concatenate(hits, axis=0)
