"""Sphere censuses: N(k) = #{x in Z^d : ||x|| = k}.

Counts are exact Python integers.  `census_for(spec, k_max)` is the one
entry point for the exact rule, which reads the spec's shape: the
weighted-l1 convolution recursion (l1, w1) or the cube-shell count on
multiples of the factor (max, scaled_max).  `count_bruteforce`, box
enumeration within `norms.box_fits`, is the oracle.  A unimodular
transform keeps the counts (a lattice bijection).  The module also has
the k^{d-1} asymptotics and the eventual-monotonicity and growth-bound
checks that the summability criteria rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UsageError
from .norms import NormSpec, enclosing_box, iter_box_slabs


@dataclass(frozen=True)
class SphereCensus:
    """Exact table k -> N(k) for k = 0..k_max, with provenance."""

    spec: NormSpec
    counts: tuple
    method: str  # "bruteforce" | "closed" | "recursive"

    def __post_init__(self):
        if not self.counts or self.counts[0] != 1:
            raise UsageError("census must start with N(0) = 1")
        if any(c < 0 for c in self.counts):
            raise UsageError("census counts must be nonnegative")

    @property
    def k_max(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, k: int) -> int:
        return self.counts[k]


def count_bruteforce(spec: NormSpec, k_max: int) -> SphereCensus:
    """Oracle census by enumerating the enclosing box and binning norms;
    a box that `norms.box_fits` refuses is a ResourceError."""
    radius = enclosing_box(spec, k_max, "brute-force")
    counts = np.zeros(k_max + 1, dtype=np.int64)
    for slab in iter_box_slabs(spec.dim, radius):
        nv = spec.values(slab)
        nv = nv[nv <= k_max]
        counts += np.bincount(nv, minlength=k_max + 1)[:k_max + 1]
    return SphereCensus(spec=spec, counts=tuple(int(c) for c in counts),
                        method="bruteforce")


def count_max_closed(d: int, k: int) -> int:
    """Cube-shell count (2k+1)^d - (2k-1)^d, with N(0) = 1."""
    if d < 1 or k < 0:
        raise UsageError("need d >= 1 and k >= 0")
    if k == 0:
        return 1
    return (2 * k + 1) ** d - (2 * k - 1) ** d


def _weighted_l1_census(spec: NormSpec, k_max: int) -> SphereCensus:
    """Census of sum_i w_i |x^i|, adding one coordinate at a time.

    A coordinate of weight w takes the value w*j once for j = 0 and twice
    for j >= 1, so each new coordinate convolves the table with
    (1, 2, 2, ...) in strides of w: new[k] = 2 run[k] - table[k], with the
    stride sums run[k] = table[k] + run[k - w].  That is linear in k_max
    per coordinate, in exact Python integers, starting from the table of
    Z^0 (N(0) = 1 and nothing else).
    """
    table = [1] + [0] * k_max
    for w in spec.weights.tolist():
        run = [0] * (k_max + 1)
        for r in range(min(w, k_max + 1)):
            run[r::w] = itertools.accumulate(table[r::w])
        table = [2 * s - t for s, t in zip(run, table)]
    return SphereCensus(spec=spec, counts=tuple(table), method="recursive")


def census_for(spec: NormSpec, k_max: int) -> SphereCensus:
    """Exact census of a spec, by its shape.

    Weighted l1 norms use the recursion; a scaled max norm has the cube
    shell of radius k / factor at each multiple k of the factor and nothing
    between.  A transform keeps the counts (unimodular maps are lattice
    bijections); `count_bruteforce` recounts explicitly.  k_max must be
    >= 0.
    """
    if k_max < 0:
        raise UsageError("k_max must be >= 0")
    if not spec.max_shaped:
        return _weighted_l1_census(spec, k_max)
    c = spec.factor
    counts = tuple(count_max_closed(spec.dim, k // c) if k % c == 0 else 0
                   for k in range(k_max + 1))
    return SphereCensus(spec=spec, counts=counts, method="closed")


def gf_residual_l1(d: int, s: float, k_cap: int) -> float:
    """|sum_{k<=K} s^k N1^{(d)}(k) - ((1+s)/(1-s))^d| for 0 < s < 1."""
    if not (0.0 < s < 1.0):
        raise UsageError("s must lie in (0, 1)")
    census = census_for(NormSpec("l1", d), k_cap)
    partial = sum(c * s ** k for k, c in enumerate(census.counts))
    target = ((1.0 + s) / (1.0 - s)) ** d
    return abs(partial - target)


def asymptotic_constant(family: str, d: int) -> Fraction:
    """Exact constant c with N(k) ~ c k^{d-1} for max, l1 and w1.

    The max norm's cube shells give d 2^d; a weighted l1 sphere gives
    2^d / ((d-1)! prod_i w_i).  scaled_max has empty levels when its
    factor exceeds 1, and transforms are not covered.
    """
    if family not in ("max", "l1", "w1"):
        raise UsageError(
            f"no asymptotic constant for family {family!r} (transforms and "
            "scaled_max are unsupported)")
    spec = NormSpec(family, d)
    if spec.max_shaped:
        return Fraction(d * 2 ** d)
    return Fraction(2 ** d, math.factorial(d - 1) * math.prod(spec.weights.tolist()))


def check_a4(census: SphereCensus, k0: int) -> bool:
    """True iff N(k) is non-decreasing for k in [k0, k_max]."""
    if k0 < 0 or k0 > census.k_max:
        raise UsageError("k0 must lie inside the census table")
    tail = census.counts[k0:]
    return all(a <= b for a, b in zip(tail, tail[1:]))


def growth_bounds(census: SphereCensus) -> tuple[float, float]:
    """Tightest empirical (c1, c2) with c1 k^{d-1} <= N(k) <= c2 k^{d-1}.

    Requires every count for k >= 1 to be positive; degenerate censuses
    (empty levels) are rejected naming the first offending k.
    """
    if census.k_max < 1:
        raise UsageError("census must cover some k >= 1")
    d = census.spec.dim
    ratios = []
    for k in range(1, census.k_max + 1):
        c = census.counts[k]
        if c == 0:
            raise UsageError(f"census has N({k}) = 0; growth bounds undefined")
        ratios.append(c / k ** (d - 1))
    return min(ratios), max(ratios)
