"""Discrete sphere measures, their weak-convergence checks, and the
distributional surrogate for the local-time invariance principle.

mu_k puts mass 1/N(k) on each point of the rescaled lattice sphere
{x/k : ||x|| = k}.  For the max norm the limiting uniform surface measure
is available analytically (cube faces), giving exact reference integrals;
other families are checked against a high-k proxy measure.

The invariance-principle surrogate draws truncated samples of
L^{||S||}_inf(k) / (k^{2-d} N(k)) and requires (i) strict positivity,
(ii) bounded means along a k-ladder, (iii) two-sample Kolmogorov-Smirnov
distances that shrink along a doubling ladder within a bootstrap band.
The limit law itself is never simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .census import census_for
from .errors import UsageError
from .norms import NormSpec, sphere_points
from .walk import StepDistribution, check_ladder, total_level_local_time

TestFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SphereMeasure:
    """The normalised lattice sphere at level k, points scaled to norm 1."""

    spec: NormSpec
    k: int
    points: np.ndarray  # (N(k), d) float, each of unit norm

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def integral(self, testfn: TestFn) -> float:
        vals = np.asarray(testfn(self.points), dtype=float)
        if vals.shape[0] != self.size:
            raise UsageError("test function must map (n, d) points to n values")
        # fsum is correctly rounded, so odd symmetry cancels to exactly 0.0
        return math.fsum(vals) / self.size


def sphere_measure(spec: NormSpec, k: int) -> SphereMeasure:
    pts = sphere_points(spec, k)
    if pts.shape[0] == 0:
        raise UsageError(f"norm level {k} is empty for this spec")
    return SphereMeasure(spec=spec, k=k, points=pts.astype(float) / k)


def mu_k_integral(spec: NormSpec, k: int, testfn: TestFn) -> float:
    """Exact average of testfn over the N(k) rescaled sphere points."""
    return sphere_measure(spec, k).integral(testfn)


def mu_surface_integral_max(d: int, testfn: TestFn) -> float:
    """Uniform (probability) surface average over the boundary of the unit cube.

    Product Gauss-Legendre quadrature of order 24 on each of the 2d
    faces; exact for polynomial test functions of degree < 48.  The
    weighted sum is divided by the rule's own weight total rather than the
    analytic area 2d * 2^(d-1); Gauss-Legendre weights sum to 2 on each
    axis, so the two agree in exact arithmetic.  Both sums are taken with
    fsum, as in SphereMeasure.integral, so a constant integrates to exactly
    1 (matching mu_k) and odd test functions cancel to exactly 0.
    """
    if d < 1:
        raise UsageError("d must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(24)
    grids = np.meshgrid(*([nodes] * (d - 1)), indexing="ij")
    wgrids = np.meshgrid(*([weights] * (d - 1)), indexing="ij")
    free = np.stack([g.ravel() for g in grids], axis=-1) if d > 1 \
        else np.zeros((1, 0))
    wprod = np.prod(np.stack([w.ravel() for w in wgrids], axis=-1), axis=-1) \
        if d > 1 else np.ones(1)
    terms = []
    for axis in range(d):
        for sign in (1.0, -1.0):
            pts = np.empty((free.shape[0], d))
            pts[:, axis] = sign
            rest = [j for j in range(d) if j != axis]
            for col, j in enumerate(rest):
                pts[:, j] = free[:, col]
            terms.append(wprod * np.asarray(testfn(pts), dtype=float))
    return math.fsum(np.concatenate(terms)) / math.fsum(np.tile(wprod, 2 * d))


# -- weak-convergence reporting ---------------------------------------------


@dataclass(frozen=True)
class WeakConvergenceReport:
    spec: NormSpec
    reference: str                    # "analytic" | "proxy(k=...)"
    rows: tuple                       # dicts: testfn, k, value, reference, discrepancy

    def discrepancies(self, label: str) -> list:
        return [r["discrepancy"] for r in self.rows if r["testfn"] == label]


def default_test_functions(d: int) -> dict:
    """1, coordinates, squared coordinates, pair products, one Lipschitz bump."""
    fns: dict[str, TestFn] = {"one": lambda p: np.ones(p.shape[0])}
    for i in range(d):
        fns[f"x{i + 1}"] = (lambda i: lambda p: p[:, i])(i)
        fns[f"x{i + 1}^2"] = (lambda i: lambda p: p[:, i] ** 2)(i)
    for i in range(d):
        for j in range(i + 1, d):
            fns[f"x{i + 1}x{j + 1}"] = (lambda i, j: lambda p: p[:, i] * p[:, j])(i, j)
    centre = np.zeros(d)
    centre[0] = 1.0

    def bump(p: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - np.linalg.norm(p - centre, axis=1))

    fns["bump"] = bump
    return fns


def weak_convergence_report(spec: NormSpec, testfns: dict,
                            k_ladder: Sequence[int]) -> WeakConvergenceReport:
    """Per-k discrepancies |mu_k(f) - reference(f)| along the ladder.

    The reference is the analytic cube-surface average for the
    untransformed max norm and the proxy measure mu_{k_ref} otherwise,
    with k_ref = 4 * max(ladder).  The analytic reference is the
    normalised (probability) surface average of mu_surface_integral_max:
    the quadrature sum is divided by the rule's own weight total and both
    are summed with fsum, so a constant test function has reference exactly
    1, like mu_k, and its discrepancies are exactly 0.
    """
    ladder = check_ladder(k_ladder, "k ladder levels")
    analytic = spec.family == "max" and spec.transform is None
    if analytic:
        ref = {label: mu_surface_integral_max(spec.dim, fn)
               for label, fn in testfns.items()}
        ref_desc = "analytic"
    else:
        k_ref = 4 * ladder[-1]
        proxy = sphere_measure(spec, k_ref)
        ref = {label: proxy.integral(fn) for label, fn in testfns.items()}
        ref_desc = f"proxy(k={k_ref})"
    rows = []
    for k in ladder:
        mu = sphere_measure(spec, k)
        for label, fn in testfns.items():
            val = mu.integral(fn)
            rows.append({"testfn": label, "k": k, "value": val,
                         "reference": ref[label],
                         "discrepancy": abs(val - ref[label])})
    return WeakConvergenceReport(spec=spec, reference=ref_desc, rows=tuple(rows))


# -- scaled local-time samples and the distributional-Cauchy check ----------


@dataclass(frozen=True)
class ScaledLocalTimeSample:
    """Replicated L^{||S||}(k) / (k^{2-d} N(k)) with truncation metadata."""

    spec: NormSpec
    k: int
    k_cut: int
    n_level: int
    samples: np.ndarray  # float, one per replica
    bias_bound: float

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def zero_fraction(self) -> float:
        return float((self.samples == 0).mean())


def scaled_samples(step: StepDistribution, spec: NormSpec, k: int,
                   replicas: int, master_seed: int,
                   k_cut: Optional[int] = None) -> ScaledLocalTimeSample:
    """Truncated level-k local times scaled by k^{2-d} N(k); d >= 3, as
    total_level_local_time requires."""
    census = census_for(spec, k)
    n_level = census[k]
    if n_level == 0:
        raise UsageError(f"norm level {k} is empty; scaling undefined")
    raw = total_level_local_time(step, spec, k, replicas, master_seed,
                                 k_cut=k_cut)
    scale = float(k) ** (2 - spec.dim) * n_level
    return ScaledLocalTimeSample(spec=spec, k=k, k_cut=raw.k_cut,
                                 n_level=n_level,
                                 samples=raw.samples.astype(float) / scale,
                                 bias_bound=raw.bias_bound)


def positivity_report(samples: np.ndarray) -> float:
    """Fraction of exactly-zero samples (the limit law charges only (0, inf))."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise UsageError("need at least one sample")
    return float((samples == 0).mean())


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance (ties handled exactly)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise UsageError("KS statistic needs nonempty samples")
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / a.size
    cb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(ca - cb).max())


@dataclass(frozen=True)
class CauchyCheck:
    statistic: float
    noise_band: float     # 3 sigma of the bootstrap distribution
    n_a: int
    n_b: int

    def close(self) -> bool:
        return self.statistic <= self.noise_band


def distributional_cauchy(samples_a: np.ndarray, samples_b: np.ndarray,
                          n_boot: int = 200, seed: int = 0) -> CauchyCheck:
    """KS distance between two sample sets plus a bootstrap noise band.

    The band is 3x the standard deviation of the statistic under
    resampling both sets with replacement; it calibrates how much of the
    observed distance is sampling noise.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size < 100 or b.size < 100:
        raise UsageError("need at least 100 samples per set")
    stat = ks_statistic(a, b)
    rng = np.random.default_rng(seed)
    boots = np.empty(n_boot)
    for i in range(n_boot):
        boots[i] = ks_statistic(rng.choice(a, a.size, replace=True),
                                rng.choice(b, b.size, replace=True))
    return CauchyCheck(statistic=stat, noise_band=3.0 * float(boots.std()),
                       n_a=int(a.size), n_b=int(b.size))


@dataclass(frozen=True)
class InvarianceReport:
    """Ladder summary for the invariance-principle surrogate."""

    k_ladder: tuple
    ks_sequence: tuple        # CauchyCheck per consecutive pair
    zero_fraction: float
    mean_sequence: tuple
    samples: tuple            # scaled samples per ladder level

    def means_bounded(self) -> bool:
        ms = self.mean_sequence
        return max(ms) <= 2.0 * min(ms)


def invariance_surrogate(step: StepDistribution, spec: NormSpec,
                         k_ladder: Sequence[int], replicas: int,
                         master_seed: int, n_boot: int = 200) -> InvarianceReport:
    """Run the ladder of scaled samples and the pairwise KS checks.

    Seeds are salted per level so ladder entries are independent.  The
    ladder needs two levels, since the KS checks compare consecutive ones.
    """
    ladder = check_ladder(k_ladder, "k ladder levels", rungs=2)
    sets = [scaled_samples(step, spec, k, replicas,
                           master_seed=master_seed + 7919 * j)
            for j, k in enumerate(ladder)]
    ks_seq = tuple(
        distributional_cauchy(sets[i].samples, sets[i + 1].samples,
                              n_boot=n_boot, seed=master_seed + i)
        for i in range(len(sets) - 1))
    zero = float(np.mean([s.zero_fraction for s in sets]))
    return InvarianceReport(k_ladder=tuple(ladder), ks_sequence=ks_seq,
                            zero_fraction=zero,
                            mean_sequence=tuple(s.mean for s in sets),
                            samples=tuple(s.samples for s in sets))
