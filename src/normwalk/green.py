"""Green function G(0,x) = sum_{n>=1} P(S_n = x) for transient walks.

Three routes:

* dynamic programming -- exact probability-vector convolution on a box,
  absorbing at the boundary, with a local-CLT tail estimate added and the
  absorbed mass tracked into the error bound (``GreenField``);
* Monte Carlo -- mean truncated site local time (walk module);
* the |x| -> infinity asymptotic constant Gamma(d/2-1)/(2 pi^{d/2}).

DP fields hold partial sums for every site of the box at once, so one run
serves many query points.  The DP steps one value per orbit of the box
cells under the axis flips and swaps that keep the step law (a law with
none has one cell per orbit), gathering each atom's sources through a
precomputed table; mass stepping out of the box is absorbed as ``leak``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ResourceError, UsageError
from .norms import NormSpec, sphere_points
from .walk import (StepDistribution, _site_statistic, check_transient,
                   lattice_point, spitzer_constant_isotropic)

FIELD_BUDGET = 1_280_000_000  # bytes the DP may hold; see GreenField


def _gauss_form(q: np.ndarray, x: Sequence[float]) -> tuple[int, float, float]:
    """(d, det Q, x.Q^{-1}x) for a covariance Q of a transient walk (d >= 3,
    det Q > 0) and a point x of R^d: the Gaussian form of the local CLT."""
    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    if q.shape != (d, d):
        raise UsageError("Q must be square")
    check_transient(d, "the local-CLT Green terms")
    det = float(np.linalg.det(q))
    if det <= 0:
        raise UsageError("Q must be positive definite")
    v = np.asarray(x, dtype=float)
    if v.shape != (d,):
        raise UsageError(f"point {x} does not have dimension {d}")
    return d, det, float(v @ np.linalg.solve(q, v))


def spitzer_asymptotic(q: np.ndarray, x: Sequence[float]) -> float:
    """Leading-order G(0,x): Gamma(d/2-1)/(2 pi^{d/2}) |det Q|^{-1/2} (x,Q^{-1}x)^{1-d/2}."""
    d, det, quad = _gauss_form(q, x)
    if quad <= 0:
        raise UsageError("x must be nonzero")
    return spitzer_constant_isotropic(d, 1.0) * det ** -0.5 * quad ** (1 - d / 2)


def clt_tail_estimate(q: np.ndarray, x: Sequence[float], n_from: int) -> float:
    """Local-CLT estimate of sum_{n > n_from} P(S_n = x).

    Integrates (2 pi n)^{-d/2} (det Q)^{-1/2} exp(-(x,Q^{-1}x)/(2n)) over
    n > n_from.  For period-2 walks the vanishing/doubled alternation of
    the local CLT averages to the same integral.
    """
    from scipy.special import gammainc

    d, det, quad = _gauss_form(q, x)
    a = quad / 2.0
    c = det ** -0.5 * (2 * math.pi) ** (-d / 2)
    s = d / 2 - 1
    if a == 0.0:
        return c * n_from ** (-s) / s
    return c * a ** (-s) * math.gamma(s) * float(gammainc(s, a / n_from))


def clt_tail_bound(d: int, sigma2: float, n_from: int) -> float:
    """Conservative tail bound 2 (2 pi sigma^2)^{-d/2} sum_{n>N} n^{-d/2}."""
    check_transient(d, "the CLT tail bound")
    s = d / 2
    zeta_tail = n_from ** (1 - s) / (s - 1) + 0.5 * n_from ** -s
    return 2.0 * (2 * math.pi * sigma2) ** (-s) * zeta_tail


@dataclass(frozen=True)
class GreenEstimate:
    x: tuple
    value: float          # best estimate (partial sum + tail for DP)
    method: str           # "dp" | "mc" | "asymptotic"
    error_bound: float
    lower_bound: float = 0.0   # certified part (DP partial sum)
    n_max: Optional[int] = None
    replicas: Optional[int] = None
    undercovered: bool = False


class GreenField:
    """DP partial sums of P(S_n = y) for every y in a centred box.

    ``partial`` holds sum_{n=1}^{n_max} P(S_n = y, no exit before n) over the
    box of side 2 * box_radius + 1, and ``leak`` the probability mass that
    stepped out of the box (and was absorbed) by step n_max.

    The box and the start at 0 are invariant under the signed permutations
    of the axes, so P(S_n = .) is invariant under those that keep the step
    law, and the DP keeps one value per orbit of `_orbits`.  A step sets
    q[j] = sum_atoms prob * p[src[j]], where src[j] is the representative
    index of rep_j - off, or a zero sentinel past the box.  The atoms are
    added in support order onto a zeroed q, so ``partial`` is bit for bit
    the per-atom slice update over the box with every cell set to its
    representative's value after each step.  ``leak`` weights each
    representative by its orbit size.  Atoms with an offset of at least the
    box side have no source in the box and are skipped.

    FIELD_BUDGET bounds the bytes held, counted before anything large is
    allocated, as the larger of two phases.  The orbit pass holds 4 (d + 1)
    bytes per cell but at least 12, and 8 per representative.  The DP holds
    ``rep_of`` (4 bytes per cell), the int32 index box padded by the largest
    offset, one int32 table per atom and 48 bytes per representative (p, q,
    the sums, a gather buffer, the orbit sizes and take's intp copy of a
    table).  Expanding ``partial`` at the end holds less than the DP.
    """

    def __init__(self, step: StepDistribution, n_max: int, box_radius: int):
        if n_max < 1 or box_radius < 1:
            raise UsageError("n_max and box_radius must be >= 1")
        d, side = step.dim, 2 * box_radius + 1
        flips, classes = _symmetries(step)
        atoms = [(vec, prob) for vec, prob in zip(step.support, step.probabilities)
                 if np.abs(vec).max() < side]
        pad = max((int(np.abs(vec).max()) for vec, _ in atoms), default=0)
        # nonincreasing runs of |y| (flippable) or of y along each class
        n_reps = math.prod(math.comb((box_radius + 1 if c[0] in flips else side)
                                     + len(c) - 1, len(c)) for c in classes)
        held = max(side ** d * 4 * max(d + 1, 3) + 8 * n_reps,
                   4 * side ** d + 4 * (side + 2 * pad) ** d
                   + n_reps * (48 + 4 * len(atoms)))
        if held > FIELD_BUDGET:
            raise ResourceError(f"DP box radius {box_radius} needs {held} "
                                f"bytes, over budget {FIELD_BUDGET}")
        self.step = step
        self.n_max = n_max
        self.box_radius = box_radius
        partial, leak = self._run(atoms, flips, classes, pad)
        self.partial = partial.reshape((side,) * d)
        self.leak = float(leak)

    def _run(self, atoms: list, flips: list, classes: list, pad: int):
        """(partial over the flat box, leak); see the class docstring."""
        d, side = self.step.dim, 2 * self.box_radius + 1
        rep_of, reps = _orbits(flips, classes, d, self.box_radius)
        n = len(reps)
        # flat indices in the box padded by `pad` sentinel cells on every
        # face, where no atom's shift wraps
        padded = np.pad(rep_of.reshape((side,) * d), pad,
                        constant_values=n).reshape(-1)
        strides = (side + 2 * pad) ** np.arange(d - 1, -1, -1)
        at = np.zeros(n, dtype=np.intp)
        for ax in range(d):
            at += (reps // side ** (d - 1 - ax) % side + pad) * strides[ax]
        del reps
        tables = [(prob, padded[at - int(vec @ strides)]) for vec, prob in atoms]
        del padded, at
        sizes = np.bincount(rep_of, minlength=n).astype(float)
        p = np.zeros(n + 1)  # entry n is the sentinel: always 0
        q = np.zeros(n + 1)
        g = np.zeros(n)
        tmp = np.empty(n)
        p[rep_of[rep_of.size // 2]] = 1.0
        p_sum, leak = 1.0, 0.0
        for _ in range(self.n_max):
            q.fill(0.0)
            for prob, src in tables:
                # indices are in range; "clip" avoids take's buffered out
                np.take(p, src, out=tmp, mode="clip")
                tmp *= prob
                q[:n] += tmp
            q_sum = np.multiply(q[:n], sizes, out=tmp).sum()
            leak += p_sum - q_sum
            g += q[:n]
            p, q, p_sum = q, p, q_sum
        del p, q, tmp, tables
        return g[rep_of], leak

    def partial_at(self, x: Sequence[int]) -> float:
        idx = tuple(v + self.box_radius for v in lattice_point(x, self.step.dim))
        if any(i < 0 or i > 2 * self.box_radius for i in idx):
            raise UsageError(f"point {tuple(x)} lies outside the DP box")
        return float(self.partial[idx])

    def green(self, x: Sequence[int]) -> GreenEstimate:
        """Partial sum plus CLT tail; leak and tail slack in the bound.
        Refuses d <= 2, where the tail diverges."""
        x = lattice_point(x, self.step.dim)
        q = self.step.covariance
        partial = self.partial_at(x)
        tail = clt_tail_estimate(q, x, self.n_max)
        crude = clt_tail_bound(self.step.dim, self.step.sigma2, self.n_max)
        # absorbed mass can still have reached x afterwards: bound its
        # contribution by the asymptotic Green value at the boundary gap
        gap = max(self.box_radius - max(abs(v) for v in x), 1)
        leak_bound = self.leak * spitzer_constant_isotropic(
            self.step.dim, self.step.sigma2) * gap ** (2 - self.step.dim)
        err = max(crude - tail, 0.0) + leak_bound + 0.05 * tail
        return GreenEstimate(x=x, value=partial + tail, method="dp",
                             error_bound=float(err), lower_bound=partial,
                             n_max=self.n_max)

    def level_sum(self, norm: NormSpec, k: int) -> float:
        """sum of Green values over the norm sphere ||x|| = k (DP + tail)."""
        pts = sphere_points(norm, k)
        return float(sum(self.green(tuple(p)).value for p in pts))


def _symmetries(step: StepDistribution) -> tuple[list, list]:
    """(flips, classes): the axes whose sign flip alone keeps the multiset
    of (atom, probability > 0), and the classes of axes any two of which
    can be swapped keeping it.  Swaps compose, so an axis that swaps with a
    class's first axis swaps with all of it; a swap carries one axis's flip
    to the other's, so a class is all flippable or none."""
    d, live = step.dim, step.probabilities > 0
    sup, probs = step.support[live], step.probabilities[live].tolist()

    def law(s):
        return sorted(zip(map(tuple, s.tolist()), probs))

    axes, base = list(range(d)), law(sup)
    flips = [ax for ax in axes if law(sup * np.where(np.arange(d) == ax, -1, 1)) == base]
    classes = []
    for ax in axes:
        for cls in classes:
            perm = axes.copy()
            perm[ax], perm[cls[0]] = cls[0], ax
            if law(sup[:, perm]) == base:
                cls.append(ax)
                break
        else:
            classes.append([ax])
    return flips, classes


def _orbits(flips: list, classes: list, d: int, radius: int):
    """(rep_of, reps): the representative index of every box cell (int32,
    flat C order) and the representatives' flat indices (ascending).

    A cell's representative has |y| on the flippable axes and each class
    in nonincreasing order; with no symmetry every cell is its own.  Time
    O(cells * d); memory 4 (d + 1) bytes per cell but at least 12.
    """
    side = 2 * radius + 1
    y = np.indices((side,) * d, dtype=np.int32).reshape(d, -1)
    y -= radius
    for ax in flips:
        np.abs(y[ax], out=y[ax])
    low = np.empty(y.shape[1], dtype=np.int32)
    for cls in classes:
        for _ in cls[1:]:  # bubble passes sort the class nonincreasing
            for a, b in zip(cls, cls[1:]):
                np.minimum(y[a], y[b], out=low)
                np.maximum(y[a], y[b], out=y[a])
                y[b] = low
    flat = np.add(y[0], radius, out=low)  # the representative's flat index
    for ax in range(1, d):
        flat *= side
        flat += y[ax]
        flat += radius
    del y
    rank = np.zeros(flat.size, dtype=np.int32)
    rank[flat] = 1
    reps = np.flatnonzero(rank)
    np.cumsum(rank, out=rank)
    rank -= 1
    return rank[flat], reps


def default_box_radius(x: Sequence[int], n_max: int) -> int:
    """max(4 ||x||_inf, 2 sqrt(n_max)): keeps leaked mass marginal."""
    xr = max((abs(int(v)) for v in x), default=0)
    return max(4 * xr, int(2 * math.sqrt(n_max)), 8)


def green_dp(step: StepDistribution, x: Sequence[int], n_max: int = 4000,
             box_radius: Optional[int] = None) -> GreenEstimate:
    """Single-point DP estimate; build a GreenField directly to batch queries.
    x and d >= 3 are checked before the field is built."""
    x = lattice_point(x, step.dim)
    check_transient(step.dim, "the Green function")
    if box_radius is None:
        box_radius = default_box_radius(x, n_max)
    field = GreenField(step, n_max=n_max, box_radius=box_radius)
    return field.green(x)


def green_mc(step: StepDistribution, norm: NormSpec, x: Sequence[int],
             replicas: int, master_seed: int,
             k_cut: Optional[int] = None) -> GreenEstimate:
    """Mean truncated site local time at x across replicas; ``undercovered``
    when the bias `_site_statistic` estimates for the visits missed after
    the exit of k_cut exceeds the standard error (error_bound / 3), which
    needs at least 2 replicas."""
    x, _, visits, bias = _site_statistic(step, norm, x, replicas, master_seed,
                                         k_cut)
    mean = float(visits.mean())
    se = float(visits.std(ddof=1) / math.sqrt(replicas))
    return GreenEstimate(x=x, value=mean, method="mc", error_bound=3 * se,
                         replicas=replicas, undercovered=bool(bias > se))


@dataclass(frozen=True)
class ConsistencyReport:
    green_value: float
    ratio_value: float       # p(x) / (1 - p(0))
    gap: float
    combined_sigma: float    # 1-sigma scale of the gap
    n_sigma: float
    passed: bool


def green_vs_hitting(green_value: float, green_se: float,
                     p_x: float, p_x_se: float,
                     p_0: float, p_0_se: float) -> ConsistencyReport:
    """Compare a Green estimate against p(x)/(1-p(0)) at 3-sigma bands.

    The ratio variance comes from the delta method with independent inputs.
    """
    if not (0.0 <= p_0 < 1.0):
        raise UsageError("need p(0) in [0, 1)")
    ratio = p_x / (1.0 - p_0)
    var = (p_x_se / (1.0 - p_0)) ** 2 + (p_x * p_0_se / (1.0 - p_0) ** 2) ** 2
    sigma = math.sqrt(var + green_se ** 2)
    gap = abs(green_value - ratio)
    return ConsistencyReport(green_value=green_value, ratio_value=ratio,
                             gap=gap, combined_sigma=sigma, n_sigma=3.0,
                             passed=bool(gap <= 3.0 * sigma))
