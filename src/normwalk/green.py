"""Green function G(0,x) = sum_{n>=1} P(S_n = x) for transient walks.

Three routes:

* dynamic programming -- exact probability-vector convolution on a box,
  absorbing at the boundary, with a local-CLT tail estimate added and the
  absorbed mass tracked into the error bound (``GreenField``);
* Monte Carlo -- mean truncated site local time (walk module);
* the |x| -> infinity asymptotic constant Gamma(d/2-1)/(2 pi^{d/2}).

DP fields hold partial sums for every site of the box at once, so one run
serves many query points.  Each DP step is a stencil on the flattened box:
one contiguous add per atom of the step law, after which the boundary
bands that the flat shift wrapped into are restored; mass stepping out of
the box is absorbed and counted as ``leak``.  A bipartite step law (every
atom's coordinate sum odd, as for the simple walk) keeps the walk on one
flat parity class of the box at each step, so the DP stores and steps
each class as a contiguous half array and touches half the cells; any
other law runs the same loop on a single class, the whole box.  The DP
holds 20 bytes per cell for a bipartite law and 32 otherwise, so the
40-million-cell budget FIELD_BUDGET is 0.8 GB or 1.28 GB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ResourceError, UsageError
from .norms import NormSpec, sphere_points
from .walk import (StepDistribution, _exit_bias, default_k_cut, site_visit_samples,
                   spitzer_constant_isotropic)

FIELD_BUDGET = 40_000_000  # box cells: 20 B each for a bipartite law, else 32 B


def spitzer_asymptotic(q: np.ndarray, x: Sequence[float]) -> float:
    """Leading-order G(0,x): Gamma(d/2-1)/(2 pi^{d/2}) |det Q|^{-1/2} (x,Q^{-1}x)^{1-d/2}."""
    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    if q.shape != (d, d):
        raise UsageError("Q must be square")
    const = spitzer_constant_isotropic(d, 1.0)  # refuses d < 3
    det = np.linalg.det(q)
    if det <= 0:
        raise UsageError("Q must be positive definite")
    v = np.asarray(x, dtype=float)
    quad = float(v @ np.linalg.solve(q, v))
    if quad <= 0:
        raise UsageError("x must be nonzero")
    return const * det ** -0.5 * quad ** (1 - d / 2)


def clt_tail_estimate(q: np.ndarray, x: Sequence[float], n_from: int) -> float:
    """Local-CLT estimate of sum_{n > n_from} P(S_n = x).

    Integrates (2 pi n)^{-d/2} (det Q)^{-1/2} exp(-(x,Q^{-1}x)/(2n)) over
    n > n_from.  For period-2 walks the vanishing/doubled alternation of
    the local CLT averages to the same integral.
    """
    from scipy.special import gammainc

    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    det = float(np.linalg.det(q))
    v = np.asarray(x, dtype=float)
    a = float(v @ np.linalg.solve(q, v)) / 2.0
    c = det ** -0.5 * (2 * math.pi) ** (-d / 2)
    s = d / 2 - 1
    if a == 0.0:
        return c * n_from ** (-s) / s
    return c * a ** (-s) * math.gamma(s) * float(gammainc(s, a / n_from))


def clt_tail_bound(d: int, sigma2: float, n_from: int) -> float:
    """Conservative tail bound 2 (2 pi sigma^2)^{-d/2} sum_{n>N} n^{-d/2}."""
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

    One step computes q(y) = sum_atoms prob * p(y - off) as a stencil on the
    flattened arrays.  The box is C-ordered, so an atom is the flat shift
    sum_ax off_ax * side^(d-1-ax) and one contiguous add over the flat range
    [max(shift, 0), cells + min(shift, 0)).  On an axis ax >= 1 that shift
    wraps sources from the opposite face into the band of |off_ax|
    destination slabs next to the face; those bands are saved before the add
    and restored after it (axis 0 cannot wrap: its overflow leaves the flat
    range).  Atoms
    are added in support order onto a zeroed q, so every cell receives the
    same float additions as a per-atom slice update.  The product prob * p
    is formed again only when the probability differs from the previous
    atom's (once per step for the simple walk, twice for the lazy walk).
    Atoms with an offset of at least the box side have no source in the box
    and are skipped.

    Parity classes: the side is odd, so a cell's flat index has the parity
    of its coordinate sum.  When every atom has an odd coordinate sum (the
    law is bipartite, as the simple walk is) every shift is odd and p lives
    on one flat parity class at each step, the other class holding zeros.
    The arrays then keep class c, the flat cells 2 j + c, as one contiguous
    half array (stride 2); each step adds into the opposite class only, and
    the skipped cells would only have received additions of 0.0, so
    ``partial`` is unchanged.  ``leak`` sums the occupied class alone.  Any
    other law runs the same loop with stride 1 and a single class, the whole
    box.

    Memory: p, q and the scaled copy of p are one class long and the
    partial sums cover every class, so a bipartite law holds 2.5 float64
    arrays of the box (20 bytes per cell) and any other law 4 (32 bytes per
    cell).  ``partial`` is interleaved from the classes after the others
    are freed.  The wrapped bands add one index array per axis, width and
    class, and one shared buffer of band values.  FIELD_BUDGET caps the
    cells.
    """

    def __init__(self, step: StepDistribution, n_max: int, box_radius: int):
        if n_max < 1 or box_radius < 1:
            raise UsageError("n_max and box_radius must be >= 1")
        side = 2 * box_radius + 1
        cells = side ** step.dim
        if cells > FIELD_BUDGET:
            raise ResourceError(f"DP box radius {box_radius} needs {cells} "
                                f"cells, over budget {FIELD_BUDGET}")
        self.step = step
        self.n_max = n_max
        self.box_radius = box_radius
        g, leak = self._run(step, n_max, box_radius)
        # row c of g holds the flat cells stride * j + c, so reading g
        # column by column interleaves the classes back into the box
        self.partial = np.ascontiguousarray(g.T).reshape(-1)[:cells].reshape(
            (side,) * step.dim)
        self.leak = float(leak)

    @staticmethod
    def _run(step: StepDistribution, n_max: int, radius: int):
        """(partial sums per parity class, leak); see the class docstring."""
        d = step.dim
        side = 2 * radius + 1
        cells = side ** d
        weights = [side ** (d - 1 - ax) for ax in range(d)]
        stride = 2 if np.all(step.support.sum(axis=1) % 2) else 1
        length = [(cells - c + stride - 1) // stride for c in range(stride)]
        low_bands = {}  # class indices of low-face slabs by (axis, width, class)
        tables = []  # the atoms' adds, one table per source class
        for c_src in range(stride):
            c_dst = (c_src + 1) % stride
            table = []
            for vec, prob in zip(step.support, step.probabilities):
                off = [int(v) for v in vec]
                if any(abs(o) >= side for o in off):
                    continue  # no source cell inside the box
                shift = sum(o * w for o, w in zip(off, weights))
                lo, hi = max(shift, 0), cells + min(shift, 0)
                # class cells j with lo <= stride * j + c_dst < hi read the
                # source class cell j + k
                jlo, jhi = -((c_dst - lo) // stride), -((c_dst - hi) // stride)
                k = (c_dst - c_src - shift) // stride
                # destinations whose source lies outside the box on an axis
                # >= 1 (the flat add wraps those sources in from a
                # neighbouring row): the |o| slabs at the face, which are
                # the slabs at the low face moved up the flat index by t
                bands = []
                for ax, o in enumerate(off[1:], start=1):
                    if o:
                        t = (0 if o > 0 else side + o) * weights[ax]
                        c_low = (c_dst - t) % stride
                        key = (ax, abs(o), c_low)
                        if key not in low_bands:
                            low_bands[key] = _low_band(side, d, ax, abs(o),
                                                       stride, c_low)
                        bands.append((low_bands[key],
                                      (t + c_low - c_dst) // stride))
                table.append((prob, jlo + k, jlo, jhi, bands))
            tables.append(table)
        p = np.zeros(length[0])
        q = np.empty(length[0])
        g = np.zeros((stride, length[0]))
        scaled = np.empty(length[0])  # prob * p for the current atom's prob
        # one buffer saves every atom's bands: an atom restores them before
        # the next atom saves its own
        saved = np.empty(max((sum(len(idx) for idx, _ in bands)
                              for table in tables for *_, bands in table),
                             default=0))
        for table in tables:
            for i, (prob, at, jlo, jhi, bands) in enumerate(table):
                views, used = [], 0
                for idx, band_at in bands:
                    views.append((idx, band_at, saved[used:used + len(idx)]))
                    used += len(idx)
                table[i] = (prob, scaled[at:at + jhi - jlo], jlo, jhi, views)
        centre = radius * sum(weights)
        c = centre % stride
        p[centre // stride] = 1.0
        p_sum = 1.0
        leak = 0.0
        for _ in range(n_max):
            table, n_src = tables[c], length[c]
            c = (c + 1) % stride
            q_c = q[:length[c]]
            q_c.fill(0.0)
            last = None
            for prob, src, jlo, jhi, bands in table:
                if prob != last:
                    np.multiply(p[:n_src], prob, out=scaled[:n_src])
                    last = prob
                for idx, at, band in bands:
                    # indices are in range; "clip" avoids take's buffered out
                    q[at:].take(idx, out=band, mode="clip")
                dst = q[jlo:jhi]
                np.add(dst, src, out=dst)
                for idx, at, band in bands:
                    q[at:][idx] = band
            q_sum = q_c.sum()
            leak += p_sum - q_sum
            g[c, :length[c]] += q_c
            p, q, p_sum = q, p, q_sum
        return g, leak

    def partial_at(self, x: Sequence[int]) -> float:
        if len(x) != self.step.dim:
            raise UsageError(f"point {tuple(x)} does not have the walk's "
                             f"dimension {self.step.dim}")
        idx = tuple(int(v) + self.box_radius for v in x)
        if any(i < 0 or i > 2 * self.box_radius for i in idx):
            raise UsageError(f"point {tuple(x)} lies outside the DP box")
        return float(self.partial[idx])

    def green(self, x: Sequence[int]) -> GreenEstimate:
        """Partial sum plus CLT tail; leak and tail slack in the bound."""
        x = tuple(int(v) for v in x)
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


def _low_band(side: int, d: int, ax: int, width: int, stride: int,
              c: int) -> np.ndarray:
    """Class-c indices of the cells whose coordinate on axis ax is below
    width, built from the band's own coordinate ranges."""
    rows = [np.arange(side)] * d
    rows[ax] = np.arange(width)
    flat = np.ravel_multi_index(np.ix_(*rows), (side,) * d).reshape(-1)
    return flat[flat % stride == c] // stride


def default_box_radius(x: Sequence[int], n_max: int) -> int:
    """max(4 ||x||_inf, 2 sqrt(n_max)): keeps leaked mass marginal."""
    xr = max((abs(int(v)) for v in x), default=0)
    return max(4 * xr, int(2 * math.sqrt(n_max)), 8)


def green_dp(step: StepDistribution, x: Sequence[int], n_max: int = 4000,
             box_radius: Optional[int] = None) -> GreenEstimate:
    """Single-point DP estimate; build a GreenField directly to batch queries."""
    if box_radius is None:
        box_radius = default_box_radius(x, n_max)
    field = GreenField(step, n_max=n_max, box_radius=box_radius)
    return field.green(x)


def green_mc(step: StepDistribution, norm: NormSpec, x: Sequence[int],
             replicas: int, master_seed: int,
             k_cut: Optional[int] = None) -> GreenEstimate:
    """Mean truncated site local time at x across replicas; ``undercovered``
    when `_exit_bias`, the visits missed after the exit of k_cut, exceeds
    the standard error (error_bound / 3), which needs at least 2 replicas."""
    if replicas < 2:
        raise UsageError("the MC standard error needs at least 2 replicas")
    x = tuple(int(v) for v in x)
    if k_cut is None:
        k_cut = default_k_cut(norm.value(x))
    visits = site_visit_samples(step, norm, x, replicas, master_seed,
                                k_cut=k_cut)
    mean = float(visits.mean())
    se = float(visits.std(ddof=1) / math.sqrt(replicas))
    bias = _exit_bias(step, norm, x, k_cut)
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
