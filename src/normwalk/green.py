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
the box is absorbed and counted as ``leak``.  The DP holds four float64
arrays of the box, 32 bytes per cell, so the 40-million-cell budget
FIELD_BUDGET is 1.28 GB for every step law.
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

FIELD_BUDGET = 40_000_000  # box cells, 32 bytes each


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

    Memory: p, q, the partial sums and the scaled copy of p, four float64
    arrays of the box (32 bytes per cell) for every step law, plus the saved
    bands; FIELD_BUDGET caps the cells.
    """

    def __init__(self, step: StepDistribution, n_max: int, box_radius: int):
        if n_max < 1 or box_radius < 1:
            raise UsageError("n_max and box_radius must be >= 1")
        cells = (2 * box_radius + 1) ** step.dim
        if cells > FIELD_BUDGET:
            raise ResourceError(f"DP box radius {box_radius} needs {cells} "
                                f"cells, over budget {FIELD_BUDGET}")
        self.step = step
        self.n_max = n_max
        self.box_radius = box_radius
        self._run(step, n_max, box_radius)

    def _run(self, step: StepDistribution, n_max: int, radius: int) -> None:
        d = step.dim
        side = 2 * radius + 1
        shape = (side,) * d
        cells = side ** d
        p = np.zeros(shape)
        p[(radius,) * d] = 1.0
        q = np.empty(shape)
        g = np.zeros(shape)
        scaled = np.empty(cells)  # prob * p for the current atom's prob
        atoms = []
        for vec, prob in zip(step.support, step.probabilities):
            off = [int(v) for v in vec]
            if any(abs(o) >= side for o in off):
                continue  # no source cell inside the box
            shift = sum(o * side ** (d - 1 - ax) for ax, o in enumerate(off))
            lo, hi = max(shift, 0), cells + min(shift, 0)
            # destinations whose source lies outside the box on an axis
            # >= 1: the flat add wraps those sources in from a neighbouring row
            bands = []
            for ax, o in enumerate(off[1:], start=1):
                if o:
                    band = [slice(None)] * d
                    band[ax] = slice(0, o) if o > 0 else slice(side + o, side)
                    band = tuple(band)
                    bands.append((band, np.empty(q[band].shape)))
            atoms.append((prob, scaled[lo - shift:hi - shift], lo, hi, bands))
        p_sum = p.sum()
        leak = 0.0
        for _ in range(n_max):
            q.fill(0.0)
            flat = q.reshape(-1)
            last = None
            for prob, src, lo, hi, bands in atoms:
                if prob != last:
                    np.multiply(p.reshape(-1), prob, out=scaled)
                    last = prob
                for band, saved in bands:
                    np.copyto(saved, q[band])
                dst = flat[lo:hi]
                np.add(dst, src, out=dst)
                for band, saved in bands:
                    q[band] = saved
            q_sum = q.sum()
            leak += p_sum - q_sum
            g += q
            p, q, p_sum = q, p, q_sum
        self.partial = g
        self.leak = float(leak)

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
