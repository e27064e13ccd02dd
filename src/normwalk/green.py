"""Green function G(0,x) = sum_{n>=1} P(S_n = x) for transient walks.

Three routes:

* dynamic programming -- exact probability-vector convolution on a box,
  absorbing at the boundary, with a local-CLT tail estimate added and the
  absorbed mass tracked into the error bound;
* Monte Carlo -- mean truncated site local time (walk module);
* the |x| -> infinity asymptotic constant Gamma(d/2-1)/(2 pi^{d/2}).

DP fields hold partial sums for every site of the box at once, so one run
serves many query points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammainc

from .errors import ResourceError, UsageError
from .norms import NormSpec
from .walk import StepDistribution, site_visit_samples

DEFAULT_FIELD_BUDGET = 40_000_000  # box cells


def spitzer_asymptotic(q: np.ndarray, x: Sequence[float]) -> float:
    """Leading-order G(0,x): Gamma(d/2-1)/(2 pi^{d/2}) |det Q|^{-1/2} (x,Q^{-1}x)^{1-d/2}."""
    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    if q.shape != (d, d):
        raise UsageError("Q must be square")
    if d < 3:
        raise UsageError("the asymptotic requires d >= 3")
    det = np.linalg.det(q)
    if det <= 0:
        raise UsageError("Q must be positive definite")
    v = np.asarray(x, dtype=float)
    quad = float(v @ np.linalg.solve(q, v))
    if quad <= 0:
        raise UsageError("x must be nonzero")
    const = math.gamma(d / 2 - 1) / (2 * math.pi ** (d / 2))
    return const * det ** -0.5 * quad ** (1 - d / 2)


def spitzer_constant_isotropic(d: int, sigma2: float) -> float:
    """Limit of |x|^{d-2} G(0,x) when Q = sigma^2 I."""
    if d < 3:
        raise UsageError("the asymptotic requires d >= 3")
    return math.gamma(d / 2 - 1) / (2 * math.pi ** (d / 2)) / sigma2


def clt_tail_estimate(q: np.ndarray, x: Sequence[float], n_from: int) -> float:
    """Local-CLT estimate of sum_{n > n_from} P(S_n = x).

    Integrates (2 pi n)^{-d/2} (det Q)^{-1/2} exp(-(x,Q^{-1}x)/(2n)) over
    n > n_from.  For period-2 walks the vanishing/doubled alternation of
    the local CLT averages to the same integral.
    """
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

    def overlaps(self, other: "GreenEstimate", n_sigma: float = 3.0) -> bool:
        gap = abs(self.value - other.value)
        return gap <= n_sigma * (self.error_bound + other.error_bound)


class GreenField:
    """DP partial sums of P(S_n = y) for every y in a centred box."""

    def __init__(self, step: StepDistribution, n_max: int, box_radius: int,
                 budget: int = DEFAULT_FIELD_BUDGET):
        if n_max < 1 or box_radius < 1:
            raise UsageError("n_max and box_radius must be >= 1")
        d = step.dim
        side = 2 * box_radius + 1
        cells = side ** d
        if cells > budget:
            raise ResourceError(
                f"DP box radius {box_radius} needs {cells} cells, over budget {budget}")
        self.step = step
        self.n_max = n_max
        self.box_radius = box_radius
        self._run(step, n_max, box_radius)

    def _run(self, step: StepDistribution, n_max: int, radius: int) -> None:
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
        self.partial = g
        self.leak = float(leak)

    def partial_at(self, x: Sequence[int]) -> float:
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
        from .norms import sphere_points
        pts = sphere_points(norm, k)
        return float(sum(self.green(tuple(p)).value for p in pts))


def default_box_radius(x: Sequence[int], n_max: int) -> int:
    """max(4 ||x||_inf, 2 sqrt(n_max)): keeps leaked mass marginal."""
    xr = max((abs(int(v)) for v in x), default=0)
    return max(4 * xr, int(2 * math.sqrt(n_max)), 8)


def green_dp(step: StepDistribution, x: Sequence[int], n_max: int = 4000,
             box_radius: Optional[int] = None,
             budget: int = DEFAULT_FIELD_BUDGET) -> GreenEstimate:
    """Single-point DP estimate; build a GreenField directly to batch queries."""
    if box_radius is None:
        box_radius = default_box_radius(x, n_max)
    field = GreenField(step, n_max=n_max, box_radius=box_radius, budget=budget)
    return field.green(x)


def green_mc(step: StepDistribution, norm: NormSpec, x: Sequence[int],
             replicas: int, master_seed: int, k_cut: Optional[int] = None,
             threads: int = 1) -> GreenEstimate:
    """Mean truncated site local time at x across replicas."""
    x = tuple(int(v) for v in x)
    norm_x = norm.value(x)
    if k_cut is None:
        k_cut = max(4 * norm_x + 4, 16)
    visits = site_visit_samples(step, norm, x, replicas, master_seed,
                                k_cut=k_cut, threads=threads)
    mean = float(visits.mean())
    se = float(visits.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else float("inf")
    return GreenEstimate(x=x, value=mean, method="mc", error_bound=3 * se,
                         replicas=replicas,
                         undercovered=bool(2 * norm_x >= k_cut))


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
                     p_0: float, p_0_se: float,
                     n_sigma: float = 3.0) -> ConsistencyReport:
    """Compare a Green estimate against p(x)/(1-p(0)) at n_sigma bands.

    The ratio variance comes from the delta method with independent inputs.
    """
    if not (0.0 <= p_0 < 1.0):
        raise UsageError("need p(0) in [0, 1)")
    ratio = p_x / (1.0 - p_0)
    var = (p_x_se / (1.0 - p_0)) ** 2 + (p_x * p_0_se / (1.0 - p_0) ** 2) ** 2
    sigma = math.sqrt(var + green_se ** 2)
    gap = abs(green_value - ratio)
    return ConsistencyReport(green_value=green_value, ratio_value=ratio,
                             gap=gap, combined_sigma=sigma, n_sigma=n_sigma,
                             passed=bool(gap <= n_sigma * sigma))
