"""Green function G(0,x) = sum_{n>=1} P(S_n = x) for transient walks.

Three routes:

* dynamic programming -- exact probability-vector convolution on a box,
  absorbing at the boundary, with a local-CLT tail estimate added and the
  absorbed mass tracked into the error bound (``GreenField``);
* Monte Carlo -- mean truncated site local time (walk module);
* the |x| -> infinity asymptotic constant Gamma(d/2-1)/(2 pi^{d/2}).

DP fields hold partial sums for every site of the box at once, so one run
serves many query points; `GreenField` describes the DP over orbits of box
cells, its ``leak`` and its query table, on which G is constant per orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ResourceError, UsageError
from .norms import NormSpec, sphere_points
from .walk import (StepDistribution, _site_statistic, check_transient,
                   lattice_point, spitzer_constant_isotropic)

FIELD_BUDGET = 1_280_000_000  # bytes the DP may hold; see GreenField
_GATHER_BYTES = 1 << 18  # the largest gather a DP step makes


def _gauss_form(q: np.ndarray, x: Sequence) -> tuple:
    """(d, det Q, c, Gamma(d/2 - 1), x.Q^{-1}x) for a covariance Q of a
    transient walk and a point x of R^d, or an (n, d) array of points and
    an array of forms: the Gaussian form of the local CLT, with
    c = (det Q)^{-1/2} (2 pi)^{-d/2} its constant.  Refuses a non-square or
    non-positive-definite Q, d <= 2 and points of another dimension."""
    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    if q.shape != (d, d):
        raise UsageError("Q must be square")
    check_transient(d, "the local-CLT Green terms")
    det = float(np.linalg.det(q))
    if det <= 0:
        raise UsageError("Q must be positive definite")
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != d:
        raise UsageError(f"point {x} does not have dimension {d}")
    return (d, det, det ** -0.5 * (2 * math.pi) ** (-d / 2), math.gamma(d / 2 - 1),
            np.einsum("...i,i...->...", v, np.linalg.solve(q, v.T)))


def spitzer_asymptotic(q: np.ndarray, x: Sequence[float]) -> float:
    """Leading-order G(0,x): Gamma(d/2-1)/(2 pi^{d/2}) |det Q|^{-1/2} (x,Q^{-1}x)^{1-d/2}."""
    d, det, _, _, quad = _gauss_form(q, x)
    if quad <= 0:
        raise UsageError("x must be nonzero")
    return spitzer_constant_isotropic(d, 1.0) * det ** -0.5 * quad ** (1 - d / 2)


def clt_tail_estimate(q: np.ndarray, x: Sequence, n_from: int) -> float | np.ndarray:
    """Local-CLT estimate of sum_{n > n_from} P(S_n = x), n_from >= 1: a
    float for one point x, an array for an (n, d) array of points.

    Integrates (2 pi n)^{-d/2} (det Q)^{-1/2} exp(-(x,Q^{-1}x)/(2n)) over
    n > n_from.  For period-2 walks the vanishing/doubled alternation of
    the local CLT averages to the same integral.
    """
    from scipy.special import gammainc

    if n_from < 1:
        raise UsageError(f"n_from must be >= 1, got {n_from}")
    d, _, c, gamma_s, quad = _gauss_form(q, x)
    a = np.asarray(quad / 2.0)
    s = d / 2 - 1
    tail = np.full(a.shape, c * n_from ** (-s) / s)
    far = a != 0.0
    tail[far] = c * a[far] ** (-s) * gamma_s * gammainc(s, a[far] / n_from)
    return tail if tail.ndim else float(tail)


def clt_tail_bound(q: np.ndarray, n_from: int) -> float:
    """Conservative tail bound 2 c sum_{n>N} n^{-d/2}, N >= 1, for a walk of
    covariance Q: c = (det Q)^{-1/2} (2 pi)^{-d/2} is the local-CLT constant
    of `_gauss_form`, doubled for the period-2 alternation."""
    if n_from < 1:
        raise UsageError(f"n_from must be >= 1, got {n_from}")
    d, _, c, _, _ = _gauss_form(q, np.zeros(len(q)))
    s = d / 2
    zeta_tail = n_from ** (1 - s) / (s - 1) + 0.5 * n_from ** -s
    return 2.0 * c * zeta_tail


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
    stepped out of the box (and was absorbed) by step n_max: 1 less the
    `math.fsum` of the mass left in it after that step, each
    representative's value times its orbit size, clamped at 0: a box that
    cannot absorb would otherwise read its rounding residue.

    The box and the start at 0 are invariant under the signed permutations
    of the axes, so P(S_n = .) is invariant under those that keep the step
    law, and the DP keeps one value per orbit of `_orbits`.  A step sets
    q[j] = sum_atoms prob * p[src[j]], where src[j] is the representative
    index of rep_j - off, or a zero sentinel past the box.  One (atoms x
    representatives) index table holds every atom's sources, pointing into
    a stack of copies of p: one scaled by each probability that two or more
    atoms share, and a plain one whose gathered rows are scaled by their
    atom's own probability.  A step gathers a chunk of columns with one
    ``take`` and adds its rows in support order with one ``add.reduce``.
    As prob * p[src] == (prob * p)[src], and (0 + a_1) + a_2 + ... ==
    a_1 + a_2 + ... for these nonnegative terms, ``partial`` is bit for bit
    the per-atom slice update over the box with every cell set to its
    representative's value after each step.  One list of live atoms, of
    positive mass and with an offset below the box side (a source in the
    box), serves the padding, the parity test, the byte count and the steps.

    When every live atom has an odd coordinate sum (the simple walk is
    such a bipartite law), P(S_n = y) = 0 unless the coordinate sum of y
    has the parity of n, and orbits keep that sum's parity.  `_orbits` then
    numbers the representatives in two parity classes, even sums first,
    each in ascending order, and the DP chunks each class's columns apart.
    Step n fills the stack from q on the class of parity n - 1, which step
    n - 1 wrote, and gathers, reduces and adds to the sums over the class
    of parity n, whose sources all lie in the other; the mass left after
    step n_max is all on that step's class.  A class of fewer than two
    representatives (only boxes of radius 1 or 2 in d <= 2 have one) is
    not split.

    FIELD_BUDGET bounds the bytes held, counted before anything large is
    allocated, as the larger of two phases.  The orbit pass holds 4 (d + 1)
    bytes per cell but at least 12, and 8 per representative.  Building
    the table holds ``rep_of`` (4 bytes per cell), the int32 index box
    padded by the largest offset and 48 + 4 atoms bytes per representative
    (an int32 table row per live atom and the index arithmetic).  Stepping
    holds ``rep_of`` and ``reps`` (4 bytes per cell and per
    representative), q, the sums and the stack rows (8 bytes per
    representative each), and fits the table and the gather buffer in
    what is left of the larger phase, less the padded box: intp indices
    where the buffer can be as large as the table, else int32 ones
    gathered in chunks small enough for the buffer and ``take``'s intp
    copy of the chunk's indices.  Should not even a chunk of a few columns
    fit, the scaled copies are dropped, fewest atoms first.  A gather
    holds about _GATHER_BYTES at most, which keeps a chunk in cache from
    the ``take`` to the sum.  The orbit sizes are counted after the last
    step, when the stack and the table are gone, from an intp copy of
    ``rep_of``.  The field then keeps ``rep_of`` and the sums; expanding
    ``partial``, at its first read, holds less than the DP.

    Queries read one query table over the representatives: the sums
    ``_g`` and, from the first `green` or `level_sum` call on, value =
    partial + tail and error_bound = max(crude - tail, 0) + leak_bound +
    0.05 tail, from one `clt_tail_estimate` call over all of them
    (`_table`).  A point reads its representative's entry through
    ``_rep_of``: `green` and `partial_at` with one bounds check and one
    tuple index, `level_sum` with one array lookup for the whole sphere.
    """

    def __init__(self, step: StepDistribution, n_max: int, box_radius: int):
        if n_max < 1 or box_radius < 1:
            raise UsageError("n_max and box_radius must be >= 1")
        d, side = step.dim, 2 * box_radius + 1
        flips, classes = _symmetries(step)
        atoms = [(vec, prob) for vec, prob in zip(step.support, step.probabilities)
                 if prob > 0 and np.abs(vec).max() < side]
        pad = max((int(np.abs(vec).max()) for vec, _ in atoms), default=0)
        # every live atom changes the parity of the coordinate sum
        bipartite = all(int(vec.sum()) % 2 for vec, _ in atoms)
        n_reps = _rep_count(flips, classes, box_radius)
        orbit = side ** d * 4 * max(d + 1, 3) + 8 * n_reps
        build = 4 * side ** d + n_reps * (48 + 4 * len(atoms))
        held = max(orbit, build + 4 * (side + 2 * pad) ** d)
        if held > FIELD_BUDGET:
            raise ResourceError(f"DP box radius {box_radius} needs {held} "
                                f"bytes, over budget {FIELD_BUDGET}")
        self.step, self.n_max, self.box_radius = step, n_max, box_radius
        # the DP of the class docstring; ``_rep_of`` takes the box's shape
        rep_of, reps, edges = _orbits(flips, classes, d, box_radius, bipartite)
        n = len(reps)
        scales, rows, lift, index, bounds = _gather_plan(
            [prob for _, prob in atoms], edges,
            max(orbit, build) - 4 * (rep_of.size + n))
        table = _source_table(rep_of, reps, [vec for vec, _ in atoms], d,
                              box_radius, pad)
        table += np.array(rows, dtype=np.int32)[:, None] * (n + 1)
        # per class, contiguous intp copies of each chunk's columns, which
        # take reads without a conversion, or int32 views
        blocks = [[table[:, lo:hi].astype(index, copy=False)
                   for lo, hi in zip(cls, cls[1:])] for cls in bounds]
        del table
        self._g, q = _steps(n_max, blocks, bounds, scales, lift,
                            int(rep_of[rep_of.size // 2]))
        del blocks
        # the mass still in the box after step n_max, on the class it wrote
        lo = bounds[n_max % len(bounds)][0]
        q *= np.bincount(rep_of, minlength=n)[lo:lo + q.size]  # orbit sizes
        self.leak = max(1.0 - math.fsum(q), 0.0)
        self._rep_of, self._reps = rep_of.reshape((side,) * d), reps

    @cached_property
    def partial(self) -> np.ndarray:
        """The partial sums over the box, expanded from the representatives'
        at the first read."""
        return self._g[self._rep_of]

    def _rep(self, points) -> np.ndarray:
        """The representative index of each row of an (n, d) integer array
        of points; refuses a point outside the box."""
        points, r = np.asarray(points), self.box_radius
        outside = np.abs(points).max(axis=1) > r
        if outside.any():
            self._point(points[outside.argmax()].tolist())  # refuses it
        return self._rep_of[tuple((points + r).T)]

    def _point(self, x: Sequence[int]) -> tuple[tuple, int]:
        """(x, its representative index) for one lattice point x of the
        box; refuses what `lattice_point` and `_rep` refuse."""
        x, r = lattice_point(x, self.step.dim), self.box_radius
        if max(map(abs, x)) > r:
            raise UsageError(f"point {x} lies outside the DP box")
        return x, int(self._rep_of[tuple(v + r for v in x)])

    @cached_property
    def _table(self) -> np.ndarray:
        """Rows value and error_bound at every representative: the partial
        sum plus the CLT tail, and the leak and tail slack.  Refuses d <= 2,
        where the tail diverges."""
        d, sigma2, r = self.step.dim, self.step.sigma2, self.box_radius
        reps = np.stack(np.unravel_index(self._reps, self._rep_of.shape), 1) - r
        tail = clt_tail_estimate(self.step.covariance, reps, self.n_max)
        # absorbed mass can still have reached x afterwards: bound its
        # contribution by the asymptotic Green value at the boundary gap
        gap = np.maximum(r - np.abs(reps).max(axis=1), 1.0)
        leak_bound = self.leak * spitzer_constant_isotropic(d, sigma2) * gap ** (2 - d)
        slack = np.maximum(clt_tail_bound(self.step.covariance, self.n_max) - tail, 0.0)
        return np.stack((self._g + tail, slack + leak_bound + 0.05 * tail))

    def partial_at(self, x: Sequence[int]) -> float:
        return float(self._g[self._point(x)[1]])

    def green(self, x: Sequence[int]) -> GreenEstimate:
        """Partial sum plus CLT tail; leak and tail slack in the bound.
        Refuses d <= 2, where the tail diverges."""
        x, i = self._point(x)
        value, err = self._table[:, i].tolist()
        return GreenEstimate(x=x, value=value, method="dp", error_bound=err,
                             lower_bound=float(self._g[i]), n_max=self.n_max)

    def level_sum(self, norm: NormSpec, k: int) -> float:
        """sum of Green values over the norm sphere ||x|| = k (DP + tail),
        by math.fsum, so it does not depend on the enumeration order."""
        if norm.dim != self.step.dim:
            raise UsageError(f"a norm of dimension {norm.dim} on a field of "
                             f"dimension {self.step.dim}")
        return math.fsum(self._table[0][self._rep(sphere_points(norm, k))].tolist())


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


def _rep_count(flips: list, classes: list, radius: int) -> int:
    """The number of `_orbits` representatives, in closed form: per class,
    the nonincreasing runs of |y| (flippable) or of y along it."""
    return math.prod(math.comb((radius + 1 if c[0] in flips else 2 * radius + 1)
                               + len(c) - 1, len(c)) for c in classes)


def _orbits(flips: list, classes: list, d: int, radius: int, bipartite: bool):
    """(rep_of, reps, edges): the representative index of every box cell
    (int32, flat C order), the representatives' flat indices (int32) and
    the edges of their classes.

    A cell's representative has |y| on the flippable axes and each class
    in nonincreasing order; with no symmetry every cell is its own.  The
    representatives are in ascending order, one class, edges [0, n]; for a
    `bipartite` law whose parity classes both have two or more, even
    coordinate sums first, each class ascending, edges [0, even, n].  Time
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
    reps = np.flatnonzero(rank).astype(np.int32)
    n = len(reps)
    edges = [0, n]
    if bipartite:
        # as the side is odd, a flat index has the parity of the
        # coordinate sum plus d r
        odd = ((reps + d * radius) & 1).astype(bool)
        even = n - int(np.count_nonzero(odd))
        if 2 <= even <= n - 2:
            reps, edges = np.concatenate((reps[~odd], reps[odd])), [0, even, n]
    rank[reps] = np.arange(n, dtype=np.int32)
    return rank[flat], reps, edges


def _source_table(rep_of: np.ndarray, reps: np.ndarray, offsets: list,
                  d: int, radius: int, pad: int) -> np.ndarray:
    """(len(offsets), n) int32: the representative index of y - offset for
    every representative y and atom offset, or n (a zero sentinel) past
    the box."""
    side, n = 2 * radius + 1, len(reps)
    # flat indices in the box padded by `pad` sentinel cells on every face,
    # where no atom's shift wraps
    padded = np.pad(rep_of.reshape((side,) * d), pad,
                    constant_values=n).reshape(-1)
    strides = (side + 2 * pad) ** np.arange(d - 1, -1, -1)
    at = np.zeros(n, dtype=np.intp)
    for ax in range(d):
        at += (reps // side ** (d - 1 - ax) % side + pad) * strides[ax]
    table = np.empty((len(offsets), n), dtype=np.int32)
    for row, off in zip(table, offsets):
        np.take(padded, at - int(off @ strides), out=row)
    return table


def _gather_plan(probs: list, edges: list, room: int):
    """(scales, rows, lift, index, bounds): how a DP step over the
    representatives edges[0]:edges[-1], in classes edges[j]:edges[j + 1] of
    two or more each, gathers atoms of probabilities `probs` in `room` bytes
    (all but ``rep_of`` and ``reps``); see GreenField.

    Row k of the source stack holds scales[k] * p, and atom i reads row
    rows[i].  The gathered rows lo:hi of lift = (lo, hi, factors) are
    multiplied by factors: an atom's probability where it reads plain p,
    else 1.0.  The index table has dtype `index`, and each gather of class
    j takes columns bounds[j][i]:bounds[j][i + 1].
    """
    n, a = edges[-1], max(len(probs), 1)
    # probabilities two or more atoms share, most atoms first
    shared = sorted({p for p in probs if probs.count(p) > 1},
                    key=probs.count, reverse=True)
    while True:
        # row 0 is plain p when some atom's probability is its own
        scales = [1.0] * (not probs or any(p not in shared for p in probs)) + shared
        # less q, the sums, the stack and an int32 table
        free = room - 8 * (2 * n + len(scales) * (n + 1)) - 4 * a * n
        if free >= 48 * a or not shared:
            break
        shared.pop()
    rows = [scales.index(p) if p in shared else 0 for p in probs]
    factors = [1.0 if p in shared else p for p in probs]
    own = [i for i, f in enumerate(factors) if f != 1.0] or [0, -1]
    lift = (own[0], own[-1] + 1, np.array(factors[own[0]:own[-1] + 1])[:, None])
    # intp where it and a gather of the whole table fit; else int32, and a
    # gather column also holds take's intp copy of its indices
    wide = free >= 4 * a * n + 8 * a * (n + 1)
    column = 8 * a if wide else 16 * a
    chunk = max(min(n, _GATHER_BYTES // (8 * a),
                    (free - 4 * a * n * wide) // column - 1), 2)
    # per class, chunks of `chunk` columns and a last one of 2 to chunk + 1:
    # over one column, add.reduce would add the rows pairwise
    bounds = [[*range(lo, hi - 1, chunk), hi] for lo, hi in zip(edges, edges[1:])]
    return scales, rows, lift, np.intp if wide else np.int32, bounds


def _steps(n_max: int, blocks: list, bounds: list, scales: list, lift: tuple,
           start: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums, q) of n_max DP steps from a unit mass at representative
    `start`, gathering through the index blocks of a `_gather_plan`, one
    list per class, q on the class step n_max wrote.  With one class, a
    step reads and writes every representative.  With two, `start` is in
    the first, and step t reads class (t - 1) % 2 and writes class t % 2."""
    n, a = bounds[-1][-1], blocks[0][0].shape[0]
    lo_l, hi_l, factors = lift
    stack = np.zeros((len(scales), n + 1))  # column n: the zero sentinel
    flat = stack.reshape(-1)
    q, g = np.zeros(n), np.zeros(n)
    buf = np.empty(a * max(b - c for cls in bounds for c, b in zip(cls, cls[1:])))
    reads, writes = [], []
    for src_blocks, cls in zip(blocks, bounds):
        lo, hi = cls[0], cls[-1]
        reads.append((q[lo:hi], [(row[lo:hi], s) for row, s in zip(stack, scales)]))
        chunks = []
        for src, c, b in zip(src_blocks, cls, cls[1:]):
            out = buf[:a * (b - c)].reshape(a, b - c)
            chunks.append((src, out, out[lo_l:hi_l], q[c:b]))
        writes.append((chunks, q[lo:hi], g[lo:hi]))
    q[start] = 1.0
    for t in range(1, n_max + 1):
        p, fills = reads[(t - 1) % len(reads)]
        chunks, q_c, g_c = writes[t % len(writes)]
        for row, scale in fills:
            np.multiply(p, scale, out=row)
        for src, out, own, sums in chunks:
            # indices are in range; "clip" avoids take's buffered out
            np.take(flat, src, out=out, mode="clip")
            if hi_l:
                np.multiply(own, factors, out=own)
            np.add.reduce(out, axis=0, out=sums)
        g_c += q_c
    return g, writes[n_max % len(writes)][1]


def default_box_radius(x: Sequence[int], n_max: int) -> int:
    """max(4 ||x||_inf, 2 sqrt(n_max), 8): keeps leaked mass marginal."""
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
                                         k_cut, False)
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
