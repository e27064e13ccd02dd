"""Lattice random walk simulation with reproducible replication.

Each replica's path is a pure function of (master_seed, replica_index):
streams come from counter-based Philox generators keyed by that pair, so
replica i's result does not depend on how many replicas run.  A replica
loop leases its stream (`replica_stream`): a pooled generator re-keyed to
the pair, which gives the stream a fresh one would, bit for bit, without
building one per replica.  Every replica loop goes through
`map_replicas`, which splits the replicas into one contiguous range per
CPU this process may run on and runs all but the first in forked
children; since a replica reads only its own stream, the results do not
depend on the CPU count either.

Every walk is stepped by one kernel, `_blocks`, in structure-of-arrays
layout: a block holds the positions S_{n0}, ..., S_{n0+m-1} as a (d, m)
int64 array, one contiguous row per coordinate, so norm evaluation and
site matching run along contiguous rows.
A block is drawn with one call of the replica's generator and cut at the
first step whose norm reaches the stop radius; nothing past the stopping
time is emitted.  Chunking never changes the stream: the draws are
chunk-invariant, so any chunk size gives the same path, bit for bit.
The block size therefore follows from one rule, `_block_size`: about the
exit time k_cut^2 of a stop radius, capped at BLOCK_CAP to stay in L2.

Every estimator here reads the (n0, cols, norms, exited) blocks of
`_blocks` directly.  A horizon run observes its integer level counts
L_N(k) (`level_counts`); a partial sum of f(||S_n||) is the math.fsum of
f(k) L_N(k) (`f_sums`), so it does not depend on the block size either.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence, TypeVar

import numpy as np
from numpy.random import Generator, Philox

from .errors import UsageError
from .norms import NormSpec

# the most steps a block holds; its temporaries take about 0.85 MB
BLOCK_CAP = 8192
# the steps a run without a horizon may take before it ends unexited
MAX_STEPS = 10 ** 8
# the largest mean component and covariance deviation check_a0 accepts
A0_TOLERANCE = 1e-9

T = TypeVar("T")


def check_ladder(values: Sequence, what: str, rungs: int = 1) -> list[int]:
    """The rungs of a ladder (horizons, checkpoints, K values, levels k) as
    sorted ints: `rungs` or more, each an integer >= 1 (1e4 counts), none
    repeated (a repeated top rung makes every replica look stabilised)."""
    values = list(values)
    try:
        out = sorted(int(v) for v in values)
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        out = []
    if (len(out) < max(rungs, len(values)) or out != sorted(values)
            or len(set(out)) < len(out) or out[0] < 1):
        raise UsageError(f"{what} must be {rungs} or more distinct integers "
                         f">= 1, got {values}")
    return out


def check_replicas(replicas: int, floor: int) -> None:
    """Refuse a replica count below floor, before any replica runs: 1 for a
    sample, 2 for a standard error."""
    if replicas < floor:
        raise UsageError(f"replicas must be >= {floor}, got {replicas}")


def check_transient(dim: int, what: str) -> None:
    """Refuse d <= 2: the walk is recurrent there, so G(0, x) and the total
    local times are infinite and `what` has no finite value."""
    if dim < 3:
        raise UsageError(f"{what}: d = {dim} walks are recurrent, only "
                         "transient ones (d >= 3) are supported")


def lattice_point(x: Sequence, dim: int) -> tuple[int, ...]:
    """x as a tuple of ints: dim coordinates, each an integer (1.0 and
    numpy integers count, 1.5 does not)."""
    values = tuple(x)
    try:
        point = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        point = None
    if point is None or len(point) != dim or point != values:
        raise UsageError(f"point ({', '.join(map(str, values))}) is not a "
                         f"lattice point of dimension {dim}")
    return point


def _key(master_seed: int, replica_index: int) -> np.ndarray:
    """The Philox key of stream (master_seed, replica_index): the one
    derivation of a replica's stream.  Each part must lie in [0, 2^64)."""
    if not (0 <= master_seed < 1 << 64 and 0 <= replica_index < 1 << 64):
        raise UsageError("seeds and replica indices must be nonnegative and "
                         f"below 2^64, got ({master_seed}, {replica_index})")
    return np.array([master_seed, replica_index], dtype=np.uint64)


def replica_rng(master_seed: int, replica_index: int) -> Generator:
    """A fresh Philox stream keyed by (master_seed, replica_index), for
    one-off draws; replica loops lease theirs from replica_stream."""
    return Generator(Philox(key=_key(master_seed, replica_index)))


_ZEROS = np.zeros(4, dtype=np.uint64)  # a Philox counter or buffer at rest
_idle: list[tuple[Philox, Generator]] = []  # this process's unleased pairs


class replica_stream:
    """`with replica_stream(seed, i) as rng:` leases stream (seed, i).

    rng draws exactly what replica_rng(seed, i) draws, bit for bit: a
    pooled (Philox, Generator) pair is set to key (seed, i), counter 0 and
    an empty buffer, and Philox streams are keyed, not seeded, so no
    generator is built once the pool holds one.  rng is valid only inside
    the with block: on exit, error or not, the pair goes back to the pool
    and a later lease re-keys it.  Nested leases hold different pairs, and
    a forked child works on its own copy of the pool.
    """

    __slots__ = ("_state", "_pair")

    def __init__(self, master_seed: int, replica_index: int):
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": _ZEROS,
                                 "key": _key(master_seed, replica_index)},
                       "buffer": _ZEROS, "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def __enter__(self) -> Generator:
        try:
            self._pair = _idle.pop()
        except IndexError:
            bits = Philox()
            self._pair = (bits, Generator(bits))
        self._pair[0].state = self._state  # copies the arrays in
        return self._pair[1]

    def __exit__(self, *exc) -> None:
        _idle.append(self._pair)


_mapping = False  # True during a parallel map_replicas call, in its children too


def map_replicas(one: Callable[[int], T], replicas: int) -> list[T]:
    """[one(i) for i in range(replicas)], split across the CPUs.

    The replicas are split into one contiguous range per CPU in this
    process's affinity mask (at most `replicas` ranges).  This process runs
    range 0 itself; every other range runs in an `os.fork()` child, which
    pickles its results back through a pipe.  Each `one(i)` must draw only
    from its own `(seed, i)` stream, so the list is the serial one, in
    replica order, whatever the CPU count.  Side effects of `one` (prints,
    appends to outer lists, caches) made in a child are lost, so `one`
    should only return its value, which must pickle.

    An exception raised in any range reaches the caller, the one of the
    lowest range first, as the serial loop would raise it; a child that
    dies without a result raises RuntimeError.  On every exit each child
    has been reaped.  A map_replicas call made inside another runs
    serially, so processes never multiply.
    """
    global _mapping
    workers = min(len(os.sched_getaffinity(0)), replicas)
    if _mapping or workers <= 1:
        return [one(i) for i in range(replicas)]
    _mapping = True
    try:
        return _forked(one, replicas, workers)
    finally:
        _mapping = False


def _forked(one: Callable[[int], T], replicas: int, workers: int) -> list[T]:
    bounds = [replicas * w // workers for w in range(workers + 1)]
    children = {}  # pid -> read end of its pipe, for children not yet reaped
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: close the pipe, reap the rest
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(one, range(bounds[w], bounds[w + 1]), write)
            os.close(write)
            children[pid] = read
        out = [one(i) for i in range(bounds[0], bounds[1])]
        for w, pid in enumerate(list(children), start=1):
            with open(children[pid], "rb") as fh:
                blob = fh.read()  # to EOF first: a full pipe blocks the child
            del children[pid]
            _, status = os.waitpid(pid, 0)
            try:
                ok, value = pickle.loads(blob)
            except Exception:
                raise RuntimeError(
                    f"the worker for replicas {bounds[w]}..{bounds[w + 1] - 1} "
                    f"ended without a readable result (wait status {status})"
                ) from None
            if not ok:
                raise value
            out.extend(value)
        return out
    finally:
        for pid, read in children.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(one: Callable[[int], T], indices: range, write: int) -> None:
    """Runs one range in a forked child, pickles the outcome, never returns.

    An outcome that does not pickle leaves a truncated pipe, which the
    parent reports as a worker without a readable result.
    """
    try:
        try:
            outcome = (True, [one(i) for i in indices])
        except BaseException as exc:  # the parent re-raises it
            outcome = (False, exc)
        with open(write, "wb") as fh:
            pickle.dump(outcome, fh)
    finally:
        os._exit(0)


@dataclass(frozen=True)
class StepDistribution:
    """Finite-support increment law with moment certificates.

    The support, the probabilities and the moments (``mean``, the
    covariance matrix ``covariance`` and sigma2 = trace / dim) are fixed at
    construction with the sampler's table; the arrays are read-only.
    """

    dim: int
    support: np.ndarray        # (m, dim) int64
    probabilities: np.ndarray  # (m,) float, sums to 1

    def __post_init__(self):
        # own copies: the tables and moments below are derived from them
        sup = np.array(self.support, dtype=np.int64)
        p = np.array(self.probabilities, dtype=float)
        if sup.ndim != 2 or sup.shape[1] != self.dim:
            raise UsageError("support must be an (m, dim) integer array")
        # a nan compares False, so it would pass the sign and sum checks
        if (p.shape != (sup.shape[0],) or not np.all(np.isfinite(p))
                or np.any(p < 0)):
            raise UsageError("probabilities must be finite and nonnegative, "
                             "one per atom")
        if abs(p.sum() - 1.0) > 1e-12:
            raise UsageError(f"probabilities sum to {p.sum()!r}, not 1")
        sup.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probabilities", p)
        # the index sampler's table, fixed here: None for a uniform law
        cum = None
        if not np.all(p == p[0]):
            cum = np.cumsum(p)
            cum[-1] = 1.0
        object.__setattr__(self, "_cum", cum)
        # the moments, fixed here
        x = sup.astype(float)
        mean = p @ x
        cov = ((x - mean).T * p) @ (x - mean)
        mean.flags.writeable = cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "sigma2", float(np.trace(cov) / self.dim))

    @property
    def isotropy_deviation(self) -> float:
        """max |Q_ij - sigma^2 delta_ij|; 0 means exactly isotropic."""
        return float(np.abs(self.covariance - self.sigma2 * np.eye(self.dim)).max())

    @property
    def uniform(self) -> bool:
        return self._cum is None

    def sampler(self, rng: Generator) -> Callable[[int], np.ndarray]:
        """Returns a function n -> (n, dim) int64 increments, a new array
        per call: n support indices from rng, gathered."""
        sup, cum = self.support, self._cum
        if cum is None:
            m = sup.shape[0]
            return lambda n: np.take(sup, rng.integers(0, m, size=n), axis=0)
        return lambda n: np.take(
            sup, np.searchsorted(cum, rng.random(n), side="right"), axis=0)


def make_simple_walk(d: int) -> StepDistribution:
    """Uniform law on the 2d signed unit vectors; sigma^2 = 1/d exactly."""
    if d < 1:
        raise UsageError("d must be >= 1")
    sup = np.zeros((2 * d, d), dtype=np.int64)
    for i in range(d):
        sup[2 * i, i] = 1
        sup[2 * i + 1, i] = -1
    return StepDistribution(dim=d, support=sup,
                            probabilities=np.full(2 * d, 1.0 / (2 * d)))


def make_lazy_walk(d: int) -> StepDistribution:
    """Simple walk that stays put with probability 1/2."""
    base = make_simple_walk(d)
    sup = np.vstack([np.zeros((1, d), dtype=np.int64), base.support])
    probs = np.concatenate([[0.5], np.full(2 * d, 0.5 / (2 * d))])
    return StepDistribution(dim=d, support=sup, probabilities=probs)


def check_a0(step: StepDistribution) -> bool:
    """Zero mean and isotropic covariance Q = sigma^2 I within A0_TOLERANCE."""
    if float(np.abs(step.mean).max()) > A0_TOLERANCE:
        return False
    if step.sigma2 <= 0:
        return False
    return step.isotropy_deviation <= A0_TOLERANCE


@dataclass(frozen=True)
class WalkRun:
    """One replica's configuration; (master_seed, replica_index) fixes the path."""

    step: StepDistribution
    master_seed: int
    replica_index: int = 0
    horizon: Optional[int] = None        # number of steps; None = until stop_radius
    stop_radius: Optional[int] = None    # stop once ||S_n|| >= stop_radius

    def __post_init__(self):
        if self.horizon is None and self.stop_radius is None:
            raise UsageError("need a horizon or a stop_radius")
        if self.horizon is not None and self.horizon < 1:
            raise UsageError("horizon must be >= 1")
        if self.stop_radius is not None and self.stop_radius < 1:
            raise UsageError("stop_radius must be >= 1")


@dataclass
class LocalTimeRecord:
    """Visit counts by norm level (dense) and by site (sparse, optional)."""

    level_counts: np.ndarray          # index k -> L^{||S||}_n(k), k >= 0
    n_effective: int
    truncated: bool                   # True when stop_radius fired first
    site_counts: Optional[dict] = None

    def site(self, x: Sequence[int]) -> int:
        if self.site_counts is None:
            raise UsageError("site tracking was not enabled for this run")
        return self.site_counts.get(tuple(int(v) for v in x), 0)


def _block_size(stop_radius: Optional[int]) -> int:
    """Steps per block: stop_radius^2 within [256, BLOCK_CAP], else BLOCK_CAP."""
    return BLOCK_CAP if stop_radius is None else min(max(256, stop_radius ** 2),
                                                     BLOCK_CAP)


def _blocks(run: WalkRun, norm: NormSpec, chunk: Optional[int] = None
            ) -> Iterator[tuple[int, np.ndarray, np.ndarray, bool]]:
    """The stepping kernel: yields (n0, cols, norms, exited) blocks.

    cols is the (d, m) int64 block of positions S_{n0}, ..., S_{n0+m-1} and
    norms their norms.  Each block draws min(chunk, steps left) increments;
    the block that reaches stop_radius is cut just after that step, comes
    with exited = True and is the last.  Otherwise the blocks end after
    horizon (or MAX_STEPS) steps.  chunk defaults to _block_size.  The
    iterator holds the replica's stream lease until it ends or is closed.
    """
    if norm.dim != run.step.dim:
        raise UsageError("norm and step distribution dimensions differ")
    if chunk is None:
        chunk = _block_size(run.stop_radius)
    step = run.step
    limit = run.horizon if run.horizon is not None else MAX_STEPS
    last = np.zeros(step.dim, dtype=np.int64)
    n_done = 0
    with replica_stream(run.master_seed, run.replica_index) as rng:
        draw = step.sampler(rng)
        while n_done < limit:
            steps = draw(min(chunk, limit - n_done))
            steps[0] += last
            # numpy (2.4) accumulates int64 about 3x faster along a strided
            # axis than along a contiguous one, so the running sum reads the
            # row-major steps and writes the (d, m) block through its
            # transpose.
            cols = np.empty((step.dim, len(steps)), dtype=np.int64)
            np.cumsum(steps, axis=0, out=cols.T)
            norms = norm.values(cols.T)
            exited = False
            if run.stop_radius is not None:
                over = norms >= run.stop_radius
                stop = int(over.argmax())
                if over[stop]:
                    cols, norms = cols[:, :stop + 1], norms[:stop + 1]
                    exited = True
            yield n_done + 1, cols, norms, exited
            if exited:
                return
            last = cols[:, -1]
            n_done += len(norms)


def _plus_levels(counts: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """A new array: counts plus the level histogram of norms."""
    out = np.bincount(norms, minlength=len(counts))
    out[:len(counts)] += counts
    return out


def level_counts(run: WalkRun, norm: NormSpec,
                 checkpoints: Sequence[int]) -> np.ndarray:
    """L_N(k) = #{1 <= n <= N : ||S_n|| = k}, one int64 row per checkpoint N
    in sorted order, k up to the highest level reached.  The path runs to
    the last checkpoint; checkpoints past an earlier stop hold its counts."""
    checkpoints = check_ladder(checkpoints, "checkpoints")
    rows, counts = [], np.zeros(0, dtype=np.int64)
    for n0, _, norms, _ in _blocks(replace(run, horizon=checkpoints[-1]), norm):
        for c in checkpoints[len(rows):]:
            if c >= n0 + len(norms):
                break
            rows.append(_plus_levels(counts, norms[:c - n0 + 1]))
        counts = _plus_levels(counts, norms)
    rows += [counts] * (len(checkpoints) - len(rows))
    return np.array([np.pad(r, (0, len(counts) - len(r))) for r in rows])


def simulate(run: WalkRun, norm: NormSpec, track_sites: bool = False,
             chunk: Optional[int] = None) -> LocalTimeRecord:
    """Generate one replica path and count its visits by level (and site).

    Runs for `horizon` steps or until ||S_n|| >= stop_radius, whichever
    comes first.  level_counts has one entry per level up to the highest
    reached, and sum_k level_counts[k] = n_effective.
    """
    sites: Optional[dict] = {} if track_sites else None
    counts = np.zeros(0, dtype=np.int64)
    for _, cols, norms, _ in _blocks(run, norm, chunk):
        counts = _plus_levels(counts, norms)
        if sites is not None:
            uniq, cnt = np.unique(cols.T, axis=0, return_counts=True)
            for row, c in zip(map(tuple, uniq.tolist()), cnt.tolist()):
                sites[row] = sites.get(row, 0) + c
    # only the stopping step reaches the stop radius
    truncated = run.stop_radius is not None and bool(counts[run.stop_radius:].any())
    return LocalTimeRecord(level_counts=counts, n_effective=int(counts.sum()),
                           truncated=truncated, site_counts=sites)


def f_sums(counts: np.ndarray, f: Callable[[np.ndarray], np.ndarray]
           ) -> np.ndarray:
    """sum_k f(k) counts[..., k] over the last axis, each by math.fsum.
    f is evaluated once, on the levels some row visits; a row reads only
    the levels it visits, so an f infinite elsewhere leaves it finite."""
    rows = counts.reshape(-1, counts.shape[-1])
    visited = np.flatnonzero(rows.any(axis=0))
    vals = np.zeros(rows.shape[1])
    vals[visited] = f(visited)
    sums = [math.fsum((r[r > 0] * vals[r > 0]).tolist()) for r in rows]
    return np.array(sums).reshape(counts.shape[:-1])


# -- truncated total local times and hitting statistics --------------------


def truncation_bias_bound(norm: NormSpec, k: int, k_cut: int) -> float:
    """Heuristic relative bias of stopping level-k visit counts at k_cut.

    After exiting norm-radius k_cut the walk sits at Euclidean distance
    >= k_cut * r_min; by the |x|^{2-d} Green decay its expected future
    level-k visits are at most ((k r_max)/(k_cut r_min))^{d-2} times the
    total.  This uses the asymptotic decay rate, not a rigorous constant.
    """
    lo, hi = norm.euclid_range_on_unit_sphere()
    d = norm.dim
    return float(((k * hi) / (k_cut * lo)) ** (d - 2))


def _exit_counts(step: StepDistribution, norm: NormSpec, k_cut: int,
                 replicas: int, master_seed: int,
                 count: Callable[[np.ndarray, np.ndarray], int]) -> np.ndarray:
    """Per replica, the sum of count(cols, norms) over its blocks up to and
    including the step that exits norm-radius k_cut."""

    def one(i: int) -> int:
        run = WalkRun(step=step, master_seed=master_seed, replica_index=i,
                      stop_radius=k_cut)
        total = 0
        for _, cols, norms, exited in _blocks(run, norm):
            total += count(cols, norms)
            if exited:
                return total
        raise UsageError("walk failed to exit k_cut within the step budget")

    return np.array(map_replicas(one, replicas), dtype=np.int64)


def site_visit_samples(step: StepDistribution, norm: NormSpec,
                       x: Sequence[int], replicas: int, master_seed: int,
                       k_cut: int) -> np.ndarray:
    """Per-replica visit counts to the site x before exiting k_cut."""
    check_transient(norm.dim, "site visit counts")
    target = lattice_point(x, step.dim)
    check_replicas(replicas, 1)
    if norm.value(target) >= k_cut:
        # a site at or past the cut is never reached before the exit
        return np.zeros(replicas, dtype=np.int64)

    def visits(cols: np.ndarray, norms: np.ndarray) -> int:
        hit = cols[0] == target[0]
        for row, v in zip(cols[1:], target[1:]):
            hit &= row == v
        return int(np.count_nonzero(hit))

    return _exit_counts(step, norm, k_cut, replicas, master_seed, visits)


def spitzer_constant_isotropic(d: int, sigma2: float) -> float:
    """Limit of |x|^{d-2} G(0,x) when Q = sigma^2 I."""
    check_transient(d, "the Green asymptotic")
    return math.gamma(d / 2 - 1) / (2 * math.pi ** (d / 2)) / sigma2


def _site_statistic(step: StepDistribution, norm: NormSpec, x: Sequence[int],
                    replicas: int, master_seed: int, k_cut: Optional[int]
                    ) -> tuple[tuple[int, ...], int, np.ndarray, float]:
    """(x, k_cut, visits, bias) behind a site statistic with a standard
    error (so at least 2 replicas): the lattice point x, k_cut (default
    max(4||x|| + 4, 16)), the per-replica visit counts to x before the exit
    of k_cut, and the estimated bias of stopping there.

    The exit point lies at Euclidean distance at least
    gap = k_cut * lo - |x|_2 from x (lo the shortest Euclidean length on the
    norm's unit sphere).  The visits to x after the exit, and so the chance
    of reaching x only then, are about the Green value at that distance:
    bias = C gap^{2-d} with C the isotropic Spitzer constant, infinite when
    gap <= 0.
    """
    check_replicas(replicas, 2)
    x = lattice_point(x, step.dim)
    if k_cut is None:
        k_cut = max(4 * norm.value(x) + 4, 16)
    visits = site_visit_samples(step, norm, x, replicas, master_seed,
                                k_cut=k_cut)
    gap = k_cut * norm.euclid_range_on_unit_sphere()[0] - math.hypot(*x)
    bias = (spitzer_constant_isotropic(step.dim, step.sigma2) * gap ** (2 - step.dim)
            if gap > 0 else math.inf)
    return x, k_cut, visits, bias


@dataclass(frozen=True)
class HittingEstimate:
    x: tuple
    k_cut: int
    replicas: int
    p_hat: float
    std_error: float
    undercovered: bool  # estimated exit bias exceeds std_error


def hitting_probability(step: StepDistribution, norm: NormSpec,
                        x: Sequence[int], replicas: int, master_seed: int,
                        k_cut: Optional[int] = None) -> HittingEstimate:
    """P(T_x < infinity) estimated by the fraction of replicas hitting x
    before exiting norm-radius k_cut (default max(4||x|| + 4, 16)).

    The estimate misses the walks that reach x only after exiting k_cut;
    ``undercovered`` is set when `_site_statistic`'s bias estimate for
    them exceeds the standard error.  That standard error needs at least 2 replicas.
    """
    target, k_cut, visits, bias = _site_statistic(step, norm, x, replicas,
                                                  master_seed, k_cut)
    p = float((visits >= 1).mean())
    se = float(np.sqrt(max(p * (1 - p), 1e-12) / replicas))
    return HittingEstimate(x=target, k_cut=k_cut, replicas=replicas,
                           p_hat=p, std_error=se, undercovered=bool(bias > se))


def geometric_tail_report(visits: np.ndarray, n_max: int = 5) -> list[dict]:
    """Empirical tail P(L >= n) with conditional ratio estimates.

    Ratio of successive tails estimates the return probability p(0); the
    standard error treats count(n+1) | count(n) as binomial.
    """
    out = []
    r = len(visits)
    for n in range(1, n_max + 1):
        c_n = int((visits >= n).sum())
        c_next = int((visits >= n + 1).sum())
        tail = c_n / r
        if c_n > 0:
            ratio = c_next / c_n
            ratio_se = float(np.sqrt(max(ratio * (1 - ratio), 1e-12) / c_n))
        else:
            ratio, ratio_se = float("nan"), float("inf")
        out.append({"n": n, "tail": tail, "count": c_n,
                    "ratio": ratio, "ratio_se": ratio_se})
    return out
