"""Lattice random walk simulation with reproducible replication.

Each replica's path is a pure function of (master_seed, replica_index):
streams come from counter-based Philox generators keyed by that pair, so
replica i's result does not depend on how many replicas run.  Every
replica loop goes through `map_replicas`, which splits the replicas into
one contiguous range per CPU this process may run on and runs all but the
first in forked children; since a replica reads only its own stream, the
results do not depend on the CPU count either.

Every walk is stepped by one kernel, `_blocks`, in structure-of-arrays
layout: a block holds the positions S_{n0}, ..., S_{n0+m-1} as a (d, m)
int64 array, one contiguous row per coordinate, so norm evaluation and
site matching run along contiguous rows.
A block is drawn with one call of the replica's generator and cut at the
first step whose norm reaches the stop radius; nothing past the stopping
time is emitted.  Chunking never changes the stream: the draws are
chunk-invariant, so any chunk size gives the same path, bit for bit.
The block size therefore follows from the run: about the diffusive exit
time of the stop radius when there is one, DEFAULT_CHUNK otherwise.

Every estimator here (level and site counts, partial sums of f(||S_n||),
truncated total local times) reads the (n0, cols, norms, exited) blocks
of `_blocks` directly.
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

DEFAULT_CHUNK = 1 << 15
DEFAULT_MAX_STEPS = 10 ** 8  # safety valve for stop_radius-only runs

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


def replica_rng(master_seed: int, replica_index: int) -> Generator:
    """Philox stream keyed by (master_seed, replica_index); no jumping."""
    if master_seed < 0 or replica_index < 0:
        raise UsageError("seeds and replica indices must be nonnegative")
    key = np.array([master_seed, replica_index], dtype=np.uint64)
    return Generator(Philox(key=key))


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
    """Finite-support increment law with moment certificates."""

    dim: int
    support: np.ndarray        # (m, dim) int64
    probabilities: np.ndarray  # (m,) float, sums to 1

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=np.int64)
        p = np.asarray(self.probabilities, dtype=float)
        if sup.ndim != 2 or sup.shape[1] != self.dim:
            raise UsageError("support must be an (m, dim) integer array")
        if p.shape != (sup.shape[0],) or np.any(p < 0):
            raise UsageError("probabilities must be nonnegative, one per atom")
        if abs(p.sum() - 1.0) > 1e-12:
            raise UsageError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probabilities", p)

    @property
    def mean(self) -> np.ndarray:
        return self.probabilities @ self.support.astype(float)

    @property
    def covariance(self) -> np.ndarray:
        x = self.support.astype(float)
        m = self.mean
        return ((x - m).T * self.probabilities) @ (x - m)

    @property
    def sigma2(self) -> float:
        return float(np.trace(self.covariance) / self.dim)

    @property
    def isotropy_deviation(self) -> float:
        """max |Q_ij - sigma^2 delta_ij|; 0 means exactly isotropic."""
        q = self.covariance
        return float(np.abs(q - self.sigma2 * np.eye(self.dim)).max())

    @property
    def uniform(self) -> bool:
        p = self.probabilities
        return bool(np.all(p == p[0]))

    def _index_sampler(self, rng: Generator) -> Callable[[int], np.ndarray]:
        """Returns a function n -> (n,) int64 indices into the support."""
        if self.uniform:
            m = self.support.shape[0]
            return lambda n: rng.integers(0, m, size=n)
        cum = np.cumsum(self.probabilities)
        cum[-1] = 1.0
        return lambda n: np.searchsorted(cum, rng.random(n), side="right")

    def sampler(self, rng: Generator) -> Callable[[int], np.ndarray]:
        """Returns a function n -> (n, dim) int64 increments."""
        draw = self._index_sampler(rng)
        return lambda n: self.support[draw(n)]


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


def check_a0(step: StepDistribution, tolerance: float = 0.0) -> bool:
    """Zero mean and isotropic covariance Q = sigma^2 I within tolerance."""
    if float(np.abs(step.mean).max()) > tolerance:
        return False
    if step.sigma2 <= 0:
        return False
    return step.isotropy_deviation <= tolerance


@dataclass(frozen=True)
class WalkRun:
    """One replica's configuration; (master_seed, replica_index) fixes the path."""

    step: StepDistribution
    master_seed: int
    replica_index: int = 0
    horizon: Optional[int] = None        # number of steps; None = until stop_radius
    stop_radius: Optional[int] = None    # stop once ||S_n|| >= stop_radius
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.horizon is None and self.stop_radius is None:
            raise UsageError("need a horizon or a stop_radius")
        if self.horizon is not None and self.horizon < 1:
            raise UsageError("horizon must be >= 1")


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


def _exit_scale_chunk(k_cut: int) -> int:
    """Chunk sized to the diffusive exit time of radius k_cut."""
    return int(min(max(2048, 2 * k_cut * k_cut), 1 << 17))


def _blocks(run: WalkRun, norm: NormSpec, chunk: Optional[int] = None
            ) -> Iterator[tuple[int, np.ndarray, np.ndarray, bool]]:
    """The stepping kernel: yields (n0, cols, norms, exited) blocks.

    cols is the (d, m) int64 block of positions S_{n0}, ..., S_{n0+m-1} and
    norms their norms.  Each block draws min(chunk, steps left) increments;
    the block that reaches stop_radius is cut just after that step, comes
    with exited = True and is the last.  Otherwise the blocks end after
    horizon (or max_steps) steps.  chunk defaults to the exit-time scale of
    stop_radius, or DEFAULT_CHUNK for a run without one.
    """
    if norm.dim != run.step.dim:
        raise UsageError("norm and step distribution dimensions differ")
    if chunk is None:
        chunk = (DEFAULT_CHUNK if run.stop_radius is None
                 else _exit_scale_chunk(run.stop_radius))
    step = run.step
    draw = step._index_sampler(replica_rng(run.master_seed, run.replica_index))
    limit = run.horizon if run.horizon is not None else run.max_steps
    last = np.zeros(step.dim, dtype=np.int64)
    n_done = 0
    while n_done < limit:
        steps = np.take(step.support, draw(min(chunk, limit - n_done)), axis=0)
        steps[0] += last
        # numpy (2.4) accumulates int64 about 3x faster along a strided axis
        # than along a contiguous one, so the running sum reads the
        # row-major steps and writes the (d, m) block through its transpose.
        cols = np.empty((step.dim, len(steps)), dtype=np.int64)
        np.cumsum(steps, axis=0, out=cols.T)
        norms = norm.values(cols.T)
        exited = False
        if run.stop_radius is not None:
            over = norms >= run.stop_radius
            stop = int(over.argmax())
            if over[stop]:
                cols, norms, exited = cols[:, :stop + 1], norms[:stop + 1], True
        yield n_done + 1, cols, norms, exited
        if exited:
            return
        last = cols[:, -1]
        n_done += len(norms)


def simulate(run: WalkRun, norm: NormSpec, track_sites: bool = False,
             chunk: Optional[int] = None) -> LocalTimeRecord:
    """Generate one replica path and count its visits by level (and site).

    Runs for `horizon` steps or until ||S_n|| >= stop_radius, whichever
    comes first.  Level counts satisfy sum_k counts[k] = n_effective.
    """
    level_counts = np.zeros(64, dtype=np.int64)
    sites: Optional[dict] = {} if track_sites else None
    n_done = 0
    truncated = False

    for n0, cols, norms, truncated in _blocks(run, norm, chunk):
        top = int(norms.max(initial=0))
        if top >= len(level_counts):
            grown = np.zeros(max(top + 1, 2 * len(level_counts)), dtype=np.int64)
            grown[:len(level_counts)] = level_counts
            level_counts = grown
        level_counts += np.bincount(norms, minlength=len(level_counts))

        if sites is not None:
            uniq, cnt = np.unique(cols.T, axis=0, return_counts=True)
            for row, c in zip(map(tuple, uniq.tolist()), cnt.tolist()):
                sites[row] = sites.get(row, 0) + c
        n_done = n0 - 1 + len(norms)

    return LocalTimeRecord(level_counts=level_counts, n_effective=n_done,
                           truncated=truncated, site_counts=sites)


def truncated_f_sum(run: WalkRun, norm: NormSpec,
                    f: Callable[[np.ndarray], np.ndarray],
                    checkpoints: Sequence[int]) -> dict[int, float]:
    """Partial sums sum_{n<=N} f(||S_n||) at each checkpoint N."""
    checkpoints = check_ladder(checkpoints, "checkpoints")
    out: dict[int, float] = {}
    total = 0.0
    for n0, _, norms, _ in _blocks(replace(run, horizon=checkpoints[-1]), norm):
        vals = np.asarray(f(norms), dtype=float)
        hits = [c for c in checkpoints if n0 <= c < n0 + len(norms)]
        if hits:
            csum = np.cumsum(vals)
            for c in hits:
                out[c] = total + float(csum[c - n0])
        total += float(vals.sum())
    for c in checkpoints:  # checkpoints past an early stop hold the final sum
        out.setdefault(c, total)
    return out


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


@dataclass(frozen=True)
class LevelLocalTimeSample:
    """Replicated truncated samples of the total level-k local time."""

    k: int
    k_cut: int
    samples: np.ndarray  # int64, one per replica
    bias_bound: float    # relative, from truncation_bias_bound

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std_error(self) -> float:
        n = len(self.samples)
        return float(self.samples.std(ddof=1) / np.sqrt(n)) if n > 1 else np.inf


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


def total_level_local_time(step: StepDistribution, norm: NormSpec, k: int,
                           replicas: int, master_seed: int,
                           k_cut: Optional[int] = None) -> LevelLocalTimeSample:
    """Visit counts to norm level k before first exceeding k_cut.

    Requires d >= 3 (transient regime) and k_cut >= 2k; default k_cut = 8k.
    """
    if norm.dim < 3:
        raise UsageError("total local times require d >= 3 (transient walk)")
    if k < 1:
        raise UsageError("k must be >= 1")
    if k_cut is None:
        k_cut = 8 * k
    if k_cut < 2 * k:
        raise UsageError(f"k_cut = {k_cut} < 2k leaves the truncation bias uncontrolled")
    vals = _exit_counts(step, norm, k_cut, replicas, master_seed,
                        lambda cols, norms: int(np.count_nonzero(norms == k)))
    return LevelLocalTimeSample(k=k, k_cut=k_cut, samples=vals,
                                bias_bound=truncation_bias_bound(norm, k, k_cut))


def site_visit_samples(step: StepDistribution, norm: NormSpec,
                       x: Sequence[int], replicas: int, master_seed: int,
                       k_cut: int) -> np.ndarray:
    """Per-replica visit counts to the site x before exiting k_cut."""
    if norm.dim < 3:
        raise UsageError("total local times require d >= 3 (transient walk)")
    target = np.asarray(x, dtype=np.int64)
    if target.shape != (step.dim,):
        raise UsageError("x must be a lattice point of the walk's dimension")
    if norm.value([int(v) for v in target]) >= k_cut:
        # a site at or past the cut is never reached before the exit
        return np.zeros(replicas, dtype=np.int64)

    def visits(cols: np.ndarray, norms: np.ndarray) -> int:
        hit = cols[0] == target[0]
        for row, v in zip(cols[1:], target[1:]):
            hit &= row == v
        return int(np.count_nonzero(hit))

    return _exit_counts(step, norm, k_cut, replicas, master_seed, visits)


def default_k_cut(norm_x: int) -> int:
    """Default truncation radius for site statistics at x: max(4||x|| + 4, 16)."""
    return max(4 * norm_x + 4, 16)


def _exit_bias(step: StepDistribution, norm: NormSpec, x: Sequence[int],
               k_cut: int) -> float:
    """Estimated bias at x of a site statistic stopped at the exit of k_cut.

    The exit point lies at Euclidean distance at least
    gap = k_cut * lo - |x|_2 from x (lo the shortest Euclidean length on the
    norm's unit sphere).  The visits to x after the exit, and so the chance
    of reaching x only then, are about the Green value at that distance,
    C gap^{2-d} with C the isotropic Spitzer constant; infinite when
    gap <= 0.
    """
    from .green import spitzer_constant_isotropic  # green imports this module
    gap = k_cut * norm.euclid_range_on_unit_sphere()[0] - math.hypot(*x)
    return (spitzer_constant_isotropic(step.dim, step.sigma2) * gap ** (2 - step.dim)
            if gap > 0 else math.inf)


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
    before exiting norm-radius k_cut; default k_cut = default_k_cut(||x||).

    The estimate misses the walks that reach x only after exiting k_cut;
    ``undercovered`` is set when `_exit_bias` estimates more than the standard
    error for them.
    """
    target = tuple(int(v) for v in x)
    if k_cut is None:
        k_cut = default_k_cut(norm.value(target))
    visits = site_visit_samples(step, norm, target, replicas, master_seed,
                                k_cut=k_cut)
    hits = visits >= 1
    p = float(hits.mean())
    se = float(np.sqrt(max(p * (1 - p), 1e-12) / replicas))
    bias = _exit_bias(step, norm, target, k_cut)
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
