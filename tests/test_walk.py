import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from normwalk import jeulin, measures, summability, walk
from normwalk.census import census_for
from normwalk.errors import UsageError
from normwalk.norms import make_norm
from normwalk.summability import PowerLaw, PowerLog, zero_one_experiment
from normwalk.walk import (
    BLOCK_CAP,
    StepDistribution,
    WalkRun,
    _block_size,
    _blocks,
    check_a0,
    check_ladder,
    f_sums,
    geometric_tail_report,
    hitting_probability,
    lattice_point,
    level_counts,
    make_lazy_walk,
    make_simple_walk,
    map_replicas,
    replica_rng,
    replica_stream,
    simulate,
    site_visit_samples,
    truncation_bias_bound,
)

MAX3 = make_norm("max", 3)
L13 = make_norm("l1", 3)
UNIMODULAR = [[1, -1, 0], [0, 1, -1], [1, -1, 1]]
POLYA_P0 = 0.3405373  # return probability of the simple walk on Z^3


# -- reference: the row-major stepping loop the kernel replaced ---------------

def reference_simulate(run, norm, chunk):
    """(level counts, site counts, n, truncated) from an (n, d) loop."""
    draw = run.step.sampler(replica_rng(run.master_seed, run.replica_index))
    limit = run.horizon if run.horizon is not None else walk.MAX_STEPS
    levels = np.zeros(64, dtype=np.int64)
    sites = {}
    pos = np.zeros(run.step.dim, dtype=np.int64)
    n_done, truncated = 0, False
    while n_done < limit:
        m = min(chunk, limit - n_done)
        block = np.cumsum(draw(m), axis=0) + pos
        norms = np.array([norm.value(p) for p in block.tolist()], dtype=np.int64)
        stop = m
        if run.stop_radius is not None:
            over = np.nonzero(norms >= run.stop_radius)[0]
            if over.size:
                stop, truncated = int(over[0]) + 1, True
        block, norms = block[:stop], norms[:stop]
        top = int(norms.max())
        if top >= len(levels):
            levels = np.concatenate([levels, np.zeros(
                max(top + 1, 2 * len(levels)) - len(levels), dtype=np.int64)])
        levels += np.bincount(norms, minlength=len(levels))
        for row in map(tuple, block.tolist()):
            sites[row] = sites.get(row, 0) + 1
        pos = block[-1]
        n_done += stop
        if truncated:
            break
    return levels, sites, n_done, truncated


def reference_f_sum(run, norm, f, checkpoints):
    """The per-step partial sums the level-count sums replaced, one per
    sorted checkpoint: f at every step, a float cumsum per block, in the
    old 32768-step blocks."""
    out, total = {}, 0.0
    for n0, _, norms, _ in _blocks(replace(run, horizon=checkpoints[-1]), norm,
                                   1 << 15):
        vals = np.asarray(f(norms), dtype=float)
        hits = [c for c in checkpoints if n0 <= c < n0 + len(norms)]
        if hits:
            csum = np.cumsum(vals)
            for c in hits:
                out[c] = total + float(csum[c - n0])
        total += float(vals.sum())
    # checkpoints past an early stop hold the final sum
    return [out.get(c, total) for c in checkpoints]


def reference_site_visits(step, norm, x, replicas, master_seed, k_cut, chunk):
    out = []
    for i in range(replicas):
        run = WalkRun(step=step, master_seed=master_seed, replica_index=i,
                      stop_radius=k_cut)
        out.append(reference_simulate(run, norm, chunk)[1].get(tuple(x), 0))
    return np.array(out, dtype=np.int64)


class TestStepDistribution:
    def test_simple_walk_moments(self):
        sw = make_simple_walk(3)
        assert sw.sigma2 == pytest.approx(1 / 3, abs=1e-15)
        assert sw.isotropy_deviation == 0.0
        assert np.all(sw.mean == 0)

    def test_simple_walk_d5(self):
        assert make_simple_walk(5).sigma2 == pytest.approx(0.2, abs=1e-15)

    def test_d1_is_valid_but_recurrent_dimension(self):
        sw = make_simple_walk(1)
        assert check_a0(sw)  # the law itself is fine; d gates elsewhere

    def test_lazy_walk(self):
        lazy = make_lazy_walk(3)
        assert lazy.sigma2 == pytest.approx(1 / 6, abs=1e-15)
        assert check_a0(lazy)

    def test_degenerate_axis_law_fails_a0(self):
        deg = StepDistribution(dim=2,
                               support=np.array([[1, 0], [-1, 0]]),
                               probabilities=np.array([0.5, 0.5]))
        assert not check_a0(deg)

    @pytest.mark.parametrize("law, uniform", [(make_simple_walk(3), True),
                                              (make_lazy_walk(3), False)],
                             ids=["simple", "lazy"])
    def test_sampler_draws_the_index_formula(self, law, uniform):
        # uniform laws draw bounded ints, the others invert the cumulative
        # table with its last entry pinned to 1
        assert law.uniform == uniform
        rng = replica_rng(4, 2)
        if uniform:
            idx = [rng.integers(0, len(law.support), size=n) for n in (999, 37)]
        else:
            cum = np.cumsum(law.probabilities)
            cum[-1] = 1.0
            idx = [np.searchsorted(cum, rng.random(n), side="right")
                   for n in (999, 37)]
        draw = law.sampler(replica_rng(4, 2))
        for n, want in zip((999, 37), idx):
            assert draw(n).tobytes() == law.support[want].tobytes()

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(UsageError):
            StepDistribution(dim=1, support=np.array([[1], [-1]]),
                             probabilities=np.array([0.6, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_refused(self, bad):
        # a nan compares False, so it slips past the sign and sum checks
        with pytest.raises(UsageError, match="finite"):
            StepDistribution(dim=1, support=np.array([[1], [-1]]),
                             probabilities=np.array([bad, 1.0]))


ASYMMETRIC = StepDistribution(dim=2,
                              support=np.array([[1, 0], [0, 1], [-1, -2]]),
                              probabilities=np.array([0.5, 0.3, 0.2]))


class TestMoments:
    """Mean, covariance and sigma^2 are fixed at construction, read-only."""

    LAWS = [make_simple_walk(3), make_lazy_walk(3), ASYMMETRIC]

    @pytest.mark.parametrize("law", LAWS, ids=["simple", "lazy", "asymmetric"])
    def test_read_only_and_the_same_object(self, law):
        for name in ("mean", "covariance"):
            arr = getattr(law, name)
            assert arr is getattr(law, name)
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_law_arrays_are_read_only_copies(self):
        support, probs = np.array([[1], [-1]]), np.array([0.5, 0.5])
        law = StepDistribution(dim=1, support=support, probabilities=probs)
        for arr in (law.support, law.probabilities):
            with pytest.raises(ValueError):
                arr[0] = 0
        probs[0] = 0.0  # the caller's arrays stay the caller's
        assert law.probabilities.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("law", LAWS, ids=["simple", "lazy", "asymmetric"])
    def test_bit_equal_to_the_formulas(self, law):
        x = law.support.astype(float)
        mean = law.probabilities @ x
        cov = ((x - mean).T * law.probabilities) @ (x - mean)
        sigma2 = float(np.trace(cov) / law.dim)
        assert law.mean.tobytes() == mean.tobytes()
        assert law.covariance.tobytes() == cov.tobytes()
        assert law.sigma2.hex() == sigma2.hex()
        dev = float(np.abs(cov - sigma2 * np.eye(law.dim)).max())
        assert law.isotropy_deviation.hex() == dev.hex()


# per-replica results, keyed by what they count
PER_REPLICA = {
    "site_visit_samples":
        lambda n: site_visit_samples(make_simple_walk(3), MAX3, (1, 0, 0),
                                     replicas=n, master_seed=9, k_cut=12),
    "total_level_local_time":
        lambda n: measures.scaled_samples(make_simple_walk(3), MAX3, 2,
                                          replicas=n, master_seed=9).counts,
    "zero_one_experiment": lambda n: fresh_zero_one(n, [50, 200], 9),
}


def fresh_zero_one(replicas, horizons, master_seed):
    """zero_one_experiment's partials from walks run now, not kept ones."""
    summability._last_walks.clear()
    return zero_one_experiment(make_simple_walk(3), MAX3, PowerLaw(3.0),
                               replicas=replicas, horizons=horizons,
                               master_seed=master_seed).partials


class TestDeterminism:
    def test_chunk_size_invariance(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=42,
                      replica_index=7, horizon=500)
        a = simulate(run, MAX3, track_sites=True, chunk=500)
        b = simulate(run, MAX3, track_sites=True, chunk=17)
        assert a.n_effective == b.n_effective == 500
        assert np.array_equal(np.trim_zeros(a.level_counts, "b"),
                              np.trim_zeros(b.level_counts, "b"))
        assert a.site_counts == b.site_counts

    @pytest.mark.parametrize("per_replica", PER_REPLICA.values(), ids=PER_REPLICA)
    def test_replica_result_independent_of_replica_count(self, per_replica):
        # replica i's result is a function of (master_seed, i) alone; 8
        # replicas, because 3 site counts of 0 or 1 often agree by chance
        many, few = per_replica(24), per_replica(8)
        assert len(many) == 24 and len(few) == 8
        assert many[:8].tobytes() == few.tobytes()

    def test_distinct_replicas_differ(self):
        sw = make_simple_walk(3)
        runs = [simulate(WalkRun(step=sw, master_seed=3, replica_index=i,
                                 horizon=64), MAX3) for i in range(2)]
        assert not np.array_equal(runs[0].level_counts, runs[1].level_counts) \
            or runs[0].site_counts != runs[1].site_counts


WALKS = {"simple": make_simple_walk(3), "lazy": make_lazy_walk(3)}
KERNEL_NORMS = {"max": MAX3, "w1": make_norm("w1", 3),
                "scaled_max": make_norm("scaled_max", 3, factor=2),
                "l1_transformed": make_norm("l1", 3, transform=UNIMODULAR)}


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("norm", KERNEL_NORMS)
class TestKernelBitIdentity:
    """The (d, m) stepping kernel reproduces the row-major loop exactly.

    The lazy walk's non-uniform law draws through searchsorted.
    """

    @pytest.mark.parametrize("stopping", [{"stop_radius": 12},
                                          {"horizon": 3000},
                                          {"horizon": 600, "stop_radius": 14}])
    def test_simulate(self, walk, norm, stopping):
        run = WalkRun(step=WALKS[walk], master_seed=29, replica_index=3,
                      **stopping)
        derived = _block_size(run.stop_radius)
        for chunk, ref_chunk in ((17, 17), (None, derived)):
            levels, sites, n, truncated = reference_simulate(run, KERNEL_NORMS[norm],
                                                             ref_chunk)
            rec = simulate(run, KERNEL_NORMS[norm], track_sites=True, chunk=chunk)
            # one entry per level up to the highest reached
            assert np.array_equal(rec.level_counts, np.trim_zeros(levels, "b"))
            assert rec.site_counts == sites
            assert (rec.n_effective, rec.truncated) == (n, truncated)

    def test_site_visit_samples(self, walk, norm):
        step, spec = WALKS[walk], KERNEL_NORMS[norm]
        want = reference_site_visits(step, spec, (1, 0, 0), 12, 41, k_cut=10,
                                     chunk=200)
        assert want.any()
        got = site_visit_samples(step, spec, (1, 0, 0), replicas=12,
                                 master_seed=41, k_cut=10)
        assert np.array_equal(got, want)
        replayed = [simulate(WalkRun(step=step, master_seed=41, replica_index=i,
                                     stop_radius=10),
                             spec, track_sites=True, chunk=17).site((1, 0, 0))
                    for i in range(12)]
        assert got.tolist() == replayed


class TestCountingIdentities:
    def test_level_counts_sum_to_n(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=5, horizon=4096)
        rec = simulate(run, MAX3)
        assert rec.level_counts.sum() == rec.n_effective == 4096

    def test_horizon_one(self):
        rec = simulate(WalkRun(step=make_simple_walk(3), master_seed=1,
                               horizon=1), MAX3)
        assert rec.n_effective == 1
        assert rec.level_counts[1] == 1 and rec.level_counts.sum() == 1

    def test_level_equals_site_sum(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=11, horizon=2000)
        rec = simulate(run, MAX3, track_sites=True)
        by_level: dict = {}
        for site, c in rec.site_counts.items():
            k = MAX3.value(site)
            by_level[k] = by_level.get(k, 0) + c
        for k, c in enumerate(rec.level_counts):
            assert by_level.get(k, 0) == c

    def test_sum_g_along_path_equals_site_weighted(self):
        # sum_n g(S_n) = sum_x g(x) L(x), exactly, on a truncated path
        run = WalkRun(step=make_simple_walk(3), master_seed=13, horizon=1500)
        collected = []
        for _, cols, _, _ in _blocks(run, MAX3):
            collected.append(cols.T.sum(axis=1).astype(float) ** 2)
        rec = simulate(run, MAX3, track_sites=True)
        path_sum = float(np.concatenate(collected).sum())
        site_sum = sum((sum(x)) ** 2 * c for x, c in rec.site_counts.items())
        assert path_sum == pytest.approx(site_sum, rel=1e-12)

    def test_max_norm_steps_change_level_by_at_most_one(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=2, horizon=3000)
        seen = [norms for _, _, norms, _ in _blocks(run, MAX3)]
        ns = np.concatenate([[0], np.concatenate(seen)])
        assert set(np.unique(np.diff(ns))) <= {-1, 0, 1}

    def test_l1_parity(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=2, horizon=3000)
        ns = np.concatenate([norms for _, _, norms, _ in _blocks(run, L13)])
        assert np.all((ns - np.arange(1, len(ns) + 1)) % 2 == 0)


class TestStopRadius:
    def test_truncation_flag_and_final_level(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=21, stop_radius=12)
        rec = simulate(run, MAX3)
        assert rec.truncated
        assert rec.level_counts[12:].sum() == 1  # stops at first crossing

    def test_horizon_first(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=21, horizon=3,
                      stop_radius=1000)
        rec = simulate(run, MAX3)
        assert not rec.truncated and rec.n_effective == 3

    def test_need_some_stopping_rule(self):
        with pytest.raises(UsageError):
            WalkRun(step=make_simple_walk(3), master_seed=0)

    @pytest.mark.parametrize("stop_radius", [0, -5])
    def test_stop_radius_below_one_refused(self, stop_radius):
        # every step has norm >= 0, so such a run would stop at step 1
        with pytest.raises(UsageError, match="stop_radius must be >= 1"):
            WalkRun(step=make_simple_walk(3), master_seed=0,
                    stop_radius=stop_radius)


class TestTruncatedFSum:
    def test_zero_function(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=3, horizon=100)
        ps = f_sums(level_counts(run, MAX3, [10, 100]), lambda k: np.zeros(len(k)))
        assert ps.tolist() == [0.0, 0.0]

    def test_unit_function_counts_steps(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=3, horizon=100)
        ps = f_sums(level_counts(run, MAX3, [7, 64, 100]), lambda k: np.ones(len(k)))
        assert ps.tolist() == [7.0, 64.0, 100.0]

    def test_nondecreasing_for_nonnegative_f(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=8, horizon=5000)
        f = lambda k: (1.0 + k) ** -3.0
        vals = f_sums(level_counts(run, MAX3, [10, 100, 1000, 5000]), f).tolist()
        assert vals == sorted(vals)

    def test_checkpoints_across_block_boundary(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=3, horizon=10)
        cps = [3, BLOCK_CAP, BLOCK_CAP + 1]
        ps = f_sums(level_counts(run, MAX3, cps), lambda k: np.ones(len(k)))
        assert ps.tolist() == [float(c) for c in cps]

    def test_checkpoint_zero_rejected(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=3, horizon=10)
        with pytest.raises(UsageError):
            f_sums(level_counts(run, MAX3, [0, 5]), lambda k: np.ones(len(k)))


def f_of_k(k):
    return np.asarray(k, dtype=float)


def inf_at_zero(k):
    with np.errstate(divide="ignore"):
        return 1.0 / np.asarray(k, dtype=float)


class TestFSums:
    """Level-count sums against the per-step reference."""

    CHECKPOINTS = [1, 10, 4097, 50_000, 100_000]

    @pytest.mark.parametrize("f", [PowerLaw(3.0), PowerLaw(1.5), PowerLog(3.0, 1.0)],
                             ids=["powerlaw3", "powerlaw1.5", "powerlog3_1"])
    @pytest.mark.parametrize("norm", ["max", "l1_transformed"])
    def test_within_1e12_of_per_step_sums(self, f, norm):
        for i in range(3):
            run = WalkRun(step=SW3, master_seed=2024, replica_index=i,
                          horizon=100_000)
            got = f_sums(level_counts(run, KERNEL_NORMS[norm], self.CHECKPOINTS), f)
            want = reference_f_sum(run, KERNEL_NORMS[norm], f, self.CHECKPOINTS)
            assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("f", [lambda k: np.ones(len(k)), f_of_k],
                             ids=["ones", "k"])
    @pytest.mark.parametrize("stopping", [{}, {"stop_radius": 30}])
    def test_exact_for_integer_valued_f(self, f, stopping):
        run = WalkRun(step=SW3, master_seed=6, horizon=100_000, **stopping)
        got = f_sums(level_counts(run, MAX3, self.CHECKPOINTS), f)
        assert got.tolist() == reference_f_sum(run, MAX3, f, self.CHECKPOINTS)

    def test_unvisited_infinite_level_adds_nothing(self):
        # f(0) = inf on a path that never returns to the origin: 0 * inf
        # would be nan
        run = WalkRun(step=SW3, master_seed=3, replica_index=0, horizon=20_000)
        counts = level_counts(run, MAX3, [20_000])
        assert counts[0, 0] == 0 and counts[0, 1] > 0
        got = f_sums(level_counts(run, MAX3, [1000, 20_000]), inf_at_zero)
        want = reference_f_sum(run, MAX3, inf_at_zero, [1000, 20_000])
        assert np.isfinite(got).all()
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0)

    def test_rows_apart(self):
        # a row that visits an infinite level is infinite, the others not
        counts = np.array([[[0, 2, 1]], [[1, 1, 0]]])
        got = walk.f_sums(counts, inf_at_zero)
        assert got.shape == (2, 1)
        assert got[0, 0] == 2.5 and got[1, 0] == math.inf


class TestLevelCounts:
    def test_rows_are_cumulative_counts(self):
        run = WalkRun(step=SW3, master_seed=4, horizon=5000)
        rows = level_counts(run, MAX3, [5000, 1, 2048, 2049])
        norms = np.concatenate([nm for _, _, nm, _ in _blocks(run, MAX3)])
        assert rows.shape == (4, norms.max() + 1)
        for row, c in zip(rows, [1, 2048, 2049, 5000]):
            assert np.array_equal(row, np.bincount(norms[:c],
                                                   minlength=rows.shape[1]))

    def test_checkpoints_past_the_stop_hold_the_final_counts(self):
        run = WalkRun(step=SW3, master_seed=21, stop_radius=12, horizon=10)
        rows = level_counts(run, MAX3, [10, 10 ** 6])
        rec = simulate(replace(run, horizon=10 ** 6), MAX3)
        assert rec.truncated and rec.n_effective < 10 ** 6
        assert np.array_equal(rows[1], rec.level_counts)
        assert rows[0].sum() == 10

    def test_peak_memory_under_1mb(self):
        # a 1e5-step run holds one block of temporaries at a time: about
        # 0.85 MB at 8192 steps, 3.4 MB at the old 32768
        run = WalkRun(step=SW3, master_seed=3, horizon=100_000)
        level_counts(run, MAX3, [10_000, 100_000])  # warm numpy's caches
        tracemalloc.start()
        try:
            level_counts(run, MAX3, [10_000, 100_000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


BLOCK_SIZES = [17, 8192, 1 << 15]


class TestBlockRule:
    def test_rule(self):
        assert [_block_size(r) for r in (None, 1, 16, 64, 90, 91, 1000)] == \
            [BLOCK_CAP, 256, 256, 4096, 8100, BLOCK_CAP, BLOCK_CAP]

    def test_f_sums_independent_of_block_size(self, monkeypatch):
        run = WalkRun(step=SW3, master_seed=9, replica_index=3, horizon=100_000)
        f = PowerLaw(3.0)
        got = []
        for size in BLOCK_SIZES:
            monkeypatch.setattr(walk, "_block_size", lambda r, size=size: size)
            sums = f_sums(level_counts(run, MAX3, [10_000, 100_000]), f)
            got.append(fresh_zero_one(6, [1000, 20_000], 9).tobytes()
                       + sums.tobytes())
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("stop_radius", [12, 64])
    def test_counts_equal_those_at_the_old_sizes(self, stop_radius):
        # the old rule: 2^15 steps without a stop radius, else
        # 2 k_cut^2 within [2048, 2^17]
        old_exit = min(max(2048, 2 * stop_radius ** 2), 1 << 17)
        for i in range(3):
            for run, old in (
                    (WalkRun(step=SW3, master_seed=77, replica_index=i,
                             horizon=20_000), 1 << 15),
                    (WalkRun(step=SW3, master_seed=77, replica_index=i,
                             stop_radius=stop_radius), old_exit)):
                new = simulate(run, MAX3, track_sites=True)
                was = simulate(run, MAX3, track_sites=True, chunk=old)
                assert np.array_equal(new.level_counts, was.level_counts)
                assert new.site_counts == was.site_counts
                assert (new.n_effective, new.truncated) == \
                    (was.n_effective, was.truncated)
        visits = site_visit_samples(SW3, MAX3, (1, 0, 0), replicas=6,
                                    master_seed=77, k_cut=stop_radius)
        assert visits.tolist() == [
            simulate(WalkRun(step=SW3, master_seed=77, replica_index=i,
                             stop_radius=stop_radius),
                     MAX3, track_sites=True, chunk=old_exit).site((1, 0, 0))
            for i in range(6)]


class TestTotalLevelLocalTime:
    """The level-k visit counts behind measures.scaled_samples."""

    def test_samples_positive_for_max_norm(self):
        s = measures.scaled_samples(make_simple_walk(3), MAX3, k=4,
                                    replicas=64, master_seed=5)
        assert (s.counts >= 1).all()
        assert s.k_cut == 32

    def test_kcut_gate(self):
        with pytest.raises(UsageError):
            measures.scaled_samples(make_simple_walk(3), MAX3, k=10,
                                    replicas=4, master_seed=0, k_cut=15)

    def test_d2_refused(self):
        with pytest.raises(UsageError):
            measures.scaled_samples(make_simple_walk(2), make_norm("max", 2),
                                    k=3, replicas=4, master_seed=0)

    def test_doubling_kcut_within_bias_certificate(self):
        sw = make_simple_walk(3)
        a = measures.scaled_samples(sw, MAX3, k=3, replicas=600,
                                    master_seed=17, k_cut=24).counts
        b = measures.scaled_samples(sw, MAX3, k=3, replicas=600,
                                    master_seed=18, k_cut=48).counts
        se_a, se_b = (c.std(ddof=1) / np.sqrt(len(c)) for c in (a, b))
        gap = abs(b.mean() - a.mean())
        allowance = truncation_bias_bound(MAX3, 3, 24) * b.mean() + 3 * (se_a + se_b)
        assert gap <= allowance

    def test_counts_span_blocks(self):
        # exits past the first derived block still count every visit once
        sw, k, k_cut = make_simple_walk(3), 20, 48
        got = measures.scaled_samples(sw, MAX3, k=k, replicas=12,
                                      master_seed=41, k_cut=k_cut)
        recs = [simulate(WalkRun(step=sw, master_seed=41, replica_index=i,
                                 stop_radius=k_cut), MAX3, chunk=17)
                for i in range(12)]
        assert got.counts.tolist() == [int(rec.level_counts[k]) for rec in recs]
        assert max(rec.n_effective for rec in recs) > _block_size(k_cut)

    def test_bias_bound_formula(self):
        assert truncation_bias_bound(MAX3, 10, 80) == \
            pytest.approx((10 * np.sqrt(3)) / 80, rel=1e-12)

    def test_walk_that_never_exits_refused(self, monkeypatch):
        # a step budget far below the exit time of k_cut 32
        monkeypatch.setattr(walk, "MAX_STEPS", 10)
        with pytest.raises(UsageError, match="failed to exit"):
            measures.scaled_samples(make_simple_walk(3), MAX3, k=4,
                                    replicas=2, master_seed=5)


class TestHitting:
    def test_symmetry_p_x_equals_p_minus_x(self):
        sw = make_simple_walk(3)
        a = hitting_probability(sw, MAX3, (2, 1, 0), replicas=3000,
                                master_seed=23, k_cut=24)
        b = hitting_probability(sw, MAX3, (-2, -1, 0), replicas=3000,
                                master_seed=24, k_cut=24)
        assert abs(a.p_hat - b.p_hat) <= 3 * (a.std_error + b.std_error)

    def test_monotone_decay_along_ray(self):
        sw = make_simple_walk(3)
        ests = [hitting_probability(sw, MAX3, (r, 0, 0), replicas=2500,
                                    master_seed=31 + r, k_cut=40).p_hat
                for r in (1, 3, 6)]
        assert ests[0] > ests[1] > ests[2]

    def test_far_site_never_hit_before_exit(self):
        sw = make_simple_walk(3)
        v = site_visit_samples(sw, MAX3, (50, 0, 0), replicas=50,
                               master_seed=2, k_cut=20)
        assert (v == 0).all()

    def test_origin_default_k_cut_flags_its_bias(self):
        est = hitting_probability(make_simple_walk(3), MAX3, (0, 0, 0),
                                  replicas=4000, master_seed=5)
        assert est.k_cut == 16
        # exit bias estimate C / k_cut, C = 3 / (2 pi) for sigma^2 = 1/3
        bias = 3 / (2 * np.pi) / est.k_cut
        assert bias > est.std_error and est.undercovered
        assert abs(est.p_hat - POLYA_P0) <= 3 * est.std_error + bias

    def test_one_replica_refused(self, monkeypatch):
        # one replica's p_hat is 0 or 1, whose binomial standard error is 0
        monkeypatch.setattr(walk, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        with pytest.raises(UsageError, match="replicas must be >= 2"):
            hitting_probability(make_simple_walk(3), MAX3, (1, 0, 0),
                                replicas=1, master_seed=0)

    @pytest.mark.parametrize("x, k_cut, flagged", [
        ((1, 0, 0), 64, False),   # C / 63 = 0.0076 < std_error ~ 0.021
        ((20, 0, 0), 16, True),   # x past the cut: the bias is unbounded
    ])
    def test_undercovered_compares_bias_with_std_error(self, x, k_cut, flagged):
        est = hitting_probability(make_simple_walk(3), MAX3, x, replicas=500,
                                  master_seed=5, k_cut=k_cut)
        assert est.undercovered is flagged

    def test_geometric_tail_ratios_near_p0(self):
        sw = make_simple_walk(3)
        v = site_visit_samples(sw, MAX3, (1, 0, 0), replicas=8000,
                               master_seed=37, k_cut=40)
        rows = geometric_tail_report(v, n_max=3)
        assert rows[0]["tail"] == pytest.approx(0.3405, abs=0.025)
        for row in rows:
            if row["count"] >= 100:
                assert row["ratio"] == pytest.approx(0.3405,
                                                     abs=4 * row["ratio_se"] + 0.02)


def test_replica_rng_streams_are_stable():
    a = replica_rng(123, 4).integers(0, 6, 8).tolist()
    b = replica_rng(123, 4).integers(0, 6, 8).tolist()
    c = replica_rng(123, 5).integers(0, 6, 8).tolist()
    assert a == b and a != c
    with pytest.raises(UsageError):
        replica_rng(-1, 0)


@pytest.mark.parametrize("key", [(2 ** 64, 0), (0, 2 ** 64), (-1, 0)])
def test_keys_outside_64_bits_refused(key):
    for stream in (replica_rng, replica_stream):
        with pytest.raises(UsageError, match=r"below 2\^64"):
            stream(*key)
    assert replica_rng(2 ** 64 - 1, 2 ** 64 - 1).random() < 1.0


def drawn(rng):
    """Bounded ints, doubles, uniforms and exponentials, in that order."""
    return (rng.integers(0, 6, 7).tolist(), rng.random(5).tolist(),
            rng.uniform(0.0, math.pi, 3).tolist(),
            rng.standard_exponential(9).tolist())


def exit_walks(replicas):
    return site_visit_samples(make_simple_walk(3), MAX3, (1, 0, 0),
                              replicas=replicas, master_seed=3, k_cut=8)


class TestReplicaStream:
    @pytest.mark.parametrize("key", [(0, 0), (7, 3), (2 ** 64 - 1, 12345)])
    def test_equals_a_fresh_philox(self, key):
        want = drawn(Generator(Philox(key=np.array(key, dtype=np.uint64))))
        assert drawn(replica_rng(*key)) == want
        # the pair the next lease gets back holds a half-used uint32 from an
        # odd count of bounded ints, and a partly used Philox buffer
        with replica_stream(1, 2) as used:
            used.integers(0, 6, 3)
            state = used.bit_generator.state
        assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
        with replica_stream(*key) as rng:
            assert rng is used
            assert drawn(rng) == want

    def test_blocks_in_lockstep_keep_their_own_paths(self):
        runs = [WalkRun(step=make_lazy_walk(3), master_seed=5, replica_index=i,
                        horizon=3000) for i in (0, 1)]
        alone = [[cols.tobytes() for _, cols, _, _ in _blocks(r, MAX3, 256)]
                 for r in runs]
        assert alone[0] != alone[1]
        both = zip(_blocks(runs[0], MAX3, 256), _blocks(runs[1], MAX3, 256))
        assert [list(p) for p in zip(*[(a[1].tobytes(), b[1].tobytes())
                                       for a, b in both])] == alone

    def test_nested_map_replicas(self, cpus):
        cpus(2)

        def inner(j):
            with replica_stream(8, j) as rng:
                return rng.random(2).tolist()

        def one(i):
            with replica_stream(7, i) as rng:
                return rng.random(2).tolist(), map_replicas(inner, 3), \
                    rng.random(2).tolist()

        def fresh(i):
            rng = replica_rng(7, i)
            return rng.random(2).tolist(), \
                [replica_rng(8, j).random(2).tolist() for j in range(3)], \
                rng.random(2).tolist()

        assert map_replicas(one, 4) == [fresh(i) for i in range(4)]
        no_child_left()

    def test_threads_never_share_a_stream(self):
        # more threads than cores, switching often: a pair handed to two
        # live leases would interleave their draws
        def lease(t, out):
            for i in range(100):
                with replica_stream(t, i) as rng:
                    out.append(rng.random(3).tolist() + rng.random(3).tolist())

        results = [[] for _ in range(6)]
        threads = [threading.Thread(target=lease, args=(t, results[t]))
                   for t in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == [[replica_rng(t, i).random(6).tolist()
                            for i in range(100)] for t in range(6)]

    def test_error_inside_a_lease_returns_it(self):
        with pytest.raises(KeyError):
            with replica_stream(1, 1) as leased:
                raise KeyError(1)
        with replica_stream(2, 2) as rng:
            assert rng is leased
            assert drawn(rng) == drawn(replica_rng(2, 2))

    @pytest.mark.parametrize("loop", [
        lambda n: jeulin.shiga3_run(0.4, [10, 100], n, 11), exit_walks],
        ids=["shiga3", "exit_walks"])
    def test_serial_loop_builds_at_most_one_philox(self, cpus, monkeypatch,
                                                    loop):
        cpus(1)
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return Philox(*args, **kwargs)

        monkeypatch.setattr(walk, "Philox", counted)
        loop(50)
        assert len(built) <= 1


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def draws(i):
    return os.getpid(), i, replica_rng(5, i).random(3).tolist()


class TestMapReplicas:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("replicas", [0, 1, 2, 7])
    def test_equals_serial_list(self, cpus, workers, replicas):
        cpus(workers)
        got = map_replicas(draws, replicas)
        assert [r[1:] for r in got] == [draws(i)[1:] for i in range(replicas)]
        # one process per range, the caller running the first
        pids = [r[0] for r in got]
        assert len(set(pids)) == min(workers, replicas)
        assert pids[:1] in ([], [os.getpid()])
        no_child_left()

    @pytest.mark.parametrize("per_replica", PER_REPLICA.values(), ids=PER_REPLICA)
    def test_estimators_independent_of_cpu_count(self, cpus, per_replica):
        cpus(1)
        serial = per_replica(8)
        cpus(3)
        assert per_replica(8).tobytes() == serial.tobytes()

    @pytest.mark.parametrize("bad", [1, 5], ids=["caller_range", "child_range"])
    def test_error_reaches_caller(self, cpus, bad):
        cpus(3)  # ranges 0..1, 2..3, 4..5

        def one(i):
            if i == bad:
                raise UsageError(f"replica {i} refused")
            return i

        with pytest.raises(UsageError, match=f"^replica {bad} refused$"):
            map_replicas(one, 6)
        no_child_left()

    def test_child_dying_without_result(self, cpus):
        cpus(2)

        def one(i):
            if i == 3:
                os._exit(3)
            return i

        with pytest.raises(RuntimeError, match="replicas 2..3 ended without a readable result"):
            map_replicas(one, 4)
        no_child_left()

    def test_nested_call_runs_serially(self, cpus):
        cpus(2)
        got = map_replicas(lambda i: (os.getpid(), map_replicas(
            lambda j: os.getpid(), 3)), 2)
        assert got[0][0] != got[1][0]
        assert all(inner == [pid] * 3 for pid, inner in got)
        no_child_left()


# -- ladders: one rule for every function that takes one ----------------------

SW3 = make_simple_walk(3)

# each computation run on a ladder, keyed by what it computes, with every
# other argument valid
LADDER_TAKERS = {
    "truncated_f_sum": lambda ladder: f_sums(level_counts(
        WalkRun(step=SW3, master_seed=0, horizon=10), MAX3, ladder), PowerLaw(3)),
    "zero_one_experiment": lambda ladder: zero_one_experiment(
        SW3, MAX3, PowerLaw(3), 4, ladder, 0),
    "expectation_vs_criterion": lambda ladder: summability.expectation_vs_criterion(
        SW3, MAX3, PowerLaw(4), census_for(MAX3, 16), 4, ladder, 0),
    "shiga3_run": lambda ladder: jeulin.shiga3_run(0.4, ladder, 4, 0),
    "limit_jeulin_harness": lambda ladder: jeulin.limit_jeulin_harness(
        jeulin.route_a_scenario(), [PowerLaw(3)], ladder, 4, 0),
    "weak_convergence_report": lambda ladder: measures.weak_convergence_report(
        MAX3, {"one": lambda p: np.ones(len(p))}, ladder),
    "invariance_surrogate": lambda ladder: measures.invariance_surrogate(
        SW3, MAX3, ladder, 4, 0),
}


# each function that takes a replica count, with every other argument valid
REPLICA_TAKERS = {
    "zero_one_experiment": lambda n: zero_one_experiment(
        SW3, MAX3, PowerLaw(3), n, [10, 100], 0),
    "scaled_samples": lambda n: measures.scaled_samples(SW3, MAX3, 2, n, 0),
    "site_visit_samples": lambda n: site_visit_samples(
        SW3, MAX3, (1, 0, 0), n, 0, k_cut=8),
    # a site past the cut is answered without walking
    "site_visit_samples_past_cut": lambda n: site_visit_samples(
        SW3, MAX3, (9, 0, 0), n, 0, k_cut=8),
}


@pytest.mark.parametrize("replicas", [0, -1])
@pytest.mark.parametrize("take", REPLICA_TAKERS.values(), ids=REPLICA_TAKERS)
def test_no_replicas_refused_before_any_replica(monkeypatch, take, replicas):
    def unreachable(*args, **kwargs):
        raise AssertionError("a replica ran without a replica count")

    for module in (walk, summability):
        monkeypatch.setattr(module, "map_replicas", unreachable)
    monkeypatch.setattr(walk, "_blocks", unreachable)
    with pytest.raises(UsageError, match="replicas must be >= 1"):
        take(replicas)


class TestCheckLadder:
    def test_sorted_ints(self):
        assert check_ladder([1e5, 1e4], "horizons", rungs=2) == [10_000, 100_000]
        got = check_ladder(np.array([40, 10, 20]), "k ladder levels")
        assert got == [10, 20, 40] and all(type(k) is int for k in got)

    @pytest.mark.parametrize("ladder", [[], [0, 10], [-3, 10], [10, 10],
                                        [10, 20, 20], [10, 20.5], [float("nan")],
                                        [float("inf")], [None], ["10"]])
    def test_refused(self, ladder):
        with pytest.raises(UsageError, match="horizons must be .* distinct"):
            check_ladder(ladder, "horizons")

    def test_too_few_rungs(self):
        assert check_ladder([10], "horizons") == [10]
        with pytest.raises(UsageError, match="2 or more distinct"):
            check_ladder([10], "horizons", rungs=2)

    @pytest.mark.parametrize("ladder", [[], [0, 10, 20], [10, 20, 20], [10, 20.5]],
                             ids=["empty", "zero", "repeated", "fraction"])
    @pytest.mark.parametrize("take", LADDER_TAKERS.values(), ids=LADDER_TAKERS)
    def test_refused_before_any_replica(self, monkeypatch, take, ladder):
        def unreachable(*args, **kwargs):
            raise AssertionError("a replica ran on an invalid ladder")

        for module in (walk, summability, jeulin):
            monkeypatch.setattr(module, "map_replicas", unreachable)
        monkeypatch.setattr(walk, "_blocks", unreachable)
        monkeypatch.setattr(measures, "sphere_measure", unreachable)
        with pytest.raises(UsageError, match="distinct"):
            take(ladder)


# -- lattice points and transience: one rule each ----------------------------


class TestLatticePoint:
    def test_integral_coordinates_count(self):
        got = lattice_point((np.int64(2), 1.0, -3), 3)
        assert got == (2, 1, -3) and all(type(v) is int for v in got)
        assert lattice_point(np.array([0, 4]), 2) == (0, 4)

    @pytest.mark.parametrize("x", [(1.5, 0, 0), (1, 0), (1, 0, 0, 0),
                                   (float("nan"), 0, 0), (float("inf"), 0, 0),
                                   (None, 0, 0), ("1", 0, 0)])
    def test_refused(self, x):
        with pytest.raises(UsageError, match="lattice point of dimension 3"):
            lattice_point(x, 3)


# each transient-only computation, keyed by what it computes, on a d = 2
# walk, with every other argument valid
SW2, MAX2 = make_simple_walk(2), make_norm("max", 2)
TRANSIENT_ONLY = {
    "total_level_local_time": lambda: measures.scaled_samples(SW2, MAX2, 2, 4, 0),
    "site_visit_samples": lambda: site_visit_samples(SW2, MAX2, (1, 0), 4, 0, k_cut=8),
    "hitting_probability": lambda: hitting_probability(SW2, MAX2, (1, 0), 4, 0),
    "zero_one_experiment": lambda: zero_one_experiment(
        SW2, MAX2, PowerLaw(3), 4, [10, 100], 0),
    "spitzer_constant_isotropic": lambda: walk.spitzer_constant_isotropic(2, 0.5),
}


@pytest.mark.parametrize("take", TRANSIENT_ONLY.values(), ids=TRANSIENT_ONLY)
def test_recurrent_refused_before_any_replica(monkeypatch, take):
    def unreachable(*args, **kwargs):
        raise AssertionError("a replica ran on a recurrent walk")

    for module in (walk, summability):
        monkeypatch.setattr(module, "map_replicas", unreachable)
    with pytest.raises(UsageError, match="d = 2 walks are recurrent"):
        take()
