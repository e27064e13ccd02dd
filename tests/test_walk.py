import os

import numpy as np
import pytest

from normwalk import jeulin, measures, summability, walk
from normwalk.census import census_for
from normwalk.errors import UsageError
from normwalk.norms import make_norm
from normwalk.summability import PowerLaw, zero_one_experiment
from normwalk.walk import (
    DEFAULT_CHUNK,
    StepDistribution,
    WalkRun,
    _blocks,
    _exit_scale_chunk,
    check_a0,
    check_ladder,
    geometric_tail_report,
    hitting_probability,
    make_lazy_walk,
    make_simple_walk,
    map_replicas,
    replica_rng,
    simulate,
    site_visit_samples,
    total_level_local_time,
    truncated_f_sum,
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
    limit = run.horizon if run.horizon is not None else run.max_steps
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
        assert check_a0(sw, 0.0)  # the law itself is fine; d gates elsewhere

    def test_lazy_walk(self):
        lazy = make_lazy_walk(3)
        assert lazy.sigma2 == pytest.approx(1 / 6, abs=1e-15)
        assert check_a0(lazy, 1e-12)

    def test_degenerate_axis_law_fails_a0(self):
        deg = StepDistribution(dim=2,
                               support=np.array([[1, 0], [-1, 0]]),
                               probabilities=np.array([0.5, 0.5]))
        assert not check_a0(deg, 1e-9)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(UsageError):
            StepDistribution(dim=1, support=np.array([[1], [-1]]),
                             probabilities=np.array([0.6, 0.6]))


PER_REPLICA = {
    "site_visit_samples":
        lambda n: site_visit_samples(make_simple_walk(3), MAX3, (1, 0, 0),
                                     replicas=n, master_seed=9, k_cut=12),
    "total_level_local_time":
        lambda n: total_level_local_time(make_simple_walk(3), MAX3, 2,
                                         replicas=n, master_seed=9).samples,
    "zero_one_experiment":
        lambda n: zero_one_experiment(make_simple_walk(3), MAX3, PowerLaw(3.0),
                                      replicas=n, horizons=[50, 200],
                                      master_seed=9).partials,
}


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
        derived = (DEFAULT_CHUNK if run.stop_radius is None
                   else _exit_scale_chunk(run.stop_radius))
        for chunk, ref_chunk in ((17, 17), (None, derived)):
            levels, sites, n, truncated = reference_simulate(run, KERNEL_NORMS[norm],
                                                             ref_chunk)
            rec = simulate(run, KERNEL_NORMS[norm], track_sites=True, chunk=chunk)
            assert np.array_equal(rec.level_counts, levels)
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


class TestTruncatedFSum:
    def test_zero_function(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=3, horizon=100)
        ps = truncated_f_sum(run, MAX3, lambda k: np.zeros(len(k)), [10, 100])
        assert ps == {10: 0.0, 100: 0.0}

    def test_unit_function_counts_steps(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=3, horizon=100)
        ps = truncated_f_sum(run, MAX3, lambda k: np.ones(len(k)), [7, 64, 100])
        assert ps == {7: 7.0, 64: 64.0, 100: 100.0}

    def test_nondecreasing_for_nonnegative_f(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=8, horizon=5000)
        f = lambda k: (1.0 + k) ** -3.0
        ps = truncated_f_sum(run, MAX3, f, [10, 100, 1000, 5000])
        vals = [ps[c] for c in (10, 100, 1000, 5000)]
        assert vals == sorted(vals)

    def test_checkpoints_across_block_boundary(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=3, horizon=10)
        cps = [3, DEFAULT_CHUNK, DEFAULT_CHUNK + 1]
        ps = truncated_f_sum(run, MAX3, lambda k: np.ones(len(k)), cps)
        assert ps == {c: float(c) for c in cps}

    def test_checkpoint_zero_rejected(self):
        run = WalkRun(step=make_simple_walk(3), master_seed=3, horizon=10)
        with pytest.raises(UsageError):
            truncated_f_sum(run, MAX3, lambda k: np.ones(len(k)), [0, 5])


class TestTotalLevelLocalTime:
    def test_samples_positive_for_max_norm(self):
        s = total_level_local_time(make_simple_walk(3), MAX3, k=4,
                                   replicas=64, master_seed=5)
        assert (s.samples >= 1).all()
        assert s.k_cut == 32

    def test_kcut_gate(self):
        with pytest.raises(UsageError):
            total_level_local_time(make_simple_walk(3), MAX3, k=10,
                                   replicas=4, master_seed=0, k_cut=15)

    def test_d2_refused(self):
        with pytest.raises(UsageError):
            total_level_local_time(make_simple_walk(2), make_norm("max", 2),
                                   k=3, replicas=4, master_seed=0)

    def test_doubling_kcut_within_bias_certificate(self):
        sw = make_simple_walk(3)
        a = total_level_local_time(sw, MAX3, k=3, replicas=600, master_seed=17,
                                   k_cut=24)
        b = total_level_local_time(sw, MAX3, k=3, replicas=600, master_seed=18,
                                   k_cut=48)
        gap = abs(b.mean - a.mean)
        allowance = a.bias_bound * b.mean + 3 * (a.std_error + b.std_error)
        assert gap <= allowance

    def test_counts_span_blocks(self):
        # exits past the first derived block still count every visit once
        sw, k, k_cut = make_simple_walk(3), 20, 48
        got = total_level_local_time(sw, MAX3, k=k, replicas=12, master_seed=41,
                                     k_cut=k_cut)
        recs = [simulate(WalkRun(step=sw, master_seed=41, replica_index=i,
                                 stop_radius=k_cut), MAX3, chunk=17)
                for i in range(12)]
        assert got.samples.tolist() == [int(rec.level_counts[k]) for rec in recs]
        assert max(rec.n_effective for rec in recs) > _exit_scale_chunk(k_cut)

    def test_bias_bound_formula(self):
        assert truncation_bias_bound(MAX3, 10, 80) == \
            pytest.approx((10 * np.sqrt(3)) / 80, rel=1e-12)


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


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count map_replicas sees, without touching the real mask."""
    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_count


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

# each function run on a ladder, with every other argument valid
LADDER_TAKERS = {
    "truncated_f_sum": lambda ladder: truncated_f_sum(
        WalkRun(step=SW3, master_seed=0, horizon=10), MAX3, PowerLaw(3), ladder),
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
