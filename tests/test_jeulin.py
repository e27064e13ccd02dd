import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from normwalk import jeulin
from normwalk.errors import UsageError
from normwalk.jeulin import (
    SHIGA5_UPPER,
    bernoulli_non_unifiable,
    bernoulli_scenario,
    harmonic,
    laplace_check,
    limit_jeulin_harness,
    route_a_scenario,
    sample_stable,
    shiga3_run,
    shiga3_scenario,
    shiga5_density,
    shiga5_phi_integral,
    shiga5_run,
)
from normwalk.measures import ks_statistic
from normwalk.summability import (
    PowerLaw,
    PowerLog,
    TableFunction,
    Verdict,
    decide_v,
    even_only,
    odd_only,
)
from normwalk.walk import replica_rng


class TestStableSampler:
    def test_domain_gates(self):
        rng = replica_rng(0, 0)
        with pytest.raises(UsageError):
            sample_stable(1.0, 1.0, rng)
        with pytest.raises(UsageError):
            sample_stable(0.0, 1.0, rng)
        with pytest.raises(UsageError):
            sample_stable(0.5, 0.0, rng)

    def test_strictly_positive(self):
        v = sample_stable(0.3, 1.0, replica_rng(1, 0), 200_000)
        assert (v > 0).all()

    def test_laplace_transform_grid(self):
        for alpha in (0.3, 0.5):
            rows = laplace_check(alpha, [0.5, 1.0, 2.0], draws=100_000,
                                 master_seed=8)
            assert all(abs(r["z"]) <= 3.0 for r in rows)

    def test_lambda_zero_exact(self):
        row = laplace_check(0.5, [0.0], draws=10_000, master_seed=1)[0]
        assert row["empirical"] == 1.0 and row["target"] == 1.0

    def test_negative_lambda_refused_before_drawing(self, monkeypatch):
        monkeypatch.setattr(jeulin, "sample_stable",
                            lambda *a: pytest.fail("draws were made"))
        with pytest.raises(UsageError, match="nonnegative"):
            laplace_check(0.5, [1.0, -0.5], draws=10_000)

    def test_draw_floor(self):
        with pytest.raises(UsageError):
            laplace_check(0.5, [1.0], draws=100)

    def test_scaling_law_in_distribution(self):
        # scale-t draws match t^{1/alpha} times unit draws
        alpha, t = 0.5, 3.0
        a = sample_stable(alpha, t, replica_rng(2, 0), 40_000)
        b = t ** (1 / alpha) * sample_stable(alpha, 1.0, replica_rng(2, 1),
                                             40_000)
        assert ks_statistic(a, b) < 0.015

    def test_against_scipy_parametrisation(self):
        # independent oracle: S(alpha, beta=1) with scale cos(pi a/2)^{1/a}
        alpha = 0.5
        sc = math.cos(math.pi * alpha / 2) ** (1 / alpha)
        oracle = stats.levy_stable.rvs(alpha, 1.0, loc=0.0, scale=sc,
                                       size=40_000, random_state=11)
        mine = sample_stable(alpha, 1.0, replica_rng(3, 0), 40_000)
        assert ks_statistic(oracle, mine) < 0.015


def per_term_partials(alpha, ladder, replicas, master_seed):
    """Reference: the rung partials of sum_k k^{-1/alpha} V0(k), term by term.

    Each replica draws all K_top unit stables V0(1..K_top) from its own
    stream and reads the cumulative sum at every rung.
    """
    ks = np.arange(1, ladder[-1] + 1, dtype=float)
    f = ks ** (-1.0 / alpha)
    rows = []
    for i in range(replicas):
        v0 = sample_stable(alpha, 1.0, replica_rng(master_seed, i), ladder[-1])
        csum = np.cumsum(f * v0)
        rows.append([csum[k - 1] for k in ladder])
    return np.array(rows)


def serial_map(one, replicas):
    return [one(i) for i in range(replicas)]


def rung_scales(alpha, ladder):
    """gap_j^{1/alpha}, gap_j the fsum of 1/k over rung j's own terms."""
    return np.array([math.fsum(1.0 / k for k in range(lo + 1, hi + 1))
                     ** (1.0 / alpha) for lo, hi in zip([0] + ladder, ladder)])


def per_replica_shiga3(alpha, ladder, replicas, master_seed):
    """Reference: the draw-dependent shiga3 fields, each replica's rung
    partials made by its own sample_stable call and cumulative sum."""
    scale = rung_scales(alpha, ladder)
    partials = np.array([
        np.cumsum(scale * sample_stable(alpha, 1.0, replica_rng(master_seed, i),
                                        len(ladder)))
        for i in range(replicas)])
    return {"laplace_rows": tuple(
                jeulin._laplace_row("K", k, np.exp(-partials[:, j]),
                                    math.exp(-harmonic(k)))
                for j, k in enumerate(ladder)),
            "divergence_fractions": tuple(
                float((partials[:, j] > 10.0).mean())
                for j in range(len(ladder)))}


def per_replica_shiga5(alpha, levels, replicas, master_seed, targets):
    """Reference: the draw-dependent shiga5 fields, each replica transformed,
    scaled and summed alone from two sample_stable calls (the cells', then
    the rest's)."""
    edges = [SHIGA5_UPPER * 0.5 ** j for j in range(levels + 1)]
    rho = shiga5_density(alpha)
    cell_mass = np.array([quad(rho, edges[j + 1], edges[j])[0]
                          for j in range(levels - 1)])
    cell_len = np.array([edges[j] - edges[j + 1] for j in range(levels)])
    out = []
    for i in range(replicas):
        rng = replica_rng(master_seed, i)
        incs = cell_len ** (1.0 / alpha) * sample_stable(alpha, 1.0, rng, levels)
        x_left = np.cumsum(incs[::-1])[::-1][1:]
        x_upper = incs.sum() + sample_stable(alpha, edges[levels], rng, 1)[0]
        out.append(np.append(np.cumsum(x_left * cell_mass), x_upper))
    out = np.array(out)
    rows, xs = out[:, :-1], out[:, -1]
    return {"laplace_rows": tuple(
                jeulin._laplace_row("eps", edges[j + 1], np.exp(-rows[:, j]),
                                    target)
                for j, target in enumerate(targets)),
            "partial_medians": tuple(float(np.median(rows[:, j]))
                                     for j in range(levels - 1)),
            "mean_trace": tuple(
                float(xs[:n].mean()) for n in
                np.unique(np.geomspace(10, replicas, 6).astype(int)))}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", [1, 2, 3])
class TestStackedTransform:
    # the transform, scalings and sums run once on the stacked inputs and
    # give exactly the reports of one transform per replica
    def test_shiga3(self, cpus, workers, seed):
        cpus(workers)
        rep = shiga3_run(0.4, [10, 100, 1000], 301, seed)
        want = per_replica_shiga3(0.4, [10, 100, 1000], 301, seed)
        assert {f: getattr(rep, f) for f in want} == want

    def test_shiga5(self, cpus, workers, seed):
        cpus(workers)
        rep = shiga5_run(0.4, 16, 301, seed)
        targets = [r["target"] for r in rep.laplace_rows]
        want = per_replica_shiga5(0.4, 16, 301, seed, targets)
        assert {f: getattr(rep, f) for f in want} == want


class TestShiga3:
    def test_alpha_gate(self):
        with pytest.raises(UsageError):
            shiga3_run(0.5, [10], 10, 0)
        with pytest.raises(UsageError):
            shiga3_run(0.6, [10], 10, 0)

    def test_zero_rung_rejected(self):
        # csum[k - 1] at k = 0 would read the top rung's partial sum
        with pytest.raises(UsageError):
            shiga3_run(0.4, [0, 100], 200, 1)

    def test_one_replica_refused(self, monkeypatch):
        # one replica has no standard error, so every z-score would read 0
        monkeypatch.setattr(jeulin, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        with pytest.raises(UsageError, match="replicas must be >= 2"):
            shiga3_run(0.4, [100], replicas=1, master_seed=0)

    def test_series_side_converges_under_zeta_bound(self):
        rep = shiga3_run(0.4, [100], replicas=200, master_seed=1)
        assert rep.weighted_series_partial < rep.weighted_series_bound
        assert rep.weighted_series_bound == pytest.approx(2.612, abs=0.01)

    def test_laplace_functional_exact_product(self):
        rep = shiga3_run(0.4, [100, 1000], replicas=20_000, master_seed=9)
        assert rep.laplace_rows[0]["target"] == \
            pytest.approx(math.exp(-harmonic(100)), rel=1e-12)
        assert rep.laplace_rows[0]["target"] == pytest.approx(0.00559, abs=5e-5)
        assert rep.laplace_consistent

    def test_stable_closure_matches_per_term_sums_in_law(self, monkeypatch):
        # the closure draws one stable per rung; the per-term reference draws
        # every term.  Their rung partials and the rung increment must agree
        # in law (two-sample KS, Bonferroni over the 3 tests at family level
        # 0.01), and both must meet the exact target exp(-H_K) at every rung.
        # The closure's unit draws are read off its one stacked transform.
        alpha, ladder, replicas = 0.4, [10, 50], 4000
        got = []
        transform = jeulin._kanter

        def recorded(a, u, e):
            got.append(transform(a, u, e))
            return got[-1]

        monkeypatch.setattr(jeulin, "map_replicas", serial_map)
        monkeypatch.setattr(jeulin, "_kanter", recorded)
        rep = shiga3_run(alpha, ladder, replicas, master_seed=1501)
        (units,) = got
        closure = np.cumsum(rung_scales(alpha, ladder) * units, axis=1)
        reference = per_term_partials(alpha, ladder, replicas, master_seed=1502)

        pairs = [(closure[:, j], reference[:, j]) for j in range(len(ladder))]
        pairs.append((closure[:, 1] - closure[:, 0],
                      reference[:, 1] - reference[:, 0]))
        level = 0.01 / len(pairs)
        critical = math.sqrt(-0.5 * math.log(level / 2)) \
            * math.sqrt(2.0 / replicas)
        for a, b in pairs:
            assert ks_statistic(a, b) < critical

        for j, k in enumerate(ladder):
            target = math.exp(-harmonic(k))
            assert rep.laplace_rows[j]["target"] == target
            assert abs(rep.laplace_rows[j]["z"]) <= 3.0
            w = np.exp(-reference[:, j])
            se = w.std(ddof=1) / math.sqrt(replicas)
            assert abs(w.mean() - target) <= 3.0 * se

    def test_one_draw_per_rung_and_declared_stream(self, monkeypatch):
        # each replica draws the Kanter inputs of len(ladder) unit draws from
        # stream (seed, i), and the transform runs once, on the stacked
        # inputs; draw j is scaled by gap_j^{1/alpha}, gap_j the fsum of 1/k
        # over the rung's own terms, and the scaled draws summed.  The
        # partials are those of one sample_stable call on replica_rng(seed, i)
        alpha, ladder, seed = 0.4, [100, 1000, 10_000], 7
        unit = jeulin.sample_stable
        inputs, transform = jeulin._kanter_inputs, jeulin._kanter
        sizes, shapes = [], []

        def counted_inputs(rng, size):
            sizes.append(size)
            return inputs(rng, size)

        def counted_transform(a, u, e):
            shapes.append(u.shape)
            return transform(a, u, e)

        monkeypatch.setattr(jeulin, "map_replicas", serial_map)
        monkeypatch.setattr(jeulin, "_kanter_inputs", counted_inputs)
        monkeypatch.setattr(jeulin, "_kanter", counted_transform)
        rep = shiga3_run(alpha, ladder, replicas=4, master_seed=seed)
        assert sizes == [len(ladder)] * 4
        assert shapes == [(4, len(ladder))]

        gaps = [math.fsum(1.0 / k for k in range(lo + 1, hi + 1))
                for lo, hi in zip([0] + ladder, ladder)]
        partials = np.array([
            np.cumsum([g ** (1 / alpha) * v for g, v in
                       zip(gaps, unit(alpha, 1.0, replica_rng(seed, i),
                                      len(ladder)))])
            for i in range(4)])
        rows = tuple(jeulin._laplace_row("K", k, np.exp(-partials[:, j]),
                                         math.exp(-harmonic(k)))
                     for j, k in enumerate(ladder))
        assert rep.laplace_rows == rows

    def test_divergence_fractions_increase(self):
        rep = shiga3_run(0.4, [100, 1000, 10_000], replicas=2000,
                         master_seed=4)
        assert rep.fractions_increasing
        assert rep.divergence_fractions[-1] > rep.divergence_fractions[0]


class TestShiga5:
    def test_phi_integral_closed_form_vs_quad(self):
        rep = shiga5_run(0.5, levels=10, replicas=400, master_seed=2)
        assert rep.phi_integral == pytest.approx(1 / math.log(2), rel=1e-12)
        assert rep.phi_integral_quad == pytest.approx(rep.phi_integral,
                                                      rel=1e-9)

    def test_alpha03_phi_integral(self):
        want = math.log(2.0) ** (1 - 1 / 0.3) / (1 / 0.3 - 1)
        assert shiga5_phi_integral(0.3) == pytest.approx(want, rel=1e-12)

    def test_density_shape(self):
        rho = shiga5_density(0.5)
        assert rho(0.25) == pytest.approx(0.25 ** -3 * math.log(4) ** -2)

    def test_partials_grow_and_laplace_consistent(self):
        rep = shiga5_run(0.5, levels=12, replicas=3000, master_seed=7)
        assert rep.partials_growing
        assert rep.laplace_consistent

    def test_one_row_per_rung(self):
        # the deepest cell starts at 0 and adds no rung: 6 levels, 5 rungs
        rep = shiga5_run(0.5, levels=6, replicas=200, master_seed=1)
        assert [r["eps"] for r in rep.laplace_rows] == list(rep.grid[1:6])
        assert len(rep.partial_medians) == 5
        targets = [r["target"] for r in rep.laplace_rows]
        assert len(set(targets)) == len(targets)

    def test_one_replica_refused(self, monkeypatch):
        monkeypatch.setattr(jeulin, "map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        with pytest.raises(UsageError, match="replicas must be >= 2"):
            shiga5_run(0.4, levels=8, replicas=1, master_seed=0)

    def test_heavy_tail_mean_instability(self):
        rep = shiga5_run(0.5, levels=8, replicas=4000, master_seed=5)
        trace = np.array(rep.mean_trace)
        # infinite-mean samples: prefix means swing by orders of magnitude
        assert trace.max() > 10 * trace.min()

    def test_one_replica_pass(self, monkeypatch):
        # X(upper) comes from each replica's own stream, in the same pass
        calls = []

        def counted(one, replicas):
            calls.append(replicas)
            return [one(i) for i in range(replicas)]

        monkeypatch.setattr(jeulin, "map_replicas", counted)
        rep = shiga5_run(0.5, levels=6, replicas=50, master_seed=3)
        assert calls == [50]
        assert all(m > 0 for m in rep.mean_trace)

    def test_gates(self):
        with pytest.raises(UsageError):
            shiga5_run(0.7, 10, 10, 0)
        with pytest.raises(UsageError):
            shiga5_run(0.5, 2, 10, 0)


class TestBernoulli:
    def test_exact_outputs(self):
        rep = bernoulli_non_unifiable()
        assert rep.finiteness_probability == Fraction(1, 2)
        assert rep.series_diverges
        assert any("negative control" in n for n in rep.notes)

    def test_dict_form(self):
        d = bernoulli_non_unifiable().as_dict()
        assert d["finiteness_probability"] == "1/2"
        assert d["series_diverges"] is True


class TestHarness:
    def test_route_a_contingency(self):
        sc = route_a_scenario(2.0)
        rep = limit_jeulin_harness(sc, [PowerLaw(4), PowerLaw(2.5)],
                                   [1000, 10_000], replicas=100,
                                   master_seed=3)
        assert rep.implication_respected
        by_label = {r.f_label: r for r in rep.rows}
        conv = by_label[PowerLaw(4).label]
        div = by_label[PowerLaw(2.5).label]
        assert conv.series_verdict == Verdict.CONVERGES
        assert conv.stabilized_fraction >= 0.9
        assert div.series_verdict == Verdict.DIVERGES
        assert div.stabilized_fraction <= 0.1

    def test_shiga3_exhibits_converse_failure(self):
        sc = shiga3_scenario(0.4)
        rep = limit_jeulin_harness(sc, [PowerLaw(2.5)], [100, 10_000],
                                   replicas=400, master_seed=6)
        assert rep.implication_respected
        assert rep.exhibits_converse_failure

    def test_bernoulli_route_respected(self):
        # half the paths are identically zero, yet the divergent series is
        # not a violation: P(X>0) < 1 demands almost-sure evidence
        sc = bernoulli_scenario()
        rep = limit_jeulin_harness(sc, [PowerLaw(0.0)], [100, 1000],
                                   replicas=300, master_seed=8)
        row = rep.rows[0]
        assert 0.3 <= row.stabilized_fraction <= 0.7
        assert rep.implication_respected

    def test_zero_mass_scenario_rejected(self):
        sc = route_a_scenario(1.0)
        dead = type(sc)(label="dead", phi_exponent=1.0,
                        v_sampler=sc.v_sampler, limit_positive_prob=0.0)
        with pytest.raises(UsageError):
            limit_jeulin_harness(dead, [PowerLaw(3)], [10, 100], 10, 0)

    def test_zero_replicas_refused(self):
        with pytest.raises(UsageError, match="replicas must be >= 1"):
            limit_jeulin_harness(route_a_scenario(), [PowerLaw(3)], [10, 100],
                                 replicas=0, master_seed=0)

    def test_ladder_gate(self):
        # a zero or repeated rung makes the top partial-sum difference 0,
        # so every row would read "stabilised"
        for ladder in ([100], [0, 50], [50, 50], [1, 50, 50]):
            with pytest.raises(UsageError):
                limit_jeulin_harness(route_a_scenario(), [PowerLaw(3)],
                                     ladder, 10, 0)

    def test_one_row_per_distinct_f(self):
        rep = limit_jeulin_harness(route_a_scenario(), [PowerLaw(4), PowerLaw(2.5),
                                                       PowerLaw(1 / 0.4)],
                                   [10, 100], replicas=10, master_seed=2)
        assert [r.f_label for r in rep.rows] == [PowerLaw(4).label,
                                                 PowerLaw(2.5).label]

    def test_functions_sharing_a_tail_get_their_own_rows(self):
        family = [TableFunction((1.0, 0.5), "zero"), TableFunction((0.0, 9.0), "zero"),
                  PowerLog(3, 1), PowerLog(3, 1, shift=2.0)]
        rep = limit_jeulin_harness(route_a_scenario(), family, [10, 100],
                                   replicas=10, master_seed=2)
        assert [r.f_label for r in rep.rows] == [f.label for f in family]

    def test_verdict_is_decide_v_at_phi_exponent_one(self):
        # shiga3's Phi(k) = k: sum f Phi is criterion V's series
        family = [PowerLog(3, 1), PowerLog(2, 2), PowerLog(2, 0.5),
                  TableFunction((1.0, 0.5), tail=("power", 3.0)),
                  even_only(PowerLaw(3)), odd_only(PowerLaw(1.5))]
        rep = limit_jeulin_harness(shiga3_scenario(0.4), family, [10, 100],
                                   replicas=10, master_seed=2)
        assert [r.series_verdict for r in rep.rows] == \
            [decide_v(f).verdict for f in family]
        assert rep.rows[0].series_verdict == Verdict.CONVERGES

    @pytest.mark.parametrize("phi_exponent", [0.0, 1.0, 2.0, 0.5])
    def test_power_law_verdicts_follow_the_exponent_gap(self, phi_exponent):
        # sum (1 + k)^-beta k^p converges exactly when beta - p > 1
        sc = route_a_scenario(phi_exponent)
        betas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        rep = limit_jeulin_harness(sc, [PowerLaw(b) for b in betas], [10, 100],
                                   replicas=4, master_seed=1)
        want = [Verdict.CONVERGES if b - phi_exponent > 1 else Verdict.DIVERGES
                for b in betas]
        assert [r.series_verdict for r in rep.rows] == want
