"""Acceptance gate: one test per criterion, fixed seeds, pinned tolerances.

Run with `pytest tests/test_acceptance.py -v` (add -s for the PASS lines).
Budgets are far below the stated ceilings on commodity hardware.
"""

import math
import time

import pytest

from normwalk.census import (
    asymptotic_constant,
    census_for,
    count_bruteforce,
    count_max_closed,
    gf_residual_l1,
)
from normwalk.green import GreenField, green_mc, green_vs_hitting
from normwalk.jeulin import bernoulli_non_unifiable, harmonic, laplace_check, shiga3_run
from normwalk.measures import (
    distributional_cauchy,
    mu_surface_integral_max,
    scaled_samples,
    sphere_measure,
)
from normwalk.norms import make_norm
from normwalk.summability import (
    PowerLaw,
    PowerLog,
    Verdict,
    decide_even_v,
    decide_iv,
    decide_v,
    odd_only,
    zero_one_experiment,
)
from normwalk.walk import hitting_probability, make_simple_walk, site_visit_samples

UNIMODULAR = [[1, -1, 0], [0, 1, -1], [1, -1, 1]]
MAX3 = make_norm("max", 3)
SW3 = make_simple_walk(3)


def ok(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def test_01_census_oracle_equivalence():
    t0 = time.time()
    specs = [make_norm(fam, d) for d in (2, 3, 4) for fam in ("max", "l1", "w1")]
    specs.append(make_norm("l1", 3, transform=UNIMODULAR))
    for spec in specs:
        fast = census_for(spec, 15)
        brute = count_bruteforce(spec, 15)
        assert fast.counts == brute.counts, spec.describe()
    elapsed = time.time() - t0
    assert elapsed < 60.0
    ok("1 census-oracle-equivalence", f"({len(specs)} specs, {elapsed:.1f}s)")


def test_02_paper_closed_forms():
    assert count_max_closed(3, 1) == 26
    assert count_max_closed(3, 2) == 98
    w2 = census_for(make_norm("w1", 2), 20)
    assert all(w2[k] == 2 * k for k in range(1, 21))
    w3 = census_for(make_norm("w1", 3), 4)
    assert w3[3] == 8 and w3[4] == 12
    ok("2 closed-forms")


def test_03_generating_function():
    residual = gf_residual_l1(3, 0.5, 200)
    assert residual < 1e-6
    ok("3 generating-function", f"(residual {residual:.2e} against 27)")


def test_04_census_asymptotics():
    k = 500
    for family, c in (("max", 24), ("l1", 4)):
        n_k = census_for(make_norm(family, 3), k)[k]
        assert abs(n_k / (c * k ** 2) - 1) <= 1e-3, family
    a3 = float(asymptotic_constant("w1", 3))
    assert a3 == pytest.approx(2 / 3)
    n_k = census_for(make_norm("w1", 3), k)[k]
    assert abs(n_k / (a3 * k ** 2) - 1) <= 0.05
    ok("4 asymptotic-constants")


def test_05_spitzer_dp():
    t0 = time.time()
    field = GreenField(SW3, n_max=3000, box_radius=44)
    const = 3 / (2 * math.pi)
    worst = 0.0
    n_pts = 0
    for x1 in range(-6, 7):
        for x2 in range(-6, 7):
            for x3 in range(-6, 7):
                r2 = x1 * x1 + x2 * x2 + x3 * x3
                if not 9 <= r2 <= 36:
                    continue
                g = field.green((x1, x2, x3)).value
                dev = abs(math.sqrt(r2) * g / const - 1)
                worst = max(worst, dev)
                n_pts += 1
    elapsed = time.time() - t0
    assert worst <= 0.10, worst
    assert elapsed < 300.0
    ok("5 spitzer-dp", f"({n_pts} points, worst dev {worst:.3f}, {elapsed:.0f}s)")


def test_06_hitting_identities():
    k_cut, n_rep = 64, 20_000
    p0 = hitting_probability(SW3, MAX3, (0, 0, 0), replicas=n_rep,
                             master_seed=6003, k_cut=k_cut)
    for x, seed_g, seed_p in (((1, 0, 0), 6001, 6002),
                              ((2, 1, 0), 6004, 6005)):
        g = green_mc(SW3, MAX3, x, replicas=n_rep, master_seed=seed_g,
                     k_cut=k_cut)
        px = hitting_probability(SW3, MAX3, x, replicas=n_rep,
                                 master_seed=seed_p, k_cut=k_cut)
        rep = green_vs_hitting(g.value, g.error_bound / 3,
                               px.p_hat, px.std_error,
                               p0.p_hat, p0.std_error)
        assert rep.passed, (x, rep)

    visits = site_visit_samples(SW3, MAX3, (1, 0, 0), replicas=n_rep,
                                master_seed=6006, k_cut=k_cut)
    from normwalk.walk import geometric_tail_report
    rows = geometric_tail_report(visits, n_max=4)
    for row in rows:
        band = 3 * (row["ratio_se"] + p0.std_error)
        assert abs(row["ratio"] - p0.p_hat) <= band, row
    ok("6 hitting-identities",
       f"(p0 = {p0.p_hat:.4f}, tails n<=4 within 3 sigma)")


def test_07_zero_one_dichotomy():
    t0 = time.time()
    seed = 2024
    horizons = [10 ** 4, 10 ** 5]
    conv = zero_one_experiment(SW3, MAX3, PowerLaw(3), replicas=200,
                               horizons=horizons, master_seed=seed)
    div = zero_one_experiment(SW3, MAX3, PowerLaw(1.5), replicas=200,
                              horizons=horizons, master_seed=seed)
    assert conv.stabilized_fraction >= 0.95, conv.stabilized_fraction
    assert div.stabilized_fraction <= 0.05, div.stabilized_fraction
    # no battery member with a definite verdict lands in [0.2, 0.8]
    fractions = {"powerlaw(3)": conv.stabilized_fraction,
                 "powerlaw(1.5)": div.stabilized_fraction}
    for f in (PowerLaw(0.5), PowerLaw(1.0), PowerLaw(2.5), PowerLaw(4.0),
              PowerLog(3.0, 1.0)):
        rep = zero_one_experiment(SW3, MAX3, f, replicas=200,
                                  horizons=horizons, master_seed=seed)
        assert rep.criterion_v != Verdict.UNDECIDABLE
        fractions[f.label] = rep.stabilized_fraction
    for label, frac in fractions.items():
        assert not (0.2 <= frac <= 0.8), (label, frac)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    ok("7 zero-one-dichotomy",
       f"(conv {conv.stabilized_fraction:.3f}, div {div.stabilized_fraction:.3f}, "
       f"{elapsed:.0f}s)")


def test_08_criterion_equivalence_battery():
    battery = ([PowerLaw(b) for b in (0.5, 1.0, 1.5, 2.0, 2.2, 2.5, 3.0, 4.0, 5.0)]
               + [PowerLaw(b, shift=2.0) for b in (1.5, 2.0, 3.0)]
               + [PowerLog(2.0, 2.0), PowerLog(2.0, 1.0), PowerLog(2.0, 0.5),
                  PowerLog(3.0, 1.0), PowerLog(1.5, 2.0), PowerLog(2.5, -1.0),
                  odd_only(PowerLaw(1.5)), odd_only(PowerLaw(3.0))])
    assert len(battery) == 20
    for family in ("max", "l1", "w1"):
        cen = census_for(make_norm(family, 3), 40)
        for f in battery:
            assert decide_iv(f, cen).verdict == decide_v(f).verdict, \
                (family, f.label)
    # strictness on the doubled max norm: odd-supported f
    f_odd = odd_only(PowerLaw(0.0))
    assert decide_even_v(f_odd).verdict == Verdict.CONVERGES
    assert decide_v(f_odd).verdict == Verdict.DIVERGES
    cen2 = census_for(make_norm("scaled_max", 3, factor=2), 40)
    assert decide_iv(f_odd, cen2).verdict == Verdict.CONVERGES
    ok("8 criterion-equivalence", "(20 functions x 3 censuses + parity strictness)")


def test_09_weak_convergence():
    sq = lambda p: p[:, 0] ** 2
    ref = mu_surface_integral_max(3, sq)
    assert ref == pytest.approx(5 / 9, abs=1e-12)
    d100 = abs(sphere_measure(MAX3, 100).integral(sq) - 5 / 9)
    d10 = abs(sphere_measure(MAX3, 10).integral(sq) - 5 / 9)
    assert d100 <= 0.01
    assert d100 < d10
    ok("9 weak-convergence", f"(disc@100 {d100:.2e} < disc@10 {d10:.2e})")


def test_10_invariance_surrogate():
    t0 = time.time()
    samples = {}
    for j, k in enumerate((10, 20, 40)):
        samples[k] = scaled_samples(SW3, MAX3, k, replicas=500,
                                    master_seed=1000 + 7919 * j)
        assert samples[k].zero_fraction == 0.0, k
    ks_small = distributional_cauchy(samples[10].samples, samples[20].samples,
                                     seed=10)
    ks_big = distributional_cauchy(samples[20].samples, samples[40].samples,
                                   seed=20)
    band = math.hypot(ks_small.noise_band, ks_big.noise_band)
    assert ks_big.statistic <= ks_small.statistic + band, (ks_small, ks_big)
    means = [samples[k].mean for k in (10, 20, 40)]
    assert max(means) <= 2.0 * min(means), means
    elapsed = time.time() - t0
    assert elapsed < 900.0
    ok("10 invariance-surrogate",
       f"(KS {ks_small.statistic:.3f} -> {ks_big.statistic:.3f}, "
       f"means {[round(m, 3) for m in means]}, {elapsed:.0f}s)")


def test_11_jeulin_shiga():
    for alpha in (0.3, 0.5):
        rows = laplace_check(alpha, [0.5, 1.0, 2.0], draws=10 ** 5,
                             master_seed=1100 + int(alpha * 10))
        assert all(abs(r["z"]) <= 3.0 for r in rows), (alpha, rows)

    rep = shiga3_run(0.4, [100, 1000, 10_000], replicas=20_000,
                     master_seed=1111, threshold=10.0)
    row100 = rep.laplace_rows[0]
    assert row100["target"] == pytest.approx(math.exp(-harmonic(100)), rel=1e-12)
    assert row100["target"] == pytest.approx(0.00559, abs=5e-5)
    assert abs(row100["z"]) <= 3.0, row100
    fr = rep.divergence_fractions
    assert fr[0] < fr[1] < fr[2], fr

    bern = bernoulli_non_unifiable()
    from fractions import Fraction
    assert bern.finiteness_probability == Fraction(1, 2)
    assert bern.series_diverges
    ok("11 jeulin-shiga",
       f"(laplace z ok, shiga3 functional z {row100['z']:.2f}, "
       f"fractions {fr})")
