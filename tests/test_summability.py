import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normwalk import summability, walk
from normwalk.census import census_for
from normwalk.errors import UsageError
from normwalk.green import GreenField
from normwalk.norms import make_norm
from normwalk.summability import (
    PowerLaw,
    PowerLog,
    TableFunction,
    Verdict,
    decide_even_v,
    decide_iv,
    decide_v,
    even_only,
    excursion_allowance,
    expectation_vs_criterion,
    odd_only,
    stabilized,
    zero_one_experiment,
)
from normwalk.walk import StepDistribution, make_lazy_walk, make_simple_walk

MAX3 = make_norm("max", 3)
SW3 = make_simple_walk(3)

STRUCTURED_BATTERY = (
    [PowerLaw(b) for b in (0.5, 1.0, 1.5, 2.0, 2.2, 2.5, 3.0, 4.0, 5.0)]
    + [PowerLaw(b, shift=2.0) for b in (1.5, 2.0, 3.0)]
    + [PowerLog(2.0, 2.0), PowerLog(2.0, 1.0), PowerLog(2.0, 0.5),
       PowerLog(3.0, 1.0), PowerLog(1.5, 2.0), PowerLog(2.5, -1.0)]
    + [even_only(PowerLaw(3.0)), odd_only(PowerLaw(1.5))])


class TestDecideV:
    def test_p_series(self):
        assert decide_v(PowerLaw(3)).verdict == Verdict.CONVERGES
        assert decide_v(PowerLaw(2)).verdict == Verdict.DIVERGES
        assert decide_v(PowerLaw(2.0001)).verdict == Verdict.CONVERGES

    def test_bertrand(self):
        assert decide_v(PowerLog(2, 2)).verdict == Verdict.CONVERGES
        assert decide_v(PowerLog(2, 1)).verdict == Verdict.DIVERGES
        assert decide_v(PowerLog(2, 0.5)).verdict == Verdict.DIVERGES

    def test_shift_irrelevant(self):
        assert decide_v(PowerLaw(3, shift=9)).verdict == Verdict.CONVERGES

    def test_table_rules(self):
        assert decide_v(TableFunction((1.0, 0.5), tail="zero")).verdict \
            == Verdict.CONVERGES
        assert decide_v(TableFunction((1.0, 0.5), tail=("power", 1.5))).verdict \
            == Verdict.DIVERGES
        v = decide_v(TableFunction((1.0, 0.5), tail=None))
        assert v.verdict == Verdict.UNDECIDABLE and v.method == "partial-sum"

    def test_power_tail_anchored_at_zero_converges(self):
        # values() is 0 past the table, so the sum is finite whatever beta
        for f in (TableFunction((1.0,), tail=("power", 1.0)),
                  TableFunction((1.0, 0.0), tail=("power", 1.0))):
            assert (f(np.arange(2, 50)) == 0).all()
            for decide in (decide_v, decide_even_v):
                v = decide(f)
                assert v.verdict == Verdict.CONVERGES
                assert v.method == "partial-sum"
        live = TableFunction((1.0, 2.0), tail=("power", 1.0))
        assert decide_v(live).verdict == Verdict.DIVERGES
        assert decide_even_v(live).verdict == Verdict.DIVERGES

    def test_opaque_function_undecidable(self):
        class Weird:
            label = "weird"

            def values(self, k):
                return np.ones(np.asarray(k).shape)

            def __call__(self, k):
                return self.values(k)

        assert decide_v(Weird()).verdict == Verdict.UNDECIDABLE


class TestEvenV:
    def test_odd_supported_strictness(self):
        f = odd_only(PowerLaw(0.0))  # constant 1 on odd levels
        assert decide_even_v(f).verdict == Verdict.CONVERGES
        assert decide_v(f).verdict == Verdict.DIVERGES

    def test_power_laws(self):
        assert decide_even_v(PowerLaw(3)).verdict == Verdict.CONVERGES
        assert decide_even_v(PowerLaw(2)).verdict == Verdict.DIVERGES


class TestDecideIV:
    @pytest.mark.parametrize("family", ["max", "l1", "w1"])
    def test_matches_v_on_a4_families(self, family):
        cen = census_for(make_norm(family, 3), 40)
        for f in STRUCTURED_BATTERY:
            assert decide_iv(f, cen).verdict == decide_v(f).verdict

    def test_scaled_max_delegates_to_even(self):
        cen = census_for(make_norm("scaled_max", 3, factor=2), 40)
        f = odd_only(PowerLaw(0.0))
        assert decide_iv(f, cen).verdict == Verdict.CONVERGES
        assert decide_v(f).verdict == Verdict.DIVERGES
        assert decide_iv(PowerLaw(3), cen).verdict == Verdict.CONVERGES
        assert decide_iv(PowerLaw(2), cen).verdict == Verdict.DIVERGES


def test_monotonicity_of_verdicts():
    # f <= g pointwise with converging g forces converging f
    pairs = [(PowerLaw(4), PowerLaw(3)), (PowerLaw(3, shift=2), PowerLaw(3)),
             (PowerLog(3, 1, shift=2), PowerLaw(3)),
             (even_only(PowerLaw(3)), PowerLaw(3))]
    ks = np.arange(0, 2000)
    for f, g in pairs:
        assert np.all(f(ks) <= g(ks) + 1e-15)
        if decide_v(g).verdict == Verdict.CONVERGES:
            assert decide_v(f).verdict == Verdict.CONVERGES


def test_symbolic_consistent_with_partial_sums():
    # decade increments of sum k f(k) over the first 1e6 terms; boundary
    # log cases (gamma near 1 at beta = 2) are decided symbolically only
    ks = np.arange(1, 10 ** 6 + 1, dtype=float)
    for f in (PowerLaw(3), PowerLaw(2.5), PowerLog(2, 2)):
        terms = ks * f(ks.astype(np.int64))
        assert decide_v(f).verdict == Verdict.CONVERGES
        last_decade = terms[10 ** 5:].sum()
        assert last_decade <= 0.02 * terms.sum()
    for f in (PowerLaw(1.5), PowerLaw(2)):
        terms = ks * f(ks.astype(np.int64))
        assert decide_v(f).verdict == Verdict.DIVERGES
        assert terms[10 ** 5:].sum() >= 0.1 * terms.sum()


class TestZeroOneExperiment:
    def test_zero_function_fraction_one(self):
        f = TableFunction((0.0,), tail="zero")
        rep = zero_one_experiment(SW3, MAX3, f, replicas=8,
                                  horizons=[50, 500], master_seed=1)
        assert rep.stabilized_fraction == 1.0

    def test_recurrent_dim_refused(self):
        with pytest.raises(UsageError, match="recurrent"):
            zero_one_experiment(make_simple_walk(2), make_norm("max", 2),
                                PowerLaw(3), 4, [10, 100], 0)

    def test_non_a0_law_refused_without_override(self):
        skew = StepDistribution(
            dim=3,
            support=np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                              [0, 0, 1], [0, 0, -1]]),
            probabilities=np.array([0.3, 0.3, 0.1, 0.1, 0.1, 0.1]))
        with pytest.raises(UsageError, match="isotropy"):
            zero_one_experiment(skew, MAX3, PowerLaw(3), 4, [10, 100], 0)

    def test_dichotomy_small_budget(self):
        conv = zero_one_experiment(SW3, MAX3, PowerLaw(3), replicas=40,
                                   horizons=[2000, 20_000], master_seed=5)
        div = zero_one_experiment(SW3, MAX3, PowerLaw(1.5), replicas=40,
                                  horizons=[2000, 20_000], master_seed=5)
        assert conv.stabilized_fraction >= 0.9
        assert div.stabilized_fraction <= 0.1
        assert conv.dichotomy_respected and div.dichotomy_respected

    def test_allowance_scales_linearly(self):
        a = excursion_allowance(PowerLaw(3))
        assert a == pytest.approx(
            5.0 * ((1.0 + np.arange(0, 10_001)) ** -3.0).sum(), rel=1e-9)

    def test_stabilized_rule(self):
        # last-two difference against eps_abs + eps_rel * final, strictly
        partials = np.array([[0.0, 1.0, 1.5],    # 0.5 < 0.1 + 0.5 * 1.5
                             [0.0, 1.0, 3.0],    # 2.0 < 0.1 + 1.5 fails
                             [5.0, 5.0, 5.0],    # 0 < 0.1 + 2.5
                             [0.0, 0.0, 0.2]])   # 0.2 < 0.1 + 0.1 fails
        assert stabilized(partials, 0.1, 0.5).tolist() == [True, False, True, False]

    def test_needs_two_horizons(self):
        with pytest.raises(UsageError):
            zero_one_experiment(SW3, MAX3, PowerLaw(3), 4, [100], 0)

    def test_repeated_horizons_refused(self):
        # a repeated last horizon would make every replica of a divergent
        # sum look stabilised (fraction 1.0 for PowerLaw(1.5))
        for horizons in ([1000, 1000], [100, 1000, 1000], [100, 100, 1000]):
            with pytest.raises(UsageError, match="distinct"):
                zero_one_experiment(SW3, MAX3, PowerLaw(1.5), 20, horizons, 1)


# (law, norm, horizons, replicas, master seed): a base walk set and, after
# it, one variant per key part
KEPT_BASE = ("simple", "max", (100, 1000), 6, 31)
KEPT_VARIANTS = {
    "seed": ("simple", "max", (100, 1000), 6, 32),
    "replicas": ("simple", "max", (100, 1000), 7, 31),
    "horizons": ("simple", "max", (100, 2000), 6, 31),
    "norm": ("simple", "l1", (100, 1000), 6, 31),
    "law": ("lazy", "max", (100, 1000), 6, 31),
    # after the lazy walk: its support, staying put with probability 1/4
    "probabilities": ("lazy_quarter", "max", (100, 1000), 6, 31),
}


def lazy_quarter(d):
    lazy = make_lazy_walk(d)
    return StepDistribution(dim=d, support=lazy.support, probabilities=np.concatenate(
        [[0.25], np.full(2 * d, 0.75 / (2 * d))]))


def kept_partials(law, norm, horizons, replicas, seed):
    step = {"simple": make_simple_walk, "lazy": make_lazy_walk,
            "lazy_quarter": lazy_quarter}[law](3)
    return zero_one_experiment(step, make_norm(norm, 3), PowerLaw(3.0), replicas,
                               list(horizons), seed).partials


@pytest.fixture(scope="module")
def fresh_process_partials():
    """Each variant's partials from a process that never ran the base."""
    script = ("import sys\n"
              "from test_summability import KEPT_VARIANTS, kept_partials\n"
              "for part, variant in KEPT_VARIANTS.items():\n"
              "    print(part, kept_partials(*variant).tobytes().hex())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])})
    return dict(line.split() for line in proc.stdout.splitlines())


class TestKeptWalkSet:
    """_replica_partials keeps the last walk set for the next f."""

    def test_second_call_runs_no_replica(self, monkeypatch):
        summability._last_walks.clear()
        first = zero_one_experiment(SW3, MAX3, PowerLaw(3.0), 6, [100, 1000], 31)
        fresh = zero_one_experiment(SW3, MAX3, PowerLaw(1.5), 6, [100, 1000], 31)

        def unreachable(*args, **kwargs):
            raise AssertionError("a replica ran for a kept walk set")

        monkeypatch.setattr(summability, "map_replicas", unreachable)
        monkeypatch.setattr(walk, "_blocks", unreachable)
        again = zero_one_experiment(SW3, MAX3, PowerLaw(1.5), 6, [100, 1000], 31)
        assert again.partials.tobytes() == fresh.partials.tobytes()
        assert not np.array_equal(first.partials, again.partials)
        rows = expectation_vs_criterion(SW3, MAX3, PowerLaw(3.0), census_for(MAX3, 16),
                                        6, [100, 1000], 31).rows
        assert [r["mc_mean"] for r in rows] == first.partials.mean(axis=0).tolist()

    @pytest.mark.parametrize("part", KEPT_VARIANTS)
    def test_any_key_part_recomputes(self, monkeypatch, part,
                                     fresh_process_partials):
        variant = KEPT_VARIANTS[part]
        calls = []

        def counted(one, replicas):
            calls.append(replicas)
            return walk.map_replicas(one, replicas)

        monkeypatch.setattr(summability, "map_replicas", counted)
        base = (("lazy",) + KEPT_BASE[1:]) if part == "probabilities" else KEPT_BASE
        summability._last_walks.clear()
        kept_partials(*base)
        got = kept_partials(*variant)
        assert calls == [base[3], variant[3]]
        assert got.tobytes().hex() == fresh_process_partials[part]

    def test_kept_counts_are_read_only(self):
        summability._last_walks.clear()
        kept_partials(*KEPT_BASE)
        (counts,) = summability._last_walks.values()
        assert counts.shape[:2] == (6, 2) and not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0, 0, 0] = 1


class TestExpectationVsCriterion:
    def test_unit_mass_at_level_one_matches_green_sum(self):
        # E[number of visits to level 1] = sum of Green values on the sphere
        f = TableFunction((0.0, 1.0), tail="zero")
        cen = census_for(MAX3, 32)
        rep = expectation_vs_criterion(SW3, MAX3, f, cen, replicas=600,
                                       horizons=[20_000], master_seed=3)
        row = rep.rows[0]
        field = GreenField(SW3, n_max=600, box_radius=24)
        level_sum = field.level_sum(MAX3, 1)
        assert row["mc_mean"] == pytest.approx(level_sum,
                                               abs=4 * row["mc_se"] + 0.15)

    def test_flat_trajectory_for_integrable_f(self):
        cen = census_for(MAX3, 64)
        rep = expectation_vs_criterion(SW3, MAX3, PowerLaw(4), cen,
                                       replicas=300, horizons=[5000, 50_000],
                                       master_seed=7)
        assert rep.ratio_spread < 1.2

    def test_divergent_f_tracks_divergence(self):
        cen = census_for(MAX3, 300)
        rep = expectation_vs_criterion(SW3, MAX3, PowerLaw(1.0), cen,
                                       replicas=150, horizons=[2000, 20_000],
                                       master_seed=9)
        means = [r["mc_mean"] for r in rep.rows]
        partials = [r["census_partial"] for r in rep.rows]
        assert means[1] > 1.5 * means[0]
        assert partials[1] > partials[0]

    def test_empty_horizons_refused(self):
        with pytest.raises(UsageError, match="horizon"):
            expectation_vs_criterion(SW3, MAX3, PowerLaw(4), census_for(MAX3, 16),
                                     replicas=4, horizons=[], master_seed=0)

    def test_one_replica_refused(self, monkeypatch):
        # one replica has no standard error: mc_se would be nan
        monkeypatch.setattr("normwalk.summability.map_replicas",
                            lambda *a: pytest.fail("replicas ran"))
        with pytest.raises(UsageError, match="replicas must be >= 2"):
            expectation_vs_criterion(SW3, MAX3, PowerLaw(4), census_for(MAX3, 16),
                                     replicas=1, horizons=[100], master_seed=0)

    def test_vanishing_f_rejected(self):
        cen = census_for(MAX3, 16)
        zero = TableFunction((0.0,), tail="zero")
        with pytest.raises(UsageError):
            expectation_vs_criterion(SW3, MAX3, zero, cen, replicas=4,
                                     horizons=[100], master_seed=0)

    # With the diffusive cutoff at k_max a row's ratio is the whole-range
    # bracket MC / (f(0) + sum_k k^{2-d} N(k) f(k)).

    def test_indicator_ratio_in_band(self):
        cen = census_for(MAX3, 64)

        def ind(k):
            return (np.asarray(k) <= 5).astype(float)

        rep = expectation_vs_criterion(SW3, MAX3, ind, cen, replicas=300,
                                       horizons=[20_000], master_seed=11)
        row = rep.rows[0]
        assert row["census_cutoff"] == cen.k_max
        assert 0.1 <= row["ratio"] <= 10.0
        assert row["ratio"] > 0 and math.isfinite(row["ratio"])

    def test_ratio_stable_when_horizon_doubles(self):
        cen = census_for(MAX3, 64)

        def p4(k):
            return (1.0 + np.asarray(k)) ** -4.0

        r1 = expectation_vs_criterion(SW3, MAX3, p4, cen, replicas=400,
                                      horizons=[10_000], master_seed=19).rows[0]
        r2 = expectation_vs_criterion(SW3, MAX3, p4, cen, replicas=400,
                                      horizons=[20_000], master_seed=20).rows[0]
        assert r1["census_cutoff"] == r2["census_cutoff"] == cen.k_max
        assert r2["ratio"] == pytest.approx(r1["ratio"], rel=0.2)


class TestFunctionSpecs:
    def test_nonnegative_enforced(self):
        with pytest.raises(UsageError):
            TableFunction((-1.0,), tail="zero")
        with pytest.raises(UsageError):
            PowerLaw(3, shift=0.5)

    @pytest.mark.parametrize("make", [
        lambda: PowerLaw(math.nan), lambda: PowerLaw(math.inf),
        lambda: PowerLaw(2.0, shift=math.nan), lambda: PowerLaw(2.0, shift=math.inf),
        lambda: PowerLog(math.nan, 1.0), lambda: PowerLog(3.0, math.nan),
        lambda: PowerLog(3.0, -math.inf), lambda: PowerLog(3.0, 1.0, shift=math.nan),
        lambda: TableFunction((math.nan, 1.0), "zero"),
        lambda: TableFunction((1.0, math.inf), ("power", 2.0)),
    ], ids=["powerlaw-beta-nan", "powerlaw-beta-inf", "powerlaw-shift-nan",
            "powerlaw-shift-inf", "powerlog-beta-nan", "powerlog-gamma-nan",
            "powerlog-gamma-inf", "powerlog-shift-nan", "table-nan", "table-inf"])
    def test_non_finite_parameter_refused(self, make):
        # each got a symbolic verdict (nan compares false everywhere)
        with pytest.raises(UsageError, match="must be finite"):
            make()

    def test_labels_identify_the_function(self):
        assert PowerLog(2, 1).label != PowerLog(2, 1, shift=2.0).label
        assert "shift=1.0" in PowerLog(2, 1).label
        assert TableFunction((1.0, 0.5), "zero").label != \
            TableFunction((0.0, 9.0), "zero").label

    def test_table_power_tail_values(self):
        f = TableFunction((4.0, 2.0, 1.0), tail=("power", 2.0))
        ks = np.array([0, 1, 2, 4, 8])
        vals = f(ks)
        assert vals[0] == 4.0 and vals[2] == 1.0
        assert vals[3] == pytest.approx(1.0 * (2 / 4) ** 2)
        assert vals[4] == pytest.approx(1.0 * (2 / 8) ** 2)

    @pytest.mark.parametrize("tail", [["power", 2.0], "garbage", ("power",),
                                      ("power", "x"), ("power", 2.0, 1.0),
                                      ("power", float("nan")), ("zero",)])
    def test_malformed_tail_refused_at_construction(self, tail):
        # none of these may read as undeclared (zeros past the table) or
        # fail only when evaluated
        with pytest.raises(UsageError, match="tail must be"):
            TableFunction((1.0, 0.5), tail=tail)

    def test_integer_power_tail_accepted(self):
        f = TableFunction((4.0, 2.0, 1.0), tail=("power", 2))
        g = TableFunction((4.0, 2.0, 1.0), tail=("power", 2.0))
        ks = np.arange(12)
        assert f(ks).tobytes() == g(ks).tobytes()
        assert decide_v(f) == decide_v(g)

    def test_parity_mask_values(self):
        f = odd_only(PowerLaw(1))
        ks = np.arange(0, 6)
        vals = f(ks)
        assert vals[0] == 0 and vals[2] == 0 and vals[4] == 0
        assert vals[1] > 0 and vals[3] > 0

    def test_evaluable_at_every_level(self):
        for f in STRUCTURED_BATTERY:
            vals = f(np.arange(0, 50))
            assert np.all(vals >= 0) and np.all(np.isfinite(vals))
