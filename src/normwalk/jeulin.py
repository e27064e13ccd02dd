"""Discrete limit-form Jeulin machinery and its counterexamples.

The engine is a one-sided alpha-stable sampler (exact Kanter transform of
a uniform and an exponential draw) validated through its Laplace transform
E[e^{-lambda V}] = e^{-t lambda^alpha}; densities are never needed.

Three scripted studies:

* shiga3:  i.i.d. stable V0(k), Phi(k) = k, f(k) = k^{-1/alpha} with
  0 < alpha < 1/2.  The weighted series sum f Phi converges while
  sum f(k) V0(k) diverges almost surely -- the converse of the
  limit lemma fails.  The product structure gives the exact Laplace
  functional exp(-sum_{k<=K} 1/k) to test against.  Only the partial sums
  at the K-ladder rungs are reported, and by stable closure (Samorodnitsky
  & Taqqu, Stable Non-Gaussian Random Processes, 1994, Property 1.2.1) the
  sum over one rung's terms is a single one-sided stable draw, so a
  replica draws one variable per rung, not one per term.
* shiga5:  an alpha-stable subordinator (alpha <= 1/2, infinite mean)
  integrated against an explicit heavy measure: finite on (eps, c] for
  every eps yet almost surely infinite on (0, c].  The stated density is
  integrated only up to c = 1/2: its log factor blows up non-integrably
  at t = 1, and every claim concerns the t -> 0 end.
* bernoulli: the exact two-point example showing the positive-probability
  and almost-sure routes of the limit lemma cannot be unified.

The harness cross-tabulates symbolic verdicts on sum f Phi against
empirical finiteness evidence for sum f V, asserting only the forward
implication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator

from .errors import UsageError
from .summability import (EPS_REL, LevelFunction, Verdict, _decide_weighted,
                          stabilized)
from .walk import (check_ladder, check_replicas, map_replicas, replica_rng,
                   replica_stream)

SHIGA5_UPPER = 0.5  # right end c of the shiga5 measure, inside (0, 1)


def sample_stable(alpha: float, t: float, rng: Generator,
                  size: int = 1) -> np.ndarray:
    """One-sided stable draws with E[e^{-lam V}] = e^{-t lam^alpha}.

    Kanter's transform (`_kanter`) of the inputs U ~ U(0, pi) and
    E ~ Exp(1) (`_kanter_inputs`) gives a unit draw; the scale-t draw is
    t^{1/alpha} times it.  A replica study draws only the inputs per
    replica and runs the transform once, on the stacked inputs.
    """
    if not (0.0 < alpha < 1.0):
        raise UsageError("alpha must lie in (0, 1)")
    if t <= 0:
        raise UsageError("scale t must be positive")
    return t ** (1.0 / alpha) * _kanter(alpha, *_kanter_inputs(rng, size))


def _kanter_inputs(rng: Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """U ~ U(0, pi) then E ~ Exp(1), size of each, in that stream order."""
    return rng.uniform(0.0, math.pi, size), rng.standard_exponential(size)


def _kanter(alpha: float, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Unit one-sided alpha-stable draws V = (a(U)/E)^{(1-alpha)/alpha},
    a(u) = (sin(a u)^a sin((1-a)u)^{1-a} / sin u)^{1/(1-a)}, elementwise."""
    a = (np.sin(alpha * u) ** alpha
         * np.sin((1.0 - alpha) * u) ** (1.0 - alpha)
         / np.sin(u)) ** (1.0 / (1.0 - alpha))
    return (a / e) ** ((1.0 - alpha) / alpha)


def _stacked_units(alpha: float, sizes: Sequence[int], replicas: int,
                   master_seed: int) -> np.ndarray:
    """Unit one-sided stable draws, one row of sum(sizes) per replica.

    Replica i draws from stream (seed, i) the Kanter inputs of each size in
    turn, as consecutive sample_stable calls would; the transform runs
    once, on the stacked inputs (all U, then all E, per row).
    """

    def one(i: int) -> np.ndarray:
        with replica_stream(master_seed, i) as rng:
            drawn = [_kanter_inputs(rng, n) for n in sizes]
        return np.concatenate([u for u, _ in drawn] + [e for _, e in drawn])

    inputs = np.array(map_replicas(one, replicas))
    return _kanter(alpha, *np.hsplit(inputs, 2))


def _laplace_row(key: str, label, w: np.ndarray, target: float) -> dict:
    """Sample mean of the Laplace weights w against its exact target.

    The z-score is 0 when the weights are constant (zero standard error).
    """
    emp = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(len(w)))
    z = (emp - target) / se if se > 0 else 0.0
    return {key: label, "empirical": emp, "target": target, "z": float(z)}


def laplace_check(alpha: float, lambdas: Sequence[float], draws: int,
                  master_seed: int = 0) -> list[dict]:
    """Empirical E[e^{-lam V}] against e^{-lam^alpha} with z-scores."""
    if draws < 10_000:
        raise UsageError("need at least 1e4 draws for a stable z-score")
    if any(lam < 0 for lam in lambdas):
        raise UsageError("lambda must be nonnegative")
    v = sample_stable(alpha, 1.0, replica_rng(master_seed, 0), draws)
    return [_laplace_row("lambda", float(lam), np.exp(-lam * v),
                         math.exp(-lam ** alpha))
            for lam in lambdas]


# -- shiga3: converse failure with i.i.d. stable weights ---------------------


@dataclass(frozen=True)
class Shiga3Report:
    alpha: float
    k_ladder: tuple
    replicas: int
    weighted_series_partial: float   # sum_{k<=K} f(k) Phi(k), convergent side
    weighted_series_bound: float     # zeta(1/alpha - 1) reference
    laplace_rows: tuple              # per-K: empirical vs exp(-H_K), z
    threshold: float
    divergence_fractions: tuple      # per-K fraction of partial sums > threshold

    @property
    def laplace_consistent(self) -> bool:
        return all(abs(r["z"]) <= 3.0 for r in self.laplace_rows)

    @property
    def fractions_increasing(self) -> bool:
        fr = self.divergence_fractions
        return all(a <= b for a, b in zip(fr, fr[1:]))


def harmonic(n: int) -> float:
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def shiga3_run(alpha: float, k_ladder: Sequence[int], replicas: int,
               master_seed: int, threshold: float = 10.0) -> Shiga3Report:
    """Partial sums of sum_k k^{-1/alpha} V0(k) along a K-ladder.

    Exact targets: sum f Phi = sum k^{1-1/alpha} (finite for alpha < 1/2);
    E[exp(-sum_{k<=K} f(k) V0(k))] = exp(-H_K) by independence and
    f(k)^alpha = 1/k.

    Sampled by stable closure (Samorodnitsky & Taqqu 1994, Property 1.2.1):
    for independent unit one-sided stables, sum_{K'<k<=K} k^{-1/alpha} V0(k)
    is one-sided stable with E[e^{-lam X}] = exp(-(H_K - H_K') lam^alpha),
    and the rung increments are independent.  Replica i draws the Kanter
    inputs of len(k_ladder) unit draws from stream (seed, i), as one
    sample_stable call would; the transform then runs once on the stacked
    inputs, scales draw j by gap_j^{1/alpha}, gap_j = math.fsum of 1/k over
    K_{j-1} < k <= K_j (K_0 = 0), and takes each replica's cumulative sums.
    The joint law of the rung partials is exact; the per-term path is not
    drawn.
    """
    from scipy.special import zeta

    if not (0.0 < alpha < 0.5):
        raise UsageError("shiga3 requires 0 < alpha < 1/2")
    check_replicas(replicas, 2)
    ladder = check_ladder(k_ladder, "K ladder rungs")
    scale = np.array([math.fsum(1.0 / k for k in range(lo + 1, hi + 1))
                      ** (1.0 / alpha) for lo, hi in zip([0] + ladder, ladder)])

    units = _stacked_units(alpha, [len(ladder)], replicas, master_seed)
    partials = np.cumsum(scale * units, axis=1)

    laplace_rows = [_laplace_row("K", k, np.exp(-partials[:, j]),
                                 math.exp(-harmonic(k)))
                    for j, k in enumerate(ladder)]
    fractions = tuple(float((partials[:, j] > threshold).mean())
                      for j in range(len(ladder)))
    exponent = 1.0 / alpha - 1.0
    ks = np.arange(1, ladder[-1] + 1, dtype=float)
    series_partial = float(np.sum(ks ** -exponent))
    return Shiga3Report(alpha=alpha, k_ladder=tuple(ladder), replicas=replicas,
                        weighted_series_partial=series_partial,
                        weighted_series_bound=float(zeta(exponent)),
                        laplace_rows=tuple(laplace_rows), threshold=threshold,
                        divergence_fractions=fractions)


# -- shiga5: subordinator against an infinite-mean measure -------------------


def shiga5_density(alpha: float) -> Callable[[float], float]:
    """t^{-1 - 1/alpha} (log 1/t)^{-1/alpha} on (0, 1)."""
    inv = 1.0 / alpha

    def rho(t: float) -> float:
        return t ** (-1.0 - inv) * math.log(1.0 / t) ** (-inv)

    return rho


def shiga5_phi_integral(alpha: float) -> float:
    """int_0^c t^{1/alpha} mu(dt) = (log 1/c)^{1-1/a} / (1/a - 1), c = SHIGA5_UPPER."""
    inv = 1.0 / alpha
    return math.log(1.0 / SHIGA5_UPPER) ** (1.0 - inv) / (inv - 1.0)


@dataclass(frozen=True)
class Shiga5Report:
    alpha: float
    upper: float
    grid: tuple                    # decreasing cell edges, upper = grid[0]
    phi_integral: float            # finite moment side, closed form
    phi_integral_quad: float       # same by quadrature (consistency)
    laplace_rows: tuple            # per rung eps: empirical vs exact discrete target, z
    partial_medians: tuple         # per rung eps: median of int_eps^upper X dmu
    mean_trace: tuple              # running means of X(upper): no stabilisation

    @property
    def laplace_consistent(self) -> bool:
        return all(abs(r["z"]) <= 3.0 for r in self.laplace_rows)

    @property
    def partials_growing(self) -> bool:
        m = self.partial_medians
        return all(a < b for a, b in zip(m, m[1:]))


def shiga5_run(alpha: float, levels: int, replicas: int,
               master_seed: int) -> Shiga5Report:
    """Discretised int X dmu on a ratio-1/2 geometric grid of `levels` cells
    under (0, upper], upper = SHIGA5_UPPER.

    Cell masses are exact quadratures of the density; the subordinator uses
    left-endpoint values, so the discrete functional has the exact Laplace
    transform exp(-sum_cells |C| mu((t_cell, upper])^alpha), which the
    empirical functional is tested against at every truncation level
    eps = grid[1], ..., grid[levels - 1]: X is 0 at the deepest cell's left
    end, so that cell is no rung of its own, but its increment enters X.

    mean_trace holds running means of X(upper) over the replicas: each
    replica adds a draw for the rest of the interval, (0, grid[-1]], to its
    cell increments, after the cell draws, so its rows do not depend on it.

    Replica i draws only its Kanter inputs from stream (seed, i), in the
    order two sample_stable calls would (the cells', then the rest's); the
    transform, the scalings and the sums run once on the stacked inputs.
    """
    from scipy.integrate import quad

    if not (0.0 < alpha <= 0.5):
        raise UsageError("shiga5 requires 0 < alpha <= 1/2")
    if levels < 3:
        raise UsageError("need a grid refining toward 0 (levels >= 3)")
    check_replicas(replicas, 2)
    edges = [SHIGA5_UPPER * 0.5 ** j for j in range(levels + 1)]  # decreasing
    rho = shiga5_density(alpha)
    cell_mass = np.array([quad(rho, edges[j + 1], edges[j])[0]
                          for j in range(levels - 1)])
    cell_len = np.array([edges[j] - edges[j + 1] for j in range(levels)])
    # mass_to[j] = mu((edges[j+1], upper]) = mass of cells 0..j
    mass_to = np.cumsum(cell_mass)

    def exact_exponent(j: int) -> float:
        # Laplace exponent of sum_{j'<=j} X(left of cell j') mu(cell j');
        # increment of cell i >= 1 carries coefficient mu over the cells
        # above i that are included in the truncation.
        total = 0.0
        for i in range(1, levels):
            coeff = mass_to[min(j, i - 1)]
            total += cell_len[i] * coeff ** alpha
        return float(total)

    units = _stacked_units(alpha, [levels, 1], replicas, master_seed)
    incs = cell_len ** (1.0 / alpha) * units[:, :levels]  # scaling per cell
    # X at the left endpoint of cell j < levels - 1: the increments below
    x_left = np.cumsum(incs[:, ::-1], axis=1)[:, ::-1][:, 1:]
    # the partial integrals down to each eps
    rows = np.cumsum(x_left * cell_mass, axis=1)
    # X(upper): every cell's increment plus that of the rest, (0, grid[-1]]
    xs = incs.sum(axis=1) + edges[levels] ** (1.0 / alpha) * units[:, levels]

    laplace_rows = [_laplace_row("eps", edges[j + 1], np.exp(-rows[:, j]),
                                 math.exp(-exact_exponent(j)))
                    for j in range(levels - 1)]

    # phi-integral by quadrature in w = log(1/t): int w^{-1/alpha} dw
    phi_quad = quad(lambda w: w ** (-1.0 / alpha),
                    math.log(1.0 / SHIGA5_UPPER), np.inf)[0]

    prefix_means = tuple(float(xs[:n].mean())
                         for n in np.unique(np.geomspace(10, replicas, 6).astype(int)))

    return Shiga5Report(alpha=alpha, upper=SHIGA5_UPPER, grid=tuple(edges),
                        phi_integral=shiga5_phi_integral(alpha),
                        phi_integral_quad=float(phi_quad),
                        laplace_rows=tuple(laplace_rows),
                        partial_medians=tuple(float(np.median(rows[:, j]))
                                              for j in range(levels - 1)),
                        mean_trace=prefix_means)


# -- the exact Bernoulli example ---------------------------------------------


@dataclass(frozen=True)
class BernoulliReport:
    finiteness_probability: Fraction
    series_diverges: bool
    notes: tuple

    def as_dict(self) -> dict:
        return {"finiteness_probability": str(self.finiteness_probability),
                "series_diverges": self.series_diverges,
                "notes": list(self.notes)}


def bernoulli_non_unifiable() -> BernoulliReport:
    """V(k) = X with P(X=0) = P(X=1) = 1/2, Phi = 1, f = 1: exact outputs.

    P(sum f V < infinity) = P(X = 0) = 1/2 while sum f Phi = infinity, so a
    positive-probability hypothesis with P(X>0) < 1 implies nothing; the
    almost-sure route never fires (its hypothesis fails by construction).
    """
    notes = (
        "limit law X has P(X>0) = 1/2: positive-probability route needs P(X>0) = 1",
        "almost-sure route hypothesis P(sum f V < inf) = 1 fails (it is 1/2)",
        "negative control: f(k) = k^-2 makes sum f Phi finite",
        "negative control: X = 1 a.s. gives finiteness probability 0",
    )
    return BernoulliReport(finiteness_probability=Fraction(1, 2),
                           series_diverges=True, notes=notes)


# -- the harness --------------------------------------------------------------


@dataclass(frozen=True)
class JeulinScenario:
    """A (V, Phi, X) triple with declared limit-law positivity."""

    label: str
    phi_exponent: float                     # Phi(k) = k^p
    v_sampler: Callable[[Generator, int], np.ndarray]  # draws V(1..K)
    limit_positive_prob: float              # P(X > 0), declared


def route_a_scenario(phi_exponent: float = 2.0) -> JeulinScenario:
    """V(k) = Phi(k)(1 + Z_k / sqrt(k)) with bounded Z: V/Phi -> 1 a.s."""

    def sampler(rng: Generator, k_top: int) -> np.ndarray:
        ks = np.arange(1, k_top + 1, dtype=float)
        z = rng.uniform(-0.5, 0.5, k_top)
        return ks ** phi_exponent * (1.0 + z / np.sqrt(ks))

    return JeulinScenario(label=f"perturbed-power(p={phi_exponent})",
                          phi_exponent=phi_exponent, v_sampler=sampler,
                          limit_positive_prob=1.0)


def shiga3_scenario(alpha: float = 0.4) -> JeulinScenario:
    """V(k) = k + V0(k) with stable V0: V/Phi -> 1 yet converse fails."""
    if not (0.0 < alpha < 0.5):
        raise UsageError("the counterexample needs 0 < alpha < 1/2")

    def sampler(rng: Generator, k_top: int) -> np.ndarray:
        ks = np.arange(1, k_top + 1, dtype=float)
        return ks + sample_stable(alpha, 1.0, rng, k_top)

    return JeulinScenario(label=f"shiga3(alpha={alpha})", phi_exponent=1.0,
                          v_sampler=sampler, limit_positive_prob=1.0)


def bernoulli_scenario() -> JeulinScenario:
    """V(k) = X for a single fair {0, 1} draw per path; Phi = 1."""

    def sampler(rng: Generator, k_top: int) -> np.ndarray:
        return np.full(k_top, float(rng.integers(0, 2)))

    return JeulinScenario(label="bernoulli-half", phi_exponent=0.0,
                          v_sampler=sampler, limit_positive_prob=0.5)


@dataclass(frozen=True)
class HarnessRow:
    f_label: str
    series_verdict: Verdict           # sum f(k) Phi(k)
    stabilized_fraction: float
    implication_violated: bool        # finite-evidence yet divergent series
    converse_fails: bool              # convergent series yet growing sums


@dataclass(frozen=True)
class HarnessReport:
    scenario: str
    k_ladder: tuple
    rows: tuple

    @property
    def implication_respected(self) -> bool:
        return not any(r.implication_violated for r in self.rows)

    @property
    def exhibits_converse_failure(self) -> bool:
        return any(r.converse_fails for r in self.rows)


def limit_jeulin_harness(scenario: JeulinScenario, f_family: Sequence[LevelFunction],
                         k_ladder: Sequence[int], replicas: int,
                         master_seed: int) -> HarnessReport:
    """Cross-tabulate symbolic sum f Phi against empirical sum f V.

    Only the forward direction is asserted, and route-aware: with a
    declared P(X>0) = 1, positive-probability finiteness evidence (a
    stabilised fraction of at least 0.5) demands a convergent
    weighted series; with 0 < P(X>0) < 1 only near-certain evidence
    (fraction >= 0.95, the almost-sure route) does.  The two routes cannot
    be merged -- see bernoulli_non_unifiable.  Rows where a convergent
    series meets growing sums are reported as converse failures, never as
    errors.  The verdict on sum f Phi, Phi(k) = k^p, is the one
    summability._decide_weighted gives with power p; a replica is
    stabilised by summability.stabilized with eps_abs 1e-9 and
    summability.EPS_REL.
    """
    if scenario.limit_positive_prob <= 0.0:
        raise UsageError("scenario declares P(X>0) = 0: the lemma needs "
                         "positive limit mass")
    stabilized_threshold = 0.5 if scenario.limit_positive_prob >= 1.0 else 0.95
    ladder = check_ladder(k_ladder, "K ladder rungs", rungs=2)
    check_replicas(replicas, 1)
    k_top = ladder[-1]
    ks = np.arange(1, k_top + 1, dtype=np.int64)

    family = {f.label: f for f in f_family}  # one row per distinct f
    f_vals = np.array([np.asarray(f(ks), dtype=float) for f in family.values()]
                      ).reshape(len(family), k_top)
    at = np.array(ladder) - 1

    def one(i: int) -> np.ndarray:  # (len(family), len(ladder)) partials
        with replica_stream(master_seed, i) as rng:
            v = scenario.v_sampler(rng, k_top)
        return np.cumsum(f_vals * v, axis=1)[:, at]

    partials = np.array(map_replicas(one, replicas))

    rows = []
    for j, (label, f) in enumerate(family.items()):
        stab = float(stabilized(partials[:, j], 1e-9, EPS_REL).mean())
        verdict, _ = _decide_weighted(f, power=scenario.phi_exponent)
        finite_evidence = stab >= stabilized_threshold
        violated = finite_evidence and verdict == Verdict.DIVERGES
        converse_fails = (verdict == Verdict.CONVERGES) and (stab <= 1 - stabilized_threshold)
        rows.append(HarnessRow(f_label=label, series_verdict=verdict,
                               stabilized_fraction=stab,
                               implication_violated=violated,
                               converse_fails=converse_fails))
    return HarnessReport(scenario=scenario.label, k_ladder=tuple(ladder),
                         rows=tuple(rows))
