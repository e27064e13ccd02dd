"""Summability criteria and the empirical zero-one experiment.

The structured level functions (power laws, power-logs, finite tables with
declared tails, parity masks) admit symbolic verdicts for

* criterion V:      sum k f(k)            < infinity
* criterion IV:     sum k^{2-d} N(k) f(k) < infinity
* even-level V:     sum k f(2k)           < infinity  (degenerate norms)

all decided by _decide_weighted, which decides sum k^p f(stride k) (the
Jeulin harness asks it with p the exponent of Phi).  For norms whose
census is eventually monotone with positive growth bounds, IV and V
coincide, so decide_iv defers to decide_v; for the scaled-max
family (odd levels empty) it defers to the stride criterion instead, which
is strictly weaker than V.

The zero-one experiment classifies Monte Carlo replicas as stabilised or
growing from their partial sums at a horizon ladder.  A replica counts as
stabilised (stabilized) when the last two checkpoints differ by less than
eps_abs + EPS_REL * (final partial sum).  eps_abs is an "excursion
allowance" of a few multiples of sum_k f(k): one late sweep of the low
norm levels adds mass of that order to a convergent sum, while a
divergent sum outgrows any fixed allowance.  See the module tests for the
calibration showing the dichotomy is seed-robust at these tolerances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .census import SphereCensus, growth_bounds
from .errors import UsageError
from .norms import NormSpec
from .walk import (StepDistribution, WalkRun, check_a0, check_ladder,
                   map_replicas, truncated_f_sum)

EXCURSION_ALLOWANCE_FACTOR = 5.0
ALLOWANCE_SUM_CAP = 10_000
EPS_REL = 0.05


class Verdict(enum.Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    UNDECIDABLE = "undecidable"


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str  # "V" | "IV" | "EvenV"
    verdict: Verdict
    method: str     # "symbolic" | "partial-sum"


# -- structured level functions --------------------------------------------


class LevelFunction:
    """Nonnegative function on the levels k = 0, 1, 2, ..."""

    label: str = "f"

    def values(self, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, k) -> np.ndarray:
        return self.values(np.asarray(k))

    def value_sum(self) -> float:
        return float(self.values(np.arange(0, ALLOWANCE_SUM_CAP + 1)).sum())


@dataclass(frozen=True)
class PowerLaw(LevelFunction):
    """f(k) = (shift + k)^{-beta}, shift >= 1."""

    beta: float
    shift: float = 1.0

    def __post_init__(self):
        if self.shift < 1:
            raise UsageError("shift must be >= 1 (regularises k = 0)")

    @property
    def label(self) -> str:
        return f"powerlaw(beta={self.beta}, shift={self.shift})"

    def values(self, k: np.ndarray) -> np.ndarray:
        return (self.shift + np.asarray(k, dtype=float)) ** (-self.beta)


@dataclass(frozen=True)
class PowerLog(LevelFunction):
    """f(k) = (shift + k)^{-beta} * log(shift + 1 + k)^{-gamma}."""

    beta: float
    gamma: float
    shift: float = 1.0

    def __post_init__(self):
        if self.shift < 1:
            raise UsageError("shift must be >= 1")

    @property
    def label(self) -> str:
        return f"powerlog(beta={self.beta}, gamma={self.gamma})"

    def values(self, k: np.ndarray) -> np.ndarray:
        t = self.shift + np.asarray(k, dtype=float)
        return t ** (-self.beta) * np.log(t + 1.0) ** (-self.gamma)


@dataclass(frozen=True)
class TableFunction(LevelFunction):
    """Finite table of values with a declared tail extension.

    tail is "zero" (values vanish past the table) or ("power", beta):
    f(k) = last_value * (k_last / k)^beta for k past the table.  Without a
    tail declaration no verdict beyond Undecidable is ever issued.
    """

    table: tuple
    tail: object = None

    def __post_init__(self):
        if any(v < 0 for v in self.table):
            raise UsageError("level functions must be nonnegative")
        if not self.table:
            raise UsageError("table must be nonempty")

    @property
    def label(self) -> str:
        return f"table(n={len(self.table)}, tail={self.tail})"

    def values(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.int64)
        vals = np.zeros(k.shape, dtype=float)
        inside = k < len(self.table)
        tab = np.asarray(self.table, dtype=float)
        vals[inside] = tab[k[inside]]
        if isinstance(self.tail, tuple) and self.tail and self.tail[0] == "power":
            beta = float(self.tail[1])
            k_last = len(self.table) - 1
            out = ~inside
            if k_last >= 1 and np.any(out):
                vals[out] = tab[-1] * (k_last / k[out].astype(float)) ** beta
        return vals


@dataclass(frozen=True)
class ParityMasked(LevelFunction):
    """inner(k) on one parity class, 0 on the other."""

    inner: LevelFunction
    parity: int  # 0 keeps even levels, 1 keeps odd levels

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise UsageError("parity must be 0 (even) or 1 (odd)")

    @property
    def label(self) -> str:
        side = "even" if self.parity == 0 else "odd"
        return f"{side}_only({self.inner.label})"

    def values(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k)
        return np.where(k % 2 == self.parity, self.inner.values(k), 0.0)


def even_only(inner: LevelFunction) -> ParityMasked:
    return ParityMasked(inner=inner, parity=0)


def odd_only(inner: LevelFunction) -> ParityMasked:
    return ParityMasked(inner=inner, parity=1)


# -- symbolic criteria -------------------------------------------------------


def _series_verdict(exponent: float, gamma: float = 0.0) -> Verdict:
    """Convergence of sum k^{-exponent} log(k)^{-gamma} (Bertrand scale)."""
    if exponent > 1:
        return Verdict.CONVERGES
    if exponent == 1:
        return Verdict.CONVERGES if gamma > 1 else Verdict.DIVERGES
    return Verdict.DIVERGES


def decide_v(f: LevelFunction) -> CriterionVerdict:
    """Criterion V: sum k f(k) < infinity."""
    v, method = _decide_weighted(f)
    return CriterionVerdict("V", v, method)


def _decide_weighted(f: LevelFunction, stride: int = 1,
                     power: float = 1.0) -> tuple[Verdict, str]:
    """Verdict on sum_k k^power f(stride * k); for f(k) ~ k^-beta log(k)^-gamma
    that is the Bertrand series of exponent beta - power, at any stride."""
    if isinstance(f, PowerLaw):
        return _series_verdict(f.beta - power), "symbolic"
    if isinstance(f, PowerLog):
        return _series_verdict(f.beta - power, f.gamma), "symbolic"
    if isinstance(f, ParityMasked):
        # every stride-2 sample of an odd-supported f vanishes
        if stride % 2 == 0 and f.parity == 1:
            return Verdict.CONVERGES, "symbolic"
        inner, _ = _decide_weighted(f.inner, stride, power)
        return inner, "symbolic"
    if isinstance(f, TableFunction):
        tail = isinstance(f.tail, tuple) and f.tail and f.tail[0] == "power"
        # a power tail anchored at k = 0 or at a zero last entry vanishes
        # past the table, as values() computes it
        if f.tail == "zero" or (tail and (len(f.table) == 1 or f.table[-1] == 0)):
            return Verdict.CONVERGES, "partial-sum"
        if tail:
            return _series_verdict(float(f.tail[1]) - power), "partial-sum"
        return Verdict.UNDECIDABLE, "partial-sum"
    return Verdict.UNDECIDABLE, "partial-sum"


def decide_even_v(f: LevelFunction) -> CriterionVerdict:
    """Even-level criterion: sum k f(2k) < infinity.

    Strictly weaker than V: an odd-supported f always converges here while
    its V-series may diverge.
    """
    v, method = _decide_weighted(f, stride=2)
    return CriterionVerdict("EvenV", v, method)


def decide_iv(f: LevelFunction, census: SphereCensus) -> CriterionVerdict:
    """Criterion IV: sum k^{2-d} N(k) f(k) < infinity.

    With positive growth bounds (N(k) ~ k^{d-1}) this matches V; for the
    degenerate scaled-max census it reduces to the stride criterion.
    """
    spec = census.spec
    if spec.degenerate:
        if spec.factor != 2:
            raise UsageError("only the factor-2 scaled max is supported here")
        inner = decide_even_v(f)
        return CriterionVerdict("IV", inner.verdict, inner.method)
    try:
        c1, _ = growth_bounds(census)
    except UsageError:
        return CriterionVerdict("IV", Verdict.UNDECIDABLE, "partial-sum")
    if c1 <= 0:
        return CriterionVerdict("IV", Verdict.UNDECIDABLE, "partial-sum")
    inner = decide_v(f)
    return CriterionVerdict("IV", inner.verdict, inner.method)


# -- empirical zero-one experiment ------------------------------------------


@dataclass(frozen=True)
class ZeroOneReport:
    f_label: str
    horizons: tuple
    replicas: int
    eps_abs: float
    eps_rel: float
    stabilized_fraction: float
    stabilized: np.ndarray          # bool per replica
    partials: np.ndarray            # (replicas, len(horizons))
    criterion_v: Verdict
    criterion_iv: Optional[Verdict]

    @property
    def dichotomy_respected(self) -> bool:
        """The fraction avoids the forbidden middle band [0.2, 0.8]."""
        return not (0.2 <= self.stabilized_fraction <= 0.8)


def excursion_allowance(f: LevelFunction) -> float:
    """Absolute stabilisation allowance: EXCURSION_ALLOWANCE_FACTOR * sum_k f(k).

    A transient replica that wanders back through the populated levels once
    more adds on the order of sum_k f(k) (times the geometric number of
    re-visits) to its total; a genuinely divergent sum exceeds any fixed
    allowance between successive decades.  Scales linearly with f.
    """
    return EXCURSION_ALLOWANCE_FACTOR * f.value_sum() + 1e-12


def stabilized(partials: np.ndarray, eps_abs: float, eps_rel: float) -> np.ndarray:
    """Per replica (row), whether its partial sums at the last two rungs
    differ by less than eps_abs + eps_rel * (final partial sum)."""
    final = partials[:, -1]
    return final - partials[:, -2] < eps_abs + eps_rel * final


def _replica_partials(step: StepDistribution, norm: NormSpec,
                      f: LevelFunction, horizons: list, replicas: int,
                      master_seed: int) -> np.ndarray:
    """(replicas, len(horizons)) partial sums of f(||S_n||), n <= horizon.

    Replica i walks the (master_seed, i) path once, up to the last horizon.
    """

    def one(i: int) -> list:
        run = WalkRun(step=step, master_seed=master_seed, replica_index=i,
                      horizon=horizons[-1])
        ps = truncated_f_sum(run, norm, f, horizons)
        return [ps[h] for h in horizons]

    return np.array(map_replicas(one, replicas), dtype=float)


def zero_one_experiment(step: StepDistribution, norm: NormSpec,
                        f: LevelFunction, replicas: int,
                        horizons: Sequence[int], master_seed: int,
                        census: Optional[SphereCensus] = None,
                        allow_non_a0: bool = False) -> ZeroOneReport:
    """Monte Carlo dichotomy check for sum_n f(||S_n||).

    Each replica reports partial sums at every horizon (at least two, see
    check_ladder); it is stabilised (see stabilized) when the last two
    differ by < excursion_allowance(f) + EPS_REL * final.  The fraction
    should sit near 0 or near 1, never in between, for structured f with a
    definite symbolic verdict (given horizons that clear the k f(k)
    criticality; boundary exponents need longer ladders).
    """
    if norm.dim <= 2:
        raise UsageError("d <= 2 walks are recurrent; finiteness forces f = 0, "
                         "so the experiment is unsupported there")
    if not allow_non_a0 and not check_a0(step, tolerance=1e-9):
        raise UsageError("step law violates the isotropy assumption; "
                         "pass allow_non_a0=True to run anyway")
    horizons = check_ladder(horizons, "horizons", rungs=2)
    eps_abs = excursion_allowance(f)
    rows = _replica_partials(step, norm, f, horizons, replicas, master_seed)
    stab = stabilized(rows, eps_abs, EPS_REL)
    iv = None
    if census is not None:
        iv = decide_iv(f, census).verdict
    return ZeroOneReport(f_label=f.label, horizons=tuple(horizons),
                         replicas=replicas, eps_abs=float(eps_abs),
                         eps_rel=EPS_REL,
                         stabilized_fraction=float(stab.mean()),
                         stabilized=stab, partials=rows,
                         criterion_v=decide_v(f).verdict, criterion_iv=iv)


@dataclass(frozen=True)
class ExpectationReport:
    rows: tuple  # dicts: horizon, mc_mean, mc_se, census_cutoff, census_partial, ratio

    @property
    def ratios(self) -> list:
        return [r["ratio"] for r in self.rows]

    @property
    def ratio_spread(self) -> float:
        rs = self.ratios
        return max(rs) / min(rs) if min(rs) > 0 else float("inf")


def expectation_vs_criterion(step: StepDistribution, norm: NormSpec,
                             f: LevelFunction, census: SphereCensus,
                             replicas: int, horizons: Sequence[int],
                             master_seed: int) -> ExpectationReport:
    """Track E[sum_{n<=N} f(||S_n||)] against the census-side series.

    The census partial sum is cut at the diffusive reach 2 sqrt(sigma^2 N)
    for each horizon N, so convergent cases give a flat ratio trajectory
    and divergent cases show both sides growing together.  A row whose
    census_cutoff equals census.k_max compares against the whole census
    range, f(0) + sum_{k<=k_max} k^{2-d} N(k) f(k).
    """
    d = norm.dim
    horizons = check_ladder(horizons, "horizons")
    ks = np.arange(1, census.k_max + 1)
    f_ks = np.asarray(f(ks), dtype=float)
    f0 = float(np.asarray(f(np.zeros(1, dtype=np.int64)))[0])
    weights = ks.astype(float) ** (2 - d) * np.array(census.counts[1:], dtype=float)
    terms = weights * f_ks
    if f0 == 0.0 and not np.any(terms > 0):
        raise UsageError("f vanishes on the census range (0/0 ratio)")
    rows_mc = _replica_partials(step, norm, f, horizons, replicas, master_seed)
    out = []
    for j, h in enumerate(horizons):
        cutoff = min(census.k_max, max(1, int(2.0 * math.sqrt(step.sigma2 * h))))
        census_partial = f0 + float(terms[:cutoff].sum())
        mean = float(rows_mc[:, j].mean())
        se = float(rows_mc[:, j].std(ddof=1) / math.sqrt(replicas))
        ratio = mean / census_partial if census_partial > 0 else float("inf")
        out.append({"horizon": h, "mc_mean": mean, "mc_se": se,
                    "census_cutoff": cutoff, "census_partial": census_partial,
                    "ratio": ratio})
    return ExpectationReport(rows=tuple(out))
