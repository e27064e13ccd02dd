"""The four benchmark workloads: inputs, timed calls, checks and work counts.

Each workload is a closed loop: one caller, `threads=1`, each call into
normwalk's public functions made only after the previous one returns.
Every call goes through `Tracer.call`, so a traced run gets one span per
call and an untraced run pays one extra Python call.

A workload has four parts:

* ``setup(seed, size, workdir, stream)`` builds the inputs: step laws,
  norms, census tables, level functions and master seeds derived from the
  benchmark seed.  It is timed as part of ``setup_s``.
* ``run(inputs, tracer)`` is the timed phase.  It returns a dict of results
  keyed ``"<layer>:<label>"``.
* ``checks(inputs, results)`` returns the correctness checks behind the
  error rate: exact oracles first, then statistical gates.
* ``traced(inputs, results, seconds)`` runs in traced runs only, outside
  the timed phase.  It turns span seconds into per-layer metrics, computes
  work counts, runs the layer probes and returns any check they need.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import ive

import normwalk as nw
from normwalk import cli
from normwalk.census import census_for, count_bruteforce
from normwalk.green import GreenField, green_mc, green_vs_hitting
from normwalk.jeulin import (
    laplace_check,
    limit_jeulin_harness,
    shiga3_run,
    shiga3_scenario,
    shiga5_run,
)
from normwalk.measures import distributional_cauchy, scaled_samples
from normwalk.norms import iter_box_slabs
from normwalk.summability import PowerLaw, PowerLog, Verdict, zero_one_experiment
from normwalk.walk import (
    WalkRun,
    geometric_tail_report,
    hitting_probability,
    replica_rng,
    simulate,
    site_visit_samples,
)

LAYERS = ("norms", "census", "walk", "green", "summability", "measures",
          "jeulin", "cli")
UNIMODULAR = [[1, -1, 0], [0, 1, -1], [1, -1, 1]]

# Parameters that give each workload its character; they do not scale.
K_CUT = 64
# site_visit_samples' chunk for k_cut 64: min(max(2048, 2 k_cut^2), 2^17).
EXIT_CHUNK = 8192
# simulate's default chunk, which the zero-one horizons run in.
LONG_CHUNK = 1 << 15
HORIZONS = (10 ** 4, 10 ** 5)
SCALED_LADDER = (4, 8, 16)
SHIGA3_LADDER = (100, 1_000, 10_000)
HARNESS_LADDER = (100, 1_000)
LAMBDAS = (0.5, 1.0, 2.0)
TAIL_MIN_COUNT = 30  # replicas at level n before its tail ratio is tested
STABLE_ALPHA = 0.4
SHIGA5_LEVELS = 16

# Replica counts and DP size: "full" gives about 3 s per timed pass on a
# 2-core x86 box; "tiny" exists for the self-test.
SIZES = {
    "full": {"exit_replicas": 500, "zero_one_replicas": 50,
             "scaled_replicas": 200, "n_max": 1000,
             "laplace_draws": 100_000, "shiga3_replicas": 2000,
             "shiga5_replicas": 2000, "harness_replicas": 500},
    "tiny": {"exit_replicas": 20, "zero_one_replicas": 4,
             "scaled_replicas": 100, "n_max": 100,
             "laplace_draws": 10_000, "shiga3_replicas": 100,
             "shiga5_replicas": 100, "harness_replicas": 50},
}


@dataclass
class Check:
    layer: str
    name: str
    passed: bool
    detail: str = ""
    statistical: bool = False

    def __post_init__(self):
        self.passed = bool(self.passed)  # numpy comparisons give np.bool_


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    checks: Callable
    traced: Callable


def derive_seed(seed: int, label: str) -> int:
    """A nonnegative 63-bit master seed for one call, keyed by its label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _seeds(seed: int, stream: str, labels) -> dict:
    return {label: derive_seed(seed, stream + label) for label in labels}


def digest(obj) -> str:
    """sha256 of a result: arrays by dtype, shape and bytes; floats exactly."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=str):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for v in obj:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(obj, float):
        h.update(float(obj).hex().encode())
    else:
        h.update(repr(obj).encode())


def green_exact(x) -> float:
    """G(0,x) = sum_{n>=1} P(S_n = x) for the simple walk on Z^d, d >= 3.

    Continuous-time representation (Lawler & Limic, Random Walk: A Modern
    Introduction, 2010, ch. 4): the walk jumping at rate 1 has
    P_t(0,x) = prod_i e^{-t/d} I_{|x_i|}(t/d), and its time integral is
    the discrete Green function including the n = 0 term.
    """
    a = [abs(int(v)) for v in x]
    d = len(a)
    val = quad(lambda t: math.prod(ive(v, t / d) for v in a), 0, np.inf,
               epsabs=1e-13, epsrel=1e-12, limit=500)[0]
    return val - (1.0 if not any(a) else 0.0)


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def probe_replica_setup_us(step, n: int = 2000) -> float:
    """Microseconds per replica_rng + StepDistribution.sampler."""
    t = time.perf_counter()
    for i in range(n):
        step.sampler(replica_rng(1, i))
    return (time.perf_counter() - t) / n * 1e6


def probe_draw_ns(step, block: int) -> float:
    """Nanoseconds per step drawn by the sampler at a given block size."""
    draw = step.sampler(replica_rng(2, 0))
    return _median_seconds(lambda: draw(block), 31) / block * 1e9


def probe_block_ns(step, norm, block: int) -> float:
    """Nanoseconds per point of norm.values on one walk block."""
    pts = np.cumsum(step.sampler(replica_rng(3, 0))(block), axis=0)
    return _median_seconds(lambda: norm.values(pts), 31) / block * 1e9


def probe_slab_ns() -> float:
    """Nanoseconds per point of norm.values on a brute-force census slab.

    The slab is the first one count_bruteforce enumerates for d = 4 at
    k = 15 (about 0.9M points); max, l1 and w1 are timed in turn.
    """
    slab = next(iter_box_slabs(4, 15))
    specs = [nw.make_norm(fam, 4) for fam in ("max", "l1", "w1")]
    total = sum(_median_seconds(lambda s=s: s.values(slab), 5) for s in specs)
    return total / (len(specs) * len(slab)) * 1e9


def _sum(seconds: dict, prefix: str) -> float:
    return sum(v for k, v in seconds.items() if k.startswith(prefix))


# -- exit-hitting --------------------------------------------------------------

X1, X2 = (1, 0, 0), (2, 1, 0)


def exit_setup(seed, size, workdir, stream=""):
    return {"step": nw.make_simple_walk(3), "norm": nw.make_norm("max", 3),
            "replicas": size["exit_replicas"],
            "seeds": _seeds(seed, stream,
                            ("p0", "p1", "p2", "g1", "g2", "visits"))}


def exit_run(inp, tr):
    step, norm, n, sd = inp["step"], inp["norm"], inp["replicas"], inp["seeds"]
    r = {}
    for tag, x in (("0", (0, 0, 0)), ("1", X1), ("2", X2)):
        r[f"walk:p{tag}"] = tr.call(
            "walk.hitting_probability", hitting_probability, step, norm, x,
            replicas=n, master_seed=sd[f"p{tag}"], k_cut=K_CUT)
    p0 = r["walk:p0"]
    for tag, x in (("1", X1), ("2", X2)):
        g = tr.call("green.green_mc", green_mc, step, norm, x, replicas=n,
                    master_seed=sd[f"g{tag}"], k_cut=K_CUT)
        px = r[f"walk:p{tag}"]
        r[f"green:g{tag}"] = g
        r[f"green:gvh{tag}"] = tr.call(
            "green.green_vs_hitting", green_vs_hitting, g.value,
            g.error_bound / 3, px.p_hat, px.std_error, p0.p_hat, p0.std_error)
    visits = tr.call("walk.site_visit_samples", site_visit_samples, step, norm,
                     X1, replicas=n, master_seed=sd["visits"], k_cut=K_CUT)
    r["walk:visits"] = visits
    r["walk:tail"] = tr.call("walk.geometric_tail_report",
                             geometric_tail_report, visits, n_max=4)
    return r


def exit_checks(inp, r):
    visits, p0 = r["walk:visits"], r["walk:p0"]
    out = [
        Check("walk", "visit counts are nonnegative integers",
              bool(np.issubdtype(visits.dtype, np.integer)
                   and visits.min(initial=0) >= 0)),
        Check("walk", "hitting estimates are probabilities",
              all(0.0 <= r[f"walk:p{t}"].p_hat <= 1.0 for t in "012")),
        Check("walk", "tail counts recount the visit samples",
              all(row["count"] == int((visits >= row["n"]).sum())
                  for row in r["walk:tail"])),
    ]
    for tag in "12":
        rep = r[f"green:gvh{tag}"]
        out.append(Check("green", f"green_vs_hitting passes at x{tag}",
                         rep.passed,
                         f"gap {rep.gap:.4g} vs sigma {rep.combined_sigma:.4g}",
                         statistical=True))
    # The binomial standard error needs enough replicas at level n: with a
    # handful, a ratio of 0 gives a standard error of 0 and a false alarm.
    for row in r["walk:tail"]:
        if row["count"] < TAIL_MIN_COUNT:
            continue
        band = 3 * (row["ratio_se"] + p0.std_error)
        out.append(Check("walk", f"tail ratio n={row['n']} matches p(0)",
                         abs(row["ratio"] - p0.p_hat) <= band,
                         f"{row['ratio']:.4f} vs {p0.p_hat:.4f} +- {band:.4f}",
                         statistical=True))
    return out


def exit_traced(inp, r, seconds):
    """Replay the site_visit_samples replicas to count exit steps.

    simulate with the same chunk draws the same stream, so its site count
    at x must equal site_visit_samples' count; that confirms the replay.
    """
    step, norm, n = inp["step"], inp["norm"], inp["replicas"]
    exits = np.empty(n, dtype=np.int64)
    mismatched = 0
    for i in range(n):
        run = WalkRun(step=step, master_seed=inp["seeds"]["visits"],
                      replica_index=i, stop_radius=K_CUT)
        rec = simulate(run, norm, track_sites=True, chunk=EXIT_CHUNK)
        exits[i] = rec.n_effective
        mismatched += rec.site(X1) != r["walk:visits"][i]
    # computed: each replica draws whole chunks until the one it exits in
    drawn = -(-exits // EXIT_CHUNK) * EXIT_CHUNK
    metrics = {
        "walk.exit_steps": int(exits.sum()),
        "walk.steps_drawn": int(drawn.sum()),
        "walk.step_use_ratio": float(exits.sum() / drawn.sum()),
        "walk.exit_steps_per_s": float(exits.sum())
        / seconds["walk.site_visit_samples"],
        "green.green_mc.s": seconds["green.green_mc"],
        "walk.replica_setup_us": probe_replica_setup_us(step),
        "walk.draw_ns_per_step": probe_draw_ns(step, EXIT_CHUNK),
        "norms.values.block_ns_per_pt.max": probe_block_ns(step, norm, EXIT_CHUNK),
        "norms.values.block_ns_per_pt.l1_transformed": probe_block_ns(
            step, nw.make_norm("l1", 3, transform=UNIMODULAR), EXIT_CHUNK),
    }
    check = Check("walk", "replayed site counts equal site_visit_samples",
                  mismatched == 0, detail=f"{mismatched} of {n} differ")
    return metrics, [check]


# -- long-horizon --------------------------------------------------------------

def long_setup(seed, size, workdir, stream=""):
    max3 = nw.make_norm("max", 3)
    l1t = nw.make_norm("l1", 3, transform=UNIMODULAR)
    cen = {"max": census_for(max3, 40), "l1t": census_for(l1t, 40)}
    rng = np.random.default_rng(derive_seed(seed, stream + "norm-points"))
    return {"step": nw.make_simple_walk(3), "max3": max3, "l1t": l1t,
            # (label, f, norm, census, known verdict)
            "battery": (
                ("powerlaw3.max", PowerLaw(3.0), max3, cen["max"], Verdict.CONVERGES),
                ("powerlaw1.5.max", PowerLaw(1.5), max3, cen["max"], Verdict.DIVERGES),
                ("powerlog3_1.max", PowerLog(3.0, 1.0), max3, cen["max"],
                 Verdict.CONVERGES),
                ("powerlaw3.l1_transformed", PowerLaw(3.0), l1t, cen["l1t"],
                 Verdict.CONVERGES)),
            "norm_points": rng.integers(-60, 61, size=(200, 3)),
            "zero_one_replicas": size["zero_one_replicas"],
            "scaled_replicas": size["scaled_replicas"],
            # one seed for every f, as in the acceptance battery: the four
            # zero-one calls walk the same paths
            "seeds": _seeds(seed, stream, ("zero-one", "ks")
                            + tuple(f"scaled{k}" for k in SCALED_LADDER))}


def long_run(inp, tr):
    step, sd = inp["step"], inp["seeds"]
    r = {}
    for label, f, norm, census, _ in inp["battery"]:
        r[f"summability:{label}"] = tr.call(
            f"summability.zero_one_experiment:{label}", zero_one_experiment,
            step, norm, f, replicas=inp["zero_one_replicas"],
            horizons=HORIZONS, master_seed=sd["zero-one"], census=census)
    samples = {}
    for k in SCALED_LADDER:
        samples[k] = tr.call(f"measures.scaled_samples:k{k}", scaled_samples,
                             step, inp["max3"], k,
                             replicas=inp["scaled_replicas"],
                             master_seed=sd[f"scaled{k}"])
        r[f"measures:scaled{k}"] = samples[k]
    for j, (a, b) in enumerate(zip(SCALED_LADDER, SCALED_LADDER[1:])):
        r[f"measures:ks{a}_{b}"] = tr.call(
            "measures.distributional_cauchy", distributional_cauchy,
            samples[a].samples, samples[b].samples, seed=sd["ks"] + j)
    r["norms:values"] = {name: tr.call("norms.values", inp[name].values,
                                       inp["norm_points"])
                         for name in ("max3", "l1t")}
    return r


def long_checks(inp, r):
    out = []
    for name in ("max3", "l1t"):
        norm = inp[name]
        exact = [norm.value(p) for p in inp["norm_points"].tolist()]
        out.append(Check("norms", f"{name} values equal the exact value",
                         r["norms:values"][name].tolist() == exact))
    for label, *_, verdict in inp["battery"]:
        rep = r[f"summability:{label}"]
        p = rep.partials
        out.append(Check("summability",
                         f"{label} partial sums nonnegative and nondecreasing",
                         bool(np.all(p >= 0) and np.all(np.diff(p, axis=1) >= 0))))
        out.append(Check("summability", f"{label} symbolic verdicts",
                         rep.criterion_v == verdict and rep.criterion_iv == verdict,
                         f"V {rep.criterion_v}, IV {rep.criterion_iv}"))
        out.append(Check("summability", f"{label} stabilised fraction avoids [0.2, 0.8]",
                         rep.dichotomy_respected,
                         f"fraction {rep.stabilized_fraction:.3f}", statistical=True))
    for k in SCALED_LADDER:
        s = r[f"measures:scaled{k}"]
        raw = s.samples * (float(k) ** (2 - s.spec.dim) * s.n_level)
        out.append(Check("measures", f"k={k} local times are nonnegative integers",
                         bool(np.all(raw >= 0) and np.allclose(raw, np.round(raw),
                                                               rtol=0, atol=1e-6))))
        # the simple walk moves the max norm by at most 1 per step, so it
        # crosses every level below k_cut before it exits
        out.append(Check("measures", f"k={k} every replica visits level k",
                         s.zero_fraction == 0.0))
    ks = [r[f"measures:ks{a}_{b}"]
          for a, b in zip(SCALED_LADDER, SCALED_LADDER[1:])]
    for small, big in zip(ks, ks[1:]):
        band = math.hypot(small.noise_band, big.noise_band)
        out.append(Check("measures", "KS sequence stays within its band",
                         big.statistic <= small.statistic + band,
                         f"{small.statistic:.3f} -> {big.statistic:.3f} (band {band:.3f})",
                         statistical=True))
    return out


def long_traced(inp, r, seconds):
    step = inp["step"]
    zero_one = _sum(seconds, "summability.zero_one_experiment:")
    steps = len(inp["battery"]) * inp["zero_one_replicas"] * HORIZONS[-1]
    metrics = {
        "summability.zero_one_experiment.s": zero_one,
        "walk.long_steps_per_s": steps / zero_one,
        # computed: simulate draws min(chunk, steps left), so a horizon run
        # uses every step it draws
        "walk.step_use_ratio": 1.0,
        "measures.scaled_samples.s": _sum(seconds, "measures.scaled_samples:"),
        "measures.distributional_cauchy.s": seconds["measures.distributional_cauchy"],
        "walk.draw_ns_per_step": probe_draw_ns(step, LONG_CHUNK),
        "norms.values.block_ns_per_pt.max": probe_block_ns(step, inp["max3"], LONG_CHUNK),
        "norms.values.block_ns_per_pt.l1_transformed": probe_block_ns(
            step, inp["l1t"], LONG_CHUNK),
    }
    for label, *_ in inp["battery"]:
        metrics[f"summability.zero_one_experiment.{label}.s"] = seconds[
            f"summability.zero_one_experiment:{label}"]
    return metrics, []


# -- lattice-dp ----------------------------------------------------------------

def _shell_points(lo2: int, hi2: int, reach: int) -> list:
    return [(a, b, c) for a in range(-reach, reach + 1)
            for b in range(-reach, reach + 1) for c in range(-reach, reach + 1)
            if lo2 <= a * a + b * b + c * c <= hi2]


def dp_setup(seed, size, workdir, stream=""):
    n_max = size["n_max"]
    query = _shell_points(9, 36, 6)
    rng = np.random.default_rng(derive_seed(seed, stream + "oracle-points"))
    picks = rng.choice(len(query), size=5, replace=False)
    specs = [nw.make_norm(fam, d) for d in (2, 3, 4) for fam in ("max", "l1", "w1")]
    specs.append(nw.make_norm("l1", 3, transform=UNIMODULAR))
    return {"step": nw.make_simple_walk(3), "n_max": n_max,
            "radius": round(0.8 * math.sqrt(n_max)), "query": query,
            # the origin plus five query points chosen by the seed
            "oracle_points": [(0, 0, 0)] + [query[i] for i in sorted(picks)],
            "max3": nw.make_norm("max", 3), "specs": specs,
            "big_specs": (nw.make_norm("l1", 3), nw.make_norm("w1", 3)),
            "workdir": workdir}


def dp_run(inp, tr):
    r = {}
    field = tr.call("green.GreenField", GreenField, inp["step"],
                    n_max=inp["n_max"], box_radius=inp["radius"])
    r["green:partial"] = field.partial
    r["green:query"] = [tr.call("green.green", field.green, x)
                        for x in inp["query"]]
    r["green:oracle_points"] = [tr.call("green.green", field.green, x)
                                for x in inp["oracle_points"]]
    r["green:level_sums"] = [tr.call("green.level_sum", field.level_sum,
                                     inp["max3"], k) for k in (1, 2, 3)]
    r["census:fast"] = [tr.call("census.census_for", census_for, s, 15)
                        for s in inp["specs"]]
    r["census:brute"] = [tr.call("census.count_bruteforce", count_bruteforce, s, 15)
                         for s in inp["specs"]]
    r["census:big"] = [tr.call("census.census_for", census_for, s, 500)
                       for s in inp["big_specs"]]
    out = Path(tempfile.mkdtemp(prefix="cli-", dir=inp["workdir"]))
    try:
        code = tr.call("cli.census_verify", cli.main,
                       ["census", "--norm", "l1", "--dim", "3", "--kmax", "15",
                        "--verify", "--out", str(out)])
        report = json.loads((out / "census.json").read_text())
        with (out / "census.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    finally:
        shutil.rmtree(out)
    r["cli:census"] = {"code": code, "verified": report.get("verified"),
                       "counts": [int(row["count"]) for row in rows]}
    return r


def dp_oracle_ratios(inp, r) -> list:
    """(point, realised error / claimed error_bound) at the oracle points."""
    return [(x, abs(est.value - green_exact(x)) / est.error_bound)
            for x, est in zip(inp["oracle_points"], r["green:oracle_points"])]


def dp_checks(inp, r):
    out = [Check("census", f"{s.describe()} fast counts equal brute force",
                 fast.counts == brute.counts)
           for s, fast, brute in zip(inp["specs"], r["census:fast"], r["census:brute"])]
    l1, w1 = r["census:big"]
    out.append(Check("census", "l1 d=3 N(500) = 4k^2 + 2",
                     l1[500] == 4 * 500 ** 2 + 2, f"{l1[500]}"))
    out.append(Check("census", "w1 d=3 N(500) within 5% of (2/3) k^2",
                     abs(w1[500] / (2 / 3 * 500 ** 2) - 1) <= 0.05, f"{w1[500]}"))
    for x, ratio in dp_oracle_ratios(inp, r):
        out.append(Check("green", f"DP G{x} within error_bound of the Bessel integral",
                         ratio <= 1.0, f"realised/claimed {ratio:.4g}"))
    const = 3 / (2 * math.pi)  # Spitzer constant for d = 3, sigma^2 = 1/3
    worst = max(abs(math.sqrt(sum(v * v for v in x)) * est.value / const - 1)
                for x, est in zip(inp["query"], r["green:query"]))
    out.append(Check("green", "|x| G(x) within 10% of the Spitzer constant",
                     worst <= 0.10, f"worst deviation {worst:.4f}"))
    res = r["cli:census"]
    fast = census_for(nw.make_norm("l1", 3), 15)
    out.append(Check("cli", "census --verify exits 0 and reports verified",
                     res["code"] == 0 and res["verified"] is True))
    out.append(Check("cli", "census CSV equals census_for",
                     res["counts"] == list(fast.counts)))
    return out


def dp_traced(inp, r, seconds):
    n_q = len(inp["query"]) + len(inp["oracle_points"])
    gf = seconds["green.GreenField"]
    # computed: every step updates each atom's shifted copy of the box
    cells = inp["n_max"] * (2 * inp["radius"] + 1) ** 3 * len(inp["step"].support)
    return {
        "green.GreenField.s": gf,
        "green.cell_updates": cells,
        "green.cell_updates_per_s": cells / gf,
        "green.query_us": seconds["green.green"] / n_q * 1e6,
        "green.dp_error_ratio": max(q for _, q in dp_oracle_ratios(inp, r)),
        "census.census_for.s": seconds["census.census_for"],
        "census.count_bruteforce.s": seconds["census.count_bruteforce"],
        "cli.census_verify.s": seconds["cli.census_verify"],
        "norms.values.slab_ns_per_pt": probe_slab_ns(),
    }, []


# -- stable-lab ----------------------------------------------------------------

def stable_setup(seed, size, workdir, stream=""):
    return {"alphas": (0.3, 0.5), "draws": size["laplace_draws"],
            "shiga3_replicas": size["shiga3_replicas"],
            "shiga5_replicas": size["shiga5_replicas"],
            "harness_replicas": size["harness_replicas"],
            "scenario": shiga3_scenario(STABLE_ALPHA),
            "f_family": (PowerLaw(2.0), PowerLaw(2.5), PowerLaw(3.0)),
            "step": nw.make_simple_walk(3),
            "seeds": _seeds(seed, stream, ("laplace0.3", "laplace0.5", "shiga3",
                                           "shiga5", "harness"))}


def stable_run(inp, tr):
    sd = inp["seeds"]
    r = {}
    for a in inp["alphas"]:
        r[f"jeulin:laplace{a}"] = tr.call(
            "jeulin.laplace_check", laplace_check, a, LAMBDAS,
            draws=inp["draws"], master_seed=sd[f"laplace{a}"])
    r["jeulin:shiga3"] = tr.call("jeulin.shiga3_run", shiga3_run, STABLE_ALPHA,
                                 SHIGA3_LADDER, replicas=inp["shiga3_replicas"],
                                 master_seed=sd["shiga3"], threshold=10.0)
    r["jeulin:shiga5"] = tr.call("jeulin.shiga5_run", shiga5_run, STABLE_ALPHA,
                                 SHIGA5_LEVELS, replicas=inp["shiga5_replicas"],
                                 master_seed=sd["shiga5"])
    r["jeulin:harness"] = tr.call(
        "jeulin.limit_jeulin_harness", limit_jeulin_harness, inp["scenario"],
        inp["f_family"], HARNESS_LADDER, replicas=inp["harness_replicas"],
        master_seed=sd["harness"])
    return r


def stable_checks(inp, r):
    s3, s5 = r["jeulin:shiga3"], r["jeulin:shiga5"]
    h100 = math.fsum(1.0 / k for k in range(1, 101))
    row100 = s3.laplace_rows[0]
    out = [
        Check("jeulin", "shiga3 target at K=100 equals exp(-H_100)",
              math.isclose(row100["target"], math.exp(-h100), rel_tol=1e-12)),
        Check("jeulin", "shiga3 weighted series partial below zeta bound",
              s3.weighted_series_partial <= s3.weighted_series_bound),
        Check("jeulin", "shiga5 phi integral closed form equals quadrature",
              math.isclose(s5.phi_integral, s5.phi_integral_quad, rel_tol=1e-6)),
        Check("jeulin", "laplace targets equal exp(-lambda^alpha)",
              all(math.isclose(row["target"], math.exp(-row["lambda"] ** a),
                               rel_tol=1e-12)
                  for a in inp["alphas"] for row in r[f"jeulin:laplace{a}"])),
    ]
    for a in inp["alphas"]:
        zs = [row["z"] for row in r[f"jeulin:laplace{a}"]]
        out.append(Check("jeulin", f"laplace_check alpha={a} |z| <= 3",
                         all(abs(z) <= 3.0 for z in zs),
                         f"z {[round(z, 2) for z in zs]}", statistical=True))
    out.append(Check("jeulin", "shiga3 K=100 functional |z| <= 3",
                     abs(row100["z"]) <= 3.0, f"z {row100['z']:.2f}",
                     statistical=True))
    fr = s3.divergence_fractions
    out.append(Check("jeulin", "shiga3 divergence fractions increase",
                     all(a < b for a, b in zip(fr, fr[1:])), f"{fr}",
                     statistical=True))
    out.append(Check("jeulin", "harness respects the forward implication",
                     r["jeulin:harness"].implication_respected,
                     statistical=True))
    return out


def stable_traced(inp, r, seconds):
    s3 = seconds["jeulin.shiga3_run"]
    return {
        "jeulin.shiga3_run.s": s3,
        "jeulin.stable_draws_per_s": inp["shiga3_replicas"] * SHIGA3_LADDER[-1] / s3,
        "jeulin.shiga5_run.s": seconds["jeulin.shiga5_run"],
        "jeulin.laplace_check.s": seconds["jeulin.laplace_check"],
        "jeulin.limit_jeulin_harness.s": seconds["jeulin.limit_jeulin_harness"],
        # computed from the call arguments: laplace draws, shiga3 K_top per
        # replica, shiga5 one draw per level plus X(upper), harness K_top
        "jeulin.stable_draws": (len(inp["alphas"]) * inp["draws"]
                                + inp["shiga3_replicas"] * SHIGA3_LADDER[-1]
                                + inp["shiga5_replicas"] * (SHIGA5_LEVELS + 1)
                                + inp["harness_replicas"] * HARNESS_LADDER[-1]),
        "walk.replica_setup_us": probe_replica_setup_us(inp["step"]),
    }, []


WORKLOADS = {
    "exit-hitting": Workload(exit_setup, exit_run, exit_checks, exit_traced),
    "long-horizon": Workload(long_setup, long_run, long_checks, long_traced),
    "lattice-dp": Workload(dp_setup, dp_run, dp_checks, dp_traced),
    "stable-lab": Workload(stable_setup, stable_run, stable_checks, stable_traced),
}
