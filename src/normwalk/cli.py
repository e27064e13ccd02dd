"""Command line interface.

Subcommands: census, simulate, green, zero-one, invariance, jeulin.
Each emits CSV rows (stdout by default) and, with --out DIR, writes the
CSV, a JSON report, and a manifest recording the fully resolved
configuration with a content hash, so a run can be reproduced exactly.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 resource
limit.  A --config FILE holds key=value lines; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, norms
from .census import census_for, count_bruteforce
from .errors import ResourceError, UsageError, VerificationError
from .green import green_dp, green_mc, spitzer_asymptotic
from .jeulin import (
    bernoulli_non_unifiable,
    limit_jeulin_harness,
    shiga3_run,
    shiga3_scenario,
    shiga5_run,
)
from .measures import invariance_surrogate
from .norms import FAMILIES, NormSpec, make_norm
from .summability import PowerLaw, PowerLog, zero_one_experiment
from .walk import (
    WalkRun,
    lattice_point,
    make_simple_walk,
    map_replicas,
    simulate,
)

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _norm_from_args(args) -> NormSpec:
    """The spec of the norm flags; a subcommand that takes
    --allow-degenerate refuses a degenerate spec without it."""
    transform = None
    if args.transform:
        transform = [_parse_int_list(row) for row in args.transform.split(";")]
    spec = make_norm(args.norm, args.dim, factor=args.factor, transform=transform)
    if spec.degenerate and not getattr(args, "allow_degenerate", True):
        raise UsageError(
            "scaled_max has empty odd levels (the monotone-census assumption "
            "fails); pass --allow-degenerate to proceed anyway")
    return spec


def _replica_count(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not >= 1")
    return int(text)


def _parse_int_list(text: str) -> list:
    """Comma-separated integers, read exactly; an integral float such as
    1e4 is allowed."""
    out = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            out.append(int(tok))
        except ValueError:
            try:
                value = float(tok)
            except ValueError:
                value = float("nan")
            if not value.is_integer():
                raise UsageError(f"{tok!r} is not an integer") from None
            out.append(int(value))
    return out


class Emitter:
    """Collects CSV rows and a JSON report; writes stdout or --out files."""

    def __init__(self, subcommand: str, out_dir: Optional[str], fmt: str,
                 config: dict):
        self.subcommand = subcommand
        self.out_dir = Path(out_dir) if out_dir else None
        self.fmt = fmt
        # the handler and the output location are not part of what is run,
        # and the handler's repr carries a per-process address
        self.config = {k: v for k, v in config.items() if k not in ("func", "out")}
        self.header: Optional[list] = None
        self.rows: list = []
        self.report: dict = {}  # finish() puts schema_version first

    def csv_rows(self, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        self.header = list(header)
        self.rows = [list(r) for r in rows]

    def _write_csv(self, fh) -> None:
        w = csv.writer(fh)
        w.writerow(self.header)
        w.writerows(self.rows)

    def finish(self) -> None:
        report = {"schema_version": SCHEMA_VERSION, **self.report}
        # (format, writer) per output; a handler that sets no rows has no CSV
        outputs = [("csv", self._write_csv)] if self.header is not None else []
        outputs.append(("json", lambda fh: _write_json(report, fh)))
        if self.out_dir is None:
            for fmt, write in outputs:
                if self.fmt in (fmt, "both"):
                    write(sys.stdout)
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for fmt, write in outputs:
            with (self.out_dir / f"{self.subcommand}.{fmt}").open("w", newline="") as fh:
                write(fh)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "tool": "normwalk",
            "version": __version__,
            "subcommand": self.subcommand,
            "config": self.config,
        }
        blob = json.dumps(manifest, sort_keys=True, default=str)
        manifest["config_hash"] = hashlib.sha256(blob.encode()).hexdigest()
        with (self.out_dir / "manifest.json").open("w") as fh:
            _write_json(manifest, fh)


def _write_json(obj: dict, fh) -> None:
    json.dump(obj, fh, indent=2, default=str)
    fh.write("\n")


# -- subcommand implementations ---------------------------------------------
# Each handler runs its library function and fills the Emitter's CSV rows
# and report; main() writes them.


def _cmd_census(args, em: Emitter) -> None:
    spec = _norm_from_args(args)
    # --verify recounts the printed census by the other method
    method, other_method = ((count_bruteforce, census_for) if args.bruteforce
                            else (census_for, count_bruteforce))
    cen = method(spec, args.kmax)
    em.csv_rows(["k", "count", "method"],
                [(k, cen[k], cen.method) for k in range(cen.k_max + 1)])
    em.report = {"spec": spec.describe(), "k_max": cen.k_max,
                 "method": cen.method}
    if args.verify:
        # up to the largest k <= 15 whose brute-force box fits the budget
        k_top = max(k for k in range(min(args.kmax, 15) + 1)
                    if norms.box_fits(spec, k))
        other = other_method(spec, k_top)
        mismatches = [(spec.describe(), k, cen[k], other[k])
                      for k in range(other.k_max + 1) if cen[k] != other[k]]
        em.report["verified"] = not mismatches
        em.report["verified_k_max"] = k_top
        em.report["mismatches"] = mismatches
        if mismatches:
            raise VerificationError(f"census oracle mismatch: {mismatches[0]}")


def _cmd_simulate(args, em: Emitter) -> None:
    spec = _norm_from_args(args)
    step = make_simple_walk(args.dim)

    def one(i: int):
        run = WalkRun(step=step, master_seed=args.seed, replica_index=i,
                      horizon=args.horizon, stop_radius=args.stop_radius)
        return simulate(run, spec)

    recs = map_replicas(one, args.replicas)
    rows = []
    for i, rec in enumerate(recs):
        for k, c in enumerate(rec.level_counts):
            if c:
                rows.append((i, k, int(c)))
    em.csv_rows(["replica", "k", "count"], rows)
    em.report = {"n_effective": [rec.n_effective for rec in recs],
                 "truncated": [rec.truncated for rec in recs]}


def _cmd_green(args, em: Emitter) -> None:
    step = make_simple_walk(args.dim)
    x = lattice_point(_parse_int_list(args.x), args.dim)
    if args.method == "asymptotic":
        value, bound = spitzer_asymptotic(step.covariance, x), None
    else:
        est = (green_dp(step, x, n_max=args.nmax, box_radius=args.box_radius)
               if args.method == "dp" else
               green_mc(step, _norm_from_args(args), x, replicas=args.replicas,
                        master_seed=args.seed))
        value, bound = est.value, est.error_bound
    em.report = {"x": list(x), "value": value, "error_bound": bound,
                 "method": args.method}
    if args.method == "mc":
        em.report["undercovered"] = est.undercovered
    em.csv_rows(["x", "value", "error_bound", "method"],
                [(" ".join(map(str, x)), value,
                  "" if bound is None else bound, args.method)])


def _cmd_zero_one(args, em: Emitter) -> None:
    spec = _norm_from_args(args)
    step = make_simple_walk(args.dim)
    if args.gamma is not None:
        f = PowerLog(beta=args.beta, gamma=args.gamma)
    else:
        f = PowerLaw(beta=args.beta)
    horizons = _parse_int_list(args.horizons)
    rep = zero_one_experiment(step, spec, f, replicas=args.replicas,
                              horizons=horizons, master_seed=args.seed,
                              census=census_for(spec, 64))
    rows = [(i, h, rep.partials[i, j])
            for i in range(args.replicas)
            for j, h in enumerate(rep.horizons)]
    em.csv_rows(["replica", "horizon", "partial_sum"], rows)
    em.report = {
        "f": f.label,
        "criterion_v": rep.criterion_v.value,
        "criterion_iv": rep.criterion_iv.value if rep.criterion_iv else None,
        "stabilized_fraction": rep.stabilized_fraction,
        "eps_abs": rep.eps_abs,
        "eps_rel": rep.eps_rel,
    }
    if args.verify and not rep.verdict_respected:
        raise VerificationError(
            f"stabilized fraction {rep.stabilized_fraction} contradicts "
            f"the symbolic verdict {rep.criterion_v.value}")


def _cmd_invariance(args, em: Emitter) -> None:
    spec = _norm_from_args(args)
    rep = invariance_surrogate(make_simple_walk(args.dim), spec,
                               _parse_int_list(args.k_ladder), args.replicas,
                               master_seed=args.seed)
    em.csv_rows(["k", "replica", "scaled_value"],
                [(k, i, v) for k, s in zip(rep.k_ladder, rep.samples)
                 for i, v in enumerate(s)])
    em.report = {
        "k_ladder": list(rep.k_ladder),
        "ks_sequence": [{"statistic": c.statistic, "noise_band": c.noise_band}
                        for c in rep.ks_sequence],
        "zero_fraction": rep.zero_fraction,
        "mean_sequence": list(rep.mean_sequence),
    }


def _laplace_report(rows: Sequence[dict]) -> dict:
    """The targets, empirical means and z-scores of Laplace rows, as lists."""
    return {"laplace_targets": [r["target"] for r in rows],
            "laplace_empirical": [r["empirical"] for r in rows],
            "z_scores": [r["z"] for r in rows]}


def _cmd_jeulin(args, em: Emitter) -> None:
    if args.scenario == "bernoulli":
        rep = bernoulli_non_unifiable()
        em.report = rep.as_dict()
        em.csv_rows(["finiteness_probability", "series_diverges"],
                    [(str(rep.finiteness_probability), rep.series_diverges)])
    elif args.scenario == "shiga3":
        ladder = sorted({max(1, args.K // 100), max(1, args.K // 10), args.K})
        rep = shiga3_run(args.alpha, ladder, args.replicas, args.seed)
        em.csv_rows(["K", "target", "empirical", "z", "divergence_fraction"],
                    [(row["K"], row["target"], row["empirical"], row["z"], fr)
                     for row, fr in zip(rep.laplace_rows,
                                        rep.divergence_fractions)])
        em.report = {**_laplace_report(rep.laplace_rows),
                     "divergence_fractions": list(rep.divergence_fractions)}
    elif args.scenario == "shiga5":
        rep = shiga5_run(args.alpha, args.levels, args.replicas, args.seed)
        em.csv_rows(["eps", "target", "empirical", "z"],
                    [(r["eps"], r["target"], r["empirical"], r["z"])
                     for r in rep.laplace_rows])
        em.report = {"phi_integral": rep.phi_integral,
                     **_laplace_report(rep.laplace_rows),
                     "partial_medians": list(rep.partial_medians)}
    else:  # harness; argparse choices admit no other scenario
        scen = shiga3_scenario(args.alpha)  # refuses alpha outside (0, 1/2)
        fam = [PowerLaw(4.0), PowerLaw(2.5), PowerLaw(1.0 / args.alpha)]
        rep = limit_jeulin_harness(scen, fam, [max(1, args.K // 100), args.K],
                                   replicas=args.replicas,
                                   master_seed=args.seed)
        em.csv_rows(["f", "series_verdict", "stabilized_fraction",
                     "implication_violated", "converse_fails"],
                    [(r.f_label, r.series_verdict.value,
                      r.stabilized_fraction, r.implication_violated,
                      r.converse_fails) for r in rep.rows])
        em.report = {"scenario": rep.scenario,
                     "implication_respected": rep.implication_respected,
                     "exhibits_converse_failure": rep.exhibits_converse_failure}
        if not rep.implication_respected:
            raise VerificationError("harness saw finite-evidence rows with a "
                                    "divergent weighted series")


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="normwalk",
                description="Norm-process experiments for transient lattice walks")
    p.add_argument("--config", help="key=value defaults file; flags override")
    sub = p.add_subparsers(dest="subcommand", required=True)

    # the shared flags; each subcommand declares those its handler reads
    shared = {
        "--dim": dict(type=int, required=True),
        # scaled-max and scaled_max are one norm, so one config_hash
        "--norm": dict(default="max", type=lambda s: s.replace("-", "_"),
                       choices=FAMILIES),
        "--factor": dict(type=int, default=1, help="scale factor for scaled-max"),
        "--transform": dict(help="unimodular matrix, rows ; separated, "
                                 "entries , separated"),
        "--allow-degenerate": dict(action="store_true"),
        "--seed": dict(type=int, default=0),
        "--out": dict(help="output directory (default: stdout)"),
        "--format": dict(choices=["csv", "json", "both"], default="csv"),
    }
    norm = ("--dim", "--norm", "--factor", "--transform")

    def common(q, *flags):
        for flag in (*flags, "--out", "--format"):
            q.add_argument(flag, **shared[flag])

    q = sub.add_parser("census", help="sphere counts N(k)")
    common(q, *norm, "--allow-degenerate")
    q.add_argument("--kmax", type=int, required=True)
    q.add_argument("--bruteforce", action="store_true")
    q.add_argument("--verify", action="store_true",
                   help="recount k <= 15, within the brute-force budget, by the "
                        "other method (brute force, or the recursion under "
                        "--bruteforce); exit 2 on mismatch")
    q.set_defaults(func=_cmd_census)

    q = sub.add_parser("simulate", help="walk replicas and level local times")
    common(q, *norm, "--seed")
    q.add_argument("--replicas", type=_replica_count, default=1)
    q.add_argument("--horizon", type=int, default=None)
    q.add_argument("--stop-radius", type=int, default=None)
    q.set_defaults(func=_cmd_simulate)

    q = sub.add_parser("green", help="Green function estimates")
    common(q, *norm, "--seed")
    q.add_argument("--x", required=True, help="lattice point, comma separated")
    q.add_argument("--method", choices=["dp", "mc", "asymptotic"], default="dp")
    q.add_argument("--nmax", type=int, default=4000)
    q.add_argument("--box-radius", type=int, default=None)
    q.add_argument("--replicas", type=_replica_count, default=20000)
    q.set_defaults(func=_cmd_green)

    q = sub.add_parser("zero-one", help="summability dichotomy experiment")
    common(q, *norm, "--allow-degenerate", "--seed")
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--gamma", type=float, default=None)
    q.add_argument("--replicas", type=_replica_count, default=200)
    q.add_argument("--horizons", default="1e4,1e5")
    q.add_argument("--verify", action="store_true",
                   help="exit 2 when the fraction contradicts the verdict")
    q.set_defaults(func=_cmd_zero_one)

    q = sub.add_parser("invariance", help="scaled local-time ladder")
    common(q, *norm, "--allow-degenerate", "--seed")
    q.add_argument("--k-ladder", default="10,20,40")
    q.add_argument("--replicas", type=_replica_count, default=500)
    q.set_defaults(func=_cmd_invariance)

    q = sub.add_parser("jeulin", help="stable-subordinator counterexamples")
    common(q, "--seed")
    q.add_argument("--scenario", required=True,
                   choices=["shiga3", "shiga5", "bernoulli", "harness"])
    q.add_argument("--alpha", type=float, default=0.4)
    q.add_argument("--K", type=int, default=10000)
    q.add_argument("--levels", type=int, default=16, help="N shiga5 cells, N - 1 rungs")
    q.add_argument("--replicas", type=_replica_count, default=5000)
    q.set_defaults(func=_cmd_jeulin)
    return p


# the store_true flags; a config line sets one with a yes/no value
_SWITCHES = ("allow-degenerate", "bruteforce", "verify")
_TRUE, _FALSE = ("true", "yes", "1"), ("false", "no", "0")


def _apply_config_file(argv: list) -> list:
    """Splice key=value entries in as flags right after the subcommand.

    Explicit command-line flags come later in argv, so they win.  A switch
    set true becomes the bare flag and one set false is left out.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = Path(argv[i + 1])
    if not path.exists():
        raise UsageError(f"config file {path} not found")
    tokens = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {line!r} is not key=value")
        key, val = line.split("=", 1)
        flag, val = key.strip().replace("_", "-"), val.strip()
        if flag not in _SWITCHES:
            tokens.extend([f"--{flag}", val])
        elif val.lower() in _TRUE:
            tokens.append(f"--{flag}")
        elif val.lower() not in _FALSE:
            raise UsageError(f"config key {key.strip()!r} is a switch: "
                             f"{val!r} is not one of {', '.join(_TRUE + _FALSE)}")
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        raise UsageError("a subcommand is required")
    return [rest[0], *tokens, *rest[1:]]


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        em = Emitter(args.subcommand, args.out, args.format, vars(args))
        try:
            args.func(args, em)
        except VerificationError:
            em.finish()  # a failed check still leaves its evidence behind
            raise
        em.finish()
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
