"""normwalk benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exit-hitting --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json: exit-hitting, long-horizon,
lattice-dp, stable-lab (perfbench/README.md says why each exists).  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
Metric names and units come from BENCHMARK.json at the checkout root.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `attempted` and `failed` count
correctness checks.  Run records and spans go to `.perfbench_runs/`.

This process imports only the standard library.  It starts worker
processes one after another, each making one timed pass, and waits for
each to end, until `--seconds` are used.  With `--trace 1` the passes
alternate untraced and traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170   # every worker must have ended by then
# Median seconds of one worker calibration rep on the 2-core x86 box the
# baseline was measured on.  Times are rescaled to that host speed.
CALIBRATION_REF_S = 0.016


class WorkerError(RuntimeError):
    pass


def _worker(root: Path, args, traced: bool, checks: bool, run_id: str,
            deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--traced", str(int(traced)), "--checks", str(int(checks)),
           "--run-id", run_id]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"a worker ran past the {RUN_LIMIT_S} s limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = traced
    return out


def _passes(root: Path, args) -> list:
    """Worker outputs, one per process, until --seconds are used.

    The first untraced pass (first traced pass with --trace 1) also checks
    the outputs.  A next pass starts only if a pass like the last, without
    its checks, still fits in --seconds.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes, longest = [], 0.0
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 1
        t = time.monotonic()
        out = _worker(root, args, traced, i == args.trace,
                      f"{args.workload}-s{args.seed}-p{i}", deadline)
        passes.append(out)
        longest = max(longest, time.monotonic() - t - out.get("check_s", 0.0))
        if len(passes) > args.trace and time.monotonic() - start + longest > args.seconds:
            return passes


def _host_scale(passes: list) -> float:
    """Factor that rescales this run's times to the reference host speed.

    On a shared host the CPU speed drifts by 10-30% within seconds to
    minutes.  Every worker times a fixed numpy loop between the calls of
    its pass (worker.Calibration); the loop slows with the host, and
    normwalk code cannot change its time.  Its median over the run samples
    the host as the passes do, so dividing by it cancels the drift.
    """
    reps = [t for out in passes for t in out["calibration_s"]]
    return CALIBRATION_REF_S / statistics.median(reps)


def _median(passes: list, key: str) -> float:
    return statistics.median(out[key] for out in passes)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for perfbench/selftest.py")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "normwalk" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a normwalk checkout: src/normwalk and "
              "BENCHMARK.json are required", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {names}")
    runs = root / ".perfbench_runs"
    runs.mkdir(exist_ok=True)

    try:
        passes = _passes(root, args)
    except (WorkerError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    checker = next(out for out in passes if "checks" in out)
    checks = checker["checks"]
    for key, d in checker["digests"].items():
        checks.append({"layer": key.split(":")[0],
                       "name": f"{key} identical in every process",
                       "passed": all(out["digests"][key] == d for out in passes),
                       "statistical": False, "detail": ""})
    failed = [c for c in checks if not c["passed"]]
    plain = [out for out in passes if not out["traced"]]
    scale = _host_scale(passes)
    if args.trace:
        layer = checker["layer"]
        layer["trace.overhead_s"] = scale * (
            _median([out for out in passes if out["traced"]], "wall_s")
            - _median(plain, "wall_s"))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unlisted = sorted(set(layer) - set(units))
        if unlisted:
            print(f"metrics missing from BENCHMARK.json: {unlisted}", file=sys.stderr)
            return 1
        for c in failed:
            name = f"{c['layer']}.checks_failed"
            layer[name] = layer.get(name, 0) + 1
        # a layer this workload never calls did no work and took no time
        metrics = {n: _metric(layer.get(n, 0), u) for n, u in units.items()}
        with (runs / f"spans-{args.workload}-s{args.seed}.jsonl").open("w") as fh:
            for out in passes:
                for span in out.pop("spans", []):
                    fh.write(json.dumps(span) + "\n")
    else:
        values = {"wall_s": scale * _median(plain, "wall_s"),
                  "setup_s": scale * _median(passes, "setup_s"),
                  "peak_rss_mb": _median(plain, "peak_rss_mb"),
                  "check_pass_rate": 1 - len(failed) / len(checks)}
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in spec["end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "metrics": metrics, "checks": checks,
              "env": checker["env"], "calls": checker.get("calls"), "host_scale": scale,
              "passes": [{k: out[k] for k in ("traced", "setup_s", "wall_s", "peak_rss_mb",
                                              "calibration_s")}
                         for out in passes],
              "digests": checker["digests"]}
    (runs / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    digest = hashlib.sha256(json.dumps(checker["digests"], sort_keys=True).encode())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"processes {len(passes)}  (closed loop, 1 caller, threads=1)")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':48s} {len(failed) / len(checks):.6g} ratio "
          f"({len(failed)} of {len(checks)} checks failed)")
    print(f"  host scale {scale:.4f}; unscaled medians: wall {_median(plain, 'wall_s'):.4f} s, "
          f"setup {_median(passes, 'setup_s'):.4f} s")
    for c in failed:
        print(f"  FAILED [{c['layer']}] {c['name']}: {c['detail']}")
    print(f"  result digest sha256 {digest.hexdigest()}")
    print("  env " + " ".join(f"{k} {v}" for k, v in checker["env"].items()))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
