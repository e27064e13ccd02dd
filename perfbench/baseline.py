"""Run every workload over several seeds and summarise each end-to-end metric.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Seeds are 1..runs.  For each workload and metric it records the values,
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread (q3 - q1) / median next to the metric's bound, each run's host
scale (run.py) and the environment of the first run.  Runs are
sequential, one workload after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for name in names:
        values: dict[str, list] = {}
        host_scales = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            record = json.loads(
                (root / ".perfbench_runs" / f"{name}-s{seed}-t0.json").read_text())
            host_scales.append(record["host_scale"])
            summary.setdefault("env", record["env"])
        rows = {}
        for metric, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med, "bound": bounds[metric],
                            "values": v}
            print(f"{name:13s} {metric:16s} median {med:.4f}  q1 {q1:.4f}  "
                  f"q3 {q3:.4f}  spread {(q3 - q1) / med:.4f}  "
                  f"bound {bounds[metric]}", flush=True)
        rows["host_scale"] = host_scales
        summary["workloads"][name] = rows
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
