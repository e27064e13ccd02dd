"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload at `--size tiny`, untraced and traced, and asserts
   that every end-to-end and per-layer metric of BENCHMARK.json is printed
   with its unit, and that the layers each workload calls report nonzero
   values.  Tiny sizes are too small for some statistical gates, so the
   self-test does not ask for `correct` here.
2. Corrupts one output of each workload in memory and asserts that its
   checks then fail, so the error rate rises above 0.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

# Per-layer metrics each workload must measure (nonzero); the rest of the
# per-layer list reads 0 on that workload because it never calls the layer.
MEASURED = {
    "exit-hitting": ["walk.exit_steps_per_s", "walk.step_use_ratio",
                     "walk.exit_steps", "walk.steps_drawn",
                     "walk.replica_setup_us", "walk.draw_ns_per_step",
                     "norms.values.block_ns_per_pt.max",
                     "norms.values.block_ns_per_pt.l1_transformed",
                     "green.green_mc.s", "walk.busy_s", "green.busy_s"],
    "long-horizon": ["walk.step_use_ratio", "walk.draw_ns_per_step",
                     "walk.long_steps_per_s",
                     "norms.values.block_ns_per_pt.max",
                     "norms.values.block_ns_per_pt.l1_transformed",
                     "summability.zero_one_experiment.s",
                     "summability.zero_one_experiment.powerlaw3.max.s",
                     "summability.zero_one_experiment.powerlaw1.5.max.s",
                     "summability.zero_one_experiment.powerlog3_1.max.s",
                     "summability.zero_one_experiment.powerlaw3.l1_transformed.s",
                     "measures.scaled_samples.s",
                     "measures.distributional_cauchy.s", "norms.busy_s",
                     "summability.busy_s", "measures.busy_s"],
    "lattice-dp": ["norms.values.slab_ns_per_pt", "census.count_bruteforce.s",
                   "census.census_for.s", "green.cell_updates_per_s",
                   "green.cell_updates", "green.GreenField.s", "green.query_us",
                   "green.dp_error_ratio", "cli.census_verify.s",
                   "census.busy_s", "green.busy_s", "cli.busy_s"],
    "stable-lab": ["walk.replica_setup_us", "jeulin.stable_draws_per_s",
                   "jeulin.stable_draws", "jeulin.shiga3_run.s",
                   "jeulin.shiga5_run.s", "jeulin.laplace_check.s",
                   "jeulin.limit_jeulin_harness.s", "jeulin.busy_s"],
}


def check_printed_metrics(spec: dict) -> None:
    for workload, measured in MEASURED.items():
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"], cwd=ROOT, capture_output=True, text=True,
                timeout=170)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert list(metrics) == [m["name"] for m in listed], workload
            for m in listed:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (workload, m["name"])
                assert isinstance(got["value"], (int, float)), (workload, m["name"])
                assert any(line.split()[:1] == [m["name"]]
                           and line.split()[2:3] == [m["unit"]]
                           for line in lines[:-1]), (workload, m["name"])
            assert any(line.split()[:1] == ["error_rate"] for line in lines[:-1])
            if trace:
                zero = [n for n in measured if metrics[n]["value"] == 0]
                assert not zero, (workload, zero)
            print(f"ok  {workload} trace {trace}: {len(metrics)} metrics printed "
                  f"with units; {result['failed']} of {result['attempted']} "
                  f"checks failed at tiny size")


def _corrupt_exit(r):
    r["walk:visits"] = r["walk:visits"].copy()
    r["walk:visits"][0] = -1


def _corrupt_long(r):
    key = "summability:powerlaw3.max"
    partials = r[key].partials.copy()
    partials[0, -1] = partials[0, 0] - 1.0
    r[key] = dataclasses.replace(r[key], partials=partials)


def _corrupt_dp(r):
    est = r["green:oracle_points"][0]
    r["green:oracle_points"][0] = dataclasses.replace(
        est, value=est.value + 2 * est.error_bound)
    cen = r["census:brute"][0]
    counts = list(cen.counts)
    counts[1] += 1
    r["census:brute"][0] = dataclasses.replace(cen, counts=tuple(counts))


def _corrupt_stable(r):
    rep = r["jeulin:shiga3"]
    rows = list(rep.laplace_rows)
    rows[0] = {**rows[0], "target": rows[0]["target"] * (1 + 1e-9)}
    r["jeulin:shiga3"] = dataclasses.replace(rep, laplace_rows=tuple(rows))


def check_corruption_detected() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS

    corrupt = {"exit-hitting": _corrupt_exit, "long-horizon": _corrupt_long,
               "lattice-dp": _corrupt_dp, "stable-lab": _corrupt_stable}
    workdir = ROOT / ".perfbench_runs"
    workdir.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        inp = wl.setup(1, SIZES["tiny"], workdir)
        results = wl.run(inp, Tracer("selftest", False))
        exact = [c for c in wl.checks(inp, results) if not c.statistical]
        corrupt[name](results)
        broken = [c for c in wl.checks(inp, results) if not c.statistical]
        before = sum(not c.passed for c in exact)
        after = sum(not c.passed for c in broken)
        assert after > before, (name, before, after)
        print(f"ok  {name}: corrupted output fails {after - before} more exact "
              f"check(s); error rate {after / len(broken):.3f} > 0")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(spec)
    check_corruption_detected()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
