"""One benchmark process: set up one workload and make one timed pass.

Started by run.py, never by hand.  Each pass runs in a fresh process, so
every pass pays what a CLI user pays (import, first-call allocation) and
no pass can reuse a cache filled by an earlier one.  The process prints
one JSON line for run.py to aggregate: set-up seconds, pass seconds, peak
RSS and a digest per result.  With `--checks 1` it also checks the outputs
and, when traced, derives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"


CALIBRATION_EVERY_S = 0.25
# +-e_i in Z^3, written out so the calibration uses no normwalk code
_UNIT_STEPS = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]


class Calibration:
    """A fixed numpy loop timed between the pass's calls.

    On a shared host the CPU speed drifts by 10-30% within seconds to
    minutes.  One rep draws 30 blocks of 8,192 steps of a 3-d walk from a
    fixed Philox stream, sums them and takes the max norm: the operations
    that dominate the workloads, at a fixed size, in code normwalk cannot
    change.  A rep runs before the pass, after any call that ends
    CALIBRATION_EVERY_S or more after the last rep, and after the pass, so
    reps sample the host about as densely as the pass does; run.py divides
    pass times by their median.  The seconds spent in reps are left out of
    the pass time.
    """

    def __init__(self):
        # not imported at the top, so that `import normwalk` pays for numpy
        # inside setup_s
        import numpy as np
        self._np = np
        self._support = np.array(_UNIT_STEPS, dtype=np.int64)
        self.reps: list[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def rep(self) -> None:
        np = self._np
        t = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
        for _ in range(30):
            np.abs(np.cumsum(self._support[rng.integers(0, 6, size=8192)], axis=0)).max(axis=1)
        self._last = time.perf_counter()
        self.reps.append(self._last - t)
        self.spent += self._last - t

    def maybe_rep(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.rep()


def _source_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _confirm(wl, seed, size, checks) -> None:
    """Re-test failed statistical gates on independent streams.

    A gate is a 3-sigma test, so at an arbitrary seed it fails by chance a
    few times in a thousand.  It counts as failed only when it also fails
    on a second set of streams derived from the same seed; a real defect
    fails both.  Exact checks get no second chance.
    """
    failed = {c.name for c in checks if c.statistical and not c.passed}
    if not failed:
        return
    inp = wl.setup(seed, size, RUNS, stream="confirm:")
    again = {c.name: c for c in wl.checks(inp, wl.run(inp, Tracer("confirm", False)))}
    for c in checks:
        if c.name in failed:
            # a tail row can be empty on the confirmation streams: no evidence
            second = again.get(c.name)
            c.passed = second is None or second.passed
            c.detail += f"; confirmation: {second.detail if second else 'no data'}"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), required=True)
    p.add_argument("--checks", type=int, choices=(0, 1), required=True)
    p.add_argument("--run-id", required=True)
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import normwalk
    import_s = time.perf_counter() - t0
    if not Path(normwalk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"normwalk imported from {normwalk.__file__}, not from src/",
              file=sys.stderr)
        return 2

    from workloads import LAYERS, SIZES, WORKLOADS, digest
    wl = WORKLOADS[args.workload]
    size = SIZES[args.size]

    t0 = time.perf_counter()
    inp = wl.setup(args.seed, size, RUNS)
    setup_s = import_s + time.perf_counter() - t0

    calibration = Calibration()
    calibration.rep()
    tracer = Tracer(args.run_id, bool(args.traced), after_call=calibration.maybe_rep)
    t0 = time.perf_counter()
    with tracer.span(f"workload.{args.workload}"):
        results = wl.run(inp, tracer)
    wall_s = time.perf_counter() - t0 - calibration.spent
    calibration.rep()
    out = {"setup_s": setup_s, "wall_s": wall_s, "calibration_s": calibration.reps,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "digests": {k: digest(v) for k, v in results.items()}}

    if args.checks:
        t0 = time.perf_counter()
        checks = wl.checks(inp, results)
        _confirm(wl, args.seed, size, checks)
        if args.traced:
            seconds = tracer.durations()
            layer, extra = wl.traced(inp, results, seconds)
            checks.extend(extra)
            for name in LAYERS:
                layer[f"{name}.busy_s"] = sum(v for k, v in seconds.items()
                                              if k.startswith(name + "."))
            out["layer"] = layer
            out["calls"] = len(tracer.spans) - 1
        out["checks"] = [vars(c) for c in checks]
        out["env"] = {"python": sys.version.split()[0],
                      "numpy": sys.modules["numpy"].__version__,
                      "scipy": sys.modules["scipy"].__version__,
                      "nproc": os.cpu_count(), "src_lines": _source_lines()}
        out["check_s"] = time.perf_counter() - t0
    if args.traced:
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
