"""One workload in one process: set up, run timed passes, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this with BLAS/OpenMP threads capped at 1 and reads the
JSON object it prints as its last line. Passes repeat until the next one
would end after ``--seconds``; at least one runs. With ``--trace 1`` the
tracer is installed for set-up, then passes alternate untraced and traced
(at least one of each), so that the run also measures the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_FAILURES_SHOWN = 20


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # imports nsocp
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_spans = (0, tracer.mark()) if tracer else None
    untraced_s, traced_s, layers, iters = [], [], [], []
    outcomes = workloads.Outcomes()
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        loop_start = time.perf_counter()
        k = 0
        while True:
            traced = tracer is not None and k % 2 == 1
            if tracer is not None and not traced:
                tracer.uninstall()
            elif traced:
                tracer.install()
            first_span = tracer.mark() if traced else 0
            t0 = time.perf_counter()
            results = wl.run(inputs, Path(tmp) / f"pass{k}")
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                layers.append(tracing.layer_metrics(
                    tracer.spans, [setup_spans, (first_span, tracer.mark())]))
                traced_s.append(dt)
            else:
                untraced_s.append(dt)
            wl.check(inputs, results, outcomes)
            try:
                iters.append(wl.newton_iters(results))
            except Exception:  # the failed call is already counted by check
                pass
            k += 1
            enough = k >= (2 if tracer is not None else 1)
            if enough and time.perf_counter() - loop_start + dt > args.seconds:
                break

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "newton_iters": iters,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failures": outcomes.failures[:MAX_FAILURES_SHOWN],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if layers:
        out["layers"] = {name: statistics.median(run[name] for run in layers)
                         for name in layers[0]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
