"""Benchmark entry point for the nsocp package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs in its own
process (``worker.py``) with BLAS/OpenMP threads capped at 1. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run instead. Lines above it give a readable summary and the run
manifest. ``setup_s`` is the median of several set-ups, each in a fresh
process. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("kkt-fine", "sweep-coarse", "certify")
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# fresh-process set-ups per run, the measured run's own included
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

# name -> (unit, kind)
END_TO_END = {
    "wall_s": ("s", "timing"),
    "setup_s": ("s", "timing"),
    "peak_rss_mb": ("MB", "size"),
    "newton_iters": ("count", "count"),
}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    env = {**os.environ, **THREAD_CAPS}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    """HEAD of the checkout's own repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nsocp").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _manifest(args, versions: dict, kinds: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **versions,
        "thread_caps": THREAD_CAPS,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "metric_kinds": kinds,
    }


def _metric_lines(metrics: dict, kinds: dict) -> list[str]:
    return [f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {kinds[name]}"
            for name, m in metrics.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nsocp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nsocp" / "__init__.py").is_file():
        print(f"perfbench: no nsocp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(common + ["--setup-only"],
                                      deadline - time.monotonic())["setup_s"])
        res = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      deadline - time.monotonic())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        import tracer
        kinds = {name: spec[1] for name, spec in tracer.LAYER_METRICS.items()}
        kinds["trace.overhead_s"] = "timing"
        metrics = {name: {"value": res["layers"][name], "unit": spec[0]}
                   for name, spec in tracer.LAYER_METRICS.items()}
        overhead = statistics.median(res["traced_pass_s"]) - statistics.median(res["pass_s"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        kinds = {name: spec[1] for name, spec in END_TO_END.items()}
        setups.append(res["setup_s"])
        values = {
            "wall_s": statistics.median(res["pass_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "newton_iters": statistics.median(res["newton_iters"]) if res["newton_iters"] else 0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}

    attempted, failed = res["attempted"], res["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(res['pass_s'])} untraced and {len(res['traced_pass_s'])} traced pass(es), "
          f"pass times {['%.3f' % t for t in res['pass_s'] + res['traced_pass_s']]} s")
    print("\n".join(_metric_lines(metrics, kinds)))
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} {'':<6} "
          f"ratio ({failed} of {attempted} checked outcomes)")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    print("manifest " + json.dumps(_manifest(args, res["versions"], kinds)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
