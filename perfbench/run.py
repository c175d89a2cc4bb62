"""rdplab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; rdplab is imported from ./src.  The client is
a closed loop: one worker process runs one op at a time and waits for its
answer.  Set-up is timed SETUP_SAMPLES times, from a fresh interpreter to
inputs ready, and reported as the median.  The other time metrics are in
reference seconds: measured seconds times the speed factor of the probes
around them (speed.py), so that a slow spell of a shared machine does not
read as a slower program.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 it has the per-layer
metrics of a separate traced run.  Every op's answer, measured and
reference time and failure reason, with machine info, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_ok_frac": "frac",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 3
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def _spawn(args, phase: str, out: str, started: float):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", phase, "--seconds", str(args.seconds), "--out", out]
    if args.max_ops:
        cmd += ["--max-ops", str(args.max_ops)]
    t0 = time.perf_counter()
    # own session, so a kill on the deadline also reaches the CLI children
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, started)
        raise BenchError(f"worker exited with code {proc.returncode} before set-up ended")
    return proc, setup


def _finish(proc, started: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker passed the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="run only the first N ops of each pass (self-test)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "rdplab", "__init__.py")):
        print("perfbench: src/rdplab not found; run from an rdplab checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    try:
        setups = []
        for _ in range(SETUP_SAMPLES):
            proc, t = _spawn(args, "setup", out, started)
            _finish(proc, started)
            setups.append(t)
        proc, _ = _spawn(args, "traced" if args.trace else "timed", out, started)
        _finish(proc, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(out) as fh:
        result = json.load(fh)
    records = result["records"]
    failed = [r for r in records if not r["ok"]]
    result["setup_samples_s"] = setups
    if args.trace:
        metrics = {k: {"value": result["per_layer"][k], "unit": u} for k, u in tracing.METRICS.items()}
    else:
        values = {
            # not corrected for speed: start-up reads files and maps memory,
            # and its time does not follow the probe
            "setup_s": statistics.median(setups),
            "wall_s": result["wall_s"],
            "op_p50_s": result["op_p50_s"],
            "op_tail_s": result["op_tail_s"],
            "ops_ok_frac": 1.0 - len(failed) / len(records),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result["metrics"] = metrics
    with open(out, "w") as fh:
        json.dump(result, fh, default=str)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'ops_failed_frac':40s} {len(failed) / len(records):>16.6g} frac")
    if not args.trace:
        pct = result["op_tail_pct"]
        print(f"op_tail_s is the {f'p{pct:.1f}' if pct else 'slowest op median over passes'} "
              f"of {result['ops']} ops over {len(result['pass_walls_s'])} passes")
        print(f"speed factor {result['speed_factor']:.4f}; measured seconds: set-ups "
              + " ".join(f"{t:.3f}" for t in setups) + ", pass walls "
              + " ".join(f"{t:.3f}" for t in result["pass_walls_s"]))
    for (op, reason, known), n in sorted(Counter((r["op"], r["reason"], r["known"]) for r in failed).items()):
        print(f"failed x{n}: {op}: {reason}{' (known)' if known else ''}")
    print(f"records: {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": all(r["known"] for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
