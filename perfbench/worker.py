"""One client process of the benchmark: set up, then run a workload's ops.

    python3 perfbench/worker.py --workload NAME --seed N --phase setup|timed|traced
                                --seconds S --out FILE [--max-ops N]

It prints READY once rdplab is imported, the op list is built, the stored
references are loaded and the workload's warm-up has run; run.py times the
span from process start to that line as set-up.  `timed` then runs passes
over the op list, one op at a time, as many as take S seconds at the seed
commit (at least one); `traced` runs one untraced and one traced pass.  A
speed probe (speed.py) runs between every two ops, and the run's times are
also given in reference seconds.  Answers are checked after the timing ends.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import rdplab  # noqa: E402,F401  (set-up cost: the import users pay)

import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import OpTimeout  # noqa: E402


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(op, meter, tracer=None, index=None) -> dict:
    """Run one op under its budget, then probe the machine's speed; returns
    the op's record (answer kept in memory) with its measured and reference
    time."""
    if tracer:
        tracer.begin_op(index)
    answer, reason = None, None
    start = time.perf_counter()
    # the budget is in reference seconds: scale it by the machine's speed so far
    signal.setitimer(signal.ITIMER_REAL, op.budget_s / meter.factor())
    try:
        try:
            answer = op.run()
        finally:
            # an alarm that lands here still raises OpTimeout, caught below
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        answer, reason = None, "timeout"
    except Exception as exc:  # a library error is a failed op, not a crash
        reason = f"error: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_op()
    return {"op": op.id, "t_s": elapsed, "t_ref_s": elapsed * meter.after_op(elapsed),
            "answer": answer, "reason": reason}


def run_pass(wl, meter, tracer=None) -> tuple[list[dict], float]:
    """One pass over the ops; returns the records and the pass's wall time in
    reference seconds (the sum of its op times, probes left out)."""
    records = [run_op(op, meter, tracer, i) for i, op in enumerate(wl.ops)]
    return records, sum(r["t_ref_s"] for r in records)


def gate(wl, passes: list[list[dict]]) -> None:
    """Fill each record's failure reason; the first pass is the reference
    answer for determinism across passes."""
    first = {}
    by_id = {op.id: op for op in wl.ops}
    for records in passes:
        answers = {r["op"]: r["answer"] for r in records if r["reason"] is None}
        pass_failures = wl.check_pass(answers)
        for r in records:
            if r["reason"] is None:
                r["reason"] = by_id[r["op"]].check(r["answer"]) or pass_failures.get(r["op"])
            if r["answer"] is not None:
                # keep digests, not bulk output, next to the op's time
                r["answer"].pop("stdout", None)
                for key, value in list(r["answer"].items()):
                    if isinstance(value, np.ndarray):
                        r["answer"][key] = hashlib.sha256(value.tobytes()).hexdigest()[:16]
                d = workloads.digest(r["answer"])
                if r["reason"] is None and first.setdefault(r["op"], d) != d:
                    r["reason"] = "answer differs from the first pass"
            r["ok"] = r["reason"] is None
            r["known"] = (not r["ok"]) and r["reason"].startswith(wl.known.get(r["op"], ()))


def op_stats(records: list[dict]) -> dict:
    """Median op time, and the highest percentile with at least ten ops
    beyond it.

    With fewer than 22 ops that percentile is not above the median; the tail
    is then the slowest op's median over the passes (op_tail_pct None)."""
    ts = sorted(r["t_ref_s"] for r in records)
    idx = len(ts) - 11
    if idx > (len(ts) - 1) // 2:
        tail, pct = ts[idx], 100.0 * (idx + 1) / len(ts)
    else:
        by_op: dict = {}
        for r in records:
            by_op.setdefault(r["op"], []).append(r["t_ref_s"])
        tail, pct = max(statistics.median(t) for t in by_op.values()), None
    return {"op_p50_s": statistics.median(ts), "op_tail_s": tail, "op_tail_pct": pct, "ops": len(ts)}


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import rdplab.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return float(out.stdout)


def _in_process_pass(wl, meter, tracer=None) -> float:
    """cli_short only: every command through rdplab.cli.main in this process;
    returns the pass's wall time in reference seconds."""
    import rdplab.cli

    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer:
            tracer.begin_op(i)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rdplab.cli.main(wl.in_process[op.id])
        if tracer:
            tracer.end_op()
    elapsed = time.perf_counter() - start
    return elapsed * meter.after_op(elapsed)


def _traced(wl) -> tuple[list[list[dict]], dict, list]:
    """One untraced pass, then the same ops traced; returns passes, metrics, spans."""
    import tracing

    meter = speed.Meter()
    untraced, wall_plain = run_pass(wl, meter)
    if wl.name == "cli_short":
        # a subprocess cannot be traced from here: trace the commands
        # in-process, against an untraced in-process pass
        wall_plain = _in_process_pass(wl, meter)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if wl.name == "cli_short":
            wall_traced = _in_process_pass(wl, meter, tracer)
            passes = [untraced]
        else:
            traced, wall_traced = run_pass(wl, meter, tracer)
            passes = [untraced, traced]
    finally:
        tracer.uninstall()
    gate(wl, passes)
    # counts leave out every op that may hit its budget, so they repeat exactly
    uncounted = {i for i, op in enumerate(wl.ops) if "timeout" in wl.known.get(op.id, ())}
    uncounted |= {i for i, r in enumerate(passes[-1]) if r["reason"] == "timeout"}
    metrics = tracer.per_layer(uncounted)
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    metrics["cli.process_s"] = (
        sum(r["t_s"] for r in untraced) - metrics["cli.main.s"] if wl.name == "cli_short" else 0.0
    )
    metrics["cli.import_s"] = statistics.median(_import_seconds() for _ in range(3))
    return passes, metrics, tracer.spans


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--max-ops", type=int, default=None)
    args = ap.parse_args()
    workdir = os.path.join(HERE, "out", f"cli-{os.getpid()}")
    try:
        wl = workloads.build(args.workload, args.seed, workdir, SRC)
        wl.ops = wl.ops[: args.max_ops]
        wl.warm_up()
        print("READY", flush=True)
        if args.phase == "setup":
            return 0
        signal.signal(signal.SIGALRM, _on_alarm)
        result = {"workload": args.workload, "seed": args.seed, "phase": args.phase}
        if args.phase == "timed":
            meter = speed.Meter()
            passes, walls = [], []
            for _ in range(max(1, round(args.seconds / workloads.NOMINAL_PASS_S[wl.name]))):
                records, wall = run_pass(wl, meter)
                passes.append(records)
                walls.append(wall)
            gate(wl, passes)
            # op times come from a fixed set of ops: those that may hit their
            # budget count in ops_ok_frac only, so a capped time cannot fill
            # the tail and a solver that gets faster cannot add ops to it
            timed = {op.id for op in wl.ops if "timeout" not in wl.known.get(op.id, ())}
            usage = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli_short" else resource.RUSAGE_SELF
            )
            result.update(
                wall_s=statistics.median(walls),
                pass_walls_s=[sum(r["t_s"] for r in p) for p in passes],
                speed_factor=meter.factor(),
                probes_s=meter.gaps,
                peak_rss_mb=usage.ru_maxrss / 1024.0,
                **op_stats([r for p in passes for r in p if r["op"] in timed]),
            )
        else:
            passes, result["per_layer"], result["spans"] = _traced(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["records"] = [r for p in passes for r in p]
    result["machine"] = machine_info()
    with open(args.out, "w") as fh:
        json.dump(result, fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
