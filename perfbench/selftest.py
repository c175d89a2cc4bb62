"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. A tiny run of every workload (first three ops, one pass), untraced and
   traced, must print every metric named in BENCHMARK.json with its unit.
2. The gates must fail deliberately wrong answers: a rate shifted by 1e-3,
   a block code over its distortion guarantee, a reversed soft-covering
   order, a non-standard JSON constant and a wrong exit code; and an
   unexpected failure must turn `correct` false.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts ./src on sys.path)
import workloads  # noqa: E402


def check_printed_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for w in spec["workloads"]:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"], "--seed", "0",
                 "--seconds", "0", "--trace", str(trace), "--max-ops", "3"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            last = json.loads(out.strip().split("\n")[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for name, unit in want.items():
                assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                           for line in out.split("\n")), f"{name} not printed with {unit}"
            assert last["attempted"] >= 1 and isinstance(last["correct"], bool)
            print(f"ok   {w['name']} --trace {trace}: {len(want)} metrics with units")


def check_gates() -> None:
    # solve_mix: a certified answer passes; shifting its rate by 1e-3 fails,
    # both against the channel and against the stored reference
    wl = workloads.solve_mix(0)
    for op_id in ("p0-k2-interior", "p0-k3-interior"):
        op = next(o for o in wl.ops if o.id == op_id)
        ans = op.run()
        assert op.check(ans) is None, op.check(ans)
        assert op.check(dict(ans, rate=ans["rate"] + 1e-3)) is not None
        spec = next(s for s in workloads.load_pool()["instances"] if s["id"] == op_id)
        shifted = copy.deepcopy(spec)
        shifted["reference"]["rate"] += 1e-3
        assert workloads._solve_gate(shifted, ans) is not None
        assert op.check(dict(ans, status="infeasible")) is not None
    print("ok   solve_mix gate fails a rate shifted by 1e-3 and a false infeasibility")

    wl = workloads.block_code(0)
    op = wl.ops[0]
    good = {"avg_distortion": 0.1, "max_tv": 0.0, "violations": 0}
    assert op.check(good) is None
    assert op.check(dict(good, avg_distortion=1.0)) is not None
    assert op.check(dict(good, violations=1)) is not None
    print("ok   block_code gate fails a distortion over the guarantee")

    wl = workloads.softcover_scan(0)
    answers = {}
    for rate in workloads.SOFT_RATES:
        for n in workloads.SOFT_NS:
            for c in range(workloads.SOFT_CODEBOOKS[rate, n]):
                answers[f"R{rate}-n{n}-c{c}"] = {"tv": 0.9 - 0.1 * n / 4 if rate == 1.0 else 0.5}
    assert wl.check_pass(answers) == {}
    for c in range(workloads.SOFT_CODEBOOKS[1.0, 12]):
        answers[f"R1.0-n12-c{c}"] = {"tv": 0.95}
    assert wl.check_pass(answers), "reversed order not caught"
    print("ok   softcover_scan gate fails a reversed TV order")

    wl = workloads.cli_short(0, os.path.join(HERE, "out", "selftest"), os.path.join(ROOT, "src"))
    kkt = next(o for o in wl.ops if o.id == "verify-kkt")
    good = {"exit_code": 0, "stdout": '{"passed": true}'}
    assert kkt.check(good) is None
    assert kkt.check(dict(good, exit_code=1)) is not None
    assert kkt.check(dict(good, stdout='{"passed": true, "x": Infinity}')).startswith("invalid JSON")
    print("ok   cli_short gate fails a wrong exit code and a non-standard JSON constant")

    # an unexpected failure is not known; a listed one is
    wl = workloads.solve_mix(0)
    wl.ops = [o for o in wl.ops if o.id in ("p0-k2-zero", "kl-k4-interior")]
    passes = [[{"op": o.id, "t_s": 1.0, "answer": None, "reason": "timeout"} for o in wl.ops]]
    worker.gate(wl, passes)
    known = {r["op"]: r["known"] for r in passes[0]}
    assert known == {"p0-k2-zero": False, "kl-k4-interior": True}, known
    print("ok   an unlisted timeout turns `correct` false, a listed one does not")

    # the tail has ten ops beyond it; with too few ops for that to lie above
    # the median, it is the slowest op's median over the passes
    many = [{"op": f"o{t % 3}", "t_ref_s": float(t)} for t in range(1, 31)]
    assert worker.op_stats(many)["op_tail_s"] == 20.0
    few = [{"op": f"o{t % 3}", "t_ref_s": float(t)} for t in range(1, 10)]
    assert worker.op_stats(few)["op_tail_s"] == 6.0  # median of o0's 3, 6, 9
    print("ok   op_tail_s has ten ops beyond it, or is the slowest op's median")


def main() -> int:
    check_gates()
    check_printed_metrics()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
