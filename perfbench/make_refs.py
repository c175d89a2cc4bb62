"""Generate perfbench/data/solve_pool.json: the solve_mix pool with references.

Run once from the repository root at the commit the benchmark was defined on:

    PYTHONPATH=src python3 perfbench/make_refs.py

For each pool instance it stores the reference the gate compares against:
phi_binary for binary P = 0 instances, brute_force_rdp for other binary
instances, and the certified solve (status optimal, both budgets met) for
k >= 3.  When the solve is not certified within the cap, the stored
reference is the bracket R(D, inf) <= R(D, P) <= R(D, 0), with R(D, inf)
from Blahut-Arimoto on the source alphabet and R(D, 0) from the certified
P = 0 solve.  The seed-commit solve's status and time are stored as notes:
the time is in reference seconds (see speed.py), the fastest of
TIMING_REPEATS solves.  The repeats are made in rounds over the whole pool,
minutes apart, so that they do not all fall in one slow spell of the
machine.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pool  # noqa: E402
import speed  # noqa: E402


BRUTE_RESOLUTION = 1e-3
CAP_S = 60.0  # per-solve cap; a solve cut here is stored as a timeout
TIMING_REPEATS = 3


class _Cap(BaseException):
    pass


def _alarm(signum, frame):
    raise _Cap()


def _timed_solve(prob):
    """One capped solve: (solution or None, note)."""
    from rdplab import solver

    sol = None
    before = speed.probe()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        sol = solver.solve_rdp(prob)
        note = {"status": sol.status, "rate": sol.rate, "iterations": sol.iterations}
    except _Cap:
        note = {"status": "timeout"}
    except Exception as exc:  # the seed commit's known solver errors
        note = {"status": "error", "message": f"{type(exc).__name__}: {exc}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - t0
    # reference seconds, from one probe on either side of the solve
    note["seconds"] = elapsed * speed.REFERENCE_S / (0.5 * (before + speed.probe()))
    return sol, note


def _reference(spec: dict) -> dict:
    from rdplab import closed_forms, solver

    prob = pool.build_problem(spec)
    opts = solver.SolverOptions()
    sol, note = _timed_solve(prob)
    certified = (
        sol is not None
        and note["status"] == solver.OPTIMAL
        and sol.achieved_dist <= prob.dist_budget + opts.feas_tol
        and sol.achieved_perc <= prob.perc_budget + opts.feas_tol
    )
    ref: dict
    if spec["k"] == 2 and spec["kind"] == "p0":
        ref = {"source": "phi_binary", "rate": closed_forms.phi_binary(spec["probs"][1], spec["D"])}
    elif spec["k"] == 2:
        ref = {"source": "brute_force_rdp", "rate": solver.brute_force_rdp(prob, resolution=BRUTE_RESOLUTION)}
    elif certified:
        ref = {"source": "certified_solve", "rate": note["rate"]}
    else:
        p0 = solver.solve_rdp(
            solver.RdpProblem(prob.source, prob.distortion, prob.divergence, prob.dist_budget, 0.0)
        )
        if p0.status != solver.OPTIMAL:
            raise RuntimeError(f"{spec['id']}: P = 0 bracket solve not certified")
        lo = solver.rd_function_grid(prob.source, prob.source.labels, prob.distortion, prob.dist_budget)
        ref = {"source": "bracket", "lo": lo, "hi": p0.rate}
    return {"id": spec["id"], "reference": ref, "seed_commit": note}


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    specs = pool.pool_specs()
    for s in specs:
        s.update(_reference(s))
        print(s["id"], s["seed_commit"]["status"], f"{s['seed_commit']['seconds']:.3f}", s["reference"], flush=True)
    for _ in range(TIMING_REPEATS - 1):
        for s in specs:
            note = s["seed_commit"]
            if note["status"] == "optimal":
                note["seconds"] = min(note["seconds"], _timed_solve(pool.build_problem(s))[1]["seconds"])
    from rdplab import closed_forms

    grid = [{"D": d, "varphi": closed_forms.varphi_binary(pool.GRID_RHO, d)} for d in pool.GRID_POINTS]
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "solve_pool.json")
    with open(out, "w") as fh:
        json.dump({"pool_seed": pool.POOL_SEED, "cap_s": CAP_S, "instances": specs, "grid": grid}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
