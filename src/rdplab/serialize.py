"""JSON schemas and CSV emitters for the CLI-facing types.

Pmf:      {"atoms": [{"label": ..., "prob": ...}, ...]}
Channel:  {"inputs": [...], "outputs": [...], "rows": [[...], ...]}
          ("outputs" may be omitted when it equals "inputs")
Problem:  {"source": Pmf, "distortion": [[...]], "divergence":
           {"kind": ..., "cost": [[...]]?}, "D": ..., "P": ...,
           "output_alphabet": [...]?}

CSV files use '.' decimals and 12 significant digits so identical runs diff
byte-identically across platforms.  Both formats spell infinite values
"inf" / "-inf"; JSON output is strict (no bare Infinity or NaN).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .closed_forms import KktReport
from .coding import CircleEstimate, SimReport
from .divergences import COUPLING_COST, DivergenceSpec
from .pmf import Channel, Pmf
from .solver import RdpProblem, RdpSolution


def fmt(x: float) -> str:
    return format(float(x), ".12g")


def pmf_to_dict(p: Pmf) -> dict:
    return {"atoms": [{"label": a, "prob": pr} for a, pr in p.atoms]}


def pmf_from_dict(d: dict) -> Pmf:
    return Pmf.from_pairs((atom["label"], atom["prob"]) for atom in d["atoms"])


def channel_to_dict(ch: Channel) -> dict:
    return {
        "inputs": list(ch.inputs),
        "outputs": list(ch.outputs),
        "rows": ch.matrix.tolist(),
    }


def channel_from_dict(d: dict) -> Channel:
    inputs = tuple(d["inputs"])
    outputs = tuple(d.get("outputs", d["inputs"]))
    return Channel(inputs, outputs, np.array(d["rows"], dtype=float))


def divergence_to_dict(spec: DivergenceSpec) -> dict:
    out: dict = {"kind": spec.kind}
    if spec.cost is not None:
        out["cost"] = spec.cost.tolist()
    return out


def divergence_from_dict(d: dict) -> DivergenceSpec:
    cost = d.get("cost")
    if d["kind"] == COUPLING_COST:
        return DivergenceSpec(d["kind"], cost=np.array(cost, dtype=float))
    return DivergenceSpec(d["kind"])


def problem_to_dict(prob: RdpProblem) -> dict:
    return {
        "source": pmf_to_dict(prob.source),
        "distortion": prob.distortion.tolist(),
        "divergence": divergence_to_dict(prob.divergence),
        "D": prob.dist_budget,
        "P": prob.perc_budget,
        "output_alphabet": list(prob.output_alphabet),
    }


def problem_from_dict(d: dict) -> RdpProblem:
    return RdpProblem(
        source=pmf_from_dict(d["source"]),
        distortion=np.array(d["distortion"], dtype=float),
        divergence=divergence_from_dict(d.get("divergence", {"kind": "total_variation"})),
        dist_budget=float(d["D"]),
        perc_budget=float(d["P"]),
        output_alphabet=tuple(d["output_alphabet"]) if "output_alphabet" in d else None,
    )


def solution_to_dict(sol: RdpSolution) -> dict:
    return {
        "rate_bits": sol.rate,
        "channel": channel_to_dict(sol.channel),
        "achieved_D": sol.achieved_dist,
        "achieved_P": sol.achieved_perc,
        "status": sol.status,
        "primal_gap_estimate": sol.primal_gap_estimate,
        "iterations": sol.iterations,
    }


def solution_from_dict(d: dict) -> RdpSolution:
    return RdpSolution(
        rate=float(d["rate_bits"]),
        channel=channel_from_dict(d["channel"]),
        achieved_dist=float(d["achieved_D"]),
        achieved_perc=float(d["achieved_P"]),
        status=d["status"],
        primal_gap_estimate=float(d["primal_gap_estimate"]),
        iterations=int(d["iterations"]),
    )


def sim_report_to_dict(rep: SimReport) -> dict:
    return {
        "n": rep.n,
        "trials": rep.trials,
        "rate_bits": rep.rate_bits,
        "avg_distortion": rep.avg_distortion,
        "per_letter_marginals": [pmf_to_dict(m) for m in rep.per_letter_marginals],
        "max_perletter_divergence": rep.max_perletter_divergence,
        "perception_violations": rep.perception_violations,
        "seed": rep.seed,
        "diagnostics": rep.diagnostics,
    }


def sim_report_from_dict(d: dict) -> SimReport:
    return SimReport(
        n=int(d["n"]),
        trials=int(d["trials"]),
        rate_bits=float(d["rate_bits"]),
        avg_distortion=float(d["avg_distortion"]),
        per_letter_marginals=[pmf_from_dict(m) for m in d["per_letter_marginals"]],
        max_perletter_divergence=float(d["max_perletter_divergence"]),
        perception_violations=int(d["perception_violations"]),
        seed=int(d["seed"]),
        diagnostics=d.get("diagnostics"),
    )


def circle_estimate_to_dict(est: CircleEstimate) -> dict:
    return {
        "scheme": est.scheme,
        "samples": est.samples,
        "mean": est.mean,
        "std_error": est.std_error,
        "analytic": est.analytic,
    }


def circle_estimate_from_dict(d: dict) -> CircleEstimate:
    return CircleEstimate(
        scheme=d["scheme"],
        samples=int(d["samples"]),
        mean=float(d["mean"]),
        std_error=float(d["std_error"]),
        analytic=float(d["analytic"]),
    )


def kkt_report_to_dict(rep: KktReport) -> dict:
    return {
        "equality_residual": rep.equality_residual,
        "inequality_margin": rep.inequality_margin,
        "distortion_residual": rep.distortion_residual,
        "passed": rep.passed,
        "tol": rep.tol,
    }


def kkt_report_from_dict(d: dict) -> KktReport:
    return KktReport(
        equality_residual=float(d["equality_residual"]),
        inequality_margin=float(d["inequality_margin"]),
        distortion_residual=float(d["distortion_residual"]),
        passed=bool(d["passed"]),
        tol=float(d["tol"]),
    )


def dumps(payload: dict) -> str:
    """Strict JSON: infinite floats become the strings "inf" / "-inf" (the
    CSV spelling, read back by the `*_from_dict` readers through float());
    a NaN raises."""
    return json.dumps(_spell_infinities(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _spell_infinities(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _spell_infinities(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_infinities(v) for v in value]
    return value


def curve_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return fmt(v)


def marginals_csv(marginals: list[Pmf]) -> str:
    lines = ["t,atom,prob"]
    for t, pmf in enumerate(marginals):
        for label, prob in pmf.atoms:
            lines.append(f"{t},{label},{fmt(prob)}")
    return "\n".join(lines) + "\n"
