"""JSON schemas and CSV emitters for the CLI-facing types.

Pmf:      {"atoms": [{"label": ..., "prob": ...}, ...]}
Channel:  {"inputs": [...], "outputs": [...], "rows": [[...], ...]}
          ("outputs" may be omitted when it equals "inputs")
Problem:  {"source": Pmf, "distortion": [[...]], "divergence":
           {"kind": ..., "cost": [[...]]?}, "D": ..., "P": ...,
           "output_alphabet": [...]?}
Reports:  RdpSolution, SimReport, CircleEstimate and KktReport, one key per
          field as `_FIELDS` names it; a solution's "channel" is a Channel,
          a SimReport's "per_letter_marginals" a list of Pmf and its
          "diagnostics"? a free-form object

The problem and the four reports are each written and read through one
table, `_FIELDS`.  A key marked ? may be absent, and its field then keeps
the dataclass default.  The report readers are strict: a float field takes
a number or "inf" / "-inf", an int field an int, a bool field a bool and a
str field a str, never a bool for a number, and any other value raises a
ValueError naming the key.  Problem files are written by hand, so the
problem reader casts its budgets with float() instead.

CSV files use '.' decimals and 12 significant digits so identical runs diff
byte-identically across platforms.  Both formats follow one non-finite rule:
infinite values are spelled "inf" / "-inf" and a NaN is refused, so JSON
output is strict (no bare Infinity or NaN).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .closed_forms import KktReport
from .coding import CircleEstimate, SimReport
from .divergences import DivergenceSpec
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
    return DivergenceSpec(d["kind"], cost=d.get("cost"))


def _as_is(value):
    return value


def _scalar(key: str, kind: type, attr: str | None = None) -> tuple:
    """The entry of a report field written as it is and read strictly: its
    reader takes only the JSON type that `dumps` writes for `kind` and
    raises a ValueError naming `key` for any other value."""
    types = (int, float) if kind is float else kind

    def read(value):
        # bool is a subclass of int, but never stands for a number
        if (isinstance(value, types) and isinstance(value, bool) == (kind is bool)
                or kind is float and value in ("inf", "-inf")):
            return kind(value)
        raise ValueError(f"{key!r} must be a JSON {kind.__name__}, not {value!r}")

    return key, attr or key, _as_is, read


# (JSON key, attribute, writer, reader) for each field of a tabled type.
# Nested formats are called through their module-level names, so that a
# wrapper bound to one of those names (perfbench's tracer) sees the call.
_FIELDS = {
    RdpProblem: (
        ("source", "source", lambda p: pmf_to_dict(p), lambda d: pmf_from_dict(d)),
        ("distortion", "distortion", np.ndarray.tolist, lambda rows: np.array(rows, dtype=float)),
        ("divergence", "divergence", lambda s: divergence_to_dict(s), lambda d: divergence_from_dict(d)),
        ("D", "dist_budget", _as_is, float),
        ("P", "perc_budget", _as_is, float),
        ("output_alphabet", "output_alphabet", list, tuple),
    ),
    RdpSolution: (
        _scalar("rate_bits", float, "rate"),
        ("channel", "channel", lambda ch: channel_to_dict(ch), lambda d: channel_from_dict(d)),
        _scalar("achieved_D", float, "achieved_dist"),
        _scalar("achieved_P", float, "achieved_perc"),
        _scalar("status", str),
        _scalar("primal_gap_estimate", float),
        _scalar("iterations", int),
    ),
    SimReport: (
        _scalar("n", int),
        _scalar("trials", int),
        _scalar("rate_bits", float),
        _scalar("avg_distortion", float),
        ("per_letter_marginals", "per_letter_marginals",
         lambda ms: [pmf_to_dict(m) for m in ms], lambda ds: [pmf_from_dict(d) for d in ds]),
        _scalar("max_perletter_divergence", float),
        _scalar("perception_violations", int),
        _scalar("seed", int),
        ("diagnostics", "diagnostics", _as_is, _as_is),
    ),
    CircleEstimate: (
        _scalar("scheme", str),
        _scalar("samples", int),
        _scalar("mean", float),
        _scalar("std_error", float),
        _scalar("analytic", float),
    ),
    KktReport: (
        _scalar("equality_residual", float),
        _scalar("inequality_margin", float),
        _scalar("distortion_residual", float),
        _scalar("passed", bool),
        _scalar("tol", float),
    ),
}

# keys a file may leave out; the field then keeps its dataclass default
_OPTIONAL = {"divergence", "output_alphabet", "diagnostics"}


def _to_dict(obj) -> dict:
    return {key: write(getattr(obj, attr)) for key, attr, write, _ in _FIELDS[type(obj)]}


def _from_dict(cls, d: dict):
    return cls(**{attr: read(d[key]) for key, attr, _, read in _FIELDS[cls]
                  if key in d or key not in _OPTIONAL})


def problem_to_dict(prob: RdpProblem) -> dict:
    return _to_dict(prob)


def problem_from_dict(d: dict) -> RdpProblem:
    return _from_dict(RdpProblem, d)


def solution_to_dict(sol: RdpSolution) -> dict:
    return _to_dict(sol)


def solution_from_dict(d: dict) -> RdpSolution:
    return _from_dict(RdpSolution, d)


def sim_report_to_dict(rep: SimReport) -> dict:
    return _to_dict(rep)


def sim_report_from_dict(d: dict) -> SimReport:
    return _from_dict(SimReport, d)


def circle_estimate_to_dict(est: CircleEstimate) -> dict:
    return _to_dict(est)


def circle_estimate_from_dict(d: dict) -> CircleEstimate:
    return _from_dict(CircleEstimate, d)


def kkt_report_to_dict(rep: KktReport) -> dict:
    return _to_dict(rep)


def kkt_report_from_dict(d: dict) -> KktReport:
    return _from_dict(KktReport, d)


def _spell(value):
    """The non-finite rule of both formats: an infinite float becomes the
    string "inf" / "-inf" (read back through float()), a NaN raises, and any
    other value is returned as it is."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            raise ValueError("NaN cannot be written: output is strict")
        return "inf" if value > 0 else "-inf"
    return value


def dumps(payload: dict) -> str:
    """Strict JSON, with floats spelled by `_spell`."""
    return json.dumps(_spell_all(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _spell_all(value):
    if isinstance(value, dict):
        return {k: _spell_all(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_all(v) for v in value]
    return _spell(value)


def curve_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    v = value if isinstance(value, str) else _spell(float(value))
    return v if isinstance(v, str) else fmt(v)


def marginals_csv(marginals: list[Pmf]) -> str:
    lines = ["t,atom,prob"]
    for t, pmf in enumerate(marginals):
        for label, prob in pmf.atoms:
            lines.append(f"{t},{label},{fmt(prob)}")
    return "\n".join(lines) + "\n"
