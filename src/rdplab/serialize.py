"""JSON schemas and CSV emitters for the CLI-facing types.

Pmf:      {"atoms": [{"label": ..., "prob": ...}, ...]}
Channel:  {"inputs": [...], "outputs": [...], "rows": [[...], ...]}
          ("outputs" may be omitted when it equals "inputs")
Problem:  {"source": Pmf, "distortion": [[...]], "divergence":
           {"kind": ..., "cost": [[...]]?}, "D": ..., "P": ...,
           "output_alphabet": [...]?}
Specs:    {"source": Pmf, "channel": Channel, "distortion": [[...]]} for a
          block simulation and {"target": Pmf, "channel": Channel,
          "reference": Pmf} for soft covering, read by `block_spec_from_dict`
          and `softcover_spec_from_dict` into tuples in that key order
Reports:  RdpSolution, SimReport, CircleEstimate and KktReport, one key per
          field as `_FIELDS` names it; a solution's "channel" is a Channel,
          a SimReport's "per_letter_marginals" a list of Pmf and its
          "diagnostics"? a free-form object

The problem and the four reports are each written by `to_dict(obj)` and
read by `from_dict(cls, d)` through one table, `_FIELDS`, so a new format is
one more entry there.  A key marked ? may be absent, and its field then keeps
the dataclass default.  Every reader refuses a key its format does not name,
with a ValueError naming the key and the format, so a misspelled key is never
read as an absent one.  The report readers are strict: a float field takes
a number or "inf" / "-inf", an int field an int, a bool field a bool and a
str field a str, never a bool for a number, and any other value raises a
ValueError naming the key.  So are the nested readers: a law's "prob" and
each entry of a channel's "rows" must be a JSON number, in every file that
holds them.  Problem and spec files are written by hand, so the problem's
budgets, distortion entries and coupling-cost entries, and a block spec's
distortion entries, may also be numeric strings such as "0.2", but never
bools.

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
    atoms = [_known("Pmf atom", atom, ("label", "prob")) for atom in _known("Pmf", d, ("atoms",))["atoms"]]
    return Pmf.from_pairs((atom["label"], _number("prob", atom["prob"])) for atom in atoms)


def channel_to_dict(ch: Channel) -> dict:
    return {
        "inputs": list(ch.inputs),
        "outputs": list(ch.outputs),
        "rows": ch.matrix.tolist(),
    }


def channel_from_dict(d: dict) -> Channel:
    _known("Channel", d, ("inputs", "outputs", "rows"))
    inputs = tuple(d["inputs"])
    outputs = tuple(d.get("outputs", d["inputs"]))
    return Channel(inputs, outputs, _matrix("rows", d["rows"]))


def divergence_to_dict(spec: DivergenceSpec) -> dict:
    out: dict = {"kind": spec.kind}
    if spec.cost is not None:
        out["cost"] = spec.cost.tolist()
    return out


def divergence_from_dict(d: dict) -> DivergenceSpec:
    _known("DivergenceSpec", d, ("kind", "cost"))
    return DivergenceSpec(d["kind"], cost=_matrix("cost", d["cost"], True) if "cost" in d else None)


def block_spec_from_dict(d: dict) -> tuple[Pmf, Channel, np.ndarray]:
    """The (source, channel, distortion) of a block-simulation spec."""
    _known("block spec", d, ("source", "channel", "distortion"))
    return pmf_from_dict(d["source"]), channel_from_dict(d["channel"]), _matrix("distortion", d["distortion"], True)


def softcover_spec_from_dict(d: dict) -> tuple[Pmf, Channel, Pmf]:
    """The (target, channel, reference) of a soft-covering spec."""
    _known("soft-covering spec", d, ("target", "channel", "reference"))
    return pmf_from_dict(d["target"]), channel_from_dict(d["channel"]), pmf_from_dict(d["reference"])


def _as_is(value):
    return value


def _known(name: str, d: dict, keys) -> dict:
    """`d` itself when each of its keys is one of `keys`; any other key
    raises a ValueError naming it and `name`.  A value that is not an object
    raises a TypeError."""
    for key in dict.keys(d):
        if key not in keys:
            raise ValueError(f"{name} has no key {key!r}")
    return d


def _number(key: str, value, strings: bool = False) -> float:
    """`value` as a float when it is a JSON number, or with `strings` a
    numeric string, and never a bool; any other value raises a ValueError
    naming `key`."""
    if not isinstance(value, bool) and isinstance(value, (int, float, str) if strings else (int, float)):
        try:
            return float(value)
        except ValueError:
            pass
    kind = "a JSON number or a numeric string" if strings else "a JSON number"
    raise ValueError(f"{key!r} must be {kind}, not {value!r}")


def _matrix(key: str, rows, strings: bool = False) -> np.ndarray:
    """The float matrix of `rows`, each entry checked by `_number`."""
    for row in rows:
        for value in row:
            _number(key, value, strings)
    return np.array(rows, dtype=float)


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
        ("distortion", "distortion", np.ndarray.tolist, lambda rows: _matrix("distortion", rows, True)),
        ("divergence", "divergence", lambda s: divergence_to_dict(s), lambda d: divergence_from_dict(d)),
        ("D", "dist_budget", _as_is, lambda value: _number("D", value, True)),
        ("P", "perc_budget", _as_is, lambda value: _number("P", value, True)),
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


def to_dict(obj) -> dict:
    return {key: write(getattr(obj, attr)) for key, attr, write, _ in _FIELDS[type(obj)]}


def from_dict(cls, d: dict):
    _known(cls.__name__, d, [key for key, *_ in _FIELDS[cls]])
    return cls(**{attr: read(d[key]) for key, attr, _, read in _FIELDS[cls] if key in d or key not in _OPTIONAL})


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
