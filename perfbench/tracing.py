"""Spans around rdplab's public names, recorded from the benchmark's side.

`Tracer.install` replaces each traced function, in every rdplab module that
holds it, with a wrapper that records a span (name, start, end, parent,
op); `uninstall` puts the originals back.  The library itself is never
edited.  Spans stay in memory until `per_layer` reduces them and the worker
writes them out.

Count metrics leave out the ops the caller names (those that may hit their
time budget), so they repeat exactly: an op cut by its budget stops at a
moment that varies from run to run, and an op close to its budget is cut
in some runs and not in others.  Time metrics include every op.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from workloads import OpTimeout

LAYERS = ("pmf", "rng", "divergences", "closed_forms", "solver", "coding", "serialize", "cli")

# (module, attribute, span name); the attribute is replaced in every rdplab
# module that imported the same object
TARGETS = [
    ("rdplab.solver", "solve_rdp", "solver.solve_rdp"),
    ("rdplab.solver", "sweep_curve", "solver.sweep_curve"),
    ("rdplab.solver", "rd_function_grid", "solver.rd_function_grid"),
    ("rdplab.solver", "linprog", "solver.highs"),
    ("rdplab.divergences", "divergence", "divergences.divergence"),
    ("rdplab.divergences", "min_cost_coupling", "divergences.min_cost_coupling"),
    ("rdplab.pmf", "mutual_information_matrix", "pmf.mutual_information_matrix"),
    ("rdplab.rng", "stream", "rng.stream"),
    ("rdplab.rng", "randint_below", "rng.randint_below"),
    ("rdplab.coding", "shift_ensemble_sim", "coding.shift_ensemble_sim"),
    ("rdplab.coding", "random_typical_codebook", "coding.random_typical_codebook"),
    ("rdplab.coding", "soft_covering_tv", "coding.soft_covering_tv"),
    ("rdplab.coding", "simulate_seed_map", "coding.simulate_seed_map"),
    ("rdplab.coding", "simulate_circle", "coding.simulate_circle"),
    ("rdplab.closed_forms", "kkt_verify", "closed_forms.kkt_verify"),
    ("rdplab.cli", "main", "cli.main"),
]
SERIALIZE_OUTPUTS = ("dumps", "curve_csv", "marginals_csv")

# every per-layer metric with its unit; `per_layer` reports all of them
METRICS = {
    "solver.solve_rdp.calls": "count",
    "solver.solve_rdp.s": "s",
    "solver.solve_rdp.self_s": "s",
    "solver.iterations": "count",
    "solver.highs.calls": "count",
    "solver.highs.s": "s",
    "solver.optimal_frac": "frac",
    "solver.iter_limit": "count",
    "solver.errors": "count",
    "solver.rd_function_grid.calls": "count",
    "solver.rd_function_grid.s": "s",
    "solver.sweep_curve.calls": "count",
    "solver.sweep_curve.s": "s",
    "divergences.divergence.calls": "count",
    "divergences.divergence.s": "s",
    "divergences.min_cost_coupling.calls": "count",
    "divergences.min_cost_coupling.s": "s",
    "pmf.from_probs.calls": "count",
    "pmf.from_probs.s": "s",
    "pmf.mutual_information_matrix.calls": "count",
    "pmf.mutual_information_matrix.s": "s",
    "rng.stream.calls": "count",
    "rng.stream.s": "s",
    "rng.randint_below.calls": "count",
    "rng.randint_below.s": "s",
    "coding.shift_ensemble_sim.calls": "count",
    "coding.shift_ensemble_sim.s": "s",
    "coding.shift_ensemble_sim.self_s": "s",
    "coding.encode_ops": "count",
    "coding.encode_ops_per_s": "1/s",
    "coding.random_typical_codebook.calls": "count",
    "coding.random_typical_codebook.s": "s",
    "coding.codewords": "count",
    "coding.soft_covering_tv.calls": "count",
    "coding.soft_covering_tv.s": "s",
    "coding.softcover_ops": "count",
    "coding.softcover_ops_per_s": "1/s",
    "coding.simulate_seed_map.s": "s",
    "coding.simulate_circle.s": "s",
    "closed_forms.kkt_verify.calls": "count",
    "closed_forms.kkt_verify.s": "s",
    "serialize.s": "s",
    "serialize.bytes_out": "count",
    "cli.import_s": "s",
    "cli.main.s": "s",
    "cli.process_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, op index, outcome, extra]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, on_result=None):
        tracer = self
        sig = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op, "ok", None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = "error"
                raise
            except OpTimeout:
                span[5] = "timeout"
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if on_result:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = on_result(bound.arguments, result)
            return result

        return wrapper

    def begin_op(self, index: int) -> None:
        self.op = index
        self.stack.clear()

    def end_op(self) -> None:
        # a budget alarm can leave spans open; close them at the op's end
        now = time.perf_counter()
        for span in self.spans:
            if span[2] is None:
                span[2] = now
        self.stack.clear()
        self.op = None

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "rdplab" or mod_name.startswith("rdplab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import rdplab.cli  # noqa: F401  (cli is not imported by the package)
        from rdplab import pmf, serialize

        hooks = {
            "solver.solve_rdp": lambda a, r: {"status": r.status, "iterations": r.iterations},
            "coding.shift_ensemble_sim": lambda a, r: {
                # multiply-adds of the one-hot encode, computed from array sizes
                "encode_ops": len(a["p_x"].atoms) * a["trials"] * a["n"] * r.diagnostics["codebook_words"]},
            "coding.random_typical_codebook": lambda a, r: {"codewords": len(r)},
            "coding.soft_covering_tv": lambda a, r: {
                # codeword x output-sequence pairs scored, computed from sizes
                "softcover_ops": len(a["cb"]) * len(a["p_x"].atoms) ** a["cb"].n},
        }
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._wrap(original, name, hooks.get(name)))
        for attr, value in list(vars(serialize).items()):
            if inspect.isfunction(value) and value.__module__ == "rdplab.serialize" \
                    and not attr.startswith("_"):
                hook = (lambda a, r: {"bytes": len(r.encode())}) if attr in SERIALIZE_OUTPUTS else None
                self._replace_everywhere(value, self._wrap(value, f"serialize.{attr}", hook))
        original = pmf.Pmf.__dict__["from_probs"]
        self._patches.append((pmf.Pmf, "from_probs", original))
        pmf.Pmf.from_probs = classmethod(self._wrap(original.__func__, "pmf.from_probs"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reducing ----------------------------------------------------------

    def per_layer(self, uncounted_ops: set[int]) -> dict:
        """The per-layer metrics of all recorded spans (see module docstring)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_t = defaultdict(float)
        layer_self = defaultdict(float)
        extra = defaultdict(float)
        status = defaultdict(int)
        for i, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            group = "serialize" if name.startswith("serialize.") else name
            parent = spans[s[3]][0] if s[3] >= 0 else ""
            if not (group == "serialize" and parent.startswith("serialize.")):
                incl[group] += dur
            self_t[name] += dur - child_time[i]
            layer_self[name.split(".")[0]] += dur - child_time[i]
            if s[4] in uncounted_ops:
                continue
            calls[name] += 1
            if name == "solver.solve_rdp":
                status[s[6]["status"] if s[6] else s[5]] += 1
                extra["iterations"] += s[6]["iterations"] if s[6] else 0
            elif s[6]:
                for key, value in s[6].items():
                    extra[key] += value
        n_solve = calls["solver.solve_rdp"]
        m = {
            "solver.solve_rdp.self_s": self_t["solver.solve_rdp"],
            "solver.iterations": int(extra["iterations"]),
            "solver.optimal_frac": status["optimal"] / n_solve if n_solve else 0.0,
            "solver.iter_limit": status["iter_limit"],
            "solver.errors": status["error"],
            "coding.shift_ensemble_sim.self_s": self_t["coding.shift_ensemble_sim"],
            "coding.encode_ops": int(extra["encode_ops"]),
            "coding.codewords": int(extra["codewords"]),
            "coding.softcover_ops": int(extra["softcover_ops"]),
            "serialize.bytes_out": int(extra["bytes"]),
            "trace.spans": sum(calls.values()),
        }
        sim_self = m["coding.shift_ensemble_sim.self_s"]
        m["coding.encode_ops_per_s"] = m["coding.encode_ops"] / sim_self if sim_self > 0 else 0.0
        sc = incl["coding.soft_covering_tv"]
        m["coding.softcover_ops_per_s"] = m["coding.softcover_ops"] / sc if sc > 0 else 0.0
        for key in METRICS:
            if key in m:
                continue
            if key.endswith(".calls"):
                m[key] = calls[key[: -len(".calls")]]
            elif key.endswith(".self_s") and key[: -len(".self_s")] in LAYERS:
                m[key] = layer_self[key[: -len(".self_s")]]
            elif key.endswith(".s"):
                m[key] = incl[key[: -len(".s")]]
        # HiGHS is scipy code: keep it out of the solver layer's own time
        m["solver.self_s"] -= self_t["solver.highs"]
        return m
