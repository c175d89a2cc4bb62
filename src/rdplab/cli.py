"""Command-line front end: curves, solving, simulations, verification.

Exit codes: 0 ok, 1 usage, I/O or solver error, 2 verification failed,
3 infeasible.
The seed falls back to the RDPLAB_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import ExitStack

import numpy as np

from . import closed_forms, coding, serialize
from .coding import (
    DERANDOMIZED,
    SHARED_SEED,
    check_soft_covering,
    check_typical_codebook,
    random_typical_codebook,
    shift_ensemble_sim,
    simulate_circle,
    soft_covering_tv,
)
from .solver import INFEASIBLE, RdpProblem, SolverOptions, solve_rdp, sweep_curve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for failed
    # verification, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)

    # a command's parser reports its own unknown flags, so that the usage
    # line printed is the command's rather than the top level's
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self._subparsers is None:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


class CliError(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get("RDPLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"RDPLAB_SEED={raw!r} is not an integer") from None


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="rdplab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="closed-form or solver-swept curves")
    curve_sub = curve.add_subparsers(dest="curve_kind", required=True)
    cb = curve_sub.add_parser("binary", help="Bernoulli closed forms")
    cb.add_argument("--rho", type=float, default=0.25)
    cb.add_argument("--grid", type=int, default=200)
    cg = curve_sub.add_parser("gaussian", help="Gaussian closed forms")
    cg.add_argument("--var", type=float, default=1.0)
    cg.add_argument("--grid", type=int, default=200)
    cs = curve_sub.add_parser("solve", help="numerical sweep of a problem file")
    cs.add_argument("--problem", required=True)
    cs.add_argument("--D-grid", dest="d_grid", required=True, metavar="A:B:N")
    cs.add_argument("--P-grid", dest="p_grid", default=None, metavar="A:B:N")
    cs.add_argument("--tol", type=float, default=1e-6)

    solve = sub.add_parser("solve", help="solve one (D, P) instance")
    solve.add_argument("--problem", required=True)
    solve.add_argument("--D", type=float, required=True)
    solve.add_argument("--P", type=float, required=True)
    solve.add_argument("--tol", type=float, default=1e-6)

    sim = sub.add_parser("simulate", help="run a coding-scheme simulation")
    sim_sub = sim.add_subparsers(dest="sim_kind", required=True)
    sc = sim_sub.add_parser("circle", help="one-bit unit-circle schemes")
    sc.add_argument("--scheme", required=True, choices=coding.CIRCLE_SCHEMES)
    sc.add_argument("--samples", type=int, default=1_000_000)
    sc.add_argument("--seed", type=int, default=None)
    sc.add_argument("--exact", action="store_true")
    sb = sim_sub.add_parser("block", help="shift-ensemble block coding")
    sb.add_argument("--spec", required=True,
                    help="JSON with source, channel, distortion")
    sb.add_argument("--n", type=int, required=True)
    sb.add_argument("--rate", type=float, required=True)
    sb.add_argument("--delta", type=float, required=True)
    sb.add_argument("--trials", type=int, default=1000)
    sb.add_argument("--seed", type=int, default=None)
    sb.add_argument("--mode", choices=(SHARED_SEED, DERANDOMIZED), default=SHARED_SEED)
    sb.add_argument("--alpha", type=float, default=0.1)
    sb.add_argument("--marginals-csv", default=None,
                    help="also write per-letter marginals as t,atom,prob")
    so = sim_sub.add_parser("softcover", help="exact soft-covering TV scan")
    so.add_argument("--spec", required=True,
                    help="JSON with target, channel, reference")
    so.add_argument("--n", type=int, nargs="+", required=True)
    so.add_argument("--rate", type=float, required=True)
    so.add_argument("--delta", type=float, required=True)
    so.add_argument("--codebooks", type=int, default=1,
                    help="number of codebook seeds to average")
    so.add_argument("--seed", type=int, default=None)

    verify = sub.add_parser("verify", help="check an optimality certificate")
    verify_sub = verify.add_subparsers(dest="verify_kind", required=True)
    vk = verify_sub.add_parser("kkt", help="binary construction certificate")
    vk.add_argument("--rho", type=float, required=True)
    vk.add_argument("--D", type=float, required=True)
    vk.add_argument("--grid", type=int, default=1001)

    for parser in (cb, cg, cs, solve, sc, sb, so, vk):
        parser.add_argument("--output", default=None, help="file path (default stdout)")
    # only the curves have a CSV form; every other command writes JSON
    for parser in (cb, cg, cs):
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return top


def _emit(text: str, output: str | None, *also: tuple[str, str]) -> None:
    """Write `text` to `output` (stdout when None) and each (text, path) of
    `also` to its path.  Every file is opened before anything is written,
    so a destination that cannot be opened leaves the others unwritten."""
    with ExitStack() as stack:
        dests = [(text, sys.stdout if output is None else stack.enter_context(open(output, "w")))]
        dests += [(more, stack.enter_context(open(path, "w"))) for more, path in also]
        for body, fh in dests:
            fh.write(body)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        ends = np.array([float(a), float(b)])
        if not np.all(np.isfinite(ends)):
            raise ValueError("grid ends must be finite")
        return np.linspace(*ends, int(n))
    except Exception as exc:
        raise CliError(f"bad grid spec {spec!r}, expected A:B:N") from exc


def _load(path: str, read):
    """`read` applied to the JSON in `path`.  A file that cannot be read or
    parsed, or whose JSON lacks a key, breaks its format or has the wrong
    shape, stops the run with a CliError naming the file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        return read(payload)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except KeyError as exc:
        raise CliError(f"{path}: missing key {exc}") from exc
    except serialize.FormatError as exc:
        raise CliError(f"{path}: {exc}") from exc
    except TypeError as exc:
        raise CliError(f"{path}: malformed ({exc})") from exc


def _load_problem(path: str, **budgets) -> RdpProblem:
    """The problem in `path`, with the `budgets` ("D", "P") given on the
    command line in place of the file's, which may then be absent."""
    return _load(path, lambda payload: serialize.from_dict(
        RdpProblem, {**payload, **budgets} if isinstance(payload, dict) else payload))


def _curve_rows(kind: str, args) -> list[dict]:
    if args.grid < 1:
        raise CliError("--grid must be positive")
    # the parameter is checked before its D grid is built from it
    if kind == "binary":
        closed_forms._check_binary_domain(args.rho, 0.0)
        param, dmax = args.rho, 2.0 * args.rho * (1.0 - args.rho)
        phi, varphi = closed_forms.phi_binary, closed_forms.varphi_binary
        rd_half = closed_forms.rd_half_binary
    else:
        closed_forms._check_gaussian_domain(args.var, 0.0)
        param, dmax = args.var, 2.0 * args.var
        phi, varphi = closed_forms.phi_gaussian, closed_forms.varphi_gaussian

        def rd_half(var, dist):
            return closed_forms.rd_gaussian(var, dist / 2.0)

    return [
        {"D": dist, "phi": phi(param, dist), "varphi": varphi(param, dist),
         "rd_half": rd_half(param, dist)}
        for dist in np.linspace(0.0, dmax, args.grid + 1)
    ]


def _run_curve(args) -> int:
    if args.curve_kind in ("binary", "gaussian"):
        rows = _curve_rows(args.curve_kind, args)
        cols = ["D", "phi", "varphi", "rd_half"]
    else:
        d_grid = _parse_grid(args.d_grid)
        p_grid = _parse_grid(args.p_grid) if args.p_grid else None
        # the sweep sets D at every grid point, and P too under --P-grid, so
        # the file needs neither; 0.0 only stands in until the first point
        budgets = {"D": 0.0} if p_grid is None else {"D": 0.0, "P": 0.0}
        prob = _load_problem(args.problem, **budgets)
        cols = ["D", "P", "rate_bits", "achieved_D", "achieved_P", "status"]
        rows = []
        for dist, perc, sol in sweep_curve(prob, d_grid, p_grid, SolverOptions(tol=args.tol)):
            row = {"D": dist, "P": perc, **serialize.to_dict(sol)}
            rows.append({c: row[c] for c in cols})
    if args.format == "csv":
        _emit(serialize.curve_csv(rows, cols), args.output)
    else:
        _emit(serialize.dumps({"rows": rows, "columns": cols}), args.output)
    return EXIT_OK


def _run_solve(args) -> int:
    prob = _load_problem(args.problem, D=args.D, P=args.P)
    sol = solve_rdp(prob, SolverOptions(tol=args.tol))
    _emit(serialize.dumps(serialize.to_dict(sol)), args.output)
    return EXIT_INFEASIBLE if sol.status == INFEASIBLE else EXIT_OK


def _run_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.sim_kind == "circle":
        est = simulate_circle(args.scheme, args.samples, seed, exact=args.exact)
        _emit(serialize.dumps(serialize.to_dict(est)), args.output)
        return EXIT_OK
    if args.sim_kind == "block":
        # two flags naming one file would leave it holding only the report
        out, csv = args.output, args.marginals_csv
        if out and csv and os.path.realpath(out) == os.path.realpath(csv):
            raise CliError(f"--output and --marginals-csv both name {out}")
        source, channel, distortion = _load(args.spec, serialize.block_spec_from_dict)
        rep = shift_ensemble_sim(
            channel,
            source,
            distortion,
            n=args.n,
            rate_bits=args.rate,
            delta=args.delta,
            trials=args.trials,
            seed=seed,
            mode=args.mode,
            alpha=args.alpha,
        )
        also = []
        if csv:
            also.append((serialize.marginals_csv(rep.per_letter_marginals), csv))
        _emit(serialize.dumps(serialize.to_dict(rep)), out, *also)
        return EXIT_OK
    if args.codebooks < 1:
        raise CliError("--codebooks must be positive")
    target, channel, reference = _load(args.spec, serialize.softcover_spec_from_dict)
    for n in args.n:
        check_soft_covering(channel, target.labels, reference, n)
        check_typical_codebook(target, n, args.rate, args.delta)
    scan = []
    for n in args.n:
        tvs = []
        for cb_seed in range(args.codebooks):
            cb = random_typical_codebook(target, n, args.rate, args.delta, seed + cb_seed)
            tvs.append(soft_covering_tv(channel, cb, reference))
        scan.append({"n": n, "tv_mean": float(np.mean(tvs)), "tv_values": tvs})
    payload = {
        "rate_bits": args.rate,
        "delta": args.delta,
        "codebooks": args.codebooks,
        "seed": seed,
        "scan": scan,
    }
    _emit(serialize.dumps(payload), args.output)
    return EXIT_OK


def _run_verify(args) -> int:
    sol = closed_forms.binary_optimal_construction(args.rho, args.D)
    report = closed_forms.kkt_verify(args.rho, args.D, sol, grid_size=args.grid)
    _emit(serialize.dumps(serialize.to_dict(report)), args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "curve":
            return _run_curve(args)
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "simulate":
            return _run_simulate(args)
        return _run_verify(args)
    except (CliError, OSError, ValueError, RuntimeError) as exc:
        print(f"rdplab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    code = main()
    # what is left lives until exit: freezing it spares the interpreter's
    # final collection a pass over every object
    gc.freeze()
    sys.exit(code)
