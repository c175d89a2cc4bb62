import functools
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from rdplab import serialize
from rdplab.cli import main
from rdplab.coding import CircleEstimate, SimReport
from rdplab.divergences import coupling_cost, total_variation, wasserstein_sq
from rdplab.pmf import Channel, Pmf
from rdplab.solver import RdpProblem, RdpSolution, solve_rdp
from rdplab.closed_forms import KktReport, binary_optimal_construction


HAMMING = [[0.0, 1.0], [1.0, 0.0]]


@pytest.fixture
def problem_file(tmp_path):
    payload = {
        "source": {"atoms": [{"label": 0, "prob": 0.75}, {"label": 1, "prob": 0.25}]},
        "distortion": HAMMING,
        "divergence": {"kind": "total_variation"},
        "D": 0.2,
        "P": 0.0,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_round_trip_pmf_channel_problem():
    p = Pmf.from_probs(("a", "b", 3), (0.2, 0.5, 0.3))
    assert serialize.pmf_from_dict(serialize.pmf_to_dict(p)).atoms == p.atoms
    ch = Channel(("x", "y"), (0, 1, 2), np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]]))
    back = serialize.channel_from_dict(serialize.channel_to_dict(ch))
    assert back.inputs == ch.inputs and back.outputs == ch.outputs
    assert np.array_equal(back.matrix, ch.matrix)
    for div in (total_variation(), wasserstein_sq(), coupling_cost(np.array([[0.0, 2.0], [1.0, 0.0]]))):
        prob = RdpProblem(
            source=Pmf.bernoulli(0.3),
            distortion=np.array(HAMMING),
            divergence=div,
            dist_budget=0.1,
            perc_budget=0.2,
        )
        back = serialize.from_dict(RdpProblem, serialize.to_dict(prob))
        assert back.divergence.kind == div.kind
        assert np.array_equal(back.distortion, prob.distortion)
        assert back.dist_budget == prob.dist_budget


def test_round_trip_solution_and_reports():
    prob = RdpProblem(
        source=Pmf.bernoulli(0.25),
        distortion=np.array(HAMMING),
        divergence=total_variation(),
        dist_budget=0.2,
        perc_budget=0.1,
    )
    sol = solve_rdp(prob)
    back = serialize.from_dict(RdpSolution, serialize.to_dict(sol))
    assert back.rate == sol.rate
    assert back.status == sol.status
    assert np.array_equal(back.channel.matrix, sol.channel.matrix)


def _strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_round_trip_infinities_through_strict_json():
    prob = RdpProblem(
        source=Pmf.bernoulli(0.25),
        # outputs {2, 3} are at squared distance >= 1 from {0, 1}: D < 1 is out of reach
        distortion=np.array([[4.0, 9.0], [1.0, 4.0]]),
        divergence=wasserstein_sq(),
        dist_budget=0.5,
        perc_budget=0.5,
        output_alphabet=(2, 3),
    )
    sol = solve_rdp(prob)
    assert sol.status == "infeasible" and sol.rate == float("inf")
    text = serialize.dumps(serialize.to_dict(sol))
    assert _strict_loads(text)["rate_bits"] == "inf"
    back = serialize.from_dict(RdpSolution, _strict_loads(text))
    assert back.rate == float("inf")
    assert back.status == sol.status

    rep = SimReport(
        n=1,
        trials=10,
        rate_bits=0.0,
        avg_distortion=0.5,
        per_letter_marginals=[Pmf.bernoulli(0.5)],
        max_perletter_divergence=float("inf"),
        perception_violations=0,
        seed=3,
        diagnostics={"gap": float("-inf")},
    )
    text = serialize.dumps(serialize.to_dict(rep))
    payload = _strict_loads(text)
    assert payload["max_perletter_divergence"] == "inf"
    assert payload["diagnostics"]["gap"] == "-inf"
    back = serialize.from_dict(SimReport, payload)
    assert back.max_perletter_divergence == float("inf")
    assert back.per_letter_marginals[0].atoms == rep.per_letter_marginals[0].atoms
    with pytest.raises(ValueError):
        serialize.dumps({"x": float("nan")})


def test_csv_and_json_share_the_nonfinite_rule():
    row = {"D": float("inf"), "phi": float("-inf"), "status": "nan"}
    assert serialize.curve_csv([row], list(row)) == "D,phi,status\ninf,-inf,nan\n"
    assert _strict_loads(serialize.dumps(row)) == {"D": "inf", "phi": "-inf", "status": "nan"}
    # a NaN float is refused by both, wherever it sits
    for value in (float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="NaN cannot be written"):
            serialize.curve_csv([{"D": 0.1, "phi": value}], ["D", "phi"])
        with pytest.raises(ValueError, match="NaN cannot be written"):
            serialize.dumps({"rows": [{"phi": value}]})


# one value of each tabled type, all of whose readers are strict
STRICT_REPORTS = {
    "circle": CircleEstimate("private", 10, 0.5, 0.01, 0.5),
    "kkt": KktReport(0.0, 0.1, 0.0, True),
    "problem": RdpProblem(Pmf.bernoulli(0.25), np.array(HAMMING), coupling_cost(np.array(HAMMING)), 0.2, 0.05),
    "sim": SimReport(n=1, trials=10, rate_bits=0.0, avg_distortion=0.5, per_letter_marginals=[Pmf.bernoulli(0.5)],
                     max_perletter_divergence=0.0, perception_violations=0, seed=3),
    "solution": RdpSolution(0.1, Channel.identity((0, 1)), 0.0, 0.0, "optimal", 0.0, 53),
}


@pytest.mark.parametrize("kind, key, value", [
    ("circle", "samples", 1.5),
    ("kkt", "passed", "false"),
    ("problem", "P", [0.05]),
    ("sim", "n", 2.7),
    ("sim", "trials", True),
    ("sim", "perception_violations", "3"),
    ("solution", "rate_bits", "0.1"),
    ("solution", "iterations", 53.9),
], ids=lambda v: str(v))
def test_report_readers_take_only_the_json_type_that_dumps_writes(kind, key, value):
    report = STRICT_REPORTS[kind]
    text = serialize.dumps(serialize.to_dict(report))
    payload = json.loads(text)
    assert serialize.dumps(serialize.to_dict(serialize.from_dict(type(report), payload))) == text
    with pytest.raises(ValueError, match=f"'{key}'"):
        serialize.from_dict(type(report), {**payload, key: value})


@pytest.mark.parametrize("kind", sorted(STRICT_REPORTS))
def test_tabled_readers_refuse_unknown_keys(kind):
    cls = type(STRICT_REPORTS[kind])
    payload = json.loads(serialize.dumps(serialize.to_dict(STRICT_REPORTS[kind])))
    with pytest.raises(ValueError, match=f"^{cls.__name__} has no key 'extra'$"):
        serialize.from_dict(cls, {**payload, "extra": 0})


_PROBLEM = {
    "source": {"atoms": [{"label": 0, "prob": 0.75}, {"label": 1, "prob": 0.25}]},
    "distortion": HAMMING, "D": 0.2, "P": 0.0,
}


@pytest.mark.parametrize("reader, payload, key", [
    (serialize.channel_from_dict, {"inputs": [0, 1], "rows": [["1", "0"], [False, True]]}, "rows"),
    (serialize.channel_from_dict, {"inputs": [0, 1], "rows": [[1.0, 0.0], [False, True]]}, "rows"),
    (serialize.pmf_from_dict, {"atoms": [{"label": 0, "prob": "0.75"}, {"label": 1, "prob": 0.25}]}, "prob"),
    (functools.partial(serialize.from_dict, RdpProblem), {**_PROBLEM, "D": True}, "D"),
    (functools.partial(serialize.from_dict, RdpProblem), {**_PROBLEM, "P": "none"}, "P"),
    (functools.partial(serialize.from_dict, RdpProblem), {**_PROBLEM, "distortion": [[0.0, True], [1.0, 0.0]]},
     "distortion"),
], ids=["channel-strings", "channel-bools", "pmf-string", "problem-budget", "problem-text-budget",
        "problem-distortion"])
def test_nested_readers_take_only_json_numbers(reader, payload, key):
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        reader(payload)


@pytest.mark.parametrize("reader, payload, message", [
    (serialize.pmf_from_dict, {"atoms": [{"label": 0, "prob": 1.0}], "labels": [0]}, "Pmf has no key 'labels'"),
    (serialize.pmf_from_dict, {"atoms": [{"label": 0, "prob": 1.0, "weight": 1}]}, "Pmf atom has no key 'weight'"),
    (serialize.channel_from_dict, {"inputs": [0, 1], "ouputs": [0], "rows": [[1.0], [1.0]]},
     "Channel has no key 'ouputs'"),
    (serialize.divergence_from_dict, {"kind": "total_variation", "weight": 1}, "DivergenceSpec has no key 'weight'"),
    (serialize.block_spec_from_dict,
     {"source": _PROBLEM["source"], "channel": {"inputs": [0, 1], "rows": [[1.0, 0.0], [0.0, 1.0]]},
      "distortion": HAMMING, "rate": 0.9}, "block spec has no key 'rate'"),
    (serialize.softcover_spec_from_dict,
     {"target": _PROBLEM["source"], "channel": {"inputs": [0, 1], "rows": [[1.0, 0.0], [0.0, 1.0]]},
      "reference": _PROBLEM["source"], "codebooks": 7}, "soft-covering spec has no key 'codebooks'"),
], ids=["pmf", "pmf-atom", "channel", "divergence", "block-spec", "softcover-spec"])
def test_nested_readers_refuse_unknown_keys(reader, payload, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        reader(payload)


def test_problem_files_keep_numeric_strings():
    prob = serialize.from_dict(RdpProblem, {**_PROBLEM, "distortion": [["0", "1"], ["1", "0"]], "D": "0.2"})
    assert prob.dist_budget == 0.2
    assert prob.distortion.tolist() == HAMMING


def test_channel_outputs_default_to_inputs():
    ch = serialize.channel_from_dict({"inputs": [0, 1], "rows": [[0.7, 0.3], [0.1, 0.9]]})
    assert ch.outputs == (0, 1)


def test_curve_binary_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "binary", "--rho", "0.25", "--grid", "200", "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["D", "phi", "varphi", "rd_half"]
    assert len(rows) == 201
    last = rows[-1]
    assert float(last["D"]) == pytest.approx(0.375)
    assert float(last["phi"]) == 0.0
    assert float(last["varphi"]) == 0.0
    first = rows[0]
    assert float(first["phi"]) == pytest.approx(0.811278124459, abs=1e-9)


def test_curve_gaussian_csv(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "gaussian", "--var", "1", "--grid", "200", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    at_one = [r for r in rows if abs(float(r["D"]) - 1.0) < 1e-12]
    assert len(at_one) == 1
    assert float(at_one[0]["varphi"]) == pytest.approx(0.5, abs=1e-12)
    assert rows[0]["phi"] == "inf"


def test_curve_binary_bad_rho(capsys):
    assert main(["curve", "binary", "--rho", "0.6"]) == 1
    assert "rho" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["curve", "binary", "--nope"]) == 1


def test_solve_command(problem_file, tmp_path):
    out = tmp_path / "sol.json"
    code = main(["solve", "--problem", problem_file, "--D", "0.0", "--P", "0.0",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rate_bits"] == pytest.approx(0.8112781244591328, abs=1e-6)
    back = serialize.from_dict(RdpSolution, payload)
    assert back.status == "optimal"


def test_solve_infeasible_exit(tmp_path):
    payload = {
        "source": {"atoms": [{"label": 0, "prob": 0.75}, {"label": 1, "prob": 0.25}]},
        "distortion": [[1.0, 2.0], [2.0, 1.0]],
        "divergence": {"kind": "wasserstein_sq"},
        "D": 5.0,
        "P": 0.0,
        "output_alphabet": [5.0, 7.0],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    assert main(["solve", "--problem", str(path), "--D", "5.0", "--P", "0.0"]) == 3


def test_missing_file_exit(tmp_path):
    assert main(["solve", "--problem", str(tmp_path / "nope.json"),
                 "--D", "0.1", "--P", "0.1"]) == 1


def test_curve_solve_sweep(problem_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "curve", "solve", "--problem", problem_file,
        "--D-grid", "0.1:0.3:3", "--output", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["D", "P", "rate_bits", "achieved_D", "achieved_P", "status"]
    assert len(rows) == 3
    rates = [float(r["rate_bits"]) for r in rows]
    assert rates == sorted(rates, reverse=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--D", "0.2", "--P", "0.05"],
        ["curve", "solve", "--D-grid", "0.1:0.3:3", "--P-grid", "0:0.1:2", "--format", "json"],
    ],
    ids=["solve", "curve-solve"],
)
def test_budget_flags_stand_in_for_absent_file_budgets(problem_file, tmp_path, capsys, argv):
    # --D and --P (or the grids) replace the file's budgets, so a file
    # with only the source and the distortion does as well
    bare = tmp_path / "bare.json"
    full = json.loads((tmp_path / "problem.json").read_text())
    bare.write_text(json.dumps({"source": full["source"], "distortion": full["distortion"]}))
    outputs = []
    for path in (problem_file, str(bare)):
        assert main([*argv, "--problem", path]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out and outputs[1] == outputs[0]


def test_curve_solve_needs_file_P_without_grid(problem_file, tmp_path, capsys):
    path = tmp_path / "no_p.json"
    payload = json.loads((tmp_path / "problem.json").read_text())
    del payload["P"]
    path.write_text(json.dumps(payload))
    assert main(["curve", "solve", "--problem", str(path), "--D-grid", "0.1:0.3:3"]) == 1
    assert capsys.readouterr() == ("", f"rdplab: {path}: missing key 'P'\n")


def test_nonfinite_budgets_fail_fast(problem_file, tmp_path, capsys):
    # a NaN or infinite budget is a usage error, reported before any LP runs
    assert main(["solve", "--problem", problem_file, "--D", "nan", "--P", "0.0"]) == 1
    assert capsys.readouterr() == ("", "rdplab: budgets must be finite and nonnegative\n")
    path = tmp_path / "p_inf.json"
    payload = json.loads((tmp_path / "problem.json").read_text())
    payload["P"] = "inf"
    path.write_text(json.dumps(payload))
    assert main(["curve", "solve", "--problem", str(path), "--D-grid", "0.1:0.3:3"]) == 1
    assert capsys.readouterr() == ("", "rdplab: budgets must be finite and nonnegative\n")


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_bad_tol_fails_fast(problem_file, capsys, tol):
    for argv in (["solve", "--problem", problem_file, "--D", "0.1", "--P", "0.05"],
                 ["curve", "solve", "--problem", problem_file, "--D-grid", "0.1:0.3:3"]):
        assert main([*argv, "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("rdplab: tol must be finite and positive"), err


def test_curve_solve_stops_on_solver_error(problem_file, monkeypatch, capsys):
    import rdplab.solver as solver_mod

    real = solver_mod.solve_rdp

    def failing(prob, opts=None):
        if prob.dist_budget > 0.15:
            raise RuntimeError("LP subproblem became infeasible")
        return real(prob, opts)

    monkeypatch.setattr(solver_mod, "solve_rdp", failing)
    code = main(["curve", "solve", "--problem", problem_file, "--D-grid", "0.1:0.3:3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "rdplab: LP subproblem became infeasible\n"


def test_simulate_circle_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["simulate", "circle", "--scheme", "common", "--samples", "20000",
            "--seed", "7"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    est = serialize.from_dict(CircleEstimate, payload)
    assert abs(est.mean - est.analytic) <= 4 * est.std_error


def test_simulate_circle_env_seed(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("RDPLAB_SEED", "99")
    argv = ["simulate", "circle", "--scheme", "private", "--samples", "5000"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--seed", "99", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_simulate_env_seed_not_an_integer(tmp_path, monkeypatch, capsys, value):
    import rdplab.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("the simulation ran before the seed was checked")

    monkeypatch.setattr(cli_mod, "simulate_circle", never)
    monkeypatch.setenv("RDPLAB_SEED", value)
    out = tmp_path / "a.json"
    argv = ["simulate", "circle", "--scheme", "private", "--samples", "5000", "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"rdplab: RDPLAB_SEED='{value}' is not an integer\n")
    assert not out.exists()


def _block_argv(tmp_path):
    sol = binary_optimal_construction(0.25, 0.3)
    spec = {
        "source": {"atoms": [{"label": 0, "prob": 0.75}, {"label": 1, "prob": 0.25}]},
        "channel": serialize.channel_to_dict(sol.p_v_given_x),
        "distortion": [
            [float(v) ** 2 for v in sol.p_v_given_x.outputs],
            [(1.0 - float(v)) ** 2 for v in sol.p_v_given_x.outputs],
        ],
    }
    spec_path = tmp_path / "block.json"
    spec_path.write_text(json.dumps(spec))
    return [
        "simulate", "block", "--spec", str(spec_path), "--n", "16",
        "--rate", "0.35", "--delta", "0.4", "--trials", "200", "--seed", "5",
    ]


def test_simulate_block(tmp_path):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "marg.csv"
    code = main(_block_argv(tmp_path) + ["--output", str(out), "--marginals-csv", str(csv_out)])
    assert code == 0
    rep = serialize.from_dict(SimReport, json.loads(out.read_text()))
    assert rep.n == 16 and rep.trials == 200
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "t,atom,prob"
    assert len(lines) == 1 + 16 * 2


def test_simulate_block_reads_its_distortion_strictly(tmp_path, capsys):
    """The spec's distortion follows the problem-file rule: numeric strings
    read as numbers, and a bool stops the run with a message naming the key."""
    argv = _block_argv(tmp_path)
    spec_path = tmp_path / "block.json"
    spec = json.loads(spec_path.read_text())
    assert main(argv + ["--output", str(tmp_path / "numbers.json")]) == 0
    spec_path.write_text(json.dumps({**spec, "distortion": [[repr(v) for v in row] for row in spec["distortion"]]}))
    assert main(argv + ["--output", str(tmp_path / "strings.json")]) == 0
    assert (tmp_path / "strings.json").read_text() == (tmp_path / "numbers.json").read_text()
    spec_path.write_text(json.dumps({**spec, "distortion": [[0, True], ["1", 0]]}))
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'distortion' must be a JSON number or a numeric string, not True" in captured.err


@pytest.mark.parametrize("output, csv", [
    pytest.param(None, "missing", id="stdout-and-unopenable-csv"),
    pytest.param("report.json", "missing", id="file-and-unopenable-csv"),
    pytest.param("missing", "marg.csv", id="unopenable-output-and-csv"),
])
def test_simulate_block_writes_nothing_when_a_destination_cannot_be_opened(output, csv, tmp_path, capsys):
    # "missing" names a file in a directory that does not exist
    paths = {name: tmp_path / ("no-such-dir/x" if name == "missing" else name) for name in (output, csv) if name}
    argv = _block_argv(tmp_path) + ["--marginals-csv", str(paths[csv])]
    if output:
        argv += ["--output", str(paths[output])]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rdplab: [Errno 2]") and "no-such-dir" in captured.err
    # a destination opened before the other failed holds nothing
    for name, path in paths.items():
        if name != "missing":
            assert not path.exists() or path.read_text() == "", name


def test_simulate_block_refuses_one_file_for_both_outputs(tmp_path, capsys):
    out = tmp_path / "same.out"
    # a second spelling of the same path
    argv = _block_argv(tmp_path) + ["--output", str(out), "--marginals-csv", os.path.join(tmp_path, ".", "same.out")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"rdplab: --output and --marginals-csv both name {out}\n")
    assert not out.exists()


def test_simulate_softcover(tmp_path):
    spec = {
        "target": {"atoms": [{"label": 0, "prob": 0.5}, {"label": 1, "prob": 0.5}]},
        "channel": {"inputs": [0, 1], "rows": [[0.89, 0.11], [0.11, 0.89]]},
        "reference": {"atoms": [{"label": 0, "prob": 0.5}, {"label": 1, "prob": 0.5}]},
    }
    spec_path = tmp_path / "soft.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "soft_report.json"
    code = main([
        "simulate", "softcover", "--spec", str(spec_path), "--n", "4", "6",
        "--rate", "1.0", "--delta", "0.6", "--codebooks", "3", "--seed", "1",
        "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [entry["n"] for entry in payload["scan"]] == [4, 6]
    assert payload["scan"][1]["tv_mean"] < payload["scan"][0]["tv_mean"]


def test_verify_kkt_exit_codes(tmp_path, capsys):
    assert main(["verify", "kkt", "--rho", "0.25", "--D", "0.2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    report = serialize.from_dict(KktReport, payload)
    assert report.equality_residual <= 1e-9
    # boundary D is a domain error, not a failed certificate
    assert main(["verify", "kkt", "--rho", "0.25", "--D", "0.375"]) == 1


def test_verify_kkt_failure_exit(monkeypatch, capsys):
    import dataclasses

    import rdplab.cli as cli_mod

    real = binary_optimal_construction

    def perturbed(rho, dist):
        sol = real(rho, dist)
        return dataclasses.replace(sol, lam=sol.lam * 1.01)

    monkeypatch.setattr(cli_mod.closed_forms, "binary_optimal_construction", perturbed)
    assert main(["verify", "kkt", "--rho", "0.25", "--D", "0.2"]) == 2
    assert json.loads(capsys.readouterr().out)["passed"] is False


SOFT_SPEC = {
    "target": {"atoms": [{"label": 0, "prob": 0.5}, {"label": 1, "prob": 0.5}]},
    "channel": {"inputs": [0, 1], "rows": [[0.89, 0.11], [0.11, 0.89]]},
    "reference": {"atoms": [{"label": 0, "prob": 0.5}, {"label": 1, "prob": 0.5}]},
}
# three inputs and three outputs: the dense soft-covering fold at k_in = 3
TERNARY_SOFT_SPEC = {
    "target": {"atoms": [{"label": 0, "prob": 0.5}, {"label": 1, "prob": 0.3}, {"label": 2, "prob": 0.2}]},
    "channel": {"inputs": [0, 1, 2], "rows": [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]]},
    "reference": {"atoms": [{"label": 0, "prob": 0.45}, {"label": 1, "prob": 0.3}, {"label": 2, "prob": 0.25}]},
}
SPEC_FLAGS = ["--n", "4", "--rate", "1.0", "--delta", "0.6"]


@pytest.mark.parametrize(
    "payload, argv, message",
    [
        ({"distortion": HAMMING, "D": 0.2, "P": 0.0},
         ["solve", "--problem", "{path}", "--D", "0.2", "--P", "0.0"], "missing key 'source'"),
        ([1, 2], ["solve", "--problem", "{path}", "--D", "0.2", "--P", "0.0"], "malformed"),
        ({"channel": SOFT_SPEC["channel"], "distortion": HAMMING},
         ["simulate", "block", "--spec", "{path}", *SPEC_FLAGS], "missing key 'source'"),
        ({"channel": SOFT_SPEC["channel"], "reference": SOFT_SPEC["reference"]},
         ["simulate", "softcover", "--spec", "{path}", *SPEC_FLAGS], "missing key 'target'"),
        ([1, 2], ["simulate", "softcover", "--spec", "{path}", *SPEC_FLAGS], "malformed"),
    ],
    ids=["solve-no-source", "solve-list", "block-no-source", "softcover-no-target", "softcover-list"],
)
def test_malformed_input_file_exit(tmp_path, capsys, payload, argv, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main([str(path) if a == "{path}" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"rdplab: {path}: ")
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["curve", "solve", "--D-grid", "0.1:0.3"], "bad grid spec '0.1:0.3', expected A:B:N",
                 id="grid-spec-two-fields"),
    pytest.param(["curve", "solve", "--D-grid", "0.1:0.3:x"], "bad grid spec '0.1:0.3:x', expected A:B:N",
                 id="grid-spec-not-a-number"),
    pytest.param(["curve", "binary", "--grid", "0"], "--grid must be positive", id="curve-binary-grid-0"),
    pytest.param(["curve", "gaussian", "--grid", "0"], "--grid must be positive", id="curve-gaussian-grid-0"),
])
def test_grid_options_fail_fast(argv, message, problem_file, capsys):
    if argv[1] == "solve":
        argv = [*argv, "--problem", problem_file]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"rdplab: {message}\n")


def test_softcover_rejects_zero_codebooks(tmp_path, capsys, recwarn):
    spec_path = tmp_path / "soft.json"
    spec_path.write_text(json.dumps(SOFT_SPEC))
    code = main(["simulate", "softcover", "--spec", str(spec_path), *SPEC_FLAGS,
                 "--codebooks", "0"])
    assert code == 1
    assert capsys.readouterr() == ("", "rdplab: --codebooks must be positive\n")
    assert not recwarn.list


def test_softcover_checks_every_n_before_drawing(tmp_path, capsys, monkeypatch):
    import rdplab.cli as cli_mod

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a codebook before checking every --n")

    monkeypatch.setattr(cli_mod, "random_typical_codebook", no_draw)
    spec_path = tmp_path / "soft.json"
    spec_path.write_text(json.dumps(SOFT_SPEC))
    # n = 25 would draw 2^20 words before the enumeration cap stopped it
    code = main(["simulate", "softcover", "--spec", str(spec_path), "--n", "4", "25",
                 "--rate", "0.8", "--delta", "0.6", "--codebooks", "1"])
    assert code == 1
    assert capsys.readouterr() == ("", "rdplab: output space too large for exact enumeration\n")
    # n = 4 would draw before the codebook-size cap stopped n = 24
    code = main(["simulate", "softcover", "--spec", str(spec_path), "--n", "4", "24",
                 "--rate", "0.9", "--delta", "0.6", "--codebooks", "1"])
    assert code == 1
    assert capsys.readouterr() == ("", "rdplab: codebook larger than 2^20 words\n")


BLOCK_SPEC = {
    "source": {"atoms": [{"label": 0, "prob": 0.75}, {"label": 1, "prob": 0.25}]},
    "channel": {"inputs": [0, 1], "rows": [[0.9, 0.1], [0.3, 0.7]]},
    "distortion": HAMMING,
}
# outputs {2, 3} are at squared distance >= 1 from {0, 1}: D = 0.5 is out of reach
INFEASIBLE_PROBLEM = {
    "source": {"atoms": [{"label": 0, "prob": 0.75}, {"label": 1, "prob": 0.25}]},
    "distortion": [[4, 9], [1, 4]],
    "divergence": {"kind": "wasserstein_sq"},
    "D": 0.5,
    "P": 0.5,
    "output_alphabet": [2, 3],
}


@pytest.mark.parametrize("kind, spec, key, name", [
    ("block", BLOCK_SPEC, "rate", "block spec"),
    ("softcover", SOFT_SPEC, "codebooks", "soft-covering spec"),
], ids=["block", "softcover"])
def test_spec_files_refuse_unknown_keys(kind, spec, key, name, tmp_path, capsys):
    """A stray key, even one that names a flag, stops the run rather than
    being ignored."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, key: 7}))
    assert main(["simulate", kind, "--spec", str(path), *SPEC_FLAGS]) == 1
    assert capsys.readouterr() == ("", f"rdplab: {name} has no key '{key}'\n")


def _with_input_files(argv, problem_file, tmp_path):
    """`argv` with "{problem}", "{infeasible}", "{block}", "{soft}" and
    "{soft3}" replaced by the paths of those input files, written to
    `tmp_path`."""
    files = {"problem": problem_file}
    for name, payload in (("infeasible", INFEASIBLE_PROBLEM), ("block", BLOCK_SPEC),
                          ("soft", SOFT_SPEC), ("soft3", TERNARY_SOFT_SPEC)):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    return [a.format(**files) if a.startswith("{") else a for a in argv]


# exit code and sha256 of stdout for one small run of every command,
# recorded before `--format` was dropped from the commands that always
# write JSON; the three block and soft-covering runs were recorded again
# when codebooks of at most 2^12 sequences came to be drawn from a table of
# their words (same compositions, other arrangements)
CLI_STDOUT_PINS = {
    "curve-binary-csv": (
        ["curve", "binary", "--rho", "0.25", "--grid", "20"],
        0, "e37c2e5c28edc20e859c52ecc4d8d55855323d820e3af3382dce5d7008e13822",
    ),
    "curve-binary-json": (
        ["curve", "binary", "--rho", "0.25", "--grid", "20", "--format", "json"],
        0, "c1bcc81fc9fab64b9827a143a03c6fef49e6c3195607c8b7416b9af2eb7d3a9d",
    ),
    "curve-gaussian-csv": (
        ["curve", "gaussian", "--var", "2", "--grid", "20"],
        0, "b25cb14055c6e1178fb16ed49ee9e1bb512f8baa7d67f1c99efb96df9d52860b",
    ),
    "curve-gaussian-json": (
        ["curve", "gaussian", "--var", "2", "--grid", "20", "--format", "json"],
        0, "aaf4133ff9efa79b000addbcabff6a9942877f108c86c5c4734a981d86d3c5a7",
    ),
    "curve-solve-csv": (
        ["curve", "solve", "--problem", "{problem}", "--D-grid", "0.1:0.3:3"],
        0, "120de1ed62194e2c3b3b2b45f3a476e5f323173961b2631df64d3b13f795cec0",
    ),
    "curve-solve-json": (
        ["curve", "solve", "--problem", "{problem}", "--D-grid", "0.1:0.3:2",
         "--P-grid", "0:0.1:2", "--format", "json"],
        0, "1af112b7ca8f04be37e3fe6464f04906cf0f82a7b4c0e3bb19887c4e0e4ddee6",
    ),
    "solve": (
        ["solve", "--problem", "{problem}", "--D", "0.2", "--P", "0.05"],
        0, "02ce79b7eefaecdbdf7088a2ef2af55cee17414039ea5226ed43f839c46009db",
    ),
    "solve-infeasible": (
        ["solve", "--problem", "{infeasible}", "--D", "0.5", "--P", "0.5"],
        3, "710d32e08cc3110c4f1128acce2dc28c8552023c4505e8698ed5879be0e2bbf0",
    ),
    "simulate-circle-exact": (
        ["simulate", "circle", "--scheme", "unconstrained", "--exact"],
        0, "3977a17f0944f59afbe6dc82eb04e8a7ee6c5e7e103b9ab9f3b35bc092109422",
    ),
    "simulate-circle-sampled": (
        ["simulate", "circle", "--scheme", "private", "--samples", "5000", "--seed", "3"],
        0, "d5f2ee825b5c52efc53c106d94e5ba32670de23cd836bb61774158f7d2c0c2d2",
    ),
    "simulate-block": (
        ["simulate", "block", "--spec", "{block}", "--n", "8", "--rate", "0.5",
         "--delta", "0.5", "--trials", "50", "--seed", "2", "--mode", "derandomized",
         "--alpha", "0.5"],
        0, "02923c1f21cd86db4bbfb9395de56b7912ea5494530577465ec9a5cbf728fd2f",
    ),
    "simulate-softcover": (
        ["simulate", "softcover", "--spec", "{soft}", "--n", "4", "6", "--rate", "1.0",
         "--delta", "0.6", "--codebooks", "2", "--seed", "1"],
        0, "cc39cf104042f63bcf1409921e80e7a4648b6b5936ff2f6495f82715acc016fb",
    ),
    "simulate-softcover-ternary": (
        ["simulate", "softcover", "--spec", "{soft3}", "--n", "4", "6", "--rate", "0.8",
         "--delta", "0.6", "--codebooks", "2", "--seed", "1"],
        0, "483cc4de27ac8b28c851b1c96128aff37b630025fdaf5980ec8dcbc9a1b68d50",
    ),
    "verify-kkt": (
        ["verify", "kkt", "--rho", "0.3", "--D", "0.25", "--grid", "201"],
        0, "88f0fc100fbf47fc96abf755951ba620c3a06209da64ca995b0b903b1e543d4f",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_STDOUT_PINS))
def test_cli_stdout_is_pinned(case, problem_file, tmp_path, capsys):
    argv, code, digest = CLI_STDOUT_PINS[case]
    assert main(_with_input_files(argv, problem_file, tmp_path)) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the pins whose JSON has a typed reader, with the type it reads
TYPED_PINS = {
    "solve": RdpSolution,
    "solve-infeasible": RdpSolution,
    "simulate-block": SimReport,
    "simulate-circle-exact": CircleEstimate,
    "simulate-circle-sampled": CircleEstimate,
    "verify-kkt": KktReport,
}


@pytest.mark.parametrize("case", sorted(CLI_STDOUT_PINS))
def test_cli_output_file_holds_the_pinned_bytes(case, problem_file, tmp_path, capsys):
    argv, code, digest = CLI_STDOUT_PINS[case]
    out = tmp_path / "out"
    assert main([*_with_input_files(argv, problem_file, tmp_path), "--output", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if case in TYPED_PINS:
        text = out.read_text()
        assert serialize.dumps(serialize.to_dict(serialize.from_dict(TYPED_PINS[case], json.loads(text)))) == text


@pytest.mark.parametrize("case", ["verify-kkt", "bad-rho", "solve-infeasible"])
def test_module_entry_point_keeps_the_exit_code_and_stdout(case, problem_file, tmp_path):
    # `python -m rdplab.cli` runs main() and freezes the heap before exit:
    # a pinned run prints its pinned bytes and exits with its pinned code
    # (0 and 3), and a bad value exits 1 with a message on stderr
    import rdplab

    argv, code, digest = CLI_STDOUT_PINS.get(case, (["curve", "binary", "--rho", "0.6"], 1, None))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rdplab.__file__)))
    res = subprocess.run([sys.executable, "-m", "rdplab.cli", *_with_input_files(argv, problem_file, tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == code, res.stderr
    if digest is None:
        assert res.stdout == "" and "rho" in res.stderr
    else:
        assert res.stderr == ""
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# every float flag, set to NaN or +-inf in one pinned run above; only an
# infinite typicality slack is a valid input (every word is typical)
NONFINITE_RUNS = [
    (case, flag, value, 0 if (flag, value) == ("--delta", "inf") else 1)
    for case, flag in [
        ("curve-binary-csv", "--rho"), ("curve-gaussian-csv", "--var"), ("curve-solve-csv", "--tol"),
        ("curve-solve-csv", "--D-grid"), ("curve-solve-json", "--P-grid"), ("solve", "--D"),
        ("solve", "--P"), ("solve", "--tol"), ("simulate-block", "--rate"),
        ("simulate-block", "--delta"), ("simulate-block", "--alpha"), ("simulate-softcover", "--rate"),
        ("simulate-softcover", "--delta"), ("verify-kkt", "--rho"), ("verify-kkt", "--D"),
    ]
    for value in ("nan", "inf", "-inf")
] + [("simulate-block", "--rate", "300", 1), ("simulate-softcover", "--rate", "300", 1)]


@pytest.mark.parametrize("case, flag, value, code", NONFINITE_RUNS,
                         ids=[f"{c}{f}={v}" for c, f, v, _ in NONFINITE_RUNS])
def test_nonfinite_numbers_exit_with_a_message(case, flag, value, code, problem_file, tmp_path, capsys):
    argv = _with_input_files(CLI_STDOUT_PINS[case][0], problem_file, tmp_path)
    if flag in argv:
        at = argv.index(flag)
        del argv[at:at + 2]
    if flag.endswith("-grid"):
        value = f"0.1:{value}:2"
    # main returns rather than raising, and under the suite's warning filter
    # no RuntimeWarning escapes it either
    assert main([*argv, f"{flag}={value}"]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("rdplab: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "{problem}", "--D", "0.2", "--P", "0.05"],
        ["simulate", "circle", "--scheme", "private", "--samples", "100"],
        ["simulate", "block", "--spec", "{block}", "--n", "8", "--rate", "0.5",
         "--delta", "0.5", "--trials", "5"],
        ["simulate", "softcover", "--spec", "{soft}", "--n", "4", "--rate", "1.0",
         "--delta", "0.6"],
        ["verify", "kkt", "--rho", "0.25", "--D", "0.2"],
    ],
    ids=["solve", "simulate-circle", "simulate-block", "simulate-softcover", "verify-kkt"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_json_only_commands_reject_format(argv, fmt, problem_file, tmp_path, capsys):
    # these commands always write JSON, so --format is a usage error
    argv = _with_input_files(argv, problem_file, tmp_path)
    assert main([*argv, "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: rdplab ")
    assert err.endswith(f"rdplab: unrecognized arguments: --format {fmt}\n")


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["verify", "kkt", "--rho", "0.25", "--D", "0.2", "--format", "json"], "verify kkt"),
        (["simulate", "circle", "--scheme", "private", "--format", "json"], "simulate circle"),
        (["curve", "solve", "--problem", "{problem}", "--D-grid", "0.1:0.3:2", "--bogus"], "curve solve"),
    ],
    ids=["verify-kkt", "simulate-circle", "curve-solve"],
)
def test_unknown_flag_prints_the_command_usage(argv, usage, problem_file, tmp_path, capsys):
    assert main(_with_input_files(argv, problem_file, tmp_path)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: rdplab {usage} [-h]")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"divergence": {"kind": "total_variation", "cost": HAMMING}}, "total_variation takes no cost matrix"),
        ({"divergence": {"kind": "coupling_cost"}}, "coupling-cost divergence needs a cost matrix"),
        ({"divergence": {"kind": "kullback_leibler", "weight": 2}}, "DivergenceSpec has no key 'weight'"),
        ({"divergence": {"kind": "coupling_cost", "cost": [[0, True], [1, 0]]}},
         "'cost' must be a JSON number or a numeric string, not True"),
        # a misspelled key is refused, not read as an absent one (which
        # would solve under total variation and exit 0)
        ({"divergance": {"kind": "kullback_leibler"}}, "RdpProblem has no key 'divergance'"),
    ],
    ids=["stray-cost", "missing-cost", "unknown-nested-key", "bool-cost", "misspelled-key"],
)
def test_problem_file_divergence_is_read_strictly(fields, message, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "source": {"atoms": [{"label": 0, "prob": 0.75}, {"label": 1, "prob": 0.25}]},
        "distortion": HAMMING, "D": 0.2, "P": 0.05, **fields,
    }))
    assert main(["solve", "--problem", str(path), "--D", "0.2", "--P", "0.05"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"rdplab: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "binary", "--grid", "4"],
        ["curve", "gaussian", "--grid", "4"],
        ["curve", "solve", "--problem", "{problem}", "--D-grid", "0.1:0.3:2"],
    ],
    ids=["binary", "gaussian", "solve"],
)
def test_curve_commands_take_csv_or_json(argv, problem_file, tmp_path, capsys):
    argv = _with_input_files(argv, problem_file, tmp_path)
    assert main(argv) == 0
    default = capsys.readouterr()
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr() == default
    assert main([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert default.out.splitlines()[0] == ",".join(payload["columns"])
    assert len(payload["rows"]) == len(default.out.splitlines()) - 1


def _run_fresh(script):
    """Run `script` in a new interpreter that imports rdplab from this checkout."""
    import rdplab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rdplab.__file__)))
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_closed_form_commands_never_import_scipy_solvers(problem_file, tmp_path):
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(json.dumps({
        "source": {"atoms": [{"label": 0, "prob": 0.75}, {"label": 1, "prob": 0.25}]},
        "distortion": [[4, 9], [1, 4]], "divergence": {"kind": "wasserstein_sq"},
        "D": 0.5, "P": 0.5, "output_alphabet": [2, 3],
    }))
    _run_fresh(f"""
        import contextlib, io, sys
        import rdplab, rdplab.cli
        for argv, code in (
            (["curve", "binary", "--grid", "20"], 0),
            (["curve", "gaussian", "--grid", "20"], 0),
            (["verify", "kkt", "--rho", "0.25", "--D", "0.2", "--grid", "101"], 0),
            (["simulate", "circle", "--scheme", "common", "--samples", "1000"], 0),
            (["simulate", "circle", "--scheme", "antipodal", "--exact"], 0),
            (["solve", "--problem", {problem_file!r}, "--D", "0.1", "--P", "0.0"], 0),
            (["curve", "solve", "--problem", {problem_file!r}, "--D-grid", "0.1:0.3:3"], 0),
            (["solve", "--problem", {str(infeasible)!r}, "--D", "0.5", "--P", "0.5"], 3),
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert rdplab.cli.main(argv) == code, argv
        loaded = {{"scipy.optimize", "scipy.integrate"}} & sys.modules.keys()
        assert not loaded, loaded
    """)


def test_lazy_scipy_paths_work_from_cold():
    _run_fresh("""
        import math
        import sys
        import numpy as np
        from rdplab import Pmf, RdpProblem, solve_rdp, wasserstein_sq
        from rdplab.coding import simulate_circle
        # outputs other than the source labels: one LP finds the reference channel
        prob = RdpProblem(source=Pmf.bernoulli(0.3), distortion=np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
                          divergence=wasserstein_sq(), dist_budget=0.15, perc_budget=0.2,
                          output_alphabet=(0, 1, 2))
        sol = solve_rdp(prob)
        assert sol.status == "optimal" and sol.iterations > 0, sol
        assert "scipy.optimize" in sys.modules
        est = simulate_circle("antipodal", 1, exact=True)
        assert abs(est.mean - (2 - 4 / math.pi)) <= 1e-9, est
    """)
