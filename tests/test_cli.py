import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lossy_storage as ls
from lossy_storage import cli
from lossy_storage.errors import HorizonNot2, ParseError, SchemaError, ValidationError


TWO_PERIOD_SCENARIO = {
    "storage": {"eta_c": 0.5, "eta_d": 0.5, "lambda": 1.0, "delta": 1.0, "x0": 0.75, "horizon": 2},
    "bounds": {"u_max": [1, 1], "u_min": [1, 1], "x_max": [1, 1], "x_min": [0, 0]},
    "cost": {"family": "energy_arbitrage", "p_buy": [1, 1], "p_sell": [1, 1]},
    "solve": {"max_iterations": 6000},
    "outputs": ["solution", "certificate"],
}


#: Two periods at the float limit: x0 5e307 and power and energy bounds
#: 1e308, so each power box is wider than the float range.
FLOAT_LIMIT_SCENARIO = {
    "storage": {"eta_c": 0.5, "eta_d": 0.5, "lambda": 1.0, "delta": 1.0, "x0": 5e307, "horizon": 2},
    "bounds": {"u_max": [1e308, 1e308], "u_min": [1e308, 1e308], "x_max": [1e308, 1e308], "x_min": [0, 0]},
    "cost": {"family": "peak_shaving", "load": [0.5, 3e307]},
}


def write_json(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.fixture
def two_period_scenario_path(tmp_path):
    return write_json(tmp_path, TWO_PERIOD_SCENARIO)


def test_load_scenario_caption_values(two_period_scenario_path):
    scenario = cli.load_scenario(two_period_scenario_path)
    assert scenario.storage.eta_c == 0.5
    assert scenario.storage.eta_d == 0.5
    assert scenario.storage.lam == 1.0
    assert scenario.storage.delta == 1.0
    assert scenario.storage.x0 == 0.75
    assert scenario.storage.horizon == 2
    assert isinstance(scenario.cost, ls.EnergyArbitrage)
    assert scenario.solve_options.max_iterations == 6000
    assert scenario.outputs == ("solution", "certificate")


def test_load_scenario_gives_vectors_as_the_float_of_each_json_number(tmp_path):
    # ints beyond 2**53 round to nearest even, as float() rounds them, and
    # -0.0 keeps its sign
    big = "9" * 300
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["bounds"] = {"u_max": [1, "BIG"], "u_min": [0.5, "TWO53"], "x_max": ["BIG", 3], "x_min": [-0.0, 0]}
    doc["cost"] = {"family": "energy_arbitrage", "p_buy": ["TWO53", -0.0], "p_sell": [0.1, "BIG"]}
    text = json.dumps(doc).replace('"BIG"', big).replace('"TWO53"', str(2**53 + 1))
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    raw = json.loads(text)
    scenario = cli.load_scenario(path)
    fields = [(scenario.bounds, "u_max", raw["bounds"]["u_max"]),
              (scenario.bounds, "u_min_mag", raw["bounds"]["u_min"]),
              (scenario.bounds, "x_max", raw["bounds"]["x_max"]),
              (scenario.bounds, "x_min", raw["bounds"]["x_min"]),
              (scenario.cost, "p_buy", raw["cost"]["p_buy"]),
              (scenario.cost, "p_sell", raw["cost"]["p_sell"])]
    for owner, name, values in fields:
        vec = getattr(owner, name)
        assert type(vec) is np.ndarray and vec.dtype == np.float64, name
        assert [v.hex() for v in vec.tolist()] == [float(v).hex() for v in values], name
    assert scenario.bounds.u_min_mag[1] == 2.0**53
    assert scenario.cost.p_sell[1] == float(big)


def test_load_scenario_rejects_length_mismatch(tmp_path):
    bad = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    bad["cost"] = {"family": "peak_shaving", "load": [1, 1, 1]}
    with pytest.raises(SchemaError):
        cli.load_scenario(write_json(tmp_path, bad))


def test_load_scenario_rejects_unknown_family(tmp_path):
    bad = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    bad["cost"] = {"family": "frequency", "load": [1, 1]}
    with pytest.raises(SchemaError) as excinfo:
        cli.load_scenario(write_json(tmp_path, bad))
    message = str(excinfo.value)
    for tag in ls.costs.FAMILIES:
        assert tag in message
    bad["cost"]["family"] = ["peak_shaving"]
    with pytest.raises(SchemaError, match="cost.family"):
        cli.load_scenario(write_json(tmp_path, bad))


def test_load_scenario_rejects_extra_fields(tmp_path):
    bad = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    bad["comment"] = "not allowed"
    with pytest.raises(SchemaError):
        cli.load_scenario(write_json(tmp_path, bad))
    bad = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    bad["storage"]["eta"] = 0.5
    with pytest.raises(SchemaError):
        cli.load_scenario(write_json(tmp_path, bad))


def test_load_scenario_parse_error_carries_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "storage": {,}\n}', encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        cli.load_scenario(path)
    assert "line 2" in str(excinfo.value)


def test_load_scenario_forwards_validation_error(tmp_path):
    bad = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    bad["storage"]["eta_c"] = 0.0
    with pytest.raises(ValidationError):
        cli.load_scenario(write_json(tmp_path, bad))


def test_run_solve_writes_artifacts(tmp_path, two_period_scenario_path):
    scenario = cli.load_scenario(two_period_scenario_path)
    code, solution = cli.run_solve(scenario, tmp_path / "out")
    assert code == cli.EXIT_OK
    solution_doc = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert list(solution_doc) == [
        "objective",
        "x_star",
        "u_star",
        "certificate",
        "guarantee_flag",
        "status",
        "iterations_used",
        "feasibility_residual",
        "instance_digest",
    ]
    assert solution_doc["objective"] == pytest.approx(-0.375, abs=1e-6)
    assert solution_doc["guarantee_flag"] == "global-optimum-claimed"
    assert solution_doc["certificate"]["rule"] == "price_ratio"
    assert (tmp_path / "out" / "trace.csv").read_text().startswith("iteration,best_objective\n")
    assert (tmp_path / "out" / "certificate.json").exists()


def test_run_solve_infeasible_writes_diagnostic(tmp_path):
    bad = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    bad["storage"]["x0"] = 10.0
    bad["bounds"]["u_max"] = [0.1, 0.1]
    bad["bounds"]["u_min"] = [0.1, 0.1]
    scenario = cli.load_scenario(write_json(tmp_path, bad))
    code, solution = cli.run_solve(scenario, tmp_path / "out")
    assert code == cli.EXIT_INFEASIBLE
    assert solution is None
    diag = json.loads((tmp_path / "out" / "diagnostic.json").read_text())
    assert diag["error"] == "infeasible"
    assert diag["period"] == 0


def leaky_day_infeasible_at(period, margin):
    """lam = 0.999 day whose energy floor in `period` sits `margin` above the
    highest energy full charging reaches there."""
    horizon = 24
    storage = {"eta_c": 0.9, "eta_d": 0.9, "lambda": 0.999, "delta": 1.0, "x0": 2.0,
               "horizon": horizon}
    bounds = {"u_max": [1.0] * horizon, "u_min": [1.0] * horizon,
              "x_max": [8.0] * horizon, "x_min": [0.0] * horizon}
    highest = storage["x0"]
    for t in range(period + 1):
        highest = (storage["lambda"] * highest
                   + storage["delta"] * storage["eta_c"] * bounds["u_max"][t])
        if t < period:
            highest = min(highest, bounds["x_max"][t])
    bounds["x_min"][period] = highest + margin
    bounds["x_max"][period] = highest + margin + 1.0
    prices = [float(30 + (t % 12)) for t in range(horizon)]
    return {"storage": storage, "bounds": bounds,
            "cost": {"family": "energy_arbitrage", "p_buy": prices, "p_sell": prices},
            "solve": {"max_iterations": 50}}


@pytest.mark.parametrize("margin", [1.0, 1e-6, 1e-8])
def test_solve_exits_infeasible_naming_the_period(tmp_path, margin):
    path = write_json(tmp_path, leaky_day_infeasible_at(9, margin))
    out = tmp_path / "out"
    assert cli.main(["solve", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_INFEASIBLE
    diag = json.loads((out / "diagnostic.json").read_text())
    assert diag["error"] == "infeasible"
    assert diag["period"] == 9
    assert not (out / "solution.json").exists()


def test_leaky_day_without_the_cut_solves(tmp_path):
    # the exact arbitrage pass needs no budget; peak shaving on the same
    # storage descends and runs out of its 50 iterations
    doc = leaky_day_infeasible_at(9, -1e-3)
    peak = dict(doc, cost={"family": "peak_shaving", "load": [1.0] * 24})
    for name, scenario, code, stop in (
        ("arbitrage", doc, cli.EXIT_OK, ("exact", 0)),
        ("peak", peak, cli.EXIT_NOT_CONVERGED, ("max-iterations", 50)),
    ):
        path = write_json(tmp_path, scenario, f"{name}.json")
        out = tmp_path / name
        assert cli.main(["solve", "--scenario", str(path), "--out", str(out)]) == code
        solution = json.loads((out / "solution.json").read_text(encoding="utf-8"))
        assert (solution["status"], solution["iterations_used"]) == stop


def test_exit_code_not_converged(tmp_path):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["cost"] = {"family": "peak_shaving", "load": [0.75, 0.375]}
    doc["solve"]["max_iterations"] = 50
    scenario = cli.load_scenario(write_json(tmp_path, doc))
    code, solution = cli.run_solve(scenario, tmp_path / "out")
    assert code == cli.EXIT_NOT_CONVERGED
    assert solution.status == "max-iterations"


def test_exit_code_best_effort(tmp_path):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["bounds"]["u_max"] = [0, 0]
    doc["bounds"]["u_min"] = [0, 0]
    doc["cost"] = {"family": "power_smoothing", "renewable": [1.0, 0.5]}
    scenario = cli.load_scenario(write_json(tmp_path, doc))
    code, solution = cli.run_solve(scenario, tmp_path / "out")
    assert code == cli.EXIT_BEST_EFFORT
    assert solution.guarantee_flag == "best-effort"


def test_solution_json_is_byte_identical_across_runs(tmp_path, two_period_scenario_path):
    assert cli.main(["solve", "--scenario", str(two_period_scenario_path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["solve", "--scenario", str(two_period_scenario_path), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "solution.json").read_bytes()
    b = (tmp_path / "b" / "solution.json").read_bytes()
    assert a == b


def test_emit_feasible_set_samples(tmp_path, two_period_scenario_path):
    scenario = cli.load_scenario(two_period_scenario_path)
    power_path, energy_path = cli.emit_feasible_set_samples(scenario, 201, tmp_path)
    power_lines = power_path.read_text().splitlines()
    assert power_lines[0] == "u_1,u_2,feasible"
    rows = {}
    for line in power_lines[1:]:
        u1, u2, flag = line.split(",")
        rows[(round(float(u1), 6), round(float(u2), 6))] = int(flag)
    assert rows[(0.5, 0.0)] == 1
    # the canonical infeasible midpoint (0.1875, 0.5) is not a node of the
    # uniform 201-point grid; its nearest node must still classify infeasible
    assert rows[(0.19, 0.5)] == 0
    assert rows[(1.0, 1.0)] == 0

    energy_lines = energy_path.read_text().splitlines()
    assert energy_lines[0] == "x_1,x_2,member"
    members = sum(int(line.rsplit(",", 1)[1]) for line in energy_lines[1:])
    assert 0 < members < len(energy_lines) - 1


def test_emit_samples_guards(tmp_path, two_period_scenario_path):
    scenario = cli.load_scenario(two_period_scenario_path)
    with pytest.raises(ValueError):
        cli.emit_feasible_set_samples(scenario, 2, tmp_path)
    scenario3 = cli.load_scenario(write_json(tmp_path, scenario_with_horizon(3), "three.json"))
    with pytest.raises(HorizonNot2):
        cli.emit_feasible_set_samples(scenario3, 51, tmp_path)


def test_main_usage_errors(tmp_path, two_period_scenario_path):
    assert cli.main(["solve"]) == cli.EXIT_USAGE  # missing --scenario
    assert cli.main(["bogus", "--scenario", "x"]) == cli.EXIT_USAGE
    assert cli.main(["solve", "--scenario", str(tmp_path / "missing.json")]) == cli.EXIT_USAGE
    assert (
        cli.main(
            ["sample-sets", "--scenario", str(two_period_scenario_path), "--out", str(tmp_path), "--resolution", "2"]
        )
        == cli.EXIT_USAGE
    )
    # the solve has no seed, so no flag sets one
    assert cli.main(["solve", "--scenario", str(two_period_scenario_path), "--seed", "17"]) == cli.EXIT_USAGE


def scenario_with_horizon(horizon):
    """TWO_PERIOD_SCENARIO with its first period's values repeated up to horizon."""
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["storage"]["horizon"] = horizon
    for section in ("bounds", "cost"):
        for key, value in doc[section].items():
            if isinstance(value, list):
                doc[section][key] = value + value[:1] * (horizon - len(value))
    return doc


@pytest.mark.parametrize("verb", ["solve", "sample-sets", "oracle-check"])
@pytest.mark.parametrize("resolution", ["0", "1", "2"])
def test_too_small_resolution_is_a_usage_error(tmp_path, capsys, verb, resolution):
    # 0 is a resolution like any other, not a request for the default; solve
    # takes no --resolution at all; no verb writes anything
    path = write_json(tmp_path, TWO_PERIOD_SCENARIO)
    out = tmp_path / "o"
    assert_usage_error([verb, "--scenario", str(path), "--out", str(out), "--resolution", resolution], capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, resolution",
    [
        (scenario_with_horizon(4), []),
        (scenario_with_horizon(3), ["--resolution", "1001"]),
        (FLOAT_LIMIT_SCENARIO, []),
    ],
    ids=["horizon-cap", "size-guard", "power-box-wider-than-floats"],
)
def test_oracle_check_refuses_its_grid_before_solving(tmp_path, capsys, doc, resolution):
    # four periods exceed the grid cap 3; 1001**3 points exceed the size
    # guard; a box [-1e308, 1e308] has no finite grid spacing
    path = write_json(tmp_path, doc)
    out = tmp_path / "o"
    assert_usage_error(["oracle-check", "--scenario", str(path), "--out", str(out), *resolution], capsys)
    assert not (out / "solution.json").exists()


@pytest.mark.parametrize(
    "doc, resolution",
    [(TWO_PERIOD_SCENARIO, ["--resolution", "10000000"]), (FLOAT_LIMIT_SCENARIO, [])],
    ids=["resolution-too-fine", "power-box-wider-than-floats"],
)
def test_sample_sets_refuses_its_rasters_before_writing(tmp_path, capsys, doc, resolution):
    # 10**7 points per axis would take 10**14 raster rows
    path = write_json(tmp_path, doc)
    out = tmp_path / "o"
    assert_usage_error(["sample-sets", "--scenario", str(path), "--out", str(out), *resolution], capsys)
    assert not out.exists()


def test_oracle_report_is_strict_json_when_the_bound_overflows(tmp_path):
    # u_max 1e308 makes the grid spacing 2.5e305 and the load-balancing
    # terms and Lipschitz constant overflow: the bound is reported as null
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["cost"] = {"family": "load_balancing", "load": [0.5, 0.2]}
    doc["bounds"]["u_max"] = [1e308, 1e308]
    doc["storage"]["x0"] = 0.5
    path = write_json(tmp_path, doc)
    out = tmp_path / "o"

    def refuse(constant):
        raise AssertionError(f"non-JSON token {constant}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["oracle-check", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "oracle.json").read_text(encoding="utf-8"), parse_constant=refuse)
    assert report["discretization_bound"] is None
    assert report["verdict"] == "pass"


@pytest.mark.parametrize("kind", ["feasible-set-samples", "oracle-comparison"])
def test_removed_output_kinds_are_schema_errors(tmp_path, capsys, kind):
    # the rasters come from sample-sets and the oracle report from oracle-check
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["outputs"] = ["solution", kind]
    path = write_json(tmp_path, doc)
    out = tmp_path / "o"
    assert cli.main(["solve", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    assert "outputs: expected a list drawn from" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_check_on_an_even_grid(tmp_path, two_period_scenario_path):
    # linspace(-1, 1, 400) misses zero; the oracle adds the zero level to
    # every axis, so the grid still holds the optimum's zero second period
    out = tmp_path / "o"
    argv = ["oracle-check", "--scenario", str(two_period_scenario_path), "--out", str(out), "--resolution", "400"]
    assert cli.main(argv) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["points_per_axis"] == 400
    assert doc["oracle_u_best"][1] == 0.0
    assert doc["solver_objective"] == pytest.approx(-0.375, abs=1e-6)
    assert 0.0 < -doc["gap"] <= doc["discretization_bound"]


def test_oracle_grid_without_a_feasible_point_is_a_usage_error(tmp_path, capsys):
    # the feasible set is nonempty but misses every point of the three-level
    # grid {-1, 0, 1}^2: zero power leaves x0 = 0.75 below the floor 0.8, a
    # unit charge overshoots the cap 0.9, and after a unit discharge nothing
    # climbs back above the floor
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["bounds"]["x_min"] = [0.8, 0.8]
    doc["bounds"]["x_max"] = [0.9, 0.9]
    doc["solve"]["max_iterations"] = 200
    path = write_json(tmp_path, doc)
    out = tmp_path / "o"
    argv = ["oracle-check", "--scenario", str(path), "--out", str(out), "--resolution", "3"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert (out / "solution.json").exists()
    assert not (out / "oracle.json").exists()
    err = capsys.readouterr().err
    assert "--resolution" in err
    assert "Traceback" not in err


def test_main_schema_exit_code(tmp_path):
    bad = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    bad["cost"] = {"family": "frequency"}
    path = write_json(tmp_path, bad)
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path)]) == cli.EXIT_SCHEMA
    invalid = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    invalid["storage"]["eta_d"] = -1
    path2 = write_json(tmp_path, invalid, "invalid.json")
    assert cli.main(["solve", "--scenario", str(path2), "--out", str(tmp_path)]) == cli.EXIT_SCHEMA


def assert_scenario_error(argv, capsys):
    """The command exits 65 with one `scenario error:` line and no
    traceback; returns the line."""
    assert cli.main(argv) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ")
    assert err.count("\n") == 1
    return err


def assert_usage_error(argv, capsys):
    """The command exits 64 with one `usage error:` line and no traceback."""
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "section, key, literal, named",
    [
        ("storage", "x0", "1" + "0" * 400, "storage.x0"),
        ("bounds", "x_max", "[1" + "0" * 400 + ", 1]", "bounds.x_max"),
        ("storage", "x0", "1" + "0" * 5000, "digits"),
    ],
    ids=["scalar", "vector", "too-long-for-an-int"],
)
def test_overflowing_number_literals_are_scenario_errors(tmp_path, capsys, section, key, literal, named):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc[section][key] = "LITERAL"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace('"LITERAL"', literal), encoding="utf-8")
    err = assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")], capsys)
    assert named in err


_DELETE = object()


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("bounds", "u_max", [1, "a"], "bounds.u_max"),
        ("storage", "horizon", 2.5, "storage.horizon"),
        ("storage", "eta_c", "0.5", "storage.eta_c"),
        ("storage", "x0", _DELETE, "'x0'"),
        ("cost", "family", _DELETE, "'family'"),
        (None, "bounds", _DELETE, "'bounds'"),
        ("solve", "max_iterations", 0, "max_iterations"),
        ("storage", "x0", float("nan"), "x0 must be finite"),
        ("bounds", "x_max", [float("inf"), 1], "x_max must be finite"),
        ("bounds", "u_min", [1, True], "bounds.u_min"),
        ("bounds", "x_min", [None, 0], "bounds.x_min"),
        ("cost", "p_buy", [1, [1]], "cost.p_buy"),
        ("storage", "horizon", True, "storage.horizon"),
        ("storage", "x0", True, "storage.x0"),
    ],
    ids=["list-entry-not-a-number", "fractional-horizon", "number-as-string", "no-x0",
         "no-family", "no-bounds", "zero-iterations", "nan-x0", "infinite-cap",
         "true-in-a-vector", "null-in-a-vector", "list-in-a-vector", "true-horizon",
         "true-x0"],
)
def test_ill_typed_or_missing_values_are_scenario_errors(tmp_path, capsys, section, key, value, named):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    target = doc if section is None else doc[section]
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    path = write_json(tmp_path, doc)  # json writes NaN and Infinity, and json reads them
    err = assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")], capsys)
    assert named in err


def test_top_level_list_is_a_scenario_error(tmp_path, capsys):
    path = write_json(tmp_path, [TWO_PERIOD_SCENARIO])
    err = assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")], capsys)
    assert "top level must be an object" in err


def test_deeply_nested_scenario_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    with pytest.raises(ParseError):
        cli.load_scenario(path)
    assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")], capsys)


def test_scenario_that_is_not_utf8_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(json.dumps(TWO_PERIOD_SCENARIO).encode("utf-8").replace(b"0.75", b"0.75\xff"))
    assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")], capsys)


@pytest.mark.parametrize(
    "verb, scenario, out",
    [
        ("solve", "", "out"),
        ("solve", "scenario.json", "a-file"),
        ("certify", "scenario.json", "a-file/x"),
    ],
    ids=["scenario-is-a-directory", "out-is-a-file", "out-under-a-file"],
)
def test_paths_of_the_wrong_kind_are_usage_errors(tmp_path, capsys, verb, scenario, out):
    write_json(tmp_path, TWO_PERIOD_SCENARIO)
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    argv = [verb, "--scenario", str(tmp_path / scenario), "--out", str(tmp_path / out)]
    assert_usage_error(argv, capsys)


def test_trace_grows_with_the_solve(tmp_path):
    # the zero-power start is the minimum, so the solve stops at once
    # however large the iteration budget
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["cost"] = {"family": "power_regulation", "signal": [0, 0]}
    doc["solve"]["max_iterations"] = 10**13
    path = write_json(tmp_path, doc)
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    trace = (tmp_path / "out" / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace == ["iteration,best_objective", "0,0.0", "1,0.0"]


@pytest.mark.parametrize(
    "section, fields, factor, objective_scale",
    [
        ("cost", ("p_buy", "p_sell"), 1e200, 1e200),
        ("cost", ("p_buy", "p_sell"), 1e308, 1e308),
        ("bounds", ("x_max",), 1e200, 1.0),
    ],
    ids=["prices", "prices-at-the-float-limit", "energy-caps"],
)
def test_huge_finite_inputs_solve_like_their_unscaled_twin(
    tmp_path, section, fields, factor, objective_scale
):
    # the sum of squares behind the subgradient norm (prices) or the step
    # length (caps) overflows, although every input and result is finite;
    # at the float limit the price-ratio test and the chain-rule product of
    # the subgradient overflow as well (warnings are errors in this suite)
    def solve(doc, name):
        path = write_json(tmp_path, doc, f"{name}.json")
        code = cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / name)])
        return code, json.loads((tmp_path / name / "solution.json").read_text(encoding="utf-8"))

    code, plain = solve(TWO_PERIOD_SCENARIO, "plain")
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    for field in fields:
        doc[section][field] = [factor * v for v in doc[section][field]]
    scaled_code, scaled = solve(doc, "scaled")
    assert (scaled_code, scaled["status"]) == (code, plain["status"])
    assert scaled["guarantee_flag"] == plain["guarantee_flag"]
    assert scaled["objective"] == pytest.approx(objective_scale * plain["objective"], rel=1e-9)


def test_energies_at_the_float_limit_solve_without_warning(tmp_path):
    # peak shaving descends but stops at a projected fixed point in its first
    # iteration, so its tail average sums nothing; arbitrage takes the exact
    # pass, with knots at 1e308
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["storage"]["x0"] = 1e308
    doc["bounds"]["x_max"] = [1e308, 1e308]
    peak = dict(doc, cost={"family": "peak_shaving", "load": [0.75, 0.375]})
    for name, scenario, objective, stop in (
        ("peak", peak, 0.75, ("converged", 1)),
        ("arbitrage", doc, 0.0, ("exact", 0)),
    ):
        path = write_json(tmp_path, scenario, f"{name}.json")
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", "--scenario", str(path), "--out", str(out)])
        assert code == cli.EXIT_OK
        solution = json.loads((out / "solution.json").read_text(encoding="utf-8"))
        assert solution["objective"] == objective
        assert solution["x_star"] == [1e308, 1e308]
        assert solution["u_star"] == [0.0, 0.0]
        assert (solution["status"], solution["iterations_used"]) == stop
        assert solution["feasibility_residual"] == 0.0


@pytest.mark.parametrize(
    "cost, code, stop, objective",
    [
        ({"family": "power_regulation", "signal": [0.5, -0.5]},
         cli.EXIT_BEST_EFFORT, 1000, 1.0),
        ({"family": "peak_shaving", "load": [0.5, 3e307]},
         cli.EXIT_OK, 2000, 4.000460170090069e306),
        ({"family": "power_smoothing", "renewable": [0, 1e307]},
         cli.EXIT_BEST_EFFORT, 4000, 1.2474001934592e291),
    ],
    ids=["regulation", "peak-shaving", "smoothing"],
)
def test_descents_at_the_float_limit_average_their_tail_without_warning(
    tmp_path, cost, code, stop, objective
):
    # thousands of iterates of energies near 1e307 go into the tail sum,
    # which stays finite here; the window stop ends each descent
    path = write_json(tmp_path, dict(FLOAT_LIMIT_SCENARIO, cost=cost))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", "--scenario", str(path), "--out", str(out)]) == code
    solution = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert (solution["status"], solution["iterations_used"]) == ("converged", stop)
    assert solution["objective"] == objective
    assert np.isfinite(solution["feasibility_residual"])


def shipped_two_period(cost, changes):
    """The shipped two-period arbitrage scenario with another cost and a
    {(section, key): value} of changes."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / "two_period_arbitrage.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["cost"] = cost
    for (section, key), value in changes.items():
        doc[section][key] = value
    return doc


@pytest.mark.parametrize(
    "cost",
    [
        {"family": "energy_arbitrage", "p_buy": [1e308, 1e308], "p_sell": [1e308, 1e308]},
        {"family": "load_balancing", "load": [1e160, 1e160]},
    ],
    ids=["arbitrage-at-the-float-limit", "squared-load-beyond-it"],
)
def test_objective_beyond_the_float_range_is_a_scenario_error(tmp_path, capsys, cost):
    # selling 10 at 1e308 earns about -1.9e308, and a load of 1e160 squares
    # to 1e320; neither is a float, and JSON has no infinity to write
    doc = shipped_two_period(
        cost, {("storage", "x0"): 10, ("bounds", "x_max"): [10, 10], ("bounds", "u_min"): [4, 4]}
    )
    path = write_json(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")], capsys)
    assert "beyond the float range" in err
    assert not (tmp_path / "out" / "solution.json").exists()
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_power_bounds_beyond_the_float_range_act_as_no_bound(tmp_path):
    # -(1 / eta_d) * 1e308 overflows to the velocity bound -inf
    huge = {("bounds", key): [1e308, 1e308] for key in ("u_max", "u_min", "x_max")}
    doc = shipped_two_period(
        {"family": "power_regulation", "signal": [0.5, -0.5]}, {("storage", "x0"): 5e307, **huge}
    )
    path = write_json(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_BEST_EFFORT
    solution = json.loads((tmp_path / "out" / "solution.json").read_text(encoding="utf-8"))
    assert solution["objective"] == 1.0


@pytest.mark.parametrize(
    "cost, objective, delta",
    [
        ({"family": "power_regulation", "signal": [-0.5, -0.2]}, 0.325, 1.0),
        ({"family": "peak_shaving", "load": [0.5, 0.2]}, 0.1625012959936023, 1.0),
        # charging stores nothing, so discharge the 0.375 the energy allows
        # until both net draws are 0.1625
        ({"family": "load_balancing", "load": [0.5, 0.2]}, 2 * 0.1625**2, 1.0),
        # eta_c * delta underflows to 0, so the charging curvature
        # 2 / (eta_c * delta) is inf on an empty charging step box; each
        # discharging step, below 2e-30, is lost on the energy 0.75
        ({"family": "load_balancing", "load": [0.5, 0.2]}, 0.5**2 + 0.2**2, 1e-30),
        ({"family": "energy_arbitrage", "p_buy": [1, 1], "p_sell": [0.3, 0.5]}, -0.1875, 1.0),
        ({"family": "energy_arbitrage", "p_buy": [1e20, 1e20], "p_sell": [0.3e20, 0.5e20]},
         -1.875e19, 1.0),
    ],
    ids=[
        "regulation", "peak-shaving", "load-balancing", "load-balancing-delta-1e-30",
        "arbitrage", "arbitrage-x1e20",
    ],
)
def test_tiny_charge_efficiency_solves(tmp_path, cost, objective, delta):
    # with eta_c = 1e-300 the chain rule multiplies the subgradient by
    # 1 / (eta_c * delta) = 1e300, so its norm overflows although every
    # input is small
    changes = {("storage", "eta_c"): 1e-300, ("storage", "delta"): delta}
    path = write_json(tmp_path, shipped_two_period(cost, changes))
    code = cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    solution = json.loads((tmp_path / "out" / "solution.json").read_text(encoding="utf-8"))
    assert solution["objective"] == pytest.approx(objective, rel=1e-9)


@pytest.mark.parametrize(
    "cost",
    [
        {"family": "peak_shaving", "load": [0.5, 0.2]},
        {"family": "energy_arbitrage", "p_buy": [1, 1], "p_sell": [0.3, 0.5]},
    ],
    ids=["peak-shaving", "arbitrage"],
)
def test_charge_efficiency_without_a_finite_reciprocal_is_a_scenario_error(tmp_path, capsys, cost):
    # 1 / 1e-310 overflows, so recovering any power would give NaN; the
    # efficiency is refused before the solve, by name
    path = write_json(tmp_path, shipped_two_period(cost, {("storage", "eta_c"): 1e-310}))
    err = assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")], capsys)
    assert "eta_c" in err
    assert not (tmp_path / "out" / "solution.json").exists()


@pytest.mark.parametrize("verb", ["solve", "oracle-check"])
def test_discharge_efficiency_without_a_finite_reciprocal_is_a_scenario_error(tmp_path, capsys, verb):
    # the loss map multiplies min(u, 0) by 1 / 1e-310 = inf, so every idle or
    # charging period would take the energy inf * 0 = NaN; the efficiency is
    # refused before the solve, by name
    cost = {"family": "peak_shaving", "load": [0.5, 0.2]}
    path = write_json(tmp_path, shipped_two_period(cost, {("storage", "eta_d"): 1e-310}))
    err = assert_scenario_error([verb, "--scenario", str(path), "--out", str(tmp_path / "out")], capsys)
    assert "eta_d" in err
    assert not (tmp_path / "out" / "solution.json").exists()


@pytest.mark.parametrize("solve", [5, None, [], "fast"], ids=["int", "null", "list", "string"])
def test_solve_section_must_be_an_object(tmp_path, capsys, solve):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["solve"] = solve
    path = write_json(tmp_path, doc)
    with pytest.raises(SchemaError, match="solve: expected an object"):
        cli.load_scenario(path)
    assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("verb", ["solve", "certify"])
@pytest.mark.parametrize(
    "cost",
    [
        {"family": "peak_shaving", "load": [0.5, float("nan")]},
        {"family": "energy_arbitrage", "p_buy": [float("nan"), 1], "p_sell": [1, 1]},
        {"family": "energy_arbitrage", "p_buy": [1, 1], "p_sell": [1, float("inf")]},
    ],
    ids=["nan-load", "nan-price", "infinite-price"],
)
def test_non_finite_cost_vectors_are_rejected(tmp_path, capsys, verb, cost):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["cost"] = cost
    path = write_json(tmp_path, doc)
    with pytest.raises(ValidationError, match="must be finite"):
        cli.load_scenario(path)
    out = tmp_path / "o"
    assert_scenario_error([verb, "--scenario", str(path), "--out", str(out)], capsys)
    assert not out.exists()


@pytest.mark.parametrize("gap, code", [(5e-10, cli.EXIT_OK), (5e-9, cli.EXIT_INFEASIBLE)])
def test_gap_within_the_membership_tolerance_is_bridged(tmp_path, gap, code):
    # the second period's floor sits `gap` above the 1.4 reachable there
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["storage"].update(eta_c=0.9, eta_d=0.9, x0=0.0)
    doc["bounds"].update(x_max=[0.5, 5.0], x_min=[0.0, 1.4 + gap])
    doc["cost"]["p_sell"] = [0.5, 0.5]
    path = write_json(tmp_path, doc)
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path)]) == code
    if code == cli.EXIT_INFEASIBLE:
        assert json.loads((tmp_path / "diagnostic.json").read_text())["period"] == 1


RETIRED_SOLVE_FIELDS = {
    "projection_tolerance": 1e-8,
    "step_rule": "diminishing",
    "initial_point": "offset-b",
    "step_parameter": 0.1,
    "objective_tolerance": 1e-9,
    "seed": 0,
}


@pytest.mark.parametrize("field", RETIRED_SOLVE_FIELDS)
def test_retired_solve_fields_are_unknown_fields(tmp_path, capsys, field):
    old = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    old["solve"][field] = RETIRED_SOLVE_FIELDS[field]
    path = write_json(tmp_path, old)
    with pytest.raises(SchemaError, match=field):
        cli.load_scenario(path)
    err = assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path)], capsys)
    assert f"unknown field(s) ['{field}']" in err


def test_certify_verb(tmp_path, two_period_scenario_path):
    out = tmp_path / "cert"
    assert cli.main(["certify", "--scenario", str(two_period_scenario_path), "--out", str(out)]) == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["certified"] is True

    smoothing = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    smoothing["cost"] = {"family": "power_smoothing", "renewable": [1.0, 0.5]}
    path = write_json(tmp_path, smoothing, "smoothing.json")
    assert cli.main(["certify", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_BEST_EFFORT
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["certified"] is False


def test_sample_sets_verb(tmp_path, two_period_scenario_path):
    out = tmp_path / "sets"
    code = cli.main(
        ["sample-sets", "--scenario", str(two_period_scenario_path), "--out", str(out), "--resolution", "51"]
    )
    assert code == 0
    assert (out / "power_samples.csv").exists()
    assert (out / "energy_samples.csv").exists()


def test_oracle_check_verb(tmp_path, two_period_scenario_path):
    out = tmp_path / "oc"
    code = cli.main(["oracle-check", "--scenario", str(two_period_scenario_path), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["verdict"] == "pass"
    assert abs(doc["gap"]) <= 1e-3
    assert doc["points_per_axis"] == 401


def test_oracle_check_passes_a_solver_that_beats_a_coarse_grid(tmp_path, two_period_scenario_path):
    # at 101 points the grid's best is 0.015 above the solver's objective,
    # within the 0.04 its spacing explains
    out = tmp_path / "oc"
    code = cli.main(
        ["oracle-check", "--scenario", str(two_period_scenario_path), "--out", str(out), "--resolution", "101"]
    )
    assert code == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["gap"] < -doc["tolerance"]
    assert doc["gap"] >= -(doc["tolerance"] + doc["discretization_bound"])
    assert doc["verdict"] == "pass"


def test_oracle_check_on_an_infeasible_scenario(tmp_path):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["storage"]["x0"] = 10.0
    doc["bounds"]["u_max"] = [0.1, 0.1]
    doc["bounds"]["u_min"] = [0.1, 0.1]
    path = write_json(tmp_path, doc)
    out = tmp_path / "oc"
    assert cli.main(["oracle-check", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_INFEASIBLE
    assert json.loads((out / "diagnostic.json").read_text())["error"] == "infeasible"
    assert not (out / "solution.json").exists()
    assert not (out / "oracle.json").exists()


SHIPPED_SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda path: path.name)
def test_oracle_check_is_the_solve_then_the_oracle_report(tmp_path, path):
    verb = tmp_path / "verb"
    code = cli.main(["oracle-check", "--scenario", str(path), "--out", str(verb), "--resolution", "51"])
    scenario = cli.load_scenario(path)
    calls = tmp_path / "calls"
    solve_code, solution = cli.run_solve(scenario, calls)
    cli._write_oracle_report(scenario, solution, 51, calls)
    assert code == solve_code

    def files(root):
        return {p.name: p.read_bytes() for p in root.iterdir()}

    assert files(verb) == files(calls)
    assert {"solution.json", "trace.csv", "certificate.json", "oracle.json"} == set(files(verb))


def documented_scenarios():
    """Every scenario JSON example in README.md (```json blocks) and in the
    cli module docstring (reST literal blocks)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = [("README.md", block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
    for block in cli.__doc__.split("::\n\n")[1:]:
        lines = itertools.takewhile(
            lambda line: not line or line.startswith("    "), block.splitlines()
        )
        examples.append(("cli docstring", "\n".join(lines)))
    return examples


def test_documented_scenarios_load(tmp_path):
    examples = documented_scenarios()
    assert [where for where, _ in examples].count("README.md") >= 1
    assert [where for where, _ in examples].count("cli docstring") >= 1
    for i, (where, text) in enumerate(examples):
        path = tmp_path / f"example{i}.json"
        path.write_text(text, encoding="utf-8")
        cli.load_scenario(path)
        # the examples show every field the parser accepts
        raw = json.loads(text)
        assert set(raw) == {"storage", "bounds", "cost", "solve", "outputs"}, where
        assert set(raw["solve"]) == set(cli._section_schema(ls.SolveOptions)), where


def test_documented_cost_families_match_the_classes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    expected = {
        tag: tuple(field.name for field in dataclasses.fields(cls))
        for tag, cls in ls.costs.FAMILIES.items()
    }
    for where, text in (("README.md", readme), ("cli docstring", cli.__doc__)):
        flat = " ".join(text.replace("`", "").split())
        sentence = flat.split("Cost families and their fields: ", 1)[1].split(".", 1)[0]
        listed = {
            tag: tuple(fields.split(", "))
            for tag, fields in re.findall(r"(\w+) \(([^)]*)\)", sentence)
        }
        assert listed == expected, where


def test_json_floats_round_trip_and_stay_floats():
    values = [0.1, 1.0, 0.0, -2.0, 1 / 3, 5e-324, 1.7976931348623157e308]
    text = cli.dumps_json({"v": values, "w": np.array(values), "n": np.int64(3)})
    assert text.endswith("}\n")
    doc = json.loads(text)
    for parsed in (doc["v"], doc["w"]):
        assert all(type(v) is float for v in parsed)
        assert parsed == values
    assert doc["n"] == 3 and type(doc["n"]) is int


def test_module_entry_point_writes_plain_json(tmp_path):
    # `python -m lossy_storage.cli` is the console script; every float it
    # writes parses back as a float, and no artifact holds NaN or Infinity
    def no_constants(name):
        raise AssertionError(f"{name} in an artifact")

    src = str(Path(ls.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "two_period_arbitrage.json"
    argv = [sys.executable, "-m", "lossy_storage.cli", "solve", "--scenario", str(scenario), "--out", str(tmp_path)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == cli.EXIT_OK, result.stderr

    def load(name):
        return json.loads((tmp_path / name).read_text(encoding="utf-8"), parse_constant=no_constants)

    solution, certificate = load("solution.json"), load("certificate.json")
    assert certificate == solution["certificate"]
    floats = [solution["objective"], solution["feasibility_residual"],
              *solution["x_star"], *solution["u_star"]]
    rows = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    floats += [json.loads(row.split(",")[1], parse_constant=no_constants) for row in rows]
    assert len(rows) == solution["iterations_used"] + 1
    assert all(type(v) is float for v in floats)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["certificate.json", "solution.json", "trace.csv"]
