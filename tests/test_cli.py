import dataclasses
import itertools
import json
import re
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
    "solve": {"max_iterations": 6000, "seed": 3},
    "outputs": ["solution", "certificate"],
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
    assert scenario.solve_options.seed == 3
    assert scenario.outputs == ("solution", "certificate")


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


def test_scenario_round_trip(tmp_path, two_period_scenario_path):
    scenario = cli.load_scenario(two_period_scenario_path)
    out = tmp_path / "rewritten.json"
    cli.write_scenario(scenario, out)
    again = cli.load_scenario(out)
    assert again.storage == scenario.storage
    for field in ("u_max", "u_min_mag", "x_max", "x_min"):
        assert np.array_equal(getattr(again.bounds, field), getattr(scenario.bounds, field))
    assert np.array_equal(again.cost.p_buy, scenario.cost.p_buy)
    assert np.array_equal(again.cost.p_sell, scenario.cost.p_sell)
    for field in ("max_iterations", "step_parameter", "objective_tolerance", "seed"):
        assert getattr(again.solve_options, field) == getattr(scenario.solve_options, field)
    assert again.outputs == scenario.outputs


def test_run_solve_writes_artifacts(tmp_path, two_period_scenario_path):
    scenario = cli.load_scenario(two_period_scenario_path)
    code, solution = cli.run_solve(scenario, tmp_path / "out")
    assert code == cli.EXIT_OK
    solution_doc = json.loads((tmp_path / "out" / "solution.json").read_text())
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
    path = write_json(tmp_path, leaky_day_infeasible_at(9, -1e-3))
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path)]) == cli.EXIT_NOT_CONVERGED
    assert (tmp_path / "solution.json").exists()


def test_exit_code_not_converged(tmp_path):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
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


def test_seed_flag_overrides_scenario(tmp_path, two_period_scenario_path):
    code = cli.main(
        ["solve", "--scenario", str(two_period_scenario_path), "--out", str(tmp_path / "o"), "--seed", "17"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "o" / "solution.json").read_text())
    assert doc["seed"] == 17


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
    three = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    three["storage"]["horizon"] = 3
    for key in ("u_max", "u_min", "x_max", "x_min"):
        three["bounds"][key] = three["bounds"][key] + [three["bounds"][key][0]]
    three["cost"] = {"family": "energy_arbitrage", "p_buy": [1, 1, 1], "p_sell": [1, 1, 1]}
    scenario3 = cli.load_scenario(write_json(tmp_path, three, "three.json"))
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


def test_solve_verb_rejects_sampling_outputs_for_long_horizons(tmp_path):
    three = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    three["storage"]["horizon"] = 3
    for key in ("u_max", "u_min", "x_max", "x_min"):
        three["bounds"][key] = three["bounds"][key] + [three["bounds"][key][0]]
    three["cost"] = {"family": "energy_arbitrage", "p_buy": [1, 1, 1], "p_sell": [1, 1, 1]}
    three["outputs"] = ["solution", "feasible-set-samples"]
    path = write_json(tmp_path, three, "three.json")
    code = cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE


def test_oracle_check_rejects_even_resolution(tmp_path, two_period_scenario_path):
    code = cli.main(
        [
            "oracle-check",
            "--scenario",
            str(two_period_scenario_path),
            "--out",
            str(tmp_path / "o"),
            "--resolution",
            "100",
        ]
    )
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("verb", ["oracle-check", "solve"])
def test_oracle_grid_without_a_feasible_point_is_a_usage_error(tmp_path, capsys, verb):
    # the feasible set is nonempty but misses every point of the three-level
    # grid {-1, 0, 1}^2: zero power leaves x0 = 0.75 below the floor 0.8, a
    # unit charge overshoots the cap 0.9, and after a unit discharge nothing
    # climbs back above the floor
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["bounds"]["x_min"] = [0.8, 0.8]
    doc["bounds"]["x_max"] = [0.9, 0.9]
    doc["solve"]["max_iterations"] = 200
    if verb == "solve":
        doc["outputs"] = ["solution", "oracle-comparison"]
    path = write_json(tmp_path, doc)
    out = tmp_path / "o"
    argv = [verb, "--scenario", str(path), "--out", str(out), "--resolution", "3"]
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
    doc["cost"] = {"family": "load_balancing", "load": [0, 0]}
    doc["solve"]["max_iterations"] = 10**13
    path = write_json(tmp_path, doc)
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    trace = (tmp_path / "out" / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace == ["iteration,best_objective", "0,0", "1,0"]


@pytest.mark.parametrize("solve", [5, None, [], "fast"], ids=["int", "null", "list", "string"])
def test_solve_section_must_be_an_object(tmp_path, capsys, solve):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["solve"] = solve
    path = write_json(tmp_path, doc)
    with pytest.raises(SchemaError, match="solve: expected an object"):
        cli.load_scenario(path)
    assert_scenario_error(["solve", "--scenario", str(path), "--out", str(tmp_path)], capsys)


def test_step_parameter_from_the_scenario_file(tmp_path):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["solve"]["step_parameter"] = 0.5
    path = write_json(tmp_path, doc)
    assert cli.load_scenario(path).solve_options.step_parameter == 0.5
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert doc["objective"] == pytest.approx(-0.375, abs=1e-6)


@pytest.mark.parametrize(
    "field, value",
    [
        ("step_parameter", float("nan")),
        ("step_parameter", -1.0),
        ("step_parameter", 0.0),
        ("objective_tolerance", float("nan")),
    ],
)
def test_solve_options_must_be_finite_and_positive(tmp_path, capsys, field, value):
    doc = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    doc["solve"][field] = value
    path = write_json(tmp_path, doc)
    with pytest.raises(SchemaError, match=field):
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
}


@pytest.mark.parametrize("field", RETIRED_SOLVE_FIELDS)
def test_projection_tolerance_is_an_unknown_field(tmp_path, field):
    old = json.loads(json.dumps(TWO_PERIOD_SCENARIO))
    old["solve"][field] = RETIRED_SOLVE_FIELDS[field]
    path = write_json(tmp_path, old)
    with pytest.raises(SchemaError, match=field):
        cli.load_scenario(path)
    assert cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path)]) == cli.EXIT_SCHEMA


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
        scenario = cli.load_scenario(path)
        # the examples show every field the parser accepts
        raw, full = json.loads(text), cli.scenario_to_dict(scenario)
        assert set(raw) == set(full), where
        assert set(raw["solve"]) == set(full["solve"]), where


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


def test_json_floats_use_17_significant_digits():
    text = cli.dumps_json({"v": 0.1, "w": [1.0, 0.75]})
    assert text == '{"v": 0.10000000000000001, "w": [1, 0.75]}\n'
