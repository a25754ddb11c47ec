"""Self-tests of the benchmark's own parts.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lossy_storage as ls  # noqa: E402
import lossy_storage.cli  # noqa: E402,F401

import exact  # noqa: E402
import generate  # noqa: E402
import hostspeed  # noqa: E402
from casecheck import FAILED_GAP, GAP_FLOOR, CaseRun, check_case, run_case  # noqa: E402
from spans import TARGETS, Span, Tracer, self_times  # noqa: E402

REFERENCE_FAMILY_INDICES = (0, 2, 3)  # peak shaving, regulation, arbitrage


def _oracle(scenario: dict, points: int, tmp_path: Path) -> float:
    """Grid-oracle optimum of a scenario, loaded through the package's CLI."""
    path = tmp_path / "oracle_case.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    loaded = ls.cli.load_scenario(path)
    grid = ls.GridSpec(points, horizon_cap=loaded.storage.horizon)
    return ls.brute_force_solve(loaded.storage, loaded.bounds, loaded.cost, grid).cost_best


@pytest.mark.parametrize("family", REFERENCE_FAMILY_INDICES)
@pytest.mark.parametrize("horizon", (2, 3, 4))
def test_reference_matches_analytic_optimum(family, horizon):
    rng = np.random.default_rng([7, family, horizon])
    for _ in range(5):
        scenario, optimum = generate.certified_instance(rng, horizon, family)
        reference = exact.reference_optimum(scenario)
        assert reference == pytest.approx(optimum, rel=1e-8, abs=1e-8)


def test_reference_matches_slow_trials():
    trials = generate.slow_trials()
    assert [t for t, _, _ in trials] == list(generate.SLOW_TRIALS)
    for _, scenario, optimum in trials:
        assert scenario["storage"]["horizon"] == 4
        assert scenario["cost"]["family"] == "energy_arbitrage"
        assert exact.reference_optimum(scenario) == pytest.approx(optimum, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("family", REFERENCE_FAMILY_INDICES)
def test_reference_bounds_grid_oracle(family, tmp_path):
    # the grid is a subset of the feasible set, so it can only do worse, and
    # these instances put the optimum on grid points
    rng = np.random.default_rng([8, family])
    for horizon, points in ((2, 401), (3, 101)):
        scenario, _ = generate.certified_instance(rng, horizon, family)
        reference = exact.reference_optimum(scenario)
        oracle = _oracle(scenario, points, tmp_path)
        assert reference <= oracle + 1e-9
        assert oracle - reference <= 5e-4


def test_reference_none_without_lp_form():
    rng = np.random.default_rng(9)
    scenario, _ = generate.certified_instance(rng, 3, family=1)
    assert exact.reference_optimum(scenario) is None


def test_reference_is_exact_when_lp_would_charge_and_discharge(tmp_path):
    # being paid to charge and charged little to discharge makes burning
    # energy pay, which the split LP allows and a real battery does not: the
    # MILP must take over
    scenario = {
        "storage": {"eta_c": 0.8, "eta_d": 0.8, "lambda": 1.0, "delta": 1.0, "x0": 0.5,
                    "horizon": 2},
        "bounds": {"u_max": [1.0, 1.0], "u_min": [1.0, 1.0], "x_max": [1.0, 1.0],
                   "x_min": [0.0, 0.0]},
        "cost": {"family": "energy_arbitrage", "p_buy": [-1.0, -1.0], "p_sell": [-0.1, -0.1]},
    }
    # discharge 0.24 to make room, then charge fully: 0.024 - 1; the split LP
    # would instead charge fully and burn the excess in both periods (-1.952)
    assert exact.reference_optimum(scenario) == pytest.approx(-0.976, abs=1e-9)
    assert _oracle(scenario, 401, tmp_path) == pytest.approx(-0.976, abs=1e-12)


def _day_cases(tmp_path, seed=3):
    cases = generate.generate("hourly", seed, tmp_path / "scenarios", ROOT / "scenarios")
    return {c.case_id: c for c in cases}


def test_infeasible_cases_miss_by_their_margin(tmp_path):
    cases = _day_cases(tmp_path)
    for case_id, margin in generate.DAY_INFEASIBLE:
        case = cases[case_id]
        assert not case.feasible
        assert exact.infeasibility_margin(exact.load(case.path)) == pytest.approx(margin, rel=1e-6)
    for case in cases.values():
        if case.feasible:
            assert exact.infeasibility_margin(exact.load(case.path)) <= 0.0


def test_classifier_on_infeasible_instances(tmp_path):
    cases = _day_cases(tmp_path)
    for case_id, _ in generate.DAY_INFEASIBLE:
        case = cases[case_id]
        out = tmp_path / case_id
        run = run_case(ls, case, out)
        assert run.exit_code == 2 and run.error is None
        result = check_case(ls, case, run, out, None)
        assert result.failure is None and not result.wrong
        missed = check_case(ls, case, CaseRun(case_id, 0.0, exit_code=3), out, None)
        assert missed.failure == "missed-infeasible" and missed.wrong


def test_classifier_on_loose_cap_instance(tmp_path):
    case = _day_cases(tmp_path)["arbitrage-loose-cap"]
    out = tmp_path / "loose"
    crashed = check_case(ls, case, CaseRun(case.case_id, 0.0, error="NotConverged"), out, -1.0)
    assert crashed.failure == "NotConverged"
    assert not crashed.wrong
    assert crashed.gap == FAILED_GAP
    refused = check_case(ls, case, CaseRun(case.case_id, 0.0, exit_code=2), out, -1.0)
    assert refused.failure == "infeasible-on-feasible" and refused.wrong


def test_classifier_accepts_budgeted_solve_and_floors_gap(tmp_path):
    case = _day_cases(tmp_path)["regulation"]
    out = tmp_path / "regulation"
    run = run_case(ls, case, out)
    assert run.exit_code == 3
    objective = json.loads((out / "solution.json").read_text())["objective"]
    result = check_case(ls, case, run, out, objective)
    assert result.failure is None
    assert result.gap == GAP_FLOOR
    beaten = check_case(ls, case, run, out, objective + 1.0)
    assert beaten.failure == "below-reference" and beaten.wrong


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "c"),
        Span(1, "a", 1.0, 3.0, 0, "c"),
        Span(2, "b", 2.0, 4.0, 0, "c"),  # overlaps a: union [1, 4]
        Span(3, "c", 9.0, 12.0, 0, "c"),  # clipped to the parent at 10
        Span(4, "grandchild", 1.5, 2.5, 1, "c"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_records_nested_spans_and_restores_names(tmp_path):
    case = _day_cases(tmp_path)["peak"]
    originals = {(m, a): getattr(getattr(ls, m), a) for m, a, _ in TARGETS}
    tracer = Tracer()
    tracer.install(ls)
    try:
        run = run_case(ls, case, tmp_path / "peak", tracer)
    finally:
        tracer.uninstall()
    assert run.exit_code == 3
    assert all(getattr(getattr(ls, m), a) is fn for (m, a), fn in originals.items())
    by_id = {s.span_id: s for s in tracer.spans}
    solve = next(s for s in tracer.spans if s.name == "solver.solve")
    assert by_id[solve.parent].name == "cli.run_solve"
    assert solve.count == 400
    projections = [s for s in tracer.spans if s.name == "solver.project"]
    assert projections and all(s.parent == solve.span_id for s in projections)
    assert all(s.case_id == "peak" for s in tracer.spans)
    selfs = self_times(tracer.spans)
    assert 0.0 <= selfs[solve.span_id] < solve.end - solve.start



def test_desk_case_writes_the_cli_oracle_report(tmp_path):
    cases = generate.generate("desk-oracle", 3, tmp_path / "scenarios", ROOT / "scenarios")
    grid_spec = ls.oracle.GridSpec
    for case in (c for c in cases if c.case_id in ("certified-0-T2", "slow-trial-5")):
        out = tmp_path / case.case_id
        run = run_case(ls, case, out)
        assert ls.oracle.GridSpec is grid_spec
        report = json.loads((out / "oracle.json").read_text())
        assert report["points_per_axis"] == case.oracle_points
        assert {"discretization_bound", "instance_digest"} <= set(report)
        assert check_case(ls, case, run, out, None).failure is None
        (out / "oracle.json").unlink()
        missing = check_case(ls, case, run, out, None)
        assert missing.failure == "missing-artifact" and missing.wrong


def test_normalised_time_scales_by_kernel_speed():
    kernel = hostspeed.Kernel()
    assert kernel.seconds() > 0.0
    ref = hostspeed.REFERENCE_S
    assert hostspeed.normalised(2.0, ref) == pytest.approx(2.0)
    assert hostspeed.normalised(2.0, 2.0 * ref) == pytest.approx(1.0)
