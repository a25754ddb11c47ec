"""Run one case through the functions behind the CLI verbs, then check it.

`run_case` is the timed part: scenario file in, artifacts out.  `check_case`
runs afterwards, untimed, and decides whether the case failed and how.  A
failure is one of:

  an exception escaping the CLI functions (the real CLI would exit 1);
  an exit code that contradicts the instance;
  a recovered power profile that breaks a bound when re-simulated;
  artifacts that are missing, disagree with each other or with the exact
  reference, or differ between passes;
  on desk-oracle, an oracle verdict of "fail", a witness that does not
  witness, or a probe that contradicts a convexity certificate.

Only the first class is an error the program reported; every other class is
a wrong answer and makes the run incorrect.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import exact
from generate import PROBE_SAMPLES, Case

#: Largest tolerated bound violation of a re-simulated power profile.
BOUND_TOL = 1e-6

#: Smallest reported relative gap, so rounding-level changes do not read as
#: regressions.
GAP_FLOOR = 1e-6

#: Relative gap reported for a failed case that has a reference.
FAILED_GAP = 1.0

#: A relative gap below minus this means the answer beats the exact optimum.
BELOW_REFERENCE_TOL = 1e-5

#: Seed of the midpoint-convexity probe.
PROBE_SEED = 0

EXIT_INFEASIBLE = 2
EXIT_CODES = (0, 2, 3, 4)


@dataclass
class CaseRun:
    case_id: str
    seconds: float
    exit_code: Optional[int] = None
    error: Optional[str] = None  # exception class that escaped, if any
    oracle_verdict: Optional[str] = None
    witness: Optional[object] = None
    probe_violations: Optional[int] = None


@dataclass
class CaseResult:
    case_id: str
    failure: Optional[str]  # failure class, None when the case passed
    wrong: bool  # the failure is a wrong answer, not a reported error
    gap: Optional[float]  # floored relative gap to the reference, if any
    solution_bytes: Optional[bytes]


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_case(ls, case: Case, out_dir: Path, tracer=None) -> CaseRun:
    """Load, solve and (on desk-oracle) oracle-check one case, timed.

    The oracle step is the `oracle-check` verb's: the scenario is solved
    without its own oracle output, then the CLI's oracle report is written
    once at the case's resolution.  `oracle.GridSpec` is swapped for one
    whose horizon cap is the case horizon while the report runs, so that
    T=4 cases run at 51 points per axis; the CLI's default cap is 3.
    """
    call = tracer.span if tracer is not None else _plain_call
    if tracer is not None:
        tracer.case_id = case.case_id
    run = CaseRun(case.case_id, 0.0)
    start = time.perf_counter()
    try:
        scenario = call("cli.load_scenario", ls.cli.load_scenario, case.path)
        if case.oracle_points is not None:
            scenario = dataclasses.replace(
                scenario,
                outputs=tuple(o for o in scenario.outputs if o != "oracle-comparison"),
            )
        run.exit_code, solution = call("cli.run_solve", ls.cli.run_solve, scenario, out_dir)
        if case.oracle_points is not None and solution is not None:
            storage = scenario.storage
            grid_spec = ls.oracle.GridSpec
            ls.oracle.GridSpec = functools.partial(
                grid_spec, horizon_cap=max(3, storage.horizon))
            try:
                report = ls.cli._write_oracle_report(
                    scenario, solution, case.oracle_points, out_dir)
            finally:
                ls.oracle.GridSpec = grid_spec
            run.oracle_verdict = report.verdict
            run.witness = call("transform.witness", ls.transform.find_nonconvexity_witness,
                               storage, scenario.bounds)
            probe = call("costs.probe", ls.costs.midpoint_convexity_probe,
                         scenario.cost, storage, PROBE_SAMPLES, PROBE_SEED)
            run.probe_violations = probe.violations
    except Exception as exc:  # one failing case must not stop the run
        run.error = type(exc).__name__
    run.seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.case_id = None
    return run


def _violation(scenario: dict, u: np.ndarray, x: np.ndarray) -> float:
    """Largest amount by which power u or energy x leaves its bounds."""
    b = {k: np.asarray(v, dtype=float) for k, v in scenario["bounds"].items()}
    return max(
        float(np.max(-b["u_min"] - u)),
        float(np.max(u - b["u_max"])),
        float(np.max(b["x_min"] - x)),
        float(np.max(x - b["x_max"])),
    )


def _witness_holds(scenario: dict, witness) -> bool:
    mid = witness.theta * witness.u_a + (1.0 - witness.theta) * witness.u_b
    return (
        _violation(scenario, witness.u_a, exact.simulate(scenario, witness.u_a)) <= 1e-9
        and _violation(scenario, witness.u_b, exact.simulate(scenario, witness.u_b)) <= 1e-9
        and _violation(scenario, mid, exact.simulate(scenario, mid)) > 1e-9
    )


def check_case(ls, case: Case, run: CaseRun, out_dir: Path,
               reference: Optional[float]) -> CaseResult:
    """Classify one finished case and compute its gap to the reference."""
    failed_gap = FAILED_GAP if reference is not None else None

    def fail(failure: str, wrong: bool = True) -> CaseResult:
        return CaseResult(case.case_id, failure, wrong, failed_gap, None)

    if run.error is not None:
        return fail(run.error, wrong=False)
    code = run.exit_code
    if code not in EXIT_CODES:
        return fail(f"exit-{code}")
    if case.feasible and code == EXIT_INFEASIBLE:
        return fail("infeasible-on-feasible")
    if not case.feasible:
        if code != EXIT_INFEASIBLE:
            return fail("missed-infeasible")
        if not (out_dir / "diagnostic.json").is_file():
            return fail("missing-artifact")
        return CaseResult(case.case_id, None, False, None, None)
    if code == 0 and not case.certified:
        return fail("exit-0-uncertified")

    try:
        raw = (out_dir / "solution.json").read_bytes()
        trace_rows = (out_dir / "trace.csv").read_text(encoding="utf-8").count("\n") - 1
    except FileNotFoundError:
        return fail("missing-artifact")
    solution = json.loads(raw)
    if trace_rows != solution["iterations_used"] + 1:
        return fail("trace-length")
    scenario = exact.load(case.path)
    u = np.asarray(solution["u_star"], dtype=float)
    storage = ls.model.StorageParams(
        eta_c=scenario["storage"]["eta_c"], eta_d=scenario["storage"]["eta_d"],
        lam=scenario["storage"]["lambda"], delta=scenario["storage"]["delta"],
        x0=scenario["storage"]["x0"], horizon=scenario["storage"]["horizon"],
    )
    if _violation(scenario, u, ls.model.simulate(u, storage)) > BOUND_TOL:
        return fail("bound-violation")
    objective = float(solution["objective"])
    if abs(exact.family_cost(scenario, u) - objective) > 1e-9 * max(1.0, abs(objective)):
        return fail("objective-mismatch")

    gap = None
    if reference is not None:
        rel = (objective - reference) / max(1.0, abs(reference))
        if rel < -BELOW_REFERENCE_TOL:
            return fail("below-reference")
        gap = max(GAP_FLOOR, rel)
    if case.oracle_points is not None:
        if run.oracle_verdict == "fail":
            return fail("oracle-fail")
        try:
            oracle_report = json.loads((out_dir / "oracle.json").read_text(encoding="utf-8"))
        except FileNotFoundError:
            return fail("missing-artifact")
        if oracle_report["verdict"] != run.oracle_verdict:
            return fail("oracle-report-mismatch")
        if run.witness is not None and not _witness_holds(scenario, run.witness):
            return fail("bad-witness")
        if solution["certificate"]["certified"] and run.probe_violations:
            return fail("probe-violation")
    return CaseResult(case.case_id, None, False, gap, raw)

