"""Scenario files, command dispatch and result export.

Scenario JSON schema (field names are exact; extra or missing fields are
schema errors)::

    {
      "storage": {"eta_c": 0.5, "eta_d": 0.5, "lambda": 1.0,
                  "delta": 1.0, "x0": 0.75, "horizon": 2},
      "bounds":  {"u_max": [1, 1], "u_min": [1, 1],
                  "x_max": [1, 1], "x_min": [0, 0]},
      "cost":    {"family": "energy_arbitrage",
                  "p_buy": [1, 1], "p_sell": [1, 1]},
      "solve":   {"max_iterations": 20000},
      "outputs": ["solution", "certificate"]
    }

Note that "u_min" entries are discharge-power magnitudes (all
nonnegative); the admissible power interval per period is
[-u_min[t], u_max[t]].  "solve" and "outputs" are optional.  Cost
families and their fields: peak_shaving (load), load_balancing (load),
power_regulation (signal), energy_arbitrage (p_buy, p_sell),
power_smoothing (renewable).  Cost vectors must be finite.
"max_iterations", a positive integer, is the one solve setting: it caps the
descent, whose start, steps and stops are fixed (`solver.solve` gives
them), so "solve" has no "step_rule", "initial_point", "step_parameter",
"objective_tolerance" or "seed", and the projection is exact, so it has no
"projection_tolerance"; a scenario that still sets any of them gets the
unknown-field schema error.  Certified energy arbitrage and load balancing
are solved exactly, with no iterations, and ignore it.

Verbs: solve, certify, sample-sets, oracle-check.  sample-sets alone
writes the feasible-set rasters, and oracle-check is solve followed by the
oracle report; --resolution is their points per axis.

Exit codes: 0 ok (status "exact" or "converged", with a certificate), 2
infeasible, 3 not converged (status "max-iterations"), 4 best-effort only
(no convexity guarantee), 64 usage, 65 schema/validation, including an
eta_c or eta_d whose reciprocal overflows.  Exit 2 is an
exact verdict; diagnostic.json names the first unreachable period.  An
oracle grid with under 3 points per axis, more periods than its cap, too
many points or a power box wider than the float range exits 64 before the
solve; one with no feasible point exits 64 after solution.json is written:
raise --resolution.  sample-sets exits 64, writing nothing, at a
resolution outside [11, 2001] or on a power box wider than the float
range.  A directory as --scenario, or an --out that is or lies under a
file, exits 64; a scenario that is not UTF-8, holds an integer beyond the
float range or nests too deeply exits 65, and so does one whose objective
at the solution is beyond the float range, with no solution.json or
trace.csv written.

Floats in emitted JSON/CSV are written as Python's repr, the shortest text
that parses back to the same double, so identical runs produce
byte-identical artifacts.  oracle.json holds a null discretization_bound
for custom costs and where the bound is beyond the float range.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import costs as costs_mod
from . import oracle as oracle_mod
from . import solver as solver_mod
from .errors import (
    HorizonNot2,
    InfeasibleProblem,
    NoFeasiblePoint,
    ParseError,
    SchemaError,
    ValidationError,
)
from .model import Bounds, StorageParams, build_dynamics, validate_params
from .transform import (
    build_energy_polytope,
    energy_membership_mask,
    power_feasibility_mask,
)

__all__ = [
    "Scenario",
    "load_scenario",
    "run_solve",
    "emit_feasible_set_samples",
    "main",
]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NOT_CONVERGED = 3
EXIT_BEST_EFFORT = 4
EXIT_USAGE = 64
EXIT_SCHEMA = 65

OUTPUT_KINDS = ("solution", "certificate")

#: Scenario keys that differ from the name of the dataclass field they fill.
_RENAMED_KEYS = {"lam": "lambda", "u_min_mag": "u_min"}

MIN_SAMPLE_RESOLUTION = 11
#: The two rasters at 2001 points per axis already hold 190 MB of CSV.
MAX_SAMPLE_RESOLUTION = 2001
DEFAULT_SAMPLE_RESOLUTION = 201


@dataclass(frozen=True, eq=False)
class Scenario:
    storage: StorageParams
    bounds: Bounds
    cost: costs_mod.CostSpec
    solve_options: solver_mod.SolveOptions
    outputs: tuple[str, ...]


# ---------------------------------------------------------------------------
# serialization


def _numpy_to_python(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_json(obj) -> str:
    """JSON text, with numpy arrays and scalars as lists and numbers, and
    an LF ending."""
    return json.dumps(obj, default=_numpy_to_python) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# scenario loading


@functools.cache
def _section_schema(cls) -> dict[str, tuple[str, object, bool]]:
    """The keys of the scenario section that fills dataclass cls: each maps
    to its field's name and type, and whether the key is required (the
    field has no default)."""
    hints = typing.get_type_hints(cls)
    return {
        _RENAMED_KEYS.get(f.name, f.name): (
            f.name, hints[f.name], f.default is dataclasses.MISSING
        )
        for f in dataclasses.fields(cls)
    }


def _parse_value(value, kind, where: str, horizon: Optional[int]):
    """A scenario value, checked against the type of the field it fills; a
    vector comes back as a float64 array.  The JSON decoder gives numbers as
    int or float exactly, and a bool is neither."""
    if kind is np.ndarray:
        if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
            raise SchemaError(f"{where}: expected a list of numbers")
        if len(value) != horizon:
            raise SchemaError(
                f"{where}: length {len(value)} does not match horizon {horizon}"
            )
    elif kind is int:
        if type(value) is not int:
            raise SchemaError(f"{where}: expected an integer, got {value!r}")
        return value
    elif type(value) not in (int, float):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        return np.array(value, dtype=float) if kind is np.ndarray else float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError(f"{where}: an integer is too large for a float") from None


def _section_fields(raw: dict, cls, where: str, horizon: Optional[int] = None) -> dict:
    """Keyword arguments of cls from the scenario section that fills it."""
    schema = _section_schema(cls)
    missing = [
        key for key, (_, _, required) in schema.items() if required and key not in raw
    ]
    extra = [key for key in raw if key not in schema]
    if missing:
        raise SchemaError(f"{where}: missing field(s) {missing}")
    if extra:
        raise SchemaError(f"{where}: unknown field(s) {extra}")
    return {
        name: _parse_value(raw[key], kind, f"{where}.{key}", horizon)
        for key, (name, kind, _) in schema.items()
        if key in raw
    }


def _parse_cost(raw: dict, horizon: int) -> costs_mod.CostSpec:
    if "family" not in raw:
        raise SchemaError("cost: missing field 'family'")
    family = raw["family"]
    if not isinstance(family, str) or family not in costs_mod.FAMILIES:
        raise SchemaError(
            f"cost.family: unknown tag {family!r}; valid tags: "
            + ", ".join(sorted(costs_mod.FAMILIES))
        )
    cls = costs_mod.FAMILIES[family]
    fields = {key: value for key, value in raw.items() if key != "family"}
    return cls(**_section_fields(fields, cls, "cost", horizon))


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ParseError (malformed JSON, with line info, JSON nested too
    deeply to decode, or not UTF-8), SchemaError (missing/extra/ill-typed
    fields, length mismatches, unknown tags, numbers beyond the float range)
    or a forwarded ValidationError.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, a huge integer, deep nesting
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    known = ("storage", "bounds", "cost", "solve", "outputs")
    extra = [k for k in raw if k not in known]
    if extra:
        raise SchemaError(f"top level: unknown field(s) {extra}")
    for key in ("storage", "bounds", "cost"):
        if key not in raw:
            raise SchemaError(f"top level: missing field {key!r}")
    for key in ("storage", "bounds", "cost", "solve"):
        if not isinstance(raw.get(key, {}), dict):
            raise SchemaError(f"{key}: expected an object")

    storage = StorageParams(**_section_fields(raw["storage"], StorageParams, "storage"))
    horizon = storage.horizon
    bounds = Bounds(**_section_fields(raw["bounds"], Bounds, "bounds", horizon))
    cost = _parse_cost(raw["cost"], horizon)
    solve_fields = _section_fields(raw.get("solve", {}), solver_mod.SolveOptions, "solve")
    try:
        solve_options = solver_mod.SolveOptions(**solve_fields)
    except ValueError as exc:
        raise SchemaError(f"solve: {exc}") from exc

    outputs = raw.get("outputs", ["solution"])
    if not isinstance(outputs, list) or any(o not in OUTPUT_KINDS for o in outputs):
        raise SchemaError(f"outputs: expected a list drawn from {OUTPUT_KINDS}")

    problem = validate_params(storage, bounds)  # forwards ValidationError
    return Scenario(
        storage=problem.params,
        bounds=problem.bounds,
        cost=cost,
        solve_options=solve_options,
        outputs=tuple(outputs),
    )


# ---------------------------------------------------------------------------
# artifacts


def _write_trace_csv(path: Path, trace: np.ndarray) -> None:
    lines = ["iteration,best_objective"]
    lines.extend(f"{i},{v!r}" for i, v in enumerate(trace.tolist()))
    _write_text(path, "\n".join(lines) + "\n")


def _solution_exit_code(solution: solver_mod.Solution) -> int:
    if solution.status == solver_mod.STATUS_MAX_ITERATIONS:
        return EXIT_NOT_CONVERGED
    if not solution.certificate.certified:
        return EXIT_BEST_EFFORT
    return EXIT_OK


def _oracle_points(scenario: Scenario, resolution: Optional[int]) -> int:
    if resolution is not None:
        return resolution
    return 401 if scenario.storage.horizon <= 2 else 101


def run_solve(scenario: Scenario, out_dir) -> tuple[int, Optional[solver_mod.Solution]]:
    """Solve a scenario and write solution.json, trace.csv and, when the
    scenario lists it, certificate.json.

    Returns (exit code, solution or None).  On an empty feasible set,
    writes diagnostic.json naming the first unreachable period and returns
    the infeasible exit code.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = validate_params(scenario.storage, scenario.bounds)
    try:
        solution = solver_mod.solve(problem, scenario.cost, scenario.solve_options)
    except InfeasibleProblem as exc:
        _write_text(
            out / "diagnostic.json",
            dumps_json({"error": "infeasible", "period": exc.period, "message": str(exc)}),
        )
        return EXIT_INFEASIBLE, None

    doc = dataclasses.asdict(solution)
    del doc["best_objective_trace"]  # trace.csv holds it
    _write_text(out / "solution.json", dumps_json(doc))
    _write_trace_csv(out / "trace.csv", solution.best_objective_trace)

    if "certificate" in scenario.outputs:
        _write_text(out / "certificate.json", dumps_json(doc["certificate"]))
    return _solution_exit_code(solution), solution


def _write_oracle_report(
    scenario: Scenario,
    solution: solver_mod.Solution,
    points: int,
    out: Path,
) -> oracle_mod.GapReport:
    result = oracle_mod.brute_force_solve(
        scenario.storage, scenario.bounds, scenario.cost, oracle_mod.GridSpec(points)
    )
    report = oracle_mod.compare(solution, result)
    _write_text(
        out / "oracle.json",
        dumps_json(
            {
                "solver_objective": solution.objective,
                "oracle_objective": result.cost_best,
                "oracle_u_best": result.u_best,
                "gap": report.gap,
                "discretization_bound": report.discretization_bound,
                "tolerance": report.tolerance,
                "verdict": report.verdict,
                "feasible_count": result.feasible_count,
                "points_per_axis": points,
                "instance_digest": result.instance_digest,
            }
        ),
    )
    return report


def emit_feasible_set_samples(
    scenario: Scenario, resolution: int, out_dir
) -> tuple[Path, Path]:
    """Write the two-period feasible-set rasters as CSV data.

    power_samples.csv marks grid points of the power box feasible/infeasible
    for the nonconvex power set; energy_samples.csv marks grid points of the
    energy box as members/non-members of the convex energy polytope.
    Raises HorizonNot2 unless the horizon is 2, ValueError for a resolution
    outside [MIN_SAMPLE_RESOLUTION, MAX_SAMPLE_RESOLUTION] and GridTooLarge
    for a power box wider than the float range, before writing anything.
    """
    if scenario.storage.horizon != 2:
        raise HorizonNot2(
            f"feasible-set sampling needs horizon 2, got {scenario.storage.horizon}"
        )
    if resolution < MIN_SAMPLE_RESOLUTION:
        raise ValueError(
            f"resolution {resolution} too coarse, minimum {MIN_SAMPLE_RESOLUTION}"
        )
    if resolution > MAX_SAMPLE_RESOLUTION:
        raise ValueError(
            f"resolution {resolution} too fine, maximum {MAX_SAMPLE_RESOLUTION}"
        )
    oracle_mod._check_spans(scenario.bounds)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params, bounds = scenario.storage, scenario.bounds
    dyn = build_dynamics(params)
    polytope = build_energy_polytope(params, bounds, dyn)
    rasters = (
        ("power_samples.csv", "u_1,u_2,feasible", -bounds.u_min_mag, bounds.u_max,
         lambda grid: power_feasibility_mask(grid, params, bounds, dyn)),
        ("energy_samples.csv", "x_1,x_2,member", bounds.x_min, bounds.x_max,
         lambda grid: energy_membership_mask(grid, polytope)),
    )
    for name, header, lower, upper, mask in rasters:
        axes = [np.linspace(lower[t], upper[t], resolution) for t in range(2)]
        grid = np.column_stack([np.repeat(axes[0], resolution), np.tile(axes[1], resolution)])
        lines = [header]
        lines.extend(
            f"{row[0]!r},{row[1]!r},{int(flag)}" for row, flag in zip(grid.tolist(), mask(grid))
        )
        _write_text(out / name, "\n".join(lines) + "\n")
    return out / "power_samples.csv", out / "energy_samples.csv"


# ---------------------------------------------------------------------------
# command dispatch


class _UsageError(Exception):
    pass


#: A path that names no file, or a file of the wrong kind.
_PATH_ERRORS = (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lossy-storage", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory")
        return p

    common(sub.add_parser("solve", help="solve the scenario, write solution artifacts"))
    common(sub.add_parser("certify", help="write the convexity certificate only"))
    common(sub.add_parser("sample-sets", help="rasterize the two feasible sets (T=2)")).add_argument(
        "--resolution", type=int, default=DEFAULT_SAMPLE_RESOLUTION, help=(
            f"raster points per axis (default {DEFAULT_SAMPLE_RESOLUTION}, "
            f"min {MIN_SAMPLE_RESOLUTION}, max {MAX_SAMPLE_RESOLUTION})"))
    common(sub.add_parser("oracle-check", help="solve, then write the oracle report")).add_argument(
        "--resolution", type=int, default=None, help=(
            "oracle grid points per axis (min 3; default 401 for T<=2, else 101)"))
    return parser


def _run_verb(args: argparse.Namespace, scenario: Scenario) -> int:
    out = Path(args.out)
    if args.verb == "certify":
        certificate = costs_mod.certify_convexity(scenario.cost, scenario.storage)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "certificate.json", dumps_json(dataclasses.asdict(certificate)))
        return EXIT_OK if certificate.certified else EXIT_BEST_EFFORT

    if args.verb == "sample-sets":
        emit_feasible_set_samples(scenario, args.resolution, out)
        return EXIT_OK

    if args.verb == "solve":
        code, _ = run_solve(scenario, out)
        return code

    # oracle-check: a grid the oracle refuses is a usage error before the
    # solve writes anything
    points = _oracle_points(scenario, args.resolution)
    oracle_mod._grid_axes(scenario.storage, scenario.bounds, oracle_mod.GridSpec(points))
    code, solution = run_solve(scenario, out)
    if solution is not None:
        _write_oracle_report(scenario, solution, points, out)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        scenario = load_scenario(args.scenario)
        return _run_verb(args, scenario)
    except (ParseError, SchemaError, ValidationError) as exc:  # ObjectiveOutOfRange too
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NoFeasiblePoint:
        points = _oracle_points(scenario, args.resolution)
        print(
            f"usage error: no point of the oracle grid ({points} points per axis) "
            "is feasible, but the solve found the feasible set nonempty; "
            "raise --resolution",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except (ValueError, *_PATH_ERRORS) as exc:  # paths, HorizonNot2, resolutions, grid guards
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
