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
      "solve":   {"max_iterations": 20000, "step_parameter": null,
                  "objective_tolerance": 1e-9, "seed": 0},
      "outputs": ["solution", "certificate"]
    }

Note that "u_min" entries are discharge-power magnitudes (all
nonnegative); the admissible power interval per period is
[-u_min[t], u_max[t]].  "solve" and "outputs" are optional.  Cost
families and their fields: peak_shaving (load), load_balancing (load),
power_regulation (signal), energy_arbitrage (p_buy, p_sell),
power_smoothing (renewable).  Cost vectors must be finite.
"step_parameter" and "objective_tolerance" must be finite and positive; a
null "step_parameter" picks a tenth of the energy-box diameter.  The solve
always starts from the zero-power profile and takes steps
step_parameter/sqrt(k), so "solve" has no "step_rule" or "initial_point",
and the projection is exact, so it has no "projection_tolerance"; a
scenario that still sets any of them gets the unknown-field schema error.
"seed" does not affect the solve; it is only recorded in solution.json.

Verbs: solve, certify, sample-sets, oracle-check.  Command-line flags
override scenario-file solve options, which override defaults.

Exit codes: 0 ok, 2 infeasible, 3 not converged, 4 best-effort only
(no convexity guarantee), 64 usage, 65 schema/validation.  Exit 2 is an
exact verdict; diagnostic.json names the first unreachable period.  An
oracle grid with no feasible point exits 64 after solution.json is
written: raise --resolution.  A directory as --scenario, or an --out that
is or lies under a file, exits 64; a scenario that is not UTF-8 or holds
an integer beyond the float range exits 65.

Floating-point values in emitted JSON/CSV use fixed 17-significant-digit
formatting, so identical runs produce byte-identical artifacts.
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
    "write_scenario",
    "scenario_to_dict",
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

OUTPUT_KINDS = ("solution", "feasible-set-samples", "certificate", "oracle-comparison")

#: Scenario keys that differ from the name of the dataclass field they fill.
_RENAMED_KEYS = {"lam": "lambda", "u_min_mag": "u_min"}

MIN_SAMPLE_RESOLUTION = 11
DEFAULT_SAMPLE_RESOLUTION = 201


@dataclass(frozen=True, eq=False)
class Scenario:
    storage: StorageParams
    bounds: Bounds
    cost: costs_mod.CostSpec
    solve_options: solver_mod.SolveOptions
    outputs: tuple[str, ...]


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, np.ndarray):
        return _json_value(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """JSON text with 17-significant-digit floats and LF ending."""
    return _json_value(obj) + "\n"


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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_value(value, kind, where: str, horizon: Optional[int]):
    """A scenario value, checked against the type of the field it fills."""
    if kind is np.ndarray:
        if not isinstance(value, list) or not all(map(_is_number, value)):
            raise SchemaError(f"{where}: expected a list of numbers")
        if len(value) != horizon:
            raise SchemaError(
                f"{where}: length {len(value)} does not match horizon {horizon}"
            )
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{where}: expected an integer, got {value!r}")
        return value
    elif value is None and kind == Optional[float]:
        return None
    elif not _is_number(value):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        return [float(v) for v in value] if kind is np.ndarray else float(value)
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

    Raises ParseError (malformed JSON, with line info, or not UTF-8),
    SchemaError (missing/extra/ill-typed fields, length mismatches, unknown
    tags, numbers beyond the float range) or a forwarded ValidationError.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer literal too long to convert
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


def _section_dict(obj) -> dict:
    schema = _section_schema(type(obj))
    values = {key: getattr(obj, name) for key, (name, _, _) in schema.items()}
    return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in values.items()}


def scenario_to_dict(scenario: Scenario) -> dict:
    cost = scenario.cost
    return {
        "storage": _section_dict(scenario.storage),
        "bounds": _section_dict(scenario.bounds),
        "cost": {"family": costs_mod.FAMILY_TAGS[type(cost)], **_section_dict(cost)},
        "solve": _section_dict(scenario.solve_options),
        "outputs": list(scenario.outputs),
    }


def write_scenario(scenario: Scenario, path) -> None:
    _write_text(Path(path), dumps_json(scenario_to_dict(scenario)))


# ---------------------------------------------------------------------------
# artifacts


def _certificate_dict(certificate: costs_mod.ConvexityCertificate) -> dict:
    return {
        "certified": certificate.certified,
        "rule": certificate.rule,
        "failing_indices": list(certificate.failing_indices),
    }


def _solution_dict(solution: solver_mod.Solution, seed: int) -> dict:
    return {
        "objective": solution.objective,
        "x_star": solution.x_star,
        "u_star": solution.u_star,
        "certificate": _certificate_dict(solution.certificate),
        "guarantee_flag": solution.guarantee_flag,
        "status": solution.status,
        "iterations_used": solution.iterations_used,
        "feasibility_residual": solution.feasibility_residual,
        "instance_digest": solution.instance_digest,
        "seed": seed,
    }


def _write_trace_csv(path: Path, trace: np.ndarray) -> None:
    lines = ["iteration,best_objective"]
    lines.extend(f"{i},{_fmt_float(v)}" for i, v in enumerate(trace))
    _write_text(path, "\n".join(lines) + "\n")


def _solution_exit_code(solution: solver_mod.Solution) -> int:
    if solution.status == solver_mod.STATUS_MAX_ITERATIONS:
        return EXIT_NOT_CONVERGED
    if not solution.certificate.certified:
        return EXIT_BEST_EFFORT
    return EXIT_OK


def _default_oracle_points(horizon: int) -> int:
    return 401 if horizon <= 2 else 101


def run_solve(
    scenario: Scenario, out_dir, resolution: Optional[int] = None
) -> tuple[int, Optional[solver_mod.Solution]]:
    """Solve a scenario and write its requested artifacts.

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

    _write_text(
        out / "solution.json",
        dumps_json(_solution_dict(solution, scenario.solve_options.seed)),
    )
    _write_trace_csv(out / "trace.csv", solution.best_objective_trace)

    if "certificate" in scenario.outputs:
        _write_text(
            out / "certificate.json",
            dumps_json(_certificate_dict(solution.certificate)),
        )
    if "feasible-set-samples" in scenario.outputs:
        emit_feasible_set_samples(
            scenario, resolution or DEFAULT_SAMPLE_RESOLUTION, out
        )
    if "oracle-comparison" in scenario.outputs:
        points = resolution or _default_oracle_points(scenario.storage.horizon)
        _write_oracle_report(scenario, solution, points, out)
    return _solution_exit_code(solution), solution


def _write_oracle_report(
    scenario: Scenario,
    solution: solver_mod.Solution,
    points: int,
    out: Path,
    tolerance: float = 1e-3,
) -> oracle_mod.GapReport:
    result = oracle_mod.brute_force_solve(
        scenario.storage, scenario.bounds, scenario.cost, oracle_mod.GridSpec(points)
    )
    report = oracle_mod.compare(solution, result, tolerance=tolerance)
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
    """
    if scenario.storage.horizon != 2:
        raise HorizonNot2(
            f"feasible-set sampling needs horizon 2, got {scenario.storage.horizon}"
        )
    if resolution < MIN_SAMPLE_RESOLUTION:
        raise ValueError(
            f"resolution {resolution} too coarse, minimum {MIN_SAMPLE_RESOLUTION}"
        )
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
            f"{_fmt_float(row[0])},{_fmt_float(row[1])},{int(flag)}"
            for row, flag in zip(grid, mask(grid))
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

    def common(p, resolution_help=None):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override solver seed")
        if resolution_help:
            p.add_argument("--resolution", type=int, default=None, help=resolution_help)

    common(sub.add_parser("solve", help="solve the scenario, write solution artifacts"),
           "grid resolution for any sampled/oracle outputs")
    common(sub.add_parser("certify", help="write the convexity certificate only"))
    common(sub.add_parser("sample-sets", help="rasterize the two feasible sets (T=2)"),
           f"points per axis (default {DEFAULT_SAMPLE_RESOLUTION}, min {MIN_SAMPLE_RESOLUTION})")
    common(sub.add_parser("oracle-check", help="solve and compare against the grid oracle"),
           "oracle points per axis (default 401 for T<=2, else 101)")
    return parser


def _apply_overrides(scenario: Scenario, seed: Optional[int]) -> Scenario:
    if seed is None:
        return scenario
    options = dataclasses.replace(scenario.solve_options, seed=seed)
    return dataclasses.replace(scenario, solve_options=options)


def _run_verb(args: argparse.Namespace, scenario: Scenario) -> int:
    out = Path(args.out)
    if args.verb == "solve":
        code, _ = run_solve(scenario, out, resolution=args.resolution)
        return code

    if args.verb == "certify":
        certificate = costs_mod.certify_convexity(scenario.cost, scenario.storage)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(
            out / "certificate.json", dumps_json(_certificate_dict(certificate))
        )
        return EXIT_OK if certificate.certified else EXIT_BEST_EFFORT

    if args.verb == "sample-sets":
        resolution = args.resolution or DEFAULT_SAMPLE_RESOLUTION
        emit_feasible_set_samples(scenario, resolution, out)
        return EXIT_OK

    # oracle-check: the report is written here, once, at the flag resolution
    plain = dataclasses.replace(
        scenario, outputs=tuple(o for o in scenario.outputs if o != "oracle-comparison")
    )
    code, solution = run_solve(plain, out)
    if solution is None:
        return code
    points = args.resolution or _default_oracle_points(scenario.storage.horizon)
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
    except _PATH_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, SchemaError, ValidationError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        return _run_verb(args, _apply_overrides(scenario, args.seed))
    except NoFeasiblePoint:
        points = args.resolution or _default_oracle_points(scenario.storage.horizon)
        print(
            f"usage error: no point of the oracle grid ({points} points per axis) "
            "is feasible, but the solve found the feasible set nonempty; "
            "raise --resolution",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except (ValueError, *_PATH_ERRORS) as exc:  # HorizonNot2, resolutions, grid guards
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
