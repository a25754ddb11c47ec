"""lossy-storage benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload hourly --seed 1 --seconds 55 --trace 0

Generates the workload's scenario files from the seed, computes exact
references in a helper process, times the package's import plus scenario
loading (set-up), warms up, then runs closed-loop passes over the cases, one
case at a time, until --seconds have been spent.  A fixed calibration
kernel is timed before each set-up and each case (hostspeed.py), and each
time is normalised by the kernel run just before it; a case's time is the
lower quartile of its normalised times over rounds.  Every case is checked
after its pass.  With --trace 1, traced and untraced passes alternate and
the per-layer metrics are reported instead of the end-to-end ones.

Prints a table of every metric with its unit and sample count, then, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
Scratch files, results.json and spans.jsonl go to .perfbench_work/<workload>
in the checkout.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

from casecheck import GAP_FLOOR, check_case, run_case  # noqa: E402
from generate import WORKLOADS, generate  # noqa: E402
from hostspeed import Kernel, normalised  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up repetitions before each round; set-up time is their median.
SETUP_REPS = 3

#: Iteration budget of the untimed warm-up solve of each case.
WARMUP_ITERATIONS = 2

#: Per-layer metrics printed in the final JSON of a traced run, with units:
#: the ones that are nonzero on every workload.  The rest (the oracle layer,
#: witness, probe and batched masks, which only desk-oracle runs, and the
#: solver errors and infeasibility detection, which only hourly has) are in
#: the table and in results.json.
PER_LAYER = {
    "cli.load_scenario_s": "s",
    "cli.self_s": "s",
    "model.build_dynamics_s": "s",
    "model.build_dynamics_calls": "count",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.project_s": "s",
    "solver.project_calls": "count",
    "solver.iterations": "count",
    "solver.iteration_ms": "ms",
    "costs.subgradient_s": "s",
    "costs.subgradient_calls": "count",
    "costs.evaluate_s": "s",
    "costs.evaluate_calls": "count",
    "costs.certify_s": "s",
    "transform.energy_to_power_s": "s",
    "transform.energy_to_power_calls": "count",
}

#: Units of the table-only layer metrics that are neither seconds nor counts.
TABLE_UNITS = {"oracle.feasible_ratio": "ratio", "oracle.points_per_s": "1/s"}

#: End-to-end metrics printed in the final JSON of an untraced run.
END_TO_END = {
    "setup_s": "s",
    "case_s_p50": "s",
    "workload_s": "s",
    "gap_rel_p50": "ratio",
    "gap_rel_max": "ratio",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass
class Round:
    """One set-up plus one pass over every case."""

    setup: list  # normalised seconds of each set-up repetition
    runs: list  # casecheck.CaseRun per case, in case order
    kernel: list  # seconds of the calibration kernel run before each case
    results: list  # casecheck.CaseResult per case, in case order
    spans: list  # spans.Span recorded in this round (traced rounds only)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _references(paths: list[str], out: Path) -> dict:
    """Exact optima, computed by exact.py in a helper process."""
    subprocess.run(
        [sys.executable, str(HERE / "exact.py"), "--out", str(out), *paths],
        check=True, timeout=120,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def _setup(cases, kernel: Kernel) -> tuple[object, list[float]]:
    """Import the package and load every scenario, SETUP_REPS times afresh.

    Returns the last import of the package and the per-repetition times,
    each normalised by a kernel run just before it.
    """
    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m.split(".")[0] == "lossy_storage"]:
            del sys.modules[name]
        kernel_s = kernel.seconds()
        start = time.perf_counter()
        package = importlib.import_module("lossy_storage")
        cli = importlib.import_module("lossy_storage.cli")
        for case in cases:
            cli.load_scenario(case.path)
        times.append(normalised(time.perf_counter() - start, kernel_s))
    return package, times


def _warm_up(ls, cases, out_dir: Path) -> None:
    """Run every case's solve once at a tiny budget, untimed."""
    for case in cases:
        scenario = ls.cli.load_scenario(case.path)
        options = dataclasses.replace(scenario.solve_options, max_iterations=WARMUP_ITERATIONS)
        try:
            ls.cli.run_solve(dataclasses.replace(scenario, solve_options=options),
                             out_dir / case.case_id)
        except Exception:  # warm-up only; the timed passes report failures
            pass


def _run_pass(ls, cases, refs, out_dir: Path, tracer, first: dict,
              kernel: Kernel) -> tuple[list, list, list]:
    """One closed-loop pass: time the kernel, run a case, check it; repeat.

    `first` maps case ids to their solution.json bytes from the first pass;
    a later pass that writes different bytes is a wrong answer.
    """
    runs, kernel_times, results = [], [], []
    for case in cases:
        case_dir = out_dir / case.case_id
        kernel_times.append(kernel.seconds())
        run = run_case(ls, case, case_dir, tracer)
        result = check_case(ls, case, run, case_dir, refs.get(case.path))
        if result.solution_bytes is not None:
            expected = first.setdefault(case.case_id, result.solution_bytes)
            if expected != result.solution_bytes:
                result.failure, result.wrong = "nondeterministic", True
        runs.append(run)
        results.append(result)
    shutil.rmtree(out_dir, ignore_errors=True)
    return runs, kernel_times, results


def _layer_metrics(spans) -> dict:
    """Per-layer totals of one traced pass (seconds are self time)."""
    selfs = self_times(spans)

    def total(name, inclusive=False):
        return sum((s.end - s.start) if inclusive else selfs[s.span_id]
                   for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    solves = [s for s in spans if s.name == "solver.solve"]
    solved = [s for s in solves if s.error is None]
    iterations = sum(s.count for s in solved)
    oracle_ids = {s.span_id for s in spans if s.name == "oracle.brute_force"}
    grid_points = sum(s.count for s in spans if s.name == "transform.power_feasibility_mask"
                      and s.parent in oracle_ids)
    feasible_points = sum(s.count for s in spans if s.name == "oracle.brute_force")
    oracle_s = total("oracle.brute_force", inclusive=True)
    metrics = {
        "cli.load_scenario_s": total("cli.load_scenario"),
        "cli.self_s": total("cli.run_solve"),
        "model.build_dynamics_s": total("model.build_dynamics"),
        "model.build_dynamics_calls": calls("model.build_dynamics"),
        "solver.solve_s": total("solver.solve", inclusive=True),
        "solver.self_s": total("solver.solve"),
        "solver.project_s": total("solver.project"),
        "solver.project_calls": calls("solver.project"),
        "solver.iterations": iterations,
        "solver.iteration_ms": 1e3 * sum(s.end - s.start for s in solved) / max(1, iterations),
        "solver.errors": len(solves) - len(solved),
        "solver.infeasible_detect_s": sum(s.end - s.start for s in solves
                                          if s.error == "InfeasibleProblem"),
        "costs.subgradient_s": total("costs.subgradient"),
        "costs.subgradient_calls": calls("costs.subgradient"),
        "costs.evaluate_s": total("costs.evaluate"),
        "costs.evaluate_calls": calls("costs.evaluate"),
        "costs.certify_s": total("costs.certify"),
        "costs.probe_s": total("costs.probe"),
        "transform.energy_to_power_s": total("transform.energy_to_power"),
        "transform.energy_to_power_calls": calls("transform.energy_to_power"),
        "transform.power_feasibility_mask_s": total("transform.power_feasibility_mask"),
        "transform.mask_rows": sum(s.count for s in spans
                                   if s.name == "transform.power_feasibility_mask"),
        "transform.witness_s": total("transform.witness"),
        "oracle.brute_force_s": total("oracle.brute_force"),
        "oracle.grid_points": grid_points,
        "oracle.feasible_ratio": feasible_points / grid_points if grid_points else 0.0,
        "oracle.points_per_s": grid_points / oracle_s if oracle_s else 0.0,
    }
    for span in solves:
        if span.error is not None:
            key = f"solver.errors.{span.error}"
            metrics[key] = metrics.get(key, 0) + 1
    return metrics


def _projection_shares(rounds, case_ids) -> dict:
    """Each case's median share of its traced time spent in projection."""
    shares = {cid: [] for cid in case_ids}
    for r in rounds:
        selfs = self_times(r.spans)
        for i, cid in enumerate(case_ids):
            project = sum(selfs[s.span_id] for s in r.spans
                          if s.case_id == cid and s.name == "solver.project")
            shares[cid].append(project / r.runs[i].seconds)
    return {cid: median(v) for cid, v in shares.items()}


def _lower_quartile(values: list) -> float:
    return quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def _case_times(rounds, case_ids, scaled: bool = True) -> dict:
    """Each case's lower quartile of time over the given rounds, each time
    normalised by the kernel run just before it unless `scaled` is false."""
    def seconds(r, i):
        run = r.runs[i].seconds
        return normalised(run, r.kernel[i]) if scaled else run

    return {cid: _lower_quartile([seconds(r, i) for r in rounds])
            for i, cid in enumerate(case_ids)}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lossy_storage" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    cases = generate(args.workload, args.seed, work / "scenarios", ROOT / "scenarios")
    case_ids = [c.case_id for c in cases]
    refs = _references([c.path for c in cases if c.feasible], work / "references.json")
    kernel = Kernel()
    ls, _ = _setup(cases, kernel)
    _warm_up(ls, cases, work / "warmup")

    tracer = Tracer() if args.trace else None
    first: dict = {}
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    round_walls = []
    while True:
        round_start = time.perf_counter()
        use_trace = tracer is not None and len(traced) < len(plain)
        gc.collect()  # drop the previous round's modules before timing anything
        ls, setup_times = _setup(cases, kernel)
        mark = len(tracer.spans) if use_trace else 0
        if use_trace:
            tracer.install(ls)
        try:
            runs, kernel_times, results = _run_pass(
                ls, cases, refs, work / "passes", tracer if use_trace else None, first, kernel)
        finally:
            if use_trace:
                tracer.uninstall()
        done = Round(setup_times, runs, kernel_times, results,
                     tracer.spans[mark:] if use_trace else [])
        (traced if use_trace else plain).append(done)
        if len(plain) == 1 and not traced:
            # later rounds repeat this work; only re-imports would add to it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        round_walls.append(time.perf_counter() - round_start)
        finished = plain and (tracer is None or traced)
        # start another round only if one as long as the last (or the typical
        # one, if longer) still ends before the deadline
        upcoming = max(median(round_walls), round_walls[-1])
        if finished and time.perf_counter() + upcoming > deadline:
            break

    results = [res for r in plain + traced for res in r.results]
    attempted = len(results)
    failed = sum(res.failure is not None for res in results)
    correct = not any(res.wrong for res in results)
    gaps = [res.gap for res in plain[0].results if res.gap is not None]
    case_s = _case_times(plain, case_ids)
    wall_s = _case_times(plain, case_ids, scaled=False)
    setup_times = [t for r in plain for t in r.setup]
    e2e = {
        "setup_s": (median(setup_times), len(setup_times)),
        "case_s_p50": (median(case_s.values()), len(case_s)),
        "workload_s": (sum(case_s.values()), len(plain)),
        "gap_rel_p50": (median(gaps) if gaps else GAP_FLOOR, len(gaps)),
        "gap_rel_max": (max(gaps) if gaps else GAP_FLOOR, len(gaps)),
        "failed_ratio": (failed / attempted, attempted),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    units = dict(END_TO_END, failed_ratio="ratio")
    wall = {
        "wall.case_s_p50": (median(wall_s.values()), len(wall_s)),
        "wall.workload_s": (sum(wall_s.values()), len(plain)),
        "kernel_s_p50": (median(k for r in plain for k in r.kernel),
                         sum(len(r.kernel) for r in plain)),
    }

    env = _environment()
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# closed loop, one case at a time; {len(cases)} cases; "
          f"{len(plain)} untraced + {len(traced)} traced rounds; case times are lower "
          f"quartiles over rounds, normalised by the calibration kernel (wall.*: not normalised)")
    for case_id, result in zip(case_ids, plain[0].results):
        gap = "-" if result.gap is None else f"{result.gap:.3e}"
        print(f"#   case {case_id:<30} {case_s[case_id]:9.4f} s  wall {wall_s[case_id]:9.4f} s  "
              f"gap={gap:<10} "
              f"failure={result.failure}")
    for name, (value, n) in e2e.items():
        print(f"{name:<36} {value:>14.6g} {units[name]:<6} n={n}")
    for name, (value, n) in wall.items():
        print(f"{name:<36} {value:>14.6g} {'s':<6} n={n}")

    report = {"environment": env, "workload": args.workload, "seed": args.seed,
              "end_to_end": {k: v[0] for k, v in e2e.items()},
              "wall": {k: v[0] for k, v in wall.items()},
              "case_seconds": case_s, "case_wall_seconds": wall_s,
              "rounds": [{"case_seconds": [run.seconds for run in r.runs],
                          "kernel_seconds": r.kernel} for r in plain],
              "failures": [[res.case_id, res.failure] for res in results if res.failure]}
    if tracer is not None:
        layers = [_layer_metrics(r.spans) for r in traced]
        keys = sorted({k for layer in layers for k in layer})
        per_layer = {k: median(layer.get(k, 0) for layer in layers) for k in keys}
        per_layer["trace.overhead_s"] = (sum(_case_times(traced, case_ids).values())
                                         - e2e["workload_s"][0])
        for name, value in per_layer.items():
            unit = PER_LAYER.get(name) or TABLE_UNITS.get(
                name, "s" if name.endswith("_s") else "count")
            print(f"{name:<36} {value:>14.6g} {unit:<6} n={len(traced)}")
        shares = _projection_shares(traced, case_ids)
        for case_id, share in shares.items():
            print(f"#   case {case_id:<30} projection share {share:.3f}")
        report["per_layer"] = per_layer
        report["case_projection_share"] = shares
        tracer.write(work / "spans.jsonl")
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END.items()}
    (work / "results.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
