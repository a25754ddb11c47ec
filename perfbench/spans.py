"""In-memory spans around the package's layer boundaries, taken from outside.

`Tracer.install` replaces module-level names that each layer looks up at
call time (for example `lossy_storage.solver.project_onto_polytope`) with
timing wrappers, and `Tracer.uninstall` puts the originals back.  Every span
records its name, start, end, parent span and case id; self time is a span's
duration minus the part of it that its children cover.  Nothing is written
until `Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

#: (module suffix under lossy_storage, attribute, span name).  A function
#: imported into several modules is wrapped in each module that calls it.
TARGETS = (
    ("solver", "solve", "solver.solve"),
    ("solver", "project_onto_polytope", "solver.project"),
    ("solver", "build_dynamics", "model.build_dynamics"),
    ("oracle", "build_dynamics", "model.build_dynamics"),
    ("transform", "build_dynamics", "model.build_dynamics"),
    ("costs", "build_dynamics", "model.build_dynamics"),
    ("cli", "build_dynamics", "model.build_dynamics"),
    ("solver", "subgradient_energy_cost", "costs.subgradient"),
    ("solver", "evaluate_energy_cost", "costs.evaluate"),
    ("solver", "certify_convexity", "costs.certify"),
    ("solver", "energy_to_power", "transform.energy_to_power"),
    ("costs", "energy_to_power", "transform.energy_to_power"),
    ("oracle", "power_feasibility_mask", "transform.power_feasibility_mask"),
    ("transform", "power_feasibility_mask", "transform.power_feasibility_mask"),
    ("cli", "power_feasibility_mask", "transform.power_feasibility_mask"),
    ("oracle", "brute_force_solve", "oracle.brute_force"),
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    case_id: Optional[str]
    count: int = 0  # rows checked by a mask, iterations of a solve, feasible oracle points
    error: Optional[str] = None  # exception class that ended the span


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = (span.end - span.start) - covered
    return out


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.case_id: Optional[str] = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.case_id)
        self.spans.append(span)
        self._stack.append(span.span_id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name == "transform.power_feasibility_mask":
            span.count = len(result)
        elif name == "solver.solve":
            span.count = int(result.iterations_used)
        elif name == "oracle.brute_force":
            span.count = int(result.feasible_count)
        return result

    def install(self, package) -> None:
        """Wrap every target name of the imported `package`."""
        for module_name, attr, span_name in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr)

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _name=span_name, **kwargs):
                return self.span(_name, _fn, *args, **kwargs)

            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
