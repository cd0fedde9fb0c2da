"""Layer spans recorded from outside the program.

``Tracer.install()`` wraps the public functions of each nilflow module
and ``SystemHandle.dist`` / ``evolve`` / ``from_coords``.  A wrapped
function is rebound in every module that bound it by value (``cli``
imports ``rp_witness_search``, ``systems`` imports
``rationally_independent``, ...); names a module imports at call time
are reached through the patched module attribute.  Spans (name, start,
end, parent, op) stay in memory until the run writes them out.
"""

from __future__ import annotations

import csv
import functools
import time

from nilflow import algebra, averages, cli, proximality, suspension, systems

MODULES = (algebra, systems, proximality, suspension, averages, cli)

# (module, function) pairs traced as "<module>.<function>"
FUNCTIONS = [
    (systems, "time_t_minimal"), (systems, "flow_minimal_result"),
    (proximality, "rp_witness_search"), (proximality, "witness_max_gap"),
    (proximality, "hausdorff_distance"), (proximality, "cube_orbit_sample"),
    (proximality, "nd_sample"), (proximality, "poly_orbit_density"),
    (proximality, "fiber_coverage"), (proximality, "commuting_rp_transfer"),
    (proximality, "return_set"),
    (suspension, "susp_rp_transfer_check"), (suspension, "susp_metric"),
    (suspension, "susp_evolve"), (suspension, "integer_part_orbit"),
    (averages, "potts_average"), (averages, "multi_average_I"),
    (averages, "_exact_correlation_terms"), (averages, "nilfunction_residual"),
    (averages, "ud_sup"), (averages, "banach_density"),
    (averages, "gtilde_star_membership"),
    (algebra, "rationally_independent"), (algebra, "rational_kernel"),
    (algebra, "polys_r_independent"),
    (cli, "run"), (cli, "validate_config"), (cli, "report_json"),
]

KIND = {systems.TORUS_FLOW: "torus", systems.TORUS_MAP: "torus",
        systems.HEIS_NILFLOW: "heisenberg", systems.HEIS_NILSYSTEM: "heisenberg",
        systems.SUSPENSION: "suspension"}

# SystemHandle methods: dist and evolve are named per system kind
METHODS = [("dist", True), ("evolve", True), ("from_coords", False)]

# span names whose calls / busy_s / self_s are reported as per-layer metrics
REPORTED = ([f"systems.{m}.{k}" for m in ("dist", "evolve") for k in ("torus", "heisenberg")]
            + ["systems.from_coords"]
            + [f"{mod.__name__.rsplit('.', 1)[1]}.{fn}" for mod, fn in FUNCTIONS])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self.stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_of):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_of(args), 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        for mod, attr in FUNCTIONS:
            fn = getattr(mod, attr)
            name = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
            wrapped = self._wrap(fn, lambda args, name=name: name)
            for m in MODULES:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, key, value))
                        setattr(m, key, wrapped)
        for attr, per_kind in METHODS:
            fn = getattr(systems.SystemHandle, attr)
            prefix = f"systems.{attr}"
            name_of = ((lambda args, p=prefix: f"{p}.{KIND[args[0].tag]}") if per_kind
                       else (lambda args, p=prefix: p))
            self._undo.append((systems.SystemHandle, attr, fn))
            setattr(systems.SystemHandle, attr, self._wrap(fn, name_of))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    def layer_metrics(self, first: int = 0, end: int | None = None) -> dict[str, float]:
        """calls, busy_s and self_s per reported name over spans[first:end].

        busy_s counts a span only when no enclosing span has the same name;
        self_s subtracts the time covered by direct child spans.
        """
        spans = self.spans
        end = len(spans) if end is None else end
        child = [0.0] * len(spans)
        for rec in spans[first:end]:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, float] = {}
        for n in REPORTED:
            out.update({f"{n}.calls": 0, f"{n}.busy_s": 0.0, f"{n}.self_s": 0.0})
        for i in range(first, end):
            name, start, end, parent, _ = spans[i]
            if f"{name}.calls" not in out:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out[f"{name}.busy_s"] += end - start
        return out

    def write(self, path, op_names: list[str]) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start_s", "end_s", "parent", "op"])
            for name, start, end, parent, op in self.spans:
                w.writerow([name, f"{start:.9f}", f"{end:.9f}", parent,
                            op_names[op] if op >= 0 else ""])
