"""Config-driven command-line surface.

One JSON config gives the basis, the system(s), the operation and
its parameters; subcommands are thin aliases that inject the operation
name.  Reports are deterministic under (config, seed): identical inputs
produce byte-identical result payloads (wall time excluded).

Exit codes: 0 success, 1 declared expectation failed, 2 schema
violation, 3 unsupported basis product, 4 budget exhaustion where the
config demands a witness, 5 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .algebra import (Basis, RealPolynomial, SymbolicReal,
                      UnsupportedBasisError)
from .averages import (Observable, TimeSeries, banach_density,
                       jstar_embed, gtilde_star_conjugation_check,
                       gtilde_star_membership, multi_average_I,
                       multi_average_series, nilfunction_residual,
                       potts_average, ud_sup)
from .proximality import (EXHAUSTED, commuting_rp_transfer, cube_orbit_sample,
                          fiber_coverage, hausdorff_distance, nd_sample,
                          poly_orbit_density, return_set, rp_witness_search)
from .suspension import integer_part_orbit, susp_rp_transfer_check, suspend
from .systems import (HeisenbergElement, SystemHandle, flow_minimal_result,
                      heisenberg_nilflow, time_t_minimal, torus_flow)

EXIT_OK = 0
EXIT_EXPECT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_BASIS = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

OPERATIONS = ("minimal", "exceptional", "rp-certify", "rp-transfer", "cube",
              "nd-compare", "poly-density", "fiber-coverage", "suspend",
              "susp-rp", "average", "ud", "density", "potts", "nilres",
              "embed", "membership", "validate")
# operations that read params.delta with no default
_NEEDS_DELTA = ("rp-certify", "rp-transfer", "susp-rp")
# operations that take one alpha per arm: their default d
_ALPHA_PER_D = {"fiber-coverage": 1, "nd-compare": 2}


class SchemaError(ValueError):
    """Config failed schema or semantic validation."""


class BudgetExhaustedFailure(RuntimeError):
    """A search exhausted its budget where the config demanded success."""


# ---------------------------------------------------------------------------
# config parsing

def _parse_symbolic(obj) -> SymbolicReal:
    if isinstance(obj, dict):
        return SymbolicReal.from_coeffs({k: Fraction(str(v)) for k, v in obj.items()})
    if isinstance(obj, (int, str)):
        return SymbolicReal.rational(Fraction(str(obj)))
    raise SchemaError(f"cannot parse symbolic value from {obj!r}")


def build_basis(cfg: dict) -> Basis:
    basis = Basis.default()
    decl = cfg.get("basis", {})
    for entry in decl.get("symbols", []):
        basis.declare(entry["symbol"], Fraction(entry["value"]))
    for entry in decl.get("products", []):
        basis.declare_product(entry["left"], entry["right"],
                              {k: Fraction(str(v)) for k, v in entry["expansion"].items()})
    return basis


def build_system(spec: dict, basis: Basis) -> SystemHandle:
    kind = spec.get("kind")
    if kind in ("torus-flow", "torus-map"):
        flow = torus_flow(tuple(_parse_symbolic(f) for f in spec["freqs"]), basis)
    elif kind in ("heisenberg-nilflow", "heisenberg-nilsystem"):
        flow = heisenberg_nilflow(_parse_symbolic(spec["alpha"]),
                                  _parse_symbolic(spec["beta"]), basis,
                                  float(spec.get("z", 0.0)))
    elif kind == "suspension":
        return suspend(build_system(spec["base"], basis))
    else:
        raise SchemaError(f"unknown system kind {kind!r}")
    if kind in ("torus-map", "heisenberg-nilsystem"):
        return SystemHandle(flow.spec, float(spec.get("step", 1.0)))
    return flow


def _parse_observable(obj: dict) -> Observable:
    kind = obj.get("kind", "exp")
    if kind == "exp":
        return Observable.exponential(*obj["freq"])
    if kind == "cos":
        return Observable.cosine(*obj["freq"])
    if kind == "const":
        return Observable.constant(complex(obj.get("value", 1.0)),
                                   int(obj.get("dim", 1)))
    if kind == "trig":
        terms = [(tuple(t["freq"]), complex(t.get("re", 0.0), t.get("im", 0.0)))
                 for t in obj["terms"]]
        return Observable.trig(terms)
    raise SchemaError(f"unknown observable kind {kind!r}")


def _parse_polys(objs) -> list[RealPolynomial]:
    return [RealPolynomial.from_coeffs([str(c) for c in p["coeffs"]]) for p in objs]


def _parse_times(obj) -> np.ndarray:
    if isinstance(obj, list):
        return np.asarray(obj, dtype=float)
    kind = obj.get("kind")
    if kind == "quadratic":
        n = np.arange(1, int(obj["n_max"]) + 1, dtype=float)
        return float(obj["beta"]) * n * n
    if kind == "uniform":
        rng = np.random.default_rng(int(obj.get("seed", 0)))
        return rng.random(int(obj["count"])) * float(obj["horizon"])
    if kind == "grid":
        return np.arange(float(obj["start"]), float(obj["stop"]) + 1e-12,
                         float(obj["step"]))
    raise SchemaError(f"unknown times spec {obj!r}")


# ---------------------------------------------------------------------------
# validation

def validate_config(cfg: dict) -> list[str]:
    """All schema and semantic problems, without executing the operation."""
    diags: list[str] = []
    op = cfg.get("operation")
    if op not in OPERATIONS:
        diags.append(f"operation: unknown or missing ({op!r})")
        return diags
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        diags.append("params: must be an object")
        return diags
    try:
        basis = build_basis(cfg)
    except (KeyError, ValueError) as e:
        diags.append(f"basis: {e}")
        return diags

    needs_system = op not in ("ud", "embed", "membership", "validate")
    handles: dict[str, SystemHandle] = {}
    for key in ("system", "system_h") if needs_system else ():
        if key in cfg:
            try:
                handles[key] = build_system(cfg[key], basis)
            except (SchemaError, KeyError, ValueError) as e:
                diags.append(f"{key}: {e}")
        elif key == "system":
            diags.append("system: missing")
        elif op in ("rp-transfer", "nd-compare"):
            diags.append("system_h: missing second action")
    sys_handle = handles.get("system")

    alphas = params.get("alphas")
    vals = None
    if alphas is not None:
        try:
            vals = [float(a) for a in alphas]
        except (TypeError, ValueError):
            diags.append(f"params.alphas: must be a list of numbers, got {alphas!r}")
        else:
            if len(set(vals)) != len(vals) or any(v == 0 for v in vals):
                diags.append("params.alphas: must be distinct and nonzero")
    if op in _ALPHA_PER_D:
        # one alpha per arm; nd-compare defaults to (1, ..., d) on maps only
        d = params.get("d", _ALPHA_PER_D[op])
        if alphas is None:
            if op == "fiber-coverage" or any(not h.discrete for h in handles.values()):
                diags.append("params.alphas: missing (flows and fiber-coverage "
                             "need explicit alphas)")
        elif vals is not None and isinstance(d, int) and len(vals) != d:
            diags.append(f"params.alphas: needs d = {d} values, got {len(vals)}")
    swept = (cfg.get("sweep") or {}).get("param")
    if op in _NEEDS_DELTA and "delta" not in params and swept != "params.delta":
        diags.append("params.delta: missing")
    for key, ok, rule in (("delta", lambda v: v > 0, "must be positive"),
                          ("resolution", lambda v: 0 < v <= 1, "must lie in (0, 1]")):
        if key in params:
            try:
                if not ok(float(params[key])):
                    diags.append(f"params.{key}: {rule}")
            except (TypeError, ValueError):
                diags.append(f"params.{key}: must be a number, got {params[key]!r}")
    for key in ("budget", "d"):
        val = params.get(key, 1)
        if isinstance(val, bool) or not isinstance(val, int) or val < 1:
            diags.append(f"params.{key}: must be an integer >= 1, got {val!r}")
    for key in ("x", "y", "center", "x1", "x2"):
        # a point needs dim coordinates; cube and nd-compare read x on both systems
        both = key == "x" and op in ("cube", "nd-compare")
        for name, h in handles.items():
            pt = params.get(key)
            if (pt is not None and (both or name == "system")
                    and not (isinstance(pt, list) and len(pt) == h.dim)):
                diags.append(f"params.{key}: needs {h.dim} coordinates on {name}, got {pt!r}")
    if op == "fiber-coverage" and sys_handle:
        table = sys_handle.spec.projections
        if params.get("projection") not in table:
            diags.append(f"params.projection: {params.get('projection')!r} does not apply to "
                         f"{sys_handle.tag} of dimension {sys_handle.dim} (has {sorted(table)})")
    if "polys" in params:
        try:
            polys = _parse_polys(params["polys"])
            if any(p.is_constant for p in polys):
                diags.append("params.polys: polynomials must be nonconstant")
        except (KeyError, ValueError) as e:
            diags.append(f"params.polys: {e}")

    if op == "exceptional" and sys_handle is not None:
        try:
            t = _parse_symbolic(params.get("t", 0))
            if t.is_zero:
                diags.append("params.t: must be nonzero")
            else:
                time_t_minimal(sys_handle, t, basis)
        except UnsupportedBasisError as e:
            diags.append(f"UNSUPPORTED-BASIS: {e}")
        except (SchemaError, ValueError) as e:
            diags.append(f"params.t: {e}")
    return diags


# ---------------------------------------------------------------------------
# operations

@dataclass
class RunContext:
    cfg: dict
    basis: Basis
    seed: int
    out_path: Path | None
    artifacts: dict

    def system(self, key: str = "system") -> SystemHandle:
        return build_system(self.cfg[key], self.basis)

    def params(self) -> dict:
        return self.cfg.get("params", {})

    def point(self, sys_handle: SystemHandle, key: str):
        coords = self.params().get(key)
        if coords is None:
            raise SchemaError(f"params.{key}: missing point")
        return sys_handle.from_coords(tuple(float(c) for c in coords))

    def write_artifact(self, name: str, writer) -> str | None:
        if self.out_path is None:
            self.artifacts[name] = None
            return None
        path = self.out_path.with_name(self.out_path.stem + f".{name}.csv")
        writer(path)
        self.artifacts[name] = str(path)
        return str(path)


def _op_minimal(ctx: RunContext) -> dict:
    res = flow_minimal_result(ctx.system())
    return {"minimal": res.independent,
            "certificate": None if res.certificate is None
            else [str(q) for q in res.certificate]}


def _op_exceptional(ctx: RunContext) -> dict:
    t = _parse_symbolic(ctx.params()["t"])
    return {"minimal": time_t_minimal(ctx.system(), t, ctx.basis)}


def _op_rp_certify(ctx: RunContext) -> dict:
    p = ctx.params()
    sysh = ctx.system()
    res = rp_witness_search(sysh, ctx.point(sysh, "x"), ctx.point(sysh, "y"),
                            int(p.get("d", 1)), float(p["delta"]),
                            int(p.get("budget", 10 ** 5)))
    if p.get("require_witness") and res.status == EXHAUSTED:
        raise BudgetExhaustedFailure(f"search exhausted after {res.checked} candidates")
    return res.to_jsonable(sysh)


def _op_rp_transfer(ctx: RunContext) -> dict:
    p = ctx.params()
    sysG = ctx.system("system")
    sysH = ctx.system("system_h")
    x = ctx.point(sysG, "x")
    y = ctx.point(sysG, "y")
    delta = float(p["delta"])
    budget = int(p.get("budget", 10 ** 5))
    found = rp_witness_search(sysG, x, y, int(p.get("d", 1)), delta, budget)
    out = {"witness_g": found.to_jsonable(sysG)}
    if found.found:
        tr = commuting_rp_transfer(sysG, sysH, x, y, found.witness,
                                   3.0 * delta, budget)
        if p.get("require_witness") and tr.status == EXHAUSTED:
            raise BudgetExhaustedFailure("transfer exhausted")
        out["transfer"] = tr.to_jsonable(sysH)
    elif p.get("require_witness"):
        raise BudgetExhaustedFailure("no witness to transfer")
    return out


def _op_cube(ctx: RunContext) -> dict:
    p = ctx.params()
    sysh = ctx.system()
    d = int(p.get("d", 2))
    budget = int(p.get("budget", 10 ** 4))
    cloud = cube_orbit_sample(sysh, ctx.point(sysh, "x"), d, budget, ctx.seed)
    ctx.write_artifact("cloud_g", cloud.to_csv)
    out = {"cloud_g": cloud.manifest()}
    if "system_h" in ctx.cfg:
        sysH = ctx.system("system_h")
        cloud_h = cube_orbit_sample(sysH, ctx.point(sysH, "x"), d, budget,
                                    ctx.seed + 1)
        ctx.write_artifact("cloud_h", cloud_h.to_csv)
        out["cloud_h"] = cloud_h.manifest()
        out["hausdorff"] = hausdorff_distance(cloud, cloud_h)
    return out


def _op_nd_compare(ctx: RunContext) -> dict:
    p = ctx.params()
    sysG = ctx.system("system")
    sysH = ctx.system("system_h")
    d = int(p.get("d", 2))
    budget = int(p.get("budget", 10 ** 4))
    alphas = p.get("alphas")
    a = nd_sample(sysG, ctx.point(sysG, "x"), d, budget, ctx.seed, alphas)
    b = nd_sample(sysH, ctx.point(sysH, "x"), d, budget, ctx.seed + 1, alphas)
    ctx.write_artifact("cloud_g", a.to_csv)
    ctx.write_artifact("cloud_h", b.to_csv)
    return {"cloud_g": a.manifest(), "cloud_h": b.manifest(),
            "hausdorff": hausdorff_distance(a, b)}


def _op_poly_density(ctx: RunContext) -> dict:
    p = ctx.params()
    sysh = ctx.system()
    cov = poly_orbit_density(sysh, _parse_polys(p["polys"]),
                             ctx.point(sysh, "x"), int(p.get("budget", 10 ** 5)),
                             float(p.get("resolution", 0.05)), ctx.seed,
                             float(p.get("t_span", 1e4)))
    return {"coverage": cov}


def _op_fiber_coverage(ctx: RunContext) -> dict:
    p = ctx.params()
    sysh = ctx.system()
    cov = fiber_coverage(sysh, p["projection"], int(p.get("d", 1)),
                         [float(a) for a in p["alphas"]], ctx.point(sysh, "x"),
                         int(p.get("budget", 10 ** 5)),
                         float(p.get("resolution", 0.05)), ctx.seed,
                         float(p.get("horizon", 1e4)))
    return {"coverage": cov}


def _op_suspend(ctx: RunContext) -> dict:
    p = ctx.params()
    base = ctx.system()
    times = _parse_times(p["times"])
    cov = integer_part_orbit(base, ctx.point(base, "x"), times,
                             float(p.get("resolution", 0.05)))
    return {"coverage": cov, "n_times": int(len(times))}


def _op_susp_rp(ctx: RunContext) -> dict:
    p = ctx.params()
    base = ctx.system()
    rep = susp_rp_transfer_check(base, ctx.point(base, "x1"),
                                 ctx.point(base, "x2"), float(p["s1"]),
                                 float(p["s2"]), int(p.get("d", 1)),
                                 float(p["delta"]), int(p.get("budget", 10 ** 5)))
    return rep.to_jsonable()


def _op_average(ctx: RunContext) -> dict:
    p = ctx.params()
    sysh = ctx.system()
    f = _parse_observable(p["observable"])
    alphas = [float(a) for a in p["alphas"]]
    if "t_grid" in p:
        grid = _parse_times(p["t_grid"])
        vals = multi_average_series(sysh, f, alphas, grid,
                                    int(p.get("n_samples", 2 * 10 ** 4)), ctx.seed)
        series = TimeSeries(grid, np.array([v.value for v in vals]))
        ctx.write_artifact("series", series.to_csv)
        return {"n_points": len(grid), "exact": all(v.exact for v in vals),
                "max_abs": max(abs(v.value) for v in vals)}
    v = multi_average_I(sysh, f, alphas, float(p["t"]),
                        int(p.get("n_samples", 2 * 10 ** 4)), ctx.seed)
    return {"value_re": v.value.real, "value_im": v.value.imag,
            "stderr": v.stderr, "exact": v.exact}


def _op_ud(ctx: RunContext) -> dict:
    p = ctx.params()
    if "csv" in p.get("series", {}):
        data = np.loadtxt(p["series"]["csv"], delimiter=",", ndmin=2)
        values = data[:, 1] if data.shape[1] < 3 else data[:, 1] + 1j * data[:, 2]
        series = TimeSeries(data[:, 0], values)
    else:
        series = TimeSeries(np.asarray(p["series"]["grid"], dtype=float),
                            np.asarray(p["series"]["values"], dtype=float))
    res = ud_sup(series, [(float(s), float(r)) for s, r in p["windows"]])
    return {"sup": res.sup,
            "table": [{"sigma": s, "rho": r, "avg": a} for s, r, a in res.table]}


def _op_density(ctx: RunContext) -> dict:
    p = ctx.params()
    sysh = ctx.system()
    grid = _parse_times(p["time_grid"])
    hits = return_set(sysh, ctx.point(sysh, "x"), ctx.point(sysh, "center"),
                      float(p["radius"]), grid)
    horizon = float(p.get("horizon", grid[-1] if len(grid) else 0.0))
    lower, upper = banach_density(hits, float(p["rho"]), float(p["step"]),
                                  horizon, float(p.get("half_width", 0.05)))
    return {"n_hits": len(hits), "lower": lower, "upper": upper}


def _op_potts(ctx: RunContext) -> dict:
    p = ctx.params()
    sysh = ctx.system()
    rep = potts_average(sysh, _parse_polys(p["polys"]),
                        [_parse_observable(o) for o in p["observables"]],
                        float(p["R"]), int(p.get("n_x", 4)), ctx.seed,
                        p.get("h"))
    return rep.to_jsonable()


def _op_nilres(ctx: RunContext) -> dict:
    p = ctx.params()
    sysh = ctx.system()
    f = _parse_observable(p["observable"])
    grid = _parse_times(p["t_grid"])
    rep = nilfunction_residual(sysh, f, [float(a) for a in p["alphas"]], grid,
                               int(p.get("n_samples", 10 ** 5)), ctx.seed)
    ctx.write_artifact("residual", rep.residual.to_csv)
    out = {"exact_sampling": rep.exact_sampling,
           "max_abs_residual": float(np.max(np.abs(rep.residual.values)))}
    if "windows" in p:
        res = ud_sup(rep.residual, [(float(s), float(r)) for s, r in p["windows"]])
        out["ud_sup"] = res.sup
    if rep.stderrs is not None:
        out["within_3_stderr"] = rep.residual_within_stderr(3.0)
    return out


def _op_embed(ctx: RunContext) -> dict:
    p = ctx.params()
    gs = [HeisenbergElement(*map(float, g)) for g in p["gs"]]
    comps = jstar_embed(gs, [float(a) for a in p["alphas"]])
    return {"components": [list(c.coords) for c in comps]}


def _op_membership(ctx: RunContext) -> dict:
    p = ctx.params()
    hs = [HeisenbergElement(*map(float, g)) for g in p["tuple"]]
    alphas = [float(a) for a in p["alphas"]]
    tol = float(p.get("tol", 1e-10))
    res = gtilde_star_membership(hs, alphas, tol)
    out = {"member": res.member, "residual": res.residual,
           "preimage": None if res.preimage is None
           else [list(g.coords) for g in res.preimage]}
    if "conjugate_by" in p and res.member:
        g = HeisenbergElement(*map(float, p["conjugate_by"]))
        out["conjugation_closed"] = gtilde_star_conjugation_check(g, hs, alphas, tol)
    return out


_OPS = {
    "minimal": _op_minimal,
    "exceptional": _op_exceptional,
    "rp-certify": _op_rp_certify,
    "rp-transfer": _op_rp_transfer,
    "cube": _op_cube,
    "nd-compare": _op_nd_compare,
    "poly-density": _op_poly_density,
    "fiber-coverage": _op_fiber_coverage,
    "suspend": _op_suspend,
    "susp-rp": _op_susp_rp,
    "average": _op_average,
    "ud": _op_ud,
    "density": _op_density,
    "potts": _op_potts,
    "nilres": _op_nilres,
    "embed": _op_embed,
    "membership": _op_membership,
}


# ---------------------------------------------------------------------------
# run orchestration

def _render_floats(obj):
    """Pass floats through 17-significant-digit formatting (round-trip safe)."""
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, dict):
        return {k: _render_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render_floats(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _budget_consumed(result: dict) -> int | None:
    """Total search candidates consumed, summed over nested result payloads."""
    total = 0
    seen = False

    def walk(obj):
        nonlocal total, seen
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k == "checked" and isinstance(v, (int, float)):
                    total += int(v)
                    seen = True
                else:
                    walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(result)
    return total if seen else None


def _lookup(result: dict, path: str):
    cur: Any = result
    for part in path.split("."):
        if isinstance(cur, list):
            cur = cur[int(part)]
        else:
            cur = cur[part]
    return cur


def _check_expectations(result: dict, expects: list[dict]) -> bool:
    for exp in expects:
        try:
            got = _lookup(result, exp["path"])
        except (KeyError, IndexError, TypeError):
            return False
        op = exp.get("op", "eq")
        val = exp.get("value")
        ok = {"eq": lambda: got == val,
              "le": lambda: got <= val,
              "ge": lambda: got >= val,
              "true": lambda: bool(got),
              "false": lambda: not bool(got)}.get(op)
        if ok is None:
            raise SchemaError(f"unknown expectation op {op!r}")
        if not ok():
            return False
    return True


def _set_by_path(cfg: dict, path: str, value) -> None:
    parts = path.split(".")
    cur = cfg
    for p in parts[:-1]:
        cur = cur.setdefault(p, {})
    cur[parts[-1]] = value


def run_validate(cfg: dict, seed: int | None = None) -> dict:
    """The validate operation: diagnostics as data, never an error exit."""
    diags = validate_config(cfg) if cfg.get("operation") not in (None, "validate") \
        else ([] if cfg.get("operation") == "validate" else ["operation: missing"])
    return {"operation": "validate", "result": {"diagnostics": diags},
            "artifacts": {},
            "seed": seed if seed is not None else cfg.get("seed", 0)}


def run(cfg: dict, seed: int | None = None, out_path: Path | None = None) -> dict:
    """Dispatch one operation (or a sweep) and assemble the run report."""
    op = cfg.get("operation")
    if op == "validate":
        return run_validate(cfg, seed)
    diags = validate_config(cfg)
    if diags:
        basis_diags = [d for d in diags if "UNSUPPORTED-BASIS" in d]
        if basis_diags:
            raise UnsupportedBasisError("; ".join(basis_diags))
        raise SchemaError("; ".join(diags))
    eff_seed = int(seed if seed is not None else cfg.get("seed", 0))
    basis = build_basis(cfg)
    start = time.perf_counter()

    def one_run(one_cfg: dict) -> tuple[dict, dict]:
        ctx = RunContext(one_cfg, basis, eff_seed, out_path, {})
        result = _OPS[op](ctx)
        return result, ctx.artifacts

    sweep = cfg.get("sweep")
    artifacts: dict = {}
    if sweep:
        rows = []
        for value in sweep["values"]:
            sub = json.loads(json.dumps(cfg))
            _set_by_path(sub, sweep["param"], value)
            result, _ = one_run(sub)
            rows.append({"value": value, "result": result})
        result = {"sweep_param": sweep["param"], "rows": rows}
    else:
        result, artifacts = one_run(cfg)

    report = {
        "operation": op,
        "seed": eff_seed,
        "config": {k: v for k, v in cfg.items() if k != "expect"},
        "result": _render_floats(result),
        "artifacts": artifacts,
        "budget_consumed": _budget_consumed(result),
        "wall_time_s": time.perf_counter() - start,
    }
    if "expect" in cfg:
        if sweep:
            report["pass"] = all(_check_expectations(r["result"], cfg["expect"])
                                 for r in result["rows"])
        else:
            report["pass"] = _check_expectations(report["result"], cfg["expect"])
    return report


def report_json(report: dict) -> str:
    body = dict(report)
    body.pop("wall_time_s", None)
    stable = json.dumps(_render_floats(body), sort_keys=True, indent=2)
    # wall time re-attached outside the deterministic payload
    return json.dumps({"payload": json.loads(stable),
                       "wall_time_s": report.get("wall_time_s")},
                      sort_keys=True, indent=2)


def _report_csv(report: dict) -> str:
    result = report["result"]
    lines = []
    if "rows" in result:
        lines.append("value,key,field")
        for row in result["rows"]:
            flat = json.dumps(row["result"], sort_keys=True)
            lines.append(f"{row['value']},result,\"{flat}\"")
    else:
        lines.append("key,value")
        for k, v in sorted(result.items()):
            lines.append(f"{k},{json.dumps(v, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nilflow",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in OPERATIONS + ("run",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=_sys.stderr)
        return EXIT_SCHEMA
    if args.command not in ("run", "validate"):
        cfg["operation"] = args.command

    out_path = Path(args.out) if args.out else None
    try:
        if args.command == "validate":
            report = run_validate(cfg, args.seed)
        else:
            report = run(cfg, args.seed, out_path)
    except SchemaError as e:
        print(f"schema error: {e}", file=_sys.stderr)
        return EXIT_SCHEMA
    except UnsupportedBasisError as e:
        print(f"unsupported basis: {e}", file=_sys.stderr)
        return EXIT_BASIS
    except BudgetExhaustedFailure as e:
        print(f"budget exhausted: {e}", file=_sys.stderr)
        return EXIT_BUDGET
    except Exception as e:  # invariant breach: every other failure
        print(f"internal error: {type(e).__name__}: {e}", file=_sys.stderr)
        return EXIT_INTERNAL

    rendered = report_json(report) if args.format == "json" else _report_csv(report)
    if out_path is not None:
        out_path.write_text(rendered)
    else:
        print(rendered)
    if report.get("pass") is False:
        return EXIT_EXPECT_FAIL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
