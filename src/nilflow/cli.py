"""Config-driven command-line surface.

One JSON config gives the basis, the system(s), the operation and
its parameters; subcommands are thin aliases that inject the operation
name.  Each operation declares its parameters once, in ``_TABLE``: a
parser giving the type and the allowed range, and a default unless the
parameter is required; then its cross rules, each a check the library
itself runs: a rule checks, and the operation decides.  A config is
parsed once, before anything runs, into typed parameters per sweep row.
Reports are deterministic under (config, seed): identical inputs produce
byte-identical result payloads (wall time excluded).

Exit codes: 0 success, 1 declared expectation failed, 2 schema
violation, 3 unsupported basis product, 4 budget exhaustion where the
config demands a witness, 5 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys as _sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from .algebra import (Basis, RealPolynomial, SymbolicReal,
                      UnsupportedBasisError, require_nonconstant)
from .averages import (Observable, TimeSeries, banach_density, jstar_embed,
                       gtilde_star_conjugation_check, gtilde_star_membership,
                       multi_average_I, multi_average_series, nilfunction_residual,
                       potts_average, require_alphas, require_increasing,
                       require_independent, require_jstar_elements, require_one_per,
                       require_exact_terms, require_pair, require_rho_within,
                       require_rotation_factor, trig_phase_step, ud_sup, window_spans)
from .proximality import (EXHAUSTED, commuting_rp_transfer, cube_orbit_sample,
                          fiber_coverage, hausdorff_distance, nd_sample,
                          poly_orbit_density, require_arm_alphas, require_cell_grid,
                          require_commuting, require_comparable, require_cube_points,
                          require_face_count, require_projection, require_torus,
                          require_transfer_order, return_set, rp_witness_search)
from .suspension import integer_part_orbit, susp_rp_transfer_check, suspend
from .systems import (HeisenbergElement, SystemHandle, exact_freqs,
                      flow_minimal_result, heisenberg_nilflow, time_t_minimal,
                      time_t_values, torus_flow)

EXIT_OK = 0
EXIT_EXPECT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_BASIS = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


class SchemaError(ValueError):
    """Config failed schema or semantic validation."""


class FieldError(SchemaError):
    """A SchemaError whose message starts with the field it names."""


class BudgetExhaustedFailure(RuntimeError):
    """A search exhausted its budget where the config demanded success."""


# ---------------------------------------------------------------------------
# basis and systems

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


def _system_float(spec: dict, key: str, default: float, name: str) -> float:
    """A float field of the system object named name: FieldError name.key."""
    try:
        return _float(spec.get(key, default))
    except _MALFORMED as e:
        raise FieldError(f"{name}.{key}: {e}") from None


def build_system(spec: dict, basis: Basis, name: str = "system") -> SystemHandle:
    """The system of a config object; name is its key in the config.  A
    map's step is finite and nonzero; a flow takes real times, no step."""
    kind = spec.get("kind")
    if kind in ("torus-flow", "torus-map"):
        flow = torus_flow(tuple(_parse_symbolic(f) for f in spec["freqs"]), basis)
    elif kind in ("heisenberg-nilflow", "heisenberg-nilsystem"):
        flow = heisenberg_nilflow(_parse_symbolic(spec["alpha"]),
                                  _parse_symbolic(spec["beta"]), basis,
                                  _system_float(spec, "z", 0.0, name))
    elif kind == "suspension":
        flow = suspend(build_system(spec["base"], basis, f"{name}.base"))
    else:
        raise SchemaError(f"unknown system kind {kind!r}")
    if kind == flow.tag:
        if spec.get("step") is not None:
            raise FieldError(f"{name}.step: a {kind} takes real times, not a step")
        return flow
    step = _system_float(spec, "step", 1.0, name)
    if step == 0:
        raise FieldError(f"{name}.step: must be nonzero")
    return SystemHandle(flow.spec, step)


# ---------------------------------------------------------------------------
# parameter parsers: each returns the typed value; SchemaError names the
# rule a value breaks, and any other error of a parser means malformed input

_MALFORMED = (ArithmeticError, AttributeError, LookupError, OSError, TypeError,
              ValueError)


def _finite(obj) -> bool:
    """Whether a config value holds no NaN and no infinity (json reads both)."""
    if isinstance(obj, (dict, list, tuple)):
        return all(map(_finite, obj.values() if isinstance(obj, dict) else obj))
    return not isinstance(obj, float) or math.isfinite(obj)


def _float(v) -> float:
    """The one float parser: float() also reads "inf" and "nan" from
    strings, so it checks finiteness itself."""
    x = float(v)
    if not math.isfinite(x):
        raise SchemaError(f"must be finite, got {v!r}")
    return x


def _positive(v) -> float:
    x = _float(v)
    if not x > 0:
        raise SchemaError(f"must be positive, got {v!r}")
    return x


def _unit(v) -> float:
    x = _float(v)
    if not 0 < x <= 1:
        raise SchemaError(f"must lie in (0, 1], got {v!r}")
    return x


def _count(v) -> int:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
        raise SchemaError(f"must be an integer >= 1, got {v!r}")
    return int(v)


def _seed(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
        raise SchemaError(f"must be an integer >= 0, got {v!r:.80}")
    return int(v)


def _nonempty(v) -> list:
    if not (isinstance(v, list) and v):
        raise SchemaError(f"must be a nonempty list, got {v!r}")
    return v


def _floats(v) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise SchemaError(f"must be a list of numbers, got {v!r}")
    return tuple(_float(c) for c in v)


def _alphas(v) -> list[float]:
    return [_float(a) for a in _nonempty(v)]


def _nonzero_time(v) -> SymbolicReal:
    t = _parse_symbolic(v)
    if t.is_zero:
        raise SchemaError("must be nonzero")
    return t


def _polys(v) -> list[RealPolynomial]:
    return [RealPolynomial.from_coeffs([str(c) for c in p["coeffs"]])
            for p in _nonempty(v)]


def _observable(obj) -> Observable:
    kind = obj.get("kind", "exp")
    if kind == "exp":
        return Observable.exponential(*obj["freq"])
    if kind == "cos":
        return Observable.cosine(*obj["freq"])
    if kind == "const":
        return Observable.constant(_float(obj.get("value", 1.0)), _count(obj.get("dim", 1)))
    if kind == "trig":
        return Observable.trig([(tuple(t["freq"]),
                                 complex(_float(t.get("re", 0.0)), _float(t.get("im", 0.0))))
                                for t in obj["terms"]])
    raise SchemaError(f"unknown observable kind {kind!r}")


def _observables(v) -> list[Observable]:
    return [_observable(o) for o in _nonempty(v)]


def _times(obj) -> np.ndarray:
    kind = "list" if isinstance(obj, list) else obj.get("kind")
    if kind == "list":
        ts = np.array([_float(t) for t in obj])
    elif kind == "quadratic":
        n = np.arange(1, _count(obj["n_max"]) + 1, dtype=float)
        ts = _float(obj["beta"]) * n * n
    elif kind == "uniform":
        rng = np.random.default_rng(_seed(obj.get("seed", 0)))
        ts = rng.random(_count(obj["count"])) * _float(obj["horizon"])
    elif kind == "grid":
        ts = np.arange(_float(obj["start"]), _float(obj["stop"]) + 1e-12,
                       _float(obj["step"]))
    else:
        raise SchemaError(f"unknown times spec {obj!r}")
    if not len(ts):
        raise SchemaError("must hold at least one time")
    if not np.isfinite(ts).all():
        raise SchemaError(f"must be finite, got {obj!r:.80}")
    return ts


def _windows(v) -> list[tuple[float, float]]:
    return [(_float(s), _float(r)) for s, r in _nonempty(v)]


def _series(obj) -> TimeSeries:
    if "csv" in obj:
        data = np.loadtxt(obj["csv"], delimiter=",", ndmin=2)
        grid = data[:, 0]
        values = data[:, 1] if data.shape[1] < 3 else data[:, 1] + 1j * data[:, 2]
    else:
        grid = np.array([_float(t) for t in obj["grid"]])
        values = np.array([_float(v) for v in obj["values"]])
    if not (np.isfinite(grid).all() and np.isfinite(values).all()):
        raise SchemaError(f"must be finite, got {obj!r:.80}")
    return TimeSeries(grid, values)


def _element(v) -> HeisenbergElement:
    return HeisenbergElement(*_floats(v))


def _elements(v) -> list[HeisenbergElement]:
    return [_element(g) for g in _nonempty(v)]


# ---------------------------------------------------------------------------
# operations: each takes its typed parameters (defaults filled in), the
# config's system and the run context

@dataclass
class RunContext:
    sys_h: SystemHandle | None
    seed: int
    out_path: Path | None
    artifacts: dict = field(default_factory=dict)

    def write_artifact(self, name: str, writer) -> None:
        self.artifacts[name] = None
        if self.out_path is not None:
            path = self.out_path.with_name(self.out_path.stem + f".{name}.csv")
            writer(path)
            self.artifacts[name] = str(path)


def _op_minimal(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    res = flow_minimal_result(sysh)
    return {"minimal": res.independent,
            "certificate": None if res.certificate is None
            else [str(q) for q in res.certificate]}


def _op_exceptional(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    return {"minimal": time_t_minimal(sysh, p["t"])}


def _op_rp_certify(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    res = rp_witness_search(sysh, sysh.from_coords(p["x"]), sysh.from_coords(p["y"]),
                            p["d"], p["delta"], p["budget"])
    if p["require_witness"] and res.status == EXHAUSTED:
        raise BudgetExhaustedFailure(f"search exhausted after {res.checked} candidates")
    return res.to_jsonable()


def _op_rp_transfer(p: dict, sysG: SystemHandle, ctx: RunContext) -> dict:
    x = sysG.from_coords(p["x"])
    y = sysG.from_coords(p["y"])
    found = rp_witness_search(sysG, x, y, p["d"], p["delta"], p["budget"])
    out = {"witness_g": found.to_jsonable()}
    if found.found:
        tr = commuting_rp_transfer(sysG, ctx.sys_h, x, y, found.witness,
                                   3.0 * p["delta"], p["budget"])
        if p["require_witness"] and tr.status == EXHAUSTED:
            raise BudgetExhaustedFailure("transfer exhausted")
        out["transfer"] = tr.to_jsonable()
    elif p["require_witness"]:
        raise BudgetExhaustedFailure("no witness to transfer")
    return out


def _op_cube(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    cloud = cube_orbit_sample(sysh, sysh.from_coords(p["x"]), p["d"], p["budget"],
                              ctx.seed)
    ctx.write_artifact("cloud_g", cloud.to_csv)
    out = {"cloud_g": cloud.manifest()}
    if ctx.sys_h is not None:
        cloud_h = cube_orbit_sample(ctx.sys_h, ctx.sys_h.from_coords(p["x"]), p["d"],
                                    p["budget"], ctx.seed + 1)
        ctx.write_artifact("cloud_h", cloud_h.to_csv)
        out["cloud_h"] = cloud_h.manifest()
        out["hausdorff"] = hausdorff_distance(cloud, cloud_h)
    return out


def _op_nd_compare(p: dict, sysG: SystemHandle, ctx: RunContext) -> dict:
    a, b = (nd_sample(s, s.from_coords(p["x"]), p["d"], p["budget"], ctx.seed + i,
                      p["alphas"]) for i, s in enumerate((sysG, ctx.sys_h)))
    ctx.write_artifact("cloud_g", a.to_csv)
    ctx.write_artifact("cloud_h", b.to_csv)
    return {"cloud_g": a.manifest(), "cloud_h": b.manifest(),
            "hausdorff": hausdorff_distance(a, b)}


def _op_poly_density(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    cov = poly_orbit_density(sysh, p["polys"], sysh.from_coords(p["x"]), p["budget"],
                             p["resolution"], ctx.seed, p["t_span"])
    return {"coverage": cov}


def _op_fiber_coverage(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    cov = fiber_coverage(sysh, p["projection"], p["d"], p["alphas"],
                         sysh.from_coords(p["x"]), p["budget"], p["resolution"],
                         ctx.seed, p["horizon"])
    return {"coverage": cov}


def _op_suspend(p: dict, base: SystemHandle, ctx: RunContext) -> dict:
    cov = integer_part_orbit(base, base.from_coords(p["x"]), p["times"],
                             p["resolution"])
    return {"coverage": cov, "n_times": int(len(p["times"]))}


def _op_susp_rp(p: dict, base: SystemHandle, ctx: RunContext) -> dict:
    rep = susp_rp_transfer_check(base, base.from_coords(p["x1"]),
                                 base.from_coords(p["x2"]), p["s1"], p["s2"],
                                 p["d"], p["delta"], p["budget"])
    return rep.to_jsonable()


def _op_average(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    if len(p["t_grid"]):
        grid = p["t_grid"]
        vals = multi_average_series(sysh, p["observable"], p["alphas"], grid,
                                    p["n_samples"], ctx.seed)
        series = TimeSeries(grid, np.array([v.value for v in vals]))
        ctx.write_artifact("series", series.to_csv)
        return {"n_points": len(grid), "exact": all(v.exact for v in vals),
                "max_abs": max(abs(v.value) for v in vals)}
    v = multi_average_I(sysh, p["observable"], p["alphas"], p["t"],
                        p["n_samples"], ctx.seed)
    return {"value_re": v.value.real, "value_im": v.value.imag,
            "stderr": v.stderr, "exact": v.exact}


def _op_ud(p: dict, sysh: SystemHandle | None, ctx: RunContext) -> dict:
    res = ud_sup(p["series"], p["windows"])
    return {"sup": res.sup,
            "table": [{"sigma": s, "rho": r, "avg": a} for s, r, a in res.table]}


def _horizon(time_grid, horizon) -> float:
    """The density horizon: the given one, else the end of the time grid."""
    return float(time_grid[-1]) if horizon is None else horizon


def _op_density(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    hits = return_set(sysh, sysh.from_coords(p["x"]), sysh.from_coords(p["center"]),
                      p["radius"], p["time_grid"])
    lower, upper = banach_density(hits, p["rho"], p["step"],
                                  _horizon(p["time_grid"], p["horizon"]), p["half_width"])
    return {"n_hits": len(hits), "lower": lower, "upper": upper}


def _op_potts(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    rep = potts_average(sysh, p["polys"], p["observables"], p["R"], p["n_x"],
                        ctx.seed, p["h"])
    return rep.to_jsonable()


def _op_nilres(p: dict, sysh: SystemHandle, ctx: RunContext) -> dict:
    rep = nilfunction_residual(sysh, p["observable"], p["alphas"], p["t_grid"],
                               p["n_samples"], ctx.seed)
    ctx.write_artifact("residual", rep.residual.to_csv)
    out = {"exact_sampling": rep.exact_sampling,
           "max_abs_residual": float(np.max(np.abs(rep.residual.values)))}
    if p["windows"]:
        out["ud_sup"] = ud_sup(rep.residual, p["windows"]).sup
    if rep.stderrs is not None:
        out["within_3_stderr"] = rep.residual_within_stderr(3.0)
    return out


def _op_embed(p: dict, sysh: SystemHandle | None, ctx: RunContext) -> dict:
    comps = jstar_embed(p["gs"], p["alphas"])
    return {"components": [list(c.coords) for c in comps]}


def _op_membership(p: dict, sysh: SystemHandle | None, ctx: RunContext) -> dict:
    res = gtilde_star_membership(p["tuple"], p["alphas"], p["tol"])
    out = {"member": res.member, "residual": res.residual,
           "preimage": None if res.preimage is None
           else [list(g.coords) for g in res.preimage]}
    if p["conjugate_by"] is not None and res.member:
        out["conjugation_closed"] = gtilde_star_conjugation_check(
            p["conjugate_by"], p["tuple"], p["alphas"], p["tol"])
    return out


# ---------------------------------------------------------------------------
# the parameter table: operation -> (op, {param: parser | (parser, default)},
# cross rules); a bare parser marks a required parameter, and null means the
# default.  A cross rule (prefix, check, keys) calls a library check on the
# values of the keys it reads: parameters, or the systems "system" and
# "system_h".  The error it raises becomes the diagnostic "prefix: error".

def _on(system: str, *keys: str) -> list[tuple]:
    """Rules: each point parameter has the coordinate count of the system."""
    where = "" if system == "system" else f" on {system}"
    return [(f"params.{k}{where}", lambda sys, c: sys.from_coords(c), (system, k))
            for k in keys]


def _t_or_grid(t, t_grid) -> None:
    if t is None and not len(t_grid):
        raise SchemaError("missing (average needs t or t_grid)")
    if t is not None and len(t_grid):
        raise SchemaError("give t or t_grid, not both")


_SEARCH = {"d": (_count, 1), "delta": _positive, "budget": (_count, 10 ** 5)}
_CLOUD = {"x": _floats, "d": (_count, 2), "budget": (_count, 10 ** 4)}
_RP = {**_SEARCH, "x": _floats, "y": _floats, "require_witness": (bool, False)}
_CLOUD_RULES = [*_on("system", "x"), *_on("system_h", "x"),
                ("system_h", require_comparable, ("system", "system_h"))]
_ALPHAS = ("params.alphas", require_alphas, ("alphas",))
_FACES = ("params.d", require_face_count, ("d",))
_OBSERVABLE = ("params.observable", trig_phase_step, ("system", "observable"))

_TABLE = {
    "minimal": (_op_minimal, {}, [("system", partial(exact_freqs, name="minimal"),
                                   ("system",))]),
    "exceptional": (_op_exceptional, {"t": _nonzero_time}, [
        ("system", partial(exact_freqs, name="exceptional"), ("system",)),
        ("params.t", time_t_values, ("system", "t"))]),
    "rp-certify": (_op_rp_certify, _RP, [*_on("system", "x", "y"), _FACES]),
    "rp-transfer": (_op_rp_transfer, _RP, [*_on("system", "x", "y"), (
        "system_h: must commute with system", require_commuting, ("system", "system_h")),
        ("params.d", require_transfer_order, ("d",))]),
    "cube": (_op_cube, _CLOUD, [*_CLOUD_RULES, ("params.d", require_cube_points,
                                                ("d", "budget"))]),
    "nd-compare": (_op_nd_compare, {**_CLOUD, "alphas": (_alphas, None)}, [
        *_CLOUD_RULES,
        ("params.alphas", require_arm_alphas, ("system", "d", "alphas")),
        ("params.alphas", require_arm_alphas, ("system_h", "d", "alphas"))]),
    "poly-density": (_op_poly_density, {
        "polys": _polys, "x": _floats, "budget": (_count, 10 ** 5),
        "resolution": (_unit, 0.05), "t_span": (_float, 1e4)}, [
        *_on("system", "x"), ("params.polys", require_nonconstant, ("polys",)),
        ("system", require_torus, ("system",)),
        ("params.resolution", lambda sys, polys, resolution: require_cell_grid(
            resolution, len(polys) * sys.dim), ("system", "polys", "resolution"))]),
    "fiber-coverage": (_op_fiber_coverage, {
        "projection": str, "d": (_count, 1), "alphas": _alphas, "x": _floats,
        "budget": (_count, 10 ** 5), "resolution": (_unit, 0.05),
        "horizon": (_float, 1e4)}, [
        *_on("system", "x"),
        ("params.projection", require_projection, ("system", "projection")),
        ("params.alphas", require_arm_alphas, ("system", "d", "alphas")),
        ("params.resolution", lambda sys, projection, d, resolution: require_cell_grid(
            resolution, d * len(require_projection(sys, projection)[1])),
         ("system", "projection", "d", "resolution"))]),
    "suspend": (_op_suspend, {"times": _times, "x": _floats,
                              "resolution": (_unit, 0.05)}, [
        *_on("system", "x"), ("params.resolution", lambda base, resolution: require_cell_grid(
            resolution, base.dim), ("system", "resolution"))]),
    "susp-rp": (_op_susp_rp, {**_SEARCH, "x1": _floats, "x2": _floats,
                              "s1": _float, "s2": _float}, [
        *_on("system", "x1", "x2"), ("system", suspend, ("system",)), _FACES]),
    "average": (_op_average, {
        "observable": _observable, "alphas": _alphas, "t": (_float, None),
        "t_grid": (_times, ()), "n_samples": (_count, 2 * 10 ** 4)}, [
        _OBSERVABLE, _ALPHAS, ("params.t", _t_or_grid, ("t", "t_grid")),
        ("params.t_grid", require_increasing, ("t_grid",))]),
    "ud": (_op_ud, {"series": _series, "windows": _windows}, [
        ("params.windows", lambda series, windows: window_spans(series.grid, windows),
         ("series", "windows"))]),
    "density": (_op_density, {
        "time_grid": _times, "x": _floats, "center": _floats, "radius": _positive,
        "rho": _positive, "step": _positive, "horizon": (_float, None),
        "half_width": (_positive, 0.05)}, [
        *_on("system", "x", "center"),
        ("params.rho", lambda rho, time_grid, horizon: require_rho_within(
            rho, _horizon(time_grid, horizon)), ("rho", "time_grid", "horizon"))]),
    "potts": (_op_potts, {
        "polys": _polys, "observables": _observables, "R": _positive,
        "n_x": (_count, 4), "h": (_positive, None)}, [
        ("params.polys", require_nonconstant, ("polys",)),
        ("params.polys", require_independent, ("polys",)),
        ("params.observables", partial(require_one_per, "polys"), ("observables", "polys")),
        ("params.observables", require_rotation_factor, ("system", "observables"))]),
    "nilres": (_op_nilres, {
        "observable": _observable, "t_grid": _times, "alphas": _alphas,
        "n_samples": (_count, 10 ** 5), "windows": (_windows, ())}, [
        _OBSERVABLE, _ALPHAS, ("params.observable", require_exact_terms, ("observable", "alphas")),
        ("params.t_grid", require_increasing, ("t_grid",)),
        ("params.windows", window_spans, ("t_grid", "windows"))]),
    "embed": (_op_embed, {"gs": _elements, "alphas": _alphas}, [
        _ALPHAS, ("params.alphas", partial(require_one_per, "gs"), ("alphas", "gs")),
        ("params.gs", require_jstar_elements, ("gs",))]),
    "membership": (_op_membership, {
        "tuple": _elements, "alphas": _alphas, "tol": (_positive, 1e-10),
        "conjugate_by": (_element, None)}, [
        _ALPHAS, ("params.tuple", require_pair, ("tuple",)),
        ("params.alphas", require_pair, ("alphas",))]),
}
OPERATIONS = (*_TABLE, "validate")


def _parse_row(op: str, params: dict, handles: dict) -> tuple[list[str], dict]:
    """Diagnostics and typed parameters of one row, defaults filled in and
    each parameter its parser rejects left out; then the cross rules, each
    once every key it reads is there and no earlier rule rejected one (a
    failed rule rejects its parameters, or its systems if it reads none)."""
    _, spec, rules = _TABLE[op]
    diags = [f"params.{k}: unknown parameter" for k in params if k not in spec]
    p: dict = {}
    for key, entry in spec.items():
        parser = entry[0] if isinstance(entry, tuple) else entry
        if params.get(key) is not None:
            try:
                p[key] = parser(params[key])
            except SchemaError as e:
                diags.append(f"params.{key}: {e}")
            except _MALFORMED as e:
                diags.append(f"params.{key}: cannot parse {params[key]!r:.80} "
                             f"({type(e).__name__}: {e})")
        elif isinstance(entry, tuple):
            p[key] = entry[1]
        else:
            diags.append(f"params.{key}: missing")
    known, rejected = {**handles, **p}, set()
    for prefix, check, keys in rules:
        if any(k not in known or k in rejected for k in keys):
            continue
        try:
            check(*(known[k] for k in keys))
        except ValueError as e:  # other errors are bugs; a basis error exits 3
            basis_error = isinstance(e, UnsupportedBasisError)
            diags.append(f"{'UNSUPPORTED-BASIS' if basis_error else prefix}: {e}")
            rejected.update([k for k in keys if k in p] or keys)
    return diags, p


# expectation ops: (value at the path, expected value) -> pass
_EXPECT_OPS = {"eq": operator.eq, "le": operator.le, "ge": operator.ge,
               "true": lambda got, _: bool(got), "false": lambda got, _: not got}


def _parse(cfg: dict, seed: int | None = None) -> tuple[list[str], dict, list[dict]]:
    """(diagnostics, systems by config key, typed parameters per sweep row).

    The basis and the systems are built once per config, the parameters
    once per sweep row (once when there is no sweep).  A seed given here
    (the --seed flag) is checked in place of the config's.
    """
    if not isinstance(cfg, dict):
        return ["config: must be a JSON object"], {}, []
    op = cfg.get("operation")
    if op not in OPERATIONS:
        return [f"operation: unknown or missing ({op!r})"], {}, []
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        return ["params: must be an object"], {}, []
    diags: list[str] = []
    for key, value in cfg.items():
        # a parameter or a sweep field is named itself, anything else by its key
        named = [(f"{key}.{k}", v) for k, v in value.items()] \
            if key in ("params", "sweep") and isinstance(value, dict) else [(key, value)]
        diags += [f"{name}: must be finite, got {v!r:.80}"
                  for name, v in named if not _finite(v)]
    if diags:
        return diags, {}, []
    try:
        basis = build_basis(cfg)
    except _MALFORMED as e:
        return [f"basis: {e}"], {}, []
    if op == "validate":
        return [], {}, []

    try:
        _seed(cfg.get("seed", 0) if seed is None else seed)
    except SchemaError as e:
        diags.append(f"seed: {e}")
    expects = cfg.get("expect", [])
    if not isinstance(expects, list):
        diags.append(f"expect: must be a list, got {expects!r:.80}")
    for i, exp in enumerate(expects if isinstance(expects, list) else ()):
        # list(...): an op that is a JSON list is unhashable
        if not (isinstance(exp, dict) and isinstance(exp.get("path"), str)
                and exp.get("op", "eq") in list(_EXPECT_OPS)):
            diags.append(f"expect[{i}]: needs a string path and an op in "
                         f"{list(_EXPECT_OPS)}, got {exp!r:.80}")
    handles: dict[str, SystemHandle] = {}
    for key in ("system", "system_h") if op not in ("ud", "embed", "membership") else ():
        if key in cfg:
            try:
                handles[key] = build_system(cfg[key], basis, key)
            except FieldError as e:
                diags.append(str(e))
            except _MALFORMED as e:
                diags.append(f"{key}: {e}")
        elif key == "system":
            diags.append("system: missing")
        elif op in ("rp-transfer", "nd-compare"):
            diags.append("system_h: missing second action")

    spec = _TABLE[op][1]
    rows = [params]
    sweep = cfg.get("sweep")
    if sweep:
        path = sweep.get("param") if isinstance(sweep, dict) else None
        values = sweep.get("values") if isinstance(sweep, dict) else None
        if not (isinstance(path, str) and path.startswith("params.") and path[7:] in spec):
            diags.append(f"sweep.param: must be params.<name> for a parameter of {op}, "
                         f"got {path!r}")
        elif not (isinstance(values, list) and values):
            diags.append(f"sweep.values: must be a nonempty list, got {values!r}")
        else:
            rows = [{**params, path[7:]: v} for v in values]
    parsed = [_parse_row(op, row, handles) for row in rows]
    diags += [d for row_diags, _ in parsed for d in row_diags]
    return list(dict.fromkeys(diags)), handles, [p for _, p in parsed]


def validate_config(cfg: dict, seed: int | None = None) -> list[str]:
    """All schema and semantic problems, without executing the operation."""
    return _parse(cfg, seed)[0]


# ---------------------------------------------------------------------------
# run orchestration

def _checked_counts(obj):
    """The candidate count of every search in a nested result payload."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == "checked" and isinstance(v, (int, float)):
                yield int(v)
            else:
                yield from _checked_counts(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _checked_counts(v)


def _lookup(result: dict, path: str):
    cur: Any = result
    for part in path.split("."):
        cur = cur[int(part)] if isinstance(cur, list) else cur[part]
    return cur


def _check_expectations(result: dict, expects: list[dict]) -> bool:
    for exp in expects:
        try:  # a path the result lacks, or a value it cannot compare with, fails
            if not _EXPECT_OPS[exp.get("op", "eq")](_lookup(result, exp["path"]),
                                                    exp.get("value")):
                return False
        except _MALFORMED:
            return False
    return True


def run_validate(cfg: dict, seed: int | None = None) -> dict:
    """The validate operation: diagnostics as data, never an error exit."""
    diags = validate_config(cfg, seed)
    if seed is None:
        seed = cfg.get("seed", 0) if isinstance(cfg, dict) else 0
    return {"operation": "validate", "result": {"diagnostics": diags},
            "artifacts": {}, "seed": seed}


def run(cfg: dict, seed: int | None = None, out_path: Path | None = None) -> dict:
    """Dispatch one operation (or a sweep) and assemble the run report."""
    op = cfg.get("operation") if isinstance(cfg, dict) else None
    if op == "validate":
        return run_validate(cfg, seed)
    diags, handles, rows = _parse(cfg, seed)
    if diags:
        basis_diags = [d for d in diags if "UNSUPPORTED-BASIS" in d]
        if basis_diags:
            raise UnsupportedBasisError("; ".join(basis_diags))
        raise SchemaError("; ".join(diags))
    eff_seed = int(seed if seed is not None else cfg.get("seed", 0))
    start = time.perf_counter()
    sweep = cfg.get("sweep")
    # a sweep writes and reports no artifacts: each row would overwrite the last one's files
    ctx = RunContext(handles.get("system_h"), eff_seed, None if sweep else out_path)
    results = [_TABLE[op][0](p, handles.get("system"), ctx) for p in rows]
    result = results[0]
    if sweep:
        result = {"sweep_param": sweep["param"],
                  "rows": [{"value": v, "result": r} for v, r in zip(sweep["values"], results)]}
    counts = list(_checked_counts(result))
    report = {
        "operation": op,
        "seed": eff_seed,
        "config": {k: v for k, v in cfg.items() if k != "expect"},
        "result": result,
        "artifacts": {} if sweep else ctx.artifacts,
        "budget_consumed": sum(counts) if counts else None,
        "wall_time_s": time.perf_counter() - start,
    }
    if "expect" in cfg:
        checked = [r["result"] for r in result["rows"]] if sweep else [report["result"]]
        report["pass"] = all(_check_expectations(r, cfg["expect"]) for r in checked)
    return report


def _numpy_scalar(obj):
    """json's default hook: a numpy scalar (a config may hold np.int64
    coordinates) as its Python value; any other type stays an error."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def report_json(report: dict) -> str:
    """The report as strict JSON on one line, with no spaces: floats in
    Python's shortest round-trip form, and a NaN or an infinity raises
    ValueError.  Without indent, json.dumps runs its C encoder."""
    # wall time sits outside the deterministic payload
    body = {k: v for k, v in report.items() if k != "wall_time_s"}
    return json.dumps({"payload": body, "wall_time_s": report.get("wall_time_s")},
                      sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_numpy_scalar)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nilflow",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in OPERATIONS + ("run",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=_sys.stderr)
        return EXIT_SCHEMA
    if not isinstance(cfg, dict):
        print(f"config error: must be a JSON object, got {cfg!r:.80}", file=_sys.stderr)
        return EXIT_SCHEMA
    if args.command not in ("run", "validate"):
        cfg["operation"] = args.command

    out_path = Path(args.out) if args.out else None
    try:
        if args.command == "validate":
            report = run_validate(cfg, args.seed)
        else:
            report = run(cfg, args.seed, out_path)
        rendered = report_json(report)
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

    if out_path is not None:
        out_path.write_text(rendered)
    else:
        print(rendered)
    if report.get("pass") is False:
        return EXIT_EXPECT_FAIL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
