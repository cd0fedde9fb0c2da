"""Per-op correctness oracles.

``check(op, result)`` returns None when the op's answer holds, else the
reason it does not.  Each check is independent of the code path that
produced the answer: witnesses are re-verified, rotation absence claims
are tested against an explicit witness construction, exact decisions are
compared with closed forms, and probes with an acceptance bound must meet
it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from nilflow.cli import build_basis, build_system
from nilflow.proximality import RPWitness, rp_witness_verify

from workloads import embed_component

def _system(cfg: dict, key: str = "system"):
    return build_system(cfg[key], build_basis(cfg))


def absence_counterexample(sysh, x, y, d: int, delta: float) -> bool:
    """Does moving x and y toward each other by a third of their gap, with
    g = (1,) * d, give a witness?  On a rotation it does whenever the gap
    is below 3 delta, so a proven-absent claim there is wrong."""
    cx, cy = sysh.coords(x), sysh.coords(y)
    diff = [((b - a + 0.5) % 1.0) - 0.5 for a, b in zip(cx, cy)]
    xp = sysh.from_coords([a + v / 3.0 for a, v in zip(cx, diff)])
    yp = sysh.from_coords([b - v / 3.0 for b, v in zip(cy, diff)])
    return rp_witness_verify(sysh, x, y, RPWitness(xp, yp, (1,) * d, delta), delta)


def search_verdict(sysh, x, y, d: int, delta: float, budget: int, res: dict) -> str | None:
    """Check one search result against what its status claims."""
    status = res["status"]
    if status == "witness":
        w = res["witness"]
        witness = RPWitness(sysh.from_coords(w["x_prime"]), sysh.from_coords(w["y_prime"]),
                            tuple(w["g"]), delta)
        if not rp_witness_verify(sysh, x, y, witness, delta):
            return "witness does not re-verify"
        return None
    if status == "proven-absent":
        if sysh.is_isometric and absence_counterexample(sysh, x, y, d, delta):
            return "proven-absent, yet the one-third construction verifies"
        return None
    if status == "exhausted":
        if res["checked"] != budget:
            return f"exhausted after {res['checked']} of {budget} candidates"
        return None
    return f"unknown status {status!r}"


def _rp_certify(op, res) -> str | None:
    p = op.cfg["params"]
    sysh = _system(op.cfg)
    want = op.expect.get("status")
    if want and res["status"] != want:
        return f"status {res['status']}, expected {want}"
    return search_verdict(sysh, sysh.from_coords(p["x"]), sysh.from_coords(p["y"]),
                          p["d"], p["delta"], p["budget"], res)


def _rp_transfer(op, res) -> str | None:
    p = op.cfg["params"]
    sys_g, sys_h = _system(op.cfg), _system(op.cfg, "system_h")
    x, y = sys_g.from_coords(p["x"]), sys_g.from_coords(p["y"])
    found = res["witness_g"]
    if found["status"] != "witness" or "transfer" not in res:
        return f"no witness to transfer ({found['status']})"
    bad = search_verdict(sys_g, x, y, p["d"], p["delta"], p["budget"], found)
    if bad:
        return "witness_g: " + bad
    tr = res["transfer"]
    if tr["status"] != "witness":
        return f"transfer {tr['status']}"
    return search_verdict(sys_h, x, y, p["d"], 3 * p["delta"], p["budget"], tr)


def _susp_rp(op, res) -> str | None:
    if res["height_gap_integral"] != op.expect["integral"]:
        return "height gap misclassified"
    if not res["agreement"]:
        return (f"forward {res['forward_status']} disagrees with "
                f"backward {res['backward_status']}")
    return None


def _clouds(op, res) -> str | None:
    d = op.cfg["params"]["d"]
    arity = 2 ** d if op.cfg["operation"] == "cube" else d
    for key in ("cloud_g", "cloud_h"):
        if res[key]["n"] != op.expect["n"] or res[key]["arity"] != arity:
            return f"{key} has {res[key]['n']} x {res[key]['arity']} points"
    h = res["hausdorff"]
    if not 0.0 <= h <= math.sqrt(3.0):
        return f"Hausdorff distance {h} out of range"
    bound = op.expect.get("hausdorff_max")
    if bound is not None and h > bound:
        return f"Hausdorff distance {h:.4f} > {bound}"
    return None


def _coverage(op, res) -> str | None:
    cov = res["coverage"]
    if not 0.0 < cov <= 1.0:
        return f"coverage {cov} out of range"
    bound = op.expect.get("coverage_min")
    if bound is not None and cov < bound:
        return f"coverage {cov:.3f} < {bound}"
    return None


def _potts(op, res) -> str | None:
    p = op.cfg["params"]
    if res["n_x"] != p["n_x"] or res["n_time"] < p["R"] / res["time_step"]:
        return f"{res['n_x']} x {res['n_time']} nodes for R = {p['R']}"
    if abs(math.hypot(res["deviation_re"], res["deviation_im"]) - res["abs_deviation"]) > 1e-12:
        return "abs_deviation disagrees with its components"
    bound = op.expect.get("abs_deviation_max")
    if bound is not None and res["abs_deviation"] > bound:
        return f"|deviation| {res['abs_deviation']:.4f} > {bound}"
    return None


def _grid(spec: dict) -> np.ndarray:
    return np.arange(float(spec["start"]), float(spec["stop"]) + 1e-12, float(spec["step"]))


def _average(op, res) -> str | None:
    """I_f(k, t) for cos(2 pi x) on the unit-speed circle flow, by a
    64-node rectangle rule, which is exact for these trig polynomials."""
    p = op.cfg["params"]
    t = _grid(p["t_grid"])
    if not res["exact"] or res["n_points"] != len(t):
        return "not exact, or wrong grid length"
    nodes = np.arange(64) / 64.0
    prod = np.broadcast_to(np.cos(2 * np.pi * nodes), (len(t), 64)).copy()
    for a in p["alphas"]:
        prod *= np.cos(2 * np.pi * (nodes[None, :] + a * t[:, None]))
    want = float(np.abs(prod.mean(axis=1)).max())
    if abs(res["max_abs"] - want) > 1e-9:
        return f"max |I| {res['max_abs']!r}, quadrature gives {want!r}"
    return None


def _nilres(op, res) -> str | None:
    if "ud_sup_max" in op.expect:
        if not res["exact_sampling"] or res["ud_sup"] > op.expect["ud_sup_max"]:
            return f"torus residual ud_sup {res['ud_sup']:.2e}"
        return None
    if res["exact_sampling"]:
        return "Heisenberg residual claims exact sampling"
    if op.expect["within_3_stderr"] and not res["within_3_stderr"]:
        return "Heisenberg residual outside 3 stderr"
    return None


def _minimal(op, res) -> str | None:
    if res["minimal"] != op.expect["minimal"]:
        return f"minimal {res['minimal']}, expected {op.expect['minimal']}"
    if res["minimal"]:
        return None
    # the dependence certificate must annihilate the frequencies exactly
    total: dict[str, Fraction] = {}
    for q, f in zip(res["certificate"], op.cfg["system"]["freqs"]):
        for sym, c in f.items():
            total[sym] = total.get(sym, Fraction(0)) + Fraction(q) * Fraction(c)
    if any(total.values()) or not any(Fraction(q) for q in res["certificate"]):
        return "dependence certificate does not vanish"
    return None


def _exceptional(op, res) -> str | None:
    want = op.expect["minimal"]
    got = [r["result"]["minimal"] for r in res["rows"]] if "rows" in res else res["minimal"]
    if got != want:
        return "minimality disagrees with the closed form"
    return None


def _density(op, res) -> str | None:
    """Return-time count of the rotation by sqrt2, recounted in closed form."""
    p = op.cfg["params"]
    t = _grid(p["time_grid"])
    pos = (p["x"][0] + t * math.sqrt(2.0)) % 1.0
    gap = np.abs(pos - p["center"][0]) % 1.0
    gap = np.minimum(gap, 1.0 - gap)
    lo = int(np.sum(gap < p["radius"] - 1e-9))
    hi = int(np.sum(gap < p["radius"] + 1e-9))
    if not lo <= res["n_hits"] <= hi:
        return f"{res['n_hits']} hits, expected {lo}..{hi}"
    if not 0.0 <= res["lower"] <= res["upper"] <= 1.0:
        return f"density bounds {res['lower']}, {res['upper']}"
    return None


def _ud(op, res) -> str | None:
    series = op.cfg["params"]["series"]
    g = np.asarray(series["grid"])
    v = np.abs(np.asarray(series["values"]))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))])
    for (sigma, rho), row in zip(op.cfg["params"]["windows"], res["table"]):
        lo = int(np.searchsorted(g, sigma - 1e-12, side="left"))
        hi = int(np.searchsorted(g, sigma + rho + 1e-12, side="right")) - 1
        want = (cum[hi] - cum[lo]) / rho
        if abs(row["avg"] - want) > 1e-9 * max(1.0, abs(want)):
            return f"window ({sigma}, {rho}) average {row['avg']!r}, expected {want!r}"
    if res["sup"] != max(row["avg"] for row in res["table"]):
        return "sup is not the largest window average"
    return None


def _embed(op, res) -> str | None:
    g1, g2 = op.cfg["params"]["gs"]
    for a, comp in zip(op.cfg["params"]["alphas"], res["components"]):
        want = embed_component(g1, g2, a)
        if max(abs(u - w) for u, w in zip(comp, want)) > 1e-9:
            return f"component for alpha {a} is {comp}, closed form {list(want)}"
    return None


def _membership(op, res) -> str | None:
    if res["member"] != op.expect["member"]:
        return f"member {res['member']}, expected {op.expect['member']}"
    if not res["member"]:
        return None
    gap = max(abs(u - w) for got, want in zip(res["preimage"], op.expect["preimage"])
              for u, w in zip(got, want))
    if gap > 1e-9:
        return f"preimage off by {gap:.2e}"
    if not res.get("conjugation_closed"):
        return "membership not closed under conjugation"
    return None


_CHECKS = {
    "rp-certify": _rp_certify, "rp-transfer": _rp_transfer, "susp-rp": _susp_rp,
    "cube": _clouds, "nd-compare": _clouds, "poly-density": _coverage,
    "suspend": _coverage, "fiber-coverage": _coverage, "potts": _potts,
    "average": _average, "nilres": _nilres, "minimal": _minimal,
    "exceptional": _exceptional, "density": _density, "ud": _ud,
    "embed": _embed, "membership": _membership,
}


def check(op, result: dict) -> str | None:
    """None when the op's answer holds, else why it does not."""
    return _CHECKS[op.cfg["operation"]](op, result)
