"""Explicit computable dynamical systems.

Torus flows and their time-t maps, the 3-dimensional Heisenberg
nilmanifold with its nilflow and time-t nilsystems, quotient metrics,
orbit sampling, and the exact minimality tests that reduce to rational
independence of the frequency data.

Conventions: torus points live in [0, 1)^n; Heisenberg elements carry
Malcev coordinates (x, y, z) with group law
(x, y, z) * (x', y', z') = (x + x', y + y', z + z' + x * y'),
and the lattice is the subgroup of integer triples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .algebra import (Basis, IndependenceResult, SymbolicReal,
                      rationally_independent)

TORUS_FLOW = "torus-flow"
TORUS_MAP = "torus-map"
HEIS_NILFLOW = "heisenberg-nilflow"
HEIS_NILSYSTEM = "heisenberg-nilsystem"
SUSPENSION = "suspension"


# ---------------------------------------------------------------------------
# points

def wrap_unit(v: float) -> float:
    """Reduce to [0, 1); float % can return exactly 1.0 for tiny negatives."""
    w = v % 1.0
    return 0.0 if w >= 1.0 else w


@dataclass(frozen=True)
class TorusPoint:
    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(wrap_unit(c) for c in self.coords))


@dataclass(frozen=True)
class HeisenbergElement:
    x: float
    y: float
    z: float

    @property
    def coords(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.x, -self.y, -self.z + self.x * self.y)


HEIS_IDENTITY = HeisenbergElement(0.0, 0.0, 0.0)


def heis_multiply(a: HeisenbergElement, b: HeisenbergElement) -> HeisenbergElement:
    return HeisenbergElement(a.x + b.x, a.y + b.y, a.z + b.z + a.x * b.y)


def heis_power(a: HeisenbergElement, t: float) -> HeisenbergElement:
    """One-parameter power a^t; matches iterated multiplication at integer t."""
    return HeisenbergElement(t * a.x, t * a.y,
                             t * a.z + 0.5 * t * (t - 1.0) * a.x * a.y)


def heis_conjugate(h: HeisenbergElement, a: HeisenbergElement) -> HeisenbergElement:
    """h * a * h^-1; shifts the center by the commutator term."""
    return HeisenbergElement(a.x, a.y, a.z + h.x * a.y - h.y * a.x)


def heis_conjugate_power_identity(a: HeisenbergElement, h: HeisenbergElement,
                                  t: float) -> float:
    """Max coordinate gap between h a^t h^-1 and (h a h^-1)^t (should be ~0)."""
    lhs = heis_conjugate(h, heis_power(a, t))
    rhs = heis_power(heis_conjugate(h, a), t)
    return max(abs(u - v) for u, v in zip(lhs.coords, rhs.coords))


def heis_reduce(g: HeisenbergElement) -> tuple[HeisenbergElement, HeisenbergElement]:
    """Canonical coset representative in [0,1)^3 and the lattice element used.

    Deterministic order: x first, then y, then the forced central integer.
    Returns (canonical, gamma) with canonical = g * gamma and gamma integral.
    """
    m = -math.floor(g.x)
    n = -math.floor(g.y)
    z_shifted = g.z + g.x * n
    k = -math.floor(z_shifted)
    gamma = HeisenbergElement(float(m), float(n), float(k))
    canonical = heis_multiply(g, gamma)
    return HeisenbergElement(wrap_unit(canonical.x), wrap_unit(canonical.y),
                             wrap_unit(canonical.z)), gamma


# ---------------------------------------------------------------------------
# system specs

@dataclass(frozen=True)
class TorusFlowSpec:
    freqs: tuple[SymbolicReal, ...]
    float_freqs: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.freqs)


@dataclass(frozen=True)
class TorusMapSpec:
    flow: TorusFlowSpec
    step: float = 1.0
    step_symbolic: SymbolicReal | None = None


@dataclass(frozen=True)
class NilflowSpec:
    generator: HeisenbergElement
    shadow: tuple[SymbolicReal, SymbolicReal] | None = None


@dataclass(frozen=True)
class NilsystemSpec:
    flow: NilflowSpec
    step: float = 1.0
    step_symbolic: SymbolicReal | None = None


@dataclass(frozen=True)
class SuspensionSpec:
    base: "SystemHandle"


class SystemHandle:
    """Tagged handle for one supported system; exposes evolve and dist.

    ``discrete`` systems take integer group elements (map iterates),
    flows take real times.  ``is_isometric`` marks systems whose action
    provably preserves the metric (torus rotations/flows), which the
    proximality search uses as a certified no-witness oracle.
    """

    def __init__(self, tag: str, spec):
        if tag not in (TORUS_FLOW, TORUS_MAP, HEIS_NILFLOW, HEIS_NILSYSTEM, SUSPENSION):
            raise ValueError(f"unknown system tag {tag!r}")
        self.tag = tag
        self.spec = spec

    # -- structural attributes -------------------------------------------
    @property
    def discrete(self) -> bool:
        return self.tag in (TORUS_MAP, HEIS_NILSYSTEM)

    @property
    def is_isometric(self) -> bool:
        return self.tag in (TORUS_FLOW, TORUS_MAP)

    @property
    def dim(self) -> int:
        if self.tag in (TORUS_FLOW, TORUS_MAP):
            return self._flow_spec().dim
        if self.tag in (HEIS_NILFLOW, HEIS_NILSYSTEM):
            return 3
        return self.spec.base.dim + 1

    def _flow_spec(self):
        return self.spec.flow if self.tag in (TORUS_MAP, HEIS_NILSYSTEM) else self.spec

    # -- dynamics ---------------------------------------------------------
    def evolve(self, p, t: float):
        if self.tag == TORUS_FLOW:
            return torus_evolve(self.spec, p, t)
        if self.tag == TORUS_MAP:
            return torus_evolve(self.spec.flow, p, t * self.spec.step)
        if self.tag == HEIS_NILFLOW:
            return nil_evolve(self.spec, p, t)
        if self.tag == HEIS_NILSYSTEM:
            return nil_evolve(self.spec.flow, p, t * self.spec.step)
        from .suspension import susp_evolve
        return susp_evolve(self.spec.base, p, t)

    def dist(self, p, q) -> float:
        return metric_dist(self, p, q)

    # -- coordinate plumbing ----------------------------------------------
    def coords(self, p) -> tuple[float, ...]:
        if self.tag in (TORUS_FLOW, TORUS_MAP):
            return p.coords
        if self.tag in (HEIS_NILFLOW, HEIS_NILSYSTEM):
            return p.coords
        return self.spec.base.coords(p.base) + (p.s,)

    def from_coords(self, c: Sequence[float]):
        if self.tag in (TORUS_FLOW, TORUS_MAP):
            return TorusPoint(tuple(c))
        if self.tag in (HEIS_NILFLOW, HEIS_NILSYSTEM):
            canonical, _ = heis_reduce(HeisenbergElement(c[0], c[1], c[2]))
            return canonical
        from .suspension import susp_canonical
        base = self.spec.base.from_coords(c[:-1])
        return susp_canonical(self.spec.base, base, c[-1])

    def origin(self):
        return self.from_coords((0.0,) * self.dim)

    def describe(self) -> dict:
        out = {"tag": self.tag}
        if self.tag in (TORUS_FLOW, TORUS_MAP):
            out["freqs"] = [float(f) for f in self._flow_spec().float_freqs]
        if self.tag in (HEIS_NILFLOW, HEIS_NILSYSTEM):
            out["generator"] = list(self._flow_spec().generator.coords)
        if self.tag in (TORUS_MAP, HEIS_NILSYSTEM):
            out["step"] = self.spec.step
        if self.tag == SUSPENSION:
            out["base"] = self.spec.base.describe()
        return out

    def __repr__(self):
        return f"SystemHandle({self.tag})"


# ---------------------------------------------------------------------------
# constructors

def torus_flow(freqs: Sequence[SymbolicReal], basis: Basis) -> SystemHandle:
    if not freqs:
        raise ValueError("torus flow needs at least one frequency")
    spec = TorusFlowSpec(tuple(freqs), tuple(basis.to_float(f) for f in freqs))
    return SystemHandle(TORUS_FLOW, spec)


def torus_map(flow: SystemHandle, step: float = 1.0,
              step_symbolic: SymbolicReal | None = None) -> SystemHandle:
    if flow.tag != TORUS_FLOW:
        raise ValueError("torus_map wraps a torus flow")
    return SystemHandle(TORUS_MAP, TorusMapSpec(flow.spec, step, step_symbolic))


def torus_rotation(alpha: SymbolicReal, basis: Basis) -> SystemHandle:
    """The rotation x -> x + alpha on T^1 as the time-1 map of its flow."""
    return torus_map(torus_flow((alpha,), basis), 1.0)


def heisenberg_nilflow(alpha: SymbolicReal, beta: SymbolicReal, basis: Basis,
                       z: float = 0.0) -> SystemHandle:
    gen = HeisenbergElement(basis.to_float(alpha), basis.to_float(beta), z)
    return SystemHandle(HEIS_NILFLOW, NilflowSpec(gen, (alpha, beta)))


def heisenberg_nilsystem(nilflow: SystemHandle, step: float = 1.0,
                         step_symbolic: SymbolicReal | None = None) -> SystemHandle:
    if nilflow.tag != HEIS_NILFLOW:
        raise ValueError("heisenberg_nilsystem wraps a heisenberg nilflow")
    return SystemHandle(HEIS_NILSYSTEM, NilsystemSpec(nilflow.spec, step, step_symbolic))


# ---------------------------------------------------------------------------
# evolution

def torus_evolve(spec: TorusFlowSpec, p: TorusPoint, t: float) -> TorusPoint:
    if len(p.coords) != spec.dim:
        raise ValueError("dimension mismatch")
    return TorusPoint(tuple((c + w * t) % 1.0 for c, w in zip(p.coords, spec.float_freqs)))


def nil_evolve(spec: NilflowSpec, p: HeisenbergElement, t: float) -> HeisenbergElement:
    """Canonical form of (a^t * p) Gamma, in dyadic integer arithmetic.

    The raw central coordinate grows like t^2, so float evaluation would
    lose the flow law at |t| ~ 1e3.  Each float input is n / 2^e; scaled
    to one denominator 2^E, x and y become ints over 2^(2E) and z over
    2^(4E+1).  Floors are shifts, and each coordinate is rounded once, by
    the correctly rounded int / int division.
    """
    a = spec.generator
    ratios = [v.as_integer_ratio() if isinstance(v, float) else (operator.index(v), 1)
              for v in (t, a.x, a.y, a.z, p.x, p.y, p.z)]
    e = max(den for _, den in ratios).bit_length() - 1
    tt, ax, ay, az, px, py, pz = (num << e - den.bit_length() + 1 for num, den in ratios)
    rx, ry = tt * ax + (px << e), tt * ay + (py << e)
    n = -(ry >> 2 * e)
    rz = (tt * ((az << 2 * e + 1) + (tt - (1 << e)) * ax * ay + (ax * py << e + 1))
          + (pz << 3 * e + 1) + (rx * n << 2 * e + 1))
    xy_mask, z_mask = (1 << 2 * e) - 1, (1 << 4 * e + 1) - 1
    return HeisenbergElement(wrap_unit((rx & xy_mask) / (xy_mask + 1)),
                             wrap_unit((ry & xy_mask) / (xy_mask + 1)),
                             wrap_unit((rz & z_mask) / (z_mask + 1)))


# ---------------------------------------------------------------------------
# metrics

def circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


_WINDOW = (-2.0, -1.0, 0.0, 1.0, 2.0)


def _heis_window_gap(p: HeisenbergElement, q: HeisenbergElement) -> float:
    """Least Euclidean gap from p to q * (m, n, k) over m, n, k in _WINDOW.

    The squared gap is (dx(m)^2 + dy(n)^2) + dz(n, k)^2; float + and sqrt
    are monotone, so minimising term by term equals the 125-translate
    minimum bit for bit."""
    bx = min((p.x - (q.x + m)) ** 2 for m in _WINDOW)
    return math.sqrt(min((bx + (p.y - (q.y + n)) ** 2)
                         + min((p.z - ((q.z + k) + q.x * n)) ** 2 for k in _WINDOW)
                         for n in _WINDOW))


def metric_dist(sys: SystemHandle, p, q) -> float:
    """Quotient metric realization: torus max-circle metric, suspension
    chart metric, Heisenberg least Euclidean gap over the 5x5x5 lattice
    window in both directions, minimised separably (_heis_window_gap)."""
    if sys.tag in (TORUS_FLOW, TORUS_MAP):
        if len(p.coords) != len(q.coords):
            raise ValueError("mismatched systems")
        return max(circle_dist(a, b) for a, b in zip(p.coords, q.coords))
    if sys.tag in (HEIS_NILFLOW, HEIS_NILSYSTEM):
        return min(_heis_window_gap(p, q), _heis_window_gap(q, p))
    from .suspension import susp_metric
    return susp_metric(sys.spec.base, p, q)


# ---------------------------------------------------------------------------
# minimality

def flow_minimal(sys: SystemHandle) -> bool:
    """Kronecker-Weyl minimality of the flow, decided exactly.

    Torus flows are minimal iff the frequencies are rationally
    independent; the Heisenberg nilflow reduces to its maximal
    equicontinuous factor, the base 2-torus with frequencies (alpha, beta).
    """
    return flow_minimal_result(sys).independent


def flow_minimal_result(sys: SystemHandle) -> IndependenceResult:
    if sys.tag == TORUS_FLOW:
        return rationally_independent(list(sys.spec.freqs))
    if sys.tag == HEIS_NILFLOW:
        if sys.spec.shadow is None:
            raise ValueError("nilflow lacks an exact frequency shadow")
        return rationally_independent(list(sys.spec.shadow))
    raise ValueError("flow_minimal applies to torus flows and Heisenberg nilflows")


def time_t_minimal(sys: SystemHandle, t: SymbolicReal, basis: Basis) -> bool:
    """Minimality of the time-t map, decided exactly.

    The discrete system is minimal iff (1, x_1 t, ..., x_n t) are
    rationally independent; symbol products that leave the declared basis
    raise UnsupportedBasisError rather than falling back to floats.
    """
    if t.is_zero:
        raise ValueError("t must be nonzero")
    if sys.tag == TORUS_FLOW:
        freqs = list(sys.spec.freqs)
    elif sys.tag == HEIS_NILFLOW:
        if sys.spec.shadow is None:
            raise ValueError("nilflow lacks an exact frequency shadow")
        freqs = list(sys.spec.shadow)
    else:
        raise ValueError("time_t_minimal applies to torus flows and Heisenberg nilflows")
    vals = [SymbolicReal.rational(1)]
    vals.extend(basis.multiply(f, t) for f in freqs)
    return rationally_independent(vals).independent


# ---------------------------------------------------------------------------
# orbit sampling

def orbit_sample(sys: SystemHandle, x, times: Sequence[float], seed: int = 0):
    """Deterministic arity-1 cloud of evolve(x, t) over the given times."""
    from .proximality import PointCloud
    import numpy as np
    pts = np.empty((len(times), 1, sys.dim))
    for i, t in enumerate(times):
        pts[i, 0, :] = sys.coords(sys.evolve(x, t))
    meta = {"generator": "orbit_sample", "budget": len(times), "seed": seed,
            "base_point": list(sys.coords(x))}
    return PointCloud(points=pts, system_tag=sys.tag, arity=1, meta=meta)
