"""Explicit computable dynamical systems.

A system is a SystemHandle(spec, step=None): the frozen spec of an R-flow
(TorusFlowSpec, NilflowSpec, suspension.SuspensionSpec), or with a step
the flow's time-step map.  Besides dim, evolve, dist, coords and
from_coords a spec declares its tags (kind as a flow and as a time-t
map), the search grid pitch, freqs and float_freqs (exact and float
frequencies of its rotation factor, None where it has none), projections
(fiber name -> constrained and free coordinates) and factor_gaps (the
gaps between two points on every isometric factor it has, itself
included when it is one).  Only the specs tell kinds apart.  From
float_freqs the handle derives phase_step and rotate, the one code that
moves rotation-factor phases, and is_isometric; its from_coords is the
one check of a point's coordinate count.
Also here: the Heisenberg group law and its one evolution, nil_evolve,
lattice reduction, quotient metrics, and the exact minimality tests by
rational independence of the frequencies.

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

import numpy as np

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


# ---------------------------------------------------------------------------
# system specs (the protocol is in the module docstring) and the handle

@dataclass(frozen=True)
class TorusFlowSpec:
    """The linear flow x -> x + t * freqs on the torus T^dim."""

    freqs: tuple[SymbolicReal, ...]
    float_freqs: tuple[float, ...]

    tags = (TORUS_FLOW, TORUS_MAP)
    pitch = 0.25

    @property
    def dim(self) -> int:
        return len(self.freqs)

    @property
    def projections(self) -> dict:
        if self.dim < 2:
            return {}
        return {"torus-coord-0": ((0,), tuple(range(1, self.dim)))}

    evolve = torus_evolve

    def dist(self, p: TorusPoint, q: TorusPoint) -> float:
        """Max circle distance over the coordinates."""
        if len(p.coords) != len(q.coords):
            raise ValueError("mismatched systems")
        return max(circle_dist(a, b) for a, b in zip(p.coords, q.coords))

    def coords(self, p: TorusPoint) -> tuple[float, ...]:
        return p.coords

    def from_coords(self, c: Sequence[float]) -> TorusPoint:
        return TorusPoint(tuple(c))

    def factor_gaps(self, p, q):
        """The torus itself: its translations are isometries."""
        yield self.dist(p, q)


@dataclass(frozen=True)
class NilflowSpec:
    """The nilflow x Gamma -> a^t x Gamma on the Heisenberg nilmanifold.  Its
    rotation factor is the base 2-torus, rotated by (a.x, a.y); shadow holds
    the exact values of those two frequencies."""

    generator: HeisenbergElement
    shadow: tuple[SymbolicReal, SymbolicReal] | None = None

    tags = (HEIS_NILFLOW, HEIS_NILSYSTEM)
    pitch = 0.25
    dim = 3
    projections = {"heisenberg-base": ((0, 1), (2,))}

    @property
    def freqs(self) -> tuple[SymbolicReal, SymbolicReal]:
        if self.shadow is None:
            raise ValueError("nilflow lacks an exact frequency shadow")
        return self.shadow

    @property
    def float_freqs(self) -> tuple[float, float]:
        return (self.generator.x, self.generator.y)

    evolve = nil_evolve

    def dist(self, p: HeisenbergElement, q: HeisenbergElement) -> float:
        """Least Euclidean gap over the 5x5x5 lattice window, both ways."""
        return min(_heis_window_gap(p, q), _heis_window_gap(q, p))

    def coords(self, p: HeisenbergElement) -> tuple[float, float, float]:
        return p.coords

    def from_coords(self, c: Sequence[float]) -> HeisenbergElement:
        return heis_reduce(HeisenbergElement(c[0], c[1], c[2]))[0]

    def factor_gaps(self, p, q) -> tuple:
        return ()  # the base 2-torus is not declared as a factor yet


@dataclass(frozen=True)
class SystemHandle:
    """A flow, given by its spec, or its time-step map when step is set.
    Maps (``discrete``) take integer group elements, flows real times;
    ``tag`` names the kind in reports."""

    spec: object
    step: float | None = None

    def __post_init__(self):
        if self.tag is None:
            raise ValueError(f"{self.spec.tags[0]} has no time-t map")

    @property
    def tag(self) -> str:
        return self.spec.tags[self.step is not None]

    @property
    def discrete(self) -> bool:
        return self.step is not None

    @property
    def is_isometric(self) -> bool:
        """Is the system its own rotation factor (torus flows and maps)?"""
        return len(self.phase_step) == self.dim

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def phase_step(self) -> np.ndarray:
        """Translation of the rotation factor per unit time or step.  The
        factor is the leading len(phase_step) coordinates of a point: all of
        them on a torus, (x, y) on the Heisenberg nilmanifold, none (an
        empty step) on a suspension."""
        omega = np.array(self.spec.float_freqs or (), dtype=float)
        return omega if self.step is None else omega * self.step

    def rotate(self, phases, s) -> np.ndarray:
        """Phases moved by s * phase_step mod 1; the step is the outer product
        of shape s.shape + (dim,), broadcast against the phases."""
        return (phases + np.multiply.outer(s, self.phase_step)) % 1.0

    def evolve(self, p, t: float):
        return self.spec.evolve(p, t if self.step is None else t * self.step)

    def dist(self, p, q) -> float:
        return self.spec.dist(p, q)

    def coords(self, p) -> tuple[float, ...]:
        return self.spec.coords(p)

    def from_coords(self, c: Sequence[float]):
        """The point with coordinates c; ValueError unless there are dim."""
        if len(c) != self.dim:
            raise ValueError(f"needs {self.dim} coordinates, got {list(c)}")
        return self.spec.from_coords(c)

    def origin(self):
        return self.from_coords((0.0,) * self.dim)

    def orbit_coords(self, x, ts) -> np.ndarray:
        """Rows coords(evolve(x, t)) over the times ts.  An isometric system
        is its own rotation factor: closed form by rotate, equal to the
        scalar path up to rounding.  Others run the exact scalar evolution."""
        if self.is_isometric:
            return self.rotate(np.array(self.coords(x)), ts)
        out = np.empty((len(ts), self.dim))
        for i, t in enumerate(ts):
            out[i] = self.coords(self.evolve(x, float(t)))
        return out


# ---------------------------------------------------------------------------
# constructors

def torus_flow(freqs: Sequence[SymbolicReal], basis: Basis) -> SystemHandle:
    if not freqs:
        raise ValueError("torus flow needs at least one frequency")
    return SystemHandle(TorusFlowSpec(tuple(freqs), tuple(basis.to_float(f) for f in freqs)))


def torus_map(flow: SystemHandle, step: float = 1.0) -> SystemHandle:
    if flow.tag != TORUS_FLOW:
        raise ValueError("torus_map wraps a torus flow")
    return SystemHandle(flow.spec, step)


def torus_rotation(alpha: SymbolicReal, basis: Basis) -> SystemHandle:
    """The rotation x -> x + alpha on T^1 as the time-1 map of its flow."""
    return torus_map(torus_flow((alpha,), basis), 1.0)


def heisenberg_nilflow(alpha: SymbolicReal, beta: SymbolicReal, basis: Basis,
                       z: float = 0.0) -> SystemHandle:
    gen = HeisenbergElement(basis.to_float(alpha), basis.to_float(beta), z)
    return SystemHandle(NilflowSpec(gen, (alpha, beta)))


def heisenberg_nilsystem(nilflow: SystemHandle, step: float = 1.0) -> SystemHandle:
    if nilflow.tag != HEIS_NILFLOW:
        raise ValueError("heisenberg_nilsystem wraps a heisenberg nilflow")
    return SystemHandle(nilflow.spec, step)


# ---------------------------------------------------------------------------
# minimality

def exact_freqs(sys: SystemHandle, name: str) -> list[SymbolicReal]:
    freqs = None if sys.discrete else sys.spec.freqs
    if freqs is None:
        raise ValueError(f"{name} applies to torus flows and Heisenberg nilflows")
    return list(freqs)


def flow_minimal_result(sys: SystemHandle) -> IndependenceResult:
    """Kronecker-Weyl minimality of the flow, decided exactly.

    Torus flows are minimal iff the frequencies are rationally
    independent; the Heisenberg nilflow reduces to its maximal
    equicontinuous factor, the base 2-torus with frequencies (alpha, beta).
    """
    return rationally_independent(exact_freqs(sys, "flow_minimal"))


def time_t_minimal(sys: SystemHandle, t: SymbolicReal, basis: Basis) -> bool:
    """Minimality of the time-t map, decided exactly.

    The discrete system is minimal iff (1, x_1 t, ..., x_n t) are
    rationally independent; symbol products that leave the declared basis
    raise UnsupportedBasisError rather than falling back to floats.
    """
    if t.is_zero:
        raise ValueError("t must be nonzero")
    vals = [SymbolicReal.rational(1)]
    vals.extend(basis.multiply(f, t) for f in exact_freqs(sys, "time_t_minimal"))
    return rationally_independent(vals).independent
