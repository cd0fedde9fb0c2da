"""Explicit computable dynamical systems.

A system is a SystemHandle(spec, step=None): the frozen spec of an
R-flow (TorusFlowSpec, NilflowSpec, suspension.SuspensionSpec), or with
a step the flow's time-step map.  A point of every system is the plain
tuple of its canonical coordinates, which the spec's evolve returns.
Besides dim, evolve and dist a spec declares its tags (kind as a flow
and as a time-t map), the search grid pitch, freqs (exact frequencies,
None where no exact decision applies) with basis (the Basis of their
symbols), rotation, its one rotation factor (a Rotation), and factors,
its one tuple of Factors, the rotation among them, which the absence
rule of the witness search and the fiber table of fiber_coverage read.
Only the specs tell kinds apart.  One kernel per kind moves a point, and
it makes every point too: the handle's from_coords checks the coordinate
count and returns evolve at time 0.  From the rotation the handle
derives phase_step, is_isometric and rotate, the one code that moves
rotation-factor phases; rotate scales the times by a map's step, then a
column's scale, before the frequencies, as evolve does, so a map's rows
are its flow's at the times n * step.  A spec whose rotation factor is
not all of it also declares orbit(p, ts), the coordinates of
evolve(p, t) for each time of a list, behind orbit_coords.  Also here:
unit_mod, the array mod 1; the Heisenberg group law and its one
evolution loop, nil_orbit (nil_evolve is its one-time case), which reads
the generator's scaled terms from the spec (NilflowSpec.generator_terms,
kept per instance) and converts only the point and the times; quotient
metrics, and the exact minimality tests by rational independence of the
frequencies.  Every exact decision reads the spec's freqs and basis, and
takes no basis of its own.  A point is canonical where it is made, and
evolve at time 0 leaves canonical coordinates as they are, so
evolve(p, 0) returns p, repr for repr, for every point a system makes;
proximality.witness_max_gap relies on it.

Early exits, bit for bit.  The scalar metrics (_heis_sq_gap behind
NilflowSpec.dist and the fallback proximality._scalar_directed of
hausdorff_distance) skip terms that cannot change their running minimum.
Float + of non-negative numbers and max are monotone and never below an
operand, so a partial sum or maximum that has reached the running minimum
bounds its whole term from below; a minimum or maximum does not depend on
the order of its operands; and sqrt is correctly rounded and monotone, so
sqrt(min(a, b)) == min(sqrt(a), sqrt(b)).  So every skipped term would
have left the result's bits as they are.  Likewise a count of hit cells
that has reached the number of cells is final, so
proximality.cell_coverage reads no row block after that.

Conventions: torus points live in [0, 1)^n; Heisenberg group elements
(HeisenbergElement) carry Malcev coordinates (x, y, z) with group law
(x, y, z) * (x', y', z') = (x + x', y + y', z + z' + x * y'),
the lattice is the subgroup of integer triples, and a point of the
nilmanifold is the (x, y, z) in [0, 1)^3 of its canonical coset
representative (nil_orbit at time 0, each coordinate rounded once).
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
# thread pool

def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_pool(fn, items) -> list:
    """[fn(item) for item in items] on min(len(items), usable_cpus()) threads,
    or inline when that is one.  numpy's ufuncs and sorts and scipy's
    KD-tree release the GIL; an exception fn raises reaches the caller."""
    workers = min(len(items), usable_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# points

def unit_mod(v, out=None) -> np.ndarray:
    """v mod 1 elementwise, bit for bit equal to v % 1.0, as v - floor(v):
    into a new array, or into out (which may be v itself).

    Why the bits match: numpy's remainder takes fmod(v, 1), which is
    exact, and for a negative nonzero result adds 1, so it rounds the
    real number v - floor(v) once; the subtraction rounds the same real
    number once (for v >= 0 it is exact).  Integers and +-0 give +0.0 on
    both sides, inf and nan give nan, and a tiny negative v such as
    -1e-20 gives 1.0 on both.  The remainder loop is about ten times
    slower than floor and subtract.
    """
    f = np.floor(v)
    return np.subtract(v, f, out=f if out is None else out)


def wrap_unit(v: float) -> float:
    """Reduce to [0, 1); float % can return exactly 1.0 for tiny negatives."""
    w = v % 1.0
    return 0.0 if w >= 1.0 else w


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


# ---------------------------------------------------------------------------
# evolution

def torus_evolve(spec: TorusFlowSpec, p: tuple, t: float) -> tuple:
    if len(p) != spec.dim:
        raise ValueError("dimension mismatch")
    return tuple(wrap_unit(c + w * t) for c, w in zip(p, spec.rotation.freqs))


def _ratio(v) -> tuple[int, int]:
    """v as (numerator, power-of-two denominator): a float exactly, an int
    over 1."""
    return v.as_integer_ratio() if isinstance(v, float) else (operator.index(v), 1)


class GeneratorTerms(dict):
    """The terms of nil_orbit that depend only on the generator a, by
    exponent E, each scaled on first use and kept: a.x and a.y over 2^E,
    a.z over 2^(2E+1), a.x * a.y, and the denominators 2^E, 2^(2E) and
    2^(4E+1).  den is the largest denominator of a's coordinates."""

    def __init__(self, a: HeisenbergElement):
        super().__init__()
        self.ratios = [_ratio(v) for v in (a.x, a.y, a.z)]
        self.den = max(den for _, den in self.ratios)

    def __missing__(self, e: int) -> tuple:
        ax, ay, az = (num << e - d.bit_length() + 1 for num, d in self.ratios)
        terms = self[e] = (ax, ay, az << 2 * e + 1, ax * ay, 1 << e, 1 << 2 * e, 1 << 4 * e + 1)
        return terms


def nil_orbit(spec: NilflowSpec, p: tuple, ts) -> list[tuple[float, float, float]]:
    """Coordinates of the canonical form of (a^t * p) Gamma for each t of ts,
    in dyadic integer arithmetic; the one Heisenberg evolution.

    The raw central coordinate grows like t^2, so float evaluation would
    lose the flow law at |t| ~ 1e3.  Each float input is n / 2^e; scaled
    to one denominator 2^E, x and y become ints over 2^(2E) and z over
    2^(4E+1).  Floors are shifts, and each coordinate is rounded once, by
    the correctly rounded int / int division.  E is the largest exponent
    of t, a and p.  The generator's terms are the spec's
    (NilflowSpec.generator_terms), scaled once per exponent E and kept, so a
    call converts only the point and the times; the point's terms are
    scaled once per E in a call and kept for its later times.
    """
    a_terms = spec.generator_terms
    fixed = [_ratio(v) for v in p]
    e_fixed = max(a_terms.den, *(den for _, den in fixed)).bit_length()
    terms = {}
    rows = []
    for t in ts:
        tt, den = _ratio(t)
        e = max(den.bit_length(), e_fixed) - 1
        scaled = terms.get(e)
        if scaled is None:
            ax, ay, az_e, axy, one, xy_den, z_den = a_terms[e]
            px, py, pz = (num << e - d.bit_length() + 1 for num, d in fixed)
            scaled = terms[e] = (ax, ay, px << e, py << e, az_e + (ax * py << e + 1),
                                 axy, one, pz << 3 * e + 1, xy_den, z_den)
        ax, ay, px_e, py_e, z_lin, axy, one, pz_e, xy_den, z_den = scaled
        tt <<= e - den.bit_length() + 1
        rx, ry = tt * ax + px_e, tt * ay + py_e
        rz = tt * (z_lin + (tt - one) * axy) + pz_e - (rx * (ry >> 2 * e) << 2 * e + 1)
        # each quotient is in [0, 1]; one that rounds up to 1.0 wraps to 0.0,
        # y by one more lattice step (0, -1, 0), which moves z by -x first
        x, y = (rx & xy_den - 1) / xy_den, (ry & xy_den - 1) / xy_den
        if y == 1.0:
            y, rz = 0.0, rz - (rx << 2 * e + 1)
        z = (rz & z_den - 1) / z_den
        rows.append((x if x < 1.0 else 0.0, y, z if z < 1.0 else 0.0))
    return rows


def nil_evolve(spec: NilflowSpec, p: tuple, t: float) -> tuple[float, float, float]:
    """Canonical form of (a^t * p) Gamma: nil_orbit at the one time t."""
    return nil_orbit(spec, p, (t,))[0]


# ---------------------------------------------------------------------------
# metrics

def circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@dataclass(frozen=True)
class Factor:
    """An equivariant projection of a spec onto its coordinate columns, on
    which the action is an isometry for gap, the largest circle distance."""

    name: str
    columns: tuple[int, ...]

    def gap(self, p, q) -> float:
        return max(circle_dist(p[c], q[c]) for c in self.columns)

    def exact_gap(self, p, q) -> Fraction:
        """gap on the exact values of the coordinates, with no rounding: a
        float gap can round across a threshold such as 3 delta, this cannot.
        Every float is n / 2^k, so each coordinate is scaled to the largest
        denominator 2^K among them and the circle distances are taken in
        ints: |a - b| mod 2^K, then the nearer way round, then the largest."""
        ratios = [v.as_integer_ratio() for c in self.columns for v in (p[c], q[c])]
        one = max(den for _, den in ratios)
        nums = [n * (one // den) for n, den in ratios]
        gaps = (abs(a - b) % one for a, b in zip(nums[::2], nums[1::2]))
        return Fraction(max(min(g, one - g) for g in gaps), one)


@dataclass(frozen=True)
class Rotation(Factor):
    """A spec's rotation factor: the flow moves column columns[i] by
    (t * scales[i]) * freqs[i] mod 1."""

    freqs: tuple[float, ...]
    scales: tuple[float, ...]


_WINDOW = (0.0, -1.0, 1.0, -2.0, 2.0)  # the lattice steps, nearest first


def _heis_sq_gap(p: tuple, q: tuple, best: float) -> float:
    """min(best, least squared Euclidean gap from p to q * (m, n, k) over
    m, n, k in _WINDOW).

    The squared gap is (dx(m)^2 + dy(n)^2) + dz(n, k)^2, minimised term by
    term: one minimum bx over m, then per row n a minimum over k.  It
    returns at once when bx >= best and skips a row n when
    bx + dy(n)^2 >= best (the module's early exits), visiting the rows
    nearest first.  Every term keeps the operands, their order and the
    ** 2 of the 125-translate form, so each rounds as it did there (a
    multiply need not round like libm pow)."""
    (px, py, pz), (qx, qy, qz) = p, q
    w0, w1, w2, w3, w4 = _WINDOW
    bx = min((px - (qx + w0)) ** 2, (px - (qx + w1)) ** 2, (px - (qx + w2)) ** 2,
             (px - (qx + w3)) ** 2, (px - (qx + w4)) ** 2)
    if bx >= best:
        return best
    z0, z1, z2, z3, z4 = qz + w0, qz + w1, qz + w2, qz + w3, qz + w4
    for n in _WINDOW:
        by = bx + (py - (qy + n)) ** 2
        if by >= best:
            continue
        s = qx * n
        gap = by + min((pz - (z0 + s)) ** 2, (pz - (z1 + s)) ** 2, (pz - (z2 + s)) ** 2,
                       (pz - (z3 + s)) ** 2, (pz - (z4 + s)) ** 2)
        if gap < best:
            best = gap
    return best


# ---------------------------------------------------------------------------
# system specs (the protocol is in the module docstring) and the handle

@dataclass(frozen=True)
class TorusFlowSpec:
    """The linear flow x -> x + t * freqs on the torus T^dim, freqs in basis."""

    freqs: tuple[SymbolicReal, ...]
    rotation: Rotation
    basis: Basis = field(compare=False, repr=False)

    tags = (TORUS_FLOW, TORUS_MAP)
    pitch = 0.25

    @property
    def dim(self) -> int:
        return len(self.freqs)

    @property
    def factors(self) -> tuple[Factor, ...]:
        return (self.rotation,) if self.dim < 2 else (self.rotation, Factor("torus-coord-0", (0,)))

    evolve = torus_evolve

    def dist(self, p: tuple, q: tuple) -> float:
        """The rotation's gap: the largest circle distance over all coordinates."""
        if not len(p) == len(q) == self.dim:
            raise ValueError("mismatched systems")
        return self.rotation.gap(p, q)


@dataclass(frozen=True)
class NilflowSpec:
    """The nilflow x Gamma -> a^t x Gamma on the Heisenberg nilmanifold.  Its
    rotation factor is the base 2-torus, rotated by (a.x, a.y); freqs holds
    those two frequencies exactly, in the symbols of basis, which every
    exact decision on the spec reads (minimality, the commuting rule)."""

    generator: HeisenbergElement
    freqs: tuple[SymbolicReal, SymbolicReal]
    basis: Basis = field(compare=False, repr=False)

    tags = (HEIS_NILFLOW, HEIS_NILSYSTEM)
    pitch = 0.25
    dim = 3

    @cached_property
    def rotation(self) -> Rotation:
        return Rotation("heisenberg-base", (0, 1), self.generator.coords[:2], (1.0, 1.0))

    @property
    def factors(self) -> tuple[Factor, ...]:
        return (self.rotation,)

    @cached_property
    def generator_terms(self) -> GeneratorTerms:
        """nil_orbit's generator terms, kept on this instance: a spec is
        frozen, and every spec, dataclasses.replace's too, has its own."""
        return GeneratorTerms(self.generator)

    evolve = nil_evolve
    orbit = nil_orbit

    def dist(self, p: tuple, q: tuple) -> float:
        """Least Euclidean gap over the 5x5x5 lattice window, both ways: one
        sqrt of the least squared gap, the reverse direction starting from
        the forward one (the module's early exits)."""
        return math.sqrt(_heis_sq_gap(q, p, _heis_sq_gap(p, q, math.inf)))


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
        """Is the system its own rotation factor (tori, suspensions over tori)?"""
        return len(self.spec.rotation.columns) == self.dim

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def phase_step(self) -> np.ndarray:
        """Translation of the rotation factor's columns per unit time or
        step, (step * scale) * freq per column, in rotate's order."""
        r, step = self.spec.rotation, 1.0 if self.step is None else self.step
        return np.array([(step * scale) * w for w, scale in zip(r.freqs, r.scales)])

    def rotate(self, phases, s) -> np.ndarray:
        """Phases of the rotation factor's columns moved by the times s mod 1:
        the array of shape broadcast(phases.shape, s.shape + (k,)) whose
        column c is phases[..., c] + ((s * step) * scales[c]) * freqs[c],
        with plain s on a flow and no product by a scale of 1.0 (which is
        exact), reduced by unit_mod.  The times are scaled before the
        frequencies, as evolve scales them, so a map's phases are its
        flow's at the times s * step.

        It is filled one column at a time, the product into the column and
        then the phase added: numpy broadcasts slowly over a short trailing
        axis, and each element gets the same two operations on the same
        operands as (phases + outer(scaled times, freqs)) % 1.0, so the
        same bits.
        """
        r = self.spec.rotation
        phases, s = np.asarray(phases, dtype=float), np.asarray(s)
        if self.step is not None:
            s = s * self.step
        out = np.empty(np.broadcast_shapes(phases.shape, s.shape + (len(r.freqs),)))
        for c, (w, scale) in enumerate(zip(r.freqs, r.scales)):
            col = np.multiply(s if scale == 1.0 else s * scale, w, out=out[..., c])
            col += phases[..., c]
        return unit_mod(out, out=out)

    def evolve(self, p, t: float):
        return self.spec.evolve(p, t if self.step is None else t * self.step)

    def dist(self, p, q) -> float:
        return self.spec.dist(p, q)

    def coords(self, p) -> tuple[float, ...]:
        """The identity, since a point is the tuple of its coordinates; kept
        because perfbench/oracles.py and perfbench/selftest.py call it."""
        return p

    def from_coords(self, c: Sequence[float]):
        """The point with coordinates c, its orbit at time 0 by the kernel
        that moves it; ValueError unless there are dim."""
        if len(c) != self.dim:
            raise ValueError(f"needs {self.dim} coordinates, got {list(c)}")
        return self.spec.evolve(tuple(map(float, c)), 0.0)

    def origin(self):
        return self.from_coords((0.0,) * self.dim)

    def orbit_coords(self, x, ts) -> np.ndarray:
        """Rows evolve(x, t) over the 1-d times ts, shape (len(ts), dim), bit
        for bit; a row may read 1.0 where evolve reads 0.0, the same circle
        point, since unit_mod keeps numpy's 1.0 for a tiny negative.  An
        isometric system is its own rotation factor: closed form by rotate.
        Others take the spec's orbit over the times scaled by the step: on
        the Heisenberg nilmanifold the one exact loop nil_orbit; on a
        suspension over it the base's orbit_coords beside the heights."""
        if self.is_isometric:
            return self.rotate(x, ts)
        ts = np.asarray(ts, dtype=float)
        if self.step is not None:
            ts = ts * self.step
        return np.array(self.spec.orbit(x, ts.tolist()), dtype=float).reshape(len(ts), self.dim)


# ---------------------------------------------------------------------------
# constructors

def torus_flow(freqs: Sequence[SymbolicReal], basis: Basis) -> SystemHandle:
    if not freqs:
        raise ValueError("torus flow needs at least one frequency")
    n = len(freqs)
    return SystemHandle(TorusFlowSpec(tuple(freqs), Rotation(
        "torus", tuple(range(n)), tuple(basis.to_float(f) for f in freqs), (1.0,) * n), basis))


def heisenberg_nilflow(alpha: SymbolicReal, beta: SymbolicReal, basis: Basis,
                       z: float = 0.0) -> SystemHandle:
    gen = HeisenbergElement(basis.to_float(alpha), basis.to_float(beta), z)
    return SystemHandle(NilflowSpec(gen, (alpha, beta), basis))


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


def time_t_values(sys: SystemHandle, t: SymbolicReal) -> list[SymbolicReal]:
    """(1, x_1 t, ..., x_n t) over the flow's exact frequencies x_i, each product
    in the spec's basis: UnsupportedBasisError if it is undeclared, no floats."""
    if t.is_zero:
        raise ValueError("t must be nonzero")
    return [SymbolicReal.rational(1), *(sys.spec.basis.multiply(f, t)
                                        for f in exact_freqs(sys, "time_t_minimal"))]


def time_t_minimal(sys: SystemHandle, t: SymbolicReal) -> bool:
    """Is the time-t map minimal, i.e. are time_t_values rationally independent?"""
    return rationally_independent(time_t_values(sys, t)).independent
