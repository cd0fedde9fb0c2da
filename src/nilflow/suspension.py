"""Unit-ceiling suspension flow over a discrete base system.

Points are classes [x, s] with height s in [0, 1); the gluing identifies
(x, 1) with (Tx, 0), so canonicalization applies the integer part of the
height through the base map.  Includes the finite-resolution check of
the witness-transfer statement between a suspension pair and its base
pair, and the integer-part orbit projection.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .proximality import cell_coverage, rp_witness_search
from .systems import SUSPENSION, SystemHandle, circle_dist

INTEGRAL_GAP_TOL = 1e-12


@dataclass(frozen=True)
class SuspensionPoint:
    base: object
    s: float


@dataclass(frozen=True)
class SuspensionSpec:
    """Spec of the suspension flow over a discrete base (see systems.py);
    it has no rotation factor, no fiber projection and no time-t map kind."""

    base: SystemHandle

    tags = (SUSPENSION, None)
    pitch = 1.0
    freqs = float_freqs = None
    projections = {}

    @property
    def dim(self) -> int:
        return self.base.dim + 1

    def evolve(self, p: SuspensionPoint, t: float) -> SuspensionPoint:
        return susp_evolve(self.base, p, t)

    def dist(self, p: SuspensionPoint, q: SuspensionPoint) -> float:
        return susp_metric(self.base, p, q)

    def coords(self, p: SuspensionPoint) -> tuple[float, ...]:
        return self.base.coords(p.base) + (p.s,)

    def from_coords(self, c: Sequence[float]) -> SuspensionPoint:
        return susp_canonical(self.base, self.base.from_coords(c[:-1]), c[-1])

    def factor_gaps(self, p: SuspensionPoint, q: SuspensionPoint):
        """The height circle, an exact isometric circle flow; then the whole
        suspension when the base is isometric, since it is equicontinuous."""
        yield circle_dist(p.s, q.s)
        if self.base.is_isometric:
            yield self.dist(p, q)


def suspend(base: SystemHandle) -> SystemHandle:
    """Suspension flow handle over a discrete base system."""
    if not base.discrete:
        raise ValueError("suspension needs a discrete base system")
    return SystemHandle(SuspensionSpec(base))


def susp_canonical(base_sys: SystemHandle, x, s: float) -> SuspensionPoint:
    """Canonical representative [T^floor(s) x, s - floor(s)]."""
    n = math.floor(s)
    if n == 0:
        return SuspensionPoint(x, s)
    return SuspensionPoint(base_sys.evolve(x, n), s - n)


def _integral_gap(s: float, t: float) -> int | None:
    """The integer k = s - t, or None when the height gap is not integral."""
    k = round(s - t)
    return k if abs(s - t - k) <= INTEGRAL_GAP_TOL else None


def susp_evolve(base_sys: SystemHandle, p: SuspensionPoint, t: float) -> SuspensionPoint:
    return susp_canonical(base_sys, p.base, p.s + t)


def _chart_gap(base_sys: SystemHandle, p: SuspensionPoint, q: SuspensionPoint) -> float:
    return min(max(base_sys.dist(base_sys.evolve(p.base, k), q.base), abs(p.s - k - q.s))
               for k in (-1, 0, 1))


def susp_metric(base_sys: SystemHandle, p: SuspensionPoint,
                q: SuspensionPoint) -> float:
    """Glued-chart metric; the k in {-1, 0, 1} window covers canonical heights."""
    return min(_chart_gap(base_sys, p, q), _chart_gap(base_sys, q, p))


@dataclass(frozen=True)
class SuspensionTransferReport:
    """Outcome of the suspension/base witness-transfer probe."""

    forward: bool
    backward: bool | None
    height_gap_integral: bool
    forward_status: str
    backward_status: str | None
    checked: int

    @property
    def agreement(self) -> bool:
        """Does the outcome match: forward iff integral gap and base witness."""
        if not self.height_gap_integral:
            return not self.forward
        return self.forward == bool(self.backward)

    def to_jsonable(self) -> dict:
        return {**asdict(self), "agreement": self.agreement}


def susp_rp_transfer_check(base_sys: SystemHandle, x1, x2, s1: float, s2: float,
                           d: int, delta: float, budget: int) -> SuspensionTransferReport:
    """Finite-resolution probe of witness transfer between suspension and base.

    Forward searches the suspension pair ([x1, s1], [x2, s2]) at delta;
    backward searches the base pair (T^{s1-s2} x1, x2), attempted only
    when the height gap is integral (otherwise the circle factor already
    obstructs membership).
    """
    susp_sys = suspend(base_sys)
    p1 = susp_canonical(base_sys, x1, s1)
    p2 = susp_canonical(base_sys, x2, s2)
    fwd = rp_witness_search(susp_sys, p1, p2, d, delta, budget)
    k = _integral_gap(s1, s2)
    bwd = None
    if k is not None:
        bwd = rp_witness_search(base_sys, base_sys.evolve(x1, k), x2, d, delta, budget)
    return SuspensionTransferReport(
        forward=fwd.found,
        backward=None if bwd is None else bwd.found,
        height_gap_integral=k is not None,
        forward_status=fwd.status,
        backward_status=None if bwd is None else bwd.status,
        checked=fwd.checked + (bwd.checked if bwd else 0),
    )


def integer_part_orbit(base_sys: SystemHandle, x, times: Sequence[float],
                       resolution: float) -> float:
    """Coverage of the base space by {T^[t] x : t in times} at the given pitch."""
    phases = base_sys.orbit_coords(x, np.floor(np.asarray(times, dtype=float)))
    return cell_coverage([phases], len(phases), resolution)
