"""Unit-ceiling suspension flow over a discrete base system, in product
coordinates.

Every base is the time-step map T = phi_step of a flow (a SystemHandle
with a step), so psi([x, s]) = (phi_{step*s} x, s mod 1) conjugates the
glued suspension, whose classes [x, s] identify [x, s + 1] with [Tx, s],
to the product flow (u, s) -> (phi_{step*t} u, s + t) on X x T: both
sides of the gluing map to (phi_{step*(s+1)} x, s).  A point is the tuple
(*u, s) of a base point's coordinates followed by a height in [0, 1), and
the metric is the larger of the base gap and the height circle gap.
Includes the finite-resolution check of the witness-transfer statement
between a suspension pair and its base pair, and the integer-part orbit
projection.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .proximality import cell_coverage, rp_witness_search
from .systems import SUSPENSION, Factor, Rotation, SystemHandle, circle_dist, wrap_unit

INTEGRAL_GAP_TOL = 1e-12


@dataclass(frozen=True)
class SuspensionSpec:
    """Spec of the suspension flow over a discrete base (see systems.py), with
    no exact frequencies or time-t map kind; its factors are the height
    circle and its rotation factor, the base's rotation columns with the
    height, which the product flow moves by (base phase_step, 1) per unit
    time: a base column's scale is the base's times the step.  Over a torus
    these are all the columns, and the factor gap is the metric."""

    base: SystemHandle

    tags = (SUSPENSION, None)
    pitch = 1.0
    freqs = None

    @property
    def dim(self) -> int:
        return self.base.dim + 1

    @cached_property
    def rotation(self) -> Rotation:
        r = self.base.spec.rotation
        return Rotation("suspension-rotation", (*r.columns, self.dim - 1), (*r.freqs, 1.0),
                        (*(scale * self.base.step for scale in r.scales), 1.0))

    @property
    def factors(self) -> tuple[Factor, ...]:
        return (Factor("suspension-height", (self.dim - 1,)), self.rotation)

    def evolve(self, p: tuple, t: float) -> tuple:
        return susp_evolve(self.base, p, t)

    def dist(self, p: tuple, q: tuple) -> float:
        return susp_metric(self.base, p, q)

    def orbit(self, p: tuple, ts) -> np.ndarray:
        """The base's orbit_coords beside the heights of susp_evolve."""
        return np.column_stack((self.base.orbit_coords(p[:-1], ts),
                                [wrap_unit(p[-1] + t) for t in ts]))


def suspend(base: SystemHandle) -> SystemHandle:
    """Suspension flow handle over a discrete base system."""
    if not base.discrete:
        raise ValueError("suspension needs a discrete base system")
    return SystemHandle(SuspensionSpec(base))


def _integral_gap(s: float, t: float) -> int | None:
    """The integer k = s - t, or None when the height gap is not integral."""
    k = round(s - t)
    return k if abs(s - t - k) <= INTEGRAL_GAP_TOL else None


def susp_evolve(base_sys: SystemHandle, p: tuple, t: float) -> tuple:
    return (*base_sys.evolve(p[:-1], t), wrap_unit(p[-1] + t))


def susp_metric(base_sys: SystemHandle, p: tuple, q: tuple) -> float:
    return max(base_sys.dist(p[:-1], q[:-1]), circle_dist(p[-1], q[-1]))


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

    Forward searches the suspension pair ([x1, s1], [x2, s2]) at delta, in
    product coordinates (the flow from (x, 0) for time s); backward
    searches the base pair (T^{s1-s2} x1, x2), attempted only when the
    height gap is integral (otherwise the circle factor already obstructs
    membership).
    """
    susp_sys = suspend(base_sys)
    p1, p2 = susp_sys.evolve((*x1, 0.0), s1), susp_sys.evolve((*x2, 0.0), s2)
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
