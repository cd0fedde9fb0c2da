"""Multiple ergodic averages along flows and their decompositions.

Trigonometric observables keep every integral exactly computable
(frequency bookkeeping on the torus, base pullbacks on the Heisenberg
nilmanifold); raw callbacks fall back to seeded Monte-Carlo with
reported standard errors.  Also houses uniform-density window suprema,
Banach density estimates, the polynomial product law deviation, the
closed-form decomposition residual, and the level-by-level embedding
solve for tuples of Heisenberg elements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import RealPolynomial, binom_real, polys_r_independent
from .systems import (HeisenbergElement, SystemHandle, heis_conjugate,
                      heis_multiply, heis_power)


class IndependenceViolation(ValueError):
    """The polynomial family admits a rational dependence."""


# ---------------------------------------------------------------------------
# observables

@dataclass(frozen=True)
class Observable:
    """Bounded observable: trig polynomial with integer frequencies, or callback."""

    kind: str  # "trig" | "callback"
    terms: tuple[tuple[tuple[int, ...], complex], ...] = ()
    func: Callable | None = None
    sup_bound: float = 1.0

    @staticmethod
    def exponential(*freq: int) -> "Observable":
        return Observable("trig", ((tuple(freq), 1.0 + 0j),))

    @staticmethod
    def cosine(*freq: int) -> "Observable":
        k = tuple(freq)
        mk = tuple(-v for v in k)
        return Observable("trig", ((k, 0.5 + 0j), (mk, 0.5 + 0j)))

    @staticmethod
    def constant(c: complex, dim: int = 1) -> "Observable":
        return Observable("trig", (((0,) * dim, complex(c)),))

    @staticmethod
    def trig(terms: Sequence[tuple[Sequence[int], complex]]) -> "Observable":
        return Observable("trig", tuple((tuple(k), complex(c)) for k, c in terms))

    @staticmethod
    def callback(func: Callable, sup_bound: float) -> "Observable":
        return Observable("callback", (), func, sup_bound)

    @property
    def dim(self) -> int:
        if self.kind != "trig" or not self.terms:
            raise ValueError("dim is defined for nonempty trig observables")
        return len(self.terms[0][0])

    def eval_phases(self, phases: np.ndarray) -> np.ndarray:
        """Evaluate at phase rows; phases has shape (..., dim)."""
        out = np.zeros(phases.shape[:-1], dtype=complex)
        for k, c in self.terms:
            out += c * np.exp(2j * np.pi * (phases @ np.array(k, dtype=float)))
        return out

    def haar_integral(self) -> complex:
        """Exact Haar integral of a trig observable: its constant coefficient."""
        if self.kind != "trig":
            raise ValueError("exact integral needs a trig observable")
        return sum((c for k, c in self.terms if not any(k)), 0j)


def _check_trig_fits(sys: SystemHandle, f: Observable) -> None:
    """Trig observables live on the rotation factor (sys.phase_step): the
    whole torus, or the base 2-torus that carries every Heisenberg pullback."""
    omega = sys.phase_step
    dim = sys.dim if omega is None else len(omega)
    if f.dim != dim:
        raise ValueError(
            f"observable frequency dimension {f.dim} does not match the "
            f"system's phase dimension {dim}")


# ---------------------------------------------------------------------------
# time series

@dataclass(frozen=True)
class TimeSeries:
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid/values length mismatch")
        if len(self.grid) > 1 and not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")

    def to_csv(self, path) -> None:
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            data = np.column_stack([self.grid, vals.real, vals.imag])
        else:
            data = np.column_stack([self.grid, vals])
        np.savetxt(path, data, delimiter=",", fmt="%.17g")


# ---------------------------------------------------------------------------
# integrals and multicorrelations

@dataclass(frozen=True)
class IntegralEstimate:
    """An integral over X: exact, or Monte-Carlo with its standard error."""

    value: complex
    stderr: float
    exact: bool


def integrate_haar(sys: SystemHandle, f: Observable, n_samples: int = 10 ** 5,
                   seed: int = 0) -> IntegralEstimate:
    """Haar integral: exact for trig observables, Monte-Carlo otherwise."""
    if f.kind == "trig":
        _check_trig_fits(sys, f)
        return IntegralEstimate(f.haar_integral(), 0.0, True)
    if f.func is None:
        raise ValueError("callback observable lacks a function")
    rng = np.random.default_rng(seed)
    pts = rng.random((n_samples, sys.dim))
    vals = np.array([f.func(tuple(row)) for row in pts])
    stderr = float(np.std(vals) / math.sqrt(n_samples))
    return IntegralEstimate(complex(np.mean(vals)), stderr, False)


def _validate_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    out = tuple(float(a) for a in alphas)
    if len(set(out)) != len(out) or any(a == 0 for a in out):
        raise ValueError("alphas must be distinct and nonzero")
    return out


def _exact_correlation_terms(sys: SystemHandle, f: Observable,
                             alphas: Sequence[float]):
    """Frequency bookkeeping for I_f(k, t): list of (rate, coefficient).

    Expands the product f(x) f(T^{a_1 t} x) ... f(T^{a_k t} x); only
    frequency tuples summing to zero survive the Haar integral, each
    contributing coeff-product times exp(2 pi i rate t).
    """
    omega = sys.phase_step
    if omega is None or f.kind != "trig":
        return None
    _check_trig_fits(sys, f)
    if len(f.terms) ** (len(alphas) + 1) > 200_000:
        return None
    rates: dict[float, complex] = {}
    coeffs_alpha = (0.0,) + tuple(alphas)
    for combo in itertools.product(f.terms, repeat=len(alphas) + 1):
        total = np.sum([k for k, _ in combo], axis=0)
        if np.any(total):
            continue
        coeff = 1.0 + 0j
        rate = 0.0
        for a, (k, c) in zip(coeffs_alpha, combo):
            coeff *= c
            rate += a * float(np.dot(k, omega))
        key = round(rate, 12)
        rates[key] = rates.get(key, 0j) + coeff
    return sorted(rates.items())


def multi_average_series(sys: SystemHandle, f: Observable,
                         alphas: Sequence[float], t_grid: Sequence[float],
                         n_samples: int = 2 * 10 ** 4,
                         seed: int = 0) -> list[IntegralEstimate]:
    """I_f(k, t) = int f(x) f(T^{a_1 t} x)...f(T^{a_k t} x) dmu at each grid t.

    The exact frequency terms are built once for the whole grid; the
    Monte-Carlo fallback draws one seeded point set and reuses it for
    every t.  Each value equals the one-point call at that t.
    """
    alphas = _validate_alphas(alphas)
    ts = [float(t) for t in t_grid]
    terms = _exact_correlation_terms(sys, f, alphas)
    if terms is not None:
        return [IntegralEstimate(
                    complex(sum(c * np.exp(2j * np.pi * r * t) for r, c in terms)),
                    0.0, True)
                for t in ts]
    values, stderrs = _sample_correlation(sys, f, alphas, np.array(ts),
                                          n_samples, seed)
    return [IntegralEstimate(complex(v), float(e), False)
            for v, e in zip(values, stderrs)]


def multi_average_I(sys: SystemHandle, f: Observable, alphas: Sequence[float],
                    t: float, n_samples: int = 2 * 10 ** 4,
                    seed: int = 0) -> IntegralEstimate:
    """The correlation I_f(k, t) at one t (see multi_average_series)."""
    return multi_average_series(sys, f, alphas, [t], n_samples, seed)[0]


def _sample_correlation(sys: SystemHandle, f: Observable, alphas, t_grid,
                        n_samples: int, seed: int):
    """Monte-Carlo I_f(k, t) over a t grid: (values, stderrs) arrays."""
    rng = np.random.default_rng(seed)
    omega = sys.phase_step
    values = np.empty(len(t_grid), dtype=complex)
    stderrs = np.empty(len(t_grid))
    if f.kind == "trig" and omega is not None:
        pts = rng.random((n_samples, len(omega)))
        for i, t in enumerate(t_grid):
            prod = f.eval_phases(pts)
            for a in alphas:
                prod = prod * f.eval_phases((pts + a * t * omega[None, :]) % 1.0)
            values[i] = prod.mean()
            stderrs[i] = float(np.std(prod) / math.sqrt(n_samples))
        return values, stderrs
    if f.func is None:
        raise ValueError("correlation sampling needs a trig or callback observable")
    points = [sys.from_coords(tuple(row)) for row in rng.random((n_samples, sys.dim))]
    for i, t in enumerate(t_grid):
        prod = np.array([f.func(sys.coords(p)) for p in points], dtype=complex)
        for a in alphas:
            prod *= np.array([f.func(sys.coords(sys.evolve(p, a * t)))
                              for p in points])
        values[i] = prod.mean()
        stderrs[i] = float(np.std(prod) / math.sqrt(n_samples))
    return values, stderrs


def _quadrature_correlation(sys: SystemHandle, f: Observable, alphas,
                            t_grid) -> np.ndarray:
    """Rectangle-rule I_f(k, t): exact for trig observables on tori.

    The uniform M-point rule integrates e^{2 pi i m x} exactly for
    |m| < M, so with M above the largest combined frequency this is an
    independent exact evaluation path (pointwise orbit evaluation, no
    frequency algebra).
    """
    omega = sys.phase_step
    if omega is None or f.kind != "trig":
        raise ValueError("quadrature path needs a trig observable on a "
                         "torus or Heisenberg system")
    _check_trig_fits(sys, f)
    maxfreq = max(max(abs(v) for v in k) for k, _ in f.terms)
    M = max(64, 2 * (len(alphas) + 1) * maxfreq + 2)
    axes = [np.arange(M) / M for _ in range(len(omega))]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    t = np.asarray(t_grid, dtype=float)
    base_vals = f.eval_phases(mesh)
    out = np.empty(len(t), dtype=complex)
    chunk = max(1, 10 ** 6 // len(mesh))
    for start in range(0, len(t), chunk):
        tc = t[start:start + chunk]
        prod = np.broadcast_to(base_vals[None, :], (len(tc), len(mesh))).copy()
        for a in alphas:
            shifted = (mesh[None, :, :]
                       + (a * tc)[:, None, None] * omega[None, None, :]) % 1.0
            prod *= f.eval_phases(shifted)
        out[start:start + chunk] = prod.mean(axis=1)
    return out


# ---------------------------------------------------------------------------
# uniform density and Banach density

@dataclass(frozen=True)
class UDSupResult:
    sup: float
    table: tuple[tuple[float, float, float], ...]  # (sigma, rho, window average)


def window_span(grid: np.ndarray, sigma: float, rho: float) -> slice:
    """The grid points of the window [sigma, sigma + rho], at least two."""
    if sigma < grid[0] - 1e-9 or sigma + rho > grid[-1] + 1e-9:
        raise ValueError(f"window ({sigma}, {rho}) exceeds grid span")
    lo = int(np.searchsorted(grid, sigma - 1e-12, side="left"))
    hi = int(np.searchsorted(grid, sigma + rho + 1e-12, side="right"))
    if hi - lo < 2:
        raise ValueError("window contains fewer than two grid points")
    return slice(lo, hi)


def ud_sup(series: TimeSeries, windows: Sequence[tuple[float, float]]) -> UDSupResult:
    """Max over windows of (1/rho) * integral of |phi| via the trapezoid rule."""
    grid = np.asarray(series.grid, dtype=float)
    absval = np.abs(np.asarray(series.values))
    rows = []
    for sigma, rho in windows:
        span = window_span(grid, sigma, rho)
        avg = float(np.trapezoid(absval[span], grid[span]) / rho)
        rows.append((float(sigma), float(rho), avg))
    return UDSupResult(max(r[2] for r in rows), tuple(rows))


def banach_density(hit_times: Sequence[float], rho: float, step: float,
                   horizon: float, half_width: float = 0.05) -> tuple[float, float]:
    """Sliding-window hit-measure estimates (lower, upper).

    Hits become intervals of the given half-width; windows of length rho
    slide along [0, horizon] at the given step.
    """
    if rho > horizon:
        raise ValueError("empty window range: rho exceeds horizon")
    sigmas = np.arange(0.0, horizon - rho + 1e-9, step)
    if len(sigmas) == 0:
        raise ValueError("empty window range")
    hits = sorted(hit_times)
    if not hits:
        return (0.0, 0.0)
    merged: list[list[float]] = []
    for t in hits:
        a, b = max(0.0, t - half_width), min(horizon, t + half_width)
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    # breakpoints of the cumulative covered-measure function
    xs = [0.0]
    ys = [0.0]
    for a, b in merged:
        xs.extend([a, b])
        ys.extend([ys[-1], ys[-1] + (b - a)])
    xs.append(horizon)
    ys.append(ys[-1])
    f_hi = np.interp(sigmas + rho, xs, ys)
    f_lo = np.interp(sigmas, xs, ys)
    cov = (f_hi - f_lo) / rho
    return (float(cov.min()), float(cov.max()))


# ---------------------------------------------------------------------------
# product law along independent polynomials

@dataclass(frozen=True)
class ProductLawReport:
    deviation: complex
    abs_deviation: float
    R: float
    time_step: float
    n_time: int
    n_x: int

    def to_jsonable(self) -> dict:
        return {"abs_deviation": self.abs_deviation,
                "deviation_re": self.deviation.real,
                "deviation_im": self.deviation.imag,
                "R": self.R, "time_step": self.time_step,
                "n_time": self.n_time, "n_x": self.n_x}


def potts_average(flow_sys: SystemHandle, polys: Sequence[RealPolynomial],
                  fs: Sequence[Observable], R: float, n_x: int = 4,
                  seed: int = 0, h: float | None = None) -> ProductLawReport:
    """Deviation of the polynomial multiple time average from the product law.

    Computes (1/R) int_0^R prod_j f_j(T^{p_j(t)} x) dt by stratified
    jittered quadrature at step h (one sample per cell; a plain uniform
    grid aliases quadratic phases into Gauss-sum resonances), averaged
    over sampled x, minus prod_j int f_j dmu.
    """
    if len(polys) != len(fs):
        raise ValueError("one observable per polynomial")
    dep = polys_r_independent(polys)
    if not dep.independent:
        raise IndependenceViolation(
            f"polynomials admit the rational dependence {dep.certificate}")
    omega = flow_sys.phase_step
    if omega is None:
        raise ValueError("potts_average supports torus and Heisenberg flows")
    for f in fs:
        _check_trig_fits(flow_sys, f)
    if h is None:
        h = min(1e-3 * math.sqrt(R), 0.01)
    n_time = int(math.ceil(R / h))
    rng = np.random.default_rng(seed)
    xs = rng.random((n_x, len(omega)))
    total = 0j
    chunk = 10 ** 6
    for start in range(0, n_time, chunk):
        ks = np.arange(start, min(start + chunk, n_time))
        ts = (ks + rng.random(len(ks))) * h
        vals = np.ones((n_x, len(ts)), dtype=complex)
        for p, f in zip(polys, fs):
            pt = p.eval_array(ts)
            for i in range(n_x):
                phases = (xs[i][None, :] + pt[:, None] * omega[None, :]) % 1.0
                vals[i] *= f.eval_phases(phases)
        total += vals.sum()
    time_avg = total / (n_x * n_time)
    prod = 1.0 + 0j
    for f in fs:
        prod *= integrate_haar(flow_sys, f).value
    dev = complex(time_avg - prod)
    return ProductLawReport(dev, abs(dev), float(R), float(h), n_time, n_x)


# ---------------------------------------------------------------------------
# decomposition residual

@dataclass(frozen=True)
class NilfunctionReport:
    prediction: TimeSeries
    residual: TimeSeries
    stderrs: np.ndarray | None
    exact_sampling: bool

    def residual_within_stderr(self, factor: float = 3.0) -> bool:
        if self.stderrs is None:
            raise ValueError("no Monte-Carlo stderrs available")
        return bool(np.all(np.abs(self.residual.values) <=
                           factor * np.maximum(self.stderrs, 1e-15)))


def nilfunction_residual(sys: SystemHandle, f: Observable,
                         alphas: Sequence[float], t_grid: Sequence[float],
                         n_samples: int = 10 ** 5, seed: int = 0) -> NilfunctionReport:
    """Sampled I_f(k, t) minus the predicted trig polynomial.

    Torus systems sample through exact rectangle-rule quadrature (an
    independent pointwise-orbit path), so the residual is float noise;
    Heisenberg pullbacks sample by Monte-Carlo and report stderrs.
    """
    alphas = _validate_alphas(alphas)
    terms = _exact_correlation_terms(sys, f, alphas)
    if terms is None:
        raise ValueError("unsupported observable kind for the exact prediction")
    t = np.asarray(t_grid, dtype=float)
    pred = np.zeros(len(t), dtype=complex)
    for r, c in terms:
        pred += c * np.exp(2j * np.pi * r * t)
    if sys.is_isometric:
        sampled = _quadrature_correlation(sys, f, alphas, t)
        stderrs = None
        exact = True
    else:
        sampled, stderrs = _sample_correlation(sys, f, alphas, t, n_samples, seed)
        exact = False
    residual = sampled - pred
    return NilfunctionReport(TimeSeries(t, pred), TimeSeries(t, residual), stderrs, exact)


# ---------------------------------------------------------------------------
# embeddings of Heisenberg tuples

_CENTRAL_TOL = 1e-12


def _require_central(g: HeisenbergElement) -> None:
    if abs(g.x) > _CENTRAL_TOL or abs(g.y) > _CENTRAL_TOL:
        raise ValueError("component must lie in the center (0, 0, z)")


def jstar_embed(gs: Sequence[HeisenbergElement],
                alphas: Sequence[float]) -> tuple[HeisenbergElement, ...]:
    """Component j is g_1^C(a_j, 1) * g_2^C(a_j, 2) (two-step case).

    The first argument lives in the full group, the second in the center.
    """
    alphas = _validate_alphas(alphas)
    k = len(gs)
    if k != len(alphas):
        raise ValueError("need one alpha per group element")
    if k > 2:
        raise ValueError("only k <= 2 is supported on the Heisenberg group")
    if k == 2:
        _require_central(gs[1])
    out = []
    for a in alphas:
        comp = heis_power(gs[0], float(binom_real(a, 1)))
        if k == 2:
            comp = heis_multiply(comp, heis_power(gs[1], float(binom_real(a, 2))))
        out.append(comp)
    return tuple(out)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    preimage: tuple[HeisenbergElement, HeisenbergElement] | None
    residual: float


def gtilde_star_membership(tuple_hs: Sequence[HeisenbergElement],
                           alphas: Sequence[float],
                           tol: float = 1e-10) -> MembershipResult:
    """Solve the level-by-level systems and test tuple membership.

    Level one is the 2x2 system in the binomials C(a_j, 1), C(a_j, 2)
    for the base coordinates; level two reuses the same matrix for the
    central coordinates after removing the power-law cross term.  The
    tuple is a member iff re-embedding the solved preimage reproduces it.
    """
    alphas = _validate_alphas(alphas)
    if len(tuple_hs) != 2 or len(alphas) != 2:
        raise ValueError("membership solve is for k = 2 tuples")
    B = np.array([[float(binom_real(a, 1)), float(binom_real(a, 2))]
                  for a in alphas])
    det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    assert abs(det) > 1e-14, "level system singular despite distinct nonzero alphas"
    h1, h2 = tuple_hs
    rhs_x = np.array([h1.x, h2.x])
    rhs_y = np.array([h1.y, h2.y])
    ux = np.linalg.solve(B, rhs_x)
    uy = np.linalg.solve(B, rhs_y)
    # level two: V2(h_j) = C(a_j,1) z1 + C(a_j,2) (z2 + x1 y1)
    rhs_z = np.array([h1.z, h2.z])
    uz = np.linalg.solve(B, rhs_z)
    g1 = HeisenbergElement(float(ux[0]), float(uy[0]), float(uz[0]))
    g2 = HeisenbergElement(0.0, 0.0, float(uz[1] - ux[0] * uy[0]))
    embedded = jstar_embed((g1, g2), alphas)
    residual = max(abs(u - v)
                   for h, e in zip(tuple_hs, embedded)
                   for u, v in zip(h.coords, e.coords))
    # a non-central level-one remainder also disqualifies the tuple
    residual = max(residual, abs(float(ux[1])), abs(float(uy[1])))
    if residual <= tol:
        return MembershipResult(True, (g1, g2), residual)
    return MembershipResult(False, None, residual)


def gtilde_star_conjugation_check(g: HeisenbergElement,
                                  tuple_hs: Sequence[HeisenbergElement],
                                  alphas: Sequence[float],
                                  tol: float = 1e-9) -> bool:
    """Conjugation by any group element must preserve tuple membership."""
    if not gtilde_star_membership(tuple_hs, alphas, tol).member:
        raise ValueError("input tuple fails membership at the given tolerance")
    conj = [heis_conjugate(g, h) for h in tuple_hs]
    return gtilde_star_membership(conj, alphas, tol).member
