"""Multiple ergodic averages along flows and their decompositions.

Trigonometric observables live on the rotation factor (trig_phase_step),
and each multiple average of one is exact: frequency terms, or the mean
over the factor's mesh; a Heisenberg residual samples seeded Monte-Carlo
points, with standard errors.  Also houses uniform-density window
suprema, Banach density estimates, the polynomial product law deviation,
the closed-form decomposition residual, and the level-by-level embedding
solve for tuples of Heisenberg elements, all on the calling thread.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (RealPolynomial, binom_real, polys_r_independent,
                      require_nonconstant)
from .systems import (HeisenbergElement, SystemHandle, heis_conjugate,
                      heis_multiply, heis_power)


class IndependenceViolation(ValueError):
    """The polynomial family admits a rational dependence."""


# ---------------------------------------------------------------------------
# observables

def _frequency(v) -> int:
    """A frequency component: an int, or an integer-valued float; not a bool."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"frequencies must be integers, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class Observable:
    """A trig polynomial on a rotation factor: the sum of c e(k . x) over
    its terms (k, c), e(s) = exp(2 pi i s).  The constructor checks that
    there is a term and that the frequency tuples share one length and
    hold integers (ValueError otherwise); it stores ints and complexes."""

    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        terms = tuple((tuple(map(_frequency, k)), complex(c)) for k, c in self.terms)
        if len({len(k) for k, _ in terms}) != 1:
            raise ValueError(f"needs one or more terms whose frequency tuples share "
                             f"one length, got {[k for k, _ in terms]}")
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def exponential(*freq: int) -> "Observable":
        return Observable(((freq, 1.0 + 0j),))

    @staticmethod
    def cosine(*freq: int) -> "Observable":
        mk = tuple(-v for v in freq)
        return Observable(((freq, 0.5 + 0j), (mk, 0.5 + 0j)))

    @staticmethod
    def constant(c: complex, dim: int = 1) -> "Observable":
        return Observable((((0,) * dim, c),))

    @property
    def dim(self) -> int:
        return len(self.terms[0][0])

    def eval_phases(self, phases: np.ndarray) -> np.ndarray:
        """Evaluate at phase rows; phases has shape (..., dim).  Each term's
        k . x is the sum of k_c * phases[..., c] over the nonzero k_c, in
        column order, elementwise, so a row's bits do not depend on how
        many rows come with it (a matmul takes a dot path on one row).
        Terms are exp * c: numpy swaps c * tmp on large arrays, changing
        the bits."""
        out = np.zeros(phases.shape[:-1], dtype=complex)
        for k, c in self.terms:
            kx = [kc * phases[..., col] for col, kc in enumerate(k) if kc] or [np.zeros(out.shape)]
            out += np.exp(2j * np.pi * sum(kx[1:], kx[0])) * c
        return out

    def haar_integral(self) -> complex:
        """The exact Haar integral: the constant coefficient."""
        return sum((c for k, c in self.terms if not any(k)), 0j)


def trig_phase_step(sys: SystemHandle, f: Observable) -> np.ndarray:
    """The phase step of the rotation factor that trig observable f lives
    on: a torus, the Heisenberg base (x, y), or a suspension's base columns
    with its height.  ValueError unless f has the factor's dimension."""
    omega = sys.phase_step
    if f.dim != len(omega):
        raise ValueError(
            f"observable frequency dimension {f.dim} does not match the "
            f"rotation factor's dimension {len(omega)}")
    return omega


def require_rotation_factor(sys: SystemHandle, fs: Sequence[Observable]) -> None:
    """trig_phase_step for each observable of a family."""
    for f in fs:
        trig_phase_step(sys, f)


def require_one_per(per_name: str, items: Sequence, per: Sequence) -> None:
    if len(items) != len(per):
        raise ValueError(f"needs one per entry of {per_name} ({len(per)}), "
                         f"got {len(items)}")


# ---------------------------------------------------------------------------
# time series

def require_increasing(grid) -> None:
    if len(grid) > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")


@dataclass(frozen=True)
class TimeSeries:
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid/values length mismatch")
        require_increasing(self.grid)


# ---------------------------------------------------------------------------
# integrals and multicorrelations

def require_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    """The dilations a_1, ..., a_k as floats: distinct and nonzero."""
    out = tuple(float(a) for a in alphas)
    if len(set(out)) != len(out) or any(a == 0 for a in out):
        raise ValueError("alphas must be distinct and nonzero")
    return out


# the most frequency tuples an expansion visits, the most rotation-factor
# points, M^axes or n_samples, a correlation takes, and the most values an
# array pass holds (1 MB of complex temporaries)
EXACT_TUPLE_CAP = 200_000
POINT_CAP = 2 ** 20
_BLOCK = 2 ** 16


def require_exact_terms(fs: Sequence[Observable]) -> None:
    """ValueError when the expansion of a product of observables over its
    frequency tuples visits more than EXACT_TUPLE_CAP of them: the product
    law's, or I_f(k, t)'s of k alphas, [f] * (k + 1)."""
    n = math.prod(len(f.terms) for f in fs)
    if n > EXACT_TUPLE_CAP:
        raise ValueError(f"factors of {', '.join(str(len(f.terms)) for f in fs)} terms expand "
                         f"to {n} frequency tuples, above the exact expansion's cap of "
                         f"{EXACT_TUPLE_CAP}")


def _mesh_size(sys: SystemHandle, f: Observable, alphas: Sequence) -> tuple[int, int]:
    """M = (k + 1) F + 1 and the axis count of _mesh."""
    F = max(abs(v) for k, _ in f.terms for v in k)
    return (len(alphas) + 1) * F + 1, len(trig_phase_step(sys, f))


def _mesh(sys: SystemHandle, f: Observable, alphas: Sequence) -> np.ndarray:
    """The mesh j / M on each rotation-factor axis, a row per point, M =
    (k + 1) F + 1 for k alphas and F the largest |frequency| of f.  On each
    axis f(x) f(x + a_1 t omega) ... f(x + a_k t omega) has frequencies
    |m| <= (k + 1) F < M, and the mean of e(m x + c) over j / M vanishes
    for 0 < |m| < M, so the mean over the mesh is its integral at every t."""
    M, axes = _mesh_size(sys, f, alphas)
    return np.stack(np.meshgrid(*[np.arange(M) / M] * axes, indexing="ij"), -1).reshape(-1, axes)


def require_points(sys: SystemHandle, f: Observable, alphas: Sequence,
                   n_samples: int | None = None) -> None:
    """ValueError above POINT_CAP correlation points: a residual's n_samples
    on a system that is not isometric, else the mesh, which an average
    (n_samples None) builds only above EXACT_TUPLE_CAP."""
    if n_samples is None and len(f.terms) ** (len(alphas) + 1) <= EXACT_TUPLE_CAP:
        return
    M, axes = _mesh_size(sys, f, alphas)
    n, what = ((n_samples, "samples") if n_samples is not None and not sys.is_isometric
               else (M ** axes, f"mesh points ({M}^{axes})"))
    if n > POINT_CAP:
        raise ValueError(f"{n} {what}, above the correlation's cap of {POINT_CAP}")


def _exact_correlation_terms(sys: SystemHandle, f: Observable,
                             alphas: Sequence[float]):
    """Frequency bookkeeping for I_f(k, t): list of (rate, coefficient),
    or None above EXACT_TUPLE_CAP.

    Expands the product f(x) f(T^{a_1 t} x) ... f(T^{a_k t} x); only
    frequency tuples summing to zero survive the Haar integral, each
    contributing coeff-product times exp(2 pi i rate t).
    """
    omega = trig_phase_step(sys, f)
    if len(f.terms) ** (len(alphas) + 1) > EXACT_TUPLE_CAP:
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


def _sum_terms(terms, t: np.ndarray) -> np.ndarray:
    """The exact correlation sum_r c * e(r t) at each t of an array (each
    term is exp * c, as in Observable.eval_phases)."""
    return sum((np.exp(2j * np.pi * r * t) * c for r, c in terms), np.zeros(len(t), complex))


def multi_average_series(sys: SystemHandle, f: Observable,
                         alphas: Sequence[float], t_grid: Sequence[float]) -> np.ndarray:
    """I_f(k, t) = int f(x) f(T^{a_1 t} x)...f(T^{a_k t} x) dmu at each grid
    t, exactly: the exact terms, built once for the whole grid, or above
    EXACT_TUPLE_CAP the mean over _mesh.  Each value equals the one-point
    call at that t."""
    alphas = require_alphas(alphas)
    require_points(sys, f, alphas)
    ts = np.array(t_grid, dtype=float)
    terms = _exact_correlation_terms(sys, f, alphas)
    if terms is not None:
        return _sum_terms(terms, ts)
    return _phase_correlation(sys, f, alphas, _mesh(sys, f, alphas), ts)[0]


def multi_average_I(sys: SystemHandle, f: Observable, alphas: Sequence[float],
                    t: float) -> complex:
    """The correlation I_f(k, t) at one t (see multi_average_series)."""
    return complex(multi_average_series(sys, f, alphas, [t])[0])


def _phase_correlation(sys: SystemHandle, f: Observable, alphas, pts,
                       t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the rotation-factor points x of
    f(x) f(x + a_1 t omega) ... f(x + a_k t omega) at each t, in blocks of
    _BLOCK // len(pts) t-rows, by per-row work, so the bits do not depend on
    the block size (np.multiply: in place, numpy's complex multiply takes
    another path on one row, and prod * g may compute g * prod)."""
    base_vals = f.eval_phases(pts)
    values = np.empty(len(t), dtype=complex)
    stderrs = np.empty(len(t))
    size = max(1, _BLOCK // len(pts))
    for start in range(0, len(t), size):
        rows = slice(start, start + size)
        prod = np.broadcast_to(base_vals, (len(t[rows]), len(pts))).copy()
        for a in alphas:
            prod = np.multiply(prod, f.eval_phases(sys.rotate(pts, (a * t[rows])[:, None])))
        values[rows] = prod.mean(axis=1)
        stderrs[rows] = np.std(prod, axis=1) / math.sqrt(len(pts))
    return values, stderrs


# ---------------------------------------------------------------------------
# uniform density and Banach density

@dataclass(frozen=True)
class UDSupResult:
    sup: float
    table: tuple[tuple[float, float, float], ...]  # (sigma, rho, window average)


def window_spans(grid: np.ndarray, windows: Sequence[tuple[float, float]]) -> list[slice]:
    """The grid points of each window [sigma, sigma + rho], at least two."""
    spans = []
    for sigma, rho in windows:
        if sigma < grid[0] - 1e-9 or sigma + rho > grid[-1] + 1e-9:
            raise ValueError(f"window ({sigma}, {rho}) exceeds grid span")
        lo = int(np.searchsorted(grid, sigma - 1e-12, side="left"))
        hi = int(np.searchsorted(grid, sigma + rho + 1e-12, side="right"))
        if hi - lo < 2:
            raise ValueError("window contains fewer than two grid points")
        spans.append(slice(lo, hi))
    return spans


def ud_sup(series: TimeSeries, windows: Sequence[tuple[float, float]]) -> UDSupResult:
    """Max over windows of (1/rho) * integral of |phi| via the trapezoid rule."""
    grid = np.asarray(series.grid, dtype=float)
    absval = np.abs(np.asarray(series.values))
    rows = [(float(sigma), float(rho), float(np.trapezoid(absval[span], grid[span]) / rho))
            for (sigma, rho), span in zip(windows, window_spans(grid, windows))]
    return UDSupResult(max(r[2] for r in rows), tuple(rows))


def require_rho_within(rho: float, horizon: float) -> None:
    if rho > horizon:
        raise ValueError(f"{rho} exceeds the horizon {horizon}")


def banach_density(hit_times: Sequence[float], rho: float, step: float,
                   horizon: float, half_width: float = 0.05) -> tuple[float, float]:
    """Sliding-window hit-measure estimates (lower, upper).

    Hits become intervals of the given half-width; windows of length rho
    slide along [0, horizon] at the given step.
    """
    require_rho_within(rho, horizon)
    sigmas = np.arange(0.0, horizon - rho + 1e-9, step)
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
    xs, ys = [0.0], [0.0]
    for a, b in merged:
        xs.extend([a, b])
        ys.extend([ys[-1], ys[-1] + (b - a)])
    xs.append(horizon)
    ys.append(ys[-1])
    cov = (np.interp(sigmas + rho, xs, ys) - np.interp(sigmas, xs, ys)) / rho
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


def require_independent(polys: Sequence[RealPolynomial]) -> None:
    dep = polys_r_independent(polys)
    if not dep.independent:
        raise IndependenceViolation(
            f"polynomials admit the rational dependence {dep.certificate}")


def potts_average(flow_sys: SystemHandle, polys: Sequence[RealPolynomial],
                  fs: Sequence[Observable], R: float, n_x: int = 4,
                  seed: int = 0, h: float | None = None) -> ProductLawReport:
    """Deviation of the polynomial multiple time average from the product law.

    Computes (1/R) int_0^R prod_j f_j(T^{p_j(t)} x) dt by stratified
    jittered quadrature at step h (one sample per cell; a plain uniform
    grid aliases quadratic phases into Gauss-sum resonances), averaged
    over n_x sampled x, minus prod_j int f_j dmu.

    The quadrature sum is taken by frequency tuples: with f_j the sum of
    c e(k . y) over its terms, sum_x sum_t prod_j f_j(x + p_j(t) omega) is
    the sum over the tuples of one term (k_j, c_j) per f_j of prod_j c_j *
    sum_x e(K . x) * sum_t e(sum_j k_j . r_j(t)), K = sum_j k_j and r_j(t)
    the zero phase rotated by p_j(t).  The x sums come from eval_phases, the
    t sums are real cos and sin sums, one _BLOCK of nodes at a time (the
    jitter drawn in one stream).  ValueError above EXACT_TUPLE_CAP tuples.
    """
    require_one_per("polys", fs, polys)
    require_nonconstant(polys)
    require_independent(polys)
    require_rotation_factor(flow_sys, fs)
    require_exact_terms(fs)
    if h is None:
        h = min(1e-3 * math.sqrt(R), 0.01)
    n_time = int(math.ceil(R / h))
    rng = np.random.default_rng(seed)
    xs = rng.random((n_x, len(flow_sys.phase_step)))
    combos = list(itertools.product(*(f.terms for f in fs)))
    freqs = np.array([[k for k, _ in combo] for combo in combos])  # (tuple, j, column)
    sums = np.zeros((2, len(combos)))  # of cos and of sin, per tuple
    for start in range(0, n_time, _BLOCK):
        n = min(_BLOCK, n_time - start)
        ts = (np.arange(start, start + n) + rng.random(n)) * h
        cols = [flow_sys.rotate(np.zeros(xs.shape[1]), p.eval_array(ts)) for p in polys]
        batch = max(1, _BLOCK // n)  # tuples per array of about _BLOCK phases
        for b in range(0, len(combos), batch):
            k = freqs[b:b + batch, :, :, None]
            angle = 2 * np.pi * sum(k[:, j, c] * col[:, c] for j, col in enumerate(cols)
                                    for c in range(col.shape[1]))
            sums[:, b:b + batch] += np.cos(angle).sum(axis=1), np.sin(angle).sum(axis=1)
    x_sum = functools.cache(lambda *K: complex(Observable.exponential(*K).eval_phases(xs).sum()))
    total = sum(math.prod(c for _, c in combo) * x_sum(*K) * complex(cs, ss)
                for combo, K, cs, ss in zip(combos, freqs.sum(axis=1).tolist(), *sums.tolist()))
    dev = complex(total / (n_x * n_time) - math.prod(f.haar_integral() for f in fs))
    return ProductLawReport(dev, abs(dev), float(R), float(h), n_time, n_x)


# ---------------------------------------------------------------------------
# decomposition residual

@dataclass(frozen=True)
class NilfunctionReport:
    residual: TimeSeries
    stderrs: np.ndarray | None

    @property
    def exact_sampling(self) -> bool:
        return self.stderrs is None

    def residual_within_stderr(self, factor: float = 3.0) -> bool:
        if self.stderrs is None:
            raise ValueError("no Monte-Carlo stderrs available")
        return bool(np.all(np.abs(self.residual.values) <=
                           factor * np.maximum(self.stderrs, 1e-15)))


def nilfunction_residual(sys: SystemHandle, f: Observable,
                         alphas: Sequence[float], t_grid: Sequence[float],
                         n_samples: int = 10 ** 5, seed: int = 0) -> NilfunctionReport:
    """Sampled I_f(k, t) minus the predicted trig polynomial.

    Isometric systems (tori, suspensions over tori) take the mean over
    _mesh, an independent exact path (pointwise orbit evaluation, no
    frequency algebra), so the residual is float noise.  Heisenberg
    pullbacks sample by Monte-Carlo and report stderrs.
    """
    alphas = require_alphas(alphas)
    require_exact_terms([f] * (len(alphas) + 1))
    require_points(sys, f, alphas, n_samples)
    terms = _exact_correlation_terms(sys, f, alphas)
    t = np.asarray(t_grid, dtype=float)
    pred = _sum_terms(terms, t)
    stderrs = None
    if sys.is_isometric:
        sampled = _phase_correlation(sys, f, alphas, _mesh(sys, f, alphas), t)[0]
    else:
        pts = np.random.default_rng(seed).random((n_samples, len(sys.phase_step)))
        sampled, stderrs = _phase_correlation(sys, f, alphas, pts, t)
    return NilfunctionReport(TimeSeries(t, sampled - pred), stderrs)


# ---------------------------------------------------------------------------
# embeddings of Heisenberg tuples

_CENTRAL_TOL = 1e-12


def require_jstar_elements(gs: Sequence[HeisenbergElement]) -> None:
    """At most two elements (the two-step case), the second one central."""
    if len(gs) > 2:
        raise ValueError("only k <= 2 is supported on the Heisenberg group")
    if len(gs) == 2 and (abs(gs[1].x) > _CENTRAL_TOL or abs(gs[1].y) > _CENTRAL_TOL):
        raise ValueError("component must lie in the center (0, 0, z)")


def jstar_embed(gs: Sequence[HeisenbergElement],
                alphas: Sequence[float]) -> tuple[HeisenbergElement, ...]:
    """Component j is g_1^C(a_j, 1) * g_2^C(a_j, 2) (two-step case).

    The first argument lives in the full group, the second in the center.
    """
    alphas = require_alphas(alphas)
    k = len(gs)
    require_one_per("gs", alphas, gs)
    require_jstar_elements(gs)
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


def require_pair(items: Sequence) -> None:
    if len(items) != 2:
        raise ValueError(f"needs 2 entries (k = 2), got {len(items)}")


def gtilde_star_membership(tuple_hs: Sequence[HeisenbergElement],
                           alphas: Sequence[float],
                           tol: float = 1e-10) -> MembershipResult:
    """Solve the level-by-level systems and test tuple membership.

    Level one is the 2x2 system in the binomials C(a_j, 1), C(a_j, 2)
    for the base coordinates; level two reuses the same matrix for the
    central coordinates after removing the power-law cross term.  The
    tuple is a member iff re-embedding the solved preimage reproduces it.
    """
    alphas = require_alphas(alphas)
    require_pair(tuple_hs)
    require_pair(alphas)
    B = np.array([[float(binom_real(a, 1)), float(binom_real(a, 2))]
                  for a in alphas])
    det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    assert abs(det) > 1e-14, "level system singular despite distinct nonzero alphas"
    # one solve per coordinate; level two is V2(h_j) = C(a_j,1) z1 + C(a_j,2) (z2 + x1 y1)
    ux, uy, uz = (np.linalg.solve(B, np.array(col))
                  for col in zip(*(h.coords for h in tuple_hs)))
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
