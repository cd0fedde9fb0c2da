"""Finite-resolution machinery for higher-order regional proximality.

Contains the witness search/verify pair for RP^[d] membership probes,
the commuting-action witness transfer, dynamical-cube and N_d cloud
samplers, Hausdorff comparison of clouds, polynomial orbit density,
return-time sets and fiber-coverage (characteristic factor) checks.

Witness search: g-grid x axis offsets, g-grid x joint offsets, then (flows,
once both are spent) a refinement near the best misses.  One loop,
_first_witness, charges a unit of budget per verified candidate; the
commuting transfer shares it.

Search semantics: a verified witness certifies the delta-resolution
membership condition; EXHAUSTED is informative only.  PROVEN-ABSENT is a
genuine non-membership certificate for the relation, issued only when
the pair is at least 2 delta apart on an isometric factor of the system
(the spec's factor_gaps), where a positive distance already rules the
pair out at every scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import RealPolynomial, require_nonconstant
from .averages import require_alphas
from .systems import SystemHandle

WITNESS = "witness"
EXHAUSTED = "exhausted"
PROVEN_ABSENT = "proven-absent"

COMMUTATION_TOL = 1e-10


class CommutationViolation(RuntimeError):
    """The two actions failed the sample commutation check."""


# ---------------------------------------------------------------------------
# data carriers

def face_vectors(d: int, include_zero: bool = False) -> list[tuple[int, ...]]:
    """All eps in {0,1}^d, zero vector excluded unless requested."""
    if d < 1:
        raise ValueError("d must be >= 1")
    vecs = list(itertools.product((0, 1), repeat=d))
    return vecs if include_zero else [v for v in vecs if any(v)]


@dataclass(frozen=True)
class RPWitness:
    """Certificate for finite-resolution membership in RP^[d]."""

    x_prime: object
    y_prime: object
    g: tuple
    delta: float  # achieved bound: max distance over all checked inequalities

    @property
    def order(self) -> int:
        return len(self.g)

    def to_jsonable(self, sys: SystemHandle | None = None) -> dict:
        coords = (lambda p: list(sys.coords(p))) if sys else (lambda p: p)
        return {"x_prime": coords(self.x_prime), "y_prime": coords(self.y_prime),
                "g": list(self.g), "delta": self.delta}


@dataclass(frozen=True)
class RPSearchResult:
    status: str
    witness: RPWitness | None = None
    checked: int = 0
    best_gap: float | None = None

    @property
    def found(self) -> bool:
        return self.status == WITNESS

    def to_jsonable(self, sys: SystemHandle | None = None) -> dict:
        out = {"status": self.status, "checked": self.checked,
               "best_gap": self.best_gap, "verified": self.found}
        if self.witness is not None:
            out["witness"] = {**self.witness.to_jsonable(sys),
                              "verified": self.found}
        return out


@dataclass
class PointCloud:
    """Finite sample of a subset of X^m with provenance metadata; the
    arity m is the second axis of ``points``."""

    points: np.ndarray  # shape (n, arity, dim)
    meta: dict
    system: SystemHandle

    def __post_init__(self):
        if self.points.ndim != 3:
            raise ValueError("points must have shape (n, arity, dim)")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def arity(self) -> int:
        return self.points.shape[1]

    def flat(self) -> np.ndarray:
        return self.points.reshape(self.n, -1)

    def to_csv(self, path) -> None:
        np.savetxt(path, self.flat(), delimiter=",", fmt="%.17g")

    def manifest(self) -> dict:
        return {"system": self.system.tag, "arity": self.arity, "n": self.n,
                **self.meta}


# ---------------------------------------------------------------------------
# witness verification

def witness_max_gap(sys: SystemHandle, x, y, witness: RPWitness) -> float:
    """Max over the 2 base inequalities and the 2^d - 1 face inequalities."""
    gaps = [sys.dist(x, witness.x_prime), sys.dist(y, witness.y_prime)]
    for eps in face_vectors(witness.order):
        t = sum(g for g, e in zip(witness.g, eps) if e)
        gaps.append(sys.dist(sys.evolve(witness.x_prime, t),
                             sys.evolve(witness.y_prime, t)))
    return max(gaps)


def rp_witness_verify(sys: SystemHandle, x, y, witness: RPWitness,
                      delta: float) -> bool:
    """Strict check of every inequality in the RP^[d] witness condition."""
    return witness_max_gap(sys, x, y, witness) < delta


# ---------------------------------------------------------------------------
# witness search

_GRID_COUNT = 257  # group elements on each search grid


def _group_grid(sys: SystemHandle) -> list[float]:
    """Deterministic grid 0, +dt, -dt, +2dt, ...: integers for maps, the
    spec's pitch for flows."""
    dt = 1.0 if sys.discrete else sys.spec.pitch
    n = _GRID_COUNT
    out = [0.0] + [s * k * dt for k in range(1, n) for s in (1, -1)][:n - 1]
    return [int(v) for v in out] if sys.discrete else out


def _candidate_offsets(dim: int, delta: float) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Perturbation lattice inside the delta-balls, cheap candidates first:
    none, then axis sweeps of x', of y', and of both in opposite directions."""
    zero = (0.0,) * dim
    axis = [tuple(sign * j * delta / 8.0 if i == a else 0.0 for i in range(dim))
            for a in range(dim) for j in range(1, 8) for sign in (1.0, -1.0)]
    return [(zero, zero), *((o, zero) for o in axis), *((zero, o) for o in axis),
            *((o, tuple(-v for v in o)) for o in axis)]


def _joint_offsets(dim: int, delta: float) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Coarse joint lattice {0, +-delta/2}^dim on both sides (second round)."""
    vals = (0.0, delta / 2.0, -delta / 2.0)
    singles = list(itertools.product(vals, repeat=dim))
    return [(a, b) for a in singles for b in singles if a != (0.0,) * dim or b != (0.0,) * dim]


def _perturb(sys: SystemHandle, p, offset: tuple[float, ...]):
    if not any(offset):
        return p
    c = sys.coords(p)
    return sys.from_coords(tuple(ci + oi for ci, oi in zip(c, offset)))


def _first_witness(sys: SystemHandle, x, y, candidates, delta: float, budget: int,
                   near: list | None = None) -> RPSearchResult:
    """Verify (x', y', g) candidates in order; the first delta-witness wins.

    Each verified candidate costs one unit of budget, and no candidate
    past the budget is drawn.  A miss that improves the best gap is
    appended to near as (gap, g).
    """
    checked = 0
    best_gap = math.inf
    for xp, yp, g in itertools.islice(candidates, budget):
        checked += 1
        gap = witness_max_gap(sys, x, y, RPWitness(xp, yp, g, delta))
        if gap < delta:
            return RPSearchResult(WITNESS, RPWitness(xp, yp, g, gap), checked, best_gap)
        if gap < best_gap:
            best_gap = gap
            if near is not None:
                near.append((gap, g))
    return RPSearchResult(EXHAUSTED, None, checked, best_gap)


def rp_witness_search(sys: SystemHandle, x, y, d: int, delta: float,
                      budget: int) -> RPSearchResult:
    """Budget-bounded deterministic grid search for an RP^[d] witness.

    Candidate order: round one walks the group-element grid with axis
    perturbation sweeps, round two adds a coarse joint perturbation
    lattice, round three (flows) refines the grid tenfold around the
    last eight best near misses.  Within each round the order is
    lexicographic over (g-tuple index, x'-offset index, y'-offset index);
    the first verified witness wins (see _first_witness).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    for gap in sys.spec.factor_gaps(x, y):
        if gap >= 2 * delta:
            return RPSearchResult(PROVEN_ABSENT, checked=0, best_gap=gap)

    offsets = _candidate_offsets(sys.dim, delta)
    grid = _group_grid(sys)
    near: list[tuple[float, tuple]] = []

    def rounds():
        yield from ((g, offsets) for g in itertools.product(grid, repeat=d))
        joint = _joint_offsets(sys.dim, delta)
        yield from ((g, joint) for g in itertools.product(grid, repeat=d))
        if not sys.discrete:
            for _, g in sorted(near[-8:]):
                for j in (-9, -7, -5, -3, -1, 1, 3, 5, 7, 9):
                    yield tuple(gi + sys.spec.pitch * j / 10.0 for gi in g), offsets

    candidates = ((_perturb(sys, x, dx), _perturb(sys, y, dy), g)
                  for g, offset_list in rounds() for dx, dy in offset_list)
    return _first_witness(sys, x, y, candidates, delta, budget, near)


# ---------------------------------------------------------------------------
# commuting transfer

def _sample_elements(sys: SystemHandle) -> list[float]:
    return [1, 2, 5] if sys.discrete else [0.7, 1.3, 2.9]


def check_commutation(sysG: SystemHandle, sysH: SystemHandle, points) -> float:
    """Max commutator gap of the two actions over sample points/elements."""
    worst = 0.0
    for p in points:
        for g in _sample_elements(sysG):
            for h in _sample_elements(sysH):
                a = sysG.evolve(sysH.evolve(p, h), g)
                b = sysH.evolve(sysG.evolve(p, g), h)
                worst = max(worst, sysG.dist(a, b))
    return worst


def require_commuting(sysG: SystemHandle, sysH: SystemHandle, *coords) -> None:
    """CommutationViolation unless both act on one space (spec type, dim and
    suspension base) with commutator gap at most COMMUTATION_TOL at the
    points of sysG with these coordinates."""
    if (type(sysG.spec), sysG.dim, getattr(sysG.spec, "base", None)) != \
            (type(sysH.spec), sysH.dim, getattr(sysH.spec, "base", None)):
        raise CommutationViolation(
            f"a {sysH.tag} of dimension {sysH.dim} acts on a different space "
            f"than a {sysG.tag} of dimension {sysG.dim}")
    gap = check_commutation(sysG, sysH, [sysG.from_coords(c) for c in coords])
    if gap > COMMUTATION_TOL:
        raise CommutationViolation(f"sample commutation gap {gap:.3e}")


def commuting_rp_transfer(sysG: SystemHandle, sysH: SystemHandle, x, y,
                          witnessG: RPWitness, delta_out: float,
                          budget: int) -> RPSearchResult:
    """Transfer a G-witness to a commuting H-action at delta_out = 3 delta.

    Realizes the nested open-set construction numerically: for each slot j
    the candidate h's are ranked by how closely their action on x'
    tracks g_j's action, and ranked tuples are verified against the
    H-action (see _first_witness) until one passes at delta_out.
    """
    require_commuting(sysG, sysH, *(sysG.coords(p) for p in (x, y, witnessG.x_prime)))
    if not rp_witness_verify(sysG, x, y, witnessG, delta_out / 3.0):
        raise ValueError("witnessG does not verify at delta_out/3")
    if sysG == sysH:
        return RPSearchResult(WITNESS, witnessG, 0,
                              witness_max_gap(sysG, x, y, witnessG))

    grid = _group_grid(sysH)
    xp, yp = witnessG.x_prime, witnessG.y_prime
    ranked: list[list[float]] = []
    for g in witnessG.g:
        target = sysG.evolve(xp, g)
        scored = sorted(range(len(grid)),
                        key=lambda i: (sysH.dist(sysH.evolve(xp, grid[i]), target), i))
        ranked.append([grid[i] for i in scored])

    top = min(16, len(grid))
    # combined rank order: by rank sum, ties in product order
    combos = sorted(itertools.product(range(top), repeat=witnessG.order), key=sum)
    candidates = ((xp, yp, tuple(r[c] for r, c in zip(ranked, combo))) for combo in combos)
    return _first_witness(sysH, x, y, candidates, delta_out, budget)


# ---------------------------------------------------------------------------
# cloud samplers

_DEFAULT_INT_RANGE = 10 ** 4
_DEFAULT_HORIZON = 10 ** 3


def _draw_elements(sys: SystemHandle, rng, shape) -> np.ndarray:
    if sys.discrete:
        return rng.integers(0, _DEFAULT_INT_RANGE, size=shape).astype(float)
    return rng.random(shape) * _DEFAULT_HORIZON


def cube_orbit_sample(sys: SystemHandle, x, d: int, budget: int, seed: int) -> PointCloud:
    """Sample the face-group orbit of the diagonal point (x, ..., x).

    Each sample draws d group elements and emits (g^(eps) x) over all
    eps in {0,1}^d, indexed with eps_1 as the most significant bit.
    """
    rng = np.random.default_rng(seed)
    draws = _draw_elements(sys, rng, (budget, d))
    draws[0, :] = 0.0  # identity tuple first: the cloud always holds the diagonal
    eps_list = face_vectors(d, include_zero=True)
    pts = np.stack([sys.orbit_coords(x, draws @ np.array(eps, dtype=float))
                    for eps in eps_list], axis=1)
    meta = {"generator": "cube_orbit_sample", "budget": budget, "seed": seed,
            "d": d, "base_point": list(sys.coords(x))}
    return PointCloud(pts, meta, sys)


def require_arm_alphas(sys: SystemHandle, d: int,
                       alphas: Sequence[float] | None) -> tuple[float, ...]:
    """One distinct nonzero alpha per arm; None means (1, ..., d) on maps."""
    if alphas is None and not sys.discrete:
        raise ValueError("missing (flows need explicit alphas)")
    alphas = require_alphas(range(1, d + 1) if alphas is None else alphas)
    if len(alphas) != d:
        raise ValueError(f"needs d = {d} values, got {len(alphas)}")
    return alphas


def nd_sample(sys: SystemHandle, x, d: int, budget: int, seed: int,
              alphas: Sequence[float] | None = None) -> PointCloud:
    """Sample tuples (T^{a_1 t} x', ..., T^{a_d t} x') with x' on the orbit of x.

    Discrete systems default to alphas (1, ..., d) (the N_d set); flows
    require a vector of distinct nonzero alphas.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    alphas = require_arm_alphas(sys, d, alphas)
    rng = np.random.default_rng(seed)
    ts = _draw_elements(sys, rng, budget)
    ss = _draw_elements(sys, rng, budget)
    pts = np.stack([sys.orbit_coords(x, ss + a * ts) for a in alphas], axis=1)
    meta = {"generator": "nd_sample", "budget": budget, "seed": seed, "d": d,
            "alphas": list(alphas), "base_point": list(sys.coords(x))}
    return PointCloud(pts, meta, sys)


# ---------------------------------------------------------------------------
# Hausdorff distance

_BOUND_STRIDE = 64


def require_comparable(sysG: SystemHandle, sysH: SystemHandle) -> None:
    if sysH.tag != sysG.tag:
        raise ValueError(f"a {sysH.tag} cloud cannot be compared with a {sysG.tag} "
                         f"cloud (clouds live over different system metrics)")


def hausdorff_distance(a: PointCloud, b: PointCloud) -> float:
    """Hausdorff distance between finite clouds under the product max metric.

    On isometric (torus) systems the clouds are flat points of a periodic
    unit box and the distance comes from periodic KD-trees, in the
    early-break manner of Taha & Hanbury (TPAMI 2015):

    1. each cloud is queried against the other's tree in the leaf order
       of its own tree, so consecutive queries reach the same subtrees;
    2. every 64th query row, in both directions, gives a lower bound:
       a nearest-neighbour distance that some point attains;
    3. all rows are queried with that bound as ``distance_upper_bound``,
       and only the rows that come back ``inf`` are queried again
       without it.  scipy's bound is strict (a row at exactly the bound,
       and every row when the bound is 0, comes back ``inf``), so
       ``inf`` only ever means "query again", never a distance.

    The result is exact, bit for bit: every kept number is an exact
    nearest-neighbour distance (``eps=0``), the query order only
    permutes the rows, and the bound is attained, so the maximum of the
    bound and the re-queried rows is the maximum over all rows.
    """
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    require_comparable(a.system, b.system)
    sys = a.system
    if sys.is_isometric:
        from scipy.spatial import cKDTree
        fa, fb = a.flat() % 1.0, b.flat() % 1.0
        # unbalanced, non-compacted trees build faster and query no slower here
        ta, tb = (cKDTree(f, boxsize=1.0, balanced_tree=False, compact_nodes=False)
                  for f in (fa, fb))
        # (tree queried, query points, their leaf order)
        directions = ((tb, fa, ta.indices), (ta, fb, tb.indices))
        worst = max(tree.query(f[order[::_BOUND_STRIDE]], p=np.inf)[0].max()
                    for tree, f, order in directions)
        bound = worst
        for tree, f, order in directions:
            q = f[order]
            beyond = np.isinf(tree.query(q, p=np.inf, distance_upper_bound=bound)[0])
            if beyond.any():
                worst = max(worst, tree.query(q[beyond], p=np.inf)[0].max())
            del q  # one leaf-ordered copy alive at a time keeps peak memory down
        return float(worst)

    pa, pb = ([[sys.from_coords(c) for c in row] for row in cloud.points] for cloud in (a, b))

    def directed(us, vs):
        return max((min((max(map(sys.dist, u, v)) for v in vs), default=math.inf)
                    for u in us), default=0.0)

    return max(directed(pa, pb), directed(pb, pa))


# ---------------------------------------------------------------------------
# density and coverage probes

def cell_coverage(blocks, n: int, resolution: float) -> float:
    """Fraction of the cells of pitch resolution that n rows hit; each
    column of each (n, k) block of [0, 1) coordinates is one grid axis."""
    bins = int(round(1.0 / resolution))
    idx, axes = np.zeros(n, dtype=np.int64), 0
    for block in blocks:
        for col in block.T:
            idx = idx * bins + np.minimum((col * bins).astype(np.int64), bins - 1)
        axes += block.shape[1]
    return len(np.unique(idx)) / float(bins ** axes)


def require_torus(sys: SystemHandle) -> None:
    if not sys.is_isometric:
        raise ValueError(f"poly-density supports torus systems, got {sys.tag}")


def poly_orbit_density(flow_sys: SystemHandle, polys: Sequence[RealPolynomial],
                       x, budget: int, resolution: float, seed: int = 0,
                       t_span: float = 1e4) -> float:
    """Fraction of product-space resolution cells hit by (T^{p_j(t)} x)_j."""
    if not polys:
        raise ValueError("polys must be nonempty")
    require_nonconstant(polys)
    require_torus(flow_sys)
    rng = np.random.default_rng(seed)
    ts = rng.random(budget) * t_span
    return cell_coverage((flow_sys.orbit_coords(x, p.eval_array(ts)) for p in polys),
                         budget, resolution)


def return_set(sys: SystemHandle, x, center, radius: float,
               time_grid: Sequence[float]) -> list[float]:
    """Grid times t with evolve(x, t) inside the open ball B(center, radius)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return [t for t in time_grid if sys.dist(sys.evolve(x, t), center) < radius]


def require_projection(sys: SystemHandle, name: str) -> tuple[tuple, tuple]:
    """The (constrained, free) coordinates of the named projection's fibers."""
    table = sys.spec.projections
    if name not in table:
        raise ValueError(f"{name!r} does not apply to {sys.tag} of dimension "
                         f"{sys.dim} (has {sorted(table)})")
    return table[name]


def fiber_coverage(sys: SystemHandle, factor_projection: str, d: int,
                   alphas: Sequence[float], x, budget: int, resolution: float,
                   seed: int = 0, horizon: float = 1e4) -> float:
    """Coverage of the fiber power (pi^-1(pi x))^d by the diagonal orbit cloud.

    The system's projection table names, for each projection pi, the
    coordinates a fiber constrains and the free ones.  A sampled tuple
    enters a fiber cell when each component lies within one resolution of
    the fiber in the constrained coordinates; cells quantize the free
    coordinates at the same pitch.

    Constrained coordinates on the rotation factor (the leading
    len(phase_step) ones) are checked on every row through rotate; only
    the rows that pass are evolved exactly (orbit_coords), for the other
    constrained coordinates and the free ones.
    """
    constrained, free = require_projection(sys, factor_projection)
    alphas = require_arm_alphas(sys, d, alphas)
    rng = np.random.default_rng(seed)
    ts = np.concatenate([[0.0], rng.random(budget - 1) * horizon])
    base = np.array(sys.coords(x))
    k = len(sys.phase_step)

    def near(comp, cols):
        gap = np.abs(comp[:, cols] - base[cols]) % 1.0
        return (np.minimum(gap, 1.0 - gap) <= resolution).all(axis=1)

    keep = np.ones(len(ts), dtype=bool)
    for a in alphas:
        keep &= near(sys.rotate(base[:k], a * ts), [c for c in constrained if c < k])
    ts = ts[keep]
    ok = np.ones(len(ts), dtype=bool)
    frees = []
    for a in alphas:
        comp = sys.orbit_coords(x, a * ts)
        ok &= near(comp, [c for c in constrained if c >= k])
        frees.append(comp[:, list(free)])
    return cell_coverage([f[ok] for f in frees], int(ok.sum()), resolution)
