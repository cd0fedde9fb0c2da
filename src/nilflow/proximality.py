"""Finite-resolution machinery for higher-order regional proximality.

Contains the witness search/verify pair for RP^[d] membership probes,
the commuting-action witness transfer, dynamical-cube and N_d cloud
samplers, Hausdorff comparison of clouds, polynomial orbit density,
return-time sets and fiber-coverage (characteristic factor) checks.

Witness search: g-grid x axis offsets, g-grid x joint offsets, then (flows,
once both are spent) a refinement near the best misses.  One loop,
_first_witness, charges a unit of budget per verified candidate and
memoises its scoring; the commuting transfer shares it.

Search semantics: a verified witness certifies the delta-resolution
membership condition; EXHAUSTED is informative only.  PROVEN-ABSENT is
issued only when the pair is at least 2 delta apart on one of the spec's
factors, on each of which the action is an isometry, so a positive gap
rules the pair out at every scale; the one rule reads the factors in
order and prints the first such gap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Sequence

import numpy as np

from .algebra import RealPolynomial, require_nonconstant
from .averages import require_alphas
from .systems import SystemHandle, map_pool, unit_mod, usable_cpus

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

    def to_jsonable(self) -> dict:
        return {"x_prime": list(self.x_prime), "y_prime": list(self.y_prime),
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

    def to_jsonable(self) -> dict:
        out = {"status": self.status, "checked": self.checked,
               "best_gap": self.best_gap, "verified": self.found}
        if self.witness is not None:
            out["witness"] = {**self.witness.to_jsonable(),
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

def witness_max_gap(sys: SystemHandle, x, y, witness: RPWitness,
                    memo: tuple | None = None) -> float:
    """Max over the 2 base inequalities and the 2^d - 1 face inequalities.

    memo, passed by _first_witness, is a pair (dist, evolve) of memoised
    stand-ins for sys.dist on the base pairs (x, x') and (y, y') and for
    sys.evolve on the face images, keyed by the points, which are
    coordinate tuples; each returns what the call it stands for returns,
    so the gap has the same bits with or without it.  The face distances
    are always computed: each (x', y') pair is new.
    """
    base, image = memo or (sys.dist, sys.evolve)
    gaps = [base(x, witness.x_prime), base(y, witness.y_prime)]
    for eps in face_vectors(witness.order):
        t = sum(g for g, e in zip(witness.g, eps) if e)
        gaps.append(sys.dist(image(witness.x_prime, t), image(witness.y_prime, t)))
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
    return sys.from_coords(tuple(ci + oi for ci, oi in zip(p, offset)))


def _first_witness(sys: SystemHandle, x, y, candidates, delta: float, budget: int,
                   near: list | None = None) -> RPSearchResult:
    """Verify (x', y', g) candidates in order; the first delta-witness wins.

    Each verified candidate costs one unit of budget, and no candidate
    past the budget is drawn.  A miss that improves the best gap is
    appended to near as (gap, g); the best gap is None until the first
    miss, since reports are JSON, which has no infinity.

    Scoring is memoised (see witness_max_gap): the base distances
    d(x, x') and d(y, y') do not depend on g and are kept for the whole
    search; the face images evolve(p, t) are kept while g stays the same
    and dropped when it changes, so the memo holds at most the distinct
    perturbed points plus the images of one g, whatever the budget.
    Both are keyed by point value.
    """
    checked = 0
    best_gap = None
    base = cache(sys.dist)
    image = g_now = None
    for xp, yp, g in itertools.islice(candidates, budget):
        if g != g_now:
            g_now, image = g, cache(sys.evolve)
        checked += 1
        gap = witness_max_gap(sys, x, y, RPWitness(xp, yp, g, delta), (base, image))
        if gap < delta:
            return RPSearchResult(WITNESS, RPWitness(xp, yp, g, gap), checked, best_gap)
        if best_gap is None or gap < best_gap:
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
    for factor in sys.spec.factors:
        gap = factor.gap(x, y)
        if gap >= 2 * delta and factor.name != "heisenberg-base":  # ROADMAP item 1 drops this skip
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

    px, py = cache(partial(_perturb, sys, x)), cache(partial(_perturb, sys, y))
    candidates = ((px(dx), py(dy), g)
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
    require_commuting(sysG, sysH, x, y, witnessG.x_prime)
    gap = witness_max_gap(sysG, x, y, witnessG)  # rp_witness_verify, keeping the gap
    if not gap < delta_out / 3.0:
        raise ValueError("witnessG does not verify at delta_out/3")
    if sysG == sysH:
        return RPSearchResult(WITNESS, witnessG, 0, gap)

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
            "d": d, "base_point": list(x)}
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
            "alphas": list(alphas), "base_point": list(x)}
    return PointCloud(pts, meta, sys)


# ---------------------------------------------------------------------------
# Hausdorff distance

_BOUND_STRIDE = 64


def require_comparable(sysG: SystemHandle, sysH: SystemHandle) -> None:
    if sysH.tag != sysG.tag:
        raise ValueError(f"a {sysH.tag} cloud cannot be compared with a {sysG.tag} "
                         f"cloud (clouds live over different system metrics)")


def periodic_linf(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distances of the rows of u to the rows of v, both (n, k) arrays of
    [0, 1) coordinates, under the periodic max metric, bit for bit as
    cKDTree.query(p=inf) computes them on a unit box: per axis x = u - v,
    wrapped by 1 beyond +-0.5, then |x|, then the maximum over the axes.
    On (-1, 1) the wrap is x - rint(x): rint(x) is +-1 beyond +-0.5 and
    0 elsewhere (0.5 rounds to the even 0), and x - (-1) rounds as 1 + x."""
    dist = np.zeros(len(u))
    for c in range(u.shape[1]):  # column by column: see SystemHandle.rotate
        x = u[:, c] - v[:, c]
        x -= np.rint(x)
        np.maximum(dist, np.abs(x, out=x), out=dist)
    return dist


def _cell_keys(f: np.ndarray, m: int, key: np.ndarray | None = None) -> np.ndarray:
    """The cell of each row of f on the grid of m cells per axis, numbered
    in int64 (the caller keeps m^k < 2^63); extends a given key in place."""
    key = np.zeros(len(f), dtype=np.int64) if key is None else key
    cell = np.empty(len(f), dtype=np.int64)
    for col in f.T:
        np.multiply(col, m, out=cell, casting="unsafe")
        key *= m
        key += np.minimum(cell, m - 1, out=cell)
    return key


def _cells_per_axis(bound: float, k: int) -> int:
    """m = ceil(1 / bound) > 0, capped so that m^k < 2^63 (an int64 numbers
    the cells) and m <= 2^53 (col * m is exact); the cap at bound 0."""
    cap = min(2 ** 53, int(2.0 ** (63 / k)))
    while cap ** k >= 2 ** 63:
        cap -= 1
    inv = 1.0 / bound if bound > 0 else math.inf
    return cap if inv >= cap else math.ceil(inv)


def _key_order(f: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of f sorted by _cell_keys, and their keys in that order."""
    key = _cell_keys(f, m)
    order = np.argsort(key)
    return order, key[order]


_ROW_BLOCK = 2 ** 14  # rows per block: temporaries that stay in cache and out of malloc arenas


def _certified(f: np.ndarray, keyed, g: np.ndarray, g_keyed, bound: float) -> np.ndarray:
    """Mask of the rows of f certified to lie closer than bound to g, given
    the _key_order of f and of g on one grid: a row is certified when the
    row of g that searchsorted finds for its key in g's sorted keys (the
    last one when none is larger), or else the row just before that one,
    is at periodic_linf distance < bound.  At bound 0 no row is."""
    (order, keys), (g_order, g_keys) = keyed, g_keyed
    close = np.empty(len(f), dtype=bool)
    for start in range(0, len(f), _ROW_BLOCK):  # small blocks, in key order
        block = slice(start, start + _ROW_BLOCK)
        rank = np.minimum(np.searchsorted(g_keys, keys[block]), len(g_keys) - 1)
        # np.take gathers rows several times faster than fancy indexing
        u = np.take(f, order[block], axis=0)
        ok = periodic_linf(u, np.take(g, g_order[rank], axis=0)) < bound
        left = np.flatnonzero(~ok)
        ok[left] = periodic_linf(np.take(u, left, axis=0),
                                 np.take(g, g_order[rank[left] - 1], axis=0)) < bound
        close[order[block]] = ok
    return close


def _directed(tree, f, leaf_order, keyed, g, g_keyed, bound: float) -> float:
    """The larger of bound and the distances to g, whose tree is tree, of
    the rows of f that _certified leaves, queried in leaf_order."""
    need = ~_certified(f, keyed, g, g_keyed, bound)
    q = np.take(f, leaf_order[need[leaf_order]], axis=0)
    beyond = np.isinf(tree.query(q, p=np.inf, distance_upper_bound=bound)[0])
    return max(bound, tree.query(q[beyond], p=np.inf)[0].max()) if beyond.any() else bound


def hausdorff_distance(a: PointCloud, b: PointCloud) -> float:
    """Hausdorff distance between finite clouds under the product max metric.

    On isometric (torus) systems the clouds are flat points of a periodic
    unit box and the distance comes from periodic KD-trees, in the
    early-break manner of Taha & Hanbury (TPAMI 2015):

    1. each cloud is queried against the other's tree in the leaf order
       of its own tree, so consecutive queries reach the same subtrees;
    2. every 64th query row, in both directions, gives a lower bound:
       a nearest-neighbour distance that some point attains;
    3. rows that one of their two neighbours in cell-key order certifies
       (see _certified) are dropped: such a row has a point of the other
       cloud closer than the bound, so its nearest-neighbour distance is
       below the bound;
    4. the other rows are queried with the bound as
       ``distance_upper_bound``, and only the rows that come back ``inf``
       are queried again without it.  scipy's bound is strict (a row at
       exactly the bound, and every row when the bound is 0, comes back
       ``inf``), so ``inf`` only ever means "query again", never a
       distance.

    Each direction (_directed) returns the larger of the bound and its
    re-queried rows, and the result is the larger of the two.  It is
    exact, bit for bit: every kept number is an exact nearest-neighbour
    distance (``eps=0``), the query order only permutes the rows, and
    the bound is attained, so the maximum of the bound and the
    re-queried rows is the maximum over all rows.  A certificate is a
    distance computed as scipy computes it, so the nearest-neighbour
    distance of a certified row is at most that distance, below the
    bound: the rows of steps 3 and 4 that leave out a distance both
    leave out one below the bound.  The two trees, the two keyed sorts
    and the two directions are three pairs of map_pool tasks, and the
    bound's queries run on every usable CPU; no task reads what its pair
    writes, each row's distance is its own, and a maximum does not
    depend on the order of its operands, so the worker count moves no bit.

    Other systems (Heisenberg, suspensions) take the scalar max-min-max
    over sys.dist (_scalar_directed), which skips the pairs and rows that
    cannot change it, by the early-exit argument of the systems module.
    On every system an empty cloud is at inf from a nonempty one and at
    0.0 from an empty one, as _scalar_directed gives.
    """
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    require_comparable(a.system, b.system)
    if not (a.n and b.n):
        return 0.0 if a.n == b.n else math.inf
    sys = a.system
    if sys.is_isometric:
        from scipy.spatial import cKDTree
        fa, fb = unit_mod(a.flat()), unit_mod(b.flat())
        # unbalanced, non-compacted trees build faster and query no slower here
        ta, tb = map_pool(partial(cKDTree, boxsize=1.0, balanced_tree=False,
                                  compact_nodes=False), (fa, fb))
        bound = max(tree.query(np.take(f, order[::_BOUND_STRIDE], axis=0), p=np.inf,
                               workers=usable_cpus())[0].max()
                    for tree, f, order in ((tb, fa, ta.indices), (ta, fb, tb.indices)))
        ka, kb = map_pool(partial(_key_order, m=_cells_per_axis(bound, fa.shape[1])),
                          (fa, fb))
        return float(max(map_pool(lambda task: _directed(*task, bound),
                                  ((tb, fa, ta.indices, ka, fb, kb),
                                   (ta, fb, tb.indices, kb, fa, ka)))))

    pa, pb = ([[sys.from_coords(c) for c in row] for row in cloud.points] for cloud in (a, b))
    return max(_scalar_directed(sys.dist, pa, pb), _scalar_directed(sys.dist, pb, pa))


def _scalar_directed(dist, us, vs) -> float:
    """max over the tuples u of us of min over the tuples v of vs of max
    over components of dist(u_i, v_i); 0.0 when us is empty, inf when only
    vs is.  A pair stops once its running maximum reaches u's running
    nearest gap, and u stops once that gap is at or below the maximum found
    so far, since u can then no longer raise it."""
    worst = 0.0
    for u in us:
        near = math.inf
        for v in vs:
            gap = 0.0
            for ui, vi in zip(u, v):
                d = dist(ui, vi)
                if d > gap:
                    gap = d
                    if gap >= near:
                        break
            else:
                near = gap
                if near <= worst:
                    break
        if near > worst:
            worst = near
    return worst


# ---------------------------------------------------------------------------
# density and coverage probes

def require_cell_grid(resolution: float, axes: int) -> int:
    """The cells per axis, round(1 / resolution), of a grid over axes axes
    whose cells an int64 key can number: ValueError when the grid has
    2^63 cells or more."""
    inv = 1.0 / resolution
    bins = round(inv) if inv < 2.0 ** 63 else None
    if bins is None or bins ** axes >= 2 ** 63:
        raise ValueError(f"resolution {resolution} gives {inv:.6g}^{axes} cells "
                         f"({axes} axes), 2^63 or more: too many for an int64 cell key")
    return bins


def cell_coverage(blocks, n: int, resolution: float) -> float:
    """Fraction of the cells of pitch resolution that n rows hit; each
    column of each (n, k) block of [0, 1) coordinates is one grid axis
    (see require_cell_grid)."""
    key, axes, bins = np.zeros(n, dtype=np.int64), 0, 1
    for block in blocks:
        axes += block.shape[1]
        bins = require_cell_grid(resolution, axes)
        key = _cell_keys(block, bins, key)
        del block  # before the generator builds the next one
    key.sort()  # distinct keys: the first, and each unlike the one before it
    return (np.count_nonzero(key[1:] != key[:-1]) + (n > 0)) / float(bins ** axes)


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
    ts = rng.random(budget)
    ts *= t_span
    return cell_coverage((flow_sys.orbit_coords(x, p.eval_array(ts)) for p in polys),
                         budget, resolution)


def return_set(sys: SystemHandle, x, center, radius: float,
               time_grid: Sequence[float]) -> list[float]:
    """Grid times t with evolve(x, t) inside the open ball B(center, radius)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return [t for t in time_grid if sys.dist(sys.evolve(x, t), center) < radius]


def projection_table(sys: SystemHandle) -> dict[str, tuple[tuple, tuple]]:
    """Fiber name -> (constrained, free) coordinates, for each factor on the
    rotation factor that leaves some coordinates free (its complement)."""
    k, dim = len(sys.phase_step), sys.dim
    return {f.name: (f.columns, tuple(c for c in range(dim) if c not in f.columns))
            for f in sys.spec.factors if max(f.columns) < k and len(f.columns) < dim}


def require_projection(sys: SystemHandle, name: str) -> tuple[tuple, tuple]:
    """The (constrained, free) coordinates of the named projection's fibers."""
    table = projection_table(sys)
    if name not in table:
        raise ValueError(f"{name!r} does not apply to {sys.tag} of dimension "
                         f"{sys.dim} (has {sorted(table)})")
    return table[name]


def fiber_coverage(sys: SystemHandle, factor_projection: str, d: int,
                   alphas: Sequence[float], x, budget: int, resolution: float,
                   seed: int = 0, horizon: float = 1e4) -> float:
    """Coverage of the fiber power (pi^-1(pi x))^d by the diagonal orbit cloud.

    A sampled tuple enters a fiber cell when each component lies within one
    resolution of the fiber in the coordinates pi constrains (see
    projection_table); cells quantize the free ones at the same pitch.  Every
    fiber projection lies on the rotation factor, so rotate checks the
    constrained coordinates of all rows and the exact pass only evolves rows.
    """
    constrained, free = require_projection(sys, factor_projection)
    alphas = require_arm_alphas(sys, d, alphas)
    rng = np.random.default_rng(seed)
    ts = np.zeros(budget)
    np.multiply(rng.random(out=ts[1:]), horizon, out=ts[1:])
    base = np.array(x)
    keep = np.ones(budget, dtype=bool)
    for a, start in itertools.product(alphas, range(0, budget, _ROW_BLOCK)):
        rows = slice(start, start + _ROW_BLOCK)  # cache-sized temporaries
        comp = sys.rotate(base[:len(sys.phase_step)], a * ts[rows])
        keep[rows] &= periodic_linf(comp[:, constrained], base[None, constrained]) <= resolution
    ts = ts[keep]
    frees = [sys.orbit_coords(x, a * ts)[:, list(free)] for a in alphas]
    return cell_coverage(frees, len(ts), resolution)
