"""Finite-resolution machinery for higher-order regional proximality.

Contains the witness search/verify pair for RP^[d] membership probes,
the commuting-action witness transfer, dynamical-cube and N_d cloud
samplers, Hausdorff comparison of clouds, polynomial orbit density,
return-time sets and fiber-coverage (characteristic factor) checks.

Witness search: on isometric systems first the one-third construction,
then g-grid x axis offsets, g-grid x joint offsets, then (flows, once both
are spent) a refinement near the best misses.  One loop, _first_witness,
charges a unit of budget per candidate and memoises its scoring; the
commuting transfer shares it.

Search semantics: a verified witness certifies the delta-resolution
membership condition; EXHAUSTED is informative only.  PROVEN-ABSENT
rests on the spec's declared factors, each an equivariant projection pi
onto coordinate columns on which the action is an isometry for the
circle gap rho, and 1-Lipschitz for the system's metric.  A
delta-witness (x', y', g) gives rho(pi x, pi x') <= d(x, x') < delta,
the same for y, and on any face rho(pi x', pi y') = rho(pi g x', pi g y')
<= d(g x', g y') < delta, so rho(pi x, pi y) < 3 delta: a factor gap of
at least 3 delta proves absence at every d (the isometric-factor bound
of Host, Kra and Maass, Adv. Math. 224 (2010), and Shao and Ye,
Adv. Math. 231 (2012)).  The rule reads the factors in order, compares
each gap with 3 delta exactly, and names the first one that decides.
The bound is sharp: on a rotation, x and y moved toward each other by a
third of their displacement v give a witness whenever |v| < 3 delta,
and the search tries that candidate first on isometric systems.  The
middle inequality also prunes: a perturbation pair whose factor gap is
at least delta cannot verify under any g, so on every system such
pairs are counted without being scored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Sequence

import numpy as np

from .algebra import ONE, RealPolynomial, require_nonconstant
from .averages import require_alphas
from .systems import NilflowSpec, SystemHandle, map_pool, unit_mod, usable_cpus

WITNESS = "witness"
EXHAUSTED = "exhausted"
PROVEN_ABSENT = "proven-absent"


class CommutationViolation(ValueError):
    """The two actions do not commute."""


# ---------------------------------------------------------------------------
# data carriers

def face_vectors(d: int, include_zero: bool = False) -> list[tuple[int, ...]]:
    """All eps in {0,1}^d, zero vector excluded unless requested."""
    if d < 1:
        raise ValueError("d must be >= 1")
    vecs = list(itertools.product((0, 1), repeat=d))
    return vecs if include_zero else [v for v in vecs if any(v)]


# the most faces, 2^d, a witness check walks per scored candidate; the most
# ranked g-tuples, 16^d, a commuting transfer sorts; the most points,
# budget * 2^d, a cube sample stacks
FACE_CAP = 2 ** 10
RANKED_TUPLE_CAP = 2 ** 16
CUBE_POINT_CAP = 2 ** 22


def require_face_count(d: int) -> None:
    """ValueError when a witness of order d has more than FACE_CAP faces."""
    if d >= FACE_CAP.bit_length():
        raise ValueError(f"d = {d} gives 2^{d} faces per candidate, above the witness "
                         f"check's cap of {FACE_CAP}")


def require_transfer_order(d: int) -> None:
    """ValueError when a commuting transfer at order d would sort more than
    RANKED_TUPLE_CAP ranked g-tuples, 16^d; its 2^d faces are then within
    FACE_CAP."""
    if 4 * d >= RANKED_TUPLE_CAP.bit_length():
        raise ValueError(f"d = {d} gives 2^{d} faces and 16^{d} ranked g-tuples, above "
                         f"the transfer's cap of {RANKED_TUPLE_CAP} tuples")


def require_cube_points(d: int, budget: int) -> None:
    """ValueError when a cube sample would stack more than CUBE_POINT_CAP
    points, budget * 2^d."""
    if d >= CUBE_POINT_CAP.bit_length() or budget << d > CUBE_POINT_CAP:
        raise ValueError(f"d = {d} gives {budget} * 2^{d} points at budget {budget}, above "
                         f"the cube sample's cap of {CUBE_POINT_CAP}")


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
    """A search's outcome.  checked counts the candidates drawn, pruned
    those of them never scored; best_gap is the best scored miss; reason
    names the factor, and its gap, that proves a PROVEN_ABSENT."""

    status: str
    witness: RPWitness | None = None
    checked: int = 0
    best_gap: float | None = None
    pruned: int = 0
    reason: dict | None = None

    @property
    def found(self) -> bool:
        return self.status == WITNESS

    def to_jsonable(self) -> dict:
        out = {"status": self.status, "checked": self.checked, "pruned": self.pruned,
               "best_gap": self.best_gap, "verified": self.found}
        if self.reason is not None:
            out["reason"] = self.reason
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

@lru_cache(maxsize=256, typed=True)
def _face_times(*g) -> tuple:
    """The distinct face times sum(g_i for eps_i = 1) over the eps of
    face_vectors(len(g)), each at its first face.  Two faces with equal
    times have the same bits (a sum from int 0 is never -0.0), and typed
    keeps the ints of a map apart from the equal floats of a flow."""
    return tuple(dict.fromkeys(sum(gi for gi, e in zip(g, eps) if e)
                               for eps in face_vectors(len(g))))


def witness_max_gap(sys: SystemHandle, x, y, witness: RPWitness,
                    memo: tuple | None = None) -> float:
    """Max over the 2 base inequalities and the 2^d - 1 face inequalities.

    Each distinct face time is scored once (_face_times): faces with equal
    times give equal distances, and a max is the same with or without
    copies of an operand.  At time 0 the face distance is d(x', y'),
    since evolve(p, 0) returns p for every point the system makes (its
    from_coords is evolve at time 0); the face pairs x', y' must be such
    points.

    memo, passed by _first_witness, is a pair (dist, evolve) of memoised
    stand-ins for sys.dist on the base pairs (x, x') and (y, y') and for
    sys.evolve on the face images, keyed by the points, which are
    coordinate tuples; each returns what the call it stands for returns,
    so the gap has the same bits with or without it.  The face distances
    are always computed: each (x', y') pair is new.
    """
    base, image = memo or (sys.dist, sys.evolve)
    xp, yp = witness.x_prime, witness.y_prime
    gaps = [base(x, xp), base(y, yp)]
    for t in _face_times(*witness.g):
        gaps.append(sys.dist(image(xp, t), image(yp, t)) if t else sys.dist(xp, yp))
    return max(gaps)


def rp_witness_verify(sys: SystemHandle, x, y, witness: RPWitness,
                      delta: float) -> bool:
    """Strict check of every inequality in the RP^[d] witness condition."""
    return witness_max_gap(sys, x, y, witness) < delta


# ---------------------------------------------------------------------------
# witness search

_GRID_COUNT = 257  # group elements on each search grid
_PRUNE_SLACK = 1e-9  # far above any rounding of a scored distance (see _factor_mask)


def _group_grid(sys: SystemHandle) -> tuple:
    """Deterministic grid 0, +dt, -dt, +2dt, ...: integers for maps, the
    spec's pitch for flows."""
    return _grid(sys.discrete, 1.0 if sys.discrete else sys.spec.pitch, _GRID_COUNT)


@lru_cache(maxsize=None)
def _grid(discrete: bool, dt: float, n: int) -> tuple:
    out = [0.0] + [s * k * dt for k in range(1, n) for s in (1, -1)][:n - 1]
    return tuple(int(v) for v in out) if discrete else tuple(out)


def _offset_table(pairs: list) -> tuple:
    """(pairs, dx, dy): the (x offset, y offset) pairs as a tuple, and the
    read-only (len(pairs), dim) arrays of their x and of their y offsets."""
    dx, dy = (np.array(side, dtype=float) for side in zip(*pairs))
    dx.flags.writeable = dy.flags.writeable = False
    return tuple(pairs), dx, dy


@lru_cache(maxsize=32)
def _candidate_offsets(dim: int, delta: float) -> tuple:
    """Perturbation lattice inside the delta-balls, cheap candidates first:
    none, then axis sweeps of x', of y', and of both in opposite directions;
    an _offset_table."""
    zero = (0.0,) * dim
    axis = [tuple(sign * j * delta / 8.0 if i == a else 0.0 for i in range(dim))
            for a in range(dim) for j in range(1, 8) for sign in (1.0, -1.0)]
    return _offset_table([(zero, zero), *((o, zero) for o in axis), *((zero, o) for o in axis),
                          *((o, tuple(-v for v in o)) for o in axis)])


@lru_cache(maxsize=32)
def _joint_offsets(dim: int, delta: float) -> tuple:
    """Coarse joint lattice {0, +-delta/2}^dim on both sides (second round);
    an _offset_table."""
    vals = (0.0, delta / 2.0, -delta / 2.0)
    singles = list(itertools.product(vals, repeat=dim))
    return _offset_table([(a, b) for a in singles for b in singles
                          if a != (0.0,) * dim or b != (0.0,) * dim])


def _factor_mask(sys: SystemHandle, x, y, dx: np.ndarray, dy: np.ndarray,
                 delta: float) -> np.ndarray:
    """Which offset pairs (rows of dx and dy) leave x' = x + dx and
    y' = y + dy closer than delta on the rotation factor, whose columns
    hold every declared factor's.  The action is an isometry of each
    factor and a metric is at least its factor gaps, so every face image
    pair of x' and y' is at least their factor gap apart: a pair that
    fails here fails the face inequalities whatever g is.  The gaps are
    periodic_linf's, since x - rint(x) is the signed circle gap of any
    difference, on the coordinates before from_coords (evolve at time 0)
    reduces them; they differ from the scored distances by rounding,
    orders of magnitude below _PRUNE_SLACK, and a pair within the slack is
    kept."""
    cols = list(sys.spec.rotation.columns)
    return periodic_linf(np.add(x, dx)[:, cols], np.add(y, dy)[:, cols]) < delta + _PRUNE_SLACK


def _perturb(sys: SystemHandle, p, offset: tuple[float, ...]):
    if not any(offset):
        return p
    return sys.from_coords(tuple(ci + oi for ci, oi in zip(p, offset)))


def _one_third(sys: SystemHandle, x, y, g, d: int) -> tuple:
    """The constructed candidate on an isometric system: x and y moved
    toward each other by a third of their shortest displacement v, with
    every face element g.  Its base distances and, the action being an
    isometry, its face distances are all |v| / 3, so it verifies when the
    gap |v| is below 3 delta, up to rounding at the edge."""
    v = [(b - a + 0.5) % 1.0 - 0.5 for a, b in zip(x, y)]
    return (sys.from_coords(tuple(a + w / 3.0 for a, w in zip(x, v))),
            sys.from_coords(tuple(b - w / 3.0 for b, w in zip(y, v))), (g,) * d)


def _first_witness(sys: SystemHandle, x, y, candidates, delta: float, budget: int,
                   near: list | None = None) -> RPSearchResult:
    """Verify (x', y', g) candidates in order; the first delta-witness wins.

    Each candidate costs one unit of budget, and no candidate past the
    budget is drawn.  A candidate given as None was pruned before scoring
    (see _factor_mask): it costs its unit and counts in pruned, and it is
    never scored.  A scored miss that improves the best gap is appended to
    near as (gap, g); the best gap is None until the first scored miss,
    since reports are JSON, which has no infinity.

    Scoring is memoised (see witness_max_gap): the base distances
    d(x, x') and d(y, y') do not depend on g and are kept for the whole
    search; the face images evolve(p, t) are kept while g stays the same
    and dropped when it changes, so the memo holds at most the distinct
    perturbed points plus the images of one g, whatever the budget.
    Both are keyed by point value.
    """
    checked = pruned = 0
    best_gap = None
    base = cache(sys.dist)
    image = g_now = None
    for candidate in itertools.islice(candidates, budget):
        checked += 1
        if candidate is None:
            pruned += 1
            continue
        xp, yp, g = candidate
        if g != g_now:
            g_now, image = g, cache(sys.evolve)
        gap = witness_max_gap(sys, x, y, RPWitness(xp, yp, g, delta), (base, image))
        if gap < delta:
            return RPSearchResult(WITNESS, RPWitness(xp, yp, g, gap), checked, best_gap, pruned)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            if near is not None:
                near.append((gap, g))
    return RPSearchResult(EXHAUSTED, None, checked, best_gap, pruned)


def rp_witness_search(sys: SystemHandle, x, y, d: int, delta: float,
                      budget: int) -> RPSearchResult:
    """Budget-bounded deterministic search for an RP^[d] witness.

    First the absence rule: the first declared factor on which x and y
    are at least 3 delta apart, decided exactly (Factor.exact_gap), proves
    absence at every d (see the module docstring).  Then candidates: on an
    isometric system the one-third construction (_one_third, g the grid's
    first nonzero element) comes first.  Round one walks the group-element
    grid with axis perturbation sweeps, round two adds a coarse joint
    perturbation lattice, round three (flows) refines the grid tenfold
    around the last eight best near misses.  Within each round the order
    is lexicographic over (g-tuple index, x'-offset index, y'-offset
    index); the first verified witness wins (see _first_witness).  Each
    offset list is masked once per search by _factor_mask, and a masked
    pair is passed as a pruned candidate.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    require_face_count(d)
    edge = 3 * Fraction(delta)
    for factor in sys.spec.factors:
        gap = factor.exact_gap(x, y)
        if gap >= edge:
            return RPSearchResult(PROVEN_ABSENT, reason={"factor": factor.name,
                                                         "gap": float(gap)})

    grid = _group_grid(sys)
    near: list[tuple[float, tuple]] = []

    def entries(table):
        """The offset pairs of a table, None for each one _factor_mask prunes."""
        pairs, dx, dy = table
        keep = _factor_mask(sys, x, y, dx, dy, delta).tolist()
        return [pair if k else None for pair, k in zip(pairs, keep)]

    def rounds():
        offsets = entries(_candidate_offsets(sys.dim, delta))
        yield from ((g, offsets) for g in itertools.product(grid, repeat=d))
        joint = entries(_joint_offsets(sys.dim, delta))
        yield from ((g, joint) for g in itertools.product(grid, repeat=d))
        if not sys.discrete:
            for _, g in sorted(near[-8:]):
                for j in (-9, -7, -5, -3, -1, 1, 3, 5, 7, 9):
                    yield tuple(gi + sys.spec.pitch * j / 10.0 for gi in g), offsets

    def searched():
        px, py = cache(partial(_perturb, sys, x)), cache(partial(_perturb, sys, y))
        for g, pairs in rounds():
            for pair in pairs:
                yield None if pair is None else (px(pair[0]), py(pair[1]), g)

    first = [_one_third(sys, x, y, grid[1], d)] if sys.is_isometric else []
    return _first_witness(sys, x, y, itertools.chain(first, searched()), delta, budget, near)


# ---------------------------------------------------------------------------
# commuting transfer

def require_commuting(sysG: SystemHandle, sysH: SystemHandle) -> None:
    """CommutationViolation unless the two actions commute, decided exactly.

    Both act on one space (spec type, dim and suspension base).  Torus
    actions on one torus commute, and suspensions of one spec are one flow.
    On the Heisenberg nilmanifold a^s and b^t (s, t a map's step, any real
    time of a flow) have the commutator (0, 0, s*t*c), c = a_x*b_y - a_y*b_x,
    trivial iff s*t*c is an integer.  c is exact, from the specs' exact
    freqs by the product table of their basis, which every NilflowSpec
    holds (equal freqs need no product; z never enters).  With c != 0 a
    flow commutes with nothing, and if c is irrational no two maps do.
    """
    spec, other = sysG.spec, sysH.spec
    if (type(spec), sysG.dim, getattr(spec, "base", None)) != \
            (type(other), sysH.dim, getattr(other, "base", None)):
        raise CommutationViolation(f"a {sysH.tag} of dimension {sysH.dim} acts on a different "
                                   f"space than a {sysG.tag} of dimension {sysG.dim}")
    if not isinstance(spec, NilflowSpec) or spec.freqs == other.freqs:
        return
    (ax, ay), (bx, by) = spec.freqs, other.freqs
    c = spec.basis.multiply(ax, by) - spec.basis.multiply(ay, bx)
    if c.is_zero:
        return
    named = f"the commutator of the generators is central with c = {c}"
    if not (sysG.discrete and sysH.discrete):
        raise CommutationViolation(f"{named}, so a flow commutes with no other action")
    turns = c.scale(Fraction(sysG.step) * Fraction(sysH.step)).as_dict()  # float steps are exact
    if turns.keys() - {ONE} or turns.get(ONE, 0).denominator != 1:
        raise CommutationViolation(f"{named}, " + (
            "which has an irrational part, so no pair of steps makes the maps commute"
            if turns.keys() - {ONE} else f"and s*t*c = {turns[ONE]} is not an integer"))


def commuting_rp_transfer(sysG: SystemHandle, sysH: SystemHandle, x, y,
                          witnessG: RPWitness, delta_out: float,
                          budget: int) -> RPSearchResult:
    """Transfer a G-witness to a commuting H-action at delta_out = 3 delta.

    Realizes the nested open-set construction numerically: for each slot j
    the candidate h's are ranked by how closely their action on x'
    tracks g_j's action, and ranked tuples are verified against the
    H-action (see _first_witness) until one passes at delta_out.
    """
    require_commuting(sysG, sysH)
    require_transfer_order(witnessG.order)
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
    require_cube_points(d, budget)
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


def _cell_keys(f: np.ndarray, m: int) -> np.ndarray:
    """The cell of each row of f on the grid of m cells per axis, numbered
    in int64 (the caller keeps m^k < 2^63)."""
    key = np.zeros(len(f), dtype=np.int64)
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


def _uncertified(f: np.ndarray, keyed, g: np.ndarray, g_keyed, bound: float) -> np.ndarray:
    """The rows of f not certified to lie closer than bound to g, as indices
    in the key order of f, given the _key_order of f and of g on one grid:
    a row is certified when the row of g that searchsorted finds for its key
    in g's sorted keys (the last one when none is larger), or else the row
    just before that one, is at periodic_linf distance < bound.  At bound 0
    no row is."""
    (order, keys), (g_order, g_keys) = keyed, g_keyed
    need = []
    for start in range(0, len(f), _ROW_BLOCK):  # small blocks, in key order
        block = slice(start, start + _ROW_BLOCK)
        rank = np.minimum(np.searchsorted(g_keys, keys[block]), len(g_keys) - 1)
        # np.take gathers rows several times faster than fancy indexing
        u = np.take(f, order[block], axis=0)
        left = np.flatnonzero(~(periodic_linf(u, np.take(g, g_order[rank], axis=0)) < bound))
        far = ~(periodic_linf(np.take(u, left, axis=0),
                              np.take(g, g_order[rank[left] - 1], axis=0)) < bound)
        need.append(order[block][left[far]])
    return np.concatenate(need)


def _directed(tree, f, keyed, g, g_keyed, bound: float) -> float:
    """The larger of bound and the distances to g, whose tree is tree, of
    the rows of f that _uncertified leaves, each queried once."""
    q = np.take(f, _uncertified(f, keyed, g, g_keyed, bound), axis=0)
    return tree.query(q, p=np.inf)[0].max(initial=bound)


def hausdorff_distance(a: PointCloud, b: PointCloud) -> float:
    """Hausdorff distance between finite clouds under the product max metric.

    On isometric systems (tori, suspensions over tori) the clouds are flat
    points of a periodic unit box and the distance comes from periodic
    KD-trees, in the early-break manner of Taha & Hanbury (TPAMI 2015):

    1. every 64th row of each cloud, queried against the other's tree,
       gives a lower bound: a nearest-neighbour distance that some row
       attains;
    2. rows that one of their two neighbours in the other cloud's
       cell-key order certifies (see _uncertified) are dropped: such a row
       has a point of the other cloud closer than the bound, so its
       nearest-neighbour distance is below the bound;
    3. the other rows are queried once each, in cell-key order, against
       the other cloud's tree.

    Each direction (_directed) returns the larger of the bound and its
    queried rows, and the result is the larger of the two.  It is exact,
    bit for bit: every kept number is an exact nearest-neighbour distance
    (``eps=0``), the bound is attained, and a certificate is a distance
    computed as scipy computes it, so the nearest-neighbour distance of a
    certified row is at most that distance, below the bound; the maximum
    of the bound and the queried rows is therefore the maximum over all
    rows.  The two trees, the two keyed sorts and the two directions are
    three pairs of map_pool tasks, and the bound's queries run on every
    usable CPU; no task reads what its pair writes, each row's distance is
    its own, and a maximum does not depend on the order of its operands,
    so neither the row order nor the worker count moves a bit.

    Other systems (Heisenberg, suspensions over it) take the scalar max-min-max
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
        bound = max(tree.query(f[::_BOUND_STRIDE], p=np.inf, workers=usable_cpus())[0].max()
                    for tree, f in ((tb, fa), (ta, fb)))
        ka, kb = map_pool(partial(_key_order, m=_cells_per_axis(bound, fa.shape[1])),
                          (fa, fb))
        return float(max(map_pool(lambda task: _directed(*task, bound),
                                  ((tb, fa, ka, fb, kb), (ta, fb, kb, fa, ka)))))

    pa, pb = a.points.tolist(), b.points.tolist()
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
    """Fraction of the cells of pitch resolution that the rows of blocks
    hit: an iterable of (r, k) row blocks of [0, 1) coordinates, n rows in
    all at most, whose k columns are the grid axes.  require_cell_grid runs
    once, on the first block's k; a block of another width is a ValueError.

    A grid of at most n cells marks its hits in a bool array and pulls no
    block once every cell is hit, since a count of hit cells that has
    reached the number of cells is final.  A larger grid cannot fill: its
    keys are sorted and counted once every block is read."""
    k = None
    for block in blocks:
        if k is None:
            k = block.shape[1]
            bins = require_cell_grid(resolution, k)
            cells = bins ** k
            hit, keys = np.zeros(cells, dtype=bool) if cells <= n else None, []
        elif block.shape[1] != k:
            raise ValueError(f"a row block of {block.shape[1]} columns after "
                             f"blocks of {k}")
        key = _cell_keys(block, bins)
        del block  # before the generator builds the next one
        if hit is None:
            keys.append(key)
        else:
            hit[key] = True
            if np.count_nonzero(hit) == cells:
                break
    if k is None:
        raise ValueError("cell_coverage needs one or more row blocks")
    if hit is not None:
        return np.count_nonzero(hit) / float(cells)
    key = np.concatenate(keys)
    key.sort()  # distinct keys: the first, and each unlike the one before it
    return (np.count_nonzero(key[1:] != key[:-1]) + (len(key) > 0)) / float(cells)


def _row_starts(n: int) -> range:
    """The first row of each block of _ROW_BLOCK rows that covers range(n);
    one empty block when n is 0, so that a probe always yields a block."""
    return range(0, max(n, 1), _ROW_BLOCK)


def require_torus(sys: SystemHandle) -> None:
    if not sys.is_isometric:
        raise ValueError(f"poly-density supports torus systems, got {sys.tag}")


def poly_orbit_density(flow_sys: SystemHandle, polys: Sequence[RealPolynomial],
                       x, budget: int, resolution: float, seed: int = 0,
                       t_span: float = 1e4) -> float:
    """Fraction of product-space resolution cells hit by (T^{p_j(t)} x)_j
    over budget seeded times in [0, t_span).  The times are drawn one block
    of _ROW_BLOCK rows at a time, and cell_coverage stops pulling blocks
    once every cell is hit: Generator.random gives the same doubles in
    chunks as in one call, so the value is that of all the rows.
    """
    if not polys:
        raise ValueError("polys must be nonempty")
    require_nonconstant(polys)
    require_torus(flow_sys)
    rng = np.random.default_rng(seed)

    def blocks():
        for start in _row_starts(budget):
            ts = rng.random(min(_ROW_BLOCK, budget - start))
            ts *= t_span
            yield np.hstack([flow_sys.orbit_coords(x, p.eval_array(ts)) for p in polys])

    return cell_coverage(blocks(), budget, resolution)


def return_set(sys: SystemHandle, x, center, radius: float,
               time_grid: Sequence[float]) -> list[float]:
    """Grid times t with evolve(x, t) inside the open ball B(center, radius)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return [t for t in time_grid if sys.dist(sys.evolve(x, t), center) < radius]


def projection_table(sys: SystemHandle) -> dict[str, tuple[tuple, tuple]]:
    """Fiber name -> (constrained, free) coordinates, for each factor (all lie
    inside the rotation factor) that leaves some coordinates free (its complement)."""
    return {f.name: (f.columns, tuple(c for c in range(sys.dim) if c not in f.columns))
            for f in sys.spec.factors if len(f.columns) < sys.dim}


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
    projection_table); cells quantize the free ones at the same pitch.  The
    budget times (the first is 0) are drawn one block of _ROW_BLOCK rows at
    a time.  Every fiber projection lies on the rotation factor, so rotate
    checks a block's constrained coordinates and the exact pass evolves
    only its kept rows; cell_coverage stops pulling blocks once every cell
    is hit, and the value is that of all the rows (see poly_orbit_density).
    """
    constrained, free = require_projection(sys, factor_projection)
    alphas = require_arm_alphas(sys, d, alphas)
    rng = np.random.default_rng(seed)
    base, free, rotation = np.array(x), list(free), sys.spec.rotation.columns
    phases, positions = base[list(rotation)], [rotation.index(c) for c in constrained]

    def blocks():
        for start in _row_starts(budget):
            ts = np.zeros(min(_ROW_BLOCK, budget - start))
            drawn = ts[1:] if start == 0 else ts  # row 0 is the time 0
            np.multiply(rng.random(out=drawn), horizon, out=drawn)
            keep = np.ones(len(ts), dtype=bool)
            for a in alphas:
                comp = sys.rotate(phases, a * ts)
                keep &= periodic_linf(comp[:, positions], base[None, constrained]) <= resolution
            ts = ts[keep]
            yield np.hstack([sys.orbit_coords(x, a * ts)[:, free] for a in alphas])

    return cell_coverage(blocks(), budget, resolution)
