import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nilflow import proximality
from nilflow.algebra import Basis, RealPolynomial, SymbolicReal, UnsupportedBasisError
from nilflow.cli import build_system, run
from nilflow.proximality import (EXHAUSTED, PROVEN_ABSENT, WITNESS,
                                 CommutationViolation, PointCloud, RPWitness,
                                 cell_coverage, commuting_rp_transfer,
                                 cube_orbit_sample, face_vectors,
                                 fiber_coverage, hausdorff_distance, nd_sample,
                                 poly_orbit_density, projection_table,
                                 require_cell_grid, require_commuting,
                                 require_projection, return_set,
                                 rp_witness_search, rp_witness_verify,
                                 witness_max_gap)
from nilflow.suspension import suspend
from nilflow.systems import (HeisenbergElement, NilflowSpec, SystemHandle, circle_dist,
                             heisenberg_nilflow, torus_flow)


@pytest.fixture(scope="module")
def rot2(basis, sqrt2):
    return SystemHandle(torus_flow((sqrt2,), basis).spec, 1.0)


@pytest.fixture(scope="module")
def rot3(basis, sqrt3):
    return SystemHandle(torus_flow((sqrt3,), basis).spec, 1.0)


@pytest.fixture(scope="module")
def nilsys(basis, sqrt2, sqrt3):
    return SystemHandle(heisenberg_nilflow(sqrt2, sqrt3, basis).spec, 1.0)


def verify_reference(sys, x, y, w, delta):
    """Each inequality of the RP^[d] witness condition, checked on its own."""
    if sys.dist(x, w.x_prime) >= delta or sys.dist(y, w.y_prime) >= delta:
        return False
    for eps in face_vectors(w.order):
        t = sum(g for g, e in zip(w.g, eps) if e)
        if sys.dist(sys.evolve(w.x_prime, t), sys.evolve(w.y_prime, t)) >= delta:
            return False
    return True


def reference_max_gap(sys, x, y, w):
    """The largest gap of the RP^[d] witness condition with every face scored
    on its own, its images evolved at every time, 0 included: a reference
    for witness_max_gap, which scores each distinct face time once and reads
    the time-0 face as d(x', y')."""
    gaps = [sys.dist(x, w.x_prime), sys.dist(y, w.y_prime)]
    for eps in face_vectors(w.order):
        t = sum(g for g, e in zip(w.g, eps) if e)
        gaps.append(sys.dist(sys.evolve(w.x_prime, t), sys.evolve(w.y_prime, t)))
    return max(gaps)


def fiber_pair(nilsys, xc, c):
    x = nilsys.from_coords(tuple(xc))
    y = nilsys.from_coords((xc[0], xc[1], (xc[2] + c) % 1.0))
    return x, y


class TestFaceVectors:
    def test_counts(self):
        assert len(face_vectors(1)) == 1
        assert len(face_vectors(3)) == 7
        assert len(face_vectors(2, include_zero=True)) == 4

    def test_zero_excluded(self):
        assert (0, 0) not in face_vectors(2)

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            face_vectors(0)


class TestVerify:
    def test_diagonal_witness(self, rot2):
        x = (0.4,)
        w = RPWitness(x, x, (5,), 0.1)
        assert rp_witness_verify(rot2, x, x, w, 0.1)

    def test_boundary_is_strict(self, rot2):
        x = (0.0,)
        y = (0.25,)
        # face distance exactly delta: must fail the strict inequality
        w = RPWitness(x, y, (0,), 0.25)
        assert not rp_witness_verify(rot2, x, y, w, 0.25)
        assert rp_witness_verify(rot2, x, y, w, 0.2500001)

    def test_search_roundtrip(self, rot2):
        x = (0.31,)
        y = (0.33,)
        res = rp_witness_search(rot2, x, y, 2, 0.05, 10 ** 5)
        assert res.status == WITNESS
        assert rp_witness_verify(rot2, x, y, res.witness, 0.05)

    def test_monotone_in_delta(self, rot2):
        x = (0.31,)
        y = (0.33,)
        res = rp_witness_search(rot2, x, y, 1, 0.05, 10 ** 5)
        assert rp_witness_verify(rot2, x, y, res.witness, 0.07)
        assert rp_witness_verify(rot2, x, y, res.witness, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(heisenberg=st.booleans(), data=st.data())
    def test_verify_iff_max_gap_below_delta(self, rot2, nilsys, heisenberg, data):
        # verify holds exactly when the largest gap is below delta, and
        # agrees with each inequality of the witness condition checked alone
        sys = nilsys if heisenberg else rot2
        unit = st.floats(0.0, 1.0, exclude_max=True)

        def point():
            return sys.from_coords(tuple(data.draw(unit) for _ in range(sys.dim)))

        x, y, xp, yp = point(), point(), point(), point()
        g = tuple(data.draw(st.lists(st.integers(-40, 40), min_size=1, max_size=3)))
        w = RPWitness(xp, yp, g, 0.0)
        gap = witness_max_gap(sys, x, y, w)
        delta = data.draw(st.sampled_from([gap, math.nextafter(gap, math.inf)])
                          | st.floats(1e-6, 1.0))
        verified = rp_witness_verify(sys, x, y, w, delta)
        assert verified == (gap < delta) == verify_reference(sys, x, y, w, delta)


class TestSearch:
    def test_diagonal_pair(self, rot2):
        x = (0.8,)
        res = rp_witness_search(rot2, x, x, 3, 0.02, 10 ** 4)
        assert res.found
        assert witness_max_gap(rot2, x, x, res.witness) < 0.02

    def test_isometry_proven_absent(self, rot2):
        res = rp_witness_search(rot2, (0.0,), (0.3,),
                                1, 0.05, 10 ** 4)
        assert res.status == PROVEN_ABSENT
        assert res.checked == 0

    def test_heisenberg_fiber_pair(self, nilsys):
        x, y = fiber_pair(nilsys, (0.15, 0.6, 0.25), 0.5)
        res = rp_witness_search(nilsys, x, y, 1, 0.1, 10 ** 6)
        assert res.status == WITNESS
        assert rp_witness_verify(nilsys, x, y, res.witness, 0.1)

    def test_symmetry_of_success(self, nilsys):
        x, y = fiber_pair(nilsys, (0.7, 0.3, 0.8), 0.37)
        fwd = rp_witness_search(nilsys, x, y, 1, 0.1, 10 ** 6)
        bwd = rp_witness_search(nilsys, y, x, 1, 0.1, 10 ** 6)
        assert fwd.found and bwd.found
        # mirrored witness verifies with x'/y' swapped
        mirrored = RPWitness(fwd.witness.y_prime, fwd.witness.x_prime,
                             fwd.witness.g, fwd.witness.delta)
        assert rp_witness_verify(nilsys, y, x, mirrored, 0.1)

    def test_exhausted_reports_budget(self, nilsys):
        x, y = fiber_pair(nilsys, (0.4, 0.4, 0.1), 0.5)
        res = rp_witness_search(nilsys, x, y, 1, 0.004, 500)
        assert res.status == EXHAUSTED
        assert res.checked == 500
        assert res.best_gap is not None

    def test_invalid_arguments(self, rot2):
        x = (0.1,)
        with pytest.raises(ValueError):
            rp_witness_search(rot2, x, x, 1, -0.1, 10)
        with pytest.raises(ValueError):
            rp_witness_search(rot2, x, x, 0, 0.1, 10)


class TestSearchRounds:
    """Round three and whole-search exhaustion on a three-element grid.

    At the full grid, round three on a Heisenberg flow at d = 1 starts only
    after 257 * 127 + 257 * 728 candidates.  The pinned values were
    computed with the grid-count parameter the search had before its
    candidate loop was shared with the commuting transfer.
    """

    @pytest.fixture
    def nilflow(self, basis, sqrt2, sqrt3, monkeypatch):
        monkeypatch.setattr(proximality, "_GRID_COUNT", 3)
        return heisenberg_nilflow(sqrt2, sqrt3, basis)

    def test_round_three_witness(self, nilflow):
        x = nilflow.from_coords((0.9837499292732876, 0.002747147602664146,
                                 0.3658435291805171))
        y = nilflow.from_coords((0.987839809168345, 0.9895008270237401,
                                 0.0684096355417223))
        res = rp_witness_search(nilflow, x, y, 1, 0.1, 2692)
        assert res.status == WITNESS and res.checked == 2692
        assert res.witness.g == (-0.475,)  # off the grid {0, +-0.25}: round three
        assert res.witness.delta == 0.09826839650273615
        assert res.best_gap == 0.10244292080230784
        short = rp_witness_search(nilflow, x, y, 1, 0.1, 2691)
        assert short.status == EXHAUSTED and short.checked == 2691
        assert short.best_gap == 0.10244292080230784

    def test_base_gap_decides_first(self, nilflow):
        # a base gap of 0.5 >= 3 delta: absent, before any candidate
        x = nilflow.from_coords((0.1, 0.2, 0.3))
        y = nilflow.from_coords((0.6, 0.5, 0.9))
        res = rp_witness_search(nilflow, x, y, 1, 0.1, 10 ** 6)
        assert res.status == PROVEN_ABSENT and res.checked == 0
        assert res.reason == {"factor": "heisenberg-base", "gap": 0.5}

    def test_all_rounds_exhausted(self, nilflow):
        # a base gap of 0.2 < 3 delta: 3 * 127 + 3 * 728 grid candidates and
        # 8 * 10 * 127 in round three, most of them pruned by the base factor
        x = nilflow.from_coords((0.1, 0.2, 0.3))
        y = nilflow.from_coords((0.3, 0.2, 0.8))
        res = rp_witness_search(nilflow, x, y, 1, 0.1, 10 ** 6)
        assert res.status == EXHAUSTED and res.checked == 12725
        assert res.pruned == 12150
        assert res.best_gap == 0.30006132134016134

    def test_never_draws_past_budget(self, rot2):
        x, y = (0.1,), (0.6,)

        def candidates(budget):
            for i in range(budget):
                yield x, y, (i,)  # the rotation keeps every face gap at 0.5
            raise AssertionError("drew candidate budget + 1")

        near = []
        res = proximality._first_witness(rot2, x, y, candidates(5), 0.1, 5, near)
        assert res.status == EXHAUSTED and res.checked == 5
        # near holds each new best miss, the last one being the best gap
        assert near[0] == (0.5, (0,)) and near[-1][0] == res.best_gap
        assert res.best_gap == pytest.approx(0.5)


def reference_first_witness(sys, x, y, candidates, delta, budget, near=None):
    """The candidate loop without memoised scoring: every candidate's base
    distances and face images are computed afresh, by reference_max_gap.  A
    pruned candidate (None) is counted and not scored, as the search's mask
    asks."""
    checked = pruned = 0
    best_gap = None
    for candidate in itertools.islice(candidates, budget):
        checked += 1
        if candidate is None:
            pruned += 1
            continue
        xp, yp, g = candidate
        gap = reference_max_gap(sys, x, y, RPWitness(xp, yp, g, delta))
        if gap < delta:
            return proximality.RPSearchResult(WITNESS, RPWitness(xp, yp, g, gap),
                                              checked, best_gap, pruned)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            if near is not None:
                near.append((gap, g))
    return proximality.RPSearchResult(EXHAUSTED, None, checked, best_gap, pruned)


def run_loop(call, *, reference, grid_count=None):
    """call() with the memoised or the reference scoring; returns its result
    and the near-miss lists the search loop filled.  The reference also
    builds a fresh perturbed point for every candidate: once _first_witness
    is patched, only the search's perturbation memo reads the module's
    cache, so it is patched to the identity.  Hypothesis examples share a
    test's fixtures, so the patches are scoped here."""
    loop = reference_first_witness if reference else proximality._first_witness
    nears = []

    def recording(sys, x, y, candidates, delta, budget, near=None):
        if near is not None:
            nears.append(near)
        return loop(sys, x, y, candidates, delta, budget, near)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proximality, "_first_witness", recording)
        if reference:
            mp.setattr(proximality, "cache", lambda f: f)
        if grid_count is not None:
            mp.setattr(proximality, "_GRID_COUNT", grid_count)
        return call(), nears


def result_bits(sys, res):
    """Everything an RPSearchResult reports, floats by repr (so -0.0 != 0.0)."""
    w = res.witness
    witness = None if w is None else (tuple(map(repr, w.x_prime)),
                                      tuple(map(repr, w.y_prime)),
                                      tuple(map(repr, w.g)), repr(w.delta))
    return res.status, res.checked, res.pruned, repr(res.best_gap), res.reason, witness


def near_bits(nears):
    return [[(repr(gap), tuple(map(repr, g))) for gap, g in near] for near in nears]


_SQRT2, _SQRT3 = SymbolicReal.symbol("SQRT2"), SymbolicReal.symbol("SQRT3")
_HEIS_FLOW = heisenberg_nilflow(_SQRT2, _SQRT3, Basis.default())
_HEIS_MAP = SystemHandle(_HEIS_FLOW.spec, 1.0)
SEARCH_SYSTEMS = {
    "heisenberg-nilflow": _HEIS_FLOW,
    "heisenberg-nilsystem": _HEIS_MAP,
    "torus-map": SystemHandle(torus_flow((_SQRT2, _SQRT3), Basis.default()).spec, 1.0),
    "suspension": suspend(SystemHandle(torus_flow((_SQRT2,), Basis.default()).spec, 1.0)),
    "suspension-heisenberg": suspend(_HEIS_MAP),
}


@st.composite
def searches(draw):
    """A system, a seeded pair x, y at most 0.2 apart in each coordinate (in
    the last one only, half the time: central pairs on the nilmanifold), d,
    delta and a budget that reaches round three of the Heisenberg flow's
    search on a three-element grid."""
    kind = draw(st.sampled_from(sorted(SEARCH_SYSTEMS)))
    dim = SEARCH_SYSTEMS[kind].dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xc, shift = rng.random(dim), rng.uniform(-0.2, 0.2, dim)
    if draw(st.booleans()):
        shift[:-1] = 0.0
    d = draw(st.integers(1, 2))
    delta = draw(st.sampled_from([0.01, 0.05, 0.1, 0.2]))
    return (kind, tuple(xc.tolist()), tuple(((xc + shift) % 1.0).tolist()), d, delta,
            draw(st.integers(1, 3000)))


class TestMemoisedScoring:
    """The memoised search loop against the reference loop, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(searches())
    # every round exhausted at d = 1 and d = 2 (12725 and 17855 candidates)
    @example(("heisenberg-nilflow", (0.1, 0.2, 0.3), (0.3, 0.2, 0.8), 1, 0.1, 10 ** 6))
    @example(("heisenberg-nilflow", (0.1, 0.2, 0.3), (0.3, 0.2, 0.8), 2, 0.1, 10 ** 6))
    # a witness in round three (see TestSearchRounds)
    @example(("heisenberg-nilflow",
              (0.9837499292732876, 0.002747147602664146, 0.3658435291805171),
              (0.987839809168345, 0.9895008270237401, 0.0684096355417223), 1, 0.1, 2692))
    # rounds one and two exhausted on a map
    @example(("heisenberg-nilsystem", (0.1, 0.2, 0.3), (0.1, 0.2, 0.8), 1, 0.004, 10 ** 6))
    # y given at height -0.0: the witness moves x and y toward each other,
    # by the offset (-delta/2, -0.0), equal in value to (-delta/2, 0.0)
    @example(("suspension", (0.3, 0.0), (0.319, -0.0), 1, 0.01, 3000))
    # d = 3, where every g-tuple of the grid repeats a face time: (0, 0, 1)
    # has the times 1 and 0 only, (1, 0, 1) the times 1 and 2
    @example(("heisenberg-nilsystem", (0.1, 0.2, 0.3), (0.1, 0.2, 0.8), 3, 0.1, 2000))
    @example(("heisenberg-nilflow", (0.1, 0.2, 0.3), (0.15, 0.2, 0.6), 3, 0.1, 2000))
    def test_search_matches_reference(self, case):
        kind, xc, yc, d, delta, budget = case
        sys_h = SEARCH_SYSTEMS[kind]
        x, y = sys_h.from_coords(xc), sys_h.from_coords(yc)
        call = partial(rp_witness_search, sys_h, x, y, d, delta, budget)
        got, got_near = run_loop(call, reference=False, grid_count=3)
        want, want_near = run_loop(call, reference=True, grid_count=3)
        assert result_bits(sys_h, got) == result_bits(sys_h, want)
        assert near_bits(got_near) == near_bits(want_near)

    @settings(max_examples=20, deadline=None)
    @given(heisenberg=st.booleans(), d=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32 - 1), slack=st.floats(1.0001, 1.5),
           budget=st.integers(1, 300))
    def test_transfer_matches_reference(self, heisenberg, d, seed, slack, budget):
        # time-1 and time-1.5 maps of one nilflow, with a central pair, and
        # two circle rotations: both pairs commute
        rng = np.random.default_rng(seed)
        if heisenberg:
            sys_g, sys_h = _HEIS_MAP, SystemHandle(_HEIS_FLOW.spec, 1.5)
            delta, xc = 0.1, tuple(rng.random(3).tolist())
            yc = xc[:2] + ((xc[2] + rng.uniform(-0.5, 0.5)) % 1.0,)
        else:
            sys_g = SystemHandle(torus_flow((_SQRT2,), Basis.default()).spec, 1.0)
            sys_h = SystemHandle(torus_flow((_SQRT3,), Basis.default()).spec, 1.0)
            delta, xc = 0.05, (float(rng.random()),)
            yc = ((xc[0] + rng.uniform(-0.075, 0.075)) % 1.0,)
        x, y = sys_g.from_coords(xc), sys_g.from_coords(yc)
        found = rp_witness_search(sys_g, x, y, d, delta, 10 ** 4)
        assume(found.found)
        # just above 3 times the witness's gap, which is 0 on the diagonal
        delta_out = 3.0 * max(found.witness.delta * slack, 1e-3)
        call = partial(commuting_rp_transfer, sys_g, sys_h, x, y, found.witness,
                       delta_out, budget)
        got, _ = run_loop(call, reference=False)
        want, _ = run_loop(call, reference=True)
        assert result_bits(sys_h, got) == result_bits(sys_h, want)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(SEARCH_SYSTEMS)), seed=st.integers(0, 2 ** 32 - 1),
           gs=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=10, max_size=60),
           slack=st.floats(0.0, 0.3), budget=st.integers(1, 80))
    # d = 3 with repeated face times, and g-tuples that come back
    @example(kind="heisenberg-nilsystem", seed=7, slack=0.05, budget=80,
             gs=[(0, 0, 1), (1, 0, 1), (0, 0, 0), (1, 0, 1), (-1, 1, 0), (0, 0, 1)] * 2)
    @example(kind="heisenberg-nilflow", seed=8, slack=0.0, budget=80,
             gs=[(1, 0, 1), (0, 0, 1), (2, -2, 0), (1, 0, 1)] * 3)
    def test_loop_matches_reference(self, kind, seed, gs, slack, budget):
        # the transfer's shape, fixed x' and y' under many g, and any order of
        # g-tuples: a g may come back after another, and its images with it;
        # delta passes the base inequalities, so the faces decide
        sys_h = SEARCH_SYSTEMS[kind]
        rng = np.random.default_rng(seed)
        x, y, xp, yp = (sys_h.from_coords(tuple(c.tolist())) for c in _near_coords(rng, sys_h.dim))
        delta = max(sys_h.dist(x, xp), sys_h.dist(y, yp)) + slack
        scale = 1 if sys_h.discrete else 0.25
        candidates = [(xp, yp, tuple(scale * v for v in g)) for g in gs]
        results = []
        for loop in (proximality._first_witness, reference_first_witness):
            near = []
            res = loop(sys_h, x, y, iter(candidates), delta, budget, near)
            results.append((result_bits(sys_h, res), near_bits([near])))
        assert results[0] == results[1]


def _near_coords(rng, dim):
    """Coordinates of x, y, x' and y': x and y within 0.3 per coordinate,
    x' and y' within 0.05 of them."""
    xc = rng.random(dim)
    yc = (xc + rng.uniform(-0.3, 0.3, dim)) % 1.0
    return [xc, yc] + [(c + rng.uniform(-0.05, 0.05, dim)) % 1.0 for c in (xc, yc)]


class TestFaceTimes:
    """witness_max_gap against reference_max_gap, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(SEARCH_SYSTEMS)), seed=st.integers(0, 2 ** 32 - 1),
           g=st.lists(st.sampled_from([0, 1, -1, 2]), min_size=1, max_size=3))
    # d = 3 with face times that repeat: (0, 0, 1) has the times 1, 0, 1, 0,
    # 1, 0, 1 and (1, 0, 1) the times 1, 0, 1, 1, 2, 1, 2
    @example(kind="heisenberg-nilsystem", seed=3, g=[0, 0, 1])
    @example(kind="heisenberg-nilflow", seed=3, g=[1, 0, 1])
    @example(kind="suspension-heisenberg", seed=4, g=[1, -1, 0])
    @example(kind="torus-map", seed=5, g=[0, 0, 0])
    def test_max_gap_equals_every_face_reference(self, kind, seed, g):
        # each distinct face time scored once, and the time-0 face read as
        # d(x', y'), give the bits of every face evolved and scored
        sys = SEARCH_SYSTEMS[kind]
        x, y, xp, yp = (sys.from_coords(tuple(c.tolist()))
                        for c in _near_coords(np.random.default_rng(seed), sys.dim))
        scale = 1 if sys.discrete else 0.25
        w = RPWitness(xp, yp, tuple(scale * v for v in g), 0.0)
        assert repr(witness_max_gap(sys, x, y, w)) == repr(reference_max_gap(sys, x, y, w))


class TestScoringMemoBounds:
    """One exhausted nilsystem search at d = 1: each g-tuple runs 127 offset
    pairs with 43 distinct x' and 43 distinct y'.  Unmemoised scoring costs
    3 dist and 2 evolve calls per candidate."""

    @pytest.fixture
    def pair(self, nilsys):
        return fiber_pair(nilsys, (0.4, 0.4, 0.1), 0.5)

    def test_dist_and_evolve_calls_within_memo_bound(self, nilsys, pair, monkeypatch):
        counts = {"dist": 0, "evolve": 0}
        for name in counts:
            def counting(self, *args, name=name, fn=getattr(SystemHandle, name)):
                counts[name] += 1
                return fn(self, *args)
            monkeypatch.setattr(SystemHandle, name, counting)
        res = rp_witness_search(nilsys, *pair, 1, 0.004, 1270)
        assert res.status == EXHAUSTED and res.checked == 1270
        # one face distance per candidate plus each base distance once;
        # the 86 face images once per g-tuple, for ten g-tuples
        assert counts["dist"] <= 1270 + 2 * 43
        assert counts["evolve"] <= 10 * 2 * 43

    def test_memo_size_does_not_grow_with_budget(self, nilsys, pair, monkeypatch):
        real = proximality.witness_max_gap
        peaks = {}
        # g = 0 evolves nothing (its face is d(x', y')), so each budget covers
        # a whole g = 1 tuple: 127 candidates past the 127 of g = 0
        for budget in (400, 4000):
            sizes = []

            def recording(sys_h, x, y, witness, memo=None):
                gap = real(sys_h, x, y, witness, memo)
                sizes.append(tuple(f.cache_info().currsize for f in memo))
                return gap
            monkeypatch.setattr(proximality, "witness_max_gap", recording)
            res = rp_witness_search(nilsys, *pair, 1, 0.004, budget)
            # every candidate the factor mask keeps is scored
            assert res.status == EXHAUSTED and len(sizes) == budget - res.pruned > 0
            peaks[budget] = tuple(map(max, zip(*sizes)))
        # (base distances, face images): every base pair, and one g's images
        assert peaks[400] == peaks[4000] == (2 * 43, 2 * 43)


def exact_factor_gap(columns, p, q) -> Fraction:
    """The circle gap over the columns on the exact values of the
    coordinates, in Fractions: a reference for Factor.exact_gap."""
    def one(a, b):
        gap = abs(Fraction(a) - Fraction(b)) % 1
        return min(gap, 1 - gap)
    return max(one(p[c], q[c]) for c in columns)


TORUS_SYSTEMS = {
    "rotation": SystemHandle(torus_flow((_SQRT2,), Basis.default()).spec, 1.0),
    "torus-map": SEARCH_SYSTEMS["torus-map"],
    "torus-flow": torus_flow((_SQRT2, _SQRT3), Basis.default()),
}


class TestAbsenceRule:
    """proven-absent exactly when a declared factor gap is at least 3 delta,
    and the one-third witness below that on the torus."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(SEARCH_SYSTEMS)), seed=st.integers(0, 2 ** 32 - 1),
           d=st.integers(1, 2), delta=st.sampled_from([0.01, 0.05, 0.1, 0.12, 0.2]))
    def test_proven_absent_names_a_factor_at_3_delta(self, kind, seed, d, delta):
        sys_h = SEARCH_SYSTEMS[kind]
        x, y = (sys_h.from_coords(tuple(c.tolist()))
                for c in np.random.default_rng(seed).random((2, sys_h.dim)))
        res = rp_witness_search(sys_h, x, y, d, delta, 1)
        edge = 3 * Fraction(delta)
        deciding = [(f.name, exact_factor_gap(f.columns, x, y)) for f in sys_h.spec.factors
                    if exact_factor_gap(f.columns, x, y) >= edge]
        if res.status == PROVEN_ABSENT:
            name, gap = deciding[0]  # the first deciding factor, in declared order
            assert res.reason == {"factor": name, "gap": float(gap)} and res.checked == 0
        else:
            assert not deciding and res.reason is None and res.checked == 1

    @settings(max_examples=300, deadline=None)
    @given(u=st.floats(0.0, 1.0, exclude_max=True), sign=st.sampled_from([1.0, -1.0]),
           delta=st.sampled_from([0.01, 0.05, 0.1, 0.15]), ulps=st.integers(-4, 4))
    # the float gap reaches 3 delta here, the exact gap does not
    @example(u=0.8164373705606909, sign=1.0, delta=0.1, ulps=0)
    def test_edge_decided_exactly(self, rot2, u, sign, delta, ulps):
        v = (u + sign * 3 * delta) % 1.0
        for _ in range(abs(ulps)):
            v = math.nextafter(v, math.copysign(math.inf, ulps))
        x, y = rot2.from_coords((u,)), rot2.from_coords((v,))
        res = rp_witness_search(rot2, x, y, 1, delta, 1)
        assert (res.status == PROVEN_ABSENT) == (exact_factor_gap((0,), x, y) >= 3 * Fraction(delta))

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(TORUS_SYSTEMS)), seed=st.integers(0, 2 ** 32 - 1),
           d=st.integers(1, 3), delta=st.sampled_from([0.001, 0.01, 0.05, 0.1]),
           share=st.floats(0.0, 0.999))
    def test_torus_pairs_below_3_delta_get_the_constructed_witness(self, kind, seed, d,
                                                                  delta, share):
        # a gap of at most 0.999 * 3 delta: away from the edge, where the
        # rounding of v / 3 decides and the grid search takes over
        sys_h = TORUS_SYSTEMS[kind]
        rng = np.random.default_rng(seed)
        xc = rng.random(sys_h.dim)
        x = sys_h.from_coords(tuple(xc.tolist()))
        y = sys_h.from_coords(tuple((xc + rng.uniform(-1, 1, sys_h.dim) * 3 * delta * share).tolist()))
        res = rp_witness_search(sys_h, x, y, d, delta, 10 ** 6)
        assert res.status == WITNESS and res.checked == 1
        assert res.witness.g == (proximality._group_grid(sys_h)[1],) * d
        assert rp_witness_verify(sys_h, x, y, res.witness, delta)


class TestFactorMask:
    """The factor mask drops only candidates that cannot verify."""

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["heisenberg-nilflow", "heisenberg-nilsystem",
                                 "suspension", "suspension-heisenberg"]),
           seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 2),
           delta=st.sampled_from([0.01, 0.05, 0.1, 0.2]), share=st.floats(0.0, 1.0),
           last_only=st.booleans())
    def test_masked_search_matches_unmasked(self, kind, seed, d, delta, share, last_only):
        # pairs within 3 delta per coordinate, so that the absence rule does
        # not decide them all (in the last coordinate only, half the time);
        # on a three-element grid; a flow's budget stops before round three,
        # which starts from the best scored misses, and the mask scores
        # fewer on purpose
        sys_h = SEARCH_SYSTEMS[kind]
        rng = np.random.default_rng(seed)
        xc = rng.random(sys_h.dim)
        shift = rng.uniform(-3 * delta, 3 * delta, sys_h.dim)
        if last_only:
            shift[:-1] = 0.0
        yc = (xc + shift) % 1.0
        x, y = sys_h.from_coords(tuple(xc.tolist())), sys_h.from_coords(tuple(yc.tolist()))
        rounds = 3 ** d * sum(len(table(sys_h.dim, delta)[0]) for table in
                              (proximality._candidate_offsets, proximality._joint_offsets))
        budget = max(1, round(share * rounds)) if not sys_h.discrete else 10 ** 6
        results = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(proximality, "_GRID_COUNT", 3)
            results.append(rp_witness_search(sys_h, x, y, d, delta, budget))
            mp.setattr(proximality, "_factor_mask",
                       lambda sys_h, x, y, dx, dy, delta: np.ones(len(dx), dtype=bool))
            results.append(rp_witness_search(sys_h, x, y, d, delta, budget))
        masked, plain = results
        assert plain.pruned == 0
        assert (masked.status, masked.witness, masked.checked) == \
            (plain.status, plain.witness, plain.checked)

    def test_pruned_candidates_are_counted_not_scored(self, nilsys):
        # a central pair: the opposite-direction sweeps of x and y along the
        # base axes by 2 j delta / 8 > delta (j >= 5) are pruned, 12 of the
        # 127 round-one pairs per g; at j = 4, exactly delta, the slack keeps them
        x, y = fiber_pair(nilsys, (0.4, 0.4, 0.1), 0.5)
        res = rp_witness_search(nilsys, x, y, 1, 0.004, 1270)
        assert res.status == EXHAUSTED and res.checked == 1270 and res.pruned == 120
        assert res.to_jsonable()["pruned"] == 120


def check_commutation(sysG, sysH, coords) -> float:
    """The sampled reference of the commuting rule: the largest gap between
    g h p and h g p over the points with these coordinates and the group
    elements 1, 2, 5 of a map (0.7, 1.3, 2.9, 0.37 of a flow).  The other
    flow times can all give integers s*t*c (c = 5 against a step 2 map);
    at 0.37 = 37/100 that takes a t*c that is a nonzero multiple of 100,
    and GENERATOR_VALUES give rational c of at most 6, and maps times of
    at most 10."""
    elements = [[1, 2, 5] if s.discrete else [0.7, 1.3, 2.9, 0.37] for s in (sysG, sysH)]
    worst = 0.0
    for p in (sysG.from_coords(c) for c in coords):
        for g in elements[0]:
            for h in elements[1]:
                a = sysG.evolve(sysH.evolve(p, h), g)
                b = sysH.evolve(sysG.evolve(p, g), h)
                worst = max(worst, sysG.dist(a, b))
    return worst


# Heisenberg generator coordinates {0, 1/2, 1, sqrt2, sqrt3, sqrt6, sqrt2 + 2},
# whose products the default basis declares
GENERATOR_VALUES = [{}, {"ONE": "1/2"}, {"ONE": "1"}, {"SQRT2": "1"}, {"SQRT3": "1"},
                    {"SQRT6": "1"}, {"SQRT2": "1", "ONE": "2"}]


class TestCommutingTransfer:
    def test_precondition_gap_computed_once(self, rot2, rot3, monkeypatch):
        x, y = (0.2,), (0.23,)
        res = rp_witness_search(rot2, x, y, 1, 0.05, 10 ** 4)
        assert res.found
        real = proximality.witness_max_gap
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(proximality, "witness_max_gap", counting)
        same = commuting_rp_transfer(rot2, rot2, x, y, res.witness, 0.15, 10 ** 4)
        assert len(calls) == 1  # the precondition's gap is the shortcut's gap
        assert same.best_gap == real(rot2, x, y, res.witness) and same.checked == 0
        calls.clear()
        other = commuting_rp_transfer(rot2, rot3, x, y, res.witness, 0.15, 10 ** 4)
        assert other.found and len(calls) == 1 + other.checked
        with pytest.raises(ValueError, match="does not verify at delta_out/3"):
            commuting_rp_transfer(rot2, rot2, x, y, res.witness, 3 * res.witness.delta,
                                  10 ** 4)

    def test_same_system_returns_witness(self, rot2):
        x = (0.2,)
        res = rp_witness_search(rot2, x, x, 1, 0.05, 10 ** 4)
        tr = commuting_rp_transfer(rot2, rot2, x, x, res.witness, 0.15, 10 ** 4)
        assert tr.found
        assert tr.witness.g == res.witness.g

    def test_rotation_pair_transfers(self, rot2, rot3):
        rng = np.random.default_rng(21)
        for _ in range(10):
            u = rng.random()
            v = (u + (rng.random() - 0.5) * 0.18) % 1.0
            x, y = (u,), (v,)
            res = rp_witness_search(rot2, x, y, 1, 0.05, 10 ** 5)
            assert res.found
            tr = commuting_rp_transfer(rot2, rot3, x, y, res.witness, 0.15, 10 ** 5)
            assert tr.found
            assert rp_witness_verify(rot3, x, y, tr.witness, 0.15)

    def test_heisenberg_commuting_times(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        s1 = SystemHandle(nil.spec, 1.0)
        s2 = SystemHandle(nil.spec, math.sqrt(2))
        x = s1.from_coords((0.2, 0.6, 0.15))
        y = s1.from_coords((0.2, 0.6, 0.65))
        res = rp_witness_search(s1, x, y, 1, 0.1, 10 ** 6)
        assert res.found
        tr = commuting_rp_transfer(s1, s2, x, y, res.witness, 0.3, 10 ** 6)
        assert tr.found
        # oracle: an independent fresh search for the second action succeeds too
        fresh = rp_witness_search(s2, x, y, 1, 0.1, 10 ** 6)
        assert fresh.found

    def test_nilsystem_steps_transfer_central_pairs(self):
        """The paper's commuting theorem on a non-abelian pair: the time-1 and
        time-1.5 maps of one Heisenberg nilflow commute, so every RP^[1]
        witness of the first transfers to the second.  Central pairs lie in
        RP^[1] of this 2-step nilsystem, so the relation is not trivial."""
        delta = 0.1
        nilsystem = {"kind": "heisenberg-nilsystem", "alpha": {"SQRT2": "1"},
                     "beta": {"SQRT3": "1"}}
        cfg = {"operation": "rp-transfer", "system": {**nilsystem, "step": 1},
               "system_h": {**nilsystem, "step": 1.5}}
        sys_h = build_system(cfg["system_h"], Basis.default())
        rng = np.random.default_rng(412)
        for _ in range(20):
            base = [float(c) for c in rng.random(3)]
            gap = float(rng.uniform(0.15, 0.55))
            x, y = base, [base[0], base[1], (base[2] + gap) % 1.0]
            out = run({**cfg, "params": {"x": x, "y": y, "d": 1, "delta": delta,
                                         "require_witness": True}})["result"]
            tr = out["transfer"]
            # checked 0 would be the shortcut of one system on both sides
            assert tr["status"] == WITNESS and tr["checked"] >= 1
            w = tr["witness"]
            witness = RPWitness(sys_h.from_coords(w["x_prime"]),
                                sys_h.from_coords(w["y_prime"]), tuple(w["g"]), w["delta"])
            assert rp_witness_verify(sys_h, sys_h.from_coords(x), sys_h.from_coords(y),
                                     witness, 3 * delta)

    def test_benchmark_heisenberg_pair_does_not_commute(self, basis, sqrt2, sqrt3):
        # the cube-heisenberg pair: its commutator is central, c = sqrt10 - 3
        sqrt5 = SymbolicReal.symbol("SQRT5")
        g = SystemHandle(heisenberg_nilflow(sqrt2, sqrt3, basis).spec, 1.0)
        h = SystemHandle(heisenberg_nilflow(sqrt3, sqrt5, basis).spec, 1.0)
        with pytest.raises(UnsupportedBasisError, match="SQRT2\\*SQRT5"):
            require_commuting(g, h)
        # with SQRT10 = SQRT2 * SQRT5 declared, c is decided and named
        basis10 = Basis.default()
        basis10.declare("SQRT10", "3.16227766016837933199889354443271853372")
        basis10.declare_product("SQRT2", "SQRT5", {"SQRT10": 1})
        g, h = (SystemHandle(heisenberg_nilflow(a, b, basis10).spec, 1.0)
                for a, b in ((sqrt2, sqrt3), (sqrt3, sqrt5)))
        assert check_commutation(g, h, [(0.1, 0.2, 0.3)]) > 1e-3
        with pytest.raises(CommutationViolation, match=r"c = -3 \+ 1\*SQRT10, which has an "
                           "irrational part, so no pair of steps makes the maps commute"):
            require_commuting(g, h)

    def test_commutation_violation(self, basis, sqrt2, sqrt3):
        # left translations by (sqrt2,0,0) and (0,sqrt3,0) do not commute on X
        a = SystemHandle(heisenberg_nilflow(sqrt2, SymbolicReal.rational(0), basis).spec, 1.0)
        b = SystemHandle(heisenberg_nilflow(SymbolicReal.rational(0), sqrt3, basis).spec, 1.0)
        x = a.from_coords((0.0, 0.0, 0.0))
        gap = check_commutation(a, b, [x])
        assert gap > 1e-6
        w = RPWitness(x, x, (1,), 0.1)
        with pytest.raises(CommutationViolation, match="c = 1\\*SQRT6"):
            commuting_rp_transfer(a, b, x, x, w, 0.3, 100)

    def test_near_commuting_pair_rejected(self, basis, sqrt2, sqrt3):
        # c = sqrt2 * 10^-12: the sampled gap, 3.5e-11, is below any
        # rounding-sized tolerance, yet the commutator does not act trivially
        g = SystemHandle(heisenberg_nilflow(sqrt2, sqrt3, basis).spec, 1.0)
        near = sqrt3 + SymbolicReal.rational(Fraction(1, 10 ** 12))
        h = SystemHandle(heisenberg_nilflow(sqrt2, near, basis).spec, 1.0)
        assert check_commutation(g, h, [(0.1, 0.2, 0.3)]) < 1e-10
        with pytest.raises(CommutationViolation, match="1/1000000000000\\*SQRT2, which has "
                           "an irrational part"):
            require_commuting(g, h)

    def test_rational_commutator_decides_by_steps(self, basis, sqrt2):
        # (1/2, sqrt2) and (1/2, sqrt2 + 2): c = 1/2 (sqrt2 + 2) - sqrt2 / 2 = 1
        half = SymbolicReal.rational(Fraction(1, 2))
        g = heisenberg_nilflow(half, sqrt2, basis)
        h = heisenberg_nilflow(half, sqrt2 + SymbolicReal.rational(2), basis)
        for s, t in ((1, 1), (2, 0.5)):
            require_commuting(SystemHandle(g.spec, s), SystemHandle(h.spec, t))
        with pytest.raises(CommutationViolation, match="c = 1, and s\\*t\\*c = 1/2 is not"):
            require_commuting(SystemHandle(g.spec, 1), SystemHandle(h.spec, 0.5))
        # a flow meets every time, so with c != 0 it commutes with nothing
        for a, b in ((g, SystemHandle(h.spec, 1)), (SystemHandle(g.spec, 2), h), (g, h)):
            with pytest.raises(CommutationViolation, match="a flow commutes with no other"):
                require_commuting(a, b)
        # c = 0: a flow and any map of it commute
        require_commuting(g, SystemHandle(g.spec, math.sqrt(2)))

    def test_specs_built_directly(self, basis, sqrt2, sqrt3):
        # (sqrt2, sqrt3) against (sqrt3, sqrt2): c = sqrt2*sqrt2 - sqrt3*sqrt3
        # = -1, a rational c from irrational products, on specs built
        # without heisenberg_nilflow; each spec holds the basis c needs
        def flow(a, b):
            gen = HeisenbergElement(basis.to_float(a), basis.to_float(b), 0.0)
            return SystemHandle(NilflowSpec(gen, (a, b), basis))

        g, h = flow(sqrt2, sqrt3), flow(sqrt3, sqrt2)
        require_commuting(SystemHandle(g.spec, 1.0), SystemHandle(h.spec, 1.0))
        with pytest.raises(CommutationViolation, match="c = -1, and s\\*t\\*c = -1/2 is not "
                           "an integer"):
            require_commuting(SystemHandle(g.spec, 1.0), SystemHandle(h.spec, 0.5))
        for a, b in ((g, SystemHandle(h.spec, 1.0)), (SystemHandle(g.spec, 1.0), h), (g, h)):
            with pytest.raises(CommutationViolation, match="c = -1, so a flow commutes with no"):
                require_commuting(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.sampled_from(GENERATOR_VALUES)] * 4),
           st.tuples(*[st.sampled_from([None, 1.0, 2.0, 0.5, 1.5, -1.0])] * 2))
    @example(({"SQRT6": "1"}, {"ONE": "1"}, {"ONE": "1"}, {"SQRT6": "1"}), (None, 2.0))
    def test_rule_agrees_with_sampled_reference(self, basis, gens, steps):
        """Every pair the exact rule accepts has a sampled commutator gap at
        rounding level, and every pair it rejects a gap far above it."""
        g, h = (heisenberg_nilflow(SymbolicReal.from_coeffs(a), SymbolicReal.from_coeffs(b),
                                   basis) for a, b in (gens[:2], gens[2:]))
        g, h = (f if s is None else SystemHandle(f.spec, s) for f, s in zip((g, h), steps))
        gap = check_commutation(g, h, [(0.1, 0.2, 0.3), (0.65, 0.85, 0.4)])
        try:
            require_commuting(g, h)
        except CommutationViolation:
            assert gap >= 1e-3
        else:
            assert gap <= 1e-9

    def test_central_translates_commute_without_a_product(self):
        """A commuting pair that is not two times of one flow: the time-1 maps
        of the nilflows with generators (sqrt2, sqrt3, 0) and (sqrt2, sqrt3,
        0.37) commute, because the generators differ by a central element.
        The rule accepts them from their equal freqs, in a basis that
        declares no product at all.  A central translation is an isometry of
        the lattice-window gap, so this checks the code path of the transfer
        only, not a new case of the theorem's content."""
        bare = Basis()
        for n in (2, 3):
            bare.declare(f"SQRT{n}", Basis.default().values[f"SQRT{n}"])
        a, b = SymbolicReal.symbol("SQRT2"), SymbolicReal.symbol("SQRT3")
        s1 = SystemHandle(heisenberg_nilflow(a, b, bare).spec, 1.0)
        s2 = SystemHandle(heisenberg_nilflow(a, b, bare, z=0.37).spec, 1.0)
        assert s1 != s2
        require_commuting(s1, s2)
        delta = 0.1
        rng = np.random.default_rng(437)
        for _ in range(20):
            base = [float(c) for c in rng.random(3)]
            gap = float(rng.uniform(0.15, 0.55))
            x = s1.from_coords(base)
            y = s1.from_coords((base[0], base[1], (base[2] + gap) % 1.0))
            res = rp_witness_search(s1, x, y, 1, delta, 10 ** 5)
            assert res.found
            tr = commuting_rp_transfer(s1, s2, x, y, res.witness, 3 * delta, 10 ** 5)
            assert tr.found and tr.checked >= 1
            assert rp_witness_verify(s2, x, y, tr.witness, 3 * delta)

    def test_weak_witness_rejected(self, rot2, rot3):
        x = (0.0,)
        y = (0.08,)
        res = rp_witness_search(rot2, x, y, 1, 0.05, 10 ** 5)
        assert res.found
        # delta_out/3 below the witness scale: precondition violated
        with pytest.raises(ValueError):
            commuting_rp_transfer(rot2, rot3, x, y, res.witness, 0.003, 100)


def central_pairs(sys, seed, n):
    """n seeded central pairs of the nilmanifold: y is x with its central
    coordinate moved by a gap in [0.15, 0.55)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        base = rng.random(3).tolist()
        gap = float(rng.uniform(0.15, 0.55))
        yield sys.from_coords(base), sys.from_coords((base[0], base[1], (base[2] + gap) % 1.0))


class TestFlowAndTimeStepMaps:
    """ROADMAP item 4(d), the paper's R-flow half: the (sqrt2, sqrt3) nilflow
    beside its time-step maps, on central pairs at delta = 0.1."""

    @pytest.mark.parametrize("step", (1.0, 0.7, 2.5))
    def test_map_witness_reverifies_on_the_flow(self, step):
        """A map witness, its g read as the flow times n * step, verifies on
        the flow.  A map's evolve at n is its flow's at the float n * step, so
        at d = 1 the two gaps are bit-equal and the test checks the code path
        (the rounding of n * step against the real times is not measured); at
        d = 2 a face time n1 * step + n2 * step may round apart from the map's
        (n1 + n2) * step, so only the verification is required."""
        tmap = SystemHandle(_HEIS_FLOW.spec, step)
        delta, found = 0.1, 0
        for x, y in central_pairs(tmap, 44, 10):
            for d in (1, 2):
                res = rp_witness_search(tmap, x, y, d, delta, 1000)
                if not res.found:
                    continue
                w = res.witness
                times = RPWitness(w.x_prime, w.y_prime, tuple(n * step for n in w.g), w.delta)
                gap = witness_max_gap(_HEIS_FLOW, x, y, times)
                assert gap < delta
                if d == 1:
                    assert repr(gap) == repr(w.delta)
                found += 1
        assert found >= 15

    def test_flow_witness_transfers_to_the_step_one_map(self):
        """A flow witness whose g is not 0 transfers to the time-1 map at
        3 delta through commuting_rp_transfer: a nilflow and its time-1 map
        commute."""
        tmap = SystemHandle(_HEIS_FLOW.spec, 1.0)
        delta, moved = 0.1, 0
        for x, y in central_pairs(_HEIS_FLOW, 45, 10):
            res = rp_witness_search(_HEIS_FLOW, x, y, 1, delta, 10 ** 4)
            assert res.found
            if not any(res.witness.g):
                continue  # a pair closer than 3 delta can meet at g = 0
            tr = commuting_rp_transfer(_HEIS_FLOW, tmap, x, y, res.witness, 3 * delta, 10 ** 4)
            assert tr.found and tr.checked >= 1
            assert rp_witness_verify(tmap, x, y, tr.witness, 3 * delta)
            moved += 1
        assert moved >= 4


    @pytest.mark.parametrize("d", (1, 2))
    def test_base_gap_of_three_delta_is_absent_on_flow_maps_and_suspensions(self, d):
        """Pairs whose exact base gap is at least 3 delta end proven-absent
        before any candidate, by the heisenberg-base factor, on the flow and
        on its maps; at equal heights the suspension of each map ends so by
        its rotation factor, whose gap is then the base gap."""
        delta, found = 0.1, 0
        maps = [SystemHandle(_HEIS_FLOW.spec, step) for step in (1.0, 0.7, 2.5)]
        rng = np.random.default_rng(47)
        while found < 20:
            x, y = (_HEIS_FLOW.from_coords(rng.random(3).tolist()) for _ in range(2))
            gap = exact_factor_gap((0, 1), x, y)
            if gap < 3 * Fraction(delta):
                continue
            found += 1
            h = float(rng.random())
            cases = [(sys_h, x, y, "heisenberg-base") for sys_h in (_HEIS_FLOW, *maps)]
            cases += [(suspend(m), (*x, h), (*y, h), "suspension-rotation") for m in maps]
            for sys_h, p, q, name in cases:
                res = rp_witness_search(sys_h, sys_h.from_coords(p), sys_h.from_coords(q), d,
                                        delta, 10)
                assert res.status == PROVEN_ABSENT and res.checked == 0
                assert res.reason == {"factor": name, "gap": float(gap)}


class TestCubeSample:
    def test_budget_one_is_diagonal(self, rot2):
        x = (0.3,)
        cloud = cube_orbit_sample(rot2, x, 2, 1, seed=0)
        assert cloud.n == 1 and cloud.arity == 4
        assert np.allclose(cloud.points[0], 0.3)

    def test_rotation_parametric_structure(self, rot2):
        # components of a rotation cube satisfy c11 - c01 = c10 - c00 (mod 1)
        cloud = cube_orbit_sample(rot2, (0.1,), 2, 500, seed=1)
        a = cloud.points[:, 0, 0]
        b = cloud.points[:, 1, 0]
        c = cloud.points[:, 2, 0]
        d = cloud.points[:, 3, 0]
        gap = np.abs((d - c) % 1.0 - (b - a) % 1.0)
        gap = np.minimum(gap, 1.0 - gap)
        assert gap.max() <= 1e-9

    def test_commuting_rotations_same_cube(self, rot2, rot3):
        a = cube_orbit_sample(rot2, (0.1,), 2, 3 * 10 ** 4, seed=2)
        b = cube_orbit_sample(rot3, (0.1,), 2, 3 * 10 ** 4, seed=3)
        assert hausdorff_distance(a, b) <= 0.03

    def test_heisenberg_generic_path(self, nilsys):
        x = nilsys.from_coords((0.0, 0.0, 0.0))
        cloud = cube_orbit_sample(nilsys, x, 1, 50, seed=4)
        assert cloud.points.shape == (50, 2, 3)
        # first component is always the base point
        assert np.allclose(cloud.points[:, 0, :], 0.0)


class TestNdSample:
    def test_d1_is_orbit(self, rot2):
        cloud = nd_sample(rot2, (0.0,), 1, 100, seed=5)
        assert cloud.arity == 1

    def test_irrational_rotation_fills_plane(self, rot2):
        cloud = nd_sample(rot2, (0.0,), 2, 3 * 10 ** 4, seed=6)
        cells = np.unique((cloud.points[:, 0, 0] * 20).astype(int) * 20 +
                          (cloud.points[:, 1, 0] * 20).astype(int))
        assert len(cells) == 400

    def test_commuting_rotations_same_nd(self, rot2, rot3):
        a = nd_sample(rot2, (0.2,), 2, 3 * 10 ** 4, seed=7)
        b = nd_sample(rot3, (0.2,), 2, 3 * 10 ** 4, seed=8)
        assert hausdorff_distance(a, b) <= 0.02

    def test_alphas_must_be_distinct(self, basis, sqrt2):
        flow = torus_flow((sqrt2,), basis)
        with pytest.raises(ValueError):
            nd_sample(flow, (0.0,), 2, 10, seed=0, alphas=(1.0, 1.0))
        with pytest.raises(ValueError):
            nd_sample(flow, (0.0,), 2, 10, seed=0)


class TestHausdorff:
    def test_identical_clouds(self, rot2):
        a = nd_sample(rot2, (0.0,), 2, 500, seed=9)
        assert hausdorff_distance(a, a) == 0.0

    def test_singletons(self, rot2):
        def single(u):
            return PointCloud(np.array([[[u]]]), {}, rot2)
        assert hausdorff_distance(single(0.1), single(0.9)) == pytest.approx(0.2)

    def test_dense_cloud_vs_grid(self, rot2):
        rng = np.random.default_rng(10)
        dense = PointCloud(rng.random((2 * 10 ** 4, 1, 1)), {}, rot2)
        grid = PointCloud(np.linspace(0, 0.95, 20).reshape(20, 1, 1), {}, rot2)
        assert hausdorff_distance(dense, grid) <= 2 * 0.05

    def test_arity_mismatch(self, rot2):
        a = nd_sample(rot2, (0.0,), 1, 10, seed=11)
        b = nd_sample(rot2, (0.0,), 2, 10, seed=12)
        with pytest.raises(ValueError):
            hausdorff_distance(a, b)

    @pytest.mark.parametrize("system", ("rot2", "nilsys"))
    def test_empty_clouds(self, request, system):
        # the KD-tree branch (the rotation) and the scalar one (Heisenberg)
        sys_h = request.getfixturevalue(system)
        empty = PointCloud(np.empty((0, 1, sys_h.dim)), {}, sys_h)
        full = PointCloud(np.full((3, 1, sys_h.dim), 0.25), {}, sys_h)
        assert hausdorff_distance(empty, empty) == 0.0
        assert hausdorff_distance(empty, full) == hausdorff_distance(full, empty) == math.inf

    def test_pseudometric_on_heisenberg_clouds(self, nilsys):
        x = nilsys.from_coords((0.1, 0.5, 0.9))
        clouds = [nd_sample(nilsys, x, 1, 12, seed=s, alphas=(1,)) for s in range(3)]
        d01 = hausdorff_distance(clouds[0], clouds[1])
        d10 = hausdorff_distance(clouds[1], clouds[0])
        assert d01 == d10
        d02 = hausdorff_distance(clouds[0], clouds[2])
        d12 = hausdorff_distance(clouds[1], clouds[2])
        assert d02 <= d01 + d12 + 1e-12


def periodic_hausdorff_reference(pa, pb):
    """Brute-force Hausdorff distance under the periodic product max metric."""
    fa = pa.reshape(len(pa), -1) % 1.0
    fb = pb.reshape(len(pb), -1) % 1.0
    diff = np.abs(fa[:, None, :] - fb[None, :, :])
    d = np.minimum(diff, 1.0 - diff).max(axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


_SYMBOLS = (SymbolicReal.rational(1),) + tuple(
    SymbolicReal.symbol(s) for s in ("SQRT2", "SQRT3", "SQRT5"))
TORI = {dim: torus_flow(_SYMBOLS[:dim], Basis.default()) for dim in range(1, 5)}
EDGE_COORDS = np.array([0.0, math.nextafter(1.0, 0.0)])


@st.composite
def cloud_pairs(draw):
    """Two clouds of one shape: unequal sizes (many below the 64-row stride),
    optionally on a coarse grid (duplicates and exact distance ties), with
    coordinates pinned to 0 and to one ulp below 1, or the second cloud an
    exact or jittered copy of the first."""
    arity, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_a, n_b = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    levels = draw(st.sampled_from([0, 2, 3, 8, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def cloud(n):
        u = rng.random((n, arity, dim))
        return np.floor(u * levels) / levels if levels else u

    pa, pb = cloud(n_a), cloud(n_b)
    relation = draw(st.sampled_from(["independent", "identical", "jittered"]))
    if relation == "identical":
        pb = pa[rng.permutation(n_a)]
    elif relation == "jittered":
        pb = (pa + rng.random(pa.shape) * 1e-3) % 1.0
    if draw(st.booleans()):
        for p in (pa, pb):
            mask = rng.random(p.shape) < 0.25
            p[mask] = rng.choice(EDGE_COORDS, size=int(mask.sum()))
    return pa, pb


def torus_cloud(points):
    sys_h = TORI[points.shape[2]]
    return PointCloud(points, {}, sys_h)


class TestHausdorffExact:
    @settings(max_examples=300, deadline=None)
    @given(cloud_pairs())
    def test_equals_brute_force(self, pair):
        pa, pb = pair
        expect = periodic_hausdorff_reference(pa, pb)
        assert hausdorff_distance(torus_cloud(pa), torus_cloud(pb)) == expect
        assert hausdorff_distance(torus_cloud(pb), torus_cloud(pa)) == expect

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_planted_outlier(self, side):
        # a 32x32 grid against a jittered copy of itself; one point of one
        # cloud moves to a cell centre, so only the rows at and next to it
        # are far from the other cloud: a bound taken from every 64th row
        # misses them for most placements and the one exact query of the
        # rows left uncertified has to find them
        rng = np.random.default_rng(5)
        grid = np.stack(np.meshgrid(np.arange(32) / 32, np.arange(32) / 32),
                        axis=-1).reshape(-1, 1, 2)
        near = (grid + rng.random(grid.shape) / 512) % 1.0
        for k in range(0, 1024, 131):
            pa, pb = grid.copy(), near.copy()
            planted = pa if side == "a" else pb
            planted[k] = (grid[k] + 1 / 64) % 1.0
            expect = periodic_hausdorff_reference(pa, pb)
            assert expect >= 1 / 128
            assert hausdorff_distance(torus_cloud(pa), torus_cloud(pb)) == expect



def uncertified_hausdorff(pa, pb):
    """The periodic KD-tree loop of hausdorff_distance without the cell
    certificates: every row goes to the bounded query and the re-query."""
    from scipy.spatial import cKDTree
    fa, fb = (p.reshape(len(p), -1) % 1.0 for p in (pa, pb))
    query = partial(cKDTree.query, p=np.inf)
    ta, tb = (cKDTree(f, boxsize=1.0) for f in (fa, fb))
    directions = ((tb, fa, ta.indices), (ta, fb, tb.indices))
    worst = max(query(tree, f[order[::proximality._BOUND_STRIDE]])[0].max()
                for tree, f, order in directions)
    bound = worst
    for tree, f, order in directions:
        q = f[order]
        beyond = np.isinf(query(tree, q, distance_upper_bound=bound)[0])
        if beyond.any():
            worst = max(worst, query(tree, q[beyond])[0].max())
    return float(worst)


_RNG = np.random.default_rng(15)
_SQUARE = _RNG.random((400, 2, 2))  # k = 4 flat columns
# a copy moved by at most 1e-13: the bound is tiny, so the cells per axis
# hit the cap m^4 < 2^63
CAPPED_PAIR = (_SQUARE, (_SQUARE + _RNG.random(_SQUARE.shape) * 1e-13) % 1.0)
# the second cloud holds every point of the first on a 1/1024 grid, plus
# far points: every row of the first cloud has a partner at distance 0
_GRID = np.floor(_RNG.random((300, 1, 3)) * 1024) / 1024
CONTAINED_PAIR = (_GRID, np.concatenate([_GRID[::-1], (_GRID[:40] + 0.5) % 1.0]))
IDENTICAL_PAIR = (_SQUARE, _SQUARE[::-1].copy())  # bound 0: nothing is certified
EDGE_PAIR = (np.array([[[0.0, math.nextafter(1.0, 0.0)]], [[0.5, 0.25]]]),
             np.array([[[math.nextafter(1.0, 0.0), 0.0]], [[0.0, 0.75]], [[0.5, 0.5]]]))

# rows whose per-axis differences sit on and next to the +-0.5 wrap
_WRAP_VALUES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.125, math.nextafter(1.0, 0.0),
                                math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 5e-324])
unit_rows = st.integers(1, 4).flatmap(lambda k: st.tuples(
    *[st.lists(st.one_of(_WRAP_VALUES, st.floats(0.0, 1.0, exclude_max=True)),
               min_size=k, max_size=k)] * 2))


class TestHausdorffCertificates:
    @settings(max_examples=200, deadline=None)
    @given(cloud_pairs())
    @example(CAPPED_PAIR)
    @example(CONTAINED_PAIR)
    @example(IDENTICAL_PAIR)
    @example(EDGE_PAIR)
    def test_equals_uncertified_loop(self, pair):
        pa, pb = pair
        expect = uncertified_hausdorff(pa, pb)
        assert expect == periodic_hausdorff_reference(pa, pb)
        assert hausdorff_distance(torus_cloud(pa), torus_cloud(pb)) == expect
        assert hausdorff_distance(torus_cloud(pb), torus_cloud(pa)) == expect

    @settings(max_examples=300, deadline=None)
    @given(unit_rows)
    def test_wrap_formula_is_kdtree_distance(self, rows):
        from scipy.spatial import cKDTree
        u, v = (np.array([r]) for r in rows)
        want = cKDTree(v, boxsize=1.0).query(u, p=np.inf)[0]
        assert proximality.periodic_linf(u, v).view(np.uint64) == \
            np.asarray(want).view(np.uint64)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 62, 63, 64])
    def test_cells_per_axis_capped(self, k):
        assert proximality._cells_per_axis(0.05, k) == min(20, proximality._cells_per_axis(
            1e-300, k))
        for tiny in (1e-300, 5e-324):  # 1 / 5e-324 is inf
            m = proximality._cells_per_axis(tiny, k)
            assert m ** k < 2 ** 63 and m <= 2 ** 53
            assert (m + 1) ** k >= 2 ** 63 or m == 2 ** 53

    def test_contained_cloud_is_certified(self):
        fa, fb = (p.reshape(len(p), -1) for p in CONTAINED_PAIR)
        cert_a, cert_b = certified(fa, fb, 1 / 64)
        assert cert_a.all()  # every row of the first cloud is certified
        assert not cert_b[-40:].any()  # the far points are not
        assert not any(cert.any() for cert in certified(fa, fb, 0.0))

    def test_capped_grid_certifies(self):
        fa, fb = (p.reshape(len(p), -1) for p in CAPPED_PAIR)
        bound = uncertified_hausdorff(*CAPPED_PAIR)
        assert 0 < bound < 1e-12
        assert proximality._cells_per_axis(bound, 4) < 1 / bound
        cert_a, cert_b = certified(fa, fb, bound)
        assert cert_a.any() and cert_b.any()

    def test_uncertified_rows_are_queried_once(self, monkeypatch):
        # at bound 0 nothing is certified: past the bound's sample, each row
        # of both clouds goes to one query, never to a second one
        import scipy.spatial
        queried = []

        class CountingTree(scipy.spatial.cKDTree):
            def query(self, x, *args, **kwargs):
                queried.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        pa, pb = IDENTICAL_PAIR
        assert hausdorff_distance(torus_cloud(pa), torus_cloud(pb)) == 0.0
        sample = sum(len(range(0, len(p), proximality._BOUND_STRIDE)) for p in (pa, pb))
        assert sum(queried) == sample + len(pa) + len(pb)

    @settings(max_examples=200, deadline=None)
    @given(cloud_pairs(), st.one_of(st.sampled_from([0.0, 1 / 64, 0.25, 0.5, 5e-324]),
                                    st.floats(0.0, 0.75)))
    @example(CONTAINED_PAIR, 1 / 64)
    @example(CAPPED_PAIR, 1e-13)
    @example(EDGE_PAIR, 0.25)
    def test_certified_rows_have_a_closer_point(self, pair, bound):
        """Every certified row has a point of the other cloud closer than
        the bound, by brute force over all pairs."""
        fa, fb = (p.reshape(len(p), -1) for p in pair)
        for (f, g), cert in zip(((fa, fb), (fb, fa)), certified(fa, fb, bound)):
            diff = np.abs(f[:, None, :] - g[None, :, :])
            nearest = np.minimum(diff, 1.0 - diff).max(axis=2).min(axis=1)
            assert (nearest[cert] < bound).all()


def certified(fa, fb, bound):
    """Masks of the rows of each cloud that proximality._uncertified does
    not list against the other, keyed on the grid hausdorff_distance takes
    for the bound; each list must hold distinct rows in key order."""
    m = proximality._cells_per_axis(bound, fa.shape[1])
    ka, kb = (proximality._key_order(f, m) for f in (fa, fb))
    masks = []
    for f, keyed, g, g_keyed in ((fa, ka, fb, kb), (fb, kb, fa, ka)):
        need = proximality._uncertified(f, keyed, g, g_keyed, bound)
        order = keyed[0]
        assert np.array_equal(need, order[np.isin(order, need)])
        cert = np.ones(len(f), dtype=bool)
        cert[need] = False
        masks.append(cert)
    return tuple(masks)


def scalar_hausdorff_reference(sys_h, pa, pb):
    """max over each cloud's tuples of the min over the other's of the max
    over components of sys_h.dist, every pair and component compared."""
    ua, ub = ([[sys_h.from_coords(c) for c in row] for row in p] for p in (pa, pb))

    def directed(us, vs):
        return max((min((max(sys_h.dist(x, y) for x, y in zip(u, v)) for v in vs),
                        default=math.inf) for u in us), default=0.0)

    return directed(ua, ub), directed(ub, ua)


_NIL = SystemHandle(heisenberg_nilflow(_SYMBOLS[1], _SYMBOLS[2], Basis.default()).spec, 1.0)
_ROT = SystemHandle(torus_flow((_SYMBOLS[1],), Basis.default()).spec, 1.0)
# the suspensions over torus maps are isometric: hausdorff_distance takes
# its KD-tree path there, checked against the same scalar references
SCALAR_SYSTEMS = {"heisenberg": _NIL,
                  "suspended-rotation": suspend(_ROT),
                  "suspended-plane": suspend(SystemHandle(TORI[2].spec, 0.7)),
                  "suspended-heisenberg": suspend(_NIL)}


@st.composite
def scalar_cloud_pairs(draw):
    """Two small clouds on a Heisenberg system or a suspension, independent,
    identical, permuted or holding duplicate rows, optionally on a coarse
    grid (exact distance ties)."""
    sys_h = SCALAR_SYSTEMS[draw(st.sampled_from(sorted(SCALAR_SYSTEMS)))]
    arity = draw(st.integers(1, 4))
    n_a, n_b = draw(st.integers(1, 15)), draw(st.integers(1, 15))
    levels = draw(st.sampled_from([0, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def cloud(n):
        u = rng.random((n, arity, sys_h.dim))
        return np.floor(u * levels) / levels if levels else u

    pa, pb = cloud(n_a), cloud(n_b)
    relation = draw(st.sampled_from(["independent", "identical", "permuted", "duplicates"]))
    if relation == "identical":
        pb = pa.copy()
    elif relation == "permuted":
        pb = pa[rng.permutation(n_a)]
    elif relation == "duplicates":
        pa = pa[rng.integers(0, n_a, n_a)]
        pb = np.concatenate([pb, pa[rng.integers(0, n_a, n_b)]])
    return sys_h, pa, pb


class TestScalarFallback:
    @settings(max_examples=200, deadline=None)
    @given(scalar_cloud_pairs())
    def test_equals_brute_force(self, case):
        sys_h, pa, pb = case
        forward, backward = scalar_hausdorff_reference(sys_h, pa, pb)
        ua, ub = ([[sys_h.from_coords(c) for c in row] for row in p] for p in (pa, pb))
        assert proximality._scalar_directed(sys_h.dist, ua, ub) == forward
        assert proximality._scalar_directed(sys_h.dist, ub, ua) == backward
        a, b = PointCloud(pa, {}, sys_h), PointCloud(pb, {}, sys_h)
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a) == max(forward, backward)

    @pytest.mark.parametrize("kind", sorted(SCALAR_SYSTEMS))
    def test_empty_clouds(self, kind):
        sys_h = SCALAR_SYSTEMS[kind]
        empty = PointCloud(np.empty((0, 2, sys_h.dim)), {}, sys_h)
        full = PointCloud(np.full((3, 2, sys_h.dim), 0.25), {}, sys_h)
        assert hausdorff_distance(empty, empty) == 0.0
        assert hausdorff_distance(empty, full) == hausdorff_distance(full, empty) == math.inf


_ROW_BLOCK = proximality._ROW_BLOCK


def distinct_cells(rows, bins):
    """The cells hit by rows, counted as a set of Python tuples."""
    return len({tuple(min(int(c * bins), bins - 1) for c in row) for row in rows.tolist()})


def counting_blocks(blocks, pulled):
    """blocks, appending each block to pulled as it is pulled."""
    for block in blocks:
        pulled.append(block.copy())
        yield block


class TestCellCoverage:
    def test_grid_beyond_int64_keys_rejected(self):
        # 1000 rows that differ only in column 0, at resolution 1/1024: eight
        # columns make 2^80 cells, whose keys would wrap to one int64 cell
        rows = np.zeros((1000, 8))
        rows[:, 0] = np.arange(1000) / 1024
        for blocks in ([rows], [rows[:400], rows[400:]], [rows[:, :7]]):
            with pytest.raises(ValueError, match=r"gives 1024\^\d cells"):
                cell_coverage(blocks, 1000, 1 / 1024)
        assert cell_coverage([rows[:, :6]], 1000, 1 / 1024) * 2.0 ** 60 == 1000
        assert cell_coverage([rows[:400, :6], rows[400:, :6]], 1000, 1 / 1024) * 2.0 ** 60 == 1000

    def test_block_widths_must_match(self):
        rows = np.zeros((1000, 8))
        for blocks in ([rows[:, :5], rows[:, 5:]], [rows[:500, :3], rows[500:, :6]]):
            with pytest.raises(ValueError, match=r"a row block of [36] columns "
                                                 r"after blocks of [53]"):
                cell_coverage(blocks, 1000, 1 / 1024)
        with pytest.raises(ValueError, match="one or more row blocks"):
            cell_coverage([], 0, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_distinct_tuple_count(self, data):
        # grids with fewer cells than rows (filled or not) and with more;
        # blocks of _ROW_BLOCK rows or of any size, the last one partial
        k = data.draw(st.integers(1, 3))
        bins = data.draw(st.sampled_from([1, 2, 3, 5, 20]))
        n = data.draw(st.one_of(st.integers(0, 300),
                                st.integers(_ROW_BLOCK - 2, 2 * _ROW_BLOCK + 2)))
        size = data.draw(st.sampled_from([_ROW_BLOCK, 1, 7, 1000]))
        spread = data.draw(st.sampled_from([1.0, 0.5, 1e-3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        rows = rng.random((n, k)) * spread
        if data.draw(st.booleans()) and n > size:
            # the top cell of axis 0 is first hit in the last, partial block
            rows[:, 0] *= (bins - 1) / bins
            rows[data.draw(st.integers((n - 1) // size * size, n - 1)), 0] = 1 - 1e-9
        blocks = [rows[a:a + size] for a in range(0, max(n, 1), size)]
        assert cell_coverage(blocks, n, 1 / bins) == distinct_cells(rows, bins) / bins ** k

    def test_filled_grid_pulls_no_more_blocks(self):
        quarters = (np.arange(4)[:, None] + 0.5) / 4  # one row in each cell

        def blocks():
            yield quarters[:1]
            yield quarters[1:]
            raise AssertionError("a block was pulled after every cell was hit")

        assert cell_coverage(blocks(), 4, 0.25) == 1.0

    def test_require_cell_grid(self):
        assert require_cell_grid(0.05, 14) == 20  # 20^14 < 2^63 <= 20^15
        with pytest.raises(ValueError, match=r"\(15 axes\)"):
            require_cell_grid(0.05, 15)
        for resolution in (1e-19, 5e-324):  # 1 / 5e-324 is inf
            with pytest.raises(ValueError, match="too many for an int64 cell key"):
                require_cell_grid(resolution, 1)


class TestPolyDensity:
    def test_linear_orbit_covers_circle(self, basis, one):
        flow = torus_flow((one,), basis)
        cov = poly_orbit_density(flow, [RealPolynomial.from_coeffs([0, 1])],
                                 (0.0,), 10 ** 5, 0.01, seed=0)
        assert cov >= 0.99

    def test_weyl_curve_fills_square(self, basis, one):
        flow = torus_flow((one,), basis)
        polys = [RealPolynomial.from_coeffs([0, 1]),
                 RealPolynomial.from_coeffs([0, 0, 1])]
        cov = poly_orbit_density(flow, polys, (0.0,), 2 * 10 ** 5,
                                 0.05, seed=1)
        assert cov >= 0.95

    def test_dependent_pair_plateaus(self, basis, one):
        flow = torus_flow((one,), basis)
        polys = [RealPolynomial.from_coeffs([0, 1]),
                 RealPolynomial.from_coeffs([0, 2])]
        cov = poly_orbit_density(flow, polys, (0.0,), 10 ** 5,
                                 0.05, seed=2)
        assert cov < 0.5

    @pytest.mark.parametrize("resolution", [0.05, 0.01])
    def test_stops_once_every_cell_is_hit(self, basis, one, monkeypatch, resolution):
        # 10^6 rows on 20^2 or 100^2 cells: the last block pulled holds the
        # first hit of the last cell, and no later block is drawn
        flow = torus_flow((one,), basis)
        polys = [RealPolynomial.from_coeffs([0, 1]),
                 RealPolynomial.from_coeffs([0, 0, 1])]
        pulled, real = [], proximality.cell_coverage
        monkeypatch.setattr(proximality, "cell_coverage", lambda blocks, n, resolution:
                            real(counting_blocks(blocks, pulled), n, resolution))
        assert poly_orbit_density(flow, polys, (0.0,), 10 ** 6, resolution, seed=1) == 1.0
        assert 1 <= len(pulled) < 10 ** 6 // _ROW_BLOCK
        assert all(len(b) == _ROW_BLOCK for b in pulled)
        bins = round(1 / resolution)
        assert distinct_cells(np.concatenate(pulled), bins) == bins ** 2
        assert distinct_cells(np.concatenate([np.empty((0, 2))] + pulled[:-1]), bins) < bins ** 2

    def test_unfilled_grid_reads_every_row(self, basis, one, monkeypatch):
        flow = torus_flow((one,), basis)
        polys = [RealPolynomial.from_coeffs([0, 1]),
                 RealPolynomial.from_coeffs([0, 2])]
        pulled, real = [], proximality.cell_coverage
        monkeypatch.setattr(proximality, "cell_coverage", lambda blocks, n, resolution:
                            real(counting_blocks(blocks, pulled), n, resolution))
        budget = 2 * _ROW_BLOCK + 5
        cov = poly_orbit_density(flow, polys, (0.0,), budget, 0.05, seed=2)
        assert sum(map(len, pulled)) == budget
        assert cov == distinct_cells(np.concatenate(pulled), 20) / 400 < 0.5

    def test_constant_poly_rejected(self, basis, one):
        flow = torus_flow((one,), basis)
        with pytest.raises(ValueError):
            poly_orbit_density(flow, [RealPolynomial.from_coeffs([3])],
                               (0.0,), 10, 0.1)


class TestReturnSet:
    def test_contains_zero(self, rot2):
        x = (0.6,)
        hits = return_set(rot2, x, x, 0.05, [0, 1, 2, 3])
        assert 0 in hits

    def test_unit_frequency_phase(self, basis, one):
        flow = torus_flow((one,), basis)
        x = (0.0,)
        grid = np.arange(0.0, 10.0, 0.01)
        hits = return_set(flow, x, x, 0.1, grid)
        for t in hits:
            assert min(t % 1.0, 1.0 - t % 1.0) < 0.1 + 1e-9

    def test_monotone_in_radius(self, rot2):
        x = (0.0,)
        grid = list(range(200))
        small = set(return_set(rot2, x, x, 0.05, grid))
        large = set(return_set(rot2, x, x, 0.1, grid))
        assert small <= large

    def test_syndeticity_probe(self, rot2):
        x = (0.0,)
        hits = return_set(rot2, x, x, 0.1, list(range(2000)))
        gaps = np.diff(hits)
        assert gaps.max() <= 20  # bounded gaps for a minimal rotation


class TestFiberCoverage:
    def test_heisenberg_central_fiber(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        x = nil.from_coords((0.2, 0.7, 0.1))
        cov = fiber_coverage(nil, "heisenberg-base", 1, (1.0,), x,
                             3 * 10 ** 5, 0.05, seed=1)
        assert cov >= 0.95

    def test_product_torus_fiber(self, basis, sqrt2, sqrt3):
        flow = torus_flow((sqrt2, sqrt3), basis)
        x = (0.3, 0.9)
        cov = fiber_coverage(flow, "torus-coord-0", 1, (1.0,), x,
                             2 * 10 ** 5, 0.05, seed=2)
        assert cov >= 0.95

    def test_unsupported_projection(self, rot2):
        with pytest.raises(ValueError):
            fiber_coverage(rot2, "no-such", 1, (1.0,), (0.0,),
                           10, 0.1)

    def test_projection_table(self, rot2):
        # the declared factors on the rotation factor that leave coordinates free
        torus = {"torus-coord-0": ((0,), (1,))}
        heis = {"heisenberg-base": ((0, 1), (2,))}
        cases = [(rot2, {}), (TORI[1], {}), (TORI[2], torus),
                 (SystemHandle(TORI[2].spec, 1.0), torus),
                 (TORI[3], {"torus-coord-0": ((0,), (1, 2))}),
                 (TORI[4], {"torus-coord-0": ((0,), (1, 2, 3))}),
                 (_NILFLOW, heis), (SystemHandle(_NILFLOW.spec, 1.0), heis),
                 (suspend(rot2), {"suspension-height": ((1,), (0,))}),
                 (suspend(SystemHandle(_NILFLOW.spec, 1.0)),
                  {"suspension-height": ((3,), (0, 1, 2)),
                   "suspension-rotation": ((0, 1, 3), (2,))})]
        for sys_h, table in cases:
            assert projection_table(sys_h) == table
        with pytest.raises(ValueError, match=r"'identity' does not apply to suspension "
                                             r"of dimension 2 \(has \['suspension-height'\]\)"):
            require_projection(suspend(rot2), "identity")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_brute_force(self, data):
        # every row evolved by sys.evolve, checked by circle_dist and put in
        # its cell, against the rotation-factor filter and the exact pass
        sys_h = data.draw(st.sampled_from(FIBER_SYSTEMS))
        projection = data.draw(st.sampled_from(sorted(projection_table(sys_h))))
        d = data.draw(st.integers(1, 2))
        alphas = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, -1.0]),
                                    min_size=d, max_size=d, unique=True))
        x = sys_h.from_coords(tuple(data.draw(st.floats(0.0, 1.0, exclude_max=True))
                                    for _ in range(sys_h.dim)))
        budget = data.draw(st.integers(1, 300))
        resolution = data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]))
        seed = data.draw(st.integers(0, 2 ** 16))
        horizon = data.draw(st.sampled_from([1.0, 1e2, 1e3, 1e4]))
        expect = fiber_coverage_reference(sys_h, projection, alphas, x, budget,
                                          resolution, seed, horizon)
        assert fiber_coverage(sys_h, projection, d, alphas, x, budget, resolution,
                              seed, horizon) == expect

    @pytest.mark.parametrize("kind, projection, alphas, budget", [
        ("torus", "torus-coord-0", (1.0, -1.0), 2 * _ROW_BLOCK + 3),
        ("nilflow", "heisenberg-base", (1.0, -1.0), _ROW_BLOCK + 1)])
    def test_blocks_equal_brute_force(self, kind, projection, alphas, budget):
        # more rows than one block, on grids the kept rows do not fill
        sys_h = {"torus": TORI[2], "nilflow": _NILFLOW}[kind]
        x = sys_h.from_coords((0.3, 0.9, 0.6)[:sys_h.dim])
        expect = fiber_coverage_reference(sys_h, projection, alphas, x, budget, 0.05, 4, 1e4)
        assert 0 < expect < 1
        assert fiber_coverage(sys_h, projection, len(alphas), alphas, x, budget, 0.05,
                              4) == expect


def test_chunked_draws_equal_one_draw():
    # the probes draw their times one block at a time; fiber_coverage's
    # first block leaves row 0 at the time 0 and draws the rest into it
    for n in (1, 2, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK - 1, 10 ** 6 + 3):
        whole = np.random.default_rng(n).random(n)
        rng = np.random.default_rng(n)
        chunks = [rng.random(min(_ROW_BLOCK, n - a)) for a in range(0, n, _ROW_BLOCK)]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()
        whole = np.zeros(n)
        np.random.default_rng(n).random(out=whole[1:])
        rng, chunks = np.random.default_rng(n), []
        for a in range(0, n, _ROW_BLOCK):
            chunks.append(np.zeros(min(_ROW_BLOCK, n - a)))
            rng.random(out=chunks[-1][1:] if a == 0 else chunks[-1])
        assert np.concatenate(chunks).tobytes() == whole.tobytes()


def fiber_coverage_reference(sys_h, projection, alphas, x, budget, resolution,
                             seed, horizon):
    """Brute-force fiber coverage: one scalar evolution per row and arm."""
    constrained, free = require_projection(sys_h, projection)
    rng = np.random.default_rng(seed)
    ts = np.concatenate([[0.0], rng.random(budget - 1) * horizon])
    base = x
    bins = int(round(1.0 / resolution))
    cells = set()
    for t in ts:
        comps = [sys_h.evolve(x, float(a * t)) for a in alphas]
        if all(circle_dist(c[i], base[i]) <= resolution for c in comps for i in constrained):
            cells.add(tuple(min(int(c[i] * bins), bins - 1) for c in comps for i in free))
    return len(cells) / float(bins ** (len(free) * len(alphas)))


_NILFLOW = heisenberg_nilflow(_SYMBOLS[1], _SYMBOLS[2], Basis.default(), z=0.3)
# systems whose projection table is not empty (a circle has no declared
# factor on the rotation factor that leaves a coordinate free; a suspension
# has its height circle, and over the Heisenberg nilmanifold its rotation
# factor too); the test draws from every entry of each table
FIBER_SYSTEMS = [TORI[2], TORI[3], SystemHandle(TORI[2].spec, 1.0), _NILFLOW,
                 SystemHandle(_NILFLOW.spec, 1.0), suspend(SystemHandle(TORI[1].spec, 0.7)),
                 suspend(SystemHandle(_NILFLOW.spec, 2.5))]
