import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import proximality
from nilflow.algebra import Basis, RealPolynomial, SymbolicReal
from nilflow.proximality import (EXHAUSTED, PROVEN_ABSENT, WITNESS,
                                 CommutationViolation, PointCloud, RPWitness,
                                 check_commutation, commuting_rp_transfer,
                                 cube_orbit_sample, face_vectors,
                                 fiber_coverage, hausdorff_distance, nd_sample,
                                 poly_orbit_density, return_set,
                                 rp_witness_search, rp_witness_verify,
                                 witness_max_gap)
from nilflow.systems import (TorusPoint, circle_dist, heisenberg_nilflow,
                             heisenberg_nilsystem, torus_flow, torus_map,
                             torus_rotation)


@pytest.fixture(scope="module")
def rot2(basis, sqrt2):
    return torus_rotation(sqrt2, basis)


@pytest.fixture(scope="module")
def rot3(basis, sqrt3):
    return torus_rotation(sqrt3, basis)


@pytest.fixture(scope="module")
def nilsys(basis, sqrt2, sqrt3):
    return heisenberg_nilsystem(heisenberg_nilflow(sqrt2, sqrt3, basis))


def verify_reference(sys, x, y, w, delta):
    """Each inequality of the RP^[d] witness condition, checked on its own."""
    if sys.dist(x, w.x_prime) >= delta or sys.dist(y, w.y_prime) >= delta:
        return False
    for eps in face_vectors(w.order):
        t = sum(g for g, e in zip(w.g, eps) if e)
        if sys.dist(sys.evolve(w.x_prime, t), sys.evolve(w.y_prime, t)) >= delta:
            return False
    return True


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
        x = TorusPoint((0.4,))
        w = RPWitness(x, x, (5,), 0.1)
        assert rp_witness_verify(rot2, x, x, w, 0.1)

    def test_boundary_is_strict(self, rot2):
        x = TorusPoint((0.0,))
        y = TorusPoint((0.25,))
        # face distance exactly delta: must fail the strict inequality
        w = RPWitness(x, y, (0,), 0.25)
        assert not rp_witness_verify(rot2, x, y, w, 0.25)
        assert rp_witness_verify(rot2, x, y, w, 0.2500001)

    def test_search_roundtrip(self, rot2):
        x = TorusPoint((0.31,))
        y = TorusPoint((0.33,))
        res = rp_witness_search(rot2, x, y, 2, 0.05, 10 ** 5)
        assert res.status == WITNESS
        assert rp_witness_verify(rot2, x, y, res.witness, 0.05)

    def test_monotone_in_delta(self, rot2):
        x = TorusPoint((0.31,))
        y = TorusPoint((0.33,))
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
        x = TorusPoint((0.8,))
        res = rp_witness_search(rot2, x, x, 3, 0.02, 10 ** 4)
        assert res.found
        assert witness_max_gap(rot2, x, x, res.witness) < 0.02

    def test_isometry_proven_absent(self, rot2):
        res = rp_witness_search(rot2, TorusPoint((0.0,)), TorusPoint((0.3,)),
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
        x = TorusPoint((0.1,))
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

    def test_all_rounds_exhausted(self, nilflow):
        x = nilflow.from_coords((0.1, 0.2, 0.3))
        y = nilflow.from_coords((0.6, 0.5, 0.9))
        res = rp_witness_search(nilflow, x, y, 1, 0.1, 10 ** 6)
        assert res.status == EXHAUSTED and res.checked == 12725
        assert res.best_gap == 0.44769289941670337

    def test_never_draws_past_budget(self, rot2):
        x, y = TorusPoint((0.1,)), TorusPoint((0.6,))

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


class TestCommutingTransfer:
    def test_same_system_returns_witness(self, rot2):
        x = TorusPoint((0.2,))
        res = rp_witness_search(rot2, x, x, 1, 0.05, 10 ** 4)
        tr = commuting_rp_transfer(rot2, rot2, x, x, res.witness, 0.15, 10 ** 4)
        assert tr.found
        assert tr.witness.g == res.witness.g

    def test_rotation_pair_transfers(self, rot2, rot3):
        rng = np.random.default_rng(21)
        for _ in range(10):
            u = rng.random()
            v = (u + (rng.random() - 0.5) * 0.18) % 1.0
            x, y = TorusPoint((u,)), TorusPoint((v,))
            res = rp_witness_search(rot2, x, y, 1, 0.05, 10 ** 5)
            assert res.found
            tr = commuting_rp_transfer(rot2, rot3, x, y, res.witness, 0.15, 10 ** 5)
            assert tr.found
            assert rp_witness_verify(rot3, x, y, tr.witness, 0.15)

    def test_heisenberg_commuting_times(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        s1 = heisenberg_nilsystem(nil, 1.0)
        s2 = heisenberg_nilsystem(nil, math.sqrt(2))
        x = s1.from_coords((0.2, 0.6, 0.15))
        y = s1.from_coords((0.2, 0.6, 0.65))
        res = rp_witness_search(s1, x, y, 1, 0.1, 10 ** 6)
        assert res.found
        tr = commuting_rp_transfer(s1, s2, x, y, res.witness, 0.3, 10 ** 6)
        assert tr.found
        # oracle: an independent fresh search for the second action succeeds too
        fresh = rp_witness_search(s2, x, y, 1, 0.1, 10 ** 6)
        assert fresh.found

    def test_commutation_violation(self, basis, sqrt2, sqrt3):
        # left translations by (sqrt2,0,0) and (0,sqrt3,0) do not commute on X
        a = heisenberg_nilsystem(heisenberg_nilflow(sqrt2, SymbolicReal.rational(0), basis))
        b = heisenberg_nilsystem(heisenberg_nilflow(SymbolicReal.rational(0), sqrt3, basis))
        x = a.from_coords((0.0, 0.0, 0.0))
        gap = check_commutation(a, b, [x])
        assert gap > 1e-6
        w = RPWitness(x, x, (1,), 0.1)
        with pytest.raises(CommutationViolation):
            commuting_rp_transfer(a, b, x, x, w, 0.3, 100)

    def test_weak_witness_rejected(self, rot2, rot3):
        x = TorusPoint((0.0,))
        y = TorusPoint((0.08,))
        res = rp_witness_search(rot2, x, y, 1, 0.05, 10 ** 5)
        assert res.found
        # delta_out/3 below the witness scale: precondition violated
        with pytest.raises(ValueError):
            commuting_rp_transfer(rot2, rot3, x, y, res.witness, 0.003, 100)


class TestCubeSample:
    def test_budget_one_is_diagonal(self, rot2):
        x = TorusPoint((0.3,))
        cloud = cube_orbit_sample(rot2, x, 2, 1, seed=0)
        assert cloud.n == 1 and cloud.arity == 4
        assert np.allclose(cloud.points[0], 0.3)

    def test_rotation_parametric_structure(self, rot2):
        # components of a rotation cube satisfy c11 - c01 = c10 - c00 (mod 1)
        cloud = cube_orbit_sample(rot2, TorusPoint((0.1,)), 2, 500, seed=1)
        a = cloud.points[:, 0, 0]
        b = cloud.points[:, 1, 0]
        c = cloud.points[:, 2, 0]
        d = cloud.points[:, 3, 0]
        gap = np.abs((d - c) % 1.0 - (b - a) % 1.0)
        gap = np.minimum(gap, 1.0 - gap)
        assert gap.max() <= 1e-9

    def test_commuting_rotations_same_cube(self, rot2, rot3):
        a = cube_orbit_sample(rot2, TorusPoint((0.1,)), 2, 3 * 10 ** 4, seed=2)
        b = cube_orbit_sample(rot3, TorusPoint((0.1,)), 2, 3 * 10 ** 4, seed=3)
        assert hausdorff_distance(a, b) <= 0.03

    def test_heisenberg_generic_path(self, nilsys):
        x = nilsys.from_coords((0.0, 0.0, 0.0))
        cloud = cube_orbit_sample(nilsys, x, 1, 50, seed=4)
        assert cloud.points.shape == (50, 2, 3)
        # first component is always the base point
        assert np.allclose(cloud.points[:, 0, :], 0.0)


class TestNdSample:
    def test_d1_is_orbit(self, rot2):
        cloud = nd_sample(rot2, TorusPoint((0.0,)), 1, 100, seed=5)
        assert cloud.arity == 1

    def test_irrational_rotation_fills_plane(self, rot2):
        cloud = nd_sample(rot2, TorusPoint((0.0,)), 2, 3 * 10 ** 4, seed=6)
        cells = np.unique((cloud.points[:, 0, 0] * 20).astype(int) * 20 +
                          (cloud.points[:, 1, 0] * 20).astype(int))
        assert len(cells) == 400

    def test_commuting_rotations_same_nd(self, rot2, rot3):
        a = nd_sample(rot2, TorusPoint((0.2,)), 2, 3 * 10 ** 4, seed=7)
        b = nd_sample(rot3, TorusPoint((0.2,)), 2, 3 * 10 ** 4, seed=8)
        assert hausdorff_distance(a, b) <= 0.02

    def test_alphas_must_be_distinct(self, basis, sqrt2):
        flow = torus_flow((sqrt2,), basis)
        with pytest.raises(ValueError):
            nd_sample(flow, TorusPoint((0.0,)), 2, 10, seed=0, alphas=(1.0, 1.0))
        with pytest.raises(ValueError):
            nd_sample(flow, TorusPoint((0.0,)), 2, 10, seed=0)


class TestHausdorff:
    def test_identical_clouds(self, rot2):
        a = nd_sample(rot2, TorusPoint((0.0,)), 2, 500, seed=9)
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
        a = nd_sample(rot2, TorusPoint((0.0,)), 1, 10, seed=11)
        b = nd_sample(rot2, TorusPoint((0.0,)), 2, 10, seed=12)
        with pytest.raises(ValueError):
            hausdorff_distance(a, b)

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
        # misses them for most placements and the re-query has to find them
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


class TestPolyDensity:
    def test_linear_orbit_covers_circle(self, basis, one):
        flow = torus_flow((one,), basis)
        cov = poly_orbit_density(flow, [RealPolynomial.from_coeffs([0, 1])],
                                 TorusPoint((0.0,)), 10 ** 5, 0.01, seed=0)
        assert cov >= 0.99

    def test_weyl_curve_fills_square(self, basis, one):
        flow = torus_flow((one,), basis)
        polys = [RealPolynomial.from_coeffs([0, 1]),
                 RealPolynomial.from_coeffs([0, 0, 1])]
        cov = poly_orbit_density(flow, polys, TorusPoint((0.0,)), 2 * 10 ** 5,
                                 0.05, seed=1)
        assert cov >= 0.95

    def test_dependent_pair_plateaus(self, basis, one):
        flow = torus_flow((one,), basis)
        polys = [RealPolynomial.from_coeffs([0, 1]),
                 RealPolynomial.from_coeffs([0, 2])]
        cov = poly_orbit_density(flow, polys, TorusPoint((0.0,)), 10 ** 5,
                                 0.05, seed=2)
        assert cov < 0.5

    def test_constant_poly_rejected(self, basis, one):
        flow = torus_flow((one,), basis)
        with pytest.raises(ValueError):
            poly_orbit_density(flow, [RealPolynomial.from_coeffs([3])],
                               TorusPoint((0.0,)), 10, 0.1)


class TestReturnSet:
    def test_contains_zero(self, rot2):
        x = TorusPoint((0.6,))
        hits = return_set(rot2, x, x, 0.05, [0, 1, 2, 3])
        assert 0 in hits

    def test_unit_frequency_phase(self, basis, one):
        flow = torus_flow((one,), basis)
        x = TorusPoint((0.0,))
        grid = np.arange(0.0, 10.0, 0.01)
        hits = return_set(flow, x, x, 0.1, grid)
        for t in hits:
            assert min(t % 1.0, 1.0 - t % 1.0) < 0.1 + 1e-9

    def test_monotone_in_radius(self, rot2):
        x = TorusPoint((0.0,))
        grid = list(range(200))
        small = set(return_set(rot2, x, x, 0.05, grid))
        large = set(return_set(rot2, x, x, 0.1, grid))
        assert small <= large

    def test_syndeticity_probe(self, rot2):
        x = TorusPoint((0.0,))
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
        x = TorusPoint((0.3, 0.9))
        cov = fiber_coverage(flow, "torus-coord-0", 1, (1.0,), x,
                             2 * 10 ** 5, 0.05, seed=2)
        assert cov >= 0.95

    def test_unsupported_projection(self, rot2):
        with pytest.raises(ValueError):
            fiber_coverage(rot2, "no-such", 1, (1.0,), TorusPoint((0.0,)),
                           10, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_brute_force(self, data):
        # every row evolved by sys.evolve, checked by circle_dist and put in
        # its cell, against the rotation-factor filter and the exact pass
        sys_h = data.draw(st.sampled_from(FIBER_SYSTEMS))
        projection = data.draw(st.sampled_from(sorted(sys_h.spec.projections)))
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


def fiber_coverage_reference(sys_h, projection, alphas, x, budget, resolution,
                             seed, horizon):
    """Brute-force fiber coverage: one scalar evolution per row and arm."""
    constrained, free = sys_h.spec.projections[projection]
    rng = np.random.default_rng(seed)
    ts = np.concatenate([[0.0], rng.random(budget - 1) * horizon])
    base = sys_h.coords(x)
    bins = int(round(1.0 / resolution))
    cells = set()
    for t in ts:
        comps = [sys_h.coords(sys_h.evolve(x, float(a * t))) for a in alphas]
        if all(circle_dist(c[i], base[i]) <= resolution for c in comps for i in constrained):
            cells.add(tuple(min(int(c[i] * bins), bins - 1) for c in comps for i in free))
    return len(cells) / float(bins ** (len(free) * len(alphas)))


_NILFLOW = heisenberg_nilflow(_SYMBOLS[1], _SYMBOLS[2], Basis.default(), z=0.3)
# the four kinds that have a fiber projection (a circle and a suspension
# have none), with every projection each has
FIBER_SYSTEMS = [TORI[2], TORI[3], torus_map(TORI[2]), _NILFLOW,
                 heisenberg_nilsystem(_NILFLOW)]
