import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilflow.algebra import SymbolicReal, UnsupportedBasisError
from nilflow.suspension import suspend
from nilflow.systems import (HEIS_IDENTITY, HeisenbergElement, NilflowSpec,
                             TorusPoint, circle_dist, flow_minimal_result,
                             heis_conjugate_power_identity, heis_multiply,
                             heis_power, heis_reduce, heisenberg_nilflow,
                             heisenberg_nilsystem, nil_evolve, time_t_minimal,
                             torus_evolve, torus_flow, torus_map,
                             torus_rotation, wrap_unit)


def coords_gap(a, b):
    return max(abs(u - v) for u, v in zip(a.coords, b.coords))


# ---------------------------------------------------------------------------
# reference kernels: the straightforward forms the fast kernels must match
# bit for bit

_LATTICE_WINDOW = [HeisenbergElement(float(m), float(n), float(k))
                   for m, n, k in itertools.product((-2, -1, 0, 1, 2), repeat=3)]


def reference_window_gap(p, q):
    """Least gap from p over all 125 translates q * gamma, one sqrt each."""
    best = math.inf
    for gamma in _LATTICE_WINDOW:
        qg = heis_multiply(q, gamma)
        d = math.sqrt((p.x - qg.x) ** 2 + (p.y - qg.y) ** 2 + (p.z - qg.z) ** 2)
        if d < best:
            best = d
    return best


def reference_nil_evolve(spec, p, t):
    """(a^t * p) Gamma in exact Fraction arithmetic, rounded once at the end."""
    a = spec.generator
    ax, ay, az = Fraction(a.x), Fraction(a.y), Fraction(a.z)
    px, py, pz = Fraction(p.x), Fraction(p.y), Fraction(p.z)
    tf = Fraction(t)
    gx = tf * ax
    gy = tf * ay
    gz = tf * az + tf * (tf - 1) / 2 * ax * ay
    rx = gx + px
    ry = gy + py
    rz = gz + pz + gx * py
    n = -math.floor(ry)
    z = rz + rx * n
    return HeisenbergElement(wrap_unit(float(rx - math.floor(rx))),
                             wrap_unit(float(ry - math.floor(ry))),
                             wrap_unit(float(z - math.floor(z))))


def _elements(lo, hi):
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.builds(HeisenbergElement, coord, coord, coord)


canonical_points = _elements(0.0, 1.0).map(lambda g: heis_reduce(g)[0])
raw_points = _elements(-3.0, 3.0)
any_points = st.one_of(canonical_points, raw_points)
generators = st.builds(HeisenbergElement,
                       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                       st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
times = st.one_of(st.integers(-10 ** 5, 10 ** 5),
                  st.integers(-10 ** 5, 10 ** 5).map(float),
                  st.floats(-1e5, 1e5))


class TestTorusEvolve:
    def test_unit_frequency(self, basis, one):
        flow = torus_flow((one,), basis)
        p = torus_evolve(flow.spec, TorusPoint((0.0,)), 0.25)
        assert p.coords == (0.25,)

    def test_time_zero_identity(self, basis, one, sqrt2):
        flow = torus_flow((one, sqrt2), basis)
        p = TorusPoint((0.3, 0.7))
        assert torus_evolve(flow.spec, p, 0.0) == p

    def test_sqrt2_phase(self, basis, sqrt2):
        # high-precision decimal of sqrt(2), reduced mod 1
        flow = torus_flow((sqrt2,), basis)
        p = torus_evolve(flow.spec, TorusPoint((0.0,)), 1.0)
        assert p.coords[0] == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_dimension_mismatch(self, basis, one):
        flow = torus_flow((one,), basis)
        with pytest.raises(ValueError):
            torus_evolve(flow.spec, TorusPoint((0.1, 0.2)), 1.0)

    def test_flow_law(self, basis, one, sqrt2):
        flow = torus_flow((one, sqrt2), basis)
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = TorusPoint(tuple(rng.random(2)))
            s, t = (rng.random(2) * 2 - 1) * 1e3
            a = flow.evolve(flow.evolve(p, s), t)
            b = flow.evolve(p, s + t)
            assert flow.dist(a, b) <= 1e-10

    def test_isometry(self, basis, sqrt2):
        flow = torus_flow((sqrt2,), basis)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = TorusPoint((rng.random(),))
            q = TorusPoint((rng.random(),))
            t = (rng.random() * 2 - 1) * 1e3
            assert flow.dist(flow.evolve(p, t), flow.evolve(q, t)) == \
                pytest.approx(flow.dist(p, q), abs=1e-12)


class TestHeisenbergGroup:
    def test_commutator_generator(self):
        a = HeisenbergElement(1, 0, 0)
        b = HeisenbergElement(0, 1, 0)
        assert heis_multiply(a, b).coords == (1, 1, 1)
        assert heis_multiply(b, a).coords == (1, 1, 0)

    def test_associativity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a, b, c = (HeisenbergElement(*(rng.random(3) * 10 - 5)) for _ in range(3))
            lhs = heis_multiply(heis_multiply(a, b), c)
            rhs = heis_multiply(a, heis_multiply(b, c))
            assert coords_gap(lhs, rhs) <= 1e-12

    def test_identity_and_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = HeisenbergElement(*(rng.random(3) * 10 - 5))
            assert heis_multiply(a, HEIS_IDENTITY) == a
            assert coords_gap(heis_multiply(a, a.inverse()), HEIS_IDENTITY) <= 1e-12

    def test_power_matches_multiplication(self):
        a = HeisenbergElement(1, 1, 0)
        assert heis_power(a, 2).coords == heis_multiply(a, a).coords == (2, 2, 1)

    def test_power_zero(self):
        a = HeisenbergElement(0.3, -1.7, 2.2)
        assert heis_power(a, 0.0) == HEIS_IDENTITY

    def test_half_power_squares_back(self):
        a = HeisenbergElement(1, 1, 1)
        h = heis_power(a, 0.5)
        assert h.coords == (0.5, 0.5, 0.375)
        assert coords_gap(heis_multiply(h, h), a) <= 1e-12

    def test_power_additivity(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            a = HeisenbergElement(*(rng.random(3) * 4 - 2))
            s, t = rng.random(2) * 10 - 5
            lhs = heis_multiply(heis_power(a, s), heis_power(a, t))
            rhs = heis_power(a, s + t)
            assert coords_gap(lhs, rhs) <= 1e-12

    def test_integer_powers_match_iteration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = HeisenbergElement(*(rng.random(3) * 4 - 2))
            acc = HEIS_IDENTITY
            for n in range(0, 9):
                assert coords_gap(heis_power(a, n), acc) <= 1e-12
                acc = heis_multiply(acc, a)
            acc = HEIS_IDENTITY
            inv = a.inverse()
            for n in range(0, -9, -1):
                assert coords_gap(heis_power(a, n), acc) <= 1e-12
                acc = heis_multiply(acc, inv)

    def test_conjugation_identity_trivial_cases(self):
        a = HeisenbergElement(0.7, -0.4, 0.9)
        assert heis_conjugate_power_identity(a, HEIS_IDENTITY, 2.7) == 0.0
        h = HeisenbergElement(1.1, 0.2, -0.5)
        assert heis_conjugate_power_identity(a, h, 1.0) == 0.0

    def test_conjugation_identity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a = HeisenbergElement(*(rng.random(3) * 10 - 5))
            h = HeisenbergElement(*(rng.random(3) * 10 - 5))
            t = rng.random() * 10 - 5
            assert heis_conjugate_power_identity(a, h, t) <= 1e-12


class TestHeisReduce:
    def test_worked_example(self):
        g = HeisenbergElement(1.25, -0.5, 2.3)
        canonical, gamma = heis_reduce(g)
        assert canonical.coords == pytest.approx((0.25, 0.5, 0.55), abs=1e-12)
        # canonical = g * gamma with integral gamma, by exact recomputation
        assert gamma.coords == (-1.0, 1.0, -3.0)
        assert coords_gap(heis_multiply(g, gamma), canonical) <= 1e-12

    def test_already_canonical(self):
        g = HeisenbergElement(0.3, 0.7, 0.1)
        canonical, gamma = heis_reduce(g)
        assert canonical == g
        assert gamma == HEIS_IDENTITY

    def test_integral_input(self):
        canonical, gamma = heis_reduce(HeisenbergElement(2, 3, 5))
        assert canonical.coords == (0.0, 0.0, 0.0)
        assert gamma.coords[:2] == (-2.0, -3.0)
        # the forced central integer, checked through the group law
        assert coords_gap(heis_multiply(HeisenbergElement(2, 3, 5), gamma),
                          canonical) <= 1e-12

    def test_idempotent_and_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            g = HeisenbergElement(*(rng.random(3) * 8 - 4))
            canonical, gamma = heis_reduce(g)
            assert all(0.0 <= c < 1.0 for c in canonical.coords)
            again, gamma2 = heis_reduce(canonical)
            assert again == canonical and gamma2 == HEIS_IDENTITY
            back = heis_multiply(canonical, gamma.inverse())
            assert coords_gap(back, g) <= 1e-12
            assert all(v == int(v) for v in gamma.coords)


class TestNilflow:
    def test_time_zero(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        p = nil.from_coords((0.2, 0.4, 0.8))
        assert nil_evolve(nil.spec, p, 0.0) == p

    def test_base_projection_matches_torus(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        torus = torus_flow((sqrt2, sqrt3), basis)
        p = nil.origin()
        q = TorusPoint((0.0, 0.0))
        for t in (0.3, 1.7, 12.9, -4.4):
            ev = nil.evolve(p, t)
            tv = torus.evolve(q, t)
            assert ev.x == pytest.approx(tv.coords[0], abs=1e-9)
            assert ev.y == pytest.approx(tv.coords[1], abs=1e-9)

    def test_flow_law_composition(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        p = nil.origin()
        a = nil.evolve(nil.evolve(p, 1.0), 1.0)
        b = nil.evolve(p, 2.0)
        assert nil.dist(a, b) <= 1e-10
        rng = np.random.default_rng(10)
        for _ in range(50):
            q = nil.from_coords(tuple(rng.random(3)))
            s, t = (rng.random(2) * 2 - 1) * 1e3
            assert nil.dist(nil.evolve(nil.evolve(q, s), t),
                            nil.evolve(q, s + t)) <= 1e-10


class TestMetric:
    def test_torus_wraparound(self, basis, one):
        flow = torus_flow((one,), basis)
        assert flow.dist(TorusPoint((0.1,)), TorusPoint((0.9,))) == \
            pytest.approx(0.2, abs=1e-15)

    def test_zero_iff_equal(self, basis, one, sqrt2, sqrt3):
        flow = torus_flow((one,), basis)
        p = TorusPoint((0.37,))
        assert flow.dist(p, p) == 0.0
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        q = nil.from_coords((0.1, 0.2, 0.3))
        assert nil.dist(q, q) == 0.0

    def test_central_translate(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        p = HeisenbergElement(0.0, 0.0, 0.9)
        q = HeisenbergElement(0.0, 0.0, 0.05)
        assert nil.dist(p, q) <= 0.15 + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(any_points, any_points)
    def test_symmetry(self, basis, sqrt2, sqrt3, p, q):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        assert nil.dist(p, q) == nil.dist(q, p)

    @settings(max_examples=300, deadline=None)
    @given(any_points)
    def test_zero_on_diagonal(self, basis, sqrt2, sqrt3, p):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        assert nil.dist(p, p) == 0.0

    # The window gap is a Euclidean distance in Malcev coordinates, and
    # right translation by a lattice element with n != 0 shears z by x * n,
    # so it is not an isometry of those coordinates.  In the example
    # d(p, q) = 0.400 and d(q, r) = 0.020, yet d(p, r) = 0.566.
    @pytest.mark.xfail(strict=True, reason="the lattice-window gap is not a "
                       "metric on the quotient: the triangle inequality fails")
    @settings(max_examples=300, deadline=None)
    @given(canonical_points, canonical_points, canonical_points)
    @example(HeisenbergElement(0.6, 0.99, 0.6), HeisenbergElement(0.0, 0.0, 0.0),
             HeisenbergElement(0.0, 0.98, 0.0))
    def test_triangle_inequality(self, basis, sqrt2, sqrt3, p, q, r):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        assert nil.dist(p, r) <= \
            nil.dist(p, q) + nil.dist(q, r) + 1e-12


class TestKernelsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(any_points, any_points)
    def test_window_gap_bits(self, basis, sqrt2, sqrt3, p, q):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        expected = min(reference_window_gap(p, q), reference_window_gap(q, p))
        assert nil.dist(p, q) == expected

    @settings(max_examples=300, deadline=None)
    @given(generators, any_points, times)
    @example(HeisenbergElement(math.sqrt(2) - 1, math.sqrt(3) - 1, 0.0),
             HeisenbergElement(0.1, 0.2, 0.3), 10 ** 5)
    @example(HeisenbergElement(-1.5, 2.25, 0.75),
             HeisenbergElement(-2.5, 2.999, -0.125), -99999.5)
    def test_nil_evolve_bits(self, a, p, t):
        spec = NilflowSpec(a)
        assert nil_evolve(spec, p, t) == reference_nil_evolve(spec, p, t)

    def test_nil_evolve_numpy_integer_time(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        p = nil.from_coords((0.4, 0.6, 0.8))
        assert nil_evolve(nil.spec, p, np.int64(54321)) == \
            reference_nil_evolve(nil.spec, p, 54321)


class TestMinimality:
    def test_kronecker_weyl_flow(self, basis, one, sqrt2):
        assert flow_minimal_result(torus_flow((one, sqrt2), basis)).independent

    def test_dependent_frequencies(self, basis, sqrt2):
        dep = torus_flow((sqrt2, sqrt2.scale(2)), basis)
        assert not flow_minimal_result(dep).independent

    def test_nilflow_shadow(self, basis, sqrt2, sqrt3):
        assert flow_minimal_result(heisenberg_nilflow(sqrt2, sqrt3, basis)).independent
        dep = heisenberg_nilflow(sqrt2, sqrt2.scale(Fraction(3, 2)), basis)
        assert not flow_minimal_result(dep).independent

    def test_time_t_examples(self, basis, one, sqrt2, sqrt3):
        flow = torus_flow((one, sqrt2), basis)
        assert not time_t_minimal(flow, one, basis)
        assert not time_t_minimal(flow, sqrt2, basis)
        assert time_t_minimal(flow, sqrt3, basis)

    def test_time_t_unsupported_basis(self, basis, one, sqrt2):
        flow = torus_flow((one, sqrt2), basis)
        s5 = SymbolicReal.symbol("SQRT5")
        with pytest.raises(UnsupportedBasisError):
            time_t_minimal(flow, s5, basis)

    def test_zero_time_rejected(self, basis, one, sqrt2):
        flow = torus_flow((one, sqrt2), basis)
        with pytest.raises(ValueError):
            time_t_minimal(flow, SymbolicReal.rational(0), basis)

    def test_decision_pure_in_frequency_order(self, basis, one, sqrt2, sqrt3):
        a = torus_flow((one, sqrt2, sqrt3), basis)
        b = torus_flow((sqrt3, one, sqrt2), basis)
        assert flow_minimal_result(a).independent == flow_minimal_result(b).independent
        assert time_t_minimal(a, sqrt3, basis) == time_t_minimal(b, sqrt3, basis)

    def test_map_handles_rejected(self, basis, sqrt2):
        rot = torus_rotation(sqrt2, basis)
        with pytest.raises(ValueError):
            flow_minimal_result(rot)


KINDS = ("torus-flow", "torus-map", "heisenberg-nilflow", "heisenberg-nilsystem",
         "suspension")


def system_of_kind(kind, basis, sqrt2, sqrt3, step):
    """One system per kind; the suspension sits over the Heisenberg nilsystem."""
    torus = torus_flow((sqrt2, sqrt3), basis)
    nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
    return {"torus-flow": lambda: torus,
            "torus-map": lambda: torus_map(torus, step),
            "heisenberg-nilflow": lambda: nil,
            "heisenberg-nilsystem": lambda: heisenberg_nilsystem(nil, step),
            "suspension": lambda: suspend(heisenberg_nilsystem(nil, step))}[kind]()


unit_coords = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=4, max_size=4)
steps = st.floats(-3.0, 3.0).filter(lambda s: abs(s) >= 1e-3)


class TestOrbitCoords:
    # the torus closed form adds t * (omega * step) where evolve adds
    # omega * (t * step), so rows agree to rounding there, exactly elsewhere
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=60, deadline=None)
    @given(unit_coords, st.lists(st.one_of(st.integers(-1000, 1000),
                                           st.floats(-1e3, 1e3)), max_size=6), steps)
    def test_rows_match_scalar_evolution(self, basis, sqrt2, sqrt3, kind, unit, times, step):
        sys = system_of_kind(kind, basis, sqrt2, sqrt3, step)
        assert sys.tag == kind
        x = sys.from_coords(unit[:sys.dim])
        ts = np.array(times, dtype=float)
        rows = sys.orbit_coords(x, ts)
        assert rows.shape == (len(ts), sys.dim)
        assert np.all((rows >= 0.0) & (rows <= 1.0))  # canonical coordinates
        for row, t in zip(rows, ts):
            want = sys.coords(sys.evolve(x, t))
            if sys.is_isometric:
                assert max(circle_dist(a, b) for a, b in zip(row, want)) <= 1e-12
            else:
                assert tuple(row) == want

    @pytest.mark.parametrize("kind", ("torus-map", "heisenberg-nilsystem"))
    @settings(max_examples=100, deadline=None)
    @given(unit_coords, st.integers(-10 ** 4, 10 ** 4), steps)
    def test_time_map_is_flow_at_step_multiple(self, basis, sqrt2, sqrt3, kind,
                                               unit, n, step):
        tmap = system_of_kind(kind, basis, sqrt2, sqrt3, step)
        flow = system_of_kind(kind.replace("map", "flow").replace("nilsystem", "nilflow"),
                              basis, sqrt2, sqrt3, step)
        p = flow.from_coords(unit[:flow.dim])
        assert tmap.evolve(p, n) == flow.evolve(p, n * step)


@pytest.mark.parametrize("kind", ("torus-flow", "heisenberg-nilflow", "suspension"))
def test_from_coords_rejects_wrong_count(basis, sqrt2, sqrt3, kind):
    # one system per spec: TorusFlowSpec, NilflowSpec, SuspensionSpec
    sys = system_of_kind(kind, basis, sqrt2, sqrt3, 1.0)
    unit = (0.1, 0.2, 0.3, 0.4, 0.5)
    assert len(sys.coords(sys.from_coords(unit[:sys.dim]))) == sys.dim
    for n in (sys.dim - 1, sys.dim + 1):
        with pytest.raises(ValueError, match=f"needs {sys.dim} coordinates, got"):
            sys.from_coords(unit[:n])


class TestOrbitSample:
    """SystemHandle.orbit_coords: rows coords(evolve(x, t)) over the times."""

    def test_single_time(self, basis, sqrt2):
        flow = torus_flow((sqrt2,), basis)
        rows = flow.orbit_coords(TorusPoint((0.25,)), [0.0])
        assert rows.shape == (1, 1) and rows[0, 0] == 0.25

    def test_minimal_rotation_fills(self, basis, sqrt2):
        flow = torus_flow((sqrt2,), basis)
        rng = np.random.default_rng(12)
        times = rng.random(10 ** 5) * 1e4
        rows = flow.orbit_coords(TorusPoint((0.0,)), times)
        cells = np.unique((rows[:, 0] * 100).astype(int))
        assert len(cells) == 100  # every 0.01 interval hit

    def test_rational_rotation_period_three(self, basis):
        third = SymbolicReal.rational(Fraction(1, 3))
        rot = torus_map(torus_flow((third,), basis))
        rows = rot.orbit_coords(TorusPoint((0.0,)), list(range(30)))
        pts = np.sort(rows[:, 0])
        clusters = np.unique(np.round(pts * 1e9).astype(np.int64) // 1)
        distinct = len(np.unique(np.round(pts, 9)))
        assert distinct == 3
