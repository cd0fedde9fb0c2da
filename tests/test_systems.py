import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilflow.algebra import Basis, SymbolicReal, UnsupportedBasisError
from nilflow.cli import EXIT_BASIS, EXIT_OK, build_basis, main
from nilflow.suspension import suspend
from nilflow.systems import (HEIS_IDENTITY, HeisenbergElement, NilflowSpec,
                             SystemHandle, flow_minimal_result,
                             heis_multiply, heis_power,
                             heisenberg_nilflow, nil_evolve, nil_orbit,
                             time_t_minimal, time_t_values, torus_evolve, torus_flow,
                             unit_mod, wrap_unit)


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
    px, py, pz = p
    qe = HeisenbergElement(*q)
    for gamma in _LATTICE_WINDOW:
        qg = heis_multiply(qe, gamma)
        d = math.sqrt((px - qg.x) ** 2 + (py - qg.y) ** 2 + (pz - qg.z) ** 2)
        if d < best:
            best = d
    return best


def exact_spec(a, basis):
    """The nilflow spec of generator a, its float frequencies as exact rationals."""
    return NilflowSpec(a, tuple(SymbolicReal.rational(Fraction(v)) for v in (a.x, a.y)), basis)


def reference_nil_evolve(spec, p, t):
    """(a^t * p) Gamma in exact Fraction arithmetic, rounded once at the end."""
    a = spec.generator
    ax, ay, az = Fraction(a.x), Fraction(a.y), Fraction(a.z)
    px, py, pz = map(Fraction, p)
    tf = Fraction(t)
    gx = tf * ax
    gy = tf * ay
    gz = tf * az + tf * (tf - 1) / 2 * ax * ay
    rx = gx + px
    ry = gy + py
    rz = gz + pz + gx * py
    n = -math.floor(ry)
    y = float(ry + n)
    if y == 1.0:  # y rounds up to 1: one more lattice step (0, -1, 0) shears z
        y, n = 0.0, n - 1
    z = rz + rx * n
    return (wrap_unit(float(rx - math.floor(rx))), y, wrap_unit(float(z - math.floor(z))))


def _points(lo, hi):
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.tuples(coord, coord, coord)


_NILFLOW = heisenberg_nilflow(SymbolicReal.symbol("SQRT2"), SymbolicReal.symbol("SQRT3"),
                              Basis.default())
canonical_points = _points(0.0, 1.0).map(_NILFLOW.from_coords)
raw_points = _points(-3.0, 3.0)
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
        p = torus_evolve(flow.spec, (0.0,), 0.25)
        assert p == (0.25,)

    def test_time_zero_identity(self, basis, one, sqrt2):
        flow = torus_flow((one, sqrt2), basis)
        p = (0.3, 0.7)
        assert torus_evolve(flow.spec, p, 0.0) == p

    def test_sqrt2_phase(self, basis, sqrt2):
        # high-precision decimal of sqrt(2), reduced mod 1
        flow = torus_flow((sqrt2,), basis)
        p = torus_evolve(flow.spec, (0.0,), 1.0)
        assert p[0] == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_dimension_mismatch(self, basis, one):
        flow = torus_flow((one,), basis)
        with pytest.raises(ValueError):
            torus_evolve(flow.spec, (0.1, 0.2), 1.0)

    def test_flow_law(self, basis, one, sqrt2):
        flow = torus_flow((one, sqrt2), basis)
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = tuple(rng.random(2))
            s, t = (rng.random(2) * 2 - 1) * 1e3
            a = flow.evolve(flow.evolve(p, s), t)
            b = flow.evolve(p, s + t)
            assert flow.dist(a, b) <= 1e-10

    def test_isometry(self, basis, sqrt2):
        flow = torus_flow((sqrt2,), basis)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = (rng.random(),)
            q = (rng.random(),)
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

    def test_conjugation_identity_trivial_cases(self, conjugate_power_gap):
        a = HeisenbergElement(0.7, -0.4, 0.9)
        assert conjugate_power_gap(a, HEIS_IDENTITY, 2.7) == 0.0
        h = HeisenbergElement(1.1, 0.2, -0.5)
        assert conjugate_power_gap(a, h, 1.0) == 0.0

    def test_conjugation_identity_random(self, conjugate_power_gap):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a = HeisenbergElement(*(rng.random(3) * 10 - 5))
            h = HeisenbergElement(*(rng.random(3) * 10 - 5))
            t = rng.random() * 10 - 5
            assert conjugate_power_gap(a, h, t) <= 1e-12


def coset_gap(g, canonical):
    """How far g^-1 * canonical is from the lattice: 0 when canonical is a
    representative of g's coset g Gamma."""
    h = heis_multiply(g.inverse(), HeisenbergElement(*canonical))
    return max(abs(v - round(v)) for v in h.coords)


class TestNilFromCoords:
    """from_coords on the Heisenberg nilflow: the canonical representative
    of the coset, nil_orbit at time 0."""

    def test_worked_example(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        canonical = nil.from_coords((1.25, -0.5, 2.3))
        assert canonical == pytest.approx((0.25, 0.5, 0.55), abs=1e-12)
        assert coset_gap(HeisenbergElement(1.25, -0.5, 2.3), canonical) <= 1e-12

    def test_y_wrap_rounds_z_once(self, basis, sqrt2, sqrt3):
        # z = 0.2 + 0.97 - 1, rounded once; two roundings give 0.16999999999999993
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        assert nil.from_coords((0.97, -0.05, 0.2)) == (0.97, 0.95, 0.16999999999999998)

    def test_already_canonical(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        assert nil.from_coords((0.3, 0.7, 0.1)) == (0.3, 0.7, 0.1)

    def test_integral_input(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        canonical = nil.from_coords((2, 3, 5))
        assert canonical == (0.0, 0.0, 0.0)
        # the forced central integer, checked through the group law
        assert coset_gap(HeisenbergElement(2, 3, 5), canonical) <= 1e-12

    def test_idempotent_and_roundtrip(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        rng = np.random.default_rng(9)
        for _ in range(300):
            g = HeisenbergElement(*(rng.random(3) * 8 - 4))
            canonical = nil.from_coords(g.coords)
            assert all(0.0 <= c < 1.0 for c in canonical)
            assert nil.from_coords(canonical) == canonical
            assert coset_gap(g, canonical) <= 1e-12


class TestNilflow:
    def test_time_zero(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        p = nil.from_coords((0.2, 0.4, 0.8))
        assert nil_evolve(nil.spec, p, 0.0) == p

    def test_base_projection_matches_torus(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        torus = torus_flow((sqrt2, sqrt3), basis)
        p = nil.origin()
        q = (0.0, 0.0)
        for t in (0.3, 1.7, 12.9, -4.4):
            ev = nil.evolve(p, t)
            tv = torus.evolve(q, t)
            assert ev[0] == pytest.approx(tv[0], abs=1e-9)
            assert ev[1] == pytest.approx(tv[1], abs=1e-9)

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
        assert flow.dist((0.1,), (0.9,)) == \
            pytest.approx(0.2, abs=1e-15)

    def test_zero_iff_equal(self, basis, one, sqrt2, sqrt3):
        flow = torus_flow((one,), basis)
        p = (0.37,)
        assert flow.dist(p, p) == 0.0
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        q = nil.from_coords((0.1, 0.2, 0.3))
        assert nil.dist(q, q) == 0.0

    def test_central_translate(self, basis, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        p = (0.0, 0.0, 0.9)
        q = (0.0, 0.0, 0.05)
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
    @example((0.6, 0.99, 0.6), (0.0, 0.0, 0.0), (0.0, 0.98, 0.0))
    def test_triangle_inequality(self, basis, sqrt2, sqrt3, p, q, r):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        assert nil.dist(p, r) <= \
            nil.dist(p, q) + nil.dist(q, r) + 1e-12


class TestKernelsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(any_points, any_points)
    # the least x, y and z gaps sit on the window edge, m = n = k = 2 ...
    @example((2.9, 2.95, 2.99), (0.05, 0.0, 0.0))
    # ... and at m = n = k = -2, from raw points near -3
    @example((-2.9, -2.95, -2.99), (0.05, 0.0, 0.0))
    # q.x * n shifts the z gap: the least one sits at k = -2 one way, at
    # n = -2 and k = 2 the other
    @example((0.0, 2.0, -2.0), (0.75, 0.0, 0.25))
    # dyadic gaps of exactly 1/2 in z: the k minimum ties between two translates
    @example((0.0, 0.0, 0.5), (0.0, 0.0, 0.0))
    @example((0.25, 0.5, 0.875), (0.25, 0.5, 0.375))
    # ties in x, y and z at once, one of them on the edge k = 2
    @example((0.5, 0.5, 2.5), (0.0, 0.0, 0.0))
    # the forward squared gap is the x gap alone (0.25), so the reverse
    # direction returns at its bx check
    @example((0.5, 0.0, 0.0), (0.0, 0.0, 0.0))
    # only row n = 0 survives the bx + dy(n)^2 check, both ways
    @example((0.0, 0.3, 0.2), (0.0, 0.0, 0.0))
    def test_window_gap_bits(self, basis, sqrt2, sqrt3, p, q):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        expected = min(reference_window_gap(p, q), reference_window_gap(q, p))
        assert nil.dist(p, q) == expected

    @settings(max_examples=300, deadline=None)
    @given(generators, any_points, times)
    @example(HeisenbergElement(math.sqrt(2) - 1, math.sqrt(3) - 1, 0.0), (0.1, 0.2, 0.3), 10 ** 5)
    @example(HeisenbergElement(-1.5, 2.25, 0.75), (-2.5, 2.999, -0.125), -99999.5)
    def test_nil_evolve_bits(self, basis, a, p, t):
        spec = exact_spec(a, basis)
        assert nil_evolve(spec, p, t) == reference_nil_evolve(spec, p, t)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(generators, min_size=2, max_size=4), any_points,
           st.lists(times, min_size=1, max_size=4))
    @example([HeisenbergElement(0.5, 0.25, 0.0), HeisenbergElement(0.1, 0.7, 0.3)],
             (0.1, 0.2, 0.3), [3, 0.1, 2.0 ** -40])
    def test_nil_orbit_terms_per_spec(self, basis, gens, p, ts):
        """Each spec keeps its own generator terms: specs built one after
        another, and specs made by dataclasses.replace from one whose terms
        are already kept, evolve as the reference says, interleaved."""
        first = exact_spec(gens[0], basis)
        assert nil_orbit(first, p, ts) == [reference_nil_evolve(first, p, t) for t in ts]
        specs = [first, *(exact_spec(a, basis) for a in gens[1:]),
                 *(dataclasses.replace(first, generator=a) for a in gens[1:])]
        for t in ts:
            for spec in specs:
                assert nil_orbit(spec, p, [t]) == [reference_nil_evolve(spec, p, t)]
        for spec in reversed(specs):
            assert nil_orbit(spec, p, ts) == [reference_nil_evolve(spec, p, t) for t in ts]

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
        assert not time_t_minimal(flow, one)
        assert not time_t_minimal(flow, sqrt2)
        assert time_t_minimal(flow, sqrt3)

    def test_time_t_unsupported_basis(self, basis, one, sqrt2):
        flow = torus_flow((one, sqrt2), basis)
        s5 = SymbolicReal.symbol("SQRT5")
        with pytest.raises(UnsupportedBasisError):
            time_t_minimal(flow, s5)

    def test_zero_time_rejected(self, basis, one, sqrt2):
        flow = torus_flow((one, sqrt2), basis)
        with pytest.raises(ValueError):
            time_t_minimal(flow, SymbolicReal.rational(0))

    def test_decision_pure_in_frequency_order(self, basis, one, sqrt2, sqrt3):
        a = torus_flow((one, sqrt2, sqrt3), basis)
        b = torus_flow((sqrt3, one, sqrt2), basis)
        assert flow_minimal_result(a).independent == flow_minimal_result(b).independent
        assert time_t_minimal(a, sqrt3) == time_t_minimal(b, sqrt3)

    def test_map_handles_rejected(self, basis, sqrt2):
        rot = SystemHandle(torus_flow((sqrt2,), basis).spec, 1.0)
        with pytest.raises(ValueError):
            flow_minimal_result(rot)


# a basis block that declares SQRT2*SQRT5 = SQRT10 and SQRT3*SQRT5 = SQRT15
SQRT5_PRODUCTS = {
    "symbols": [{"symbol": "SQRT10", "value": "3.162277660168379331998893544432718533720"},
                {"symbol": "SQRT15", "value": "3.872983346207416885179265399782399610833"}],
    "products": [{"left": "SQRT2", "right": "SQRT5", "expansion": {"SQRT10": 1}},
                 {"left": "SQRT3", "right": "SQRT5", "expansion": {"SQRT15": 1}}]}
NILFLOW_CFG = {"kind": "heisenberg-nilflow", "alpha": {"SQRT2": "1"}, "beta": {"SQRT3": "1"}}


class TestHeisenbergTimeT:
    """The time-t map of the (sqrt2, sqrt3) nilflow is minimal iff its base
    rotation is: (1, sqrt2 t, sqrt3 t) rationally independent, each product
    taken in the basis the spec keeps."""

    def test_examples(self, basis, one, sqrt2, sqrt3):
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        assert time_t_minimal(nil, one)  # (1, sqrt2, sqrt3)
        assert not time_t_minimal(nil, sqrt2)  # (1, 2, sqrt6)
        assert not time_t_minimal(nil, sqrt3)  # (1, sqrt6, 3)

    def test_products_read_the_spec_basis(self, basis, sqrt2, sqrt3):
        sqrt5 = SymbolicReal.symbol("SQRT5")
        nil = heisenberg_nilflow(sqrt2, sqrt3, build_basis({"basis": SQRT5_PRODUCTS}))
        assert time_t_values(nil, sqrt5) == [SymbolicReal.rational(1),
                                             SymbolicReal.symbol("SQRT10"),
                                             SymbolicReal.symbol("SQRT15")]
        assert time_t_minimal(nil, sqrt5)
        with pytest.raises(UnsupportedBasisError, match=r"SQRT2\*SQRT5"):
            time_t_minimal(heisenberg_nilflow(sqrt2, sqrt3, basis), sqrt5)

    @pytest.mark.parametrize("t, minimal", [("1", True), ({"SQRT2": "1"}, False),
                                            ({"SQRT3": "1"}, False)])
    def test_cli_examples(self, tmp_path, capsys, t, minimal):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"operation": "exceptional", "system": NILFLOW_CFG,
                                    "params": {"t": t}}))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["payload"]["result"] == {"minimal": minimal}

    def test_cli_reads_the_config_basis(self, tmp_path, capsys):
        cfg = {"operation": "exceptional", "system": NILFLOW_CFG,
               "params": {"t": {"SQRT5": "1"}}, "basis": SQRT5_PRODUCTS}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["payload"]["result"] == {"minimal": True}
        del cfg["basis"]
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        diags = json.loads(capsys.readouterr().out)["payload"]["result"]["diagnostics"]
        assert diags == ["UNSUPPORTED-BASIS: product SQRT2*SQRT5 is not expressible "
                         "in the declared basis"]
        assert main(["run", "--config", str(path)]) == EXIT_BASIS
        assert "SQRT2*SQRT5" in capsys.readouterr().err


KINDS = ("torus-flow", "torus-map", "heisenberg-nilflow", "heisenberg-nilsystem",
         "suspension")


def system_of_kind(kind, basis, sqrt2, sqrt3, step):
    """One system per kind; the suspension sits over the Heisenberg nilsystem."""
    torus = torus_flow((sqrt2, sqrt3), basis)
    nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
    return {"torus-flow": lambda: torus,
            "torus-map": lambda: SystemHandle(torus.spec, step),
            "heisenberg-nilflow": lambda: nil,
            "heisenberg-nilsystem": lambda: SystemHandle(nil.spec, step),
            "suspension": lambda: suspend(SystemHandle(nil.spec, step)),
            "suspension-torus-map": lambda: suspend(SystemHandle(torus.spec, step))}[kind]()


unit_coords = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=4, max_size=4)
steps = st.floats(-3.0, 3.0).filter(lambda s: abs(s) >= 1e-3)


class TestOrbitCoords:
    @pytest.mark.parametrize("kind", (*KINDS, "suspension-torus-map"))
    @settings(max_examples=60, deadline=None)
    @given(unit_coords, st.lists(st.one_of(st.integers(-1000, 1000),
                                           st.floats(-1e3, 1e3)), max_size=6), steps)
    # at steps that are not powers of two, t * (omega * step) and
    # omega * (t * step) round apart on about half the rows
    @example([0.1, 0.2, 0.3, 0.4], [1, 2, 3, 5, 7, 11], 0.7)
    def test_rows_match_scalar_evolution(self, basis, sqrt2, sqrt3, kind, unit, times, step):
        """Each row has the bits of evolve at its time; a row's 1.0 reads as
        0.0, the same circle point (unit_mod keeps numpy's 1.0)."""
        sys = system_of_kind(kind, basis, sqrt2, sqrt3, step)
        assert sys.tag == ("suspension" if kind.startswith("suspension") else kind)
        x = sys.from_coords(unit[:sys.dim])
        ts = np.array(times, dtype=float)
        rows = sys.orbit_coords(x, ts)
        assert rows.shape == (len(ts), sys.dim)
        assert np.all((rows >= 0.0) & (rows <= 1.0))  # canonical coordinates
        for row, t in zip(rows, ts):
            got = np.where(row == 1.0, 0.0, row)
            assert (float_bits(got) == float_bits(sys.evolve(x, t))).all(), (row, t)

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


def factor_system(kind, basis, sqrt2, sqrt3):
    """The systems whose declared factors TestFactors checks, and whose
    points TestCanonicalPoints checks."""
    rot = SystemHandle(torus_flow((sqrt2,), basis).spec, 1.0)
    plane = torus_flow((sqrt2, sqrt3), basis)
    nilflow = heisenberg_nilflow(sqrt2, sqrt3, basis, z=0.3)
    nilsys = SystemHandle(nilflow.spec, 1.0)
    return {"rotation": rot, "torus-flow": plane, "torus-map": SystemHandle(plane.spec, 1.0),
            "heisenberg-nilflow": nilflow, "heisenberg-nilsystem": nilsys,
            "suspension-rotation": suspend(rot), "suspension-nilsystem": suspend(nilsys)}[kind]


FACTOR_NAMES = {"rotation": ("torus",), "torus-map": ("torus", "torus-coord-0"),
                "heisenberg-nilflow": ("heisenberg-base",),
                "heisenberg-nilsystem": ("heisenberg-base",),
                "suspension-rotation": ("suspension-height", "suspension-rotation"),
                "suspension-nilsystem": ("suspension-height", "suspension-rotation")}


class TestFactors:
    """Each declared factor is an equivariant projection on which the action
    is an isometry, so its gap is invariant under evolve, and it is
    1-Lipschitz for the system's metric: the two facts the 3 delta absence
    rule and the search's factor mask rest on."""

    @pytest.mark.parametrize("kind", sorted(FACTOR_NAMES))
    def test_declared_entries(self, basis, sqrt2, sqrt3, kind):
        sys = factor_system(kind, basis, sqrt2, sqrt3)
        assert tuple(f.name for f in sys.spec.factors) == FACTOR_NAMES[kind]

    @pytest.mark.parametrize("kind", sorted(FACTOR_NAMES))
    @settings(max_examples=100, deadline=None)
    @given(unit_coords, unit_coords, st.floats(-50.0, 50.0))
    def test_gap_invariant_and_lipschitz(self, basis, sqrt2, sqrt3, kind, u, v, t):
        sys = factor_system(kind, basis, sqrt2, sqrt3)
        p, q = sys.from_coords(u[:sys.dim]), sys.from_coords(v[:sys.dim])
        t = round(t) if sys.discrete else t
        pt, qt = sys.evolve(p, t), sys.evolve(q, t)
        for f in sys.spec.factors:
            gap = f.gap(p, q)
            assert abs(f.gap(pt, qt) - gap) <= 1e-12
            assert gap <= sys.dist(p, q) + 1e-12

    @pytest.mark.parametrize("kind", sorted({*FACTOR_NAMES, "torus-flow"}))
    def test_factors_lie_inside_the_rotation(self, basis, sqrt2, sqrt3, kind):
        # proximality._factor_mask reads the rotation's columns as the union
        # of every factor's, and projection_table takes each factor's fibers
        spec = factor_system(kind, basis, sqrt2, sqrt3).spec
        assert spec.rotation in spec.factors
        for f in spec.factors:
            assert set(f.columns) <= set(spec.rotation.columns), f.name

    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_torus_lists_itself_first(self, basis, sqrt2, sqrt3, dim):
        # the absence rule prints the first gap, so the torus's own comes first
        flow = torus_flow((sqrt2, sqrt3, sqrt2 + sqrt3)[:dim], basis)
        p, q = flow.from_coords((0.1, 0.7, 0.4)[:dim]), flow.from_coords((0.55, 0.2, 0.9)[:dim])
        whole = flow.spec.factors[0]
        assert whole.columns == tuple(range(dim))
        assert whole.gap(p, q) == flow.dist(p, q)

    def test_torus_dist_rejects_mismatched_points(self, basis, sqrt2):
        flow = torus_flow((sqrt2,), basis)
        with pytest.raises(ValueError, match="mismatched systems"):
            flow.dist((0.1,), (0.1, 0.2))
        with pytest.raises(ValueError, match="mismatched systems"):
            flow.dist((0.1, 0.2), (0.3, 0.4))  # each point has one coordinate too many


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("c", [(2, -1, 0, 3), tuple(map(np.float32, (0.25, -0.5, 1.75, 0.125))),
                               tuple(map(Fraction, (1, -2, 3, 4), (3, 7, 2, 5)))],
                         ids=("int", "float32", "Fraction"))
def test_from_coords_gives_python_floats(basis, sqrt2, sqrt3, kind, c):
    sys = system_of_kind(kind, basis, sqrt2, sqrt3, 0.7)
    p = sys.from_coords(c[:sys.dim])
    assert type(p) is tuple and [type(v) for v in p] == [float] * sys.dim, p
    assert p == sys.from_coords(tuple(map(float, c[:sys.dim])))


@pytest.mark.parametrize("kind", ("torus-flow", "heisenberg-nilflow", "suspension"))
def test_from_coords_rejects_wrong_count(basis, sqrt2, sqrt3, kind):
    # one system per spec: TorusFlowSpec, NilflowSpec, SuspensionSpec
    sys = system_of_kind(kind, basis, sqrt2, sqrt3, 1.0)
    unit = (0.1, 0.2, 0.3, 0.4, 0.5)
    assert len(sys.from_coords(unit[:sys.dim])) == sys.dim
    for n in (sys.dim - 1, sys.dim + 1):
        with pytest.raises(ValueError, match=f"needs {sys.dim} coordinates, got"):
            sys.from_coords(unit[:n])


CANONICAL_KINDS = ("torus-flow", "torus-map", "heisenberg-nilflow", "heisenberg-nilsystem",
                   "suspension-rotation", "suspension-nilsystem")


# signed zeros, values a rounding away from an integer, integers and the rest
edge_reals = st.one_of(st.sampled_from([0.0, -0.0, 1e-20, -1e-20]), st.integers(-5, 5),
                       st.integers(-5, 5).map(float), st.floats(-5.0, 5.0))


class TestCanonicalPoints:
    """A point is canonical where it is made: from_coords and evolve give a
    plain tuple of dim coordinates in [0, 1), none of them -0.0, which
    from_coords gives back, repr for repr; coordinates 1e-15 apart give
    points, and evolutions, within 1e-12."""

    @staticmethod
    def check_canonical(sys, p):
        assert type(p) is tuple and len(p) == sys.dim, p
        assert all(0.0 <= v < 1.0 and math.copysign(1.0, v) == 1.0 for v in p), p
        again = sys.from_coords(p)
        assert again == p and list(map(repr, again)) == list(map(repr, p))

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    @settings(max_examples=150, deadline=None)
    @given(st.lists(edge_reals, min_size=4, max_size=4),
           st.lists(st.floats(-1e-15, 1e-15), min_size=4, max_size=4), edge_reals)
    @example([-0.0] * 4, [0.0] * 4, -0.0)
    # a y (on the nilmanifold) or a height (on a suspension) of -1e-20 rounds
    # up to 1.0 in the canonical form: y must carry into z, a height wraps to 0.0
    @example([0.3, -1e-20, 0.5, -1e-20], [0.0, 1e-20, 0.0, 1e-20], 0.0)
    # a height of 0.3 evolved by -0.30000000000000004 rounds up to 1.0
    @example([0.2, 0.3, 0.3, 0.3], [0.0] * 4, -0.30000000000000004)
    # a y of 1 - 2^-53 evolved by 2^-54 on the nilflow rounds up to 1.0
    @example([0.3, 1 - 2.0 ** -53, 0.5, 0.3], [0.0, -(2.0 ** -53), 0.0, 0.0], 2.0 ** -54)
    def test_canonical_and_continuous(self, basis, sqrt2, sqrt3, kind, coords, nudge, t):
        sys = factor_system(kind, basis, sqrt2, sqrt3)
        c = coords[:sys.dim]
        p = sys.from_coords(c)
        q = sys.from_coords([ci + di for ci, di in zip(c, nudge)])
        for point in (p, q, sys.evolve(p, t), sys.evolve(q, t)):
            self.check_canonical(sys, point)
        assert sys.dist(p, q) <= 1e-12
        assert sys.dist(sys.evolve(p, t), sys.evolve(q, t)) <= 1e-12

    @pytest.mark.parametrize("kind", (*KINDS, "suspension-torus-map"))
    @settings(max_examples=100, deadline=None)
    @given(st.lists(edge_reals, min_size=4, max_size=4), steps)
    @example([1.0, -1e-20, -0.0, 1.0], 0.7)
    @example([-1e-300, 1.0 - 2.0 ** -53, -0.0, -1e-20], 2.5)
    @example([-0.0, -0.0, -0.0, -0.0], 1.0)
    def test_evolve_at_time_zero_returns_the_point(self, basis, sqrt2, sqrt3, kind, coords,
                                                   step):
        """The identity witness_max_gap reads its time-0 face by: evolve(p, 0)
        is p, repr for repr, for every point from_coords makes."""
        sys = system_of_kind(kind, basis, sqrt2, sqrt3, step)
        p = sys.from_coords(coords[:sys.dim])
        for zero in (0, 0.0):
            assert list(map(repr, sys.evolve(p, zero))) == list(map(repr, p))

    def test_y_rounding_up_moves_z(self, basis, sqrt2, sqrt3):
        # the lattice step (0, -1, 0) that wraps y moves z by -x
        nil = heisenberg_nilflow(sqrt2, sqrt3, basis)
        assert nil.from_coords((0.3, -1e-20, 0.5)) == (0.3, 0.0, 0.5)
        spec = exact_spec(HeisenbergElement(0.0, 2.0 ** -54 + 2.0 ** -56, 0.0), basis)
        assert nil_orbit(spec, (0.3, 1 - 2.0 ** -53, 0.5), [1]) == \
            [(0.3, 0.0, 0.2)]


class TestOrbitSample:
    """SystemHandle.orbit_coords: rows evolve(x, t) over the times."""

    def test_single_time(self, basis, sqrt2):
        flow = torus_flow((sqrt2,), basis)
        rows = flow.orbit_coords((0.25,), [0.0])
        assert rows.shape == (1, 1) and rows[0, 0] == 0.25

    def test_minimal_rotation_fills(self, basis, sqrt2):
        flow = torus_flow((sqrt2,), basis)
        rng = np.random.default_rng(12)
        times = rng.random(10 ** 5) * 1e4
        rows = flow.orbit_coords((0.0,), times)
        cells = np.unique((rows[:, 0] * 100).astype(int))
        assert len(cells) == 100  # every 0.01 interval hit

    def test_rational_rotation_period_three(self, basis):
        third = SymbolicReal.rational(Fraction(1, 3))
        rot = SystemHandle(torus_flow((third,), basis).spec, 1.0)
        rows = rot.orbit_coords((0.0,), list(range(30)))
        pts = np.sort(rows[:, 0])
        clusters = np.unique(np.round(pts * 1e9).astype(np.int64) // 1)
        distinct = len(np.unique(np.round(pts, 9)))
        assert distinct == 3


def float_bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# every float64: signed zeros, subnormals, integers past 2^52, tiny
# negatives, infinities and nans
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, -1e-20, 1e-20, 2.0 ** 52, -(2.0 ** 52) - 1,
               2.0 ** 53 + 2, -(2.0 ** 60), 1.0, -1.0, math.nextafter(1.0, 0.0),
               -math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), 0.5, -0.5,
               math.inf, -math.inf, math.nan, -math.nan]


def rotate_reference(sys, phases, s):
    """SystemHandle.rotate as an outer product broadcast against the phases,
    per column of the rotation factor ((s * step) * scale) * freq: the
    times scaled by a map's step, then by the column's scale, before the
    frequency."""
    r = sys.spec.rotation
    s = s if sys.step is None else np.multiply(s, sys.step)
    cols = [np.multiply(np.multiply(s, scale), w) for w, scale in zip(r.freqs, r.scales)]
    return (phases + np.stack(cols, axis=-1)) % 1.0


class TestArrayKernelBits:
    """The array kernels against their straightforward forms, compared on
    the float bits."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(any_float, max_size=40))
    @example(EDGE_FLOATS)
    def test_unit_mod_is_remainder(self, values):
        v = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):
            want = v % 1.0
            assert (float_bits(unit_mod(v)) == float_bits(want)).all()
            inplace = v.copy()
            assert unit_mod(inplace, out=inplace) is inplace
            assert (float_bits(inplace) == float_bits(want)).all()

    @pytest.mark.parametrize("kind", (*KINDS, "suspension-torus-map"))
    @settings(max_examples=40, deadline=None)
    @given(step=steps, n=st.integers(0, 50), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1.0, 1e3, 1e6, 1e12]))
    def test_rotate_is_outer_product(self, basis, sqrt2, sqrt3, kind, step, n, seed, scale):
        sys = system_of_kind(kind, basis, sqrt2, sqrt3, step)
        k = len(sys.phase_step)
        rng = np.random.default_rng(seed)
        s = (rng.random(n) - 0.5) * scale
        phases = rng.random(k)
        cases = [(phases, s),  # orbit_coords, fiber_coverage: (k,) with (n,)
                 (rng.random((3, k)), s[:, None]),  # _phase_correlation: (M, k), (T, 1)
                 (phases, np.float64(scale / 3)),  # nilfunction sampling: 0-d
                 (phases, list(s)), (phases, scale / 7)]
        for ph, ss in cases:
            got = sys.rotate(ph, ss)
            want = rotate_reference(sys, ph, ss)
            assert got.shape == want.shape
            assert (float_bits(got) == float_bits(want)).all()

    @settings(max_examples=200, deadline=None)
    @given(generators, any_points, st.lists(times, min_size=1, max_size=12))
    # times with finer dyadic denominators than a and p, both ways round
    @example(HeisenbergElement(0.5, -1.25, 0.0), (0.25, 0.75, 0.5),
             [3 + 2.0 ** -20, 7, 0.0, -3.5, 2.0 ** -40, -99999.0625, 10 ** 5, 1.5])
    @example(HeisenbergElement(math.sqrt(2) - 1, math.sqrt(3) - 1, 0.0),
             (0.1, 0.2, 0.3), [0, -0.0, 1, -1, 0.5, 2.0 ** -60, -10 ** 5])
    # y rounds up to 1.0 at t = 1, and the wrap moves z by -x
    @example(HeisenbergElement(0.0, 2.0 ** -54 + 2.0 ** -56, 0.0),
             (0.3, 1 - 2.0 ** -53, 0.5), [1, 0])
    def test_nil_orbit_is_evolve_per_time(self, basis, a, p, ts):
        spec = exact_spec(a, basis)
        rows = nil_orbit(spec, p, ts)
        assert rows == [nil_evolve(spec, p, t) for t in ts]
        assert rows == [reference_nil_evolve(spec, p, t) for t in ts]

