import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.proximality import RPWitness, _one_third, rp_witness_verify, witness_max_gap
from nilflow.suspension import (integer_part_orbit, susp_evolve, susp_metric,
                                susp_rp_transfer_check, suspend)
from nilflow.systems import (SymbolicReal, SystemHandle, heisenberg_nilflow,
                             torus_flow)
from fractions import Fraction


@pytest.fixture(scope="module")
def rot(basis, sqrt2):
    return SystemHandle(torus_flow((sqrt2,), basis).spec, 1.0)


@pytest.fixture(scope="module")
def nilsys(basis, sqrt2, sqrt3):
    return SystemHandle(heisenberg_nilflow(sqrt2, sqrt3, basis).spec, 1.0)


def psi(base, x, s):
    """The product point of the glued class [x, s]: (phi_{step*s} x, s mod 1)."""
    return suspend(base).evolve((*x, 0.0), s)


def glued_evolve(base, x, s, t):
    """The glued suspension flow: [x, s] -> [T^n x, s + t - n], n = floor(s + t)."""
    n = math.floor(s + t)
    return base.evolve(x, n), s + t - n


class TestCanonical:
    """Points are a base point's coordinates followed by the height, in
    [0, 1) and +0.0 when zero; the glued class [x, s] is the point psi(x, s)."""

    def test_height_one_wraps(self, rot):
        x = (0.2,)
        assert suspend(rot).from_coords((0.2, 1.0)) == (*x, 0.0)

    def test_already_canonical(self, rot):
        x = (0.2,)
        assert suspend(rot).from_coords((0.2, 0.7)) == (*x, 0.7)

    def test_multiwrap_and_equivalence(self, rot):
        x = (0.2,)
        p = psi(rot, x, 2.5)
        assert p[-1] == 0.5
        assert susp_metric(rot, p, psi(rot, rot.evolve(x, 2), 0.5)) <= 1e-12

    def test_negative_height(self, rot):
        x = (0.2,)
        p = psi(rot, x, -0.3)
        assert p[-1] == pytest.approx(0.7)
        assert susp_metric(rot, p, psi(rot, rot.evolve(x, 1), -1.3)) <= 1e-12

    def test_retraction(self, rot):
        susp = suspend(rot)
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = psi(rot, (rng.random(),), rng.random() * 10 - 5)
            assert susp.from_coords(p) == p
            assert 0.0 <= p[-1] < 1.0


class TestEquivalence:
    """[x, s] ~ [T^k x, s - k]: the gluing holds in product coordinates."""

    def test_nonintegral_gap(self, rot):
        x = (0.4,)
        gap = susp_metric(rot, (*x, 0.5), (*x, 0.6))
        assert gap == pytest.approx(0.1, abs=1e-12)

    def test_equivalence_relation_sampled(self, rot):
        rng = np.random.default_rng(1)
        for _ in range(300):
            x = (rng.random(),)
            s = rng.random()
            for k in (3, -2):
                assert susp_metric(rot, psi(rot, x, s), psi(rot, rot.evolve(x, k), s - k)) <= 1e-12


STEPPED_BASES = [("rotation", 1.0), ("rotation", 0.7), ("nilsystem", 1.0), ("nilsystem", 0.7)]


class TestConjugacy:
    """psi conjugates the glued suspension flow to the product flow."""

    @pytest.mark.parametrize("kind, step", STEPPED_BASES)
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=4, max_size=4),
           st.floats(-20.0, 20.0))
    def test_glued_flow_through_psi(self, basis, sqrt2, sqrt3, kind, step, unit, t):
        base = (SystemHandle(torus_flow((sqrt2,), basis).spec, step) if kind == "rotation" else
                SystemHandle(heisenberg_nilflow(sqrt2, sqrt3, basis).spec, step))
        x, s = base.from_coords(unit[:base.dim]), unit[-1]
        glued = psi(base, *glued_evolve(base, x, s, t))
        assert susp_metric(base, glued, susp_evolve(base, psi(base, x, s), t)) <= 1e-12


class TestEvolve:
    def test_time_zero(self, rot):
        p = (0.1, 0.3)
        assert susp_evolve(rot, p, 0.0) == p

    def test_single_wrap(self, rot):
        x = (0.1,)
        q = susp_evolve(rot, psi(rot, x, 0.7), 0.5)
        assert q[-1] == pytest.approx(0.2, abs=1e-12)
        assert rot.dist(q[:-1], psi(rot, rot.evolve(x, 1), 0.2)[:-1]) <= 1e-12

    def test_integer_times_recover_base(self, rot):
        # the gluing is automatic: the flow at an integer time n is T^n at height 0
        x = (0.37,)
        for n in (-1000, -37, -1, 0, 1, 5, 1000):
            assert susp_evolve(rot, (*x, 0.0), float(n)) == (*rot.evolve(x, n), 0.0)

    def test_flow_law(self, rot):
        susp = suspend(rot)
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = susp.from_coords((rng.random(), rng.random()))
            s, t = (rng.random(2) * 2 - 1) * 100
            a = susp_evolve(rot, susp_evolve(rot, p, s), t)
            b = susp_evolve(rot, p, s + t)
            assert susp_metric(rot, a, b) <= 1e-10

    @pytest.mark.parametrize("step", (1.0, 0.7, 2.5, 1 / 3, -1.3))
    @pytest.mark.parametrize("dim", (1, 2))
    def test_torus_base_orbit_rows_are_susp_evolve(self, basis, sqrt2, sqrt3, dim, step):
        # over a torus map the suspension is its own rotation factor, so its
        # rows come from rotate in closed form, with the bits of susp_evolve;
        # a row may read 1.0 where susp_evolve reads 0.0, the same circle point
        base = SystemHandle(torus_flow((sqrt2, sqrt3)[:dim], basis).spec, step)
        susp = suspend(base)
        assert susp.is_isometric
        rng = np.random.default_rng(dim)
        ts = np.concatenate([np.arange(-500.0, 500.0), (rng.random(2000) - 0.5) * 2e3])
        for _ in range(2):
            x = susp.from_coords(rng.random(dim + 1))
            rows = susp.orbit_coords(x, ts)
            want = np.array([susp_evolve(base, x, t) for t in ts.tolist()])
            assert (np.where(rows == 1.0, 0.0, rows).view(np.uint64) == want.view(np.uint64)).all()

    def test_height_factor_equivariant(self, rot):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = (rng.random(), rng.random())
            t = rng.random() * 20 - 10
            q = susp_evolve(rot, p, t)
            assert q[-1] == (p[-1] + t) % 1.0


class TestMetric:
    def test_zero_iff_same(self, rot):
        p = (0.3, 0.4)
        assert susp_metric(rot, p, p) == 0.0

    def test_chart_gluing(self, rot):
        # [x, 0.99] and [Tx, 0.01] are flow time 0.02 apart across the gluing:
        # 0.02 on the height, 0.02 * sqrt(2) on the base
        x = (0.6,)
        gap = susp_metric(rot, psi(rot, x, 0.99), psi(rot, rot.evolve(x, 1), 0.01))
        assert gap == pytest.approx(0.02 * math.sqrt(2), abs=1e-12)

    def test_symmetry(self, rot):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = (rng.random(), rng.random())
            q = (rng.random(), rng.random())
            assert susp_metric(rot, p, q) == susp_metric(rot, q, p)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2),
                    min_size=3, max_size=3))
    def test_triangle_inequality(self, rot, coords):
        # max of two circle gaps is a metric on the product, so this holds by
        # construction over the rotation
        p, q, r = (suspend(rot).from_coords(c) for c in coords)
        assert susp_metric(rot, p, r) <= susp_metric(rot, p, q) + susp_metric(rot, q, r) + 1e-15


class TestTransferCheck:
    def test_diagonal_all_true(self, rot):
        x = (0.25,)
        rep = susp_rp_transfer_check(rot, x, x, 0.3, 0.3, 1, 0.1, 10 ** 4)
        assert rep.forward and rep.backward and rep.height_gap_integral
        assert rep.agreement

    def test_nonintegral_gap_obstruction(self, rot):
        x = (0.25,)
        rep = susp_rp_transfer_check(rot, x, x, 0.8, 0.3, 1, 0.1, 10 ** 4)
        assert not rep.height_gap_integral
        assert not rep.forward
        assert rep.forward_status == "proven-absent"
        assert rep.backward is None
        assert rep.agreement

    def test_height_factor_decides_over_heisenberg(self, nilsys):
        # the base is not isometric, so only the height circle can decide
        x = nilsys.from_coords((0.3, 0.1, 0.2))
        rep = susp_rp_transfer_check(nilsys, x, x, 0.8, 0.3, 1, 0.1, 10 ** 4)
        assert rep.forward_status == "proven-absent" and rep.checked == 0
        assert rep.agreement

    def test_heisenberg_fiber_pair(self, nilsys):
        x = nilsys.from_coords((0.3, 0.1, 0.2))
        y = nilsys.from_coords((0.3, 0.1, 0.7))
        rep = susp_rp_transfer_check(nilsys, x, y, 0.4, 0.4, 1, 0.1, 10 ** 6)
        assert rep.height_gap_integral
        assert rep.forward and rep.backward
        assert rep.agreement

    def test_distal_rotation_pair(self, rot):
        rep = susp_rp_transfer_check(rot, (0.1,), (0.6,),
                                     0.2, 0.2, 1, 0.1, 10 ** 4)
        assert rep.height_gap_integral
        assert not rep.forward and not rep.backward
        assert rep.agreement


    # height gap 0.293 and base gap 0, both below 3 delta = 0.3
    BELOW_THREE_DELTA = (0.25,), 0.3, 0.3 + 1 / math.sqrt(2), 0.1

    def test_height_gap_below_three_delta_has_a_witness(self, rot):
        # the suspension over a torus is its own rotation factor, so the
        # forward search tries the one-third witness first
        x, s1, s2, delta = self.BELOW_THREE_DELTA
        susp = suspend(rot)
        assert susp.is_isometric
        p1, p2 = susp.evolve((*x, 0.0), s1), susp.evolve((*x, 0.0), s2)
        w = RPWitness(*_one_third(susp, p1, p2, 1.0, 1), delta)
        assert witness_max_gap(susp, p1, p2, w) == pytest.approx(0.0976, abs=1e-4)
        assert rp_witness_verify(susp, p1, p2, w, delta)
        rep = susp_rp_transfer_check(rot, x, x, s1, s2, 1, delta, 10 ** 4)
        assert rep.forward and rep.forward_status == "witness" and rep.checked == 1, rep

    @pytest.mark.xfail(strict=True, reason=(
        "a height gap below 3 delta is no obstruction, yet agreement expects no "
        "forward witness at a non-integral gap (ROADMAP item 11), a predicate "
        "perfbench/oracles._susp_rp shares"))
    def test_agreement_at_height_gap_below_three_delta(self, rot):
        x, s1, s2, delta = self.BELOW_THREE_DELTA
        assert susp_rp_transfer_check(rot, x, x, s1, s2, 1, delta, 10 ** 4).agreement


class TestIntegerPartOrbit:
    def test_single_time(self, rot):
        cov = integer_part_orbit(rot, (0.0,), [0.0], 0.05)
        assert cov == pytest.approx(1.0 / 20)

    def test_rational_rotation_finite_orbit(self, basis):
        quarter = SymbolicReal.rational(Fraction(1, 4))
        rot4 = SystemHandle(torus_flow((quarter,), basis).spec, 1.0)
        times = [float(4 * k) for k in range(50)]  # multiples of the period
        cov = integer_part_orbit(rot4, (0.0,), times, 0.05)
        assert cov == pytest.approx(1.0 / 20)
        times_all = [float(k) for k in range(50)]
        cov_all = integer_part_orbit(rot4, (0.0,), times_all, 0.05)
        assert cov_all == pytest.approx(4.0 / 20)

    def test_quadratic_sequence_fills(self, rot):
        n = np.arange(1, 4001, dtype=float)
        times = math.sqrt(3) * n * n
        cov = integer_part_orbit(rot, (0.0,), times, 0.05)
        assert cov >= 0.95
