import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilflow.suspension import (SuspensionPoint, integer_part_orbit,
                                susp_canonical, susp_evolve, susp_metric,
                                susp_rp_transfer_check, suspend)
from nilflow.systems import (SymbolicReal, TorusPoint, heisenberg_nilflow,
                             heisenberg_nilsystem, torus_flow, torus_map,
                             torus_rotation)
from fractions import Fraction


@pytest.fixture(scope="module")
def rot(basis, sqrt2):
    return torus_rotation(sqrt2, basis)


@pytest.fixture(scope="module")
def nilsys(basis, sqrt2, sqrt3):
    return heisenberg_nilsystem(heisenberg_nilflow(sqrt2, sqrt3, basis))


class TestCanonical:
    def test_height_one_wraps(self, rot):
        x = TorusPoint((0.2,))
        p = susp_canonical(rot, x, 1.0)
        assert p.s == 0.0
        assert rot.dist(p.base, rot.evolve(x, 1)) <= 1e-12

    def test_already_canonical(self, rot):
        x = TorusPoint((0.2,))
        p = susp_canonical(rot, x, 0.7)
        assert p.base == x and p.s == 0.7

    def test_multiwrap_and_equivalence(self, rot):
        x = TorusPoint((0.2,))
        p = susp_canonical(rot, x, 2.5)
        assert p.s == 0.5
        assert susp_metric(rot, p, susp_canonical(rot, rot.evolve(x, 2), 0.5)) <= 1e-12

    def test_negative_height(self, rot):
        x = TorusPoint((0.2,))
        p = susp_canonical(rot, x, -0.3)
        assert p.s == pytest.approx(0.7)
        assert susp_metric(rot, p, susp_canonical(rot, rot.evolve(x, 1), -1.3)) <= 1e-12

    def test_retraction(self, rot):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = TorusPoint((rng.random(),))
            s = rng.random() * 10 - 5
            p = susp_canonical(rot, x, s)
            q = susp_canonical(rot, p.base, p.s)
            assert q.base == p.base and q.s == p.s
            assert 0.0 <= p.s < 1.0


class TestEquivalence:
    """(x, s) ~ (T^k x, s - k): the gluing, seen through canonical points."""

    def test_nonintegral_gap(self, rot):
        x = TorusPoint((0.4,))
        gap = susp_metric(rot, SuspensionPoint(x, 0.5), SuspensionPoint(x, 0.6))
        assert gap == pytest.approx(0.1, abs=1e-12)

    def test_equivalence_relation_sampled(self, rot):
        rng = np.random.default_rng(1)
        for _ in range(300):
            x = TorusPoint((rng.random(),))
            s = rng.random()
            p = SuspensionPoint(x, s)
            for k in (3, -2):
                q = susp_canonical(rot, rot.evolve(x, k), s - k)
                assert susp_metric(rot, p, q) <= 1e-12


class TestEvolve:
    def test_time_zero(self, rot):
        p = SuspensionPoint(TorusPoint((0.1,)), 0.3)
        q = susp_evolve(rot, p, 0.0)
        assert q.base == p.base and q.s == p.s

    def test_single_wrap(self, rot):
        x = TorusPoint((0.1,))
        q = susp_evolve(rot, SuspensionPoint(x, 0.7), 0.5)
        assert q.s == pytest.approx(0.2, abs=1e-12)
        assert rot.dist(q.base, rot.evolve(x, 1)) <= 1e-12

    def test_integer_times_recover_base(self, rot):
        x = TorusPoint((0.37,))
        p = SuspensionPoint(x, 0.0)
        for n in (-1000, -37, -1, 1, 5, 1000):
            q = susp_evolve(rot, p, float(n))
            assert q.s == 0.0
            assert rot.dist(q.base, rot.evolve(x, n)) <= 1e-10

    def test_flow_law(self, rot):
        susp = suspend(rot)
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = susp.from_coords((rng.random(), rng.random()))
            s, t = (rng.random(2) * 2 - 1) * 100
            a = susp_evolve(rot, susp_evolve(rot, p, s), t)
            b = susp_evolve(rot, p, s + t)
            assert susp_metric(rot, a, b) <= 1e-10

    def test_height_factor_equivariant(self, rot):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = SuspensionPoint(TorusPoint((rng.random(),)), rng.random())
            t = rng.random() * 20 - 10
            q = susp_evolve(rot, p, t)
            assert q.s == (p.s + t) % 1.0


class TestMetric:
    def test_zero_iff_same(self, rot):
        p = SuspensionPoint(TorusPoint((0.3,)), 0.4)
        assert susp_metric(rot, p, p) == 0.0

    def test_chart_gluing(self, rot):
        x = TorusPoint((0.6,))
        p = SuspensionPoint(x, 0.99)
        q = SuspensionPoint(rot.evolve(x, 1), 0.01)
        assert susp_metric(rot, p, q) <= 0.02 + 1e-12

    def test_symmetry(self, rot):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = SuspensionPoint(TorusPoint((rng.random(),)), rng.random())
            q = SuspensionPoint(TorusPoint((rng.random(),)), rng.random())
            assert susp_metric(rot, p, q) == susp_metric(rot, q, p)


def reference_susp_metric(base, p, q):
    """The least of the three charts' max(base gap, height gap), both ways,
    every chart computed."""
    def chart_gap(p, q):
        return min(max(base.dist(base.evolve(p.base, k), q.base), abs(p.s - k - q.s))
                   for k in (-1, 0, 1))
    return min(chart_gap(p, q), chart_gap(q, p))


unit = st.floats(0.0, 1.0, exclude_max=True)
suspension_coords = st.lists(unit, min_size=4, max_size=4)  # base first, height last
ULP_BELOW_ONE = math.nextafter(1.0, 0.0)


class TestMetricBits:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["rot", "nilsys"]), suspension_coords, suspension_coords)
    @example("rot", [0.3, 0, 0, 0.0], [0.7, 0, 0, 0.4])  # height 0.0
    @example("nilsys", [0.1, 0.2, 0.3, 0.0], [0.1, 0.2, 0.8, 0.0])
    @example("rot", [0.3, 0, 0, ULP_BELOW_ONE], [0.3, 0, 0, 0.0])  # one ulp below 1.0
    @example("nilsys", [0.9, 0.5, 0.1, ULP_BELOW_ONE], [0.2, 0.4, 0.6, 0.5])
    @example("rot", [0.25, 0, 0, 0.6], [0.75, 0, 0, 0.6])  # integral height gap
    @example("nilsys", [0.3, 0.1, 0.2, 0.4], [0.3, 0.1, 0.7, 0.4])
    def test_equals_plain_charts(self, rot, nilsys, base, u, v):
        base_sys = {"rot": rot, "nilsys": nilsys}[base]
        susp = suspend(base_sys)
        p, q = (susp.from_coords(c[:base_sys.dim] + c[-1:]) for c in (u, v))
        assert susp_metric(base_sys, p, q) == reference_susp_metric(base_sys, p, q)
        assert susp_metric(base_sys, q, p) == reference_susp_metric(base_sys, q, p)


class TestTransferCheck:
    def test_diagonal_all_true(self, rot):
        x = TorusPoint((0.25,))
        rep = susp_rp_transfer_check(rot, x, x, 0.3, 0.3, 1, 0.1, 10 ** 4)
        assert rep.forward and rep.backward and rep.height_gap_integral
        assert rep.agreement

    def test_nonintegral_gap_obstruction(self, rot):
        x = TorusPoint((0.25,))
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
        rep = susp_rp_transfer_check(rot, TorusPoint((0.1,)), TorusPoint((0.6,)),
                                     0.2, 0.2, 1, 0.1, 10 ** 4)
        assert rep.height_gap_integral
        assert not rep.forward and not rep.backward
        assert rep.agreement


class TestIntegerPartOrbit:
    def test_single_time(self, rot):
        cov = integer_part_orbit(rot, TorusPoint((0.0,)), [0.0], 0.05)
        assert cov == pytest.approx(1.0 / 20)

    def test_rational_rotation_finite_orbit(self, basis):
        quarter = SymbolicReal.rational(Fraction(1, 4))
        rot4 = torus_map(torus_flow((quarter,), basis))
        times = [float(4 * k) for k in range(50)]  # multiples of the period
        cov = integer_part_orbit(rot4, TorusPoint((0.0,)), times, 0.05)
        assert cov == pytest.approx(1.0 / 20)
        times_all = [float(k) for k in range(50)]
        cov_all = integer_part_orbit(rot4, TorusPoint((0.0,)), times_all, 0.05)
        assert cov_all == pytest.approx(4.0 / 20)

    def test_quadratic_sequence_fills(self, rot):
        n = np.arange(1, 4001, dtype=float)
        times = math.sqrt(3) * n * n
        cov = integer_part_orbit(rot, TorusPoint((0.0,)), times, 0.05)
        assert cov >= 0.95
