"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check runs at its declared tolerance.
"""

import math
import time
from fractions import Fraction

import numpy as np

from nilflow.algebra import Basis, RealPolynomial, SymbolicReal
from nilflow.averages import (Observable, jstar_embed,
                              gtilde_star_conjugation_check,
                              gtilde_star_membership, nilfunction_residual,
                              potts_average, ud_sup)
from nilflow.proximality import (PROVEN_ABSENT, WITNESS, commuting_rp_transfer,
                                 cube_orbit_sample, hausdorff_distance,
                                 nd_sample, poly_orbit_density,
                                 rp_witness_search, rp_witness_verify)
from nilflow.suspension import integer_part_orbit, susp_rp_transfer_check
from nilflow.systems import (HeisenbergElement, SystemHandle, flow_minimal_result,
                             heis_multiply, heis_power, heisenberg_nilflow,
                             time_t_minimal, torus_flow)

BASIS = Basis.default()
ONE = SymbolicReal.rational(1)
SQRT2 = SymbolicReal.symbol("SQRT2")
SQRT3 = SymbolicReal.symbol("SQRT3")
SQRT6 = SymbolicReal.symbol("SQRT6")


class Stopwatch:
    def __init__(self, limit_s):
        self.limit_s = limit_s
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.limit_s, \
            f"runtime {self.elapsed:.1f}s exceeds {self.limit_s}s"


def announce(n, name, watch, detail=""):
    print(f"ACCEPTANCE {n} ({name}): PASS in {watch.elapsed:.1f}s  {detail}")


def test_criterion_01_kronecker_weyl_decisions():
    watch = Stopwatch(1.0)
    flow = torus_flow((ONE, SQRT2), BASIS)
    assert flow_minimal_result(flow).independent is True
    assert time_t_minimal(flow, ONE) is False
    assert time_t_minimal(flow, SQRT2) is False
    assert time_t_minimal(flow, SQRT3) is True
    watch.check()
    announce(1, "Kronecker-Weyl decisions", watch,
             "flow minimal; time-1/time-sqrt2 non-minimal; time-sqrt3 minimal")


def _symbolic(a, b, c, d):
    return SymbolicReal.from_coeffs({"ONE": a, "SQRT2": b, "SQRT3": c,
                                     "SQRT6": d})


def _expected_minimal(a, b, c, d):
    """Closed-form oracle for the flow (1, sqrt2): the time-t map is
    minimal iff t has a component outside the span of {1, sqrt2}."""
    return c != 0 or d != 0


def test_criterion_02_exceptional_set_structure():
    watch = Stopwatch(5.0)
    flow = torus_flow((ONE, SQRT2), BASIS)
    rng = np.random.default_rng(20)

    def rational_fraction(lo=1, hi=12):
        num = int(rng.integers(-hi, hi + 1)) or 1
        return Fraction(num, int(rng.integers(lo, hi)))

    agree = 0
    total = 0
    # 100 rational t: all lie in the exceptional family r / s1
    for _ in range(100):
        t = SymbolicReal.rational(rational_fraction())
        assert time_t_minimal(flow, t) is False
        agree += 1
        total += 1
    # 100 basis-irrational t: half of the exceptional form r/(s1 + s2 sqrt2)
    # (rationalized exactly), half with independent products
    for i in range(100):
        if i % 2 == 0:
            r = rational_fraction()
            s1, s2 = rational_fraction(), rational_fraction()
            den = s1 * s1 - 2 * s2 * s2
            if den == 0:
                s1 += 1
                den = s1 * s1 - 2 * s2 * s2
            a, b = r * s1 / den, -r * s2 / den
            t = _symbolic(a, b, 0, 0)
            expected = _expected_minimal(a, b, 0, 0)
            assert expected is False
        else:
            c = rational_fraction()
            d = rational_fraction() if rng.random() < 0.5 else Fraction(0)
            t = _symbolic(rational_fraction(), rational_fraction(), c, d)
            expected = _expected_minimal(1, 1, c, d)
        got = time_t_minimal(flow, t)
        assert got == expected, f"disagreement at t={t}"
        agree += 1
        total += 1
    assert agree == total == 200
    watch.check()
    announce(2, "exceptional-set structure", watch,
             f"{agree}/{total} agreement with the closed-form oracle")


def test_criterion_03_heisenberg_algebra(conjugate_power_gap):
    watch = Stopwatch(5.0)
    rng = np.random.default_rng(30)
    n = 10 ** 4
    coords = rng.random((n, 9)) * 10 - 5
    ts = rng.random((n, 2)) * 10 - 5
    worst = 0.0
    for i in range(n):
        a = HeisenbergElement(*coords[i, 0:3])
        b = HeisenbergElement(*coords[i, 3:6])
        h = HeisenbergElement(*coords[i, 6:9])
        s, t = ts[i]
        # group axioms
        lhs = heis_multiply(heis_multiply(a, b), h)
        rhs = heis_multiply(a, heis_multiply(b, h))
        worst = max(worst, *(abs(u - v) for u, v in zip(lhs.coords, rhs.coords)))
        inv = heis_multiply(a, a.inverse())
        worst = max(worst, *(abs(v) for v in inv.coords))
        # power law
        pw = heis_multiply(heis_power(a, s), heis_power(a, t))
        pw2 = heis_power(a, s + t)
        worst = max(worst, *(abs(u - v) for u, v in zip(pw.coords, pw2.coords)))
        # conjugation identity
        worst = max(worst, conjugate_power_gap(a, h, t))
    assert worst <= 1e-12, f"worst algebra gap {worst:.2e}"
    watch.check()
    announce(3, "Heisenberg algebra", watch,
             f"worst gap {worst:.2e} over {n} instances")


def test_criterion_04_rp1_dichotomy():
    watch = Stopwatch(180.0)
    delta = 0.05
    rot = SystemHandle(torus_flow((SQRT2,), BASIS).spec, 1.0)
    rng = np.random.default_rng(40)
    absent = 0
    near = 0
    while absent < 100:
        u, v = rng.random(2)
        x, y = (u,), (v,)
        gap = rot.dist(x, y)
        if gap < 2 * delta:
            continue
        res = rp_witness_search(rot, x, y, 1, delta, 10 ** 6)
        if gap >= 3 * delta:
            assert res.status == PROVEN_ABSENT
            absent += 1
        else:
            # below 3 delta the one-third construction is a witness
            assert res.status == WITNESS, f"no witness at gap {gap:.4f}"
            assert rp_witness_verify(rot, x, y, res.witness, delta)
            near += 1
    assert near > 0

    nil = SystemHandle(heisenberg_nilflow(SQRT2, SQRT3, BASIS).spec, 1.0)
    found = 0
    for _ in range(20):
        xc = rng.random(3)
        c = rng.random()
        x = nil.from_coords(tuple(xc))
        y = nil.from_coords((xc[0], xc[1], (xc[2] + c) % 1.0))
        res = rp_witness_search(nil, x, y, 1, 0.1, 10 ** 6)
        assert res.status == WITNESS, f"no witness for central gap {c:.3f}"
        assert rp_witness_verify(nil, x, y, res.witness, 0.1)
        found += 1
    assert found == 20
    watch.check()
    announce(4, "RP^[1] dichotomy", watch,
             f"{absent}/100 proven-absent at >= 3 delta and {near}/{near} "
             f"verified witnesses in [2, 3) delta on the rotation, "
             f"{found}/20 verified witnesses on the nilsystem")


def test_criterion_05_commuting_action_equality():
    watch = Stopwatch(120.0)
    delta = 0.05
    rot_g = SystemHandle(torus_flow((SQRT2,), BASIS).spec, 1.0)
    rot_h = SystemHandle(torus_flow((SQRT3,), BASIS).spec, 1.0)
    rng = np.random.default_rng(50)
    transfers = 0
    for _ in range(20):
        u = rng.random()
        v = (u + (rng.random() - 0.5) * 0.17) % 1.0
        x, y = (u,), (v,)
        res = rp_witness_search(rot_g, x, y, 1, delta, 10 ** 5)
        assert res.found
        tr = commuting_rp_transfer(rot_g, rot_h, x, y, res.witness,
                                   3 * delta, 10 ** 5)
        assert tr.found
        assert rp_witness_verify(rot_h, x, y, tr.witness, 3 * delta)
        transfers += 1

    x0 = (0.1,)
    budget = 10 ** 5
    q_g = cube_orbit_sample(rot_g, x0, 2, budget, seed=51)
    q_h = cube_orbit_sample(rot_h, x0, 2, budget, seed=52)
    q_dist = hausdorff_distance(q_g, q_h)
    assert q_dist <= 0.02, f"Q^2 clouds differ by {q_dist:.4f}"
    n_g = nd_sample(rot_g, x0, 2, budget, seed=53)
    n_h = nd_sample(rot_h, x0, 2, budget, seed=54)
    n_dist = hausdorff_distance(n_g, n_h)
    assert n_dist <= 0.02, f"N_2 clouds differ by {n_dist:.4f}"
    watch.check()
    announce(5, "commuting-action equality", watch,
             f"{transfers}/20 transfers; Q^2 Hausdorff {q_dist:.4f}, "
             f"N_2 Hausdorff {n_dist:.4f}")


def test_criterion_06_suspension_transfer():
    watch = Stopwatch(120.0)
    delta = 0.1
    rng = np.random.default_rng(60)
    rot = SystemHandle(torus_flow((SQRT2,), BASIS).spec, 1.0)
    nil = SystemHandle(heisenberg_nilflow(SQRT2, SQRT3, BASIS).spec, 1.0)
    reports = []

    # rotation base: diagonal, near, distal, and non-integral-height pairs
    for _ in range(3):
        u, s = rng.random(2)
        x = (u,)
        reports.append(susp_rp_transfer_check(rot, x, x, s, s, 1, delta, 10 ** 5))
    for _ in range(2):
        u, s = rng.random(2)
        gap = (rng.random() - 0.5) * 0.3
        reports.append(susp_rp_transfer_check(
            rot, (u,), rot.from_coords((u + gap,)),
            s, s, 1, delta, 10 ** 5))
    for _ in range(3):
        u, s1 = rng.random(2)
        s2 = (s1 + 0.25 + rng.random() * 0.5) % 1.0
        x = (u,)
        reports.append(susp_rp_transfer_check(rot, x, x, s1, s2, 1, delta, 10 ** 5))
    for _ in range(2):
        u, s = rng.random(2)
        v = (u + 0.25 + rng.random() * 0.5) % 1.0
        reports.append(susp_rp_transfer_check(
            rot, (u,), (v,), s, s, 1, delta, 10 ** 5))

    # Heisenberg base: central-fiber pairs at integral and non-integral heights
    for i in range(10):
        xc = rng.random(3)
        c = 0.2 + rng.random() * 0.6
        x = nil.from_coords(tuple(xc))
        y = nil.from_coords((xc[0], xc[1], (xc[2] + c) % 1.0))
        s1 = rng.random()
        s2 = s1 if i % 2 == 0 else (s1 + 0.25 + rng.random() * 0.5) % 1.0
        reports.append(susp_rp_transfer_check(nil, x, y, s1, s2, 1, delta, 10 ** 6))

    assert len(reports) == 20
    agreeing = sum(r.agreement for r in reports)
    assert agreeing == 20, \
        f"only {agreeing}/20 reports agree with the height-gap predicate"
    watch.check()
    announce(6, "suspension transfer", watch,
             f"{agreeing}/20 outcomes agree with the integral-gap predicate")


def test_criterion_07_polynomial_density():
    watch = Stopwatch(60.0)
    flow = torus_flow((ONE,), BASIS)
    polys = [RealPolynomial.from_coeffs([0, 1]),
             RealPolynomial.from_coeffs([0, 0, 1])]
    cov = poly_orbit_density(flow, polys, (0.0,), 10 ** 6, 0.05,
                             seed=70)
    assert cov >= 0.95, f"Weyl curve coverage {cov:.3f}"

    rot = SystemHandle(torus_flow((SQRT2,), BASIS).spec, 1.0)
    n = np.arange(1, 10 ** 4 + 1, dtype=float)
    times = math.sqrt(3) * n * n
    cov2 = integer_part_orbit(rot, (0.0,), times, 0.05)
    assert cov2 >= 0.95, f"integer-part orbit coverage {cov2:.3f}"
    watch.check()
    announce(7, "polynomial density", watch,
             f"curve coverage {cov:.3f}, integer-part coverage {cov2:.3f}")


def test_criterion_08_product_law():
    watch = Stopwatch(120.0)
    flow = torus_flow((ONE,), BASIS)
    polys = [RealPolynomial.from_coeffs([0, 1]),
             RealPolynomial.from_coeffs([0, 0, 1])]
    f = Observable.exponential(1)
    rep4 = potts_average(flow, polys, [f, f], 10 ** 4, seed=80)
    assert rep4.abs_deviation <= 0.05, f"deviation {rep4.abs_deviation:.4f}"
    rep5 = potts_average(flow, polys, [f, f], 10 ** 5, seed=80)
    assert rep5.abs_deviation <= 1.2 * rep4.abs_deviation, \
        f"no shrinkage: {rep4.abs_deviation:.5f} -> {rep5.abs_deviation:.5f}"
    watch.check()
    announce(8, "independent-polynomial product law", watch,
             f"|dev| {rep4.abs_deviation:.5f} at R=1e4, "
             f"{rep5.abs_deviation:.5f} at R=1e5")


def test_criterion_09_nilfunction_decomposition():
    watch = Stopwatch(120.0)
    flow = torus_flow((ONE,), BASIS)
    grid = np.arange(0.0, 4000.0 + 0.25, 0.5)
    rep = nilfunction_residual(flow, Observable.cosine(1), (1.0,), grid)
    windows = [(s, 1000.0) for s in np.arange(0.0, 3000.0 + 1, 500.0)]
    sup = ud_sup(rep.residual, windows).sup
    assert sup <= 1e-6, f"torus residual ud_sup {sup:.2e}"

    nil = heisenberg_nilflow(SQRT2, SQRT3, BASIS)
    t_grid = np.array([0.0, 0.4, 1.3, 2.7, 5.1, 8.9])
    rep2 = nilfunction_residual(nil, Observable.cosine(1, 0), (1.0,), t_grid,
                                n_samples=10 ** 5, seed=90)
    assert rep2.residual_within_stderr(3.0)
    watch.check()
    announce(9, "nilfunction decomposition", watch,
             f"torus ud_sup {sup:.2e}; Heisenberg within 3 stderr")


def test_criterion_10_embedding_roundtrips():
    watch = Stopwatch(30.0)
    rng = np.random.default_rng(100)

    def random_alphas():
        while True:
            a1 = (rng.random() * 2.5 + 0.5) * (1 if rng.random() < 0.5 else -1)
            a2 = (rng.random() * 2.5 + 0.5) * (1 if rng.random() < 0.5 else -1)
            if abs(a1 - a2) >= 0.3:
                return (a1, a2)

    worst = 0.0
    for _ in range(10 ** 3):
        g1 = HeisenbergElement(*(rng.random(3) * 4 - 2))
        g2 = HeisenbergElement(0.0, 0.0, rng.random() * 4 - 2)
        alphas = random_alphas()
        tup = jstar_embed((g1, g2), alphas)
        res = gtilde_star_membership(tup, alphas, 1e-10)
        assert res.member
        p1, p2 = res.preimage
        gap = max(max(abs(u - v) for u, v in zip(p1.coords, g1.coords)),
                  max(abs(u - v) for u, v in zip(p2.coords, g2.coords)))
        worst = max(worst, gap)
    assert worst <= 1e-10, f"round-trip gap {worst:.2e}"

    closed = 0
    for _ in range(10 ** 3):
        g1 = HeisenbergElement(*(rng.random(3) * 4 - 2))
        g2 = HeisenbergElement(0.0, 0.0, rng.random() * 4 - 2)
        g = HeisenbergElement(*(rng.random(3) * 4 - 2))
        alphas = random_alphas()
        tup = jstar_embed((g1, g2), alphas)
        assert gtilde_star_conjugation_check(g, tup, alphas, 1e-9)
        closed += 1
    assert closed == 10 ** 3
    watch.check()
    announce(10, "embedding round trips", watch,
             f"round-trip gap {worst:.2e}; {closed}/1000 conjugation closures")
