import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.algebra import (RealPolynomial, SymbolicReal,
                             UnsupportedBasisError, binom_real,
                             polys_r_independent, rational_kernel,
                             rationally_independent)


def mat(rows):
    return [[Fraction(v) for v in row] for row in rows]


def matvec(m, vec):
    """The exact product M v."""
    if any(len(vec) != len(r) for r in m):
        raise ValueError("dimension mismatch")
    return tuple(sum((a * b for a, b in zip(r, vec)), Fraction(0)) for r in m)


class TestRationalKernel:
    def test_identity_has_trivial_kernel(self):
        assert rational_kernel(mat([[1, 0], [0, 1]])) == []

    def test_rank_one_matrix(self):
        basis = rational_kernel(mat([[1, 1], [2, 2]]))
        assert len(basis) == 1
        v = basis[0]
        # (1, -1) up to scaling
        assert v[0] * Fraction(-1) == v[1]

    def test_random_rational_matrices_exact(self):
        # oracle: exact matrix-vector multiplication must vanish on the basis
        rng = random.Random(123)
        for _ in range(20):
            rows, cols = 4, 6
            m = mat([[Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                      for _ in range(cols)] for _ in range(rows)])
            basis = rational_kernel(m)
            for v in basis:
                assert all(val == 0 for val in matvec(m, v))
            # kernel of a 4x6 matrix has dimension >= 2
            assert len(basis) >= 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rational_kernel(mat([[1, 2], [1]]))
        with pytest.raises(ValueError):
            rational_kernel([])
        with pytest.raises(TypeError):
            rational_kernel([[0.5, 1]])
        with pytest.raises(ValueError):
            matvec(mat([[1, 2]]), (Fraction(1),))


class TestRationallyIndependent:
    def test_one_and_sqrt2_independent(self, one, sqrt2):
        assert rationally_independent([one, sqrt2]).independent

    def test_explicit_relation(self, one, sqrt2):
        # (1 + sqrt2) + (2 - sqrt2) - 3 = 0
        vals = [one + sqrt2, SymbolicReal.rational(2) - sqrt2,
                SymbolicReal.rational(3)]
        res = rationally_independent(vals)
        assert not res.independent
        q = res.certificate
        assert q is not None and any(q)
        combo = SymbolicReal(())
        for c, v in zip(q, vals):
            combo = combo + v.scale(c)
        assert combo.is_zero

    def test_sqrt3_sqrt6_independent(self, one, sqrt3, sqrt6):
        # derived: exact kernel of the coefficient matrix over {ONE, SQRT3, SQRT6}
        assert rationally_independent([one, sqrt3, sqrt6]).independent

    def test_constructed_dependences_reverify(self, one, sqrt2, sqrt3):
        rng = random.Random(7)
        gens = [one, sqrt2, sqrt3]
        for _ in range(50):
            vals = [SymbolicReal.from_coeffs(
                {s: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                 for s in ("ONE", "SQRT2", "SQRT3")}) for _ in range(3)]
            # append an exact rational combination: family must be dependent
            q = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            if not any(q):
                q[0] = Fraction(1)
            extra = SymbolicReal(())
            for c, v in zip(q, vals):
                extra = extra + v.scale(c)
            res = rationally_independent(vals + [extra])
            assert not res.independent
            cert = res.certificate
            combo = SymbolicReal(())
            for c, v in zip(cert, vals + [extra]):
                combo = combo + v.scale(c)
            assert combo.is_zero

    def test_invariance_under_permutation_and_scaling(self, one, sqrt2, sqrt3):
        rng = random.Random(99)
        fams = [
            [one, sqrt2, sqrt3],
            [one + sqrt2, SymbolicReal.rational(2) - sqrt2, SymbolicReal.rational(3)],
            [sqrt2, sqrt2.scale(2)],
        ]
        for vals in fams:
            expected = rationally_independent(vals).independent
            shuffled = vals[:]
            rng.shuffle(shuffled)
            scaled = [v.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
                      for v in shuffled]
            assert rationally_independent(shuffled).independent == expected
            assert rationally_independent(scaled).independent == expected

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            rationally_independent([])


class TestBinomReal:
    def test_half_choose_two(self):
        assert binom_real(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_choose_zero_is_one(self):
        assert binom_real(Fraction(7, 3), 0) == 1
        assert binom_real(2.718, 0) == 1.0

    def test_integer_case(self):
        assert binom_real(3, 2) == 3

    def test_pascal_recurrence_exact(self):
        rng = random.Random(5)
        for _ in range(100):
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            n = rng.randint(1, 8)
            assert binom_real(a, n) == binom_real(a - 1, n - 1) + binom_real(a - 1, n)

    def test_float_path(self):
        assert binom_real(0.5, 2) == pytest.approx(-0.125)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binom_real(1, -1)


class TestSymbolicReal:
    def test_normalization_drops_zeros(self, sqrt2):
        v = sqrt2 - sqrt2
        assert v.is_zero
        assert v.coeffs == ()

    def test_equality_is_coefficient_equality(self, one, sqrt2):
        a = one + sqrt2
        b = SymbolicReal.from_coeffs({"ONE": 1, "SQRT2": 1})
        assert a == b
        assert a != one

    def test_to_float_additive_within_ulp(self, basis, one, sqrt2, sqrt3):
        vals = [one, sqrt2, sqrt3, one + sqrt2.scale(Fraction(3, 7))]
        for a in vals:
            for b in vals:
                lhs = basis.to_float(a + b)
                rhs = basis.to_float(a) + basis.to_float(b)
                assert math.isclose(lhs, rhs, rel_tol=4e-16, abs_tol=1e-300)

    def test_rendered_sqrt2(self, basis, sqrt2):
        assert basis.to_float(sqrt2) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_product_table(self, basis, sqrt2, sqrt3, sqrt6):
        assert basis.multiply(sqrt2, sqrt3) == sqrt6
        assert basis.multiply(sqrt2, sqrt2) == SymbolicReal.rational(2)
        two_sqrt3 = basis.multiply(sqrt2, sqrt6)
        assert two_sqrt3 == sqrt3.scale(2)

    def test_undeclared_product_raises(self, basis, sqrt2):
        s5 = SymbolicReal.symbol("SQRT5")
        with pytest.raises(UnsupportedBasisError, match="SQRT2\\*SQRT5"):
            basis.multiply(sqrt2, s5)


class TestPolynomials:
    def test_eval(self):
        p = RealPolynomial.from_coeffs(["1", "0", "2"])
        assert p.eval_array(3.0) == pytest.approx(19.0)

    def test_r_independent_guard(self):
        t = RealPolynomial.from_coeffs([0, 1])
        t2 = RealPolynomial.from_coeffs([0, 0, 1])
        assert polys_r_independent([t, t2]).independent
        dep = polys_r_independent([t, RealPolynomial.from_coeffs([0, 2])])
        assert not dep.independent
        assert dep.certificate is not None

    def test_constant_family_dependent(self):
        c = RealPolynomial.from_coeffs([5])
        assert not polys_r_independent([c]).independent

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)),
                    min_size=1, max_size=5),
           st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                                               math.inf, -math.inf, math.nan]),
                              st.floats(allow_nan=True, allow_infinity=True)),
                    min_size=1, max_size=40))
    def test_eval_array_in_place_is_horner(self, coeffs, ts):
        """eval_array's in-place Horner step has the bits of acc * t + c."""
        p = RealPolynomial.from_coeffs(coeffs)
        t = np.array(ts)
        want = np.zeros_like(t)
        with np.errstate(all="ignore"):  # inf * 0 and overflow are part of the draw
            for c in reversed(p.coeffs):
                want = want * t + float(c)
            got = p.eval_array(t)
        assert (got.view(np.uint64) == want.view(np.uint64)).all()


# ---------------------------------------------------------------------------
# the one dependence solver against a determinant oracle

SYMBOLS = ("ONE", "SQRT2", "SQRT3", "SQRT5")
COEFF = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


def leibniz_det(m):
    """Determinant of a square Fraction matrix by the Leibniz sum over
    permutations (no elimination)."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def has_full_minor(rows, n):
    """Does some n x n minor of the (row keys x items) matrix not vanish?"""
    return any(leibniz_det([rows[i] for i in pick])
               for pick in itertools.combinations(range(len(rows)), n))


@st.composite
def coefficient_columns(draw, n_keys):
    """1-4 items, one column of coefficients p/q per item; half of the
    families plant a dependence (the last item is a combination of the
    others, zero when it is alone)."""
    n = draw(st.integers(1, 4))
    cols = [[draw(COEFF) for _ in range(n_keys)] for _ in range(n)]
    if draw(st.booleans()):
        q = [draw(COEFF) for _ in range(n - 1)]
        cols[-1] = [sum((qi * c[k] for qi, c in zip(q, cols)), Fraction(0))
                    for k in range(n_keys)]
    return cols


def check_decision(res, cols):
    rows = [list(row) for row in zip(*cols)]
    assert res.independent == has_full_minor(rows, len(cols))
    cert = res.certificate
    if res.independent:
        assert cert is None
        return
    assert len(cert) == len(cols)
    assert all(q.denominator == 1 for q in cert)
    assert math.gcd(*(int(q) for q in cert)) == 1
    assert next(q for q in cert if q) > 0
    assert all(sum((q * v for q, v in zip(cert, row)), Fraction(0)) == 0 for row in rows)


class TestDependenceSolver:
    @settings(max_examples=300, deadline=None)
    @given(cols=coefficient_columns(len(SYMBOLS)))
    def test_symbolic_values(self, cols):
        vals = [SymbolicReal.from_coeffs(dict(zip(SYMBOLS, col))) for col in cols]
        check_decision(rationally_independent(vals), cols)

    @settings(max_examples=300, deadline=None)
    @given(cols=coefficient_columns(3), constants=st.lists(COEFF, min_size=4, max_size=4))
    def test_polynomials(self, cols, constants):
        # rows are the t, t^2 and t^3 coefficients; constant terms never matter
        polys = [RealPolynomial.from_coeffs([c, *col]) for c, col in zip(constants, cols)]
        check_decision(polys_r_independent(polys), cols)
