"""Exact rational arithmetic over a declared irrational basis.

Values are finite Q-linear combinations of opaque basis symbols (the
reserved symbol ``ONE`` is the rational unit).  The basis declares a
high-precision decimal value per symbol, used only for float rendering,
and an optional product table so that products of two symbolic values
stay inside the declared span.  Independence decisions never touch
floats: one exact solver over Fraction, _dependence, decides them all
and re-verifies each dependence certificate it returns.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

ONE = "ONE"

#: significant digits used when rendering basis symbols to floats
RENDER_DIGITS = 50


class UnsupportedBasisError(ValueError):
    """A required symbol product is not declared in the basis."""


def _as_fraction(q) -> Fraction:
    if isinstance(q, (Fraction, int, str)):
        return Fraction(q)
    raise TypeError(f"expected exact rational, got {type(q).__name__}")


@dataclass(frozen=True)
class SymbolicReal:
    """Exact element of the Q-span of the declared basis symbols.

    ``coeffs`` is a sorted tuple of (symbol, coefficient) pairs with no
    zero coefficients, so equality of values is equality of tuples.
    """

    coeffs: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def from_coeffs(mapping: Mapping[str, object]) -> "SymbolicReal":
        acc = {sym: _as_fraction(q) for sym, q in mapping.items()}
        return SymbolicReal(tuple(sorted((s, q) for s, q in acc.items() if q)))

    @staticmethod
    def rational(q) -> "SymbolicReal":
        return SymbolicReal.from_coeffs({ONE: _as_fraction(q)})

    @staticmethod
    def symbol(sym: str, coeff=1) -> "SymbolicReal":
        return SymbolicReal.from_coeffs({sym: _as_fraction(coeff)})

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "SymbolicReal") -> "SymbolicReal":
        acc = dict(self.coeffs)
        for sym, q in other.coeffs:
            acc[sym] = acc.get(sym, Fraction(0)) + q
        return SymbolicReal.from_coeffs(acc)

    def __neg__(self) -> "SymbolicReal":
        return SymbolicReal(tuple((s, -q) for s, q in self.coeffs))

    def __sub__(self, other: "SymbolicReal") -> "SymbolicReal":
        return self + (-other)

    def scale(self, q) -> "SymbolicReal":
        qq = _as_fraction(q)
        if not qq:
            return SymbolicReal(())
        return SymbolicReal(tuple((s, c * qq) for s, c in self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "SymbolicReal<0>"
        parts = [f"{q}*{s}" if s != ONE else f"{q}" for s, q in self.coeffs]
        return "SymbolicReal<" + " + ".join(parts) + ">"


@cache
def _dec_sqrt(n: int) -> Fraction:
    """Rational approximation of sqrt(n) to RENDER_DIGITS significant digits;
    kept per n, since Basis.default, which every config builds, asks for
    the same four."""
    with decimal.localcontext() as ctx:
        ctx.prec = RENDER_DIGITS + 5
        return Fraction(decimal.Decimal(n).sqrt())


class Basis:
    """Declared irrational basis: symbol values plus a symbol product table.

    The library assumes, and does not prove, that the declared symbols
    are Q-linearly independent; exactness of independence decisions only
    depends on the coefficient arithmetic.
    """

    def __init__(self):
        """The basis {ONE}; declare adds symbols, declare_product products."""
        self.values: dict[str, Fraction] = {ONE: Fraction(1)}
        self.products: dict[tuple[str, str], dict[str, Fraction]] = {}

    @staticmethod
    def default() -> "Basis":
        """Basis {ONE, SQRT2, SQRT3, SQRT5, SQRT6} with its internal products."""
        basis = Basis()
        for n in (2, 3, 5, 6):
            basis.declare(f"SQRT{n}", _dec_sqrt(n))
            basis.declare_product(f"SQRT{n}", f"SQRT{n}", {ONE: n})
        basis.declare_product("SQRT2", "SQRT3", {"SQRT6": 1})
        basis.declare_product("SQRT2", "SQRT6", {"SQRT3": 2})
        basis.declare_product("SQRT3", "SQRT6", {"SQRT2": 3})
        return basis

    def declare(self, sym: str, value) -> None:
        self.values[sym] = _as_fraction(value)

    def declare_product(self, a: str, b: str, expansion: Mapping[str, object]) -> None:
        self.products[tuple(sorted((a, b)))] = {s: _as_fraction(q) for s, q in expansion.items()}

    def symbol_product(self, a: str, b: str) -> dict[str, Fraction]:
        if a == ONE:
            return {b: Fraction(1)}
        if b == ONE:
            return {a: Fraction(1)}
        key = tuple(sorted((a, b)))
        if key not in self.products:
            raise UnsupportedBasisError(
                f"product {key[0]}*{key[1]} is not expressible in the declared basis")
        return self.products[key]

    def multiply(self, a: SymbolicReal, b: SymbolicReal) -> SymbolicReal:
        acc: dict[str, Fraction] = {}
        for sa, qa in a.coeffs:
            for sb, qb in b.coeffs:
                for sym, q in self.symbol_product(sa, sb).items():
                    acc[sym] = acc.get(sym, Fraction(0)) + qa * qb * q
        return SymbolicReal.from_coeffs(acc)

    def to_float(self, a: SymbolicReal) -> float:
        """Render through exact rationals, rounding to a float exactly once."""
        total = Fraction(0)
        for sym, q in a.coeffs:
            if sym not in self.values:
                raise UnsupportedBasisError(f"symbol {sym} has no declared value")
            total += q * self.values[sym]
        return float(total)


def rational_kernel(rows: Sequence[Sequence[object]]) -> list[tuple[Fraction, ...]]:
    """Exact basis of {v : M v = 0}, M given by its rows; [] iff trivial.

    Gauss-Jordan over Fraction; each returned vector has one free column
    set to 1, so the basis is in reduced (column-echelon) form.
    """
    if not rows:
        raise ValueError("matrix must be nonempty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged rows")
    rows = [[_as_fraction(v) for v in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, pr in pivot_of_col.items():
            v[c] = -rows[pr][fc]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool
    certificate: tuple[Fraction, ...] | None = None


def _dependence(columns: Sequence[Mapping[object, Fraction]]) -> IndependenceResult:
    """The one exact dependence solver: column i maps row keys to the exact
    coefficients of item i.  A dependence certificate is the first kernel
    vector, made integral and primitive with a positive first nonzero
    entry, and re-verified against every row; with no row at all every
    item is zero and the first unit vector is the certificate."""
    keys = sorted({k for col in columns for k in col})
    rows = [[col.get(k, 0) for col in columns] for k in keys] or [[0] * len(columns)]
    kernel = rational_kernel(rows)
    if not kernel:
        return IndependenceResult(True, None)
    cert = _normalize_relation(kernel[0])
    assert not any(sum(q * v for q, v in zip(cert, row)) for row in rows), \
        "certificate failed exact re-verification"
    return IndependenceResult(False, cert)


def _normalize_relation(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Clear denominators and divide by the content, fixing the leading sign."""
    from math import gcd, lcm
    scale = lcm(*(q.denominator for q in vec))
    ints = [int(q * scale) for q in vec]
    g = gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 1)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def rationally_independent(vals: Sequence[SymbolicReal]) -> IndependenceResult:
    """Exact rational-independence decision with a re-verified certificate.

    Returns INDEPENDENT, or DEPENDENT together with a nonzero rational q
    such that sum(q_i * vals_i) vanishes identically over the shared basis.
    """
    if not vals:
        raise ValueError("vals must be nonempty")
    return _dependence([v.as_dict() for v in vals])


def binom_real(a, n: int):
    """Generalized binomial coefficient a*(a-1)*...*(a-n+1)/n!.

    Exact (Fraction) for int and Fraction inputs, float otherwise; the
    n = 0 case is 1 for every a.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    exact = isinstance(a, (int, Fraction))
    num = Fraction(1) if exact else 1.0
    for k in range(n):
        num *= (a - k)
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return num / fact


@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial with exact rational coefficients, low degree first."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Sequence[object]) -> "RealPolynomial":
        cs = [_as_fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return RealPolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + float(c)
        return acc

    def eval_array(self, t):
        import numpy as np
        acc = np.zeros_like(np.asarray(t, dtype=float))
        for c in reversed(self.coeffs):  # Horner in place: acc * t + c
            acc *= t
            acc += float(c)
        return acc


def require_nonconstant(polys: Sequence[RealPolynomial]) -> None:
    if any(p.is_constant for p in polys):
        raise ValueError("polynomials must be nonconstant")


def polys_r_independent(polys: Sequence[RealPolynomial]) -> IndependenceResult:
    """True iff no nontrivial rational combination of the polys is constant.

    Exact: the nonconstant coefficients decide, and a re-verified
    dependence certificate is returned when one exists.
    """
    if not polys:
        raise ValueError("polys must be nonempty")
    return _dependence([dict(enumerate(p.coeffs[1:], 1)) for p in polys])
