import pytest

from nilflow.algebra import Basis, SymbolicReal
from nilflow.systems import heis_conjugate, heis_power


@pytest.fixture(scope="session")
def basis():
    return Basis.default()


@pytest.fixture(scope="session")
def one():
    return SymbolicReal.rational(1)


@pytest.fixture(scope="session")
def sqrt2():
    return SymbolicReal.symbol("SQRT2")


@pytest.fixture(scope="session")
def sqrt3():
    return SymbolicReal.symbol("SQRT3")


@pytest.fixture(scope="session")
def sqrt6():
    return SymbolicReal.symbol("SQRT6")


@pytest.fixture(scope="session")
def conjugate_power_gap():
    """gap(a, h, t): the largest coordinate gap between h a^t h^-1 and
    (h a h^-1)^t, which the Heisenberg group law makes ~0."""
    def gap(a, h, t):
        lhs = heis_conjugate(h, heis_power(a, t))
        rhs = heis_power(heis_conjugate(h, a), t)
        return max(abs(u - v) for u, v in zip(lhs.coords, rhs.coords))
    return gap
