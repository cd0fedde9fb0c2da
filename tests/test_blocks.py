"""The block map of the array kernels: the bits depend on neither the block
size nor the worker count.

Each property runs a kernel once as a single block on one worker, the
loop of one core, and then under drawn block sizes and worker counts, and
compares with ==.  `test_real_cpu_count` leaves the worker count to the
machine, so under `taskset -c 0` it runs the inline path.
"""

import contextlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import proximality, systems
from nilflow.algebra import Basis, RealPolynomial, SymbolicReal
from nilflow.averages import Observable, nilfunction_residual, potts_average
from nilflow.proximality import PointCloud, hausdorff_distance
from nilflow.systems import heisenberg_nilflow, map_blocks, map_pool, torus_flow

BASIS = Basis.default()
LINE = torus_flow((SymbolicReal.rational(1),), BASIS)
PLANE = torus_flow((SymbolicReal.rational(1), SymbolicReal.symbol("SQRT2")), BASIS)
HEIS = heisenberg_nilflow(SymbolicReal.symbol("SQRT2"), SymbolicReal.symbol("SQRT3"), BASIS)
POLYS = [RealPolynomial.from_coeffs(["0", "1"]), RealPolynomial.from_coeffs(["0", "0", "1"])]

ONE_BLOCK = 10 ** 12
SPLITS = [(block, cpus) for block in (1, 3, 5, 7, 2 ** 16) for cpus in (1, 2)]


def observables(dim):
    """Trig observables on a rotation factor of dimension dim: one to three
    terms with small frequencies and complex coefficients."""
    freq = st.tuples(*[st.integers(-3, 3)] * dim)
    coeff = st.sampled_from([1.0, 0.5, -0.25j, 0.3 + 0.4j])
    return st.lists(st.tuples(freq, coeff), min_size=1, max_size=3).map(Observable.trig)


@contextlib.contextmanager
def split(block, cpus, *, cpus_too=True):
    """Set the block size and, unless cpus_too is False, the worker count of
    map_pool (behind map_blocks and the Hausdorff pairs) and of the
    Hausdorff queries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "_BLOCK", block)
        if cpus_too:
            mp.setattr(systems, "usable_cpus", lambda: cpus)
            mp.setattr(proximality, "usable_cpus", lambda: cpus)
        yield


def each_split(compute, *, cpus_too=True):
    """compute() as one block on one worker, then under every split."""
    with split(ONE_BLOCK, 1):
        want = compute()
    for block, cpus in SPLITS:
        with split(block, cpus, cpus_too=cpus_too):
            yield want, compute()


@st.composite
def potts_cases(draw):
    flow, dim = draw(st.sampled_from([(LINE, 1), (PLANE, 2), (HEIS, 2)]))
    fs = [draw(observables(dim)), draw(observables(dim))]
    return (flow, fs, draw(st.floats(1.0, 6.0)), draw(st.integers(1, 3)),
            draw(st.integers(0, 2 ** 16)), draw(st.sampled_from([0.01, 0.013, 0.05])))


@settings(max_examples=15, deadline=None)
@given(case=potts_cases())
def test_potts_average_bits(case):
    flow, fs, R, n_x, seed, h = case
    for want, got in each_split(lambda: potts_average(flow, POLYS, fs, R, n_x, seed, h)):
        assert got.deviation == want.deviation
        assert got.n_time == want.n_time


@st.composite
def residual_cases(draw):
    """The torus mesh rule and Heisenberg Monte-Carlo, on grids of t-rows."""
    sys, dim = draw(st.sampled_from([(LINE, 1), (PLANE, 2), (HEIS, 2)]))
    f = draw(observables(dim))
    alphas = draw(st.sampled_from([[1.0], [0.5, 2.0], [-1.5]]))
    ts = np.sort(draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40, unique=True)))
    return sys, f, alphas, ts, draw(st.integers(1, 700)), draw(st.integers(0, 2 ** 16))


@settings(max_examples=15, deadline=None)
@given(case=residual_cases())
def test_nilfunction_residual_bits(case):
    sys, f, alphas, ts, n_samples, seed = case

    def compute():
        rep = nilfunction_residual(sys, f, alphas, ts, n_samples, seed)
        return rep.residual.values, rep.stderrs

    for (want, want_err), (got, got_err) in each_split(compute):
        assert (got == want).all()
        assert (want_err is None and got_err is None) or (got_err == want_err).all()


@st.composite
def cloud_pairs(draw):
    dim, arity = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    sizes = st.integers(1, 3000)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    sys = LINE if dim == 1 else PLANE
    return [PointCloud(rng.random((n, arity, dim)), {}, sys)
            for n in (draw(sizes), draw(sizes))]


@settings(max_examples=15, deadline=None)
@given(clouds=cloud_pairs())
def test_hausdorff_distance_bits(clouds):
    for want, got in each_split(lambda: hausdorff_distance(*clouds)):
        assert got == want


def test_real_cpu_count():
    """The machine's own worker count: the inline path on one CPU."""
    fs = [Observable.cosine(3, -2), Observable.exponential(1, 1)]

    def compute():
        return (potts_average(PLANE, POLYS, fs, 40.0, 3, 7, 0.01).deviation,
                nilfunction_residual(HEIS, fs[0], [1.0, 2.0], np.linspace(0, 9, 11),
                                     2000, 3).residual.values.tobytes())

    for want, got in each_split(compute, cpus_too=False):
        assert got == want


def test_more_workers_than_cores():
    """Eight workers with a short switch interval: a fill that wrote outside
    its slice, or a lost update, would move the bits."""
    fs = [Observable.cosine(3, -2), Observable.exponential(1, 1)]
    with split(ONE_BLOCK, 1):
        want = potts_average(PLANE, POLYS, fs, 20.0, 3, 11, 0.01).deviation
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with split(7, 8):
            got = potts_average(PLANE, POLYS, fs, 20.0, 3, 11, 0.01).deviation
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 300), per=st.integers(1, 50), block=st.integers(1, 200))
def test_blocks_cover_range(n, per, block):
    seen = []
    with split(block, 1):
        map_blocks(seen.append, n, per)
    assert [i for b in seen for i in range(n)[b]] == list(range(n))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_map_pool_reads_patched_cpus(cpus):
    """map_pool, behind map_blocks and the Hausdorff pairs, reads the
    usable_cpus that split patches: inline on the caller's thread at one,
    on pool threads otherwise, with the results in item order."""
    def where(i):
        time.sleep(0.01)  # so that more than one worker takes an item
        return i, threading.get_ident()

    with split(ONE_BLOCK, cpus):
        got = map_pool(where, range(6))
    assert [i for i, _ in got] == list(range(6))
    threads = {ident for _, ident in got}
    if cpus == 1:
        assert threads == {threading.get_ident()}
    else:
        assert 1 <= len(threads) <= cpus and threading.get_ident() not in threads


@pytest.mark.parametrize("cpus", [1, 2])
def test_fill_exception_reaches_caller(cpus):
    def fill(block):
        if block.start >= 10:
            raise ZeroDivisionError(f"block at {block.start}")

    with split(4, cpus), pytest.raises(ZeroDivisionError, match="block at"):
        map_blocks(fill, 40)
