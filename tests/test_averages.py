import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.algebra import RealPolynomial
from nilflow.averages import (IndependenceViolation, Observable, TimeSeries,
                              banach_density, gtilde_star_conjugation_check,
                              gtilde_star_membership, jstar_embed,
                              multi_average_I, multi_average_series,
                              nilfunction_residual, potts_average, ud_sup)
from nilflow.suspension import suspend
from nilflow.systems import (HeisenbergElement, SystemHandle, heis_multiply,
                             heis_power, heisenberg_nilflow, torus_flow)


@pytest.fixture(scope="module")
def circle_flow(basis, one):
    return torus_flow((one,), basis)


@pytest.fixture(scope="module")
def nil(basis, sqrt2, sqrt3):
    return heisenberg_nilflow(sqrt2, sqrt3, basis)


@pytest.fixture(scope="module")
def residual_flows(basis, one, sqrt2, sqrt3):
    """The isometric flows whose decomposition residual is sampled on the
    exact mesh: tori, and a suspension over a torus map."""
    return {"sqrt2": torus_flow((sqrt2,), basis), "1-sqrt2": torus_flow((one, sqrt2), basis),
            "sqrt2-sqrt3": torus_flow((sqrt2, sqrt3), basis),
            "suspended-sqrt2": suspend(SystemHandle(torus_flow((sqrt2,), basis).spec, 0.7))}


# four complex coefficients: with eight alphas, 4^9 frequency tuples exceed
# the exact expansion's limit
SKEW = Observable.trig([((k,), complex(1.0 / abs(k), 0.3 * k)) for k in (-2, -1, 1, 2)])
EIGHT = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def poly(*coeffs):
    return RealPolynomial.from_coeffs(list(coeffs))


class TestObservable:
    @pytest.mark.parametrize("terms, error", [
        ([], "needs one or more terms"),
        ([((1,), 1.0), ((1, 2), 1.0)], "share one length"),
        ([((0.5,), 1.0)], "frequencies must be integers, got 0.5"),
        ([((True,), 1.0)], "frequencies must be integers, got True"),
        ([((np.bool_(True),), 1.0)], "frequencies must be integers"),
        ([(("1",), 1.0)], "frequencies must be integers, got '1'"),
    ], ids=["empty", "ragged", "half", "bool", "numpy-bool", "string"])
    def test_constructor_rejects(self, terms, error):
        with pytest.raises(ValueError, match=error):
            Observable.trig(terms)

    def test_integer_valued_frequencies_read_as_ints(self):
        f = Observable.trig([((1.0, np.int64(-2)), 2)])
        assert f.terms == (((1, -2), 2 + 0j),)
        assert all(type(v) is int for v in f.terms[0][0])
        assert type(f.terms[0][1]) is complex
        assert f == Observable.trig([((1, -2), 2.0)])


class TestIntegrateHaar:
    def test_constant(self):
        assert Observable.constant(1.0).haar_integral() == 1.0

    def test_exponential_orthogonality(self):
        assert Observable.exponential(1).haar_integral() == 0.0

    def test_exact_vs_monte_carlo_cross_validation(self):
        # the constant coefficient against the mean over seeded uniform points
        rng = np.random.default_rng(1)
        n = 2 * 10 ** 4
        for trial in range(20):
            dim = 1 if trial % 2 == 0 else 2
            terms = []
            for _ in range(rng.integers(1, 4)):
                k = tuple(int(v) for v in rng.integers(-3, 4, size=dim))
                terms.append((k, complex(rng.normal(), rng.normal())))
            f = Observable.trig(terms)
            vals = f.eval_phases(np.random.default_rng(trial).random((n, dim)))
            stderr = np.std(vals) / math.sqrt(n)
            assert abs(vals.mean() - f.haar_integral()) <= 3 * stderr + 1e-12


class TestMultiAverage:
    def test_constant_observable(self, circle_flow):
        for t in (0.0, 1.7, -3.3):
            r = multi_average_I(circle_flow, Observable.constant(1.0), (1.0,), t)
            assert r.value == pytest.approx(1.0)

    def test_cosine_closed_form(self, circle_flow):
        f = Observable.cosine(1)
        for t in (0.0, 0.3, 0.77):
            r = multi_average_I(circle_flow, f, (1.0,), t)
            assert r.exact
            assert r.value.real == pytest.approx(0.5 * math.cos(2 * math.pi * t),
                                                 abs=1e-6)
            assert abs(r.value.imag) <= 1e-12

    def test_k2_vanishes(self, circle_flow):
        # exact expansion: no frequency combination +-1 +-1 +-1 sums to zero
        f = Observable.cosine(1)
        for t in (0.1, 0.9, 2.3):
            r = multi_average_I(circle_flow, f, (1.0, 2.0), t)
            assert abs(r.value) <= 1e-12

    def test_repeated_alphas_rejected(self, circle_flow):
        with pytest.raises(ValueError):
            multi_average_I(circle_flow, Observable.cosine(1), (1.0, 1.0), 0.1)

    @pytest.mark.parametrize("path", ["exact", "trig-sampled", "trig-sampled-complex",
                                      "trig-sampled-chunks"])
    def test_series_equals_pointwise(self, circle_flow, path):
        # one build of the terms (or one seeded point set) for the whole
        # grid gives the same bits as one call per t
        f, alphas, n_samples, n_t = {
            "exact": (Observable.cosine(1), (0.5, 1.0, 3.0), 500, 40),
            # 8^6 frequency tuples exceed the exact expansion's limit
            "trig-sampled": (Observable.trig(
                [((k,), 1.0 / abs(k)) for k in (-4, -3, -2, -1, 1, 2, 3, 4)]),
                (0.5, 1.0, 1.5, 2.0, 3.0), 500, 40),
            # the series holds 40 rows of products at once, each t-call one row
            "trig-sampled-complex": (SKEW, EIGHT, 500, 40),
            # 10^6 products per chunk: two t's, then one
            "trig-sampled-chunks": (SKEW, EIGHT, 10 ** 6 // 3 + 1, 3),
        }[path]
        grid = np.arange(12.5, 12.5 + 40 * 0.37, 0.37)[:n_t]
        series = multi_average_series(circle_flow, f, alphas, grid, n_samples, seed=3)
        pointwise = [multi_average_I(circle_flow, f, alphas, float(t), n_samples, seed=3)
                     for t in grid]
        assert series == pointwise
        assert all(r.exact == (path == "exact") for r in series)

    def test_measure_invariance_under_evolved_sampling(self, nil):
        # estimates from an evolved sample set agree within Monte-Carlo error
        from nilflow.averages import _sample_correlation
        f = Observable.cosine(1, 0)
        v1, s1 = _sample_correlation(nil, f, (1.0,), np.array([0.7]), 10 ** 4, 3)
        v2, s2 = _sample_correlation(nil, f, (1.0,), np.array([0.7]), 10 ** 4, 4)
        assert abs(v1[0] - v2[0]) <= 3 * (s1[0] + s2[0])


class TestUDSup:
    def test_zero_function(self):
        grid = np.arange(0.0, 100.5, 0.5)
        res = ud_sup(TimeSeries(grid, np.zeros_like(grid)), [(0.0, 100.0)])
        assert res.sup == 0.0

    def test_mean_abs_cos(self):
        grid = np.arange(0.0, 2000.0 + 0.0025, 0.005)
        res = ud_sup(TimeSeries(grid, np.cos(2 * np.pi * grid)),
                     [(0.0, 1000.0), (500.0, 1000.0), (1000.0, 1000.0)])
        assert res.sup == pytest.approx(2.0 / math.pi, abs=0.01)

    def test_decaying_function_windows(self):
        grid = np.arange(0.0, 10 ** 4 + 0.25, 0.5)
        series = TimeSeries(grid, 1.0 / (1.0 + grid ** 2))
        windows = [(s, 1000.0) for s in np.arange(1000.0, 9000.0 + 1, 500.0)]
        res = ud_sup(series, windows)
        assert res.sup <= 0.002

    def test_window_out_of_span(self):
        grid = np.arange(0.0, 10.5, 0.5)
        with pytest.raises(ValueError):
            ud_sup(TimeSeries(grid, np.ones_like(grid)), [(5.0, 100.0)])


class TestBanachDensity:
    def test_full_hits(self):
        hits = list(np.arange(0.0, 1000.0, 0.05))
        lo, hi = banach_density(hits, 100.0, 10.0, 1000.0)
        assert lo == pytest.approx(1.0, abs=0.01)
        assert hi == pytest.approx(1.0, abs=0.01)

    def test_no_hits(self):
        assert banach_density([], 100.0, 10.0, 1000.0) == (0.0, 0.0)

    def test_rotation_return_times(self, basis, sqrt2):
        from nilflow.proximality import return_set
        flow = torus_flow((sqrt2,), basis)
        x = (0.0,)
        grid = np.arange(0.0, 10 ** 4, 0.1)
        hits = return_set(flow, x, x, 0.1, grid)
        lo, hi = banach_density(hits, 100.0, 50.0, 10 ** 4)
        assert lo > 0.05

    def test_window_exceeds_horizon(self):
        with pytest.raises(ValueError):
            banach_density([1.0], 100.0, 1.0, 50.0)


class TestProductLaw:
    def test_constant_observables(self, circle_flow):
        rep = potts_average(circle_flow, [poly(0, 1), poly(0, 0, 1)],
                            [Observable.constant(1.0)] * 2, 100.0, seed=0)
        assert rep.abs_deviation <= 1e-12

    def test_weyl_pair_small_deviation(self, circle_flow):
        f = Observable.exponential(1)
        rep = potts_average(circle_flow, [poly(0, 1), poly(0, 0, 1)],
                            [f, f], 10 ** 4, seed=1)
        assert rep.abs_deviation <= 0.05

    def test_dependent_polys_rejected(self, circle_flow):
        f = Observable.exponential(1)
        with pytest.raises(IndependenceViolation):
            potts_average(circle_flow, [poly(0, 1), poly(0, 2)], [f, f], 100.0)

    def test_mismatched_lengths(self, circle_flow):
        with pytest.raises(ValueError):
            potts_average(circle_flow, [poly(0, 1)],
                          [Observable.exponential(1)] * 2, 100.0)


class TestNilfunctionResidual:
    def test_constant_observable_zero_residual(self, circle_flow):
        grid = np.arange(0.0, 50.0, 0.5)
        rep = nilfunction_residual(circle_flow, Observable.constant(1.0),
                                   (1.0,), grid)
        assert np.max(np.abs(rep.residual.values)) <= 1e-12

    def test_torus_closed_form_residual(self, circle_flow):
        grid = np.arange(0.0, 3000.0 + 0.25, 0.5)
        rep = nilfunction_residual(circle_flow, Observable.cosine(1), (1.0,), grid)
        assert rep.exact_sampling
        res = ud_sup(rep.residual, [(s, 1000.0) for s in (0.0, 1000.0, 2000.0)])
        assert res.sup <= 1e-6
        # the exact correlation it subtracts is the closed form (1/2) cos(2 pi t)
        exact = multi_average_series(circle_flow, Observable.cosine(1), (1.0,), grid)
        expect = 0.5 * np.cos(2 * np.pi * grid)
        assert np.max(np.abs(np.array([v.value for v in exact]).real - expect)) <= 1e-9

    def test_heisenberg_pullback_within_stderr(self, nil):
        grid = np.array([0.0, 0.4, 1.3, 2.7, 5.1])
        rep = nilfunction_residual(nil, Observable.cosine(1, 0), (1.0,), grid,
                                   n_samples=10 ** 5, seed=5)
        assert not rep.exact_sampling
        assert rep.residual_within_stderr(3.0)

    def test_unsupported_observable(self, circle_flow):
        # 8^6 frequency tuples exceed the exact expansion's cap, so there is
        # no prediction to compare with
        f = Observable.trig([((k,), 1.0 / abs(k)) for k in (-4, -3, -2, -1, 1, 2, 3, 4)])
        with pytest.raises(ValueError, match="262144 frequency tuples, above the exact"):
            nilfunction_residual(circle_flow, f, (0.5, 1.0, 1.5, 2.0, 3.0), [0.0, 1.0])
        # average falls back to sampling instead
        assert not multi_average_I(circle_flow, f, (0.5, 1.0, 1.5, 2.0, 3.0), 1.0,
                                   n_samples=100).exact

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mesh_path_matches_bookkeeping(self, residual_flows, data):
        # the exact mesh (pointwise orbit evaluation) against the frequency
        # bookkeeping, for random integer-frequency trig polynomials
        name = data.draw(st.sampled_from(sorted(residual_flows)))
        flow = residual_flows[name]
        dim = len(flow.phase_step)
        freqs = st.tuples(*[st.integers(-3, 3)] * dim)
        coeffs = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8)).map(lambda c: c / 4)
        terms = data.draw(st.lists(st.tuples(freqs, coeffs), min_size=1, max_size=3))
        alphas = data.draw(st.lists(st.sampled_from([-1.5, -1.0, 0.5, 1.0, 2.0, 3.0]),
                                    min_size=1, max_size=2, unique=True))
        rep = nilfunction_residual(flow, Observable.trig(terms), alphas,
                                   np.arange(0.0, 25.0, 0.83))
        assert rep.exact_sampling
        norm = sum(abs(c) for _, c in terms)
        assert np.max(np.abs(rep.residual.values)) <= 1e-9 * norm ** (len(alphas) + 1)

    def test_mesh_chunks_equal_pointwise(self, basis, one, sqrt2):
        # the 64 x 64 mesh of the 2-torus takes 244 t's per chunk of 10^6
        # products: 600 t's span three chunks, with the same bits as one
        # call per t
        plane = torus_flow((one, sqrt2), basis)
        f = Observable.trig([((1, 0), 0.5 + 0.25j), ((0, -1), 0.5 - 0.25j)])
        grid = np.arange(0.0, 300.0, 0.5)
        rep = nilfunction_residual(plane, f, (1.0,), grid)
        assert rep.exact_sampling and np.max(np.abs(rep.residual.values)) <= 1e-12
        pointwise = [nilfunction_residual(plane, f, (1.0,), [t]) for t in grid]
        assert np.array_equal(rep.residual.values, [r.residual.values[0] for r in pointwise])


class TestJstarEmbed:
    def test_worked_example(self):
        g1 = HeisenbergElement(1, 0, 0)
        g2 = HeisenbergElement(0, 0, 1)
        comps = jstar_embed((g1, g2), (1.0, 2.0))
        assert comps[0].coords == (1.0, 0.0, 0.0)
        assert comps[1].coords == (2.0, 0.0, 1.0)

    def test_identity_inputs(self):
        e = HeisenbergElement(0, 0, 0)
        comps = jstar_embed((e, e), (1.0, 2.0))
        assert all(c == e for c in comps)

    def test_defining_products_recompute(self):
        from nilflow.algebra import binom_real
        rng = np.random.default_rng(6)
        for _ in range(100):
            g1 = HeisenbergElement(*(rng.random(3) * 4 - 2))
            g2 = HeisenbergElement(0.0, 0.0, rng.random() * 4 - 2)
            a1, a2 = 1.0 + rng.random() * 2, -1.0 - rng.random() * 2
            comps = jstar_embed((g1, g2), (a1, a2))
            for a, comp in zip((a1, a2), comps):
                expect = heis_multiply(heis_power(g1, float(binom_real(a, 1))),
                                       heis_power(g2, float(binom_real(a, 2))))
                gap = max(abs(u - v) for u, v in zip(comp.coords, expect.coords))
                assert gap <= 1e-12

    def test_noncentral_second_component_rejected(self):
        with pytest.raises(ValueError):
            jstar_embed((HeisenbergElement(1, 0, 0), HeisenbergElement(1, 0, 0)),
                        (1.0, 2.0))

    def test_k_greater_than_two_rejected(self):
        e = HeisenbergElement(0, 0, 0)
        with pytest.raises(ValueError):
            jstar_embed((e, e, e), (1.0, 2.0, 3.0))


class TestMembership:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g1 = HeisenbergElement(*(rng.random(3) * 4 - 2))
            g2 = HeisenbergElement(0.0, 0.0, rng.random() * 4 - 2)
            alphas = (0.5 + rng.random() * 2, -0.5 - rng.random() * 2)
            tup = jstar_embed((g1, g2), alphas)
            res = gtilde_star_membership(tup, alphas, 1e-10)
            assert res.member
            p1, p2 = res.preimage
            assert max(abs(u - v) for u, v in zip(p1.coords, g1.coords)) <= 1e-10
            assert max(abs(u - v) for u, v in zip(p2.coords, g2.coords)) <= 1e-10

    def test_identity_tuple(self):
        e = HeisenbergElement(0, 0, 0)
        res = gtilde_star_membership((e, e), (1.0, 2.0), 1e-10)
        assert res.member
        assert res.preimage == (e, e)

    def test_non_member(self):
        res = gtilde_star_membership(
            (HeisenbergElement(1, 0, 0), HeisenbergElement(1, 0, 0)),
            (1.0, 2.0), 1e-10)
        assert not res.member
        assert res.preimage is None

    def test_conjugation_closure(self):
        rng = np.random.default_rng(8)
        tup = jstar_embed((HeisenbergElement(0.5, -1.0, 0.25),
                           HeisenbergElement(0, 0, 0.75)), (1.0, 2.0))
        assert gtilde_star_conjugation_check(HeisenbergElement(0, 0, 0), tup,
                                             (1.0, 2.0))
        central = HeisenbergElement(0, 0, 1.7)
        assert gtilde_star_conjugation_check(central, tup, (1.0, 2.0))
        for _ in range(20):
            g = HeisenbergElement(*(rng.random(3) * 4 - 2))
            assert gtilde_star_conjugation_check(g, tup, (1.0, 2.0), 1e-9)

    def test_conjugation_requires_member_input(self):
        bad = (HeisenbergElement(1, 0, 0), HeisenbergElement(1, 0, 0))
        with pytest.raises(ValueError):
            gtilde_star_conjugation_check(HeisenbergElement(0, 0, 0), bad,
                                          (1.0, 2.0))
