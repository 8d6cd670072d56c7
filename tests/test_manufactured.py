import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sym

import polympe
from polympe.manufactured import SOURCES, residual_oracle

from symbolic import T, steady_reference, unsteady_factors, unsteady_reference

FIELD_KEYS = [f + part for f in ("d", "p:E", "u", "p") for part in ("", ",t", ",grad")]


def sample_points(rng, n, domain):
    if domain == "elastic":
        return np.column_stack([rng.uniform(-0.95, -0.05, n), rng.uniform(0.05, 0.95, n)])
    return np.column_stack([rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n)])


def test_steady_pointwise_values(steady):
    p = steady.exact("p", np.array([[0.0, 0.5]]))
    assert p[0] == pytest.approx(-4 * np.pi ** 2)
    u = steady.exact("u", np.array([[0.0, 0.0]]))
    assert np.allclose(u, [[np.pi, -np.pi]])
    pE = steady.exact("p:E", np.array([[0.0, 0.5]]))
    assert pE[0] == pytest.approx(-2 * np.pi ** 2)


def test_divergence_free_closed_form(steady, unsteady):
    rng = np.random.default_rng(4)
    for case, t in ((steady, 0.0), (unsteady, 0.41)):
        pts = sample_points(rng, 20, "fluid")
        g = case.exact("u,grad", pts, t)
        assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() < 1e-12


@pytest.mark.parametrize("key", ["u,tt", "_g_el", "q", "p:E,grad,t", "f_el,t", "f_el,grad"])
def test_unknown_key_is_key_error(unsteady, key):
    # no caller reads a source derivative, so the cases do not define them
    with pytest.raises(KeyError):
        unsteady.exact(key, np.zeros((1, 2)), 0.0)
    with pytest.raises(KeyError):
        unsteady.corrupted(key)


def test_time_factors(steady, unsteady):
    # the closed-form factors and their derivatives against the symbolic ones
    g_el, g_u, g_p, eta = unsteady_factors(sym.Rational(1, 2))
    assert eta == 2  # mu_el / (mu_f (1 - alpha)) at unit params
    want = {"el": g_el, "el_t": g_el.diff(T), "el_tt": g_el.diff(T, 2),
            "u": g_u, "u_t": g_u.diff(T), "p": g_p, "p_t": g_p.diff(T)}
    for t in (0.0, 0.37, 1.3):
        got = unsteady.factors(t, np)._asdict()
        assert set(got) == set(want)
        for name, expr in want.items():
            assert got[name] == pytest.approx(float(expr.subs(T, t)), rel=1e-14, abs=1e-14), name
        assert tuple(steady.factors(t, np)) == (1, 0, 0, 1, 0, 1, 0)
    g0 = unsteady.factors(0.0, np)
    assert (g0.el, g0.u, g0.p) == (1, 2, 1.5)


def test_unsteady_reduces_to_scaled_steady_at_t0(steady, unsteady):
    rng = np.random.default_rng(5)
    pts = sample_points(rng, 10, "elastic")
    d_s = steady.exact("d", pts)
    d_u = unsteady.exact("d", pts, 0.0)
    assert np.allclose(d_u, d_s)  # g_el(0) = 1
    ptsf = sample_points(rng, 10, "fluid")
    assert np.allclose(unsteady.exact("u", ptsf, 0.0), 2.0 * steady.exact("u", ptsf))


def test_separability(unsteady):
    # each field is its time factor times one profile
    rng = np.random.default_rng(6)
    pts = sample_points(rng, 8, "elastic")
    t1, t2 = 0.123, 0.456
    g1, g2 = unsteady.factors(t1, np), unsteady.factors(t2, np)
    for key, factor in (("d", "el"), ("p:E", "el"), ("u", "u"), ("p", "p")):
        a, b = unsteady.exact(key, pts, t1), unsteady.exact(key, pts, t2)
        assert np.allclose(a * getattr(g2, factor), b * getattr(g1, factor)), key


def test_residual_oracle_steady(steady):
    rep = residual_oracle(steady, n_points=100, t=0.0)
    assert rep.max_residual < 1e-4
    assert "interface mass flux" in rep.residuals


def test_residual_oracle_unsteady(unsteady):
    rep = residual_oracle(unsteady, n_points=60, t=0.313)
    assert rep.max_residual < 1e-4


def test_residual_oracle_negative_control(steady):
    # a sign slip in any source or in the outlet datum fails the oracle
    for source in SOURCES:
        bad = residual_oracle(steady.corrupted(source), n_points=20)
        assert bad.max_residual > 1e-1, source


@pytest.mark.parametrize("n_points", [0, -3])
def test_residual_oracle_needs_a_point(steady, n_points):
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        residual_oracle(steady, n_points=n_points)


def test_residual_oracle_covers_one_compartment(steady):
    from dataclasses import replace
    from polympe.params import PhysicalParams
    case = replace(steady, params=PhysicalParams.unit(("A", "C", "V", "E")))
    with pytest.raises(ValueError, match="single-compartment"):
        residual_oracle(case, n_points=5)


def test_interface_conditions_via_oracle(unsteady):
    rep = residual_oracle(unsteady, n_points=50, t=0.05)
    for name in ("interface stress balance x", "interface stress balance y",
                 "interface mass flux", "interface normal stress",
                 "interface tangential stress", "outlet normal stress",
                 "outlet tangential stress"):
        assert rep.residuals[name] < 1e-4, name


def test_report_summary(steady):
    rep = residual_oracle(steady, n_points=10)
    text = rep.summary()
    assert "max" in text and "incompressibility" in text


@pytest.fixture(scope="module")
def references():
    return {"steady": steady_reference(), "unsteady": unsteady_reference()}


@pytest.mark.parametrize("which", ["steady", "unsteady", "corrupted"])
def test_exact_matches_per_component_reference(steady, unsteady, references, which):
    # the closed forms against the symbolic derivation, for every key a
    # caller reads
    case, ref = {"steady": (steady, references["steady"]),
                 "unsteady": (unsteady, references["unsteady"]),
                 "corrupted": (unsteady.corrupted("f_el"),
                               references["unsteady"].corrupted("f_el"))}[which]
    pts = np.random.default_rng(7).uniform([-1.0, 0.0], [1.0, 1.0], (300, 2))
    for key in FIELD_KEYS + list(SOURCES):
        for t in (0.0, 0.37, 1.3):
            got, want = case.exact(key, pts, t), ref.exact(key, pts, t)
            assert got.shape == want.shape and got.dtype == np.float64, key
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (key, t)
            # a fresh array each call, which callers may write to
            again = case.exact(key, pts, t)
            assert got.flags.writeable and not np.shares_memory(got, again), key


@pytest.mark.parametrize("which", ["steady", "unsteady"])
def test_exact_at_many_times_matches_scalar_calls(steady, unsteady, which):
    # a vector of times evaluates the profiles once and scales them by each
    # time's factors: the scalar calls to a few ulp (numpy may round an array
    # sine apart from a scalar one), the steady constants broadcast to S
    case = steady if which == "steady" else unsteady
    pts = np.random.default_rng(8).uniform([-1.0, 0.0], [1.0, 1.0], (200, 2))
    times = np.array([0.0, 0.37, 1.3, 2.9])
    for key in FIELD_KEYS + list(SOURCES):
        got = case.exact(key, pts, times)
        assert got.shape == (len(times),) + case.exact(key, pts, 0.0).shape, key
        for i, t in enumerate(times):
            want = case.exact(key, pts, t)
            assert np.abs(got[i] - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max(), \
                (key, t)
        assert np.array_equal(case.exact(key, pts, list(times)), got), key
    with pytest.raises(ValueError):
        case.exact("p", pts, times[None])



@pytest.mark.parametrize("t", [0.37, np.array([0.0, 0.37, 1.3])], ids=["scalar", "times"])
def test_zero_data_has_the_case_shapes(unsteady, t):
    # the zero datum answers every key in the shape a manufactured case does,
    # so that the norms and the projections read either alike
    from polympe.forms import ZeroData
    pts = np.random.default_rng(9).uniform([-1.0, 0.0], [1.0, 1.0], (7, 2))
    for key in FIELD_KEYS + list(SOURCES):
        got = ZeroData().exact(key, pts, t)
        assert got.shape == unsteady.exact(key, pts, t).shape, key
        assert got.dtype == np.float64 and not got.any(), key
    # any compartment: a pressure and its source are scalars
    assert ZeroData().exact("p:A,grad", pts, t).shape == np.shape(t) + (7, 2)
    assert ZeroData().exact("g:V", pts, t).shape == np.shape(t) + (7,)

def test_import_does_not_load_sympy():
    # sympy is a test dependency only: the package and its CLI never import it
    src = str(Path(polympe.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, polympe, polympe.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "False"
