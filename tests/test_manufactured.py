import numpy as np
import pytest
import sympy as sym

from polympe.manufactured import T, X, Y, residual_oracle


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


@pytest.mark.parametrize("key", ["u,tt", "_g_el", "q", "p:E,grad,t"])
def test_unknown_key_is_key_error(unsteady, key):
    with pytest.raises(KeyError):
        unsteady.exact(key, np.zeros((1, 2)), 0.0)


def test_time_factors(unsteady):
    g_el = unsteady.exprs["_g_el"]
    t = sym.Symbol("t", real=True)
    assert float(g_el.subs(t, 0).subs(sym.Symbol("t"), 0)) == pytest.approx(1.0)
    eta = float(unsteady.exprs["_eta_time"])
    assert eta == pytest.approx(2.0)  # mu_el / (mu_f (1 - alpha)) at unit params
    g_u = sym.simplify(unsteady.exprs["_g_u"])
    g_p = sym.simplify(unsteady.exprs["_g_p"] - (unsteady.exprs["_g_el"] + unsteady.exprs["_g_u"]) / 2)
    assert g_p == 0
    # g_u(0) computed symbolically rather than by hand arithmetic
    tsym = list(g_u.free_symbols)[0]
    assert float(g_u.subs(tsym, 0)) == pytest.approx(2.0)


def test_unsteady_reduces_to_scaled_steady_at_t0(steady, unsteady):
    rng = np.random.default_rng(5)
    pts = sample_points(rng, 10, "elastic")
    d_s = steady.exact("d", pts)
    d_u = unsteady.exact("d", pts, 0.0)
    assert np.allclose(d_u, d_s)  # g_el(0) = 1
    ptsf = sample_points(rng, 10, "fluid")
    assert np.allclose(unsteady.exact("u", ptsf, 0.0), 2.0 * steady.exact("u", ptsf))


def test_separability(unsteady):
    rng = np.random.default_rng(6)
    pts = sample_points(rng, 8, "elastic")
    t1, t2 = 0.123, 0.456
    a = unsteady.exact("p:E", pts, t1)
    b = unsteady.exact("p:E", pts, t2)
    g_el = sym.lambdify(sym.Symbol("t", real=True), unsteady.exprs["_g_el"])
    assert np.allclose(a / b, g_el(t1) / g_el(t2))


def test_residual_oracle_steady(steady):
    rep = residual_oracle(steady, n_points=100, t=0.0)
    assert rep.max_residual < 1e-4
    assert "interface mass flux" in rep.residuals


def test_residual_oracle_unsteady(unsteady):
    rep = residual_oracle(unsteady, n_points=60, t=0.313)
    assert rep.max_residual < 1e-4


def test_residual_oracle_negative_control(steady):
    bad = residual_oracle(steady.corrupted("f_f"), n_points=20)
    assert bad.max_residual > 1e-1
    bad2 = residual_oracle(steady.corrupted("g:E"), n_points=20)
    assert bad2.max_residual > 1e-1


@pytest.mark.parametrize("n_points", [0, -3])
def test_residual_oracle_needs_a_point(steady, n_points):
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        residual_oracle(steady, n_points=n_points)


def test_interface_conditions_via_oracle(unsteady):
    rep = residual_oracle(unsteady, n_points=50, t=0.05)
    for name in ("interface stress balance x", "interface stress balance y",
                 "interface mass flux", "interface normal stress",
                 "interface tangential stress"):
        assert rep.residuals[name] < 1e-4, name


def test_report_summary(steady):
    rep = residual_oracle(steady, n_points=10)
    text = rep.summary()
    assert "max" in text and "incompressibility" in text


def reference_exact(case, key, pts, t):
    """``case.exact(key, pts, t)`` the way it was first written: one plain
    ``lambdify`` per component and derivative, broadcast and stacked."""
    name, _, part = key.partition(",")
    expr = case.exprs[name]

    def lam(e):
        f = sym.lambdify((X, Y, T), e, "numpy")
        return np.broadcast_to(np.asarray(f(pts[:, 0], pts[:, 1], t), dtype=float), len(pts))

    def ev(e):
        if part == "grad":
            return np.stack([lam(e.diff(v)) for v in (X, Y)], axis=1)
        return lam(e.diff(T) if part else e)

    return np.stack([ev(e) for e in expr], axis=1) if isinstance(expr, sym.Matrix) else ev(expr)


@pytest.mark.parametrize("which", ["steady", "unsteady", "corrupted"])
def test_exact_matches_per_component_reference(steady, unsteady, which):
    case = {"steady": steady, "unsteady": unsteady, "corrupted": unsteady.corrupted("f_el")}[which]
    pts = np.random.default_rng(7).uniform([-1.0, 0.0], [1.0, 1.0], (300, 2))
    keys = [name + part for name in case.exprs if not name.startswith("_")
            for part in ("", ",t", ",grad")]
    for key in keys:
        for t in (0.0, 0.37, 1.3):
            got, want = case.exact(key, pts, t), reference_exact(case, key, pts, t)
            assert got.shape == want.shape and got.dtype == np.float64, key
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (key, t)
            # a fresh array each call, which callers may write to
            again = case.exact(key, pts, t)
            assert got.flags.writeable and not np.shares_memory(got, again), key
