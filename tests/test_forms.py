import json
from pathlib import Path

import numpy as np
import pytest
import sympy as sym

from polympe import forms
from polympe.families import VERIFICATION_DIRICHLET
from polympe.manufactured import ManufacturedCase, X, Y, _strong_sources
from polympe.mesh import build_faces, harmonic_h
from polympe.params import PhysicalParams
from polympe.spaces import build_space, l2_project

from conftest import ACVE, pin_params, pin_setup, two_square_mesh, unit_square_mesh


def natural_setup(domain, m=2):
    mesh = unit_square_mesh(domain)
    faces = build_faces(mesh, {"nat": set()})
    return mesh, faces, build_space(mesh, m)


def interp(space, field, fn):
    return l2_project(space, field, fn)


# -- penalties -----------------------------------------------------------

def face_h(h_plus, h_minus=None):
    """The harmonic diameter ``penalty_coefficients`` reads for a face
    between elements of diameters ``h_plus`` and ``h_minus``."""
    return harmonic_h(h_plus, h_minus)


def test_penalty_values_elastic():
    params = PhysicalParams.unit()
    pv = forms.penalty_coefficients(face_h(0.1, 0.1), params)
    # largest eigenvalue of the isotropic elasticity tensor via a Voigt-form
    # eigenvalue oracle: C = [[2mu+lam, lam, 0], [lam, 2mu+lam, 0], [0, 0, 2mu]]
    voigt = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.linalg.eigvalsh(voigt).max() == pytest.approx(4.0)
    assert pv.eta == pytest.approx(10 * 4.0 / 0.1)


def test_penalty_values_darcy_and_fluid():
    params = PhysicalParams.unit()
    pv = forms.penalty_coefficients(face_h(0.5, 0.5), params)
    assert pv.zeta["E"] == pytest.approx(20.0)
    assert pv.gamma_v == pytest.approx(10.0 / 0.5)
    assert pv.gamma_p == pytest.approx(10.0 * 0.5)


def test_penalty_degree_scaling():
    # eta, zeta, gamma_v carry the degree^2 factor; gamma_p stays linear in h
    params = PhysicalParams.unit()
    base = forms.penalty_coefficients(face_h(0.2, 0.2), params, degree=1)
    high = forms.penalty_coefficients(face_h(0.2, 0.2), params, degree=3)
    assert high.eta == pytest.approx(9 * base.eta)
    assert high.zeta["E"] == pytest.approx(9 * base.zeta["E"])
    assert high.gamma_v == pytest.approx(9 * base.gamma_v)
    assert high.gamma_p == pytest.approx(base.gamma_p)


def test_penalty_ratio_scaling_check():
    params = PhysicalParams.unit()
    for h in (0.05, 0.3):
        pv = forms.penalty_coefficients(face_h(h, h), params)
        assert pv.gamma_p / pv.gamma_v == pytest.approx(
            (params.gamma_p_bar / params.gamma_v_bar) * h ** 2 / params.mu_f)


# -- elastic block ---------------------------------------------------------

def test_elastic_energy_of_linear_field():
    _, faces, space = natural_setup("elastic")
    params = PhysicalParams.unit()
    out = forms.assemble_elastic(space, params, faces)
    d = interp(space, "d", lambda p: np.stack([p[:, 0], p[:, 1]], axis=1))
    assert d @ (out["A"] @ d) == pytest.approx(8.0, rel=1e-12)


def test_elastic_mass():
    _, faces, space = natural_setup("elastic")
    params = PhysicalParams.unit()
    params.rho_el = 1000.0
    out = forms.assemble_elastic(space, params, faces)
    one = interp(space, "d", lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1))
    assert one @ (out["M"] @ one) == pytest.approx(1000.0, rel=1e-12)


def test_elastic_symmetry_and_psd(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    out = forms.assemble_elastic(space, unit_params, faces)
    A = out["A"]
    assert abs(A - A.T).max() < 1e-12 * abs(A).max()
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(A.shape[0])
        assert x @ (A @ x) >= -1e-10 * (x @ x)


# -- pressure block ---------------------------------------------------------

def test_pressure_stiffness_linear():
    _, faces, space = natural_setup("elastic")
    out = forms.assemble_pressure(space, PhysicalParams.unit(), faces, "E")
    p = interp(space, "p:E", lambda q: q[:, 0])
    assert p @ (out["A"] @ p) == pytest.approx(1.0, rel=1e-12)


def test_pressure_external_coupling():
    _, faces, space = natural_setup("elastic")
    out = forms.assemble_pressure(space, PhysicalParams.unit(), faces, "E")
    one = interp(space, "p:E", lambda q: np.ones(len(q)))
    assert one @ (out["C"]["E"] @ one) == pytest.approx(1.0, rel=1e-12)


def test_intercompartment_coupling_vanishes_for_equal_pressures():
    mesh = unit_square_mesh("elastic")
    faces = build_faces(mesh, {"nat": set()})
    params = PhysicalParams.unit(compartments=("A", "C"))
    space = build_space(mesh, 2, compartments=("A", "C"))
    outA = forms.assemble_pressure(space, params, faces, "A")
    p = interp(space, "p:A", lambda q: 1.7 * np.ones(len(q)))
    # same vector in both compartments: transfer contribution cancels, only
    # the external coupling beta^e remains
    contrib = p @ (outA["C"]["A"] @ p) + p @ (outA["C"]["C"] @ p)
    assert contrib == pytest.approx(params.beta_ext["A"] * 1.7 ** 2, rel=1e-12)


# -- fluid block -------------------------------------------------------------

def test_fluid_divergence_coupling():
    _, faces, space = natural_setup("fluid")
    out = forms.assemble_fluid(space, PhysicalParams.unit(), faces)
    q = interp(space, "p", lambda p: np.ones(len(p)))
    v = interp(space, "u", lambda p: np.stack([p[:, 0], np.zeros(len(p))], axis=1))
    assert q @ (out["B"] @ v) == pytest.approx(-1.0, rel=1e-12)


def test_fluid_shear_energy():
    _, faces, space = natural_setup("fluid")
    out = forms.assemble_fluid(space, PhysicalParams.unit(), faces)
    u = interp(space, "u", lambda p: np.stack([p[:, 1], np.zeros(len(p))], axis=1))
    assert u @ (out["A"] @ u) == pytest.approx(1.0, rel=1e-12)


def test_stabilization_annihilates_continuous_pressure(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    out = forms.assemble_fluid(space, unit_params, faces)
    q = interp(space, "p", lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2)
    # continuous interpolant of a degree<=m polynomial has no interior jumps
    q_poly = interp(space, "p", lambda p: p[:, 0] * p[:, 1] + 2.0)
    assert q_poly @ (out["S"] @ q_poly) == pytest.approx(0.0, abs=1e-10)
    assert q @ (out["S"] @ q) >= 0.0


# -- interface block ---------------------------------------------------------

def test_interface_blocks(unit_params):
    mesh = two_square_mesh()
    faces = build_faces(mesh, VERIFICATION_DIRICHLET)
    space = build_space(mesh, 2)
    J = forms.assemble_interface(space, unit_params, faces)
    pone = interp(space, "p:E", lambda p: np.ones(len(p)))
    vx = interp(space, "u", lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1))
    wx = interp(space, "d", lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1))
    assert pone @ (J["J_f"] @ vx) == pytest.approx(-1.0, rel=1e-12)
    assert pone @ (J["J_el"] @ wx) == pytest.approx(1.0, rel=1e-12)
    # w.n_el = -v.n_f pointwise: the mass-balance pairing cancels exactly
    assert pone @ (J["J_f"] @ vx) + pone @ (J["J_el"] @ wx) == pytest.approx(0.0, abs=1e-12)


def test_interface_rows_vanish_off_interface(unit_params):
    mesh = two_square_mesh()
    faces = build_faces(mesh, VERIFICATION_DIRICHLET)
    space = build_space(mesh, 1)
    J = forms.assemble_interface(space, unit_params, faces)
    assert J["J_el"].shape == (space.sizes["p:E"], space.sizes["d"])
    # both adjacent elements touch the interface here, so just check sparsity
    assert J["J_el"].nnz <= space.n_loc * 2 * space.n_loc
    assert J["J_f"].nnz <= space.n_loc * 2 * space.n_loc


# -- loads -------------------------------------------------------------------

def test_zero_data_zero_loads(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    loads = forms.assemble_loads(space, unit_params, faces, forms.ZeroData(), 0.0)
    assert loads.shape == (space.n_dofs,)
    sl = space.field_slice
    assert np.all(loads[sl("d")] == 0) and np.all(loads[sl("u")] == 0)
    assert np.all(loads[sl("p:E")] == 0) and np.all(loads[sl("p")] == 0)


def test_volume_load_pattern(unit_params):
    _, faces, space = natural_setup("fluid")

    class Data(forms.ZeroData):
        def f_f(self, pts, t):
            return np.stack([np.ones(len(pts)), np.zeros(len(pts))], axis=1)

    loads = forms.assemble_loads(space, unit_params, faces, Data(), 0.0)
    v = interp(space, "u", lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1))
    assert v @ loads[space.field_slice("u")] == pytest.approx(1.0, rel=1e-12)


def test_outlet_datum_matches_printed_expression(steady):
    # the Neumann stress on the outlet must equal
    # (cos(pi y) + 6 pi^2 mu K_E/mu_E sin(pi y)) n_f for the steady case
    ys = np.linspace(0.05, 0.95, 7)
    pts = np.column_stack([np.ones_like(ys), ys])
    pbar = steady.p_out(pts, 0.0)
    expected = -(np.cos(np.pi * ys) + 6 * np.pi ** 2 * np.sin(np.pi * ys))
    assert np.allclose(pbar, expected, rtol=1e-12)


def test_interface_patch_linear():
    """Degree-1 fields satisfying all interface conditions are reproduced
    exactly by the coupled steady solve (an end-to-end consistency check of
    every form, lifting, and sign)."""
    from polympe.driver import solve_steady
    from polympe import norms
    from polympe.families import cartesian_two_domain

    alpha = sym.Rational(1, 2)
    d = sym.Rational(1, 2) * sym.Matrix([X, -Y])
    pE = sym.Integer(-2) + 0 * X
    u = sym.Matrix([X, -Y])
    p = sym.Integer(0) + 0 * X
    f_el, g_E, f_f, p_out = _strong_sources(d, pE, u, p, alpha)
    case = ManufacturedCase("patch1", PhysicalParams.unit(alpha=0.5),
                            {"d": d, "p:E": pE, "u": u, "p": p,
                             "f_el": f_el, "g:E": g_E, "f_f": f_f, "p_out": p_out})
    state, art = solve_steady(case, cartesian_two_domain(2), 1)
    bn = norms.broken_norms(art.space, art.faces, case.params, state, exact=case, t=0.0)
    for key, val in bn.items():
        assert np.sqrt(val) < 1e-10, key


def test_interface_patch_cubic(mesh80):
    """Degree-3 patch exercising nonconstant tractions and pressure fluxes
    across the interface, on a polygonal mesh."""
    from polympe.driver import solve_steady
    from polympe import norms

    alpha = sym.Rational(1, 2)
    d = sym.Rational(1, 2) * sym.Matrix([X ** 2 + Y ** 2, -2 * X * Y])
    pE = -X * Y ** 2
    u = sym.Matrix([X ** 2 + Y ** 2, -2 * X * Y])
    p = X * Y
    f_el, g_E, f_f, p_out = _strong_sources(d, pE, u, p, alpha)
    case = ManufacturedCase("patch3", PhysicalParams.unit(alpha=0.5),
                            {"d": d, "p:E": pE, "u": u, "p": p,
                             "f_el": f_el, "g:E": g_E, "f_f": f_f, "p_out": p_out})
    state, art = solve_steady(case, mesh80, 3)
    bn = norms.broken_norms(art.space, art.faces, case.params, state, exact=case, t=0.0)
    for key, val in bn.items():
        assert np.sqrt(val) < 1e-8, key


# -- parameter validation ------------------------------------------------

def test_params_validation_errors():
    with pytest.raises(ValueError, match="rho_el"):
        PhysicalParams(rho_el=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        PhysicalParams.unit(alpha=1.0)
    with pytest.raises(ValueError, match="beta"):
        PhysicalParams(beta_ext={"E": -0.5})
    with pytest.raises(ValueError, match="zeta"):
        PhysicalParams(zeta_bar={"E": 0.0})


def test_params_presets():
    brain = PhysicalParams.brain()
    assert brain.rho_el == brain.rho_f == 1000.0
    assert brain.mu_el == pytest.approx(216.0)
    assert brain.lam == pytest.approx(505.0)
    assert brain.mu_f == brain.mu_j["E"] == pytest.approx(3.5e-3)
    assert brain.c_j["E"] == pytest.approx(1e-6)
    assert brain.k_j["E"] == pytest.approx(1e-11)
    assert brain.beta["E"]["E"] == 1.0
    assert brain.beta_ext["E"] == 0.0
    unit = PhysicalParams.unit(alpha=0.5)
    assert unit.elastic_tensor_norm == pytest.approx(4.0)
    assert unit.darcy_tensor_norm("E") == pytest.approx(1.0)
    # verification defaults for the penalty constants
    for p in (brain, unit):
        assert p.eta_bar == p.gamma_v_bar == p.gamma_p_bar == 10.0
        assert p.zeta_bar["E"] == 10.0


def test_sipg_blocks_remain_coercive_at_high_degree(mesh80, unit_params):
    # regression guard: the degree-scaled penalties keep the elliptic blocks
    # positive definite on agglomerated meshes (they are strongly indefinite
    # without the degree factor already at m = 3)
    from scipy.sparse.linalg import eigsh
    from polympe.mesh import build_faces

    faces = build_faces(mesh80, VERIFICATION_DIRICHLET)
    space = build_space(mesh80, 3)
    fl = forms.assemble_fluid(space, unit_params, faces)
    el = forms.assemble_elastic(space, unit_params, faces)
    for A in (fl["A"], el["A"]):
        lo = eigsh(A, k=1, which="SA", return_eigenvectors=False, tol=1e-6)[0]
        assert lo > 1.0


# -- pinned values of the assembled forms ---------------------------------
# forms_pins.json holds the values of _bilinear_pins and _load_pins computed
# with the per-element and per-face assembly loops; record them again only
# when the forms are meant to change.

PINS = json.loads((Path(__file__).with_name("forms_pins.json")).read_text())


def _xby(B):
    """x^T B y for random vectors fixed by the block shape."""
    rng = np.random.default_rng(0)
    return float(rng.standard_normal(B.shape[0]) @ (B @ rng.standard_normal(B.shape[1])))


def _bilinear_pins(sysm):
    """x^T B y for every block of a SystemMatrices, keyed by block name."""
    J = sysm.compartments
    out = {"M_el": sysm.M_el, "A_el": sysm.A_el, "M_f": sysm.M_f, "A_f": sysm.A_f,
           "B_f": sysm.B_f, "S": sysm.S}
    for j in J:
        out.update({f"M_{j}": sysm.M_j[j], f"A_{j}": sysm.A_j[j], f"B_{j}": sysm.B_j[j]})
        out.update({f"C_{j}{k}": sysm.C[j][k] for k in J})
    if sysm.J_el is not None:
        out.update(J_el=sysm.J_el, J_f=sysm.J_f)
    return {k: _xby(B) for k, B in out.items()}


def _load_pins(space, loads):
    """x^T F for every field of the load vector, x random and fixed by the
    length."""
    vecs = {"el": loads[space.field_slice("d")], "f": loads[space.field_slice("u")],
            "p": loads[space.field_slice("p")]}
    vecs.update({f"j{j}": loads[space.field_slice(f"p:{j}")] for j in space.compartments})
    return {k: float(np.random.default_rng(0).standard_normal(len(v)) @ v)
            for k, v in vecs.items()}


def _assert_pinned(got, want):
    assert sorted(got) == sorted(want)
    for key, val in want.items():
        assert abs(got[key] - val) <= 1e-13 * abs(val), (key, got[key], val)


@pytest.mark.parametrize("name", ["cart4", "mesh80"])
@pytest.mark.parametrize("J", [("E",), ACVE], ids=["E", "ACVE"])
def test_blocks_pinned(mesh80, name, J):
    from polympe.system import build_system
    faces, space = pin_setup(name, mesh80, J)
    sysm = build_system(space, pin_params(J), faces)
    _assert_pinned(_bilinear_pins(sysm), PINS[f"{name}/{''.join(J)}"])


@pytest.mark.parametrize("name", ["cart4", "mesh80"])
@pytest.mark.parametrize("t", [0.0, 0.37])
def test_loads_pinned(mesh80, unsteady, name, t):
    faces, space = pin_setup(name, mesh80, ("E",))
    loads = forms.assemble_loads(space, unsteady.params, faces, unsteady, t)
    _assert_pinned(_load_pins(space, loads), PINS[f"{name}/loads/{t}"])


def test_volume_loads_equal_projection(mesh80, unsteady):
    # with L2-orthonormal bases the volume loads are the projection
    # coefficients of the sources
    class VolumeOnly(forms.ZeroData):
        f_el, f_f = staticmethod(unsteady.f_el), staticmethod(unsteady.f_f)
        g_j = staticmethod(unsteady.g_j)

    faces, space = pin_setup("mesh80", mesh80, ("E",))
    t = 0.37
    loads = forms.assemble_loads(space, unsteady.params, faces, VolumeOnly(), t)
    for field, fn in (("d", unsteady.f_el), ("u", unsteady.f_f),
                      ("p:E", lambda x, t: unsteady.g_j("E", x, t))):
        got, want = loads[space.field_slice(field)], l2_project(space, field, fn, t=t)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert not loads[space.field_slice("p")].any()
