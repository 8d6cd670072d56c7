import ast
import json
from pathlib import Path

import numpy as np
import pytest
import sympy as sym
from scipy.linalg import block_diag

from polympe import forms, system
from polympe.cli import DemoData, resolve_params
from polympe.families import DEMO_DIRICHLET, VERIFICATION_DIRICHLET, cartesian_two_domain
from polympe.mesh import build_faces, harmonic_h
from polympe.params import PhysicalParams
from polympe.spaces import FaceTable, build_space, l2_project
from polympe.system import build_system, coupling_blocks

from conftest import (ACVE, OnePointData, pin_params, pin_setup, pin_system, sha256_hex,
                      two_square_mesh, unit_square_mesh)
from symbolic import X, Y, SymbolicCase


def natural_setup(domain, m=2):
    mesh = unit_square_mesh(domain)
    faces = build_faces(mesh, {"nat": set()})
    return mesh, faces, build_space(mesh, m)


def interp(space, field, fn):
    return l2_project(space, field, fn)


# -- penalties -----------------------------------------------------------

def face_h(h_plus, h_minus=None):
    """The harmonic diameter ``face_penalty`` reads for a face
    between elements of diameters ``h_plus`` and ``h_minus``."""
    return harmonic_h(h_plus, h_minus)


def test_penalty_values_elastic():
    params = PhysicalParams.unit()
    eta = forms.face_penalty(params, "d", face_h(0.1, 0.1), 1)
    # largest eigenvalue of the isotropic elasticity tensor via a Voigt-form
    # eigenvalue oracle: C = [[2mu+lam, lam, 0], [lam, 2mu+lam, 0], [0, 0, 2mu]]
    voigt = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.linalg.eigvalsh(voigt).max() == pytest.approx(4.0)
    assert eta == pytest.approx(10 * 4.0 / 0.1)


def test_penalty_values_darcy_and_fluid():
    params = PhysicalParams.unit()
    h = face_h(0.5, 0.5)
    assert forms.face_penalty(params, "p:E", h, 1) == pytest.approx(20.0)
    assert forms.face_penalty(params, "u", h, 1) == pytest.approx(10.0 / 0.5)
    assert forms.face_penalty(params, "p", h, 1) == pytest.approx(10.0 * 0.5)


def test_penalty_degree_scaling():
    # eta, zeta, gamma_v carry the degree^2 factor; gamma_p stays linear in h
    params = PhysicalParams.unit()
    h = face_h(0.2, 0.2)
    for field, ratio in (("d", 9), ("p:E", 9), ("u", 9), ("p", 1)):
        assert (forms.face_penalty(params, field, h, 3)
                == pytest.approx(ratio * forms.face_penalty(params, field, h, 1)))


def test_penalty_ratio_scaling_check():
    params = PhysicalParams.unit()
    for h in (0.05, 0.3):
        gamma_v = forms.face_penalty(params, "u", face_h(h, h), 1)
        gamma_p = forms.face_penalty(params, "p", face_h(h, h), 1)
        assert gamma_v == pytest.approx(forms.PENALTY * params.mu_f / h)
        assert gamma_p == pytest.approx(forms.PENALTY * h)
        assert gamma_p / gamma_v == pytest.approx(h ** 2 / params.mu_f)


# -- elastic block ---------------------------------------------------------

def test_elastic_energy_of_linear_field():
    _, faces, space = natural_setup("elastic")
    params = PhysicalParams.unit()
    out = forms.assemble_elastic(space, params, faces)
    d = interp(space, "d", lambda p: np.stack([p[:, 0], p[:, 1]], axis=1))
    assert d @ (out["A_el"] @ d) == pytest.approx(8.0, rel=1e-12)


def test_elastic_mass():
    _, faces, space = natural_setup("elastic")
    params = PhysicalParams.unit()
    params.rho_el = 1000.0
    out = forms.assemble_elastic(space, params, faces)
    one = interp(space, "d", lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1))
    assert one @ (out["M_el"] @ one) == pytest.approx(1000.0, rel=1e-12)


def test_elastic_symmetry_and_psd(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    out = forms.assemble_elastic(space, unit_params, faces)
    A = out["A_el"]
    assert abs(A - A.T).max() < 1e-12 * abs(A).max()
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(A.shape[0])
        assert x @ (A @ x) >= -1e-10 * (x @ x)


# -- pressure block ---------------------------------------------------------

def test_pressure_stiffness_linear():
    _, faces, space = natural_setup("elastic")
    out = forms.assemble_pressure(space, PhysicalParams.unit(), faces)
    p = interp(space, "p:E", lambda q: q[:, 0])
    assert p @ (out["A_j"]["E"] @ p) == pytest.approx(1.0, rel=1e-12)


def test_pressure_mass_is_the_compartment_l2_product():
    _, faces, space = natural_setup("elastic")
    out = forms.assemble_pressure(space, PhysicalParams.unit(), faces)
    one = interp(space, "p:E", lambda q: np.ones(len(q)))
    assert one @ (out["M_comp"] @ one) == pytest.approx(1.0, rel=1e-12)


def test_pressure_external_coupling():
    # the (p:E, p:E) block of the steady operator is beta^e M + A_E, and A_E
    # annihilates constants without Dirichlet faces
    sysm = build_system(unit_square_mesh("elastic"), 2, PhysicalParams.unit(), {"nat": set()})
    blocks = coupling_blocks(sysm, 0.0, 1.0, 0.0)
    one = interp(sysm.space, "p:E", lambda q: np.ones(len(q)))
    assert one @ (blocks["p:E", "p:E"] @ one) == pytest.approx(1.0, rel=1e-12)


def test_intercompartment_coupling_vanishes_for_equal_pressures():
    params = PhysicalParams.unit(compartments=("A", "E"))
    sysm = build_system(unit_square_mesh("elastic"), 2, params, {"nat": set()})
    blocks = coupling_blocks(sysm, 0.0, 1.0, 0.0)
    p = interp(sysm.space, "p:A", lambda q: 1.7 * np.ones(len(q)))
    # same vector in both compartments: transfer contribution cancels, only
    # the external coupling beta^e remains
    contrib = p @ (blocks["p:A", "p:A"] @ p) + p @ (blocks["p:A", "p:E"] @ p)
    assert contrib == pytest.approx(params.beta_ext["A"] * 1.7 ** 2, rel=1e-12)


# -- fluid block -------------------------------------------------------------

def test_fluid_divergence_coupling():
    _, faces, space = natural_setup("fluid")
    out = forms.assemble_fluid(space, PhysicalParams.unit(), faces)
    q = interp(space, "p", lambda p: np.ones(len(p)))
    v = interp(space, "u", lambda p: np.stack([p[:, 0], np.zeros(len(p))], axis=1))
    assert q @ (out["B_f"] @ v) == pytest.approx(-1.0, rel=1e-12)


def test_fluid_shear_energy():
    _, faces, space = natural_setup("fluid")
    out = forms.assemble_fluid(space, PhysicalParams.unit(), faces)
    u = interp(space, "u", lambda p: np.stack([p[:, 1], np.zeros(len(p))], axis=1))
    assert u @ (out["A_f"] @ u) == pytest.approx(1.0, rel=1e-12)


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
        def exact(self, key, pts, t=0.0):
            if key == "f_f":
                return np.stack([np.ones(len(pts)), np.zeros(len(pts))], axis=1)
            return super().exact(key, pts, t)

    loads = forms.assemble_loads(space, unit_params, faces, Data(), 0.0)
    v = interp(space, "u", lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1))
    assert v @ loads[space.field_slice("u")] == pytest.approx(1.0, rel=1e-12)


def test_outlet_datum_matches_printed_expression(steady):
    # the Neumann stress on the outlet must equal
    # (cos(pi y) + 6 pi^2 mu K_E/mu_E sin(pi y)) n_f for the steady case
    ys = np.linspace(0.05, 0.95, 7)
    pts = np.column_stack([np.ones_like(ys), ys])
    pbar = steady.exact("p_out", pts, 0.0)
    expected = -(np.cos(np.pi * ys) + 6 * np.pi ** 2 * np.sin(np.pi * ys))
    assert np.allclose(pbar, expected, rtol=1e-12)


@pytest.mark.parametrize("dirichlet", ["verification", "demo"])
def test_load_keys_are_case_keys(cart4_setup, unit_params, steady, dirichlet):
    # every datum assemble_loads reads is a key of the manufactured cases,
    # and ZeroData answers it in the case's shape
    mesh, _, space = cart4_setup
    faces = build_faces(mesh, VERIFICATION_DIRICHLET if dirichlet == "verification"
                        else DEMO_DIRICHLET)

    keys = []

    class Recorder(forms.ZeroData):
        def exact(self, key, pts, t=0.0):
            keys.append(key)
            return super().exact(key, pts, t)

    forms.assemble_loads(space, unit_params, faces, Recorder(), 0.0)
    want = {"f_el", "g:E", "f_f", "p_out", "d", "u", "p:E", "d,t"}
    if dirichlet == "demo":
        want -= {"p:E", "d,t"}  # the pressure has no Dirichlet faces there
    assert set(keys) == want
    pts = np.array([[-0.5, 0.25], [0.5, 0.75], [0.1, 0.9]])
    for key in keys:
        assert forms.ZeroData().exact(key, pts).shape == steady.exact(key, pts, 0.0).shape


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
    case = SymbolicCase.from_fields("patch1", alpha, d, pE, u, p)
    state, sysm = solve_steady(case, cartesian_two_domain(2), 1)
    bn = norms.broken_norms(sysm.space, sysm.faces, case.params, state, exact=case, t=0.0)
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
    case = SymbolicCase.from_fields("patch3", alpha, d, pE, u, p)
    state, sysm = solve_steady(case, mesh80, 3)
    bn = norms.broken_norms(sysm.space, sysm.faces, case.params, state, exact=case, t=0.0)
    for key, val in bn.items():
        assert np.sqrt(val) < 1e-8, key


# -- parameter validation ------------------------------------------------

def test_params_validation_errors():
    with pytest.raises(ValueError, match="rho_el"):
        PhysicalParams(rho_el=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        PhysicalParams(alpha_j={"E": 1.0})
    with pytest.raises(ValueError, match="beta"):
        PhysicalParams(beta_ext={"E": -0.5})


def test_darcy_coefficient():
    params = PhysicalParams.brain(("A", "E"))
    params.k_j["A"] = 3.0e-11
    assert params.kappa("A") == 3.0e-11 / params.mu_j["A"]
    assert params.kappa("E") == params.k_j["E"] / params.mu_j["E"]


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
    unit = PhysicalParams.unit()
    assert unit.alpha_j["E"] == 0.5
    # the coefficient norms of the penalty: 2 mu_el + 2 lambda and k_j / sqrt(mu_j)
    assert forms.face_penalty(unit, "d", 1.0, 1) == pytest.approx(forms.PENALTY * 4.0)
    assert forms.face_penalty(unit, "p:E", 1.0, 1) == pytest.approx(forms.PENALTY * 1.0)
    # the penalty constant of both presets
    assert forms.PENALTY == 10.0


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
    for A in (fl["A_f"], el["A_el"]):
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
    """x^T B y for every block of a SystemMatrices, keyed by block name; the
    storage masses M_j = c_j M and the transfer blocks C_jk = -beta_kj M and
    C_jj = (sum_{k!=j} beta_kj + beta_ext_j) M are formed from the one
    compartment mass M, as the coupling pattern forms them."""
    J, prm, M = sysm.compartments, sysm.params, sysm.M_comp
    out = {"M_el": sysm.M_el, "A_el": sysm.A_el, "M_f": sysm.M_f, "A_f": sysm.A_f,
           "B_f": sysm.B_f, "S": sysm.S}
    for j in J:
        out.update({f"M_{j}": prm.c_j[j] * M, f"A_{j}": sysm.A_j[j], f"B_{j}": sysm.B_j[j]})
        T_jj = sum(prm.beta[k][j] for k in J if k != j) + prm.beta_ext[j]
        out.update({f"C_{j}{k}": (T_jj if k == j else -prm.beta[k][j]) * M for k in J})
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
    sysm = pin_system(name, mesh80, J)
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
        def exact(self, key, pts, t=0.0):
            if key in ("f_el", "f_f", "g:E"):
                return unsteady.exact(key, pts, t)
            return super().exact(key, pts, t)

    faces, space = pin_setup("mesh80", mesh80, ("E",))
    t = 0.37
    loads = forms.assemble_loads(space, unsteady.params, faces, VolumeOnly(), t)
    for field, key in (("d", "f_el"), ("u", "f_f"), ("p:E", "g:E")):
        got = loads[space.field_slice(field)]
        want = l2_project(space, field, lambda x: unsteady.exact(key, x, t))
        # both are VolumeTable.integrate of the same point values
        assert np.array_equal(got, want), field
    assert not loads[space.field_slice("p")].any()


@pytest.mark.parametrize("name", ["cart4", "mesh80"])
def test_masses_are_scaled_gram_products(mesh80, name):
    # M_el, M_f and M_comp are rho * gram[0, 0] of their subdomain, element
    # by element (and component by component), bit for bit
    params = pin_params(ACVE)
    params.rho_el, params.rho_f = 1.3e3, 0.7
    sysm = pin_system(name, mesh80, ACVE, params)
    space = sysm.space
    for M, domain, rho, ncomp in ((sysm.M_el, "elastic", params.rho_el, 2),
                                  (sysm.M_f, "fluid", params.rho_f, 2),
                                  (sysm.M_comp, "elastic", 1.0, 1)):
        gram = space.volume_table(domain).gram[0, 0]
        blocks = [rho * g for g in gram for _ in range(ncomp)]
        assert np.array_equal(M.toarray(), block_diag(*blocks)), domain


class _Contractions:
    """A volume table seen through its contractions alone: no group layout,
    basis or weights."""

    def __init__(self, tab):
        self.gram, self.integrate, self.points, self.n_elem = (
            tab.gram, tab.integrate, tab.points, tab.n_elem)


def test_forms_reads_volume_tables_through_their_contractions(monkeypatch, unsteady):
    # the group layout of a volume table is the decision of polympe.spaces:
    # forms neither reads it nor contracts against the basis itself
    tree = ast.parse(Path(forms.__file__).read_text())
    assert not any(isinstance(n, ast.Attribute) and n.attr == "groups" for n in ast.walk(tree))
    assert not any(isinstance(n, ast.alias) and n.name == "VolumeTable" for n in ast.walk(tree))

    ref = pin_system("cart4", None, ACVE)
    efaces, espace = pin_setup("cart4", None, ("E",))
    ref_loads = forms.assemble_loads(espace, unsteady.params, efaces, unsteady, 0.37)

    def contracted(sp_):
        tables = {d: _Contractions(sp_.volume_table(d)) for d in ("elastic", "fluid")}
        monkeypatch.setattr(sp_, "volume_table", tables.__getitem__)
        return sp_

    contracted(espace)
    monkeypatch.setattr(system, "build_space", lambda *args: contracted(build_space(*args)))
    got = pin_system("cart4", None, ACVE)
    for name, val in vars(ref).items():
        for key, mat in (val.items() if isinstance(val, dict) else [(None, val)]):
            if hasattr(mat, "tocsr"):
                assert (mat != (getattr(got, name)[key] if key else getattr(got, name))).nnz == 0
    loads = forms.assemble_loads(espace, unsteady.params, efaces, unsteady, 0.37)
    assert np.array_equal(loads, ref_loads)


# -- exact load bytes ------------------------------------------------------
# sha256 of assemble_loads on the 80-polygon pin setup (m = 2, p:E
# Dirichlet), recorded when every term was assembled whatever its datum:
# skipping a term whose datum is zero everywhere must leave every bit.
# The unsteady and steady entries were recorded again when each exact key
# became one CSE program (the sums inside the symbolic sources reorder: at
# most 9.6e-18 * max|F|), and again when the manufactured cases became
# closed forms, which moved these loads by at most 1.6e-16 * max|F|.

LOAD_SHA256 = {
    "demo/0.0": "2ddbd07ddfda5d4f9b1c44c8ff16f7e38027d275af6bf57f317b136060d695a9",
    "demo/0.01": "7ca55165b9d3303dd8dd1662dfb55ad4f1610e20f500c52b74865c886cf7e311",
    "demo/0.25": "e94532cacde54b96aa66e6c6bee60cdd3c7f63534a21ca8b4a8ab90a5e496007",
    "demo/0.37": "1a0f7e7563ac33b9dd9f76c0020516fc2124239a374039ed8004010389925ef6",
    "unsteady/0.37": "863253640436c8d5df2f48554fb25f1efe4baacb204cae50eefebfd2d6dbd1b6",
    "steady/0.0": "114c3b4de4bb4b3d88073a1cfded8968545d2116d38288b1f7510b4327317500",
}
DEMO_CONFIG = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())


@pytest.mark.parametrize("key", list(LOAD_SHA256))
def test_load_bytes_pinned(mesh80, steady, unsteady, key):
    name, t = key.split("/")
    data = {"demo": DemoData(), "unsteady": unsteady, "steady": steady}[name]
    params = resolve_params(DEMO_CONFIG) if name == "demo" else data.params
    faces, space = pin_setup("mesh80", mesh80, ("E",))
    loads = forms.assemble_loads(space, params, faces, data, float(t))
    assert sha256_hex(loads) == LOAD_SHA256[key]


@pytest.mark.parametrize("key, field", [
    ("f_el", "d"), ("g:E", "p:E"), ("f_f", "u"), ("p_out", "u"),
    ("d", "d"), ("p:E", "p:E"), ("d,t", "p:E"), ("u", "u")])
def test_datum_nonzero_at_one_point_reaches_loads(mesh80, key, field):
    # a datum that is zero at all but one point of one face set still loads
    # its own rows, and no rows but those its terms touch (the velocity
    # datum also lifts the divergence row)
    faces, space = pin_setup("mesh80", mesh80, ("E",))
    loads = forms.assemble_loads(space, PhysicalParams.unit(), faces, OnePointData(key, 1.0), 0.0)
    reached = {f for f in space.fields if loads[space.field_slice(f)].any()}
    assert field in reached
    assert reached <= {field, "p"} if key == "u" else reached == {field}


def test_loads_take_face_rows_only_where_their_data_is_nonzero(monkeypatch, unsteady):
    taken = []
    take = FaceTable.take
    monkeypatch.setattr(FaceTable, "take",
                        lambda tab, fidxs: taken.append(list(fidxs)) or take(tab, fidxs))
    mesh = cartesian_two_domain(4)
    space = build_space(mesh, 2)
    # the demo data is a volume source alone
    faces, params = build_faces(mesh, DEMO_DIRICHLET), resolve_params(DEMO_CONFIG)
    for t in (0.0, 0.25, 0.37):
        forms.assemble_loads(space, params, faces, DemoData(), t)
    assert taken == []
    # the unsteady case has a nonzero outlet stress and nonzero d, p:E and
    # u traces: one table each, in that order
    faces = build_faces(mesh, VERIFICATION_DIRICHLET)
    forms.assemble_loads(space, unsteady.params, faces, unsteady, 0.37)
    assert taken == [list(faces.outlet())] + [list(faces.dirichlet(f)) for f in ("d", "p:E", "u")]
