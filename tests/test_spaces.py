import json
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from polympe import forms, norms
from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain
from polympe.mesh import PolyMesh, build_faces
from polympe.params import InputError
from polympe.solvers import NumericalError
from polympe.spaces import (_inverse_cholesky, build_space, face_quadrature, l2_project,
                            volume_quadrature)

from conftest import pin_setup, unit_square_mesh


def shoelace_monomial(vertices, a, b):
    """Exact integral of x^a y^b over a polygon via Green's theorem,
    integrating x^(a+1)/(a+1) y^b dy edge by edge with exact 1D rules."""
    vertices = np.asarray(vertices, dtype=float)
    total = 0.0
    n = len(vertices)
    for i in range(n):
        p0, p1 = vertices[i], vertices[(i + 1) % n]
        # x(t), y(t) linear in t on [0, 1]
        px = np.polynomial.Polynomial([p0[0], p1[0] - p0[0]])
        py = np.polynomial.Polynomial([p0[1], p1[1] - p0[1]])
        integrand = (px ** (a + 1)) * (py ** b) * (p1[1] - p0[1])
        total += (integrand.integ()(1.0) - integrand.integ()(0.0)) / (a + 1)
    return total


def test_volume_quadrature_constant():
    rule = volume_quadrature([[0, 0], [1, 0], [1, 1], [0, 1]], 2)
    assert rule.weights.sum() == pytest.approx(1.0)
    assert np.all(rule.weights > 0)


def test_volume_quadrature_x2y2():
    rule = volume_quadrature([[0, 0], [1, 0], [1, 1], [0, 1]], 4)
    val = (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2 * rule.weights).sum()
    assert val == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_volume_quadrature_stack_equals_loops():
    loops = np.array([[[0, 0], [1, 0], [1, 1], [0, 1]], [[1, 0], [3, 0.5], [2, 2], [1, 1]]])
    stack = volume_quadrature(loops, 3)
    for g, loop in enumerate(loops):
        rule = volume_quadrature(loop, 3)
        assert np.array_equal(stack.points[g], rule.points)
        assert np.array_equal(stack.weights[g], rule.weights)


def test_volume_quadrature_l_shape():
    verts = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
    rule = volume_quadrature(verts, 3)
    assert rule.weights.sum() == pytest.approx(shoelace_monomial(verts, 0, 0), rel=1e-14)


def test_volume_quadrature_exactness_random_polynomials():
    rng = np.random.default_rng(5)
    verts = [[0, 0], [1.3, -0.1], [1.5, 0.9], [0.7, 1.4], [-0.2, 1.0]]
    for order in (2, 5, 8):
        rule = volume_quadrature(verts, order)
        for _ in range(5):
            coeffs = {(a, b): rng.standard_normal()
                      for a in range(order + 1) for b in range(order + 1 - a)}
            quad = sum(c * (rule.points[:, 0] ** a * rule.points[:, 1] ** b
                            * rule.weights).sum() for (a, b), c in coeffs.items())
            exact = sum(c * shoelace_monomial(verts, a, b) for (a, b), c in coeffs.items())
            assert quad == pytest.approx(exact, rel=1e-12)


def test_volume_quadrature_order_validation():
    with pytest.raises(ValueError):
        volume_quadrature([[0, 0], [1, 0], [0, 1]], 0)


def test_volume_quadrature_order_is_input_error():
    with pytest.raises(InputError, match="order must be >= 1"):
        volume_quadrature([[0, 0], [1, 0], [0, 1]], 0)


def test_face_quadrature():
    rule = face_quadrature(np.array([[0.0, 0.0], [1.0, 0.0]]), 3)
    assert rule.weights.sum() == pytest.approx(1.0)
    assert (rule.points[:, 0] ** 3 * rule.weights).sum() == pytest.approx(0.25, rel=1e-14)
    seg = face_quadrature(np.array([[0.0, 0.0], [2.0 / 15.0, 0.0]]), 2)
    assert seg.weights.sum() == pytest.approx(2.0 / 15.0)


def test_build_space_dimensions(mesh80):
    space = build_space(unit_square_mesh(), 1)
    assert space.n_loc == 3
    space80 = build_space(mesh80, 2)
    # one scalar unknown per element and mode: 80 x 6 across both subdomains
    assert space80.sizes["p:E"] + space80.sizes["p"] == 480
    assert space80.sizes["p:E"] == len(space80.el_ids) * space80.n_loc
    total = sum(space80.sizes.values())
    assert total == space80.n_dofs == (2 + 1) * 40 * 6 + (2 + 1) * 40 * 6


def test_space_of_a_mesh_without_elements():
    space = build_space(PolyMesh([[0, 0], [1, 0]], [], []), 2)
    assert space.n_dofs == 0
    assert space.volume_table("elastic").basis.shape == (3, 0, space.n_loc)


def test_build_space_rejects_m0():
    with pytest.raises(ValueError):
        build_space(unit_square_mesh(), 0)


def test_gram_identity(mesh80):
    space = build_space(mesh80, 3)
    seen = 0
    for domain in ("elastic", "fluid"):
        tab = space.volume_table(domain)
        for elems, rows, n in tab.groups:
            w = tab.weights[rows].reshape(len(elems), n)
            phi = tab.basis[0, rows].reshape(len(elems), n, space.n_loc)
            G = phi.swapaxes(1, 2) @ (w[..., None] * phi)
            assert np.abs(G - np.eye(space.n_loc)).max() < 1e-10
            seen += len(elems)
    assert seen == mesh80.n_elements


@pytest.mark.parametrize("m", [1, 3])
def test_gram_matches_per_element_quadrature(mesh80, m):
    # gram[a, b] is phi_a^T W phi_b of each element (0: values, 1 and 2: x
    # and y derivatives), here against one quadrature and tabulation per
    # element, summed by einsum
    space = build_space(mesh80, m)
    for domain, ids in (("elastic", space.el_ids), ("fluid", space.f_ids)):
        tab = space.volume_table(domain)
        assert sorted(tab.gram) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        ref = {ab: np.empty_like(g) for ab, g in tab.gram.items()}
        for k in ids:
            rule = volume_quadrature(mesh80.vertices[mesh80.elements[k]], space.vol_order)
            phi = space.tabulate([k], rule.points[None])[:, 0]
            for a, b in ref:
                ref[a, b][space.local[k]] = np.einsum("q,qi,qj->ij", rule.weights, phi[a], phi[b])
        for ab, g in tab.gram.items():
            assert g.shape == (len(ids), space.n_loc, space.n_loc) and not g.flags.writeable
            assert np.abs(g - ref[ab]).max() <= 1e-13 * np.abs(ref[ab]).max(), (domain, ab)
        with pytest.raises(TypeError):
            tab.gram[0, 0] = ref[0, 0]


def test_integrate_matches_its_definition_and_skips_zero_rows(mesh80):
    space = build_space(mesh80, 2)
    tab = space.volume_table("fluid")
    f, g = np.random.default_rng(3).standard_normal((2, len(tab.weights)))
    got = tab.integrate(np.array([f, np.zeros_like(f), g]))
    # sum over the points of each element of w v phi
    want = np.zeros((tab.n_elem, 2, space.n_loc))
    np.add.at(want, tab.elem, (tab.weights * np.array([f, g])).T[:, :, None] * tab.basis[0, :, None])
    assert np.abs(got[:, [0, 2]] - want).max() <= 1e-14 * np.abs(want).max()
    # an all-zero row gives zero blocks, and the other rows round as they do
    # on their own
    assert not got[:, 1].any()
    assert np.array_equal(got[:, 0], tab.integrate(f[None])[:, 0])
    assert np.array_equal(got[:, [0, 2]], tab.integrate(np.array([f, g])))
    assert not tab.integrate(np.zeros((2, len(f)))).any()
    # NaN counts as nonzero
    nan = np.where(np.arange(len(f)) == 7, np.nan, 0.0)
    assert np.isnan(tab.integrate(nan[None])[tab.elem[7], 0]).all()


def field_values(space, field, vec, k, pts):
    """Values (n, ncomp) of a field-local DOF vector on mesh element ``k`` at
    the points ``pts`` (n, 2)."""
    phi = space.tabulate([k], np.asarray(pts, dtype=float)[None])[0, 0]
    return phi @ space.coeffs(field, vec)[space.local[k]].T


def test_basis_gradient_matches_finite_differences():
    space = build_space(unit_square_mesh(), 3)
    pts = np.array([[0.3, 0.4], [0.8, 0.2], [0.5, 0.9]])
    h = 1e-6
    phi, gx, gy = space.tabulate([0], pts[None])[:, 0]
    shifted = [space.tabulate([0], (pts + d)[None])[0, 0]
               for d in ([h, 0], [-h, 0], [0, h], [0, -h])]
    scale = np.abs(gx).max()
    assert np.abs((shifted[0] - shifted[1]) / (2 * h) - gx).max() / scale < 1e-6
    assert np.abs((shifted[2] - shifted[3]) / (2 * h) - gy).max() / scale < 1e-6


def test_project_zero_and_linear():
    space = build_space(unit_square_mesh(), 1)
    z = l2_project(space, "p:E", lambda p: np.zeros(len(p)))
    assert np.all(z == 0)
    v = l2_project(space, "p:E", lambda p: p[:, 0] + p[:, 1])
    pts = np.random.default_rng(0).uniform(0, 1, (10, 2))
    vals = field_values(space, "p:E", v, 0, pts)[:, 0]
    assert np.abs(vals - (pts[:, 0] + pts[:, 1])).max() < 1e-10


def test_projection_idempotent():
    space = build_space(unit_square_mesh(), 2)
    v = l2_project(space, "p:E", lambda p: np.sin(p[:, 0]) * p[:, 1])
    again = l2_project(space, "p:E", lambda p: field_values(space, "p:E", v, 0, p))
    assert np.abs(v - again).max() < 1e-12


def test_projection_h_cubed_decay():
    errs = []
    for ny in (4, 8):
        mesh = cartesian_two_domain(ny)
        space = build_space(mesh, 2)
        v = l2_project(space, "p:E", lambda p: np.sin(np.pi * p[:, 0]))
        tab = space.volume_table("elastic")
        d = tab.values(space.coeffs("p:E", v))[:, 0] - np.sin(np.pi * tab.points[:, 0])
        errs.append(np.sqrt(float(np.sum(tab.weights * d * d))))
    rate = np.log2(errs[0] / errs[1])
    assert rate == pytest.approx(3.0, abs=0.25)


def test_vector_projection_shape(cart4_setup):
    _, _, space = cart4_setup
    v = l2_project(space, "d", lambda p: np.stack([p[:, 0], -p[:, 1]], axis=1))
    k = int(space.el_ids[0])
    pts = np.array([[-0.4, 0.2]])
    vals = field_values(space, "d", v, k, pts)
    assert vals.shape == (1, 2)
    assert np.allclose(vals, [[-0.4, -0.2]], atol=1e-11)


# space_pins.json holds the probes of _table_pins computed with one basis
# object per element; record them again only when the tables are meant to
# change.

SPACE_PINS = json.loads(Path(__file__).with_name("space_pins.json").read_text())


def _probe(a):
    """x . a for a random x fixed by the size of ``a``."""
    a = np.asarray(a, dtype=float).ravel()
    return float(np.random.default_rng(0).standard_normal(a.size) @ a)


def _table_pins(faces, space):
    """Probes of every array of both volume tables and of the full face table."""
    out = {}
    for domain in ("elastic", "fluid"):
        tab = space.volume_table(domain)
        for name in ("points", "weights", "basis", "elem", "mean_weights"):
            out[f"{domain}/{name}"] = _probe(getattr(tab, name))
        out[f"{domain}/groups"] = _probe(np.concatenate(
            [np.concatenate([elems, [rows.start, rows.stop, n]]) for elems, rows, n in tab.groups]))
    ftab = space.face_table
    for name, arr in vars(ftab).items():
        out[f"faces/{name}"] = _probe(arr)
    return out


@pytest.mark.parametrize("name", ["cart4", "mesh80"])
def test_tables_pinned(mesh80, name):
    got, want = _table_pins(*pin_setup(name, mesh80, ("E",))), SPACE_PINS[name]
    assert sorted(got) == sorted(want)
    for key, val in want.items():
        assert abs(got[key] - val) <= 1e-13 * abs(val), (key, got[key], val)


# -- table evaluators against their definitions ----------------------------


def reference_values(tab, coeffs):
    return np.einsum("qi,qci->qc", tab.basis[0], coeffs[tab.elem])


def reference_grads(tab, coeffs):
    return np.einsum("xqi,qci->qcx", tab.basis[1:], coeffs[tab.elem])


def reference_jump(tab, coeffs):
    return np.einsum("fsqi,fsci,s->fqc", tab.basis[:, :, 0], coeffs[tab.elem], [1.0, -1.0])


@pytest.mark.parametrize("name, m", [(name, m) for name in ("cart4", "mesh80") for m in (1, 2, 3)]
                         + [("empty", 2)])
def test_table_evaluators_match_their_definitions(mesh80, name, m):
    mesh = {"cart4": cartesian_two_domain(4), "mesh80": mesh80,
            "empty": PolyMesh([[0, 0], [1, 0]], [], [])}[name]
    faces = build_faces(mesh, {} if name == "empty" else VERIFICATION_DIRICHLET)
    space = build_space(mesh, m)
    rng = np.random.default_rng(m)
    for field in space.fields:
        coeffs = space.coeffs(field, rng.standard_normal(space.sizes[field]))
        tab = space.volume_table(space.field_domain(field))
        # the face set each field's norm measures its jumps on
        ftab = space.face_table.take(faces.sipg_faces("u" if field == "p" else field))
        for got, want in ((tab.values(coeffs), reference_values(tab, coeffs)),
                          (tab.grads(coeffs), reference_grads(tab, coeffs)),
                          (ftab.jump(coeffs), reference_jump(ftab, coeffs))):
            assert got.shape == want.shape, field
            assert np.abs(got - want).max(initial=0.0) <= 1e-14 * np.abs(want).max(initial=0.0), field


def test_a_space_is_read_only_once_built(unsteady):
    # loads at two times and a two-state energy norm leave every attribute
    # as it was: a space keeps no cache
    mesh = cartesian_two_domain(2)
    faces, space = build_faces(mesh, VERIFICATION_DIRICHLET), build_space(mesh, 1)
    before = dict(vars(space))
    keys = {k: list(v) for k, v in before.items() if isinstance(v, dict)}
    for t in (0.1, 0.2):
        forms.assemble_loads(space, unsteady.params, faces, unsteady, t)
    state = {f: np.ones(n) for f, n in space.sizes.items()}
    norms.energy_norm([state, state], [0.0, 0.1], space, faces, unsteady.params, unsteady)
    assert vars(space).keys() == before.keys()
    assert all(vars(space)[k] is v for k, v in before.items())
    assert {k: list(v) for k, v in vars(space).items() if isinstance(v, dict)} == keys
    for tab in (space.face_table, space.face_table.take(faces.interior_el)):
        for arr in vars(tab).values():
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]


def test_inverse_cholesky_matches_scipy_and_names_a_bad_element():
    # the LAPACK loop rounds as scipy's factorization and triangular solve
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 6, 6))
    gram = a @ a.swapaxes(1, 2) + 6 * np.eye(6)
    got = _inverse_cholesky(gram)
    for g, c in zip(gram, got):
        assert np.array_equal(c, solve_triangular(cholesky(g, lower=True), np.eye(6), lower=True))
    assert _inverse_cholesky(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    gram[3, 2, 2] = 0.0
    gram[3, 2, :2] = gram[3, :2, 2] = 0.0
    with pytest.raises(NumericalError, match="element 3 is not positive definite"):
        _inverse_cholesky(gram)
    gram[1, 0, 1] = np.nan  # LAPACK would pass a NaN through
    with pytest.raises(NumericalError, match="element 1 is not finite"):
        _inverse_cholesky(gram)
