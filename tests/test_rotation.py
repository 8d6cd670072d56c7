"""Metamorphic checks: a problem rotated with its data, or with its
elements renumbered, has the same errors; renumbered, it also has the
permuted operator and the permuted cell means.

Every mesh family has its interface at x = 0 and its outlet at x = 1, so
every interface and outlet normal is +-e_x there, and a fault in the
y-component of such a normal shows in no other test. The DG space P_m, the
fan quadrature, the element diameters and the face normals all rotate with
the mesh, so the rotated solves must reproduce each error to round-off.

Every mesh family also numbers its elastic elements first, so the first
element of an interface face is always its elastic one. With the element
order reversed the fluid elements come first, and only the orientation of
interface faces from their elastic side keeps the errors the same."""

import numpy as np
import pytest

from polympe import driver, forms, outputs, stepping
from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain, triangulated_two_domain
from polympe.mesh import PolyMesh
from polympe.solvers import factorize
from polympe.system import build_global, build_system, split

from conftest import RotatedCase, rotated

ANGLES = (0.7, 2.3)
MESHES = {"cart2": lambda mesh80: cartesian_two_domain(2),
          "tri4": lambda mesh80: triangulated_two_domain(4, jitter=0.2, seed=1),
          "poly80": lambda mesh80: mesh80}


def errors(mesh, m, phi, steady, unsteady):
    """The ``err_*`` entries of :func:`polympe.driver.error_row`, keyed by
    case, of the steady solve of ``steady`` and of four steps of dt = 1e-3
    of ``unsteady`` from its projected data, on one system of ``mesh``, the
    mesh and both cases rotated by ``phi``."""
    sys = build_system(rotated(mesh, phi), m, steady.params, VERIFICATION_DIRICHLET)
    data = RotatedCase(steady, phi)
    loads = forms.assemble_loads(sys.space, sys.params, sys.faces, data, 0.0)
    state = split(factorize(build_global(sys)).solve(loads), sys.space.sizes)
    rows = {"steady": driver.error_row(data, [state], [0.0], sys)}
    data = RotatedCase(unsteady, phi)
    states, times = stepping.simulate(sys, stepping.SchemeParams(dt=1e-3), data, 4,
                                      driver.projected_values(sys.space, data))
    rows["unsteady"] = driver.error_row(data, states, times, sys)
    return {(case, k): v for case, row in rows.items() for k, v in row.items()
            if k.startswith("err_")}


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_errors_are_rotation_invariant(mesh80, steady, unsteady, name, m):
    mesh = MESHES[name](mesh80)
    ref = errors(mesh, m, 0.0, steady, unsteady)
    assert len(ref) == 10 and min(ref.values()) > 0.0
    for phi in ANGLES:
        assert errors(mesh, m, phi, steady, unsteady) == pytest.approx(ref, rel=1e-9), phi


def renumbered(mesh):
    """``mesh`` with its element order reversed (the fluid elements first)."""
    order = range(mesh.n_elements - 1, -1, -1)
    return PolyMesh(mesh.vertices, [mesh.elements[k] for k in order],
                    [mesh.element_domain[k] for k in order], mesh.boundary_labels)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_errors_are_renumbering_invariant(mesh80, steady, unsteady, name, m):
    mesh = MESHES[name](mesh80)
    ref = errors(mesh, m, 0.0, steady, unsteady)
    assert errors(renumbered(mesh), m, 0.0, steady, unsteady) == pytest.approx(ref, rel=1e-9)


def march(mesh, m, unsteady):
    """The stepping matrix ``A1`` of dt = 1e-3 on ``mesh`` and the
    :func:`~polympe.outputs.cell_means` after four of its steps of
    ``unsteady`` from its projected data."""
    sys = build_system(mesh, m, unsteady.params, VERIFICATION_DIRICHLET)
    scheme = stepping.SchemeParams(dt=1e-3)
    states, _ = stepping.simulate(sys, scheme, unsteady, 4,
                                  driver.projected_values(sys.space, unsteady))
    A1 = stepping.build_stepping_matrices(sys, scheme)["A1"]
    return sys.space, A1, outputs.cell_means(sys.space, states[-1])


def reversed_blocks(space) -> np.ndarray:
    """The stepping-vector permutation that reverses the element blocks of
    every field, as reversing the element order does: entry ``i`` is the
    original row of row ``i`` of the renumbered mesh."""
    perm, start = [], 0
    for field, size in stepping.layout(space).items():
        block = space.components("d" if field in ("z", "a") else field) * space.n_loc
        perm.append(start + np.arange(size).reshape(-1, block)[::-1].ravel())
        start += size
    return np.concatenate(perm)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_renumbering_permutes_the_operator_and_the_cell_means(mesh80, unsteady, name, m):
    mesh = MESHES[name](mesh80)
    space, A1, means = march(mesh, m, unsteady)
    _, A1_new, means_new = march(renumbered(mesh), m, unsteady)
    perm = reversed_blocks(space)
    diff = abs(A1_new - A1[perm][:, perm]).max()
    assert diff <= 1e-12 * abs(A1).max()
    for field, vals in means.items():
        assert abs(means_new[field] - vals[::-1]).max() <= 1e-9 * abs(vals).max(), field
