"""Metamorphic checks: a problem rotated with its data, or with its
elements renumbered, has the same errors.

Every mesh family has its interface at x = 0 and its outlet at x = 1, so
every interface and outlet normal is +-e_x there, and a fault in the
y-component of such a normal shows in no other test. The DG space P_m, the
fan quadrature, the element diameters and the face normals all rotate with
the mesh, so the rotated solves must reproduce each error to round-off.

Every mesh family also numbers its elastic elements first, so the first
element of an interface face is always its elastic one. With the element
order reversed the fluid elements come first, and only the orientation of
interface faces from their elastic side keeps the errors the same."""

import pytest

from polympe import driver, forms, stepping
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
