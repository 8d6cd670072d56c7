import hashlib

import numpy as np
import pytest

from polympe import cli
from polympe.agglomerate import AgglomerationConfig, agglomerate
from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain, triangulated_two_domain
from polympe.forms import ZeroData
from polympe.manufactured import steady_case, unsteady_case
from polympe.mesh import PolyMesh, build_faces
from polympe.params import PhysicalParams
from polympe.solvers import factorize
from polympe.spaces import build_space
from polympe.stepping import blend_loads, build_stepping_matrices, layout
from polympe.system import build_global, build_system, split


def unit_square_mesh(domain="elastic"):
    return PolyMesh(
        [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]], [domain],
        {(0, 1): "nat", (1, 2): "nat", (2, 3): "nat", (0, 3): "nat"},
    )


ACVE = ("A", "C", "V", "E")


def sha256_hex(data) -> str:
    """sha256 of ``data``: bytes as they are, an array as its C-ordered bytes."""
    if not isinstance(data, bytes):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


class OnePointData(ZeroData):
    """Zero data except ``key``, which is ``value`` (in each component) at
    the first point it is evaluated at."""

    def __init__(self, key, value):
        self.key, self.value = key, value

    def exact(self, key, pts, t=0.0):
        v = super().exact(key, pts, t)
        if key == self.key:
            v[0] = self.value
        return v


def pin_mesh(name, mesh80, J):
    """The mesh and Dirichlet map of the pinned-value tests:
    ``cartesian_two_domain(4)`` (``"cart4"``) or the 80-polygon mesh, every
    pressure Dirichlet."""
    mesh = cartesian_two_domain(4) if name == "cart4" else mesh80
    return mesh, dict(VERIFICATION_DIRICHLET, el={"d"} | {f"p:{j}" for j in J})


def pin_setup(name, mesh80, J):
    """Faces and m = 2 space of the pinned-value tests (see :func:`pin_mesh`)."""
    mesh, dirichlet = pin_mesh(name, mesh80, J)
    return build_faces(mesh, dirichlet), build_space(mesh, 2, J)


def pin_system(name, mesh80, J, params=None):
    """The m = 2 system of the pinned-value tests (see :func:`pin_mesh`),
    under ``params``, by default :func:`pin_params` of ``J``."""
    mesh, dirichlet = pin_mesh(name, mesh80, J)
    return build_system(mesh, 2, params or pin_params(J), dirichlet)


def pin_params(J):
    """Unit coefficients, made distinct per compartment."""
    params = PhysicalParams.unit(J)
    for i, j in enumerate(J):
        params.k_j[j], params.alpha_j[j], params.c_j[j] = 1.0 + i, 0.5 - 0.1 * i, 1.0 + 0.5 * i
        params.beta[j] = {k: 1.0 + i + 0.25 * ik for ik, k in enumerate(J)}
    params.validate()
    return params


def harmonic_response(sysm, loads, omega, scheme=None):
    """Field amplitudes of the periodic response to the loads
    sin(omega t) * ``loads``. Without ``scheme``, the continuous response
    Im(X_c e^{i omega t}), from G(i omega) X_c = loads; with one, the
    discrete periodic solution x^n = Im(X z^n) of its Newmark-theta march,
    z = e^{i omega dt}, from (z A1 - A2) X = blend_loads(loads, z loads)."""
    if scheme is None:
        return split(factorize(build_global(sysm, 1j * omega)).solve(loads + 0j),
                     sysm.space.sizes)
    z = np.exp(1j * omega * scheme.dt)
    mats = build_stepping_matrices(sysm, scheme)
    rhs = blend_loads(sysm, scheme, loads + 0j, z * loads)
    return split(factorize(z * mats["A1"] - mats["A2"]).solve(rhs), layout(sysm.space))


def read_config(command, doc) -> dict:
    """The values ``polympe <command>`` reads from the config ``doc``, read as
    :func:`polympe.cli.main` reads them before the command runs: the
    manifest's ``resolved_config``."""
    cfg = cli.Section("", doc)
    cfg.string("output_dir", "out")
    cli.COMMANDS[command](cfg)
    return cfg.resolved


def rotation(phi):
    """The matrix R of the rotation by the angle ``phi``."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def rotated(mesh, phi):
    """``mesh`` rotated by ``phi`` about the origin: its vertices mapped by
    R, with the same loops, domains and boundary labels."""
    return PolyMesh(mesh.vertices @ rotation(phi).T, mesh.elements, mesh.element_domain,
                    mesh.boundary_labels)


class RotatedCase:
    """The data of a manufactured ``case`` rotated by ``phi`` with its mesh:
    each key is read at the points mapped by R^T, and its vectors are mapped
    by R, its vector gradients G by R G R^T and its scalar gradients g by
    R g."""

    VECTORS = ("d", "u", "f_el", "f_f")

    def __init__(self, case, phi):
        self.case, self.params, self.R = case, case.params, rotation(phi)

    def exact(self, key, pts, t=0.0):
        R = self.R
        v = self.case.exact(key, np.asarray(pts) @ R, t)
        base, _, suffix = key.partition(",")
        vector, grad = base in self.VECTORS, suffix == "grad"
        if vector and grad:
            return R @ v @ R.T
        return v @ R.T if vector or grad else v


def two_square_mesh():
    return PolyMesh(
        [[-1, 0], [0, 0], [1, 0], [1, 1], [0, 1], [-1, 1]],
        [[0, 1, 4, 5], [1, 2, 3, 4]], ["elastic", "fluid"],
        {(0, 1): "el", (0, 5): "el", (4, 5): "el",
         (1, 2): "wall", (2, 3): "out", (3, 4): "wall"},
    )


@pytest.fixture(scope="session")
def unit_params():
    return PhysicalParams.unit()


@pytest.fixture(scope="session")
def steady():
    return steady_case()


@pytest.fixture(scope="session")
def unsteady():
    return unsteady_case()


@pytest.fixture(scope="session")
def mesh80():
    """N = 80 polygonal mesh (40 + 40 agglomerated), h close to 0.273."""
    fine = triangulated_two_domain(24, jitter=0.25)
    return agglomerate(fine, AgglomerationConfig(40, 40, seed=0))


@pytest.fixture(scope="session")
def poly_family(mesh80):
    """Agglomerated meshes with 20, 80, 320 polygons."""
    meshes = [agglomerate(triangulated_two_domain(12, jitter=0.25),
                          AgglomerationConfig(10, 10, seed=0)),
              mesh80,
              agglomerate(triangulated_two_domain(48, jitter=0.25),
                          AgglomerationConfig(160, 160, seed=0))]
    return meshes


@pytest.fixture(scope="session")
def cart4_setup(unit_params):
    mesh = cartesian_two_domain(4)
    faces = build_faces(mesh, VERIFICATION_DIRICHLET)
    space = build_space(mesh, 2)
    return mesh, faces, space
