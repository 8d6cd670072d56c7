"""Metamorphic checks: a problem rotated or mirrored with its data, or with
its elements renumbered, has the same errors; renumbered, it also has the
permuted operator and the permuted cell means. Two compartments that swap
labels, with their coefficients and sources, swap their pressures.

Every mesh family has its interface at x = 0 and its outlet at x = 1, so
every interface and outlet normal is +-e_x there, and a fault in the
y-component of such a normal shows in no other test. The DG space P_m, the
fan quadrature, the element diameters and the face normals all rotate with
the mesh, so the rotated solves must reproduce each error to round-off.
The mirror y -> 1 - y keeps each family's domains, interface, outlet and
boundary labels, and reverses the orientation that no rotation changes, so
each element loop is reversed to stay counterclockwise.

Every mesh family also numbers its elastic elements first, so the first
element of an interface face is always its elastic one. With the element
order reversed the fluid elements come first, and only the orientation of
interface faces from their elastic side keeps the errors the same."""

import dataclasses

import numpy as np
import pytest

from polympe import driver, forms, outputs, stepping
from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain, triangulated_two_domain
from polympe.mesh import PolyMesh
from polympe.params import PhysicalParams
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


#: the reflection y -> -y
MIRROR = np.diag([1.0, -1.0])


def mirrored(mesh):
    """``mesh`` mirrored by y -> 1 - y, every loop reversed so that it stays
    counterclockwise, with the same domains and boundary labels (top and
    bottom carry the same ones)."""
    return PolyMesh(mesh.vertices @ MIRROR + [0.0, 1.0], [e[::-1] for e in mesh.elements],
                    mesh.element_domain, mesh.boundary_labels)


class MirroredCase(RotatedCase):
    """The data of a manufactured ``case`` mirrored with its mesh: read at
    the mirrored points (x, 1 - y), with RotatedCase's rule for R = S =
    diag(1, -1)."""

    def __init__(self, case):
        self.case, self.params, self.R = case, case.params, MIRROR

    def exact(self, key, pts, t=0.0):
        # RotatedCase reads at S p, and S (x, y - 1) = (x, 1 - y)
        return super().exact(key, np.asarray(pts) - [0.0, 1.0], t)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_errors_are_mirror_invariant(mesh80, steady, unsteady, name, m):
    # rotation by 0 leaves the mirrored mesh and data as they are
    mesh = MESHES[name](mesh80)
    ref = errors(mesh, m, 0.0, steady, unsteady)
    got = errors(mirrored(mesh), m, 0.0, MirroredCase(steady), MirroredCase(unsteady))
    assert got == pytest.approx(ref, rel=1e-9)


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


#: the compartments of the relabelling check, and the two labels it swaps
COMPARTMENTS = ("A", "C", "V", "E")
SWAP = {"A": "C", "C": "A"}


class Sources(forms.ZeroData):
    """A constant source ``g[j]`` in each compartment ``j``; no other data."""

    def __init__(self, g):
        self.g = g

    def exact(self, key, pts, t=0.0):
        v = super().exact(key, pts, t)
        name, _, j = key.partition(":")
        return v + self.g[j] if name == "g" else v


def swapped(params, g):
    """``params`` and the sources ``g`` with the labels of :data:`SWAP`
    exchanged: every per-compartment coefficient, both indices of beta."""
    def s(j):
        return SWAP.get(j, j)

    J = params.compartments
    per = {f: {j: getattr(params, f)[s(j)] for j in J}
           for f in ("mu_j", "alpha_j", "c_j", "k_j", "beta_ext")}
    beta = {j: {k: params.beta[s(j)][s(k)] for k in J} for j in J}
    return dataclasses.replace(params, beta=beta, **per), {j: g[s(j)] for j in J}


def solves(mesh, m, params, g):
    """The steady state and the five states of four steps of dt = 0.05 from
    rest, under the sources ``g``, every pressure Dirichlet."""
    dirichlet = dict(VERIFICATION_DIRICHLET, el={"d"} | {f"p:{j}" for j in COMPARTMENTS})
    sys = build_system(mesh, m, params, dirichlet)
    data = Sources(g)
    loads = forms.assemble_loads(sys.space, params, sys.faces, data, 0.0)
    steady = split(factorize(build_global(sys)).solve(loads), sys.space.sizes)
    states, _ = stepping.simulate(sys, stepping.SchemeParams(dt=0.05), data, 4)
    return [steady] + states


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", ["cart4", "poly80"])
def test_relabelling_two_compartments_swaps_their_pressures(mesh80, name, m):
    mesh = cartesian_two_domain(4) if name == "cart4" else mesh80
    rng = np.random.default_rng(7)
    J = COMPARTMENTS
    draw = {f: {j: rng.uniform(0.5, 2.0) for j in J} for f in ("mu_j", "c_j", "k_j", "beta_ext")}
    params = dataclasses.replace(
        PhysicalParams.unit(J), alpha_j={j: rng.uniform(0.2, 0.8) for j in J},
        beta={j: {k: rng.uniform(0.5, 2.0) for k in J} for j in J}, **draw)
    g = {j: rng.uniform(0.5, 2.0) for j in J}
    ref = solves(mesh, m, params, g)
    new = solves(mesh, m, *swapped(params, g))
    for i, (a, b) in enumerate(zip(ref, new)):
        for field, vals in a.items():
            j = field.partition(":")[2]
            other = b[f"p:{SWAP[j]}"] if j in SWAP else b[field]
            assert abs(other - vals).max() <= 1e-9 * abs(vals).max(), (i, field)
