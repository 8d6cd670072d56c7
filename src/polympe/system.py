"""Global block operator: the coupling pattern, its placement into a
stacked layout and the cutting of a stacked vector into field views, and
structural checks.

Every operator is built from one coupling pattern, :func:`coupling_blocks`,
in the field order of :class:`~polympe.spaces.DGSpace` (d, one p:j per
compartment, u, p). Three scalars set it: ``mass`` multiplies the mass
matrices on the pressure and fluid diagonals, ``stiff`` every other block of
those rows, ``disp`` the displacement column of the pressure rows:

* row d:   A_el d + sum_k (B_k^T + [k=E] J_el^T) p_k
* row p:j: disp (B_j + [j=E] J_el) d + (mass c_j M + stiff (T_jj M + A_j)) p_j
           - stiff (sum_{k!=j} beta_kj M p_k + [j=E] J_f u)
* row u:   (mass M_f + stiff A_f) u + stiff (J_f^T p_E + B_f^T p)
* row p:   stiff (-B_f u + S p)

    operator  mass   stiff         disp                    besides the pattern
    --------  -----  ------------  ----------------------  ------------------------
    G(s)      s      1             -s                      (d, d) = s^2 M_el + A_el
    steady    0      1             0                       G(0)
    A1        1/dt   theta         -theta gamma/(beta dt)  M_el at (d, a); z, a rows
    A2        1/dt   -(1 - theta)  -theta gamma/(beta dt)  no d row; B_j + [j=E] J_el
                                                           at (p:j, z) and (p:j, a);
                                                           z, a rows

Every compartment pressure lives in one DG space, so its storage and
transfer blocks scale the one mass M (``M_comp``), with T_jj = sum_{k!=j}
beta_kj + beta_ext_j.

A1 and A2 are the Newmark--theta pair of :mod:`polympe.stepping`, whose
layout adds the velocity ``z`` and acceleration ``a`` after ``d``.

The interface blocks enter antisymmetrically (+J_el^T against -J_el dt,
+J_f^T against -J_f) so their contributions cancel in the energy identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import forms
from .mesh import FaceSet, PolyMesh, build_faces
from .params import EXCHANGE, PhysicalParams, check_dirichlet
from .spaces import DGSpace, build_space, field_slices


@dataclass
class SystemMatrices:
    """The blocks of one problem, with the space, parameters and faces
    they are assembled from."""
    space: DGSpace
    params: PhysicalParams
    faces: FaceSet
    M_el: sp.csr_matrix
    A_el: sp.csr_matrix
    M_comp: sp.csr_matrix
    A_j: dict
    B_j: dict
    M_f: sp.csr_matrix
    A_f: sp.csr_matrix
    B_f: sp.csr_matrix
    S: sp.csr_matrix
    J_el: sp.csr_matrix
    J_f: sp.csr_matrix

    @property
    def compartments(self):
        return self.params.compartments


def build_system(mesh: PolyMesh, m: int, params: PhysicalParams, dirichlet_map) -> SystemMatrices:
    """Resolve the Dirichlet map on ``mesh``, build the degree-``m`` space of
    the compartments of ``params``, and assemble every block."""
    check_dirichlet(dirichlet_map, params.compartments)
    faces = build_faces(mesh, dirichlet_map)
    space = build_space(mesh, m, params.compartments)
    return SystemMatrices(space=space, params=params, faces=faces,
                          **forms.assemble_elastic(space, params, faces),
                          **forms.assemble_pressure(space, params, faces),
                          **forms.assemble_fluid(space, params, faces),
                          **forms.assemble_interface(space, params, faces))


def displacement_coupling(sys: SystemMatrices, j: str) -> sp.csr_matrix:
    """The operator of the displacement column of the p:j row,
    B_j + [j=E] J_el."""
    if j == EXCHANGE:
        return sys.B_j[j] + sys.J_el
    return sys.B_j[j]


def coupling_blocks(sys: SystemMatrices, mass, stiff, disp) -> dict:
    """The coupling pattern as ``{(row_field, col_field): block}`` (see the
    module docstring)."""
    blocks = {}
    J, beta, M = sys.compartments, sys.params.beta, sys.M_comp
    for j in J:
        r = f"p:{j}"
        coupl = displacement_coupling(sys, j)
        blocks["d", r] = coupl.T
        blocks[r, "d"] = disp * coupl
        blocks.update({(r, f"p:{k}"): stiff * (-beta[k][j] * M) for k in J if k != j})
        T_jj = sum(beta[k][j] for k in J if k != j) + sys.params.beta_ext[j]
        blocks[r, r] = mass * (sys.params.c_j[j] * M) + stiff * (T_jj * M + sys.A_j[j])
        if j == EXCHANGE:
            blocks[r, "u"] = stiff * -sys.J_f
            blocks["u", r] = stiff * sys.J_f.T
    blocks["d", "d"] = sys.A_el
    blocks["u", "u"] = mass * sys.M_f + stiff * sys.A_f
    blocks["u", "p"] = stiff * sys.B_f.T
    blocks["p", "u"] = stiff * -sys.B_f
    blocks["p", "p"] = stiff * sys.S
    return blocks


def place(blocks: dict, sizes: dict) -> sp.csr_matrix:
    """Stack named blocks in the field order of ``sizes``, a missing block
    empty: each block row in CSR, then the rows. With every block in CSR
    scipy stacks the index arrays directly, with no COO copy of the whole
    operator (a transposed block comes as CSC)."""
    def block(r, c):
        return blocks[r, c].tocsr() if (r, c) in blocks else sp.csr_matrix((sizes[r], sizes[c]))
    return sp.vstack([sp.hstack([block(r, c) for c in sizes], format="csr") for r in sizes],
                     format="csr")


def split(x: np.ndarray, sizes: dict) -> dict:
    """The field views ``{field: rows}`` of the stacked vector ``x``."""
    return {f: x[s] for f, s in field_slices(sizes).items()}


def build_global(sys: SystemMatrices, s: float = 0.0) -> sp.csr_matrix:
    """The stacked operator with the time-derivative slots replaced by the
    scalar ``s`` (``s = 0`` gives the steady operator)."""
    blocks = coupling_blocks(sys, s, 1, -s)
    blocks["d", "d"] = s * s * sys.M_el + sys.A_el
    return place(blocks, sys.space.sizes)


#: largest relative asymmetry, pairing defect and interface energy that pass
SYM_TOL = 1e-12
#: least relative eigenvalue that passes as positive semi-definite
PSD_TOL = -1e-12


@dataclass
class StructuralReport:
    symmetry: dict = field(default_factory=dict)
    psd_min: dict = field(default_factory=dict)
    pairing: dict = field(default_factory=dict)
    interface_energy: float = 0.0

    @property
    def passed(self) -> bool:
        return (
            all(v < SYM_TOL for v in self.symmetry.values())
            and all(v >= PSD_TOL for v in self.psd_min.values())
            and all(v < SYM_TOL for v in self.pairing.values())
            and self.interface_energy < SYM_TOL
        )

    def summary(self) -> str:
        lines = ["structural checks: " + ("PASS" if self.passed else "FAIL")]
        for name, v in self.symmetry.items():
            lines.append(f"  symmetry {name}: {v:.3e}")
        for name, v in self.psd_min.items():
            lines.append(f"  psd min eig/max|eig| {name}: {v:.3e}")
        for name, v in self.pairing.items():
            lines.append(f"  pairing {name}: {v:.3e}")
        lines.append(f"  interface energy cancellation: {self.interface_energy:.3e}")
        return "\n".join(lines)


def _rel_diff(a, b) -> float:
    scale = max(np.abs(a).max() if a.nnz else 0.0, np.abs(b).max() if b.nnz else 0.0, 1e-300)
    d = (a - b).tocoo()
    return (np.abs(d.data).max() / scale) if d.nnz else 0.0


def structural_checks(sys: SystemMatrices) -> StructuralReport:
    """Symmetry, positive semidefiniteness (each stiffness's smallest over its
    largest |eigenvalue|, from one dense ``eigvalsh``: verification meshes
    have a few thousand rows at most), transpose pairing of the placed
    blocks, and the interface energy-cancellation residual on fixed random states.
    """
    rep = StructuralReport()
    rng = np.random.default_rng(0)

    named = {"A_el": sys.A_el, "A_f": sys.A_f, "S": sys.S, "M_el": sys.M_el, "M_f": sys.M_f,
             **{f"A_{j}": sys.A_j[j] for j in sys.compartments}, "M_comp": sys.M_comp}
    for name, mat in named.items():
        rep.symmetry[name] = _rel_diff(mat, mat.T)
        if name.startswith("A_") or name == "S":
            ev = np.linalg.eigvalsh(mat.toarray()) if mat.shape[0] else np.zeros(1)
            rep.psd_min[name] = float(ev[0] / (np.abs(ev).max() or 1.0))

    # every checked block but (p:E, d), which is -s (B_E + J_el), is free of s
    G = build_global(sys, s=1.0)
    sl = sys.space.field_slice

    def blk(rname, cname):
        return G[sl(rname), :][:, sl(cname)].tocsr()

    for j in sys.compartments:
        placed = blk("d", f"p:{j}")
        ref = sys.B_j[j].T.tocsr()
        if j == EXCHANGE:
            ref = ref + sys.J_el.T
        rep.pairing[f"B_{j}^T"] = _rel_diff(placed, ref)

    pe = f"p:{EXCHANGE}"
    rep.pairing["J_f^T"] = _rel_diff(blk("u", pe), sys.J_f.T.tocsr())
    rep.pairing["J_f"] = _rel_diff(blk(pe, "u"), (-sys.J_f).tocsr())

    # energy rate of the interface coupling on random compatible states:
    # the two placements must cancel exactly
    v = rng.standard_normal(sys.space.sizes["d"])
    pE = rng.standard_normal(sys.space.sizes[pe])
    u = rng.standard_normal(sys.space.sizes["u"])
    jelT_placed = blk("d", pe) - sys.B_j[EXCHANGE].T.tocsr()
    mjel_placed = blk(pe, "d") + sys.B_j[EXCHANGE]
    r1 = float(v @ (jelT_placed @ pE)) + float(pE @ (mjel_placed @ v))
    r2 = float(u @ (blk("u", pe) @ pE)) + float(pE @ (blk(pe, "u") @ u))
    scale = max(abs(float(v @ (jelT_placed @ pE))), abs(float(u @ (blk("u", pe) @ pE))), 1e-300)
    rep.interface_energy = max(abs(r1), abs(r2)) / scale

    return rep

