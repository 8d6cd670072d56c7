"""Assembly of the DG bilinear forms, penalty coefficients, and load vectors.

Sign and face-set conventions follow the symmetric interior penalty method:
each elliptic form carries volume terms minus consistency and symmetry face
terms plus a penalty, summed over interior faces and the Dirichlet faces of
its own variable. Pressure-displacement coupling blocks use the same face
sets as the pressure gradient terms they discretize; the interface blocks
couple the elastic-side trace of the exchange-compartment pressure with the
elastic displacement and fluid velocity normal components.

All assembled blocks are field-local sparse CSR matrices (dense vectors for
loads); the global placement happens in :mod:`polympe.system`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Face, FaceSet
from .params import PhysicalParams
from .spaces import DGSpace


@dataclass(frozen=True)
class PenaltyValues:
    """Face penalty coefficients: eta (elastic), zeta per compartment,
    gamma_v (fluid velocity), gamma_p (fluid pressure)."""

    eta: float
    zeta: dict
    gamma_v: float
    gamma_p: float


def penalty_coefficients(face: Face, params: PhysicalParams, degree: int = 1) -> PenaltyValues:
    """Penalty values on one face, or per point of a stacked face table:
    only ``face.harmonic_h`` is read, and it may be an array.

    eta and gamma_v scale with 1/{h}_H, gamma_p with {h}_H; the
    coefficient-dependent factors are the 2-norms of the elasticity and
    permeability tensors (with spatially uniform coefficients the two-sided
    maximum is the common value).

    The coercivity-critical penalties (eta, zeta_j, gamma_v) additionally
    carry the standard degree^2 factor of interior-penalty methods on
    polytopal meshes; without it the forms lose definiteness on agglomerated
    elements already at moderate degrees. ``degree = 1`` reproduces the bare
    coefficient scalings.
    """
    h = face.harmonic_h
    s = max(1, degree) ** 2
    return PenaltyValues(
        eta=s * params.eta_bar * params.elastic_tensor_norm / h,
        zeta={
            j: s * params.zeta_bar[j] * params.darcy_tensor_norm(j) / (np.sqrt(params.mu_j[j]) * h)
            for j in params.compartments
        },
        gamma_v=s * params.gamma_v_bar * params.mu_f / h,
        gamma_p=params.gamma_p_bar * h,
    )


class _Coo:
    def __init__(self, shape):
        self.shape = shape
        self.rows, self.cols, self.vals = [], [], []

    def add(self, rdofs, cdofs, block):
        r = np.repeat(np.asarray(rdofs), len(cdofs))
        c = np.tile(np.asarray(cdofs), len(rdofs))
        self.rows.append(r)
        self.cols.append(c)
        self.vals.append(np.asarray(block, dtype=float).ravel())

    def tocsr(self):
        if not self.rows:
            return sp.csr_matrix(self.shape)
        m = sp.coo_matrix(
            (np.concatenate(self.vals), (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=self.shape,
        ).tocsr()
        m.sum_duplicates()
        return m


def _face_sides(face: Face):
    if face.elem_minus is None:
        return [(face.elem_plus, 1.0, 1.0)]
    return [(face.elem_plus, 1.0, 0.5), (face.elem_minus, -1.0, 0.5)]


def _tractions(gx, gy, n, mu, lam):
    """Traction components (sigma(e_c phi) n)_r for the two vector basis
    component families; returns T[c][r] arrays of shape (n_q, n_loc)."""
    n0, n1 = float(n[0]), float(n[1])
    return (
        ((2 * mu + lam) * gx * n0 + mu * gy * n1, mu * gy * n0 + lam * gx * n1),
        (lam * gy * n0 + mu * gx * n1, mu * gx * n0 + (2 * mu + lam) * gy * n1),
    )


def _sipg_vector_face(space, out: _Coo, fidx: int, face: Face, field: str, mu, lam, pen):
    rule = space.face_rule(fidx, face, space.mesh)
    w = rule.weights
    n = face.normal
    sides = []
    for elem, sgn, avg in _face_sides(face):
        phi, gx, gy = space.face_trace(fidx, face, elem)
        sides.append((elem, sgn, avg, phi, _tractions(gx, gy, n, mu, lam)))
    for ea, sa, wa, phia, Ta in sides:
        for eb, sb, wb, phib, Tb in sides:
            P = phia.T @ (w[:, None] * phib)
            for ca in (0, 1):
                rd = space.elem_dofs(field, ea, ca)
                for cb in (0, 1):
                    cd = space.elem_dofs(field, eb, cb)
                    blk = -wb * sa * (phia.T @ (w[:, None] * Tb[cb][ca]))
                    blk += -wa * sb * (Ta[ca][cb].T @ (w[:, None] * phib))
                    blk += pen * sa * sb * 0.5 * ((1.0 if ca == cb else 0.0) + n[ca] * n[cb]) * P
                    out.add(rd, cd, blk)


def _sipg_scalar_face(space, out: _Coo, fidx: int, face: Face, field: str, kappa, pen):
    rule = space.face_rule(fidx, face, space.mesh)
    w = rule.weights
    n = face.normal
    sides = []
    for elem, sgn, avg in _face_sides(face):
        phi, gx, gy = space.face_trace(fidx, face, elem)
        sides.append((elem, sgn, avg, phi, gx * n[0] + gy * n[1]))
    for ea, sa, wa, phia, dna in sides:
        rd = space.elem_dofs(field, ea)
        for eb, sb, wb, phib, dnb in sides:
            cd = space.elem_dofs(field, eb)
            blk = -wb * sa * kappa * (phia.T @ (w[:, None] * dnb))
            blk += -wa * sb * kappa * (dna.T @ (w[:, None] * phib))
            blk += pen * sa * sb * (phia.T @ (w[:, None] * phib))
            out.add(rd, cd, blk)


def _vector_mass(space, out: _Coo, elem: int, field: str, coeff):
    _, w, phi, _, _ = space.vol(elem)
    Ms = coeff * (phi.T @ (w[:, None] * phi))
    for c in (0, 1):
        d = space.elem_dofs(field, elem, c)
        out.add(d, d, Ms)


def _elastic_volume(space, out: _Coo, elem: int, field: str, mu, lam):
    _, w, _, gx, gy = space.vol(elem)
    Kxx = gx.T @ (w[:, None] * gx)
    Kyy = gy.T @ (w[:, None] * gy)
    Kxy = gx.T @ (w[:, None] * gy)
    d0 = space.elem_dofs(field, elem, 0)
    d1 = space.elem_dofs(field, elem, 1)
    out.add(d0, d0, (2 * mu + lam) * Kxx + mu * Kyy)
    out.add(d1, d1, (2 * mu + lam) * Kyy + mu * Kxx)
    A01 = mu * Kxy.T + lam * Kxy
    out.add(d0, d1, A01)
    out.add(d1, d0, A01.T)


def assemble_elastic(space: DGSpace, params: PhysicalParams, faces: FaceSet):
    """SIPG elasticity stiffness A_el and mass M_el (both on the ``d`` block)."""
    n = space.sizes["d"]
    A, M = _Coo((n, n)), _Coo((n, n))
    for elem in space.el_ids:
        _elastic_volume(space, A, int(elem), "d", params.mu_el, params.lam)
        _vector_mass(space, M, int(elem), "d", params.rho_el)
    for fidx in faces.sipg_faces("d"):
        face = faces.faces[fidx]
        pen = penalty_coefficients(face, params, space.m).eta
        _sipg_vector_face(space, A, fidx, face, "d", params.mu_el, params.lam, pen)
    return {"A": A.tocsr(), "M": M.tocsr()}


def assemble_pressure(space: DGSpace, params: PhysicalParams, faces: FaceSet, j: str):
    """Darcy-type SIPG stiffness A_j, storage mass M_j, coupling B_j (rows on
    the pressure block, columns on ``d``), and inter-compartment C blocks."""
    np_j, nd = space.sizes[f"p:{j}"], space.sizes["d"]
    field = f"p:{j}"
    kappa = params.k_j[j] / params.mu_j[j]
    alpha = params.alpha_j[j]
    A, M, B = _Coo((np_j, np_j)), _Coo((np_j, np_j)), _Coo((np_j, nd))

    unit_mass = _Coo((np_j, np_j))
    for elem in space.el_ids:
        elem = int(elem)
        _, w, phi, gx, gy = space.vol(elem)
        d = space.elem_dofs(field, elem)
        Ms = phi.T @ (w[:, None] * phi)
        A.add(d, d, kappa * (gx.T @ (w[:, None] * gx) + gy.T @ (w[:, None] * gy)))
        M.add(d, d, params.c_j[j] * Ms)
        unit_mass.add(d, d, Ms)
        # -int alpha p div w against the two displacement components
        for c, g in ((0, gx), (1, gy)):
            B.add(d, space.elem_dofs("d", elem, c), -alpha * (phi.T @ (w[:, None] * g)))

    for fidx in faces.sipg_faces(field):
        face = faces.faces[fidx]
        pen = penalty_coefficients(face, params, space.m).zeta[j]
        _sipg_scalar_face(space, A, fidx, face, field, kappa, pen)
        # + int alpha {p I} : [[w]]
        rule = space.face_rule(fidx, face, space.mesh)
        w = rule.weights
        n = face.normal
        sides = [(e, s, a, space.face_trace(fidx, face, e)[0]) for e, s, a in _face_sides(face)]
        for ea, sa, wa, phia in sides:  # displacement side
            for eb, sb, wb, phib in sides:  # pressure side
                P = phib.T @ (w[:, None] * phia)
                for c in (0, 1):
                    B.add(space.elem_dofs(field, eb), space.elem_dofs("d", ea, c),
                          wb * sa * alpha * n[c] * P)

    Mu = unit_mass.tocsr()
    C = {}
    off_sum = 0.0
    for k in params.compartments:
        if k != j:
            beta_kj = params.beta[k][j]
            C[k] = -beta_kj * Mu
            off_sum += beta_kj
    C[j] = (off_sum + params.beta_ext[j]) * Mu
    return {"A": A.tocsr(), "M": M.tocsr(), "B": B.tocsr(), "C": C}


def assemble_fluid(space: DGSpace, params: PhysicalParams, faces: FaceSet):
    """Stokes SIPG blocks: viscous A_f, mass M_f, divergence coupling B_f
    (rows on ``p``, columns on ``u``), and pressure-jump stabilization S."""
    nu, npp = space.sizes["u"], space.sizes["p"]
    A, M, B, S = _Coo((nu, nu)), _Coo((nu, nu)), _Coo((npp, nu)), _Coo((npp, npp))
    for elem in space.f_ids:
        elem = int(elem)
        _elastic_volume(space, A, elem, "u", params.mu_f, 0.0)
        _vector_mass(space, M, elem, "u", params.rho_f)
        _, w, phi, gx, gy = space.vol(elem)
        # note the pressure block uses its own basis (same element, scalar)
        for c, g in ((0, gx), (1, gy)):
            B.add(space.elem_dofs("p", elem), space.elem_dofs("u", elem, c),
                  -(phi.T @ (w[:, None] * g)))

    for fidx in faces.sipg_faces("u"):
        face = faces.faces[fidx]
        pen = penalty_coefficients(face, params, space.m).gamma_v
        _sipg_vector_face(space, A, fidx, face, "u", params.mu_f, 0.0, pen)
        rule = space.face_rule(fidx, face, space.mesh)
        w = rule.weights
        n = face.normal
        sides = [(e, s, a, space.face_trace(fidx, face, e)[0]) for e, s, a in _face_sides(face)]
        for ea, sa, wa, phia in sides:  # velocity side
            for eb, sb, wb, phib in sides:  # pressure side
                P = phib.T @ (w[:, None] * phia)
                for c in (0, 1):
                    B.add(space.elem_dofs("p", eb), space.elem_dofs("u", ea, c),
                          wb * sa * n[c] * P)

    for fidx in faces.interior_f:
        face = faces.faces[fidx]
        pen = penalty_coefficients(face, params, space.m).gamma_p
        rule = space.face_rule(fidx, face, space.mesh)
        w = rule.weights
        sides = [(e, s, space.face_trace(fidx, face, e)[0]) for e, s, _ in _face_sides(face)]
        for ea, sa, phia in sides:
            for eb, sb, phib in sides:
                S.add(space.elem_dofs("p", ea), space.elem_dofs("p", eb),
                      pen * sa * sb * (phia.T @ (w[:, None] * phib)))

    return {"A": A.tocsr(), "M": M.tocsr(), "B": B.tocsr(), "S": S.tocsr()}


def assemble_interface(space: DGSpace, params: PhysicalParams, faces: FaceSet, j: str = "E"):
    """Interface blocks J_el (rows p_E, columns d) and J_f (rows p_E, columns
    u): elastic-side pressure trace against the normal trace of each test
    family; rows and columns vanish away from the interface."""
    field = f"p:{j}"
    J_el = _Coo((space.sizes[field], space.sizes["d"]))
    J_f = _Coo((space.sizes[field], space.sizes["u"]))
    for fidx in faces.interface:
        face = faces.faces[fidx]
        k_el, k_f = face.elem_plus, face.elem_minus
        n_el = face.normal
        rule = space.face_rule(fidx, face, space.mesh)
        w = rule.weights
        psi = space.face_trace(fidx, face, k_el)[0]
        phi_el = psi
        phi_f = space.face_trace(fidx, face, k_f)[0]
        Pel = psi.T @ (w[:, None] * phi_el)
        Pf = psi.T @ (w[:, None] * phi_f)
        for c in (0, 1):
            J_el.add(space.elem_dofs(field, k_el), space.elem_dofs("d", k_el, c), n_el[c] * Pel)
            J_f.add(space.elem_dofs(field, k_el), space.elem_dofs("u", k_f, c), -n_el[c] * Pf)
    return {"J_el": J_el.tocsr(), "J_f": J_f.tocsr()}


class ZeroData:
    """All sources, boundary data, and traces identically zero."""

    def f_el(self, pts, t):
        return np.zeros_like(pts)

    def g_j(self, j, pts, t):
        return np.zeros(len(pts))

    def f_f(self, pts, t):
        return np.zeros_like(pts)

    def p_out(self, pts, t):
        return np.zeros(len(pts))

    def dirichlet_d(self, pts, t):
        return np.zeros_like(pts)

    def dirichlet_d_dot(self, pts, t):
        return np.zeros_like(pts)

    def dirichlet_u(self, pts, t):
        return np.zeros_like(pts)

    def dirichlet_pj(self, j, pts, t):
        return np.zeros(len(pts))


def assemble_loads(space: DGSpace, params: PhysicalParams, faces: FaceSet, data, t: float):
    """Load vectors at time ``t``: volume sources, outlet stress, and the
    weak (SIPG consistency + penalty) lifting of nonhomogeneous Dirichlet
    data, including the coupling liftings that keep the compartment mass
    balance and the fluid divergence row consistent with moving-wall data.
    Returns ``{"el": F_el, "j": {j: F_j}, "f": F_f, "p": F_p}``."""
    F_el = np.zeros(space.sizes["d"])
    F_j = {j: np.zeros(space.sizes[f"p:{j}"]) for j in params.compartments}
    F_f = np.zeros(space.sizes["u"])
    F_p = np.zeros(space.sizes["p"])

    for elem in space.el_ids:
        elem = int(elem)
        pts, w, phi, _, _ = space.vol(elem)
        f = np.asarray(data.f_el(pts, t), dtype=float)
        for c in (0, 1):
            F_el[space.elem_dofs("d", elem, c)] += phi.T @ (w * f[:, c])
        for j in params.compartments:
            g = np.asarray(data.g_j(j, pts, t), dtype=float)
            F_j[j][space.elem_dofs(f"p:{j}", elem)] += phi.T @ (w * g)

    for elem in space.f_ids:
        elem = int(elem)
        pts, w, phi, _, _ = space.vol(elem)
        f = np.asarray(data.f_f(pts, t), dtype=float)
        for c in (0, 1):
            F_f[space.elem_dofs("u", elem, c)] += phi.T @ (w * f[:, c])

    # outlet: int -pbar n_f . v
    for fidx in faces.outlet():
        face = faces.faces[fidx]
        rule = space.face_rule(fidx, face, space.mesh)
        w, n = rule.weights, face.normal
        phi, _, _ = space.face_trace(fidx, face, face.elem_plus)
        pbar = np.asarray(data.p_out(rule.points, t), dtype=float)
        for c in (0, 1):
            F_f[space.elem_dofs("u", face.elem_plus, c)] += phi.T @ (w * (-pbar) * n[c])

    # Dirichlet lifting for the displacement
    for fidx in faces.dirichlet("d"):
        face = faces.faces[fidx]
        rule = space.face_rule(fidx, face, space.mesh)
        w, n = rule.weights, face.normal
        phi, gx, gy = space.face_trace(fidx, face, face.elem_plus)
        T = _tractions(gx, gy, n, params.mu_el, params.lam)
        eta = penalty_coefficients(face, params, space.m).eta
        g = np.asarray(data.dirichlet_d(rule.points, t), dtype=float)
        gn = g @ n
        for c in (0, 1):
            dofs = space.elem_dofs("d", face.elem_plus, c)
            F_el[dofs] += -(T[c][0].T @ (w * g[:, 0]) + T[c][1].T @ (w * g[:, 1]))
            F_el[dofs] += eta * 0.5 * (phi.T @ (w * (g[:, c] + gn * n[c])))

    # Dirichlet lifting for the compartment pressures, plus the mass-coupling
    # lifting carrying the time derivative of the displacement datum
    for j in params.compartments:
        kappa = params.k_j[j] / params.mu_j[j]
        for fidx in faces.dirichlet(f"p:{j}"):
            face = faces.faces[fidx]
            rule = space.face_rule(fidx, face, space.mesh)
            w, n = rule.weights, face.normal
            phi, gx, gy = space.face_trace(fidx, face, face.elem_plus)
            dn = gx * n[0] + gy * n[1]
            zeta = penalty_coefficients(face, params, space.m).zeta[j]
            g = np.asarray(data.dirichlet_pj(j, rule.points, t), dtype=float)
            dofs = space.elem_dofs(f"p:{j}", face.elem_plus)
            F_j[j][dofs] += -kappa * (dn.T @ (w * g)) + zeta * (phi.T @ (w * g))
            gd = np.asarray(data.dirichlet_d_dot(rule.points, t), dtype=float)
            F_j[j][dofs] += -params.alpha_j[j] * (phi.T @ (w * (gd @ n)))

    # Dirichlet lifting for the fluid velocity, plus the divergence-row lifting
    for fidx in faces.dirichlet("u"):
        face = faces.faces[fidx]
        rule = space.face_rule(fidx, face, space.mesh)
        w, n = rule.weights, face.normal
        phi, gx, gy = space.face_trace(fidx, face, face.elem_plus)
        T = _tractions(gx, gy, n, params.mu_f, 0.0)
        gamma_v = penalty_coefficients(face, params, space.m).gamma_v
        g = np.asarray(data.dirichlet_u(rule.points, t), dtype=float)
        gn = g @ n
        for c in (0, 1):
            dofs = space.elem_dofs("u", face.elem_plus, c)
            F_f[dofs] += -(T[c][0].T @ (w * g[:, 0]) + T[c][1].T @ (w * g[:, 1]))
            F_f[dofs] += gamma_v * 0.5 * (phi.T @ (w * (g[:, c] + gn * n[c])))
        F_p[space.elem_dofs("p", face.elem_plus)] += -(phi.T @ (w * gn))

    return {"el": F_el, "j": F_j, "f": F_f, "p": F_p}
