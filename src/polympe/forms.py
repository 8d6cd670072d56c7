"""Assembly of the DG bilinear forms, penalty coefficients, and load vectors.

Sign and face-set conventions follow the symmetric interior penalty method:
each elliptic form carries volume terms minus consistency and symmetry face
terms plus a penalty, summed over interior faces and the Dirichlet faces of
its own variable. Pressure-displacement coupling blocks use the same face
sets as the pressure gradient terms they discretize; the interface blocks
couple the elastic-side trace of the exchange-compartment pressure with the
elastic displacement and fluid velocity normal components.

All assembled blocks are field-local sparse CSR matrices, placed globally
in :mod:`polympe.system`; the loads are one dense vector in the global field
order of :class:`~polympe.spaces.DGSpace`.

Assembly reads the stacked tabulations of :class:`~polympe.spaces.DGSpace`:
volume terms take one batched product per group of elements with equal
quadrature-point counts and per term, face terms one per face set (interior
faces with both sides, boundary faces with the plus side) and per term.
Each block is built from one COO triplet list whose entries follow the
element, face, side and component order of the sums that define the form,
and face loads are accumulated in face order: duplicate entries and face
contributions then round in that order, however the products are batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import FaceSet
from .params import PhysicalParams
from .spaces import DGSpace, FaceTable, VolumeTable


@dataclass(frozen=True)
class PenaltyValues:
    """Face penalty coefficients: eta (elastic), zeta per compartment,
    gamma_v (fluid velocity), gamma_p (fluid pressure)."""

    eta: float
    zeta: dict
    gamma_v: float
    gamma_p: float


def penalty_coefficients(h, params: PhysicalParams, degree: int = 1) -> PenaltyValues:
    """Penalty values for the harmonic face diameter ``h`` (``harmonic_h``
    of a face set or face table): a float, or an array for per-face values.

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


def _csr(shape, *parts):
    """CSR matrix of dense blocks. Each part is a triplet of row indices
    (..., r), column indices (..., c) and values (..., r, c) that broadcast
    together; duplicates are summed. scipy sums them in an order set by the
    entry order, so the parts list the blocks in the order of the sums over
    elements, faces, sides and components that define each form."""
    parts = [(np.broadcast_to(r[..., :, None], v.shape),
              np.broadcast_to(c[..., None, :], v.shape), v) for r, c, v in parts]
    if not sum(v.size for _, _, v in parts):
        return sp.csr_matrix(shape)
    rows, cols, vals = (np.concatenate([p[i].ravel() for p in parts]) for i in range(3))
    m = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    m.sum_duplicates()
    return m


# -- volume terms -------------------------------------------------------------


def _volume_products(tab: VolumeTable, *pairs) -> np.ndarray:
    """a^T W b per element for each pair (a, b) of basis tabulations (0:
    values, 1 and 2: x and y derivatives); (len(pairs), n_elem, n_loc, n_loc).
    One batched product per group of elements with equal point counts."""
    n_loc = tab.basis.shape[2]
    out = np.empty((len(pairs), tab.n_elem, n_loc, n_loc))
    for elems, rows, n in tab.groups:
        w = tab.weights[rows].reshape(-1, n, 1)
        basis = tab.basis[:, rows].reshape(3, -1, n, n_loc)
        for i, (a, b) in enumerate(pairs):
            out[i, elems] = basis[a].swapaxes(1, 2) @ (w * basis[b])
    return out


def _volume_loads(tab: VolumeTable, vals: np.ndarray) -> np.ndarray:
    """phi^T (w * v) per element for each row v of the point values ``vals``
    (k, nq); (n_elem, k, n_loc)."""
    out = np.empty((tab.n_elem, len(vals), tab.basis.shape[2]))
    # contiguous point rows, as the per-element products read them
    wv = np.ascontiguousarray(vals) * tab.weights
    for elems, rows, n in tab.groups:
        phiT = tab.basis[0, rows].reshape(-1, n, out.shape[2]).swapaxes(1, 2)
        out[elems] = (phiT @ wv[:, rows].reshape(len(vals), -1, n, 1))[..., 0].swapaxes(0, 1)
    return out


def _elastic_volume(space, field: str, mu, lam):
    """Elasticity volume blocks d0d0, d1d1, d0d1, d1d0 of every element."""
    tab = space.volume_table(space.field_domain(field))
    Kxx, Kyy, Kxy = _volume_products(tab, (1, 1), (2, 2), (1, 2))
    A01 = mu * Kxy.swapaxes(1, 2) + lam * Kxy
    vals = np.stack([(2 * mu + lam) * Kxx + mu * Kyy, (2 * mu + lam) * Kyy + mu * Kxx,
                     A01, A01.swapaxes(1, 2)], axis=1)
    e = np.arange(tab.n_elem)[:, None]
    return space.dofs(field, e, [0, 1, 0, 1]), space.dofs(field, e, [0, 1, 1, 0]), vals


def _vector_mass(space, field: str, coeff):
    tab = space.volume_table(space.field_domain(field))
    Ms = coeff * _volume_products(tab, (0, 0))[0]
    d = space.dofs(field, np.arange(tab.n_elem)[:, None], [0, 1])
    return d, d, np.broadcast_to(Ms[:, None], (tab.n_elem, 2) + Ms.shape[1:])


def _divergence_volume(space, row_field: str, col_field: str, coeff):
    """coeff * int phi_row dphi_col/dx_c per element, components c = 0, 1."""
    tab = space.volume_table(space.field_domain(col_field))
    e = np.arange(tab.n_elem)[:, None]
    return (space.dofs(row_field, e), space.dofs(col_field, e, [0, 1]),
            coeff(_volume_products(tab, (0, 1), (0, 2)).swapaxes(0, 1)))


# -- face terms -----------------------------------------------------------------


def _sided(space, faces: FaceSet, fidxs) -> list:
    """Face tables of the interior faces of ``fidxs`` (both sides) and of its
    boundary faces (the plus side alone), as (table, sides) pairs; face lists
    put interior faces first, so the order of ``fidxs`` is kept."""
    tab = space.face_table(faces, fidxs)
    return [(tab.take(np.flatnonzero(sel)), ns)
            for sel, ns in ((~tab.boundary, 2), (tab.boundary, 1)) if sel.any()]


def _side_weights(ns: int):
    """Sign and average weight of each side, shaped (1, a, b) for side a
    against side b."""
    sgn, avg = ([1.0, -1.0], [0.5, 0.5]) if ns == 2 else ([1.0], [1.0])
    sgn, avg = np.array(sgn), np.array(avg)
    return sgn[None, :, None], avg[None, :, None], sgn[None, None, :], avg[None, None, :]


def _trace(tab: FaceTable, ns: int):
    """Weights (F, 1, nq, 1) and the side traces phi, dphi/dx, dphi/dy
    (F, ns, nq, n_loc)."""
    return (tab.weights[:, None, :, None],) + tuple(tab.basis[:, :ns, k] for k in range(3))


def _face_mass(w, phi) -> np.ndarray:
    """phi_a^T W phi_b for sides a, b: (F, a, b, n_loc, n_loc)."""
    return phi.swapaxes(-1, -2)[:, :, None] @ (w * phi)[:, None]


def _tractions(gx, gy, n, mu, lam):
    """Traction components (sigma(e_c phi) n)_r of the two vector basis
    component families from stacked gradients (F, ..., nq, n_loc) and normals
    (F, 2); returns (F, ..., 2 (c), 2 (r), nq, n_loc)."""
    n0, n1 = (n[:, k].reshape((-1,) + (1,) * (gx.ndim - 1)) for k in (0, 1))
    T = (((2 * mu + lam) * gx * n0 + mu * gy * n1, mu * gy * n0 + lam * gx * n1),
         (lam * gy * n0 + mu * gx * n1, mu * gx * n0 + (2 * mu + lam) * gy * n1))
    return np.stack([np.stack(Tc, axis=-3) for Tc in T], axis=-4)


def _sipg_vector(space, tab: FaceTable, ns: int, field: str, mu, lam, pen):
    """Vector SIPG blocks of each face, side pair (a, b) and component pair
    (ca, cb)."""
    w, phi, gx, gy = _trace(tab, ns)
    n = tab.normal
    T = _tractions(gx, gy, n, mu, lam)  # (F, side, c, r, nq, n_loc)
    sa, wa, sb, wb = (x[..., None, None] for x in _side_weights(ns))
    # phi_a^T W T_b[cb][ca] and T_a[ca][cb]^T W phi_b
    WT = (w[:, :, None, None] * T).swapaxes(2, 3)  # (F, b, ca, cb, nq, n_loc)
    X = phi.swapaxes(-1, -2)[:, :, None, None, None] @ WT[:, None]
    Y = T.swapaxes(-1, -2)[:, :, None] @ (w * phi)[:, None, :, None, None]
    P = _face_mass(w, phi)[:, :, :, None, None]
    nn = np.eye(2) + n[:, :, None] * n[:, None, :]
    c3 = pen[:, None, None, None, None] * sa * sb * 0.5 * nn[:, None, None]
    vals = ((-wb * sa)[..., None, None] * X + (-wa * sb)[..., None, None] * Y
            + c3[..., None, None] * P)
    e = tab.elem[:, :ns]
    return (space.dofs(field, e[:, :, None, None, None], np.arange(2)[:, None]),
            space.dofs(field, e[:, None, :, None, None], np.arange(2)), vals)


def _sipg_scalar(space, tab: FaceTable, ns: int, field: str, kappa, pen):
    """Scalar SIPG blocks of each face and side pair (a, b)."""
    w, phi, gx, gy = _trace(tab, ns)
    n = tab.normal[:, None, None, None, :]
    dn = gx * n[..., 0] + gy * n[..., 1]
    phiT = phi.swapaxes(-1, -2)
    sa, wa, sb, wb = _side_weights(ns)
    X = phiT[:, :, None] @ (w * dn)[:, None]
    Y = dn.swapaxes(-1, -2)[:, :, None] @ (w * phi)[:, None]
    vals = ((-wb * sa * kappa)[..., None, None] * X + (-wa * sb * kappa)[..., None, None] * Y
            + (pen[:, None, None] * sa * sb)[..., None, None] * _face_mass(w, phi))
    e = tab.elem[:, :ns]
    return space.dofs(field, e[:, :, None]), space.dofs(field, e[:, None, :]), vals


def _pressure_jump(space, tab: FaceTable, ns: int, row_field: str, col_field: str, coeff):
    """coeff * int {phi_row} [[phi_col n]] blocks of each face, vector side a
    (outer), scalar side b and component c; the scalar is weighted by the
    average, the vector jump by the sign."""
    w, phi, _, _ = _trace(tab, ns)
    sa, _, _, wb = _side_weights(ns)
    # phi_b^T W phi_a, the face mass with the sides swapped
    Q = _face_mass(w, phi).swapaxes(1, 2)[:, :, :, None]
    vals = (wb * sa * coeff)[..., None] * tab.normal[:, None, None, :]
    e = tab.elem[:, :ns]
    return (space.dofs(row_field, e[:, None, :, None]),
            space.dofs(col_field, e[:, :, None, None], np.arange(2)), vals[..., None, None] * Q)


def assemble_elastic(space: DGSpace, params: PhysicalParams, faces: FaceSet):
    """SIPG elasticity stiffness A_el and mass M_el (both on the ``d`` block)."""
    n = space.sizes["d"]
    mu, lam = params.mu_el, params.lam
    A = _csr((n, n), _elastic_volume(space, "d", mu, lam),
             *(_sipg_vector(space, tab, ns, "d", mu, lam,
                            penalty_coefficients(tab.harmonic_h, params, space.m).eta)
               for tab, ns in _sided(space, faces, faces.sipg_faces("d"))))
    return {"A": A, "M": _csr((n, n), _vector_mass(space, "d", params.rho_el))}


def assemble_pressure(space: DGSpace, params: PhysicalParams, faces: FaceSet, j: str):
    """Darcy-type SIPG stiffness A_j, storage mass M_j, coupling B_j (rows on
    the pressure block, columns on ``d``), and inter-compartment C blocks."""
    np_j, nd = space.sizes[f"p:{j}"], space.sizes["d"]
    field = f"p:{j}"
    kappa = params.k_j[j] / params.mu_j[j]
    alpha = params.alpha_j[j]
    tab = space.volume_table(space.field_domain(field))
    Kxx, Kyy, Ms = _volume_products(tab, (1, 1), (2, 2), (0, 0))
    d = space.dofs(field, np.arange(tab.n_elem))
    sided = _sided(space, faces, faces.sipg_faces(field))

    A = _csr((np_j, np_j), (d, d, kappa * (Kxx + Kyy)),
             *(_sipg_scalar(space, t, ns, field, kappa,
                            penalty_coefficients(t.harmonic_h, params, space.m).zeta[j])
               for t, ns in sided))
    # -int alpha p div w, + int alpha {p I} : [[w]]
    B = _csr((np_j, nd), _divergence_volume(space, field, "d", lambda K: -alpha * K),
             *(_pressure_jump(space, t, ns, field, "d", alpha) for t, ns in sided))

    Mu = _csr((np_j, np_j), (d, d, Ms))
    C = {}
    off_sum = 0.0
    for k in params.compartments:
        if k != j:
            beta_kj = params.beta[k][j]
            C[k] = -beta_kj * Mu
            off_sum += beta_kj
    C[j] = (off_sum + params.beta_ext[j]) * Mu
    return {"A": A, "M": _csr((np_j, np_j), (d, d, params.c_j[j] * Ms)), "B": B, "C": C}


def assemble_fluid(space: DGSpace, params: PhysicalParams, faces: FaceSet):
    """Stokes SIPG blocks: viscous A_f, mass M_f, divergence coupling B_f
    (rows on ``p``, columns on ``u``), and pressure-jump stabilization S."""
    nu, npp = space.sizes["u"], space.sizes["p"]
    sided = _sided(space, faces, faces.sipg_faces("u"))
    A = _csr((nu, nu), _elastic_volume(space, "u", params.mu_f, 0.0),
             *(_sipg_vector(space, t, ns, "u", params.mu_f, 0.0,
                            penalty_coefficients(t.harmonic_h, params, space.m).gamma_v)
               for t, ns in sided))
    # the pressure block uses its own basis (same element, scalar)
    B = _csr((npp, nu), _divergence_volume(space, "p", "u", lambda K: -K),
             *(_pressure_jump(space, t, ns, "p", "u", 1.0) for t, ns in sided))

    parts = []
    for tab, ns in _sided(space, faces, faces.interior_f):
        w, phi, _, _ = _trace(tab, ns)
        sa, _, sb, _ = _side_weights(ns)
        pen = penalty_coefficients(tab.harmonic_h, params, space.m).gamma_p
        e = tab.elem[:, :ns]
        parts.append((space.dofs("p", e[:, :, None]), space.dofs("p", e[:, None, :]),
                      (pen[:, None, None] * sa * sb)[..., None, None] * _face_mass(w, phi)))
    return {"A": A, "M": _csr((nu, nu), _vector_mass(space, "u", params.rho_f)), "B": B,
            "S": _csr((npp, npp), *parts)}


def assemble_interface(space: DGSpace, params: PhysicalParams, faces: FaceSet, j: str = "E"):
    """Interface blocks J_el (rows p_E, columns d) and J_f (rows p_E, columns
    u): elastic-side pressure trace against the normal trace of each test
    family; rows and columns vanish away from the interface."""
    field = f"p:{j}"
    shape_el = (space.sizes[field], space.sizes["d"])
    shape_f = (space.sizes[field], space.sizes["u"])
    # interface faces are oriented from the elastic (plus) side
    tab = space.face_table(faces, faces.interface)
    w, phi, _, _ = _trace(tab, 2)
    P = _face_mass(w, phi)[:, 0, :, None]  # (F, side, 1, n_loc, n_loc)
    n = tab.normal[:, :, None, None]
    rows = space.dofs(field, tab.elem[:, 0, None])
    c = np.arange(2)
    return {"J_el": _csr(shape_el, (rows, space.dofs("d", tab.elem[:, 0, None], c), n * P[:, 0])),
            "J_f": _csr(shape_f, (rows, space.dofs("u", tab.elem[:, 1, None], c), -n * P[:, 1]))}


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


def _face_data(tab: FaceTable, fn) -> np.ndarray:
    """A pointwise datum ``fn(points)`` at the face points, shaped (F, nq, ...)."""
    v = np.asarray(fn(tab.points.reshape(-1, 2)), dtype=float)
    return v.reshape(tab.weights.shape + v.shape[1:])


def _face_loads(a, v) -> np.ndarray:
    """a^T v per face for a tabulation a (F, nq, n_loc) and point weights v
    (F, k, nq); (F, k, n_loc)."""
    return (a.swapaxes(-1, -2)[:, None] @ v[..., None])[..., 0]


def _vector_lift(tab: FaceTable, g, mu, lam, pen):
    """Weak lifting of vector Dirichlet data g (F, nq, 2) on boundary faces:
    per face and component, the consistency then the penalty term, (F, 2, 2,
    n_loc); also returns g . n (F, nq)."""
    w, n = tab.weights[:, None], tab.normal
    phi, gx, gy = np.moveaxis(tab.basis[:, 0], 1, 0)
    T = _tractions(gx, gy, n, mu, lam)  # (F, c, r, nq, n_loc)
    gn = (g @ n[:, :, None])[..., 0]
    g = np.ascontiguousarray(g.transpose(0, 2, 1))  # (F, component, nq)
    TG = (T.swapaxes(-1, -2) @ (w * g)[:, None, :, :, None])[..., 0]
    pen_term = (pen * 0.5)[:, None, None] * _face_loads(phi, w * (g + gn[:, None] * n[:, :, None]))
    return np.stack([-(TG[:, :, 0] + TG[:, :, 1]), pen_term], axis=2), gn


def assemble_loads(space: DGSpace, params: PhysicalParams, faces: FaceSet, data, t: float):
    """Load vectors at time ``t``: volume sources, outlet stress, and the
    weak (SIPG consistency + penalty) lifting of nonhomogeneous Dirichlet
    data, including the coupling liftings that keep the compartment mass
    balance and the fluid divergence row consistent with moving-wall data.
    Returns one ``space.n_dofs`` vector in the field order of ``space``.

    Face terms are added face by face, then by component and term, so an
    element with several data faces sums them in face order."""
    F = np.zeros(space.n_dofs)
    sl = space.field_slice

    tab = space.volume_table(space.field_domain("d"))
    vol = _volume_loads(tab, np.array(
        [*np.asarray(data.f_el(tab.points, t), dtype=float).T]
        + [data.g_j(j, tab.points, t) for j in params.compartments], dtype=float))
    F[sl("d")] += vol[:, :2].ravel()
    for i, j in enumerate(params.compartments):
        F[sl(f"p:{j}")] += vol[:, 2 + i].ravel()
    tab = space.volume_table(space.field_domain("u"))
    F[sl("u")] += _volume_loads(tab, np.asarray(data.f_f(tab.points, t), dtype=float).T).ravel()

    def add(tab, field, vals, comps=0):
        # plus-side blocks vals (F, [component,] [term,] n_loc), in C order
        e = tab.elem[:, 0].reshape((-1,) + (1,) * (vals.ndim - 2))
        np.add.at(F[sl(field)], np.broadcast_to(space.dofs(field, e, comps), vals.shape), vals)

    c = np.arange(2)
    # outlet: int -pbar n_f . v
    if len(fidxs := faces.outlet()):
        tab = space.face_table(faces, fidxs)
        pbar = _face_data(tab, lambda x: data.p_out(x, t))
        add(tab, "u", _face_loads(tab.basis[:, 0, 0],
                                  (tab.weights * -pbar)[:, None] * tab.normal[:, :, None]), c)

    # Dirichlet lifting for the displacement
    if len(fidxs := faces.dirichlet("d")):
        tab = space.face_table(faces, fidxs)
        lift, _ = _vector_lift(tab, _face_data(tab, lambda x: data.dirichlet_d(x, t)),
                               params.mu_el, params.lam,
                               penalty_coefficients(tab.harmonic_h, params, space.m).eta)
        add(tab, "d", lift, c[:, None])

    # Dirichlet lifting for the compartment pressures, plus the mass-coupling
    # lifting carrying the time derivative of the displacement datum
    for j in params.compartments:
        if not len(fidxs := faces.dirichlet(f"p:{j}")):
            continue
        kappa = params.k_j[j] / params.mu_j[j]
        tab = space.face_table(faces, fidxs)
        w, n = tab.weights, tab.normal
        phi, gx, gy = np.moveaxis(tab.basis[:, 0], 1, 0)
        dn = gx * n[:, None, None, 0] + gy * n[:, None, None, 1]
        zeta = penalty_coefficients(tab.harmonic_h, params, space.m).zeta[j]
        wg = (w * _face_data(tab, lambda x: data.dirichlet_pj(j, x, t)))[:, None]
        gdn = (_face_data(tab, lambda x: data.dirichlet_d_dot(x, t)) @ n[:, :, None])[..., 0]
        terms = (-kappa * _face_loads(dn, wg) + zeta[:, None, None] * _face_loads(phi, wg),
                 -params.alpha_j[j] * _face_loads(phi, (w * gdn)[:, None]))
        add(tab, f"p:{j}", np.concatenate(terms, axis=1))

    # Dirichlet lifting for the fluid velocity, plus the divergence-row lifting
    if len(fidxs := faces.dirichlet("u")):
        tab = space.face_table(faces, fidxs)
        lift, gn = _vector_lift(tab, _face_data(tab, lambda x: data.dirichlet_u(x, t)),
                                params.mu_f, 0.0,
                                penalty_coefficients(tab.harmonic_h, params, space.m).gamma_v)
        add(tab, "u", lift, c[:, None])
        add(tab, "p", -_face_loads(tab.basis[:, 0, 0], (tab.weights * gn)[:, None])[:, 0])

    return F
