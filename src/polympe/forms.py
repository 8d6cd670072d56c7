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

Volume terms scale the Gram products ``gram`` of a
:class:`~polympe.spaces.VolumeTable` and volume loads are its ``integrate``:
this module reads no volume basis. Face terms take one batched product of the
stacked face tabulations per face set (interior faces with both sides,
boundary faces with the plus side) and per term.
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
from .params import EXCHANGE, PhysicalParams
from .spaces import DGSpace, FaceTable


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
    elements, faces, sides and components that define each form.

    Each part is broadcast once, into its slice of one triplet buffer; the
    indices are int32 while the shape allows, as scipy would cast them."""
    parts = [(r[..., :, None], c[..., None, :], v) for r, c, v in parts]
    shapes = [np.broadcast_shapes(*(a.shape for a in p)) for p in parts]
    ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
    if not ends[-1]:
        return sp.csr_matrix(shape)
    idx = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    triplet = np.empty(ends[-1], idx), np.empty(ends[-1], idx), np.empty(ends[-1])
    for p, s, a, b in zip(parts, shapes, ends, ends[1:]):
        for buf, x in zip(triplet, p):
            buf[a:b].reshape(s)[...] = x
    rows, cols, vals = triplet
    m = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    m.sum_duplicates()
    return m


# -- volume terms -------------------------------------------------------------


def _elastic_volume(space, field: str, mu, lam):
    """Elasticity volume blocks d0d0, d1d1, d0d1, d1d0 of every element."""
    tab = space.volume_table(space.field_domain(field))
    Kxx, Kyy, Kxy = tab.gram[1, 1], tab.gram[2, 2], tab.gram[1, 2]
    A01 = mu * Kxy.swapaxes(1, 2) + lam * Kxy
    vals = np.stack([(2 * mu + lam) * Kxx + mu * Kyy, (2 * mu + lam) * Kyy + mu * Kxx,
                     A01, A01.swapaxes(1, 2)], axis=1)
    e = np.arange(tab.n_elem)[:, None]
    return space.dofs(field, e, [0, 1, 0, 1]), space.dofs(field, e, [0, 1, 1, 0]), vals


def _mass(space, field: str, rho=1.0) -> sp.csr_matrix:
    """rho * gram[0, 0] on each component of each element of ``field``: the
    one site of every mass."""
    tab, n = space.volume_table(space.field_domain(field)), space.sizes[field]
    d = space.dofs(field, np.arange(tab.n_elem)[:, None], np.arange(space.components(field)))
    return _csr((n, n), (d, d, (rho * tab.gram[0, 0])[:, None]))


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
    return {"A": A, "M": _mass(space, "d", params.rho_el)}


def assemble_pressure(space: DGSpace, params: PhysicalParams, faces: FaceSet):
    """Darcy-type SIPG stiffness A_j and coupling B_j (rows on p:j, columns
    on ``d``) of every compartment, and the mass M of the compartment
    pressure space: ``{"A": {j: A_j}, "B": {j: B_j}, "M": M}``. The volume
    blocks are shared by every compartment; the face terms follow each p:j's
    Dirichlet faces."""
    nd = space.sizes["d"]
    tab = space.volume_table(space.field_domain("d"))
    K, div = tab.gram[1, 1] + tab.gram[2, 2], np.stack([tab.gram[0, 1], tab.gram[0, 2]], axis=1)
    # every p:j has the layout of p:E
    e = np.arange(tab.n_elem)[:, None]
    n, d = space.sizes[f"p:{EXCHANGE}"], space.dofs(f"p:{EXCHANGE}", e[:, 0])
    out = {"A": {}, "B": {}}
    for j in params.compartments:
        field = f"p:{j}"
        kappa, alpha = params.kappa(j), params.alpha_j[j]
        sided = _sided(space, faces, faces.sipg_faces(field))
        sipg = (_sipg_scalar(space, t, ns, field, kappa,
                             penalty_coefficients(t.harmonic_h, params, space.m).zeta[j])
                for t, ns in sided)
        out["A"][j] = _csr((n, n), (d, d, kappa * K), *sipg)
        # -int alpha p div w, + int alpha {p I} : [[w]]
        out["B"][j] = _csr((n, nd), (d[:, None], space.dofs("d", e, [0, 1]), -alpha * div),
                           *(_pressure_jump(space, t, ns, field, "d", alpha) for t, ns in sided))
    out["M"] = _mass(space, f"p:{EXCHANGE}")
    return out


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
    tab = space.volume_table(space.field_domain("u"))
    e = np.arange(tab.n_elem)[:, None]
    B = _csr((npp, nu), (space.dofs("p", e), space.dofs("u", e, [0, 1]),
                         -np.stack([tab.gram[0, 1], tab.gram[0, 2]], axis=1)),
             *(_pressure_jump(space, t, ns, "p", "u", 1.0) for t, ns in sided))

    parts = []
    for tab, ns in _sided(space, faces, faces.interior_f):
        w, phi, _, _ = _trace(tab, ns)
        sa, _, sb, _ = _side_weights(ns)
        pen = penalty_coefficients(tab.harmonic_h, params, space.m).gamma_p
        e = tab.elem[:, :ns]
        parts.append((space.dofs("p", e[:, :, None]), space.dofs("p", e[:, None, :]),
                      (pen[:, None, None] * sa * sb)[..., None, None] * _face_mass(w, phi)))
    return {"A": A, "M": _mass(space, "u", params.rho_f), "B": B,
            "S": _csr((npp, npp), *parts)}


def assemble_interface(space: DGSpace, params: PhysicalParams, faces: FaceSet):
    """Interface blocks J_el (rows p_E, columns d) and J_f (rows p_E, columns
    u): elastic-side trace of the exchange-compartment pressure against the
    normal trace of each test family; rows and columns vanish away from the
    interface."""
    field = f"p:{EXCHANGE}"
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

    def exact(self, key: str, pts, t=0.0):
        vector = key.partition(",")[0] in ("f_el", "f_f", "d", "u")
        return np.zeros((len(pts), 2) if vector else len(pts))


def _face_data(tab: FaceTable, data, key: str, t: float) -> np.ndarray:
    """The datum ``key`` of ``data`` at the face points, shaped (F, nq, ...)."""
    v = np.asarray(data.exact(key, tab.points.reshape(-1, 2), t), dtype=float)
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

    ``data`` gives every datum as ``data.exact(key, pts, t)`` at points
    (n, 2), under the keys of
    :meth:`~polympe.manufactured.ManufacturedCase.exact`: the sources ``f_el``,
    ``g:<j>`` and ``f_f``, the outlet stress ``p_out``, and the Dirichlet
    traces ``d``, ``d,t`` (its time derivative), ``u`` and ``p:<j>``;
    vector keys give (n, 2) values, scalar ones (n,).

    Each datum is evaluated once. A term whose datum is zero at every one
    of its points is skipped (a source row, the outlet stress, each
    Dirichlet lifting, and the ``p:<j>`` and ``d,t`` parts of the pressure
    lifting on their own): it would only add signed zeros, so the vector is
    the same bit for bit. NaN and inf count as nonzero.

    Face terms are added face by face, then by component and term, so an
    element with several data faces sums them in face order."""
    F = np.zeros(space.n_dofs)
    sl = space.field_slice

    tab = space.volume_table(space.field_domain("d"))
    vol = tab.integrate(np.array(
        [*np.asarray(data.exact("f_el", tab.points, t), dtype=float).T]
        + [data.exact(f"g:{j}", tab.points, t) for j in params.compartments], dtype=float))
    F[sl("d")] += vol[:, :2].ravel()
    for i, j in enumerate(params.compartments):
        F[sl(f"p:{j}")] += vol[:, 2 + i].ravel()
    tab = space.volume_table(space.field_domain("u"))
    f_f = np.asarray(data.exact("f_f", tab.points, t), dtype=float)
    F[sl("u")] += tab.integrate(f_f.T).ravel()

    def add(tab, field, vals, comps=0):
        # plus-side blocks vals (F, [component,] [term,] n_loc), in C order
        e = tab.elem[:, 0].reshape((-1,) + (1,) * (vals.ndim - 2))
        np.add.at(F[sl(field)], np.broadcast_to(space.dofs(field, e, comps), vals.shape), vals)

    c = np.arange(2)
    # outlet: int -pbar n_f . v
    if len(fidxs := faces.outlet()):
        tab = space.face_table(faces, fidxs)
        pbar = _face_data(tab, data, "p_out", t)
        if pbar.any():
            add(tab, "u", _face_loads(tab.basis[:, 0, 0],
                                      (tab.weights * -pbar)[:, None] * tab.normal[:, :, None]), c)

    # Dirichlet lifting for the displacement
    if len(fidxs := faces.dirichlet("d")):
        tab = space.face_table(faces, fidxs)
        g = _face_data(tab, data, "d", t)
        if g.any():
            lift, _ = _vector_lift(tab, g, params.mu_el, params.lam,
                                   penalty_coefficients(tab.harmonic_h, params, space.m).eta)
            add(tab, "d", lift, c[:, None])

    # Dirichlet lifting for the compartment pressures, plus the mass-coupling
    # lifting carrying the time derivative of the displacement datum
    for j in params.compartments:
        if not len(fidxs := faces.dirichlet(f"p:{j}")):
            continue
        tab = space.face_table(faces, fidxs)
        w, n = tab.weights, tab.normal
        g, gd = _face_data(tab, data, f"p:{j}", t), _face_data(tab, data, "d,t", t)
        phi, gx, gy = np.moveaxis(tab.basis[:, 0], 1, 0)
        terms = []
        if g.any():
            dn = gx * n[:, None, None, 0] + gy * n[:, None, None, 1]
            zeta = penalty_coefficients(tab.harmonic_h, params, space.m).zeta[j]
            wg = (w * g)[:, None]
            terms.append(-params.kappa(j) * _face_loads(dn, wg)
                         + zeta[:, None, None] * _face_loads(phi, wg))
        if gd.any():
            gdn = (gd @ n[:, :, None])[..., 0]
            terms.append(-params.alpha_j[j] * _face_loads(phi, (w * gdn)[:, None]))
        if terms:
            add(tab, f"p:{j}", np.concatenate(terms, axis=1))

    # Dirichlet lifting for the fluid velocity, plus the divergence-row lifting
    if len(fidxs := faces.dirichlet("u")):
        tab = space.face_table(faces, fidxs)
        g = _face_data(tab, data, "u", t)
        if g.any():
            lift, gn = _vector_lift(tab, g, params.mu_f, 0.0,
                                    penalty_coefficients(tab.harmonic_h, params, space.m).gamma_v)
            add(tab, "u", lift, c[:, None])
            add(tab, "p", -_face_loads(tab.basis[:, 0, 0], (tab.weights * gn)[:, None])[:, 0])

    return F
