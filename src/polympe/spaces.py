"""Modal DG spaces on polygonal elements, with quadrature and projection.

Each element carries an L2-orthonormal polynomial basis of total degree m,
obtained from bounding-box-scaled Legendre seed polynomials recombined by a
Cholesky factorization of the quadrature Gram matrix. Volume quadrature on a
polygon composes collapsed Gauss rules over the centroid-fan triangles and is
exact to the requested order; face rules are Gauss-Legendre segments.

:class:`DGSpace` owns the coefficient layout, the bases as per-element arrays
and their tabulations, stacked per subdomain or face set so that one batched
product per group of equal-sized elements (or per face set) evaluates,
projects or averages a field at all quadrature points, or assembles a form.
A :class:`VolumeTable` owns every contraction against its basis. Each
vertex-count group of the mesh evaluates its volume seeds once and its face
traces with one :meth:`DGSpace.tabulate` call, on the oriented faces of the
mesh's :class:`~polympe.mesh.EdgeTable`, when the space is built. There are
no per-element or per-face objects or accessors, and no caches: a space,
like its mesh, is read-only once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dtrtrs

from .mesh import ELASTIC, FLUID, PolyMesh, _fan, _readonly


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (n, 2); (G, n, 2) for a stack of elements or faces
    weights: np.ndarray  # (n,); (G, n)


@lru_cache(maxsize=None)
def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _triangle_rule(order: int):
    """Reference rule on the unit triangle (0,0)-(1,0)-(0,1), exact to ``order``.

    Collapsed tensor rule: x = s, y = s t maps the unit square onto the
    triangle with Jacobian s, so degree-p integrands need ceil((p+2)/2) x
    ceil((p+1)/2) Gauss points.
    """
    ns = (order + 3) // 2
    nt = (order + 2) // 2
    s, ws = _gauss01(ns)
    t, wt = _gauss01(nt)
    S, T = np.meshgrid(s, t, indexing="ij")
    W = np.outer(ws, wt) * S
    x = S * (1.0 - T)
    y = S * T
    return x.ravel(), y.ravel(), W.ravel()


def volume_quadrature(element_vertices, order: int) -> QuadratureRule:
    """Quadrature over a star-shaped polygon via its centroid fan, given by
    its (n, 2) vertex loop or by each of a (G, n, 2) stack of them (points
    (..., n * nr, 2) and weights (..., n * nr), ``nr`` per fan triangle)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    pts = np.asarray(element_vertices, dtype=float)
    xr, yr, wr = _triangle_rule(order)
    # one block of rule points per fan triangle (c, v_i, v_{i+1})
    c, e0, e1, area2 = _fan(pts)
    p = c[..., None, :] + xr[:, None] * e0[..., None, :] + yr[:, None] * e1[..., None, :]
    lead = pts.shape[:-2]
    return QuadratureRule(p.reshape(*lead, -1, 2), (wr * area2[..., None]).reshape(*lead, -1))


def face_quadrature(segments, order: int) -> QuadratureRule:
    """Gauss rule exact to ``order`` on a straight face given by its (2, 2)
    endpoint array, or on each of a (n_faces, 2, 2) stack of them (points
    (n_faces, n, 2), weights (n_faces, n))."""
    seg = np.asarray(segments, dtype=float)
    p0, d = seg[..., 0, :], seg[..., 1, :] - seg[..., 0, :]
    s, w = _gauss01(max(1, (order + 2) // 2))
    pts = p0[..., None, :] + s[:, None] * d[..., None, :]
    length = np.hypot(d[..., 0], d[..., 1])
    return QuadratureRule(pts, w * length[..., None])


def _graded_exponents(m: int):
    """The x and y Legendre degrees of each seed, graded by total degree."""
    return np.array([(d - b, b) for d in range(m + 1) for b in range(d + 1)]).T


@lru_cache(maxsize=None)
def _leg_coeffs(n: int):
    c = np.zeros(n + 1)
    c[n] = 1.0
    return c, npleg.legder(c)


def _legendre_table(xi: np.ndarray, m: int):
    """Values and derivatives of P_0..P_m at mapped coordinates, each on a
    new last axis."""
    vals = np.stack([npleg.legval(xi, _leg_coeffs(n)[0]) for n in range(m + 1)], axis=-1)
    ders = np.stack([np.zeros_like(xi)] + [npleg.legval(xi, _leg_coeffs(n)[1])
                                           for n in range(1, m + 1)], axis=-1)
    return vals, ders


def _inverse_cholesky(gram: np.ndarray) -> np.ndarray:
    """The inverse lower Cholesky factor of each matrix of the stack ``gram``
    (G, n, n): one LAPACK ``potrf`` and ``trtrs`` per matrix, the calls
    scipy's ``cholesky`` and ``solve_triangular`` make, without their
    per-matrix wrappers. A matrix that is not finite raises ``ValueError``,
    one that is not positive definite ``LinAlgError``, naming its index in
    the stack."""
    finite = np.isfinite(gram).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"the Gram matrix of element {int(np.argmin(finite))} is not finite")
    out = np.empty_like(gram)
    eye = np.eye(gram.shape[-1])
    for k, g in enumerate(gram):
        c, info = dpotrf(g, lower=1, clean=1)
        if info == 0:
            out[k], info = dtrtrs(c, eye, lower=1)
        if info != 0:
            raise LinAlgError(f"the Gram matrix of element {k} is not positive definite")
    return out


@dataclass(frozen=True)
class VolumeTable:
    """Volume quadrature and basis of one subdomain, stacked element by
    element in the vertex-count groups of the mesh (an n-gon has n fan
    triangles, so a group's elements have equal point counts): each group
    ``(elems, rows, n)`` owns the contiguous rows ``rows``, ``n`` per element
    of ``elems``, so that one batched product covers a group. ``elem`` holds
    the subdomain-local element of each row.

    :meth:`values` and :meth:`grads` evaluate a field with one batched
    product per group: the group's tabulations (G, n, n_loc) against its
    coefficients (G, n_loc, ncomp). ``gram[a, b]`` holds the products
    phi_a^T W phi_b of every element (a <= b; 0: values, 1 and 2: x and y
    derivatives), computed once, and :meth:`integrate` gives phi^T (w v)."""

    points: np.ndarray  # (nq, 2)
    weights: np.ndarray  # (nq,)
    basis: np.ndarray  # (3, nq, n_loc): phi, dphi/dx, dphi/dy
    elem: np.ndarray  # (nq,)
    groups: tuple  # ((elements (G,), row slice, points per element), ...)
    mean_weights: np.ndarray  # (n_elem, n_loc): phi^T w / |K|
    gram: MappingProxyType  # {(a, b): (n_elem, n_loc, n_loc)}, read-only

    @property
    def n_elem(self) -> int:
        return len(self.mean_weights)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values (nq, ncomp) from coefficients (n_elem, ncomp, n_loc)."""
        return self._at_points(self.basis[:1], coeffs)[..., 0]

    def grads(self, coeffs: np.ndarray) -> np.ndarray:
        """Field gradients (nq, ncomp, 2), rows components, columns x/y."""
        return self._at_points(self.basis[1:], coeffs)

    def integrate(self, vals: np.ndarray) -> np.ndarray:
        """phi^T (w * v) per element for each row v of the point values
        ``vals`` (k, nq); (n_elem, k, n_loc). A row that is zero at every
        point gives zero blocks and no products (NaN and inf count as nonzero)."""
        # contiguous rows for the products and the zero test; each (row, element)
        # product is its own gemv, so a kept row rounds the same whichever rows are dropped
        vals = np.ascontiguousarray(vals)
        keep = np.flatnonzero(vals.any(axis=1))
        out = np.zeros((self.n_elem, len(vals), self.basis.shape[2]))
        if not len(keep):
            return out
        wv = vals[keep] * self.weights
        for elems, rows, n in self.groups:
            phiT = self.basis[0, rows].reshape(-1, n, out.shape[2]).swapaxes(1, 2)
            prod = phiT @ wv[:, rows].reshape(len(keep), -1, n, 1)
            out[np.ix_(elems, keep)] = prod[..., 0].swapaxes(0, 1)
        return out

    def _at_points(self, basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """The tabulations ``basis`` (k, nq, n_loc) of a field at every
        point, (nq, ncomp, k): one batched product per group."""
        k, ncomp = len(basis), coeffs.shape[1]
        out = np.empty((len(self.weights), ncomp, k))
        for elems, rows, n in self.groups:
            prod = basis[:, rows].reshape(k, -1, n, basis.shape[2]) @ coeffs[elems].swapaxes(1, 2)
            out[rows] = np.moveaxis(prod, 0, -1).reshape(-1, ncomp, k)
        return out


@dataclass(frozen=True)
class FaceTable:
    """Quadrature of a set of faces stacked face by face (all faces share one
    Gauss rule of nq points), with the basis traces of the plus and minus
    sides (zero for the minus side of a boundary face). ``elem`` holds the
    local element of each side within its own subdomain (the plus side twice
    on a boundary face), and ``harmonic_h`` the harmonic diameter of each
    face, so that :func:`polympe.forms.face_penalty` gives per-face
    penalties.

    ``DGSpace.face_table`` is the table of every edge of its mesh, and a
    reader takes the rows it uses with :meth:`take`; every array is
    read-only. :meth:`jump` is one batched product over both sides."""

    points: np.ndarray  # (F, nq, 2)
    weights: np.ndarray  # (F, nq)
    normal: np.ndarray  # (F, 2)
    harmonic_h: np.ndarray  # (F,)
    boundary: np.ndarray  # (F,) bool
    elem: np.ndarray  # (F, 2)
    basis: np.ndarray  # (F, 2, 3, nq, n_loc): phi, dphi/dx, dphi/dy of each side

    def take(self, fidxs) -> "FaceTable":
        """The rows of the faces ``fidxs``, as read-only arrays."""
        idx = np.asarray(fidxs, dtype=int)
        return FaceTable(*(_readonly(a[idx]) for a in vars(self).values()))

    def jump(self, coeffs: np.ndarray) -> np.ndarray:
        """Trace difference plus - minus (F, nq, ncomp) of a field: one
        batched product over both sides."""
        prod = self.basis[:, :, 0] @ coeffs[self.elem].swapaxes(2, 3)  # (F, 2, nq, ncomp)
        return prod[:, 0] - prod[:, 1]


def field_slices(sizes: dict) -> dict:
    """The rows of each field in the vector that stacks the fields of
    ``sizes`` in its order."""
    ends = np.cumsum([0, *sizes.values()]).tolist()
    return {f: slice(a, b) for f, a, b in zip(sizes, ends, ends[1:])}


class DGSpace:
    """Discontinuous piecewise-polynomial spaces for all model fields.

    Field blocks, in global DOF order: displacement ``d`` (2 components,
    elastic elements), one scalar pressure per compartment (elastic), fluid
    velocity ``u`` (2 components), fluid pressure ``p``. Within a field the
    layout is element-major, then component-major, then modal index.

    The basis of mesh element ``k`` is the Legendre seeds on its bounding box
    (``center[k]``, ``half[k]``) recombined by ``coeff[k]``, the inverse
    Cholesky factor of their Gram matrix; ``local[k]`` is its subdomain index.
    Every face of the mesh is tabulated when the space is built, in
    ``face_table`` (rows in edge-table order); a reader takes the rows of
    its faces. A space is read-only once built.
    """

    def __init__(self, mesh: PolyMesh, m: int, compartments=("E",)):
        if m < 1:
            raise ValueError("polynomial degree m must be >= 1")
        self.mesh = mesh
        self.m = int(m)
        self.compartments = tuple(compartments)
        if len(set(self.compartments)) != len(self.compartments):
            raise ValueError(f"compartments must be distinct, got {list(self.compartments)}")
        self.n_loc = (m + 1) * (m + 2) // 2
        self.vol_order = 2 * m + 2
        self.face_order = 2 * m + 3

        self.el_ids = mesh.element_ids(ELASTIC)
        self.f_ids = mesh.element_ids(FLUID)
        self.local = np.empty(mesh.n_elements, dtype=int)
        for ids in (self.el_ids, self.f_ids):
            self.local[ids] = np.arange(len(ids))

        self.fields = ["d"] + [f"p:{j}" for j in self.compartments] + ["u", "p"]
        self._components = {f: (2 if f in ("d", "u") else 1) for f in self.fields}
        self.sizes = {f: self._components[f] * len(self.field_elements(f)) * self.n_loc
                      for f in self.fields}
        self._slices = field_slices(self.sizes)
        self.n_dofs = self._slices[self.fields[-1]].stop

        lo, hi = mesh.bboxes[:, 0], mesh.bboxes[:, 1]
        self.half = 0.5 * (hi - lo)
        flat = (self.half <= 0.0).any(axis=1)
        if flat.any():
            raise ValueError(f"degenerate bounding box of element {int(np.argmax(flat))}")
        self.center = 0.5 * (hi + lo)
        rules = [volume_quadrature(mesh.vertices[loops], self.vol_order)
                 for _, loops in mesh.groups]
        tabs = [self._seeds(elems, rule.points) for (elems, _), rule in zip(mesh.groups, rules)]
        gram = np.empty((mesh.n_elements, self.n_loc, self.n_loc))
        for (elems, _), rule, seed in zip(mesh.groups, rules, tabs):
            gram[elems] = seed[0].swapaxes(1, 2) @ (rule.weights[..., None] * seed[0])
        self.coeff = _inverse_cholesky(gram)
        for i, (elems, _) in enumerate(mesh.groups):  # seeds to tabulations, as in tabulate
            tabs[i] = tabs[i] @ self.coeff[elems].swapaxes(1, 2)
        self._tables = {domain: self._volume_table(ids, rules, tabs)
                        for domain, ids in ((ELASTIC, self.el_ids), (FLUID, self.f_ids))}
        self.face_table = self._tabulate_faces()

    # -- layout ----------------------------------------------------------

    def field_domain(self, field: str) -> str:
        return FLUID if field in ("u", "p") else ELASTIC

    def components(self, field: str) -> int:
        return self._components[field]

    def field_elements(self, field: str) -> np.ndarray:
        return self.f_ids if self.field_domain(field) == FLUID else self.el_ids

    def field_slice(self, field: str) -> slice:
        """The rows of ``field`` in a global DOF vector."""
        return self._slices[field]

    def coeffs(self, field: str, vec: np.ndarray) -> np.ndarray:
        """View a field-local DOF vector as (n_elem, ncomp, n_loc)."""
        return np.asarray(vec).reshape(-1, self._components[field], self.n_loc)

    def dofs(self, field: str, elems, comp=0) -> np.ndarray:
        """Field-local DOF indices (..., n_loc) of the component blocks
        ``comp`` of the subdomain-local elements ``elems`` (broadcast
        together)."""
        start = (np.asarray(elems) * self._components[field] + comp) * self.n_loc
        return start[..., None] + np.arange(self.n_loc)

    # -- tabulations ---------------------------------------------------------

    def _seeds(self, elems: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Seed values and gradients (3, G, n, n_loc) of the elements
        ``elems`` (G,) at the physical points ``pts`` (G, n, 2)."""
        half = self.half[elems, None]
        xi = (pts - self.center[elems, None]) / half
        lx, dlx = _legendre_table(xi[..., 0], self.m)
        ly, dly = _legendre_table(xi[..., 1], self.m)
        # np.take keeps the seeds C-ordered (x[..., a] would not), so each
        # BLAS product on them rounds as on one contiguous element array
        a, b = _graded_exponents(self.m)
        lx, dlx = np.take(lx, a, axis=-1), np.take(dlx, a, axis=-1)
        ly, dly = np.take(ly, b, axis=-1), np.take(dly, b, axis=-1)
        return np.stack([lx * ly, dlx * ly / half[..., :1], lx * dly / half[..., 1:]])

    def tabulate(self, elems, pts) -> np.ndarray:
        """Basis values and gradients (3, G, n, n_loc) (phi, dphi/dx,
        dphi/dy) of the mesh elements ``elems`` (G,), each at its own row of
        physical points ``pts`` (G, n, 2)."""
        elems = np.asarray(elems, dtype=int)
        return self._seeds(elems, np.asarray(pts, dtype=float)) @ self.coeff[elems].swapaxes(1, 2)

    def _volume_table(self, ids: np.ndarray, rules: list, tabs: list) -> VolumeTable:
        """The volume table of the subdomain elements ``ids`` from the rules
        and tabulations of the vertex-count groups of the mesh."""
        # the zero-size first parts keep the shapes of an empty subdomain
        points, w, basis = [np.zeros((0, 2))], [np.zeros(0)], [np.zeros((3, 0, self.n_loc))]
        groups, start, mean_weights = [], 0, np.empty((len(ids), self.n_loc))
        gram = {(a, b): np.empty((len(ids), self.n_loc, self.n_loc))
                for b in range(3) for a in range(b + 1)}
        for (elems, _), rule, tab in zip(self.mesh.groups, rules, tabs):
            sel = np.isin(elems, ids)
            loc, n = self.local[elems[sel]], rule.weights.shape[1]
            if len(loc):
                groups.append((loc, slice(start, start + len(loc) * n), n))
                start += len(loc) * n
                points.append(rule.points[sel].reshape(-1, 2))
                w.append(rule.weights[sel].ravel())
                basis.append(tab[:, sel].reshape(3, -1, self.n_loc))
                starts = np.arange(0, len(loc) * n, n)
                mean_weights[loc] = (np.add.reduceat(w[-1][:, None] * basis[-1][0], starts, axis=0)
                                     / np.add.reduceat(w[-1], starts)[:, None])
                phi = basis[-1].reshape(3, -1, n, self.n_loc)
                for a, b in gram:
                    gram[a, b][loc] = phi[a].swapaxes(1, 2) @ (w[-1].reshape(-1, n, 1) * phi[b])
        return VolumeTable(points=np.concatenate(points), weights=np.concatenate(w),
                           basis=np.concatenate(basis, axis=1), groups=tuple(groups),
                           elem=np.concatenate([np.zeros(0, dtype=int)]
                                               + [np.repeat(loc, n) for loc, _, n in groups]),
                           mean_weights=mean_weights,
                           gram=MappingProxyType({k: _readonly(v) for k, v in gram.items()}))

    def volume_table(self, domain: str) -> VolumeTable:
        """Stacked volume tabulation of the ``domain`` elements."""
        return self._tables[domain]

    def _tabulate_faces(self) -> FaceTable:
        """The read-only face table of every edge of the mesh, in edge-table
        order. An n-gon owns exactly n (face, side) pairs, so each vertex-count
        group tabulates its basis once, on the quadrature points of all its faces."""
        edges = self.mesh.edges
        nf = len(edges.code)
        rule = face_quadrature(self.mesh.vertices[edges.ab], self.face_order)
        plus, minus = edges.elem.T
        inner = minus >= 0
        nq = rule.weights.shape[1]
        basis = np.zeros((nf, 2, 3, nq, self.n_loc))
        # every (face, side) an element owns, grouped by element
        face = np.concatenate([np.arange(nf), np.flatnonzero(inner)])
        side = np.repeat([0, 1], [nf, inner.sum()])
        elem = np.concatenate([plus, minus[inner]])
        order = np.argsort(elem, kind="stable")
        counts = np.bincount(elem, minlength=self.mesh.n_elements)
        first = np.cumsum(counts) - counts
        for elems, loops in self.mesh.groups:
            n = loops.shape[1]
            own = order[first[elems, None] + np.arange(n)]  # (G, n)
            f, s = face[own], side[own]
            tr = self.tabulate(elems, rule.points[f].reshape(len(elems), n * nq, 2))
            basis[f, s] = tr.reshape(3, len(elems), n, nq, self.n_loc).transpose(1, 2, 0, 3, 4)
        return FaceTable(*map(_readonly, (
            rule.points, rule.weights, edges.normal, edges.harmonic_h, ~inner,
            self.local[np.stack([plus, np.where(inner, minus, plus)], axis=1)], basis)))


def build_space(mesh: PolyMesh, m: int, compartments=("E",)) -> DGSpace:
    """Build the degree-``m`` DG space over a two-domain mesh."""
    return DGSpace(mesh, m, compartments)


def l2_project(space: DGSpace, field: str, fn) -> np.ndarray:
    """Element-wise L2 projection of a pointwise function onto one field block.

    ``fn`` maps an (n, 2) array of points to values of shape (n,) for scalar
    fields or (n, 2) for vector fields. It is called once, on the stacked
    quadrature points of the field's subdomain. Returns the field-local DOF
    vector.
    """
    tab = space.volume_table(space.field_domain(field))
    vals = np.asarray(fn(tab.points), dtype=float)
    return tab.integrate(vals.reshape(len(tab.weights), space.components(field)).T).ravel()
