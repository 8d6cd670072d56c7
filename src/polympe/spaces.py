"""Modal DG spaces on polygonal elements, with quadrature and projection.

Each element carries an L2-orthonormal polynomial basis of total degree m,
obtained from bounding-box-scaled Legendre seed polynomials recombined by a
Cholesky factorization of the quadrature Gram matrix. Volume quadrature on a
polygon composes collapsed Gauss rules over the centroid-fan triangles and is
exact to the requested order; face rules are Gauss-Legendre segments.

:class:`DGSpace` owns the coefficient layout and the basis tabulations,
stacked per subdomain or face set so that one contraction evaluates, projects
or averages a field at all quadrature points, and one batched product per
group of equal-sized elements (or per face set) assembles a form. There are
no per-element or per-face accessors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg import cholesky, solve_triangular

from .mesh import ELASTIC, FLUID, PolyMesh


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (n, 2); (n_faces, n, 2) for a stack of faces
    weights: np.ndarray  # (n,); (n_faces, n)


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
    """Quadrature over a star-shaped polygon via its centroid fan."""
    if order < 1:
        raise ValueError("order must be >= 1")
    pts = np.asarray(element_vertices, dtype=float)
    c = pts.mean(axis=0)
    xr, yr, wr = _triangle_rule(order)
    # one block of rule points per fan triangle (c, v_i, v_{i+1})
    e0, e1 = pts - c, np.roll(pts, -1, axis=0) - c
    area2 = e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0]
    p = c + xr[None, :, None] * e0[:, None, :] + yr[None, :, None] * e1[:, None, :]
    return QuadratureRule(p.reshape(-1, 2), (wr[None, :] * area2[:, None]).ravel())


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
    return [(d - b, b) for d in range(m + 1) for b in range(d + 1)]


@lru_cache(maxsize=None)
def _leg_coeffs(n: int):
    c = np.zeros(n + 1)
    c[n] = 1.0
    return c, npleg.legder(c)


def _legendre_table(xi: np.ndarray, m: int):
    """Values and derivatives of P_0..P_m at mapped coordinates."""
    vals = np.empty((len(xi), m + 1))
    ders = np.empty((len(xi), m + 1))
    for n in range(m + 1):
        c, dc = _leg_coeffs(n)
        vals[:, n] = npleg.legval(xi, c)
        ders[:, n] = npleg.legval(xi, dc) if n > 0 else 0.0
    return vals, ders


class _ElementBasis:
    """Per-element orthonormalized modal basis on the bounding box."""

    __slots__ = ("center", "half", "coeff", "exps", "m")

    def __init__(self, bbox, m, quad: QuadratureRule):
        lo, hi = bbox
        self.half = 0.5 * (hi - lo)
        if self.half.min() <= 0.0:
            raise ValueError("degenerate bounding box")
        self.center = 0.5 * (hi + lo)
        self.m = m
        self.exps = _graded_exponents(m)
        seed = self._seeds(quad.points)[0]
        gram = seed.T @ (quad.weights[:, None] * seed)
        L = cholesky(gram, lower=True)
        n = len(self.exps)
        self.coeff = solve_triangular(L, np.eye(n), lower=True)

    def _map(self, pts):
        return (pts - self.center) / self.half

    def _seeds(self, pts):
        """Seed polynomial values and gradients at physical points."""
        xi = self._map(pts)
        lx, dlx = _legendre_table(xi[:, 0], self.m)
        ly, dly = _legendre_table(xi[:, 1], self.m)
        v = np.stack([lx[:, a] * ly[:, b] for a, b in self.exps], axis=1)
        gx = np.stack([dlx[:, a] * ly[:, b] for a, b in self.exps], axis=1) / self.half[0]
        gy = np.stack([lx[:, a] * dly[:, b] for a, b in self.exps], axis=1) / self.half[1]
        return v, gx, gy

    def eval(self, pts):
        """Basis values and gradients at physical points -> (phi, dphix, dphiy)."""
        return tuple(s @ self.coeff.T for s in self._seeds(pts))


@dataclass(frozen=True)
class VolumeTable:
    """Volume quadrature and basis of one subdomain, stacked element by
    element in groups of elements with equal point counts: each group
    ``(elems, rows, n)`` owns the contiguous rows ``rows``, ``n`` per element
    of ``elems``, so that one batched product covers a group. ``elem`` holds
    the subdomain-local element of each row."""

    points: np.ndarray  # (nq, 2)
    weights: np.ndarray  # (nq,)
    basis: np.ndarray  # (3, nq, n_loc): phi, dphi/dx, dphi/dy
    elem: np.ndarray  # (nq,)
    groups: tuple  # ((elements (G,), row slice, points per element), ...)
    mean_weights: np.ndarray  # (n_elem, n_loc): phi^T w / |K|

    @classmethod
    def stack(cls, rules: list, bases: list, n_loc: int) -> "VolumeTable":
        """Concatenate per-element rules and (3, n, n_loc) basis tabulations."""
        counts = np.array([len(r.weights) for r in rules], dtype=int)
        order = np.argsort(counts, kind="stable")
        sizes, first = np.unique(counts[order], return_index=True)
        bounds = np.append(first, len(order))
        ends = np.concatenate([[0], np.cumsum(counts[order])]).astype(int)
        groups = tuple((order[a:b], slice(ends[a], ends[b]), n)
                       for n, a, b in zip(sizes, bounds[:-1], bounds[1:]))
        # the zero-size first parts keep the shapes of an empty subdomain
        w = np.concatenate([np.zeros(0)] + [rules[e].weights for e in order])
        basis = np.concatenate([np.zeros((3, 0, n_loc))] + [bases[e] for e in order], axis=1)
        mean_weights = np.empty((len(rules), n_loc))
        for elems, rows, n in groups:
            starts = np.arange(0, len(elems) * n, n)
            mean_weights[elems] = (np.add.reduceat(w[rows, None] * basis[0, rows], starts, axis=0)
                                   / np.add.reduceat(w[rows], starts)[:, None])
        return cls(points=np.concatenate([np.zeros((0, 2))] + [rules[e].points for e in order]),
                   weights=w, basis=basis, elem=np.repeat(order, counts[order]), groups=groups,
                   mean_weights=mean_weights)

    @property
    def n_elem(self) -> int:
        return len(self.mean_weights)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values (nq, ncomp) from coefficients (n_elem, ncomp, n_loc)."""
        return np.einsum("qi,qci->qc", self.basis[0], coeffs[self.elem])

    def grads(self, coeffs: np.ndarray) -> np.ndarray:
        """Field gradients (nq, ncomp, 2), rows components, columns x/y."""
        return np.einsum("xqi,qci->qcx", self.basis[1:], coeffs[self.elem])


@dataclass(frozen=True)
class FaceTable:
    """Quadrature of a face set stacked face by face (all faces share one
    Gauss rule of nq points), with the basis traces of the plus and minus
    sides (zero for the minus side of a boundary face). ``elem`` holds the
    local element of each side within its own subdomain (the plus side twice
    on a boundary face), and ``harmonic_h`` the harmonic diameter of each
    face, so that :func:`polympe.forms.penalty_coefficients` gives per-face
    penalties."""

    points: np.ndarray  # (F, nq, 2)
    weights: np.ndarray  # (F, nq)
    normal: np.ndarray  # (F, 2)
    harmonic_h: np.ndarray  # (F,)
    boundary: np.ndarray  # (F,) bool
    elem: np.ndarray  # (F, 2)
    basis: np.ndarray  # (F, 2, 3, nq, n_loc): phi, dphi/dx, dphi/dy of each side

    def take(self, fidxs) -> "FaceTable":
        """The rows of the faces ``fidxs``."""
        idx = np.asarray(fidxs, dtype=int)
        return FaceTable(*(a[idx] for a in vars(self).values()))

    def jump(self, coeffs: np.ndarray) -> np.ndarray:
        """Trace difference plus - minus (F, nq, ncomp) of a field."""
        return np.einsum("fsqi,fsci,s->fqc", self.basis[:, :, 0], coeffs[self.elem], [1.0, -1.0])


class DGSpace:
    """Discontinuous piecewise-polynomial spaces for all model fields.

    Field blocks, in global DOF order: displacement ``d`` (2 components,
    elastic elements), one scalar pressure per compartment (elastic), fluid
    velocity ``u`` (2 components), fluid pressure ``p``. Within a field the
    layout is element-major, then component-major, then modal index.
    """

    def __init__(self, mesh: PolyMesh, m: int, compartments=("E",)):
        if m < 1:
            raise ValueError("polynomial degree m must be >= 1")
        self.mesh = mesh
        self.m = int(m)
        self.compartments = tuple(compartments)
        self.n_loc = (m + 1) * (m + 2) // 2
        self.vol_order = 2 * m + 2
        self.face_order = 2 * m + 3

        self.el_ids = mesh.element_ids(ELASTIC)
        self.f_ids = mesh.element_ids(FLUID)
        self.local_index = {int(k): loc for ids in (self.el_ids, self.f_ids)
                            for loc, k in enumerate(ids)}

        self.fields = ["d"] + [f"p:{j}" for j in self.compartments] + ["u", "p"]
        self._components = {f: (2 if f in ("d", "u") else 1) for f in self.fields}
        self.sizes = {f: self._components[f] * len(self.field_elements(f)) * self.n_loc
                      for f in self.fields}
        ends = np.cumsum([0] + list(self.sizes.values())).tolist()
        self.offsets = dict(zip(self.fields, ends))
        self.n_dofs = ends[-1]

        self._basis, self._tables = {}, {}
        for domain, ids in ((ELASTIC, self.el_ids), (FLUID, self.f_ids)):
            rules = [volume_quadrature(mesh.vertices[mesh.elements[k]], self.vol_order)
                     for k in ids]
            for k, rule in zip(ids, rules):
                self._basis[int(k)] = _ElementBasis(mesh.bboxes[k], m, rule)
            self._tables[domain] = VolumeTable.stack(
                rules, [np.stack(self._basis[int(k)].eval(r.points)) for k, r in zip(ids, rules)],
                self.n_loc)
        self._faces = None

    # -- layout ----------------------------------------------------------

    def field_domain(self, field: str) -> str:
        return FLUID if field in ("u", "p") else ELASTIC

    def components(self, field: str) -> int:
        return self._components[field]

    def field_elements(self, field: str) -> np.ndarray:
        return self.f_ids if self.field_domain(field) == FLUID else self.el_ids

    def field_slice(self, field: str) -> slice:
        """The rows of ``field`` in a global DOF vector."""
        return slice(self.offsets[field], self.offsets[field] + self.sizes[field])

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

    def basis_eval(self, elem: int, pts: np.ndarray):
        return self._basis[elem].eval(np.asarray(pts, dtype=float))

    def volume_table(self, domain: str) -> VolumeTable:
        """Stacked volume tabulation of the ``domain`` elements."""
        return self._tables[domain]

    def face_table(self, faces, fidxs) -> FaceTable:
        """Stacked face tabulation of the faces ``fidxs`` of ``faces``. Every
        face set of the mesh lists the same faces (a Dirichlet map only labels
        them), so the first one tabulates them all."""
        if self._faces is None:
            self._faces = self._tabulate_faces(faces.faces)
        return self._faces.take(fidxs)

    def _tabulate_faces(self, faces: list) -> FaceTable:
        """The face table of every face of the mesh. Each element evaluates
        its basis once, on the quadrature points of all its faces."""
        nf = len(faces)
        v = self.mesh.vertices
        rule = face_quadrature(np.stack([v[[f.v0 for f in faces]], v[[f.v1 for f in faces]]],
                                        axis=1), self.face_order)
        plus = np.array([f.elem_plus for f in faces], dtype=int)
        minus = np.array([-1 if f.elem_minus is None else f.elem_minus for f in faces], dtype=int)
        inner = minus >= 0
        nq = rule.weights.shape[1]
        basis = np.zeros((nf, 2, 3, nq, self.n_loc))
        # every (face, side) an element owns, grouped by element
        face = np.concatenate([np.arange(nf), np.flatnonzero(inner)])
        side = np.repeat([0, 1], [nf, inner.sum()])
        elem = np.concatenate([plus, minus[inner]])
        order = np.argsort(elem, kind="stable")
        ks, starts = np.unique(elem[order], return_index=True)
        for k, sel in zip(ks, np.split(order, starts[1:])):
            f, s = face[sel], side[sel]
            tr = np.stack(self._basis[int(k)].eval(rule.points[f].reshape(-1, 2)))
            basis[f, s] = tr.reshape(3, len(f), nq, self.n_loc).transpose(1, 0, 2, 3)
        to_local = np.zeros(self.mesh.n_elements, dtype=int)
        to_local[list(self.local_index)] = list(self.local_index.values())
        return FaceTable(
            points=rule.points, weights=rule.weights,
            normal=np.array([f.normal for f in faces]).reshape(nf, 2),
            harmonic_h=np.array([f.harmonic_h for f in faces], dtype=float),
            boundary=~inner, elem=to_local[np.stack([plus, np.where(inner, minus, plus)], axis=1)],
            basis=basis)


def build_space(mesh: PolyMesh, m: int, compartments=("E",)) -> DGSpace:
    """Build the degree-``m`` DG space over a two-domain mesh."""
    return DGSpace(mesh, m, compartments)


def l2_project(space: DGSpace, field: str, fn, t: float | None = None) -> np.ndarray:
    """Element-wise L2 projection of a pointwise function onto one field block.

    ``fn`` maps an (n, 2) array of points to values of shape (n,) for scalar
    fields or (n, 2) for vector fields; a trailing ``t`` argument is passed
    when given. It is called once, on the stacked quadrature points of the
    field's subdomain. Returns the field-local DOF vector.
    """
    tab = space.volume_table(space.field_domain(field))
    vals = fn(tab.points) if t is None else fn(tab.points, t)
    vals = np.asarray(vals, dtype=float).reshape(len(tab.weights), space.components(field))
    # the transpose of VolumeTable.values, applied to w * vals
    wv = tab.weights[:, None] * vals
    out = np.empty((tab.n_elem, vals.shape[1], space.n_loc))
    for elems, rows, n in tab.groups:
        out[elems] = np.add.reduceat(wv[rows, :, None] * tab.basis[0, rows, None, :],
                                     np.arange(0, len(elems) * n, n), axis=0)
    return out.ravel()


def eval_field(space: DGSpace, field: str, vec: np.ndarray, elem: int, pts: np.ndarray):
    """Evaluate a field-local DOF vector on one element at given points."""
    phi, _, _ = space.basis_eval(int(elem), pts)
    vals = phi @ space.coeffs(field, vec)[space.local_index[int(elem)]].T
    return vals[:, 0] if space.components(field) == 1 else vals
