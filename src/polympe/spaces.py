"""Modal DG spaces on polygonal elements, with quadrature and projection.

Each element carries an L2-orthonormal polynomial basis of total degree m,
obtained from bounding-box-scaled Legendre seed polynomials recombined by a
Cholesky factorization of the quadrature Gram matrix. Volume quadrature on a
polygon composes collapsed Gauss rules over the centroid-fan triangles and is
exact to the requested order; face rules are Gauss-Legendre segments.

:class:`DGSpace` owns the coefficient layout and the basis tabulations,
stacked per subdomain or face set so that one contraction evaluates, projects
or averages a field at all quadrature points; assembly reads the same
tabulations per element (``vol``) and per face (``face_trace``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg import cholesky, solve_triangular

from .mesh import ELASTIC, FLUID, Face, PolyMesh


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (n, 2) for volumes, (n, 2) along the segment for faces
    weights: np.ndarray


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


def face_quadrature(face, order: int) -> QuadratureRule:
    """Gauss rule on a straight face, exact to ``order``; accepts a
    :class:`Face` plus the owning mesh, or a (2, 2) endpoint array."""
    if isinstance(face, tuple):
        mesh, f = face
        p0, p1 = mesh.vertices[f.v0], mesh.vertices[f.v1]
    else:
        seg = np.asarray(face, dtype=float)
        p0, p1 = seg[0], seg[1]
    n = max(1, (order + 2) // 2)
    s, w = _gauss01(n)
    pts = p0[None, :] + np.outer(s, p1 - p0)
    length = float(np.hypot(*(p1 - p0)))
    return QuadratureRule(pts, w * length)


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
    element: subdomain-local element ``e`` owns the rows ``offsets[e]`` to
    ``offsets[e + 1]``, and ``elem`` holds the element of each row."""

    points: np.ndarray  # (nq, 2)
    weights: np.ndarray  # (nq,)
    basis: np.ndarray  # (3, nq, n_loc): phi, dphi/dx, dphi/dy
    elem: np.ndarray  # (nq,)
    offsets: np.ndarray  # (n_elem + 1,)
    mean_weights: np.ndarray  # (n_elem, n_loc): phi^T w / |K|

    @classmethod
    def stack(cls, rules: list, bases: list, n_loc: int) -> "VolumeTable":
        """Concatenate per-element rules and (3, n, n_loc) basis tabulations."""
        counts = np.array([len(r.weights) for r in rules], dtype=int)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(int)
        # the zero-size first parts keep the shapes of an empty subdomain
        w = np.concatenate([np.zeros(0)] + [r.weights for r in rules])
        basis = np.concatenate([np.zeros((3, 0, n_loc))] + bases, axis=1)
        return cls(points=np.concatenate([np.zeros((0, 2))] + [r.points for r in rules]),
                   weights=w, basis=basis, elem=np.repeat(np.arange(len(rules)), counts),
                   offsets=offsets,
                   mean_weights=np.add.reduceat(w[:, None] * basis[0], offsets[:-1], axis=0)
                   / np.add.reduceat(w, offsets[:-1])[:, None])

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values (nq, ncomp) from coefficients (n_elem, ncomp, n_loc)."""
        return np.einsum("qi,qci->qc", self.basis[0], coeffs[self.elem])

    def grads(self, coeffs: np.ndarray) -> np.ndarray:
        """Field gradients (nq, ncomp, 2), rows components, columns x/y."""
        return np.einsum("xqi,qci->qcx", self.basis[1:], coeffs[self.elem])


@dataclass(frozen=True)
class FaceTable:
    """Face quadrature of a face set inside one subdomain, stacked face by
    face, with the basis traces of the plus and minus sides (zero for the
    minus side of a boundary face). ``harmonic_h`` repeats the harmonic
    diameter of each face per point, so that
    :func:`polympe.forms.penalty_coefficients` gives per-point penalties."""

    points: np.ndarray  # (nq, 2)
    weights: np.ndarray  # (nq,)
    normal: np.ndarray  # (nq, 2)
    harmonic_h: np.ndarray  # (nq,)
    boundary: np.ndarray  # (nq,) bool
    elem: np.ndarray  # (nq, 2) subdomain-local element of each side
    phi: np.ndarray  # (nq, 2, n_loc)

    def jump(self, coeffs: np.ndarray) -> np.ndarray:
        """Trace difference plus - minus (nq, ncomp) of a field."""
        return np.einsum("qsi,qsci,s->qc", self.phi, coeffs[self.elem], [1.0, -1.0])


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

        self._basis, self._tables, self._vol = {}, {}, {}
        for domain, ids in ((ELASTIC, self.el_ids), (FLUID, self.f_ids)):
            rules = [volume_quadrature(mesh.vertices[mesh.elements[k]], self.vol_order)
                     for k in ids]
            for k, rule in zip(ids, rules):
                self._basis[int(k)] = _ElementBasis(mesh.bboxes[k], m, rule)
            tab = self._tables[domain] = VolumeTable.stack(
                rules, [np.stack(self._basis[int(k)].eval(r.points)) for k, r in zip(ids, rules)],
                self.n_loc)
            for loc, k in enumerate(ids):
                rows = slice(tab.offsets[loc], tab.offsets[loc + 1])
                self._vol[int(k)] = (tab.points[rows], tab.weights[rows]) + tuple(tab.basis[:, rows])
        self._face_rule = {}
        self._face_eval = {}

    # -- layout ----------------------------------------------------------

    def field_domain(self, field: str) -> str:
        return FLUID if field in ("u", "p") else ELASTIC

    def components(self, field: str) -> int:
        return self._components[field]

    def field_elements(self, field: str) -> np.ndarray:
        return self.f_ids if self.field_domain(field) == FLUID else self.el_ids

    def coeffs(self, field: str, vec: np.ndarray) -> np.ndarray:
        """View a field-local DOF vector as (n_elem, ncomp, n_loc)."""
        return np.asarray(vec).reshape(-1, self._components[field], self.n_loc)

    def elem_dofs(self, field: str, elem: int, comp: int = 0) -> np.ndarray:
        """Field-local DOF indices of one component block of one element."""
        start = (self.local_index[int(elem)] * self._components[field] + comp) * self.n_loc
        return np.arange(start, start + self.n_loc)

    # -- tabulations ---------------------------------------------------------

    def vol(self, elem: int):
        """(points, weights, phi, dphix, dphiy) on element ``elem``: its rows
        of the stacked table of its subdomain."""
        return self._vol[elem]

    def face_rule(self, fidx: int, face: Face, mesh: PolyMesh) -> QuadratureRule:
        if fidx not in self._face_rule:
            self._face_rule[fidx] = face_quadrature((mesh, face), self.face_order)
        return self._face_rule[fidx]

    def face_trace(self, fidx: int, face: Face, elem: int):
        """(phi, dphix, dphiy) of element ``elem`` at the face quadrature points."""
        key = (fidx, elem)
        if key not in self._face_eval:
            rule = self.face_rule(fidx, face, self.mesh)
            self._face_eval[key] = self._basis[elem].eval(rule.points)
        return self._face_eval[key]

    def basis_eval(self, elem: int, pts: np.ndarray):
        return self._basis[elem].eval(np.asarray(pts, dtype=float))

    def volume_table(self, domain: str) -> VolumeTable:
        """Stacked volume tabulation of the ``domain`` elements."""
        return self._tables[domain]

    def face_table(self, faces, fidxs) -> FaceTable:
        """Stacked face tabulation of the non-empty face list ``fidxs`` of
        ``faces``; both sides of every face must lie in one subdomain."""
        key = tuple(fidxs)
        if key not in self._tables:
            cols = []
            for fidx in key:
                face = faces.faces[fidx]
                rule = self.face_rule(fidx, face, self.mesh)
                n, inner = len(rule.weights), face.elem_minus is not None
                sides = (face.elem_plus, face.elem_minus if inner else face.elem_plus)
                phi = np.stack([self.face_trace(fidx, face, k)[0] for k in sides], axis=1)
                cols.append((rule.points, rule.weights, np.tile(face.normal, (n, 1)),
                             np.full(n, face.harmonic_h), np.full(n, not inner),
                             np.tile([self.local_index[k] for k in sides], (n, 1)),
                             phi * np.array([1.0, inner])[:, None]))
            self._tables[key] = FaceTable(*map(np.concatenate, zip(*cols)))
        return self._tables[key]


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
    return np.add.reduceat(wv[:, :, None] * tab.basis[0][:, None, :], tab.offsets[:-1],
                           axis=0).ravel()


def eval_field(space: DGSpace, field: str, vec: np.ndarray, elem: int, pts: np.ndarray):
    """Evaluate a field-local DOF vector on one element at given points."""
    phi, _, _ = space.basis_eval(int(elem), pts)
    vals = phi @ space.coeffs(field, vec)[space.local_index[int(elem)]].T
    return vals[:, 0] if space.components(field) == 1 else vals
