"""Two-subdomain polygonal meshes and their face table.

A mesh covers an elastic (poroelastic tissue) and a fluid (CSF) subdomain.
Faces separating elements of different subdomains form the interface set;
boundary faces carry string labels that a Dirichlet map resolves into
per-variable boundary conditions ("d", "u", "p:<compartment>").

A mesh keeps its elements in groups of equal vertex count, one ``(G, n)``
index array per group, so its geometry and its validation are one array
reduction per group. Its edges form one :class:`EdgeTable`, lexsorted by
vertex key, each edge oriented from its plus element with its normal,
harmonic diameter and kind: the DG spaces, the interface and boundary edge
sets, the quality report and the agglomeration adjacency are all read from
that table. :func:`build_faces` resolves a Dirichlet map on it into one
:class:`FaceSet`, the boundary labels and index sets of that map.

Meshes, face sets and the DG spaces built on them are immutable after
construction and safe to share between concurrent assembly workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

ELASTIC = "elastic"
FLUID = "fluid"

#: Fan triangles smaller than this fraction of the element area fail the
#: star-shapedness validation.
_FAN_AREA_RTOL = 1e-12


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


def _fan(pts: np.ndarray):
    """The centroid fan of a ``(..., n, 2)`` stack of vertex loops: the
    vertex mean ``c`` (..., 1, 2) of each loop, the spokes ``p = v_i - c``
    and ``q = v_{i+1} - c`` (..., n, 2), and twice the signed areas
    ``p x q`` (..., n) of the fan triangles (c, v_i, v_{i+1}).

    The one fan of the package: meshes are validated star-shaped against it,
    volume quadrature integrates over it and agglomeration repairs clusters
    against it."""
    c = pts.mean(axis=-2, keepdims=True)
    p = pts - c
    q = np.concatenate((p[..., 1:, :], p[..., :1, :]), axis=-2)
    return c, p, q, p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


@dataclass(frozen=True)
class EdgeTable:
    """Every edge of a mesh once, lexsorted by its vertex key ``(lo, hi)``,
    as read-only arrays: the one face table of the mesh.

    Edge ``i`` is oriented from its plus element ``elem[i, 0]``, the first
    element in mesh order that has it, except on an interface edge, where it
    is the elastic one; ``elem[i, 1]`` is the minus element, -1 on a
    boundary edge. ``ab[i]`` is the edge as the plus loop traverses it, and
    ``normal[i]`` its unit normal out of the plus element. ``harmonic_h[i]``
    is the harmonic diameter of its two elements (the plus diameter on the
    boundary), and ``kind[i]`` indexes :data:`KINDS`. ``code`` is
    ``lo * n_vertices + hi``, ascending, for lookups.
    """

    key: np.ndarray  # (E, 2)
    elem: np.ndarray  # (E, 2)
    ab: np.ndarray  # (E, 2)
    normal: np.ndarray  # (E, 2)
    harmonic_h: np.ndarray  # (E,)
    kind: np.ndarray  # (E,)
    code: np.ndarray  # (E,)
    n_vertices: int

    @property
    def interior(self) -> np.ndarray:
        return self.elem[:, 1] >= 0

    def find(self, a, b):
        """Row (or rows, for arrays) of the existing edge(s) ``{a, b}``."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return np.searchsorted(self.code, lo * self.n_vertices + hi)


_ELEMENT_ERRORS = {
    1: "element {k} has fewer than 3 vertices",
    2: "element {k} has vertex index out of range",
    3: "element {k} repeats a vertex",
}


class PolyMesh:
    """Polygonal mesh of the union domain with element-wise subdomain tags.

    Parameters
    ----------
    vertices : (N, 2) array of vertex coordinates in meters.
    elements : sequence of counterclockwise vertex-index loops.
    element_domain : per-element tag, ``"elastic"`` or ``"fluid"``.
    boundary_labels : map from boundary edge (vertex pair, any order) to a
        label string. Must cover every boundary edge before faces can be
        built; a key that is not a boundary edge, or an edge given in both
        orders, raises :class:`MeshError`.

    Construction validates orientation, star-shapedness with respect to the
    element centroid (required by the fan sub-triangulation used for
    quadrature) and conformity (each edge shared by at most two elements,
    traversed in opposite directions). Overlaps and gaps between elements
    that share no edge are not detected. An invalid mesh raises
    :class:`MeshError` for its lowest-indexed offending element, or its
    first offending edge in element order.

    ``groups`` holds ``(elements (G,), loops (G, n))`` per vertex count
    ``n``, ascending; ``elements[k]`` is element ``k``'s loop; ``edges`` is
    the :class:`EdgeTable`.
    """

    def __init__(self, vertices, elements, element_domain, boundary_labels=None):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (N, 2) array")
        elements = list(elements)
        self.element_domain = list(element_domain)
        if len(elements) != len(self.element_domain):
            raise MeshError("element_domain length does not match elements")
        self._domain = np.array(self.element_domain, dtype=object)
        known = (self._domain == ELASTIC) | (self._domain == FLUID)
        if not known.all():
            raise MeshError(f"unknown domain tag {self.element_domain[int(np.argmin(known))]!r}")
        self._fluid = self._domain == FLUID
        self.boundary_labels = _edge_labels((boundary_labels or {}).items())

        counts = np.fromiter(map(len, elements), dtype=int, count=len(elements))
        flat = (np.concatenate(elements) if elements else np.zeros(0)).astype(int)
        flat.setflags(write=False)
        starts = np.cumsum(counts) - counts
        self.elements = [flat[s:s + c] for s, c in zip(starts.tolist(), counts.tolist())]
        order = np.argsort(counts, kind="stable")
        sizes, first = np.unique(counts[order], return_index=True)
        groups = []
        for n, elems in zip(sizes.tolist(), np.split(order, first[1:])):
            loops = flat[starts[elems, None] + np.arange(n)]
            elems.setflags(write=False)
            loops.setflags(write=False)
            groups.append((elems, loops))
        self.groups = tuple(groups)

        self._validate_and_derive()
        self._build_edges(flat, starts, counts)
        self.vertices.setflags(write=False)
        outer = self.boundary_edges()
        stray = next((key for key in self.boundary_labels if key not in outer), None)
        if stray is not None:
            raise MeshError(f"boundary label on {stray}, which is not a boundary edge")

    # -- derived geometry ------------------------------------------------

    def _validate_and_derive(self):
        nv = len(self.vertices)
        n = len(self.elements)
        self.areas = np.empty(n)
        self.centroids = np.empty((n, 2))
        self.diameters = np.empty(n)
        self.bboxes = np.empty((n, 2, 2))  # [k] = [[xmin, ymin], [xmax, ymax]]

        # error code per element: the first check it fails, 0 when valid
        err = np.zeros(n, dtype=int)
        verts = self.vertices if nv else np.zeros((1, 2))
        for elems, loops in self.groups:
            if loops.shape[1] < 3:
                err[elems] = 1
                continue
            in_range = (loops.min(axis=1) >= 0) & (loops.max(axis=1) < nv)
            srt = np.sort(loops, axis=1)
            repeats = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
            pts = verts[np.where(in_range[:, None], loops, 0)]
            x, y = pts[..., 0], pts[..., 1]
            area = 0.5 * (x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y).sum(axis=1)
            c, _, _, fan2 = _fan(pts)
            self.areas[elems] = area
            self.centroids[elems] = c[:, 0]
            d = pts[:, :, None, :] - pts[:, None, :, :]
            self.diameters[elems] = np.sqrt((d ** 2).sum(-1).max(axis=(1, 2)))
            self.bboxes[elems, 0] = pts.min(axis=1)
            self.bboxes[elems, 1] = pts.max(axis=1)
            # star-shapedness w.r.t. the centroid: every fan triangle
            # (centroid, v_i, v_{i+1}) must have strictly positive area
            star = 0.5 * fan2.min(axis=1) > _FAN_AREA_RTOL * area
            err[elems] = np.select([~in_range, repeats, area <= 0.0, ~star], [2, 3, 4, 5], 0)

        bad = np.flatnonzero(err)
        if len(bad):
            k = int(bad[0])
            if err[k] == 4:
                raise MeshError(f"element {k} is not counterclockwise "
                                f"(signed area {float(self.areas[k]):g})")
            if err[k] == 5:
                tri = 0.5 * _fan(self.vertices[self.elements[k]])[3]
                raise MeshError(
                    f"element {k} is not star-shaped w.r.t. its centroid "
                    f"(fan triangle at local edge {int(tri.argmin())} has area {tri.min():g})"
                )
            raise MeshError(_ELEMENT_ERRORS[int(err[k])].format(k=k))

    def _build_edges(self, flat, starts, counts):
        """The edge table from every (element, local edge) incidence, with the
        conformity check on it."""
        nv = len(self.vertices)
        nxt = np.arange(1, len(flat) + 1)
        nxt[starts + counts - 1] = starts
        a, b = flat, flat[nxt]
        owner = np.repeat(np.arange(len(counts)), counts)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        code = lo * nv + hi
        # a stable sort keeps each edge's incidences in element order
        order = np.argsort(code, kind="stable")
        new = np.ones(len(order), dtype=bool)
        new[1:] = code[order[1:]] != code[order[:-1]]
        head = np.flatnonzero(new)
        mult = np.diff(np.append(head, len(order)))
        i0 = order[head]  # first incidence, in flat (element) order
        i1 = np.where(mult == 2, order[np.minimum(head + 1, len(order) - 1)], i0)

        # conformity, reported for the first offending edge in element order
        crowded = mult > 2
        bad = np.flatnonzero(crowded | ((mult == 2) & (a[i0] == a[i1])))
        if len(bad):
            r = bad[np.argmin(i0[bad])]
            key = (int(lo[i0[r]]), int(hi[i0[r]]))
            if crowded[r]:
                raise MeshError(f"edge {key} shared by more than 2 elements")
            raise MeshError(
                f"edge {key} traversed twice in the same direction: "
                "overlapping or flipped elements"
            )

        inner = mult == 2
        f0, f1 = self._fluid[owner[i0]], self._fluid[owner[i1]]
        # edges are oriented from their first incidence, interface edges
        # from their elastic side
        swap = inner & f0 & ~f1
        plus, minus = np.where(swap, i1, i0), np.where(swap, i0, i1)
        elem = np.stack([owner[plus], np.where(inner, owner[minus], -1)], axis=1)
        ab = np.stack([a[plus], b[plus]], axis=1)
        fluid_p = self._fluid[elem[:, 0]].astype(int)
        kind = np.where(inner, np.where(f0 != f1, 2, fluid_p), 3 + fluid_p)
        tv = self.vertices[ab[:, 1]] - self.vertices[ab[:, 0]]
        normal = np.stack([tv[:, 1], -tv[:, 0]], axis=1) / np.hypot(tv[:, 0], tv[:, 1])[:, None]
        h = self.diameters[elem]  # the missing side of a boundary edge is masked below
        harm = np.where(inner, harmonic_h(h[:, 0], h[:, 1]), h[:, 0])
        key = np.stack([lo[i0], hi[i0]], axis=1)
        self.edges = EdgeTable(*map(_readonly, (key, elem, ab, normal, harm, kind, code[i0])),
                               n_vertices=nv)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def element_ids(self, domain: str) -> np.ndarray:
        """Element indices belonging to one subdomain, in mesh order."""
        return np.flatnonzero(self._domain == domain)

    def _edge_keys(self, rows) -> set[tuple[int, int]]:
        return set(map(tuple, self.edges.key[rows].tolist()))

    def interface_edges(self) -> set[tuple[int, int]]:
        """Sorted vertex pairs of edges separating the two subdomains."""
        return self._edge_keys(self.edges.kind == KINDS.index("interface"))

    def boundary_edges(self) -> set[tuple[int, int]]:
        return self._edge_keys(~self.edges.interior)


#: edge kinds by the code :attr:`EdgeTable.kind` stores: interior (elastic,
#: fluid), interface, boundary (elastic, fluid); each names an index set
KINDS = ("interior-el", "interior-f", "interface", "boundary-el", "boundary-f")


def harmonic_h(h_plus, h_minus=None):
    """Harmonic average of adjacent element diameters (floats or arrays of
    them); ``h_K`` on boundary faces."""
    if h_minus is None:
        return float(h_plus)
    return 2.0 * h_plus * h_minus / (h_plus + h_minus)


def _edge_labels(pairs) -> dict:
    """The labels of ``(edge, label)`` pairs keyed by sorted vertex pair; an
    edge given twice, in either vertex order, raises :class:`MeshError`."""
    out = {}
    for (a, b), lab in pairs:
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key in out:
            raise MeshError(f"boundary edge {key} is labelled twice, {out[key]!r} and {lab!r}")
        out[key] = lab
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_NO_FACES = _readonly(np.zeros(0, dtype=int))


@dataclass(frozen=True, eq=False)
class FaceSet:
    """A Dirichlet map resolved on the edge table ``edges`` of a mesh, one
    row per edge: ``label[i]`` is the boundary label of edge ``i`` (``None``
    on interior edges), and ``dirichlet_map`` sends a label to its Dirichlet
    variables. The faces' geometry is that of ``edges``.

    The index sets are int arrays computed once: ``interior_el``,
    ``interior_f``, ``interface``, ``boundary_el`` and ``boundary_f`` in face
    order, and :meth:`dirichlet`, :meth:`sipg_faces` and :meth:`outlet`.
    """

    edges: EdgeTable
    label: np.ndarray  # (F,) object
    dirichlet_map: Mapping[str, frozenset]

    def __post_init__(self):
        for code, kind in enumerate(KINDS):
            object.__setattr__(self, kind.replace("-", "_"),
                               _readonly(np.flatnonzero(self.edges.kind == code)))
        dirichlet, sipg = {}, {}
        for var in set().union(*self.dirichlet_map.values()):
            pool = self.boundary_f if var == "u" else self.boundary_el
            labels = [lab for lab, vs in self.dirichlet_map.items() if var in vs]
            dirichlet[var] = _readonly(pool[np.isin(self.label[pool], labels)])
            sipg[var] = _readonly(np.concatenate([self._interior(var), dirichlet[var]]))
        outlet = _readonly(np.setdiff1d(self.boundary_f, dirichlet.get("u", _NO_FACES)))
        for name, value in (("_dirichlet", dirichlet), ("_sipg", sipg), ("_outlet", outlet)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.label)

    def _interior(self, var: str) -> np.ndarray:
        return self.interior_f if var == "u" else self.interior_el

    def dirichlet(self, var: str) -> np.ndarray:
        """Boundary faces where ``var`` carries a Dirichlet condition."""
        return self._dirichlet.get(var, _NO_FACES)

    def sipg_faces(self, var: str) -> np.ndarray:
        """Interior faces, then Dirichlet faces, entering the SIPG form of ``var``."""
        return self._sipg.get(var, self._interior(var))

    def outlet(self) -> np.ndarray:
        """Fluid boundary faces with the natural (outlet stress) condition."""
        return self._outlet


def build_faces(mesh: PolyMesh, dirichlet_map: Mapping[str, Iterable[str]]) -> FaceSet:
    """Resolve a Dirichlet map on the edge table of a mesh, one face per
    edge in edge-table (sorted vertex key) order.

    ``dirichlet_map`` sends a boundary label to the set of variables that are
    Dirichlet on edges carrying that label; variables not listed get the
    natural condition (zero flux for pressures, outlet stress for the fluid).
    Raises :class:`MeshError` on unlabeled boundary edges and on a label that
    lists variables but that no boundary edge carries.
    """
    t = mesh.edges
    outer = ~t.interior
    keys = list(map(tuple, t.key[outer].tolist()))
    found = [mesh.boundary_labels.get(key) for key in keys]
    if None in found:
        raise MeshError(f"unlabeled boundary edge {keys[found.index(None)]}")
    if absent := sorted({lab for lab, vs in dirichlet_map.items() if vs} - set(found)):
        raise MeshError(f"no boundary edge carries the Dirichlet label(s) {absent}; "
                        f"the mesh's labels are {sorted(set(found))}")
    label = np.full(len(t.code), None, dtype=object)
    label[outer] = found
    return FaceSet(edges=t, label=_readonly(label),
                   dirichlet_map={lab: frozenset(vs) for lab, vs in dirichlet_map.items()})


@dataclass
class MeshQualityReport:
    """Shape measures backing the polytopic-regularity assumption.

    ``shape_ratios[k]`` is the minimum over faces of element ``k`` of
    ``d |S_K^F| / (|F| h_K)`` with ``S_K^F`` the fan triangle attached to the
    face; ``bounded_variation`` holds ``h_plus / h_minus`` per shared face.
    """

    shape_ratios: np.ndarray
    h_min: float
    h_max: float
    bounded_variation: np.ndarray

    def summary(self) -> str:
        bv = self.bounded_variation
        lines = [
            f"elements: {len(self.shape_ratios)}",
            f"h range: [{self.h_min:.6g}, {self.h_max:.6g}]",
            f"shape ratio d|S|/(|F| h_K): min {self.shape_ratios.min():.6g} "
            f"max {self.shape_ratios.max():.6g}",
        ]
        if len(bv):
            lines.append(f"bounded variation h+/h-: min {bv.min():.6g} max {bv.max():.6g}")
        return "\n".join(lines)


def quality_report(mesh: PolyMesh) -> MeshQualityReport:
    """Compute per-element shape ratios and neighbor mesh-size variation
    (``bounded_variation`` in edge-table order)."""
    ratios = np.empty(mesh.n_elements)
    for elems, loops in mesh.groups:
        pts = mesh.vertices[loops]
        edge = np.roll(pts, -1, axis=1) - pts
        lengths = np.hypot(edge[..., 0], edge[..., 1])
        # d |S_K^F| with d = 2 is twice the fan triangle's area
        r = _fan(pts)[3] / (lengths * mesh.diameters[elems, None])
        ratios[elems] = r.min(axis=1)
    sides = mesh.edges.elem[mesh.edges.interior]
    return MeshQualityReport(
        shape_ratios=ratios,
        h_min=float(mesh.diameters.min()),
        h_max=float(mesh.diameters.max()),
        bounded_variation=mesh.diameters[sides[:, 0]] / mesh.diameters[sides[:, 1]],
    )


# -- JSON mesh format ----------------------------------------------------
# { "vertices": [[x, y], ...],
#   "elements": [{"v": [i0, i1, ...], "domain": "elastic"|"fluid"}, ...],
#   "boundary": [{"edge": [i, j], "label": "..."}, ...] }


def load_mesh(path) -> PolyMesh:
    """Load a :class:`PolyMesh` from the JSON mesh format (0-based indices)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshError(f"cannot parse {path}: {exc}") from exc
    try:
        vertices = doc["vertices"]
        elements = [e["v"] for e in doc["elements"]]
        domains = [e["domain"] for e in doc["elements"]]
        labels = _edge_labels((b["edge"], b["label"]) for b in doc.get("boundary", []))
    except (KeyError, TypeError) as exc:
        raise MeshError(f"malformed mesh document {path}: missing {exc}") from exc
    return PolyMesh(vertices, elements, domains, labels)


def save_mesh(mesh: PolyMesh, path) -> None:
    """Write a mesh back to the JSON mesh format."""
    doc = {
        "vertices": mesh.vertices.tolist(),
        "elements": [
            {"v": [int(i) for i in e], "domain": d}
            for e, d in zip(mesh.elements, mesh.element_domain)
        ],
        "boundary": [
            {"edge": [int(a), int(b)], "label": lab}
            for (a, b), lab in sorted(mesh.boundary_labels.items())
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
