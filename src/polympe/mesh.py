"""Two-subdomain polygonal meshes and their face table.

A mesh covers an elastic (poroelastic tissue) and a fluid (CSF) subdomain.
Faces separating elements of different subdomains form the interface set;
boundary faces carry string labels that a Dirichlet map resolves into
per-variable boundary conditions ("d", "u", "p:<compartment>").

A mesh keeps its elements in groups of equal vertex count, one ``(G, n)``
index array per group, so its geometry and its validation are one array
reduction per group. Its edges form one :class:`EdgeTable`, lexsorted by
vertex key, with the element and the oriented vertex pair of each side:
faces, the interface and boundary edge sets, the quality report and the
agglomeration adjacency are all read from that table. :func:`build_faces`
turns it into one :class:`FaceSet`, a table of per-face arrays in the same
order with its index sets, which :mod:`polympe.spaces` tabulates directly.

Meshes and face sets are immutable after construction and safe to share
between concurrent assembly workers.
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

_AREA_RTOL = 1e-10


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


def _fan_areas(pts: np.ndarray) -> np.ndarray:
    """Signed areas of the centroid-fan triangles (c, v_i, v_{i+1}) of a
    ``(G, n, 2)`` stack of vertex loops, ``c`` the vertex mean of each."""
    p = pts - pts.mean(axis=1, keepdims=True)
    q = np.roll(p, -1, axis=1)
    return 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])


@dataclass(frozen=True)
class EdgeTable:
    """Every edge of a mesh once, lexsorted by its vertex key ``(lo, hi)``.

    ``elem[i]`` holds the elements on the two sides of edge ``i``, the lower
    index first, with -1 as the second side of a boundary edge; ``ab[i, s]``
    is the edge as the loop of side ``s`` traverses it (-1 where there is no
    side). ``code`` is ``lo * n_vertices + hi``, ascending, for lookups.
    """

    key: np.ndarray  # (E, 2)
    elem: np.ndarray  # (E, 2)
    ab: np.ndarray  # (E, 2, 2)
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
        built.

    Construction validates orientation, star-shapedness with respect to the
    element centroid (required by the fan sub-triangulation used for
    quadrature), conformity (each edge shared by at most two elements,
    traversed in opposite directions), and the gap/overlap area invariant.
    An invalid mesh raises :class:`MeshError` for its lowest-indexed
    offending element, or its first offending edge in element order.

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
        self.boundary_labels = {
            (min(int(a), int(b)), max(int(a), int(b))): lab
            for (a, b), lab in (boundary_labels or {}).items()
        }

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
            self.areas[elems] = area
            self.centroids[elems] = pts.mean(axis=1)
            d = pts[:, :, None, :] - pts[:, None, :, :]
            self.diameters[elems] = np.sqrt((d ** 2).sum(-1).max(axis=(1, 2)))
            self.bboxes[elems, 0] = pts.min(axis=1)
            self.bboxes[elems, 1] = pts.max(axis=1)
            # star-shapedness w.r.t. the centroid: every fan triangle
            # (centroid, v_i, v_{i+1}) must have strictly positive area
            star = _fan_areas(pts).min(axis=1) > _FAN_AREA_RTOL * area
            err[elems] = np.select([~in_range, repeats, area <= 0.0, ~star], [2, 3, 4, 5], 0)

        bad = np.flatnonzero(err)
        if len(bad):
            k = int(bad[0])
            if err[k] == 4:
                raise MeshError(f"element {k} is not counterclockwise "
                                f"(signed area {float(self.areas[k]):g})")
            if err[k] == 5:
                tri = _fan_areas(self.vertices[self.elements[k]][None])[0]
                raise MeshError(
                    f"element {k} is not star-shaped w.r.t. its centroid "
                    f"(fan triangle at local edge {int(tri.argmin())} has area {tri.min():g})"
                )
            raise MeshError(_ELEMENT_ERRORS[int(err[k])].format(k=k))

    def _build_edges(self, flat, starts, counts):
        """The edge table from every (element, local edge) incidence, with the
        conformity and gap/overlap checks on it."""
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

        two = mult == 2
        inc = np.stack([i0, i1], axis=1)  # the incidence of each side
        missing = ~two[:, None] & np.array([False, True])
        elem = np.where(missing, -1, owner[inc])
        ab = np.where(missing[..., None], -1, np.stack([a[inc], b[inc]], axis=-1))
        key = np.stack([lo[i0], hi[i0]], axis=1)
        for arr in (elem, ab, key):
            arr.setflags(write=False)
        self.edges = EdgeTable(key=key, elem=elem, ab=ab, code=code[i0], n_vertices=nv)

        # gap/overlap check: sum of element areas must match the area
        # enclosed by the boundary loops (Green's theorem on boundary edges,
        # summed in element order)
        bd = np.sort(i0[~two])
        va, vb = self.vertices[a[bd]], self.vertices[b[bd]]
        terms = 0.5 * (va[:, 0] * vb[:, 1] - vb[:, 0] * va[:, 1])
        boundary_area = float(np.cumsum(terms)[-1]) if len(terms) else 0.0
        total = float(self.areas.sum())
        if abs(total - boundary_area) > _AREA_RTOL * total:
            raise MeshError(
                f"element areas sum to {total:.15g} but the boundary encloses "
                f"{boundary_area:.15g}: mesh has gaps or overlaps"
            )

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
        t = self.edges
        fluid = self._fluid[t.elem]
        return self._edge_keys(t.interior & (fluid[:, 0] != fluid[:, 1]))

    def boundary_edges(self) -> set[tuple[int, int]]:
        return self._edge_keys(~self.edges.interior)


#: face kinds by the code :attr:`FaceSet.kind` stores: interior (elastic,
#: fluid), interface, boundary (elastic, fluid); each names an index set
KINDS = ("interior-el", "interior-f", "interface", "boundary-el", "boundary-f")


def harmonic_h(h_plus, h_minus=None):
    """Harmonic average of adjacent element diameters (floats or arrays of
    them); ``h_K`` on boundary faces."""
    if h_minus is None:
        return float(h_plus)
    return 2.0 * h_plus * h_minus / (h_plus + h_minus)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_NO_FACES = _readonly(np.zeros(0, dtype=int))


@dataclass(frozen=True, eq=False)
class FaceSet:
    """Every face of a mesh as read-only arrays, one row per edge in
    edge-table (sorted vertex key) order.

    Face ``i`` runs from vertex ``ab[i, 0]`` to ``ab[i, 1]`` along the loop of
    its plus element ``elem[i, 0]``, and ``normal[i]`` points out of that
    element; on interface faces it is the elastic one. ``elem[i, 1]`` is the
    minus element, -1 on boundary faces. ``kind[i]`` indexes :data:`KINDS`,
    ``label[i]`` is the boundary label (``None`` on interior faces), and
    ``dirichlet_map`` sends a label to its Dirichlet variables.

    The index sets are int arrays computed once: ``interior_el``,
    ``interior_f``, ``interface``, ``boundary_el`` and ``boundary_f`` in face
    order, and :meth:`dirichlet`, :meth:`sipg_faces` and :meth:`outlet`.
    """

    ab: np.ndarray  # (F, 2)
    elem: np.ndarray  # (F, 2)
    normal: np.ndarray  # (F, 2)
    harmonic_h: np.ndarray  # (F,)
    kind: np.ndarray  # (F,)
    label: np.ndarray  # (F,) object
    dirichlet_map: Mapping[str, frozenset]

    def __post_init__(self):
        for code, kind in enumerate(KINDS):
            object.__setattr__(self, kind.replace("-", "_"),
                               _readonly(np.flatnonzero(self.kind == code)))
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
        return len(self.kind)

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
    """Derive and classify all faces of a mesh, one per edge in edge-table
    (sorted vertex key) order.

    ``dirichlet_map`` sends a boundary label to the set of variables that are
    Dirichlet on edges carrying that label; variables not listed get the
    natural condition (zero flux for pressures, outlet stress for the fluid).
    Raises :class:`MeshError` on unlabeled boundary edges.
    """
    t = mesh.edges
    inner = t.interior
    rows = np.arange(len(t.code))
    fluid = mesh._fluid[t.elem]  # the missing side of a boundary edge is masked below
    # faces are oriented from side 0, interface faces from their elastic side
    side = (inner & fluid[:, 0] & ~fluid[:, 1]).astype(int)
    elem = np.stack([t.elem[rows, side], t.elem[rows, 1 - side]], axis=1)
    ab = t.ab[rows, side]
    fluid_p = fluid[rows, side].astype(int)
    kind = np.where(inner, np.where(fluid[:, 0] != fluid[:, 1], 2, fluid_p), 3 + fluid_p)

    tv = mesh.vertices[ab[:, 1]] - mesh.vertices[ab[:, 0]]
    normal = np.stack([tv[:, 1], -tv[:, 0]], axis=1) / np.hypot(tv[:, 0], tv[:, 1])[:, None]
    h = mesh.diameters[elem]
    harm = np.where(inner, harmonic_h(h[:, 0], h[:, 1]), h[:, 0])

    keys = list(map(tuple, t.key[~inner].tolist()))
    found = [mesh.boundary_labels.get(key) for key in keys]
    if None in found:
        raise MeshError(f"unlabeled boundary edge {keys[found.index(None)]}")
    label = np.full(len(rows), None, dtype=object)
    label[~inner] = found
    return FaceSet(ab=_readonly(ab), elem=_readonly(elem), normal=_readonly(normal),
                   harmonic_h=_readonly(harm), kind=_readonly(kind), label=_readonly(label),
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
    d = 2
    ratios = np.empty(mesh.n_elements)
    for elems, loops in mesh.groups:
        pts = mesh.vertices[loops]
        edge = np.roll(pts, -1, axis=1) - pts
        lengths = np.hypot(edge[..., 0], edge[..., 1])
        r = d * _fan_areas(pts) / (lengths * mesh.diameters[elems, None])
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
        labels = {tuple(b["edge"]): b["label"] for b in doc.get("boundary", [])}
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
