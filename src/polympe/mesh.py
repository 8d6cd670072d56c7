"""Two-subdomain polygonal meshes with per-variable face classification.

A mesh covers an elastic (poroelastic tissue) and a fluid (CSF) subdomain.
Faces separating elements of different subdomains form the interface set;
boundary faces carry string labels that a Dirichlet map resolves into
per-variable boundary conditions ("d", "u", "p:<compartment>").

A mesh keeps its elements in groups of equal vertex count, one ``(G, n)``
index array per group, so its geometry and its validation are one array
reduction per group. Its edges form one :class:`EdgeTable`, lexsorted by
vertex key, with the element and the oriented vertex pair of each side:
faces, the interface and boundary edge sets, the quality report and the
agglomeration adjacency are all read from that table.

Meshes and face sets are immutable after construction and safe to share
between concurrent assembly workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class Face:
    """A straight mesh face with geometry and per-variable classification.

    ``elem_plus`` owns the stored orientation: ``normal`` points out of it.
    On interface faces ``elem_plus`` is always the elastic element, so
    ``normal`` is the elastic outward normal and the fluid one is its
    negative. ``elem_minus`` is ``None`` on boundary faces.
    """

    v0: int
    v1: int
    elem_plus: int
    elem_minus: int | None
    normal: np.ndarray
    measure: float
    h_plus: float
    h_minus: float | None
    harmonic_h: float
    kind: str  # interior-el | interior-f | interface | boundary-el | boundary-f
    domain: str  # domain of elem_plus
    label: str | None = None
    dirichlet_vars: frozenset[str] = frozenset()

    def classification(self, variables: Iterable[str] = ()) -> set[str]:
        """Classification tags, one per requested variable on boundary faces."""
        if self.kind in ("interior-el", "interior-f", "interface"):
            return {self.kind}
        tags = set()
        for var in variables:
            if var in self.dirichlet_vars:
                pretty = {"d": "dirichlet-d", "u": "dirichlet-u"}.get(var)
                tags.add(pretty or f"dirichlet-p({var.split(':', 1)[1]})")
            elif var == "u":
                tags.add("neumann-out")
            elif var.startswith("p:"):
                tags.add(f"neumann-p({var.split(':', 1)[1]})")
            else:
                tags.add(f"neumann-{var}")
        return tags


def harmonic_h(h_plus, h_minus=None):
    """Harmonic average of adjacent element diameters (floats or arrays of
    them); ``h_K`` on boundary faces."""
    if h_minus is None:
        return float(h_plus)
    return 2.0 * h_plus * h_minus / (h_plus + h_minus)


class FaceSet:
    """All faces of a mesh, indexed by category and per-variable Dirichlet sets."""

    def __init__(self, faces: Sequence[Face]):
        self.faces = list(faces)
        self.interior_el = [i for i, f in enumerate(faces) if f.kind == "interior-el"]
        self.interior_f = [i for i, f in enumerate(faces) if f.kind == "interior-f"]
        self.interface = [i for i, f in enumerate(faces) if f.kind == "interface"]
        self.boundary_el = [i for i, f in enumerate(faces) if f.kind == "boundary-el"]
        self.boundary_f = [i for i, f in enumerate(faces) if f.kind == "boundary-f"]

    def __len__(self):
        return len(self.faces)

    def dirichlet(self, var: str) -> list[int]:
        """Boundary faces where ``var`` carries a Dirichlet condition."""
        pool = self.boundary_f if var == "u" else self.boundary_el
        return [i for i in pool if var in self.faces[i].dirichlet_vars]

    def sipg_faces(self, var: str) -> list[int]:
        """Interior plus Dirichlet faces entering the SIPG form of ``var``."""
        interior = self.interior_f if var == "u" else self.interior_el
        return interior + self.dirichlet(var)

    def outlet(self) -> list[int]:
        """Fluid boundary faces with the natural (outlet stress) condition."""
        return [i for i in self.boundary_f if "u" not in self.faces[i].dirichlet_vars]


#: face kinds by code: interior (elastic, fluid), interface, boundary (elastic, fluid)
_KINDS = ("interior-el", "interior-f", "interface", "boundary-el", "boundary-f")


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
    kp, km = t.elem[rows, side], t.elem[rows, 1 - side]
    a, b = t.ab[rows, side, 0], t.ab[rows, side, 1]
    fluid_p = fluid[rows, side].astype(int)
    kind = np.where(inner, np.where(fluid[:, 0] != fluid[:, 1], 2, fluid_p), 3 + fluid_p)

    tv = mesh.vertices[b] - mesh.vertices[a]
    measure = np.hypot(tv[:, 0], tv[:, 1])
    normal = np.stack([tv[:, 1], -tv[:, 0]], axis=1) / measure[:, None]
    normal.setflags(write=False)
    h_plus, h_minus = mesh.diameters[kp], mesh.diameters[km]
    harm = np.where(inner, harmonic_h(h_plus, h_minus), h_plus)

    keys = list(map(tuple, t.key[~inner].tolist()))
    found = [mesh.boundary_labels.get(key) for key in keys]
    if None in found:
        raise MeshError(f"unlabeled boundary edge {keys[found.index(None)]}")
    label = np.full(len(rows), None, dtype=object)
    label[~inner] = found
    dir_vars = {lab: frozenset(dirichlet_map.get(lab, ())) for lab in set(found)}
    dir_vars[None] = frozenset()

    faces = [
        Face(v0=v0, v1=v1, elem_plus=p, elem_minus=m if m >= 0 else None, normal=nrm,
             measure=ms, h_plus=hp, h_minus=hm if m >= 0 else None, harmonic_h=hh,
             kind=_KINDS[c], domain=FLUID if fl else ELASTIC,
             label=lab, dirichlet_vars=dir_vars[lab])
        for v0, v1, p, m, nrm, ms, hp, hm, hh, c, fl, lab in zip(
            a.tolist(), b.tolist(), kp.tolist(), km.tolist(), normal, measure.tolist(),
            h_plus.tolist(), h_minus.tolist(), harm.tolist(), kind.tolist(),
            fluid_p.tolist(), label.tolist())
    ]
    return FaceSet(faces)


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
