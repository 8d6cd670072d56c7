"""Agglomeration of fine triangular meshes into coarse polygonal meshes.

Fine elements are clustered per subdomain (never across the interface) by a
seeded Lloyd iteration on element centroids, followed by a repair phase that
(a) splits disconnected clusters and merges the smallest ones until the
per-domain target counts hold exactly, and (b) reshapes cluster outlines by
moving single fine triangles across cluster boundaries until every coarse
polygon is star-shaped with respect to its centroid, as the fan
sub-triangulation used for quadrature requires. The repair is incremental
(only clusters touched by a move are re-examined) and deterministic for a
fixed seed.

Coarse element boundaries keep every fine vertex along straight runs, so
shared runs match segment-by-segment between neighbors (hanging-node
friendly) and the coarse interface is geometrically identical to the fine
one.

Everything read from the fine mesh's edges comes from its edge table
(:class:`~polympe.mesh.EdgeTable`): the face adjacency of the fine
elements (its interior rows), the two sides of an outline edge during the
repair (a ``searchsorted`` lookup on the edge key), and the boundary labels
the coarse mesh inherits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ELASTIC, FLUID, MeshError, PolyMesh


#: repair moves per attempt and coarse element (counting at least 10 elements)
MAX_REPAIR_ITERATIONS = 80
LLOYD_ITERATIONS = 60  # per clustering initialization
ATTEMPTS = 10  # seeded initializations per domain


@dataclass
class AgglomerationConfig:
    """Targets are coarse element counts per domain; the seed fixes the
    clustering initialization and every repair decision, making the pipeline
    deterministic. A failed attempt restarts from a fresh, still seeded,
    initialization, up to :data:`ATTEMPTS` times."""

    target_elastic: int
    target_fluid: int
    seed: int = 0

    def target(self, domain: str) -> int:
        return self.target_elastic if domain == ELASTIC else self.target_fluid


def _lloyd(points: np.ndarray, k: int, rng, iterations: int) -> np.ndarray:
    """Plain Lloyd k-means; deterministic for a fixed generator state."""
    n = len(points)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    sq = (points ** 2).sum(axis=1)
    for _ in range(iterations):
        d2 = sq[:, None] - 2.0 * (points @ centers.T) + (centers ** 2).sum(axis=1)[None, :]
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=points[:, i], minlength=k) for i in (0, 1)],
                        axis=1)
        full = counts > 0
        centers[full] = sums[full] / counts[full, None]
        # re-seed empty clusters on the farthest point
        centers[~full] = points[d2.min(axis=1).argmax()]
    return labels


def _components(members, adj):
    members = set(members)
    comps = []
    while members:
        seed = members.pop()
        comp, stack = {seed}, [seed]
        while stack:
            for nb in adj[stack.pop()]:
                if nb in members:
                    members.discard(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def _adjacency(mesh: PolyMesh, ids) -> dict:
    """Face neighbours of each element of ``ids`` among ``ids``, read from
    the interior rows of the edge table."""
    ids = np.asarray(ids)
    inside = np.zeros(mesh.n_elements, dtype=bool)
    inside[ids] = True
    pairs = mesh.edges.elem[mesh.edges.interior]
    pairs = pairs[inside[pairs].all(axis=1)]
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])[order].tolist()
    lo = np.searchsorted(src, ids, side="left").tolist()
    hi = np.searchsorted(src, ids, side="right").tolist()
    return {g: set(dst[a:b]) for g, a, b in zip(ids.tolist(), lo, hi)}


def _boundary_loop(mesh: PolyMesh, elems) -> list:
    """Oriented outer vertex loop of a union of fine elements, retaining
    every fine vertex on the boundary. Raises for unions whose boundary is
    not a single simple loop (holes, pinched vertices, splits)."""
    seen = {}
    for k in elems:
        el = mesh.elements[k]
        for i in range(len(el)):
            a, b = int(el[i]), int(el[(i + 1) % len(el)])
            if (b, a) in seen:
                del seen[(b, a)]
            else:
                seen[(a, b)] = True
    succ = {}
    for a, b in seen:
        if a in succ:
            raise MeshError("cluster boundary is not a single loop")
        succ[a] = b
    if not succ:
        raise MeshError("empty cluster")
    start = min(succ)
    loop, cur = [start], succ[start]
    while cur != start:
        loop.append(cur)
        cur = succ[cur]
        if len(loop) > len(succ):
            raise MeshError("cluster boundary has multiple loops")
    if len(loop) != len(succ):
        raise MeshError("cluster boundary has multiple loops (hole or split)")
    return loop


#: fan triangles at or below this fraction of the cluster area count as
#: star-shapedness violations during repair (stricter than the mesh loader)
_STAR_RTOL = 1e-10


class _Partition:
    """Mutable cluster partition of one subdomain's fine elements, with
    incremental star-shapedness bookkeeping. Elements are indexed by their
    global fine-mesh ids."""

    def __init__(self, mesh: PolyMesh, ids: np.ndarray, rng):
        self.mesh = mesh
        self.ids = ids.tolist()
        self.rng = rng
        self.pts = mesh.centroids[ids]
        self.local = {g: i for i, g in enumerate(self.ids)}
        self.adj = _adjacency(mesh, ids)
        self.clusters: dict[int, set] = {}
        self.owner: dict[int, int] = {}
        self._next = 0
        self._dirty: set[int] = set()

    # -- structural edits ------------------------------------------------

    def add_cluster(self, elems) -> int:
        cid = self._next
        self._next += 1
        self.clusters[cid] = set(elems)
        for e in elems:
            self.owner[e] = cid
        self._dirty.add(cid)
        return cid

    def drop_cluster(self, cid) -> set:
        elems = self.clusters.pop(cid)
        self._dirty.discard(cid)
        return elems

    def move(self, elem: int, dest: int):
        src = self.owner[elem]
        self.clusters[src].discard(elem)
        self.clusters[dest].add(elem)
        self.owner[elem] = dest
        self._dirty.update((src, dest))
        if not self.clusters[src]:
            self.drop_cluster(src)
        else:
            comps = _components(self.clusters[src], self.adj)
            if len(comps) > 1:
                # keep the largest piece under the old id, split the rest off
                comps.sort(key=len)
                self.clusters[src] = set(comps[-1])
                for comp in comps[:-1]:
                    cid = self.add_cluster(comp)
                    for e in comp:
                        self.owner[e] = cid

    def merge_into_neighbor(self, cid: int):
        elems = self.clusters[cid]
        touching = {}
        for e in elems:
            for nb in self.adj[e]:
                o = self.owner[nb]
                if o != cid:
                    touching[o] = touching.get(o, 0) + 1
        if not touching:
            raise MeshError("isolated cluster cannot be merged")
        best = max(sorted(touching), key=lambda c: touching[c])
        self.drop_cluster(cid)
        self.clusters[best].update(elems)
        for e in elems:
            self.owner[e] = best
        self._dirty.add(best)

    def split_largest(self):
        cid = max(self.clusters, key=lambda c: len(self.clusters[c]))
        elems = sorted(self.drop_cluster(cid))
        loc = np.array([self.local[e] for e in elems])
        sub = _lloyd(self.pts[loc], 2, self.rng, 30)
        for c in (0, 1):
            part = [elems[i] for i in np.nonzero(sub == c)[0]]
            for comp in _components(part, self.adj):
                self.add_cluster(comp)

    def fix_count(self, k: int, budget: int):
        for _ in range(budget):
            if len(self.clusters) == k:
                return
            if len(self.clusters) < k:
                self.split_largest()
            else:
                smallest = min(sorted(self.clusters), key=lambda c: len(self.clusters[c]))
                self.merge_into_neighbor(smallest)
        raise MeshError(f"could not reach target {k} within the repair budget")

    # -- star-shapedness repair -------------------------------------------

    def _violation_moves(self, cid) -> list:
        """(elem, dest) moves addressing non-positive fan triangles of one
        cluster's outline; empty iff the cluster is star-shaped."""
        elems = self.clusters[cid]

        def edge_moves(a, b):
            out = []
            t = self.mesh.edges
            r = t.find(a, b)
            tri = twin = None
            # the missing side (-1) of a boundary edge is in no cluster
            for elem, (ea, eb) in zip(t.elem[r].tolist(), t.ab[r].tolist()):
                if self.owner.get(elem) == cid and (ea, eb) == (a, b):
                    tri = elem
                elif elem in self.owner and self.owner[elem] != cid:
                    twin = elem
            if tri is None or twin is None:
                return out
            if len(elems) > 1:
                out.append((tri, self.owner[twin]))
            if len(self.clusters[self.owner[twin]]) > 1:
                out.append((twin, cid))
            return out

        moves, n_viol = [], 0
        try:
            loop = _boundary_loop(self.mesh, elems)
        except MeshError:
            for e in elems:
                el = self.mesh.elements[e]
                for i in range(3):
                    moves.extend(edge_moves(int(el[i]), int(el[(i + 1) % 3])))
            if not moves:
                raise
            return moves
        pts = self.mesh.vertices[loop]
        p = pts - pts.mean(axis=0)
        q = np.roll(p, -1, axis=0)
        area2 = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
        total = area2.sum()
        for i in np.nonzero(area2 <= _STAR_RTOL * total)[0]:
            n_viol += 1
            moves.extend(edge_moves(loop[i], loop[(i + 1) % len(loop)]))
        if n_viol and not moves:
            raise MeshError("star-shapedness violation without a movable edge")
        return moves

    def repair_star_shape(self, k: int, budget: int):
        violating: dict[int, list] = {}
        self._dirty = set(self.clusters)
        stubborn: dict[int, int] = {}
        for _ in range(budget):
            for cid in self._dirty:
                if cid in self.clusters:
                    mv = self._violation_moves(cid)
                    if mv:
                        violating[cid] = mv
                    else:
                        violating.pop(cid, None)
            for cid in list(violating):
                if cid not in self.clusters:
                    del violating[cid]
            self._dirty = set()
            if not violating:
                self.fix_count(k, budget)
                if not self._dirty:
                    return
                continue
            order = sorted(violating)
            cid = order[self.rng.integers(len(order))]
            stubborn[cid] = stubborn.get(cid, 0) + 1
            if stubborn[cid] > 25:
                # a cluster that keeps violating is dissolved outright
                self.merge_into_neighbor(cid)
                self.fix_count(k, budget)
                stubborn.pop(cid)
                violating.pop(cid, None)
                continue
            moves = violating.pop(cid)
            elem, dest = moves[self.rng.integers(len(moves))]
            if dest not in self.clusters:
                # the cached move names a cluster dropped since it was found
                self._dirty.add(cid)
                continue
            self.move(elem, dest)
            self.fix_count(k, budget)
        raise MeshError("star-shapedness repair budget exhausted")


def _partition_domain(mesh: PolyMesh, ids: np.ndarray, k: int, rng) -> list:
    """Clusters of fine element ids, exactly ``k`` of them, each
    face-connected and star-shaped with respect to its centroid."""
    if not 1 <= k <= len(ids):
        raise MeshError(f"target {k} outside [1, {len(ids)}]")
    budget = MAX_REPAIR_ITERATIONS * max(k, 10)
    last_error = None
    for _ in range(ATTEMPTS):
        part = _Partition(mesh, ids, rng)
        labels = _lloyd(part.pts, k, rng, LLOYD_ITERATIONS)
        for c in range(k):
            members = [part.ids[i] for i in np.nonzero(labels == c)[0]]
            for comp in _components(members, part.adj):
                part.add_cluster(comp)
        try:
            part.fix_count(k, budget)
            part.repair_star_shape(k, budget)
            return [sorted(cl) for _, cl in sorted(part.clusters.items())]
        except MeshError as exc:
            last_error = exc
    raise MeshError(f"agglomeration failed after {ATTEMPTS} attempts: {last_error}")


def agglomerate(fine: PolyMesh, cfg: AgglomerationConfig, assignment=None) -> PolyMesh:
    """Coarsen a fine triangulation into target polygon counts per domain.

    The two subdomains are clustered separately so no coarse element crosses
    the interface; boundary labels are inherited edge-by-edge. The result is
    a valid :class:`PolyMesh` (in particular, usable with the fan-based
    quadrature). ``assignment`` is the clustering to coarsen, as
    :func:`partition_assignment` gives it for ``cfg``; it is computed when
    not given.
    """
    if assignment is None:
        assignment = partition_assignment(fine, cfg)
    elements = [_boundary_loop(fine, cl) for cl in assignment]
    domains = [fine.element_domain[cl[0]] for cl in assignment]
    # coarse edges are fine edges; those on the fine boundary keep its labels
    t = fine.edges
    rows = t.find(np.concatenate(elements), np.concatenate([e[1:] + e[:1] for e in elements]))
    rows = rows[~t.interior[rows]]
    labels = {key: fine.boundary_labels[key] for key in map(tuple, t.key[rows].tolist())}
    return PolyMesh(fine.vertices, elements, domains, labels)


@dataclass
class PartitionReport:
    domain_pure: bool
    connected: bool
    covers_all: bool
    area_error: float
    component_counts: list

    @property
    def valid(self) -> bool:
        return self.domain_pure and self.connected and self.covers_all \
            and self.area_error < 1e-10


def validate_partition(fine: PolyMesh, assignment) -> PartitionReport:
    """Check a fine-to-coarse assignment (list of fine-element-id clusters)
    for coverage, domain purity, per-cluster connectivity, and area
    conservation."""
    all_ids = sorted(i for cl in assignment for i in cl)
    covers = all_ids == list(range(fine.n_elements))
    pure = all(len({fine.element_domain[i] for i in cl}) == 1 for cl in assignment)

    adj = _adjacency(fine, np.arange(fine.n_elements))
    counts = [len(_components(list(cl), adj)) for cl in assignment]
    connected = all(c == 1 for c in counts)

    fine_total = fine.areas.sum()
    coarse_total = sum(fine.areas[list(cl)].sum() for cl in assignment)
    area_err = abs(fine_total - coarse_total) / fine_total
    return PartitionReport(domain_pure=pure, connected=connected, covers_all=covers,
                           area_error=float(area_err), component_counts=counts)


def partition_assignment(fine: PolyMesh, cfg: AgglomerationConfig) -> list:
    """The fine-to-coarse assignment: clusters of fine element ids, elastic
    then fluid, that :func:`agglomerate` coarsens. Deterministic for a fixed
    ``cfg.seed``."""
    if any(loops.shape[1] != 3 for _, loops in fine.groups):
        raise MeshError("agglomeration expects a triangle-only fine mesh")
    rng = np.random.default_rng(cfg.seed)
    out = []
    for domain in (ELASTIC, FLUID):
        ids = fine.element_ids(domain)
        if len(ids) == 0:
            if cfg.target(domain) > 0:
                raise MeshError(f"no fine elements in the {domain} domain")
            continue
        out.extend(_partition_domain(fine, ids, cfg.target(domain), rng))
    return out
