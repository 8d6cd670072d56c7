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

Both phases skip work without changing a decision. Lloyd finds each point's
two nearest centres in a k-d tree of the centres, keeps one margin per point
from Hamerly's bounds (*Making k-means even faster*, SDM 2010) and queries
again only the points whose nearest centre that margin leaves in doubt; a
point whose two nearest centres are nearly tied takes its label from the
dense distances, so no label changes (:func:`_lloyd`). The repair
keeps each cluster's directed boundary edges (:class:`_Boundary`) and
updates them on every move, so that checking an outline walks it and reads
nothing else.

Coarse element boundaries keep every fine vertex along straight runs, so
shared runs match segment-by-segment between neighbors (hanging-node
friendly) and the coarse interface is geometrically identical to the fine
one.

Everything read from the fine mesh's edges comes from its edge table
(:class:`~polympe.mesh.EdgeTable`): the face adjacency of the fine
elements (its interior rows), the element across each edge of each fine
triangle (one lookup for all of them, from which every cluster outline is
read), and the boundary labels the coarse mesh inherits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

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


def _sq_distances(points: np.ndarray, sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances, point by centre, as the dense Lloyd iteration
    rounds them: ``sq - 2 p.c + |c|^2`` with one matrix product (``sq``
    holds the points' squared norms). The product is taken with ``2 c``,
    which doubles every rounded term exactly."""
    d2 = points @ (2.0 * centers).T
    np.subtract(sq[:, None], d2, out=d2)
    d2 += (centers ** 2).sum(axis=1)[None, :]
    return d2


def _reseed(points: np.ndarray, sq: np.ndarray, centers: np.ndarray, empty: np.ndarray):
    """Put the centre of each ``empty`` cluster, in index order, on the point
    farthest from every centre placed so far: the others, then the reseeded
    ones before it."""
    near = _sq_distances(points, sq, centers[~empty]).min(axis=1)
    for j in np.flatnonzero(empty):
        centers[j] = points[near.argmax()]
        np.minimum(near, _sq_distances(points, sq, centers[j:j + 1])[:, 0], out=near)


def _lloyd(points: np.ndarray, k: int, rng, iterations: int) -> np.ndarray:
    """Lloyd k-means; deterministic for a fixed generator state.

    The labels are those of the dense iteration, which assigns every point to
    the first centre of least :func:`_sq_distances` and stops when no label
    changes. Each pass asks a k-d tree of the centres (Bentley, CACM 1975)
    for the two nearest centres of the points in doubt, exactly and point by
    point. Hamerly's margin (SDM 2010) ``gap``, the second distance less the
    first less ``2 slack``, shrinks at each centre update by the point's own
    centre shift, the largest other shift and ``2 slack``; while it stays
    positive the point keeps its label and is not queried.

    With ``slack = 2**-20 max |p|``, two nearest centres more than ``slack**2``
    apart in squared distance are far above the dense rounding (about
    ``20 * 2**-53 * max |p|^2``), so the tree's nearest is the dense one. A
    tie within ``slack**2`` takes its label from :func:`_sq_distances` of all
    points instead, and is queried again at the next pass."""
    n = len(points)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    sq = (points ** 2).sum(axis=1)
    slack = 2.0 ** -20 * np.sqrt(sq.max())
    labels = np.zeros(n, dtype=int)
    gap = np.empty(n)
    rows = np.arange(n)
    for _ in range(iterations):
        if len(rows) == 0:
            break
        dist, nearest = cKDTree(centers).query(points[rows], k=2)
        first, second, near = dist[:, 0], dist[:, 1], nearest[:, 0]
        tie = second ** 2 - first ** 2 <= slack ** 2
        if tie.any():
            near[tie] = _sq_distances(points, sq, centers)[rows[tie]].argmin(axis=1)
            second[tie] = first[tie]
        gap[rows] = second - first - 2.0 * slack
        if np.array_equal(near, labels[rows]):
            break
        labels[rows] = near
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=points[:, i], minlength=k) for i in (0, 1)],
                        axis=1)
        full = counts > 0
        old = centers.copy()
        centers[full] = sums[full] / counts[full, None]
        if not full.all():
            _reseed(points, sq, centers, ~full)
        shift = np.sqrt(((centers - old) ** 2).sum(axis=1))
        # every other centre moved by at most the largest shift but the own
        far = shift.argmax()
        gap -= shift[labels] + np.where(labels == far, np.delete(shift, far).max(initial=0.0),
                                        shift[far]) + 2.0 * slack
        rows = np.flatnonzero(gap <= 0.0)
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
    """Face neighbours of each element of ``ids`` among ``ids``, as a list,
    read from the interior rows of the edge table."""
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
    return {g: dst[a:b] for g, a, b in zip(ids.tolist(), lo, hi)}


class _Outlines:
    """The directed edges ``a[k, i] -> b[k, i]`` of every fine triangle
    ``k`` and the element ``nb[k, i]`` across each (-1 on the mesh
    boundary), read once from the edge table.

    A cluster is the set of triangles that an owner array (:meth:`owners`)
    maps to its id; its outline is the triangles' edges whose neighbour has
    another owner."""

    def __init__(self, mesh: PolyMesh):
        if any(loops.shape[1] != 3 for _, loops in mesh.groups):
            raise MeshError("agglomeration expects a triangle-only fine mesh")
        self.a = np.empty((mesh.n_elements, 3), dtype=int)
        for elems, loops in mesh.groups:
            self.a[elems] = loops
        self.b = np.roll(self.a, -1, axis=1)
        side = mesh.edges.elem[mesh.edges.find(self.a, self.b)]
        mine = side[..., 0] == np.arange(mesh.n_elements)[:, None]
        self.nb = np.where(mine, side[..., 1], side[..., 0])

    def owners(self) -> np.ndarray:
        """An owner array with no element in any cluster (-1). It has one
        slot more than there are elements, which stays -1, so that the
        missing side -1 of a boundary edge reads as no cluster."""
        return np.full(len(self.a) + 1, -1)

    def boundaries(self, elems, owner: np.ndarray) -> dict:
        """The :class:`_Boundary` of each cluster that ``owner`` maps the
        triangles ``elems`` to, all of whose triangles ``elems`` holds."""
        e = np.fromiter(elems, dtype=int, count=len(elems))
        side = owner[e]
        rows, cols = np.nonzero(owner[self.nb[e]] != side[:, None])
        inner = e[rows]
        out = {}
        for cid, a, b, tri, twin in zip(side[rows].tolist(), self.a[inner, cols].tolist(),
                                        self.b[inner, cols].tolist(), inner.tolist(),
                                        self.nb[inner, cols].tolist()):
            if cid not in out:
                out[cid] = _Boundary()
            out[cid].add(a, b, tri, twin)
        return out


class _Boundary:
    """The directed boundary edges of one cluster, by start vertex: the end
    vertex (``nxt``), the triangle inside (``inner``) and the element across
    (``across``, -1 for none). A second edge from one start vertex is a
    pinch; it waits in ``pinched`` as (start, end, inside, across)."""

    __slots__ = ("nxt", "inner", "across", "pinched")

    def __init__(self):
        self.nxt, self.inner, self.across = {}, {}, {}
        self.pinched = []

    def add(self, a: int, b: int, inner: int, across: int):
        if a in self.nxt:
            self.pinched.append((a, b, inner, across))
        else:
            self.nxt[a], self.inner[a], self.across[a] = b, inner, across

    def remove(self, a: int, b: int):
        if self.nxt[a] != b:
            self.pinched.remove(next(e for e in self.pinched if e[:2] == (a, b)))
            return
        for i, edge in enumerate(self.pinched):
            if edge[0] == a:
                del self.pinched[i]
                self.nxt[a], self.inner[a], self.across[a] = edge[1:]
                return
        del self.nxt[a], self.inner[a], self.across[a]

    def loop(self) -> list:
        """Oriented outer vertex loop from the least vertex, retaining every
        fine vertex on the boundary. Raises for clusters whose boundary is
        not a single simple loop (holes, pinched vertices, splits)."""
        if self.pinched:
            raise MeshError("cluster boundary is not a single loop")
        nxt = self.nxt
        if not nxt:
            raise MeshError("empty cluster")
        start = cur = min(nxt)
        loop = []
        for _ in range(len(nxt)):
            loop.append(cur)
            cur = nxt[cur]
            if cur == start:
                break
        if cur != start or len(loop) != len(nxt):
            raise MeshError("cluster boundary has multiple loops (hole or split)")
        return loop


#: fan triangles at or below this fraction of the cluster area count as
#: star-shapedness violations during repair (stricter than the mesh loader)
_STAR_RTOL = 1e-10


class _Partition:
    """Mutable cluster partition of one subdomain's fine elements, with
    incremental star-shapedness bookkeeping. Elements are indexed by their
    global fine-mesh ids.

    ``boundary`` keeps the :class:`_Boundary` of the clusters whose outline
    has been read: :meth:`move` updates the two it changes edge by edge, and
    every other edit drops the ones it changes, to be read again."""

    def __init__(self, mesh: PolyMesh, outlines: _Outlines, ids: np.ndarray, rng):
        self.mesh = mesh
        self.outlines = outlines
        self.ids = ids.tolist()
        self.rng = rng
        self.pts = mesh.centroids[ids]
        self.local = {g: i for i, g in enumerate(self.ids)}
        self.adj = _adjacency(mesh, ids)
        self.clusters: dict[int, set] = {}
        self.owner = outlines.owners()
        self.boundary: dict[int, _Boundary] = {}
        self._next = 0
        self._dirty: set[int] = set()

    # -- structural edits ------------------------------------------------

    def add_cluster(self, elems) -> int:
        cid = self._next
        self._next += 1
        self.clusters[cid] = set(elems)
        self.owner[list(elems)] = cid
        self._dirty.add(cid)
        return cid

    def drop_cluster(self, cid) -> set:
        elems = self.clusters.pop(cid)
        self.boundary.pop(cid, None)
        self._dirty.discard(cid)
        return elems

    def move(self, elem: int, dest: int):
        src = int(self.owner[elem])
        old, new = self.boundary.get(src), self.boundary.get(dest)
        t = self.outlines
        for a, b, nb in zip(t.a[elem].tolist(), t.b[elem].tolist(), t.nb[elem].tolist()):
            # the edge a -> b of ``elem`` leaves the boundary of ``src`` and
            # joins that of ``dest``, unless ``nb`` is on the same side: then
            # the reverse edge b -> a of ``nb`` joins or leaves it instead
            side = self.owner[nb]
            if old is not None:
                if side == src:
                    old.add(b, a, nb, elem)
                else:
                    old.remove(a, b)
            if new is not None:
                if side == dest:
                    new.remove(b, a)
                else:
                    new.add(a, b, elem, nb)
        self.clusters[src].discard(elem)
        self.clusters[dest].add(elem)
        self.owner[elem] = dest
        self._dirty.update((src, dest))
        if not self.clusters[src]:
            self.drop_cluster(src)
        elif sum(nb in self.clusters[src] for nb in self.adj[elem]) != 1:
            # every cluster is connected before a move, so a triangle with
            # exactly one source-side neighbour cannot disconnect its source
            comps = _components(self.clusters[src], self.adj)
            if len(comps) > 1:
                # keep the largest piece under the old id, split the rest off
                comps.sort(key=len)
                self.clusters[src] = set(comps[-1])
                self.boundary.pop(src, None)
                for comp in comps[:-1]:
                    self.add_cluster(comp)

    def merge_into_neighbor(self, cid: int):
        elems = self.clusters[cid]
        touching = {}
        for e in elems:
            for nb in self.adj[e]:
                o = int(self.owner[nb])
                if o != cid:
                    touching[o] = touching.get(o, 0) + 1
        if not touching:
            raise MeshError("isolated cluster cannot be merged")
        best = max(sorted(touching), key=lambda c: touching[c])
        self.drop_cluster(cid)
        self.boundary.pop(best, None)
        self.clusters[best].update(elems)
        self.owner[list(elems)] = best
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

        def edge_moves(tri, twin):
            # no move to the cluster itself or to no cluster (owner -1): the
            # missing side (-1) of a boundary edge or the other subdomain
            dest = int(self.owner[twin])
            if dest < 0 or dest == cid:
                return []
            out = []
            if len(elems) > 1:
                out.append((tri, dest))
            if len(self.clusters[dest]) > 1:
                out.append((twin, cid))
            return out

        if cid not in self.boundary:
            self.boundary.update(self.outlines.boundaries(elems, self.owner))
        bd = self.boundary[cid]
        try:
            loop = bd.loop()
        except MeshError:
            moves = []
            members = list(elems)
            for e, row in zip(members, self.outlines.nb[members].tolist()):
                for twin in row:
                    moves.extend(edge_moves(e, twin))
            if not moves:
                raise
            return moves
        pts = self.mesh.vertices.take(loop, axis=0)
        p = pts - pts.mean(axis=0)
        q = np.concatenate((p[1:], p[:1]))
        area2 = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
        moves = []
        violations = (area2 <= _STAR_RTOL * area2.sum()).nonzero()[0].tolist()
        for v in (loop[i] for i in violations):
            moves.extend(edge_moves(bd.inner[v], bd.across[v]))
        if violations and not moves:
            raise MeshError("star-shapedness violation without a movable edge")
        return moves

    def repair_star_shape(self, k: int, budget: int):
        violating: dict[int, list] = {}
        self._dirty = set(self.clusters)
        self.boundary.update(self.outlines.boundaries(
            [e for cid, elems in self.clusters.items() if cid not in self.boundary for e in elems],
            self.owner))
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


def _partition_domain(mesh: PolyMesh, outlines: _Outlines, ids: np.ndarray, k: int,
                      rng) -> list:
    """Clusters of fine element ids, exactly ``k`` of them, each
    face-connected and star-shaped with respect to its centroid."""
    if not 1 <= k <= len(ids):
        raise MeshError(f"target {k} outside [1, {len(ids)}]")
    budget = MAX_REPAIR_ITERATIONS * max(k, 10)
    last_error = None
    for _ in range(ATTEMPTS):
        part = _Partition(mesh, outlines, ids, rng)
        labels = _lloyd(part.pts, k, rng, LLOYD_ITERATIONS)
        by_label = ids[np.argsort(labels, kind="stable")]
        for members in np.split(by_label, np.cumsum(np.bincount(labels, minlength=k))[:-1]):
            for comp in _components(members.tolist(), part.adj):
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
    :func:`partition_assignment` gives it for ``cfg``: disjoint clusters of
    the triangles of ``fine``. It is computed when not given.
    """
    if assignment is None:
        assignment = partition_assignment(fine, cfg)
    outlines = _Outlines(fine)
    owner = outlines.owners()
    for cid, cl in enumerate(assignment):
        owner[cl] = cid
    bounds = outlines.boundaries([e for cl in assignment for e in cl], owner)
    elements = [bounds.get(cid, _Boundary()).loop() for cid in range(len(assignment))]
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
    outlines = _Outlines(fine)
    rng = np.random.default_rng(cfg.seed)
    out = []
    for domain in (ELASTIC, FLUID):
        ids = fine.element_ids(domain)
        if len(ids) == 0:
            if cfg.target(domain) > 0:
                raise MeshError(f"no fine elements in the {domain} domain")
            continue
        out.extend(_partition_domain(fine, outlines, ids, cfg.target(domain), rng))
    return out
