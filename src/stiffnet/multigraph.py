"""The gap multigraph of a sphere configuration, and shorts of it.

Nodes are the connected components of the configuration; an edge joins two
distinct components for every pair of their spheres whose surface gap ``d``
is at most the threshold ``delta``.  Parallel edges are kept (several gaps
may join the same pair of components).  The edge weight is ``mu = |ln d|``;
requiring ``delta < 1`` keeps all weights positive.

A *short* merges chosen node groups into single nodes, suppressing the
edges that become internal; ``short_kappa`` shorts exactly the gaps
narrower than ``kappa`` that are not in a protected edge set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import (
    ComponentSet,
    SphereConfig,
    _connected_labels,
    _pairs_within,
    _pairwise_extent,
)

__all__ = [
    "Node",
    "Edge",
    "InclusionGraph",
    "ClusterPartition",
    "closest_points",
    "build_graph",
    "clusters",
    "short_at",
    "short_kappa",
    "is_cycle_free",
]

_CONTACT_ATOL = 1e-9


@dataclass
class Node:
    """A graph node: one component with its volume, centroid and diameter.

    ``sphere_ids``/``sphere_centers``/``sphere_radii`` carry the underlying
    ball geometry when the graph was built from a configuration; they are
    not serialized.  Deserialized graphs have them set to None, and the
    operations that need exact ball geometry fall back to conservative
    bounds (see ``short_at``) or refuse to run (``boundary_nodes``).
    """

    id: int
    volume: float
    centroid: np.ndarray
    diameter: float
    boundary: bool
    component_index: int | None = None
    sphere_ids: tuple[int, ...] | None = None
    sphere_centers: np.ndarray | None = None
    sphere_radii: np.ndarray | None = None


@dataclass
class Edge:
    """A gap between two nodes: contact points, width ``d``, weight ``mu``."""

    id: int
    a: int
    b: int
    xa: np.ndarray
    xb: np.ndarray
    d: float
    mu: float


@dataclass
class InclusionGraph:
    """The gap multigraph: nodes, multi-edges, threshold and box size.

    Treated as immutable after construction; every operation returns a new
    graph.  ``g2_violations`` counts spheres whose near-contact caps at the
    threshold ``delta`` overlap (two gaps too close to separate, see
    ``build_graph``); it is diagnostic only and never alters the edge set.
    ``node_merge_map`` is set on graphs produced by shorts and maps the
    source graph's node ids to this graph's node ids.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    delta: float
    box_half_width: float
    g2_violations: int = 0
    node_merge_map: tuple[int, ...] | None = field(default=None, repr=False)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return len(self.edges)

    def box_volume(self):
        return (2.0 * self.box_half_width) ** 3

    @cached_property
    def edge_arrays(self):
        """(a_idx, b_idx, mu, d) as arrays aligned with the edge order."""
        m = len(self.edges)
        return (np.fromiter((e.a for e in self.edges), np.int64, m),
                np.fromiter((e.b for e in self.edges), np.int64, m),
                np.fromiter((e.mu for e in self.edges), float, m),
                np.fromiter((e.d for e in self.edges), float, m))

    @cached_property
    def node_volumes(self):
        return np.fromiter((n.volume for n in self.nodes), float, len(self.nodes))

    @cached_property
    def node_centroids(self):
        if not self.nodes:
            return np.zeros((0, 3))
        return np.stack([n.centroid for n in self.nodes])

    def has_geometry(self):
        return all(n.sphere_centers is not None for n in self.nodes)

    def to_dict(self):
        return {
            "delta": self.delta,
            "N": self.box_half_width,
            "nodes": [
                {
                    "id": n.id,
                    "vol": float(n.volume),
                    "x": [float(v) for v in n.centroid],
                    "diam": float(n.diameter),
                    "boundary": bool(n.boundary),
                }
                for n in self.nodes
            ],
            "edges": [
                {
                    "id": e.id,
                    "a": e.a,
                    "b": e.b,
                    "xa": [float(v) for v in e.xa],
                    "xb": [float(v) for v in e.xb],
                    "d": float(e.d),
                    "mu": float(e.mu),
                }
                for e in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, data):
        from .cli import SchemaError

        if not isinstance(data, dict):
            raise SchemaError("graph document must be a JSON object")
        missing = [k for k in ("delta", "N", "nodes", "edges") if k not in data]
        if missing:
            raise SchemaError(f"graph document missing fields: {missing}")
        try:
            nodes = tuple(
                Node(
                    id=int(n["id"]),
                    volume=float(n["vol"]),
                    centroid=np.array([float(v) for v in n["x"]], dtype=float),
                    diameter=float(n["diam"]),
                    boundary=bool(n["boundary"]),
                )
                for n in data["nodes"]
            )
            edges = tuple(
                Edge(
                    id=int(e["id"]),
                    a=int(e["a"]),
                    b=int(e["b"]),
                    xa=np.array([float(v) for v in e["xa"]], dtype=float),
                    xb=np.array([float(v) for v in e["xb"]], dtype=float),
                    d=float(e["d"]),
                    mu=float(e["mu"]),
                )
                for e in data["edges"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"invalid graph document: {exc}") from None
        for k, nd in enumerate(nodes):
            if nd.id != k or not (0.0 < nd.volume < math.inf):
                raise SchemaError(f"node at position {k}: need id {k} and a "
                                  f"finite positive volume, got id {nd.id}, "
                                  f"vol {nd.volume!r}")
        for e in edges:
            if not (0 <= e.a < e.b < len(nodes) and 0.0 < e.d < 1.0
                    and e.mu == abs(math.log(e.d))):
                raise SchemaError(
                    f"edge {e.id}: need 0 <= a < b < {len(nodes)}, d in "
                    f"(0, 1) and mu = |ln d|, got a {e.a}, b {e.b}, "
                    f"d {e.d!r}, mu {e.mu!r}")
        return cls(nodes=nodes, edges=edges, delta=float(data["delta"]),
                   box_half_width=float(data["N"]))

    def __eq__(self, other):
        if not isinstance(other, InclusionGraph):
            return NotImplemented
        return self.to_dict() == other.to_dict()


@dataclass
class ClusterPartition:
    """Connected components of the multigraph (clusters of inclusions).

    Clusters are numbered by their smallest node id.
    """

    node_cluster: np.ndarray        # (n_nodes,) node -> cluster index
    members: tuple[tuple[int, ...], ...]
    diameters: np.ndarray           # union diameter per cluster
    volumes: np.ndarray             # total node volume per cluster
    cardinalities: np.ndarray       # number of nodes per cluster

    @property
    def n_clusters(self):
        return len(self.members)


def closest_points(sphere_a, sphere_b):
    """Closest surface points of two disjoint spheres and their gap.

    Spheres are (center, radius) pairs.
    The points lie on the center line; rejects overlapping spheres.
    """
    ca, ra = np.asarray(sphere_a[0], dtype=float), float(sphere_a[1])
    cb, rb = np.asarray(sphere_b[0], dtype=float), float(sphere_b[1])
    dist = float(np.linalg.norm(cb - ca))
    if dist <= ra + rb:
        raise ValueError("spheres overlap or touch; merge them into one "
                         "component instead of building a gap")
    u = (cb - ca) / dist
    xa = ca + ra * u
    xb = cb - rb * u
    return xa, xb, dist - ra - rb


def _row_norms(v):
    """Euclidean norms of the rows of ``v``.

    Rounded exactly as ``np.linalg.norm`` rounds one vector (a BLAS dot
    product, then a square root); ``norm(axis=1)`` sums in another order
    and can differ in the last bit.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _cap_cos_angle(r_self, r_other, center_dist, delta):
    """Cosine of the angular radius of the near-contact cap.

    The cap of a sphere of radius ``r_self`` facing a partner at center
    distance ``center_dist`` collects the surface points within ``delta``
    of the partner ball.  Works on scalars and arrays alike.
    """
    c = (center_dist ** 2 + r_self ** 2 - (r_other + delta) ** 2) / (
        2.0 * center_dist * r_self)
    return np.clip(c, -1.0, 1.0)


# Cap tests this close to the overlap limit are redone with scalar math, so
# the rounding of the vectorized arccos (off by ~1e-7 at worst) never counts.
_CAP_TIE = 1e-6


def _count_g2_violations(config, pairs, dist, delta):
    """Count spheres with overlapping contact caps at threshold ``delta``.

    The separation hypothesis behind the multigraph asks every near-contact
    region to pair with at most one partner within ``2*delta``.  For balls
    this fails exactly when two caps on one sphere overlap; we count such
    spheres instead of second-guessing the configuration.

    Caps are grouped by sphere; pass ``t`` tests each cap against the one
    ``t`` places later in its group, on spheres not yet found in violation.
    """
    centers, radii = config.centers, config.radii
    i, j = pairs[:, 0], pairs[:, 1]
    axis = (centers[j] - centers[i]) / dist[:, None]
    sphere = np.concatenate([i, j])
    order = np.argsort(sphere, kind="stable")
    sphere = sphere[order]
    partner = np.concatenate([j, i])[order]
    cdist = np.concatenate([dist, dist])[order]
    axes = np.concatenate([axis, -axis])[order]
    half = np.arccos(_cap_cos_angle(radii[sphere], radii[partner], cdist, delta))

    def exact_overlap(k, l):
        hk, hl = (math.acos(_cap_cos_angle(radii[sphere[c]], radii[partner[c]],
                                           cdist[c], delta)) for c in (k, l))
        ang = math.acos(min(1.0, max(-1.0, float(axes[k] @ axes[l]))))
        return ang < hk + hl

    bad = np.zeros(radii.size, dtype=bool)
    k = np.arange(sphere.size)
    t = 1
    while k.size:
        k = k[k + t < sphere.size]
        k = k[(sphere[k + t] == sphere[k]) & ~bad[sphere[k]]]
        l = k + t
        ang = np.arccos(np.clip((axes[k, None, :] @ axes[l, :, None])[:, 0, 0],
                                -1.0, 1.0))
        limit = half[k] + half[l]
        hit = ang < limit
        for p in np.nonzero(np.abs(ang - limit) <= _CAP_TIE)[0]:
            hit[p] = exact_overlap(k[p], l[p])
        bad[sphere[k[hit]]] = True
        t += 1
    return int(bad.sum())


def build_graph(component_set: ComponentSet, config: SphereConfig,
                delta: float) -> InclusionGraph:
    """Build the gap multigraph at threshold ``delta``.

    One edge per pair of spheres in distinct components with gap at most
    ``delta``; candidate pairs come from a KD-tree query at radius
    ``2*max_radius + delta`` so no pair can be missed.  Edges are sorted by
    (node_a, node_b, d, xa, xb) and the edge count matches brute-force pair
    enumeration exactly.  Contact points and gaps are bit-identical to
    ``closest_points`` on each pair.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1): weights |ln d| must "
                         "stay positive")
    cs = component_set
    labels = cs.labels
    centers, radii = config.centers, config.radii

    # Node fields in constructor order; per-node arrays are rows or slices
    # of fresh arrays, so nodes share nothing with the inputs.
    n_comp, ids = cs.n_components, cs.order.tolist()
    spans = list(map(slice, cs.starts[:-1].tolist(), cs.starts[1:].tolist()))
    sphere_centers, sphere_radii = centers[cs.order], radii[cs.order]
    nodes = tuple(map(
        Node, range(n_comp), cs.volumes.tolist(), list(cs.centroids.copy()),
        cs.diameters.tolist(), cs.boundary.tolist(), range(n_comp),
        (tuple(ids[s]) for s in spans), (sphere_centers[s] for s in spans),
        (sphere_radii[s] for s in spans)))

    g2_violations = 0
    kept = np.empty((0, 2), dtype=np.int64)
    if config.n_spheres >= 2:
        # Search out to 2*delta so the cap-separation diagnostic sees the
        # near misses as well; edges keep the strict gap <= delta cut.
        cand = _pairs_within(centers, radii, 2.0 * delta)
        if cand.size:
            diff = centers[cand[:, 0]] - centers[cand[:, 1]]
            dist = np.linalg.norm(diff, axis=1)
            gap = dist - radii[cand[:, 0]] - radii[cand[:, 1]]
            cross = labels[cand[:, 0]] != labels[cand[:, 1]]
            near = cross & (gap <= 2.0 * delta)
            g2_violations = _count_g2_violations(
                config, cand[near], dist[near], delta)
            kept = cand[cross & (gap <= delta)]

    # closest_points on every kept pair at once, in its operation order.
    i, j = kept[:, 0], kept[:, 1]
    ri, rj = radii[i], radii[j]
    between = centers[j] - centers[i]
    dist = _row_norms(between)
    if np.any(dist <= ri + rj):
        raise ValueError("spheres overlap or touch; merge them into one "
                         "component instead of building a gap")
    unit = between / dist[:, None]
    xi = centers[i] + ri[:, None] * unit
    xj = centers[j] - rj[:, None] * unit
    d = dist - ri - rj
    # Orient every edge from its lower node id.
    swap = labels[i] > labels[j]
    na, nb = np.minimum(labels[i], labels[j]), np.maximum(labels[i], labels[j])
    xa = np.where(swap[:, None], xj, xi)
    xb = np.where(swap[:, None], xi, xj)
    order = np.lexsort((xb[:, 2], xb[:, 1], xb[:, 0],
                        xa[:, 2], xa[:, 1], xa[:, 0], d, nb, na))
    d = d[order].tolist()
    edges = tuple(map(Edge, range(len(d)), na[order].tolist(),
                      nb[order].tolist(), list(xa[order]), list(xb[order]),
                      d, [abs(math.log(v)) for v in d]))
    return InclusionGraph(nodes=nodes, edges=edges, delta=delta,
                          box_half_width=config.box_half_width,
                          g2_violations=g2_violations)


def _union_diameter(nodes, geo):
    """Diameter of a union of nodes.

    Exact over the member balls when the nodes carry them (``geo``);
    otherwise an upper bound from node data: the max over node pairs of
    centroid distance plus both half diameters.
    """
    if geo:
        return _pairwise_extent(np.concatenate([nd.sphere_centers for nd in nodes]),
                                np.concatenate([nd.sphere_radii for nd in nodes]))
    centroids = np.stack([nd.centroid for nd in nodes])
    half = 0.5 * np.array([nd.diameter for nd in nodes])
    best = max(nd.diameter for nd in nodes)
    for s in range(len(nodes) - 1):
        dist = _row_norms(centroids[s] - centroids[s + 1:])
        best = max(best, float((dist + half[s] + half[s + 1:]).max()))
    return best


def _groups(labels, m):
    """Indices with each label 0..m-1, ascending within each group."""
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=m))[:-1]
    return np.split(order, bounds) if m else []


def clusters(graph: InclusionGraph) -> ClusterPartition:
    """Connected components of the multigraph, with per-cluster stats.

    Clusters are numbered by their smallest node id.  Union diameter is
    exact (pairwise over all member balls) when the graph carries sphere
    geometry; otherwise an upper bound from node centroids and node
    diameters is used.
    """
    a_idx, b_idx, _, _ = graph.edge_arrays
    m, node_cluster = _connected_labels(graph.n_nodes, a_idx, b_idx)
    members = tuple(tuple(g.tolist()) for g in _groups(node_cluster, m))
    volumes = np.zeros(m)
    diameters = np.zeros(m)
    geo = graph.has_geometry()
    for k, mem in enumerate(members):
        nodes = [graph.nodes[i] for i in mem]
        volumes[k] = math.fsum(nd.volume for nd in nodes)
        diameters[k] = _union_diameter(nodes, geo)
    return ClusterPartition(node_cluster=node_cluster, members=members,
                            diameters=diameters, volumes=volumes,
                            cardinalities=np.bincount(node_cluster, minlength=m))


def short_at(graph: InclusionGraph, node_pairs) -> InclusionGraph:
    """Short the graph at the given node pairs.

    Nodes in the transitive closure of the pair relation merge into one
    node (summed volume, volume-weighted centroid, union diameter); edges
    joining merged nodes are suppressed, all other edges survive with
    remapped endpoints and keep their ids, so the edge set of the result
    is a subset of the input's.  Merged nodes are numbered by their
    smallest source node id.
    """
    pairs = [(int(a), int(b)) for a, b in node_pairs]
    n = graph.n_nodes
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"short references missing node: ({a}, {b})")
    if not pairs:
        return graph

    ends = np.array(pairs, dtype=np.int64)
    m, merge_map = _connected_labels(n, ends[:, 0], ends[:, 1])
    new_nodes = []
    geo = graph.has_geometry()
    for k, group in enumerate(_groups(merge_map, m)):
        mem = [graph.nodes[i] for i in group]
        if len(mem) == 1:
            new_nodes.append(replace(mem[0], id=k))
            continue
        volume = math.fsum(nd.volume for nd in mem)
        centroid = sum((nd.volume * nd.centroid for nd in mem),
                       start=np.zeros(3)) / volume
        sphere_ids = centers = radii = None
        if geo:
            sphere_ids = tuple(sorted(i for nd in mem for i in nd.sphere_ids))
            order = np.argsort([i for nd in mem for i in nd.sphere_ids])
            centers = np.concatenate([nd.sphere_centers for nd in mem])[order]
            radii = np.concatenate([nd.sphere_radii for nd in mem])[order]
        new_nodes.append(Node(
            id=k, volume=volume, centroid=centroid,
            diameter=float(_union_diameter(mem, geo)),
            boundary=any(nd.boundary for nd in mem), component_index=None,
            sphere_ids=sphere_ids, sphere_centers=centers, sphere_radii=radii))

    new_edges = []
    for e in graph.edges:
        na, nb = int(merge_map[e.a]), int(merge_map[e.b])
        if na < nb:
            new_edges.append(replace(e, a=na, b=nb))
        elif na > nb:
            new_edges.append(replace(e, a=nb, b=na, xa=e.xb, xb=e.xa))
    new_edges.sort(key=lambda e: (e.a, e.b, e.d, e.id))

    return InclusionGraph(
        nodes=tuple(new_nodes), edges=tuple(new_edges), delta=graph.delta,
        box_half_width=graph.box_half_width,
        g2_violations=graph.g2_violations,
        node_merge_map=tuple(int(v) for v in merge_map),
    )


def short_kappa(graph: InclusionGraph, graph_prime_edge_ids,
                kappa: float) -> InclusionGraph:
    """Short every unprotected gap narrower than ``kappa``.

    ``graph_prime_edge_ids`` lists the edges kept open by construction;
    every other edge with ``d < kappa`` is shorted (its endpoints merged).
    Surviving edges are the protected ones plus the unprotected gaps of
    width at least ``kappa``, minus any edge that became internal to a
    merged node.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")
    known = {e.id for e in graph.edges}
    prime = {int(i) for i in graph_prime_edge_ids}
    unknown = prime - known
    if unknown:
        raise ValueError(f"unknown edge ids in protected set: {sorted(unknown)}")
    pairs = [(e.a, e.b) for e in graph.edges
             if e.id not in prime and e.d < kappa]
    if not pairs:
        # Identity short; still record the trivial merge map.
        return InclusionGraph(
            nodes=graph.nodes, edges=graph.edges, delta=graph.delta,
            box_half_width=graph.box_half_width,
            g2_violations=graph.g2_violations,
            node_merge_map=tuple(range(graph.n_nodes)),
        )
    return short_at(graph, pairs)


def is_cycle_free(graph: InclusionGraph) -> bool:
    """True when the multigraph has no cycle.

    Any pair of parallel edges counts as a cycle, so this is exactly
    ``n_edges == n_nodes - n_clusters``.
    """
    a_idx, b_idx, _, _ = graph.edge_arrays
    n_clusters, _ = _connected_labels(graph.n_nodes, a_idx, b_idx)
    return graph.n_edges == graph.n_nodes - n_clusters
