"""The gap multigraph of a sphere configuration, and shorts of it.

Nodes are the connected components of the configuration; an edge joins two
distinct components for every pair of their spheres whose surface gap ``d``
is at most the threshold ``delta``.  Parallel edges are kept (several gaps
may join the same pair of components).  The edge weight is ``mu = |ln d|``;
requiring ``delta < 1`` keeps all weights positive.

``InclusionGraph`` stores the graph as columns: one array per node
quantity, indexed by node id, and one per edge quantity, in edge order.
Graphs built from a configuration also keep that configuration and the
node of each of its balls.

A *short* merges chosen node groups into single nodes, suppressing the
edges that become internal; ``short_kappa`` shorts exactly the gaps
narrower than ``kappa``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    ComponentSet,
    SchemaError,
    SphereConfig,
    _connected_labels,
    _json_int,
    _json_number,
    _near_pairs,
    _once,
    _pairwise_extent,
    _row_norms,
)

__all__ = [
    "InclusionGraph",
    "ClusterPartition",
    "build_graph",
    "clusters",
    "short_at",
    "short_kappa",
]


@dataclass(frozen=True)
class InclusionGraph:
    """The gap multigraph as node and edge columns, threshold and box size.

    A node's id is its position in the node columns.  Edges are oriented
    ``a < b`` and keep their ``edge_ids`` through shorts.  ``spheres`` is
    the configuration the graph was built from and ``sphere_node`` maps
    each of its balls to a node; both are None on deserialized graphs,
    where the operations that need ball geometry fall back to
    conservative bounds (``clusters``, ``short_at``) or refuse to run
    (``boundary_nodes``, ``cluster_moment_statistic``).

    Immutable; every operation returns a new graph.  ``g2_violations``
    counts spheres whose near-contact caps at the threshold ``delta``
    overlap (two gaps too close to separate, see
    ``_count_g2_violations``); it is diagnostic only and never alters the
    edge set.  A built graph computes it on its first read, with a
    candidate query of its own, and keeps it; a short shares its source
    graph's count, and a deserialized graph reads 0.  ``node_merge_map``
    is set on graphs produced by shorts and maps the source graph's node
    ids to this graph's node ids.  Every reader of the clusters shares
    ``_node_clusters``, computed on first read; it is not a field, so a
    short (made by ``dataclasses.replace``) computes its own.
    """

    volumes: np.ndarray             # (n_nodes,)
    centroids: np.ndarray           # (n_nodes, 3)
    diameters: np.ndarray           # (n_nodes,)
    boundary: np.ndarray            # (n_nodes,) bool
    edge_ids: np.ndarray            # (n_edges,) int
    a: np.ndarray                   # (n_edges,) lower end node
    b: np.ndarray                   # (n_edges,) upper end node
    xa: np.ndarray                  # (n_edges, 3) contact point on node a
    xb: np.ndarray                  # (n_edges, 3) contact point on node b
    d: np.ndarray                   # (n_edges,) gap width
    mu: np.ndarray                  # (n_edges,) weight |ln d|
    delta: float
    box_half_width: float
    # The cap-separation count of a built graph, computed once when called.
    _g2_count: Callable[[], int] | None = field(default=None, repr=False)
    node_merge_map: tuple[int, ...] | None = field(default=None, repr=False)
    spheres: SphereConfig | None = field(default=None, repr=False)
    sphere_node: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_nodes(self):
        return int(self.volumes.size)

    @property
    def n_edges(self):
        return int(self.d.size)

    @property
    def g2_violations(self):
        return 0 if self._g2_count is None else self._g2_count()

    @_once
    def _node_clusters(self):
        """``(m, labels)``: cluster count and each node's cluster."""
        return _connected_labels(self.n_nodes, self.a, self.b)

    def box_volume(self):
        return (2.0 * self.box_half_width) ** 3

    def to_dict(self):
        return {
            "delta": self.delta,
            "N": self.box_half_width,
            "nodes": [
                {"id": k, "vol": vol, "x": x, "diam": diam, "boundary": bd}
                for k, (vol, x, diam, bd) in enumerate(zip(
                    self.volumes.tolist(), self.centroids.tolist(),
                    self.diameters.tolist(), self.boundary.tolist()))
            ],
            "edges": [
                {"id": i, "a": a, "b": b, "xa": xa, "xb": xb, "d": d, "mu": mu}
                for i, a, b, xa, xb, d, mu in zip(
                    self.edge_ids.tolist(), self.a.tolist(), self.b.tolist(),
                    self.xa.tolist(), self.xb.tolist(), self.d.tolist(),
                    self.mu.tolist())
            ],
        }

    @classmethod
    def from_dict(cls, data):
        """Read a graph document into the columns; SchemaError if malformed.

        Ids and edge ends must be integers, ``boundary`` a boolean and
        every other value a JSON number.
        Each node's id must equal its position, and every edge needs
        ``0 <= a < b < n``, ``d`` in (0, 1) and ``mu == |ln d|``; ``N`` must
        be finite and positive, ``delta`` in (0, 1), and every centroid,
        diameter and contact point finite.  ``check_volumes`` then runs.
        """
        if not isinstance(data, dict):
            raise SchemaError("graph document must be a JSON object")
        missing = [k for k in ("delta", "N", "nodes", "edges") if k not in data]
        if missing:
            raise SchemaError(f"graph document missing fields: {missing}")

        def number(record, key):
            return _json_number(record[key], f"graph field {key!r}")

        def vector(record, key):
            return [_json_number(v, f"graph field {key!r} entry")
                    for v in record[key]]

        try:
            delta, N = number(data, "delta"), number(data, "N")
            nodes = [(_json_int(n["id"], "node id"), number(n, "vol"),
                      vector(n, "x"), number(n, "diam"), n["boundary"])
                     for n in data["nodes"]]
            edges = [(*(_json_int(e[key], f"edge {key}")
                        for key in ("id", "a", "b")),
                      vector(e, "xa"), vector(e, "xb"), number(e, "d"),
                      number(e, "mu")) for e in data["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"invalid graph document: {exc}") from None
        n = len(nodes)
        for k, (node_id, *_, boundary) in enumerate(nodes):
            if node_id != k or not isinstance(boundary, bool):
                raise SchemaError(f"node at position {k}: need id {k} and a "
                                  f"boolean boundary, got id {node_id}, "
                                  f"boundary {boundary!r}")
        for edge_id, a, b, _, _, d, mu in edges:
            if not (0 <= a < b < n and 0.0 < d < 1.0
                    and mu == abs(math.log(d))):
                raise SchemaError(
                    f"edge {edge_id}: need 0 <= a < b < {n}, d in "
                    f"(0, 1) and mu = |ln d|, got a {a}, b {b}, "
                    f"d {d!r}, mu {mu!r}")
        if not (0.0 < N < math.inf):
            raise SchemaError(f"graph box size N must be finite and "
                              f"positive, got {N!r}")
        if not (0.0 < delta < 1.0):
            raise SchemaError(f"graph threshold delta must lie in (0, 1), "
                              f"got {delta!r}")
        _, vol, x, diam, bd = list(zip(*nodes)) or [()] * 5
        ids, a, b, xa, xb, d, mu = list(zip(*edges)) or [()] * 7
        try:
            graph = cls(
                volumes=np.array(vol, dtype=float),
                centroids=np.array(x, dtype=float).reshape(n, 3),
                diameters=np.array(diam, dtype=float),
                boundary=np.array(bd, dtype=bool),
                edge_ids=np.array(ids, dtype=np.int64),
                a=np.array(a, dtype=np.int64), b=np.array(b, dtype=np.int64),
                xa=np.array(xa, dtype=float).reshape(len(edges), 3),
                xb=np.array(xb, dtype=float).reshape(len(edges), 3),
                d=np.array(d, dtype=float), mu=np.array(mu, dtype=float),
                delta=delta, box_half_width=N)
        except (OverflowError, ValueError) as exc:
            raise SchemaError(f"invalid graph document: {exc}") from None
        for name in ("centroids", "diameters", "xa", "xb"):
            if not np.all(np.isfinite(getattr(graph, name))):
                raise SchemaError(f"graph document: every {name} entry "
                                  f"must be finite")
        graph.check_volumes()
        return graph

    def check_volumes(self):
        """Raise SchemaError unless every node volume is finite and positive.

        ``from_dict`` reads graph documents under this rule, and
        ``stiffnet graph`` checks a built graph by it before writing one.
        """
        bad = np.flatnonzero(~((self.volumes > 0.0)
                               & (self.volumes < math.inf)))
        if bad.size:
            k = int(bad[0])
            raise SchemaError(f"node {k}: need a finite positive volume, "
                              f"got vol {float(self.volumes[k])!r}")

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
    diameters: np.ndarray           # union diameter per cluster
    cardinalities: np.ndarray       # number of nodes per cluster


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


def _cross_gap_pairs(config, labels, width):
    """Sphere pairs in distinct components (by ``labels``) with gap at most
    ``width``, in lexicographic order, and their centre distances."""
    radii = config.radii
    pairs, dist = _near_pairs(config, width)
    i, j = pairs[:, 0], pairs[:, 1]
    near = (labels[i] != labels[j]) & (dist - radii[i] - radii[j] <= width)
    return pairs[near], dist[near]


def build_graph(component_set: ComponentSet, config: SphereConfig,
                delta: float) -> InclusionGraph:
    """Build the gap multigraph at threshold ``delta``.

    One edge per pair of spheres in distinct components with gap at most
    ``delta``; candidate pairs come from a KD-tree query at radius
    ``2*max_radius + delta`` (or the configuration's wider pair table, see
    ``geometry._near_pairs``) so no pair can be missed.  Edges are sorted
    by (node_a, node_b, d, xa, xb), ties keeping pair order: one stable
    sort by the key ``a * n_nodes + b``, then the runs of parallel edges
    by (d, xa, xb).  The edge count matches brute-force pair enumeration
    exactly.  Each contact point is a ball centre moved by its
    radius along the unit centre line, and the gap is the centre distance
    minus both radii, rounded as one pair at a time would round them.
    The returned graph defers ``g2_violations`` to its first read.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1): weights |ln d| must "
                         "stay positive")
    cs = component_set
    labels = cs.labels
    centers, radii = config.centers, config.radii
    kept, _ = _cross_gap_pairs(config, labels, delta)

    # Contact points of every kept pair at once, in per-pair operation order.
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
    key = na * cs.n_components + nb
    order = np.argsort(key, kind="stable")
    # Equal keys are parallel edges; order each run of them by (d, xa, xb).
    same = np.diff(key[order]) == 0
    tied = np.zeros(order.size, dtype=bool)
    tied[1:] |= same
    tied[:-1] |= same
    run = order[tied]
    order[tied] = run[np.lexsort((xb[run, 2], xb[run, 1], xb[run, 0],
                                  xa[run, 2], xa[run, 1], xa[run, 0],
                                  d[run], key[run]))]
    d = d[order]
    return InclusionGraph(
        volumes=cs.volumes, centroids=cs.centroids, diameters=cs.diameters,
        boundary=cs.boundary, edge_ids=np.arange(d.size), a=na[order],
        b=nb[order], xa=xa[order], xb=xb[order], d=d,
        # math.log per value: numpy's vectorised log may round differently.
        mu=np.abs(np.fromiter(map(math.log, d.tolist()), float, d.size)),
        delta=delta, box_half_width=config.box_half_width,
        # Caps of gaps up to 2*delta can meet, so the count looks that far.
        _g2_count=functools.cache(lambda: _count_g2_violations(
            config, *_cross_gap_pairs(config, labels, 2.0 * delta), delta)),
        spheres=config, sphere_node=labels)


def _union_diameter(graph, nodes, balls):
    """Diameter of the union of ``nodes``.

    Exact over the member ``balls`` when the graph carries them (see
    ``_member_balls``); otherwise an upper bound from node data: the max
    over node pairs of centroid distance plus both half diameters.
    """
    if balls is not None:
        return _pairwise_extent(graph.spheres.centers[balls],
                                graph.spheres.radii[balls])
    centroids, diam = graph.centroids[nodes], graph.diameters[nodes]
    half = 0.5 * diam
    best = float(diam.max())
    for s in range(len(nodes) - 1):
        dist = _row_norms(centroids[s] - centroids[s + 1:])
        best = max(best, float((dist + half[s] + half[s + 1:]).max()))
    return best


def _groups(labels, m):
    """Indices with each label 0..m-1, ascending within each group."""
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=m))[:-1]
    return np.split(order, bounds) if m else []


def _member_balls(graph, labels, m):
    """Ball indices of each node group, ordered by (node id, ball index).

    ``labels`` maps node ids to groups 0..m-1.  Every group reads None
    when the graph carries no ball geometry.
    """
    if graph.sphere_node is None:
        return [None] * m
    by_node = np.argsort(graph.sphere_node, kind="stable")
    return [by_node[g] for g in _groups(labels[graph.sphere_node[by_node]], m)]


def clusters(graph: InclusionGraph) -> ClusterPartition:
    """Connected components of the multigraph, with per-cluster stats.

    Clusters are the graph's ``_node_clusters``, numbered by their
    smallest node id.  Union diameter is exact (pairwise over all member
    balls) when the graph carries sphere geometry; otherwise an upper
    bound from node centroids and node diameters is used.
    """
    m, node_cluster = graph._node_clusters
    groups = _groups(node_cluster, m)
    balls = _member_balls(graph, node_cluster, m)
    return ClusterPartition(
        node_cluster=node_cluster,
        diameters=np.array([_union_diameter(graph, g, bl)
                            for g, bl in zip(groups, balls)]),
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
    ends = np.array(list(node_pairs), dtype=np.int64).reshape(-1, 2)
    n = graph.n_nodes
    outside = ((ends < 0) | (ends >= n)).any(axis=1)
    if outside.any():
        a, b = ends[outside][0].tolist()
        raise ValueError(f"short references missing node: ({a}, {b})")
    if not ends.size:
        return graph

    m, merge_map = _connected_labels(n, ends[:, 0], ends[:, 1])
    # Unmerged nodes keep their values; merged ones are recomputed below.
    volumes, diameters, centroids = np.empty(m), np.empty(m), np.empty((m, 3))
    volumes[merge_map], diameters[merge_map] = graph.volumes, graph.diameters
    centroids[merge_map] = graph.centroids
    boundary = np.zeros(m, dtype=bool)
    boundary[merge_map[graph.boundary]] = True
    merged = np.bincount(merge_map, minlength=m) > 1
    for k, group, balls in zip(range(m), _groups(merge_map, m),
                               _member_balls(graph, merge_map, m)):
        if merged[k]:
            volumes[k] = math.fsum(graph.volumes[group].tolist())
            diameters[k] = _union_diameter(graph, group, balls)
    # Volume-weighted centroid sums, added in ascending node order.
    sums = np.zeros((m, 3))
    np.add.at(sums, merge_map, graph.volumes[:, None] * graph.centroids)
    centroids[merged] = sums[merged] / volumes[merged, None]

    a, b = merge_map[graph.a], merge_map[graph.b]
    swap = (a > b)[:, None]
    xa = np.where(swap, graph.xb, graph.xa)
    xb = np.where(swap, graph.xa, graph.xb)
    a, b = np.minimum(a, b), np.maximum(a, b)
    keep = np.nonzero(a != b)[0]
    order = keep[np.lexsort((graph.edge_ids[keep], graph.d[keep], b[keep],
                             a[keep]))]
    return replace(
        graph, volumes=volumes, centroids=centroids, diameters=diameters,
        boundary=boundary, edge_ids=graph.edge_ids[order], a=a[order],
        b=b[order], xa=xa[order], xb=xb[order], d=graph.d[order],
        mu=graph.mu[order], node_merge_map=tuple(merge_map.tolist()),
        sphere_node=(None if graph.sphere_node is None
                     else merge_map[graph.sphere_node]))


def short_kappa(graph: InclusionGraph, kappa: float) -> InclusionGraph:
    """Short every gap narrower than ``kappa``.

    Every edge with ``d < kappa`` is shorted (its endpoints merged).
    Surviving edges are the gaps of width at least ``kappa``, minus any
    edge that became internal to a merged node.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")
    shorted = graph.d < kappa
    if not shorted.any():
        # Identity short; still record the trivial merge map.
        return replace(graph, node_merge_map=tuple(range(graph.n_nodes)))
    return short_at(graph, np.stack([graph.a[shorted], graph.b[shorted]], axis=1))
