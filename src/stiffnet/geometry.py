"""Random sphere configurations and their connected components.

A configuration is a finite family of balls inside the cube
``Q_N = (-N, N)^3``.  Balls that overlap or touch (surface distance below
``contact_tol``) belong to the same component; components are the nodes of
the gap multigraph built in :mod:`stiffnet.multigraph`.

Three seeded generators are provided:

* ``generate_hardcore``     -- random sequential adsorption of equal balls
                               with a minimum pairwise gap,
* ``generate_lattice_jitter`` -- one ball per cubic cell, optionally jittered,
* ``generate_chain_forest``   -- well separated straight chains of balls,
                                 whose gap multigraph is a forest.

All generators are pure functions of their arguments: the same (model,
seed, params) reproduce the same configuration bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, QhullError, cKDTree

__all__ = [
    "SchemaError",
    "SphereConfig",
    "ComponentSet",
    "generate_hardcore",
    "generate_lattice_jitter",
    "generate_chain_forest",
    "restrict_box",
    "components",
    "cluster_moment_statistic",
    "MomentEstimate",
]

_FOUR_THIRDS_PI = 4.0 * math.pi / 3.0

DEFAULT_CONTACT_TOL = 1e-12


class SchemaError(ValueError):
    """A document does not match its expected schema."""


class SphereConfig:
    """A finite ball configuration in the box ``(-N, N)^3``.

    Centers and radii are stored as numpy arrays in generation order;
    ``model`` and ``seed`` record how the configuration was produced.
    Instances are treated as immutable value objects.
    """

    def __init__(self, centers, radii, box_half_width, model="manual", seed=0,
                 contact_tol=DEFAULT_CONTACT_TOL, warnings=()):
        centers = np.asarray(centers, dtype=float).reshape(-1, 3)
        radii = np.asarray(radii, dtype=float).reshape(-1)
        if centers.shape[0] != radii.shape[0]:
            raise ValueError("centers and radii length mismatch")
        if not np.all(np.isfinite(centers)):
            raise ValueError("all centers must be finite")
        if radii.size and not np.all((radii > 0.0) & (radii < np.inf)):
            raise ValueError("all radii must be positive and finite")
        if not (0.0 < box_half_width < math.inf):
            raise ValueError("box_half_width must be positive and finite")
        if not (0.0 < contact_tol < math.inf):
            raise ValueError("contact_tol must be positive and finite")
        self.centers = centers
        self.radii = radii
        self.box_half_width = float(box_half_width)
        self.model = str(model)
        self.seed = int(seed)
        self.contact_tol = float(contact_tol)
        # Generation diagnostics (e.g. saturation); not part of the value,
        # not serialized, excluded from equality.
        self.warnings = tuple(warnings)

    @property
    def n_spheres(self):
        return int(self.radii.size)

    def box_volume(self):
        return (2.0 * self.box_half_width) ** 3

    def to_dict(self):
        """Serializable form; field order is part of the file format."""
        return {
            "model": self.model,
            "seed": self.seed,
            "box_half_width": self.box_half_width,
            "contact_tol": self.contact_tol,
            "spheres": [
                {"c": [float(x), float(y), float(z)], "r": float(r)}
                for (x, y, z), r in zip(self.centers, self.radii)
            ],
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SchemaError("configuration document must be a JSON object")
        required = ["model", "seed", "box_half_width", "contact_tol", "spheres"]
        missing = [k for k in required if k not in data]
        if missing:
            raise SchemaError(f"configuration document missing fields: {missing}")
        spheres = data["spheres"]
        if not isinstance(spheres, list):
            raise SchemaError("'spheres' must be a list")
        for entry in spheres:
            if not isinstance(entry, dict) or "c" not in entry or "r" not in entry:
                raise SchemaError("sphere entries must be objects with 'c' and 'r'")
            c = entry["c"]
            if not isinstance(c, list) or len(c) != 3:
                raise SchemaError("sphere center must be a 3-element list")
        try:
            centers = [[float(v) for v in entry["c"]] for entry in spheres]
            radii = [float(entry["r"]) for entry in spheres]
            return cls(
                np.array(centers, dtype=float).reshape(-1, 3),
                np.array(radii, dtype=float),
                float(data["box_half_width"]),
                model=data["model"],
                seed=int(data["seed"]),
                contact_tol=float(data["contact_tol"]),
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"invalid configuration values: {exc}") from None

    def __eq__(self, other):
        if not isinstance(other, SphereConfig):
            return NotImplemented
        return (
            self.model == other.model
            and self.seed == other.seed
            and self.box_half_width == other.box_half_width
            and self.contact_tol == other.contact_tol
            and self.centers.shape == other.centers.shape
            and np.array_equal(self.centers, other.centers)
            and np.array_equal(self.radii, other.radii)
        )

    def __repr__(self):
        return (f"SphereConfig(model={self.model!r}, seed={self.seed}, "
                f"N={self.box_half_width}, n_spheres={self.n_spheres})")


@dataclass
class ComponentSet:
    """Partition of the spheres of a configuration into components.

    Two spheres share a component when their surface distance is at most
    ``contact_tol``.  Components are numbered by their smallest sphere
    index; ``labels`` maps each sphere to its component.  Per-component
    statistics:

    * ``volumes``   -- ball volumes minus pairwise lens overlaps,
    * ``centroids`` -- ball-volume weighted centers,
    * ``diameters`` -- max surface-to-surface extent over sphere pairs,
    * ``boundary``  -- True when the component is not strictly inside the
                       open box (it reaches or crosses the boundary layer).
    """

    labels: np.ndarray          # (n,) sphere index -> component index
    volumes: np.ndarray         # (m,)
    centroids: np.ndarray       # (m, 3)
    diameters: np.ndarray       # (m,)
    boundary: np.ndarray        # (m,) bool
    triple_overlap_possible: bool = field(default=False)

    @property
    def n_components(self):
        return int(self.volumes.size)


def _connected_labels(n, a, b):
    """Components of the graph on ``n`` vertices with edges (a[k], b[k]).

    Returns ``(m, labels)``: labels run over ``0..m-1`` and are ordered by
    each component's smallest vertex.  Parallel edges and loops are fine.
    """
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    adjacency = coo_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n))
    m, raw = connected_components(adjacency, directed=False)
    _, first = np.unique(raw, return_index=True)   # smallest vertex per label
    return int(m), np.argsort(np.argsort(first))[raw]


# Below this many balls the quadratic scan beats building a hull.
_HULL_MIN_BALLS = 64


def _pairwise_extent(centers, radii):
    """Max surface-to-surface extent of a ball family (its diameter).

    With equal radii the farthest centres lie on their convex hull, so only
    hull vertices and coplanar points are scanned, by the same formula as
    the full blocked scan; other families and flat hulls take the full scan.
    """
    if centers.shape[0] == 1:
        return float(2.0 * radii[0])
    if centers.shape[0] >= _HULL_MIN_BALLS and radii.min() == radii.max():
        try:
            hull = ConvexHull(centers)
        except QhullError:
            pass
        else:
            keep = np.union1d(hull.vertices, hull.coplanar[:, 0])
            centers, radii = centers[keep], radii[keep]
    best = 0.0
    block = 1024
    for s in range(0, centers.shape[0], block):
        c1, r1 = centers[s:s + block], radii[s:s + block]
        dmat = np.linalg.norm(c1[:, None, :] - centers[None, :, :], axis=2)
        best = max(best, float((dmat + r1[:, None] + radii[None, :]).max()))
    return best


def _pairs_within(centers, radii, slack):
    """Candidate index pairs with center distance <= r_i + r_j + slack.

    A KD-tree query at radius (2 max r + slack) gives a superset; callers
    apply the exact criterion on the returned pairs.
    """
    n = centers.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    r_query = 2.0 * float(radii.max()) + slack
    tree = cKDTree(centers)
    pairs = tree.query_pairs(r=r_query * (1.0 + 1e-12), output_type="ndarray")
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    # Sort for deterministic downstream iteration.
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def _lens_volume(r1, r2, dist):
    """Volume of the intersection of two balls at center distance ``dist``."""
    if dist >= r1 + r2:
        return 0.0
    if dist <= abs(r1 - r2):
        rmin = min(r1, r2)
        return _FOUR_THIRDS_PI * rmin ** 3
    return (math.pi * (r1 + r2 - dist) ** 2
            * (dist * dist + 2.0 * dist * (r1 + r2) - 3.0 * (r1 - r2) ** 2)
            / (12.0 * dist))


def _contact_pairs(config: SphereConfig):
    """Ball pairs in contact: center distance d <= r_i + r_j + contact_tol.

    Returns ``(pairs, d, r_sum)``, pairs in lexicographic order with their
    center distances and radius sums; overlapping pairs are those with
    ``d < r_sum``.
    """
    pairs = _pairs_within(config.centers, config.radii, config.contact_tol)
    d = np.linalg.norm(config.centers[pairs[:, 0]] - config.centers[pairs[:, 1]],
                       axis=1)
    r_sum = config.radii[pairs[:, 0]] + config.radii[pairs[:, 1]]
    touching = d <= r_sum + config.contact_tol
    return pairs[touching], d[touching], r_sum[touching]


def components(config: SphereConfig) -> ComponentSet:
    """Connected components of a configuration.

    Components are the connected sets of the graph joining sphere pairs
    with center distance at most ``r_i + r_j + contact_tol``; they are
    numbered by their smallest sphere index.  Component volume uses
    pairwise inclusion-exclusion only; the generators never produce triple
    overlaps, and ``triple_overlap_possible`` records whether the
    truncation could matter for this instance.
    """
    n = config.n_spheres
    centers, radii = config.centers, config.radii
    touching, d, r_sum = _contact_pairs(config)
    overlaps, overlap_dist = touching[d < r_sum], d[d < r_sum]
    m, labels = _connected_labels(n, touching[:, 0], touching[:, 1])

    order = np.argsort(labels, kind="stable").astype(np.int64)
    counts = np.bincount(labels, minlength=m)
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    ball_vol = _FOUR_THIRDS_PI * radii ** 3
    volumes = np.zeros(m)
    np.add.at(volumes, labels, ball_vol)
    weighted = centers * ball_vol[:, None]
    centroids = np.zeros((m, 3))
    np.add.at(centroids, labels, weighted)
    centroids /= volumes[:, None]   # before the lens corrections below

    for (i, j), dist in zip(overlaps.tolist(), overlap_dist.tolist()):
        volumes[labels[i]] -= _lens_volume(float(radii[i]), float(radii[j]), dist)

    # Diameter: vectorized 2r for singletons, pairwise extent otherwise.
    diameters = 2.0 * radii[order[starts[:-1]]]
    for k in np.nonzero(counts > 1)[0]:
        idx = order[starts[k]:starts[k + 1]]
        diameters[k] = _pairwise_extent(centers[idx], radii[idx])

    reach = np.max(np.abs(centers), axis=1) + radii
    comp_reach = np.full(m, -np.inf)
    np.maximum.at(comp_reach, labels, reach)
    boundary = comp_reach >= config.box_half_width

    # A sphere appearing in two overlap pairs may create a triple overlap.
    triple_possible = bool(overlaps.size
                           and np.bincount(overlaps.ravel()).max() > 1)

    return ComponentSet(
        labels=labels,
        volumes=volumes,
        centroids=centroids,
        diameters=diameters,
        boundary=boundary,
        triple_overlap_possible=triple_possible,
    )


def restrict_box(config: SphereConfig, M: float) -> SphereConfig:
    """Keep exactly the components contained in the open box ``(-M, M)^3``.

    A component straddling the boundary is removed entirely, including its
    spheres that lie inside the smaller box.  Idempotent.
    """
    if not (0.0 < M <= config.box_half_width):
        raise ValueError(f"need 0 < M <= box_half_width, got M={M}")
    pairs, _, _ = _contact_pairs(config)
    m, labels = _connected_labels(config.n_spheres, pairs[:, 0], pairs[:, 1])
    reach = np.max(np.abs(config.centers), axis=1) + config.radii
    comp_reach = np.full(m, -np.inf)
    np.maximum.at(comp_reach, labels, reach)
    keep = comp_reach[labels] < M
    return SphereConfig(
        config.centers[keep],
        config.radii[keep],
        M,
        model=config.model,
        seed=config.seed,
        contact_tol=config.contact_tol,
        warnings=config.warnings,
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_hardcore(seed, N, intensity, radius, min_gap,
                      contact_tol=DEFAULT_CONTACT_TOL,
                      max_attempts=200) -> SphereConfig:
    """Random sequential adsorption of equal balls in ``(-N, N)^3``.

    Places ``round(intensity * |Q_N|)`` balls of the given radius, centers
    uniform in the box, every pair of accepted centers at distance at least
    ``2 * radius + min_gap``.  If a target ball cannot be placed within
    ``max_attempts`` draws, placement stops and the partial configuration
    is returned with a ``"saturated"`` warning.
    """
    if not (intensity >= 0.0):
        raise ValueError("intensity must be >= 0")
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if min_gap < 0.0:
        raise ValueError("min_gap must be >= 0")
    if not (N >= radius):
        raise ValueError("box half-width must be at least the radius")

    rng = np.random.default_rng(seed)
    n_target = int(round(intensity * (2.0 * N) ** 3))
    min_dist = 2.0 * radius + min_gap
    min_dist2 = min_dist * min_dist

    accepted = np.empty((n_target, 3))
    n_placed = 0
    warnings = ()
    # Grid hash with cell size >= min_dist: only 27 neighboring cells matter.
    cell = max(min_dist, 1e-9)
    grid: dict[tuple[int, int, int], list[int]] = {}

    def _cell_of(p):
        return (int(math.floor(p[0] / cell)),
                int(math.floor(p[1] / cell)),
                int(math.floor(p[2] / cell)))

    for _ in range(n_target):
        placed = False
        for _attempt in range(max_attempts):
            p = rng.uniform(-N, N, size=3)
            cx, cy, cz = _cell_of(p)
            ok = True
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        for k in grid.get((cx + dx, cy + dy, cz + dz), ()):
                            q = accepted[k]
                            if ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                                    + (p[2] - q[2]) ** 2) < min_dist2:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                accepted[n_placed] = p
                grid.setdefault((cx, cy, cz), []).append(n_placed)
                n_placed += 1
                placed = True
                break
        if not placed:
            warnings = (f"saturated: placed {n_placed} of {n_target} balls",)
            break

    centers = accepted[:n_placed]
    radii = np.full(n_placed, float(radius))
    return SphereConfig(centers, radii, N, model="hardcore", seed=seed,
                        contact_tol=contact_tol, warnings=warnings)


def generate_lattice_jitter(seed, N, spacing, radius, jitter,
                            allow_overlap=False,
                            contact_tol=DEFAULT_CONTACT_TOL) -> SphereConfig:
    """One ball per cubic cell of side ``spacing`` intersecting the box.

    Cell ``k`` covers ``[k*s, (k+1)*s)^3``; the ball sits at the cell center
    displaced uniformly in ``[-jitter, jitter]^3``.  Unless overlaps are
    explicitly allowed, parameters must keep distinct balls disjoint:
    ``jitter < spacing/2 - radius``.
    """
    if not (spacing > 0.0):
        raise ValueError("spacing must be positive")
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if jitter < 0.0:
        raise ValueError("jitter must be >= 0")
    if not allow_overlap:
        if radius >= spacing / 2.0:
            raise ValueError("radius >= spacing/2 forces overlaps; "
                             "pass allow_overlap=True to permit them")
        if jitter >= spacing / 2.0 - radius:
            raise ValueError("jitter too large: may force overlaps")

    rng = np.random.default_rng(seed)
    k_lo = int(math.floor(-N / spacing))
    k_hi = int(math.ceil(N / spacing))  # exclusive
    ks = np.arange(k_lo, k_hi)
    gx, gy, gz = np.meshgrid(ks, ks, ks, indexing="ij")
    cell_centers = (np.stack([gx, gy, gz], axis=-1).reshape(-1, 3) + 0.5) * spacing
    displ = rng.uniform(-1.0, 1.0, size=cell_centers.shape) * jitter
    centers = cell_centers + displ
    radii = np.full(centers.shape[0], float(radius))
    # Keep only balls meeting the closed box (jitter can push them out).
    outside = np.maximum(np.abs(centers) - N, 0.0)
    touch = np.linalg.norm(outside, axis=1) <= radii
    centers, radii = centers[touch], radii[touch]
    return SphereConfig(centers, radii, N, model="lattice_jitter", seed=seed,
                        contact_tol=contact_tol)


_NEIGHBOUR_OFFSETS = list(itertools.product((-1, 0, 1), repeat=3))


def generate_chain_forest(seed, N, radius, chain_len_max, gap_range,
                          chain_density=0.002, max_attempts=200,
                          contact_tol=DEFAULT_CONTACT_TOL) -> SphereConfig:
    """Disjoint straight chains of balls, fully inside the box.

    Each chain has a uniform random length in ``1..chain_len_max``, a
    uniform random direction, and consecutive gaps drawn from
    ``gap_range = [g_min, g_max]``.  Chains keep a surface clearance
    strictly greater than ``2*g_max`` from each other, so the gap
    multigraph at threshold ``delta`` is a disjoint union of paths
    (cycle-free) for any ``delta`` in ``[g_max, min(2*g_max, 2*radius +
    2*g_min))``.

    ``chain_density`` sets the target number of chains per unit volume.
    If a chain cannot be placed within ``max_attempts`` draws, placement
    stops and the partial configuration carries a warning.  A grid hash
    with cells just wider than the minimal centre distance limits each
    clearance check to the occupied centres in the 27 cells around each
    ball of the candidate chain.
    """
    g_min, g_max = float(gap_range[0]), float(gap_range[1])
    if chain_len_max < 1:
        raise ValueError("chain_len_max must be >= 1")
    if not (0.0 < g_min <= g_max):
        raise ValueError("gap_range must satisfy 0 < g_min <= g_max")
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if not (N > radius):
        raise ValueError("box half-width must exceed the radius")

    rng = np.random.default_rng(seed)
    n_chains_target = max(1, int(round(chain_density * (2.0 * N) ** 3)))
    clearance = 2.0 * g_max
    min_center_dist = 2.0 * radius + clearance

    occupied = np.empty((1024, 3))
    n_occupied = 0
    warnings = ()
    # Grid hash with cells a hair wider than min_center_dist, so that no
    # rounding in ``floor`` hides a neighbour: only 27 cells per ball matter.
    cell = min_center_dist * (1.0 + 1e-9)
    grid: dict[tuple[int, int, int], list[int]] = {}

    for n_chains in range(n_chains_target):
        for _attempt in range(max_attempts):
            length = int(rng.integers(1, chain_len_max + 1))
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            gaps = rng.uniform(g_min, g_max, size=max(length - 1, 0))
            steps = np.concatenate([[0.0], np.cumsum(2.0 * radius + gaps)])
            start = rng.uniform(-N + radius, N - radius, size=3)
            chain = start[None, :] + steps[:, None] * direction[None, :]
            if np.max(np.abs(chain)) + radius >= N:
                continue
            keys = np.floor(chain / cell).astype(np.int64).tolist()
            near = [k for c in {(x + dx, y + dy, z + dz) for x, y, z in keys
                                for dx, dy, dz in _NEIGHBOUR_OFFSETS}
                    for k in grid.get(c, ())]
            if near:
                d2 = np.sum((chain[:, None, :] - occupied[None, near, :]) ** 2,
                            axis=2)
                if d2.min() <= min_center_dist * min_center_dist:
                    continue
            if n_occupied + length > occupied.shape[0]:
                occupied = np.concatenate(
                    [occupied, np.empty((max(n_occupied, length), 3))])
            occupied[n_occupied:n_occupied + length] = chain
            for k, key in enumerate(keys, start=n_occupied):
                grid.setdefault(tuple(key), []).append(k)
            n_occupied += length
            break
        else:
            warnings = (f"placement budget exhausted after "
                        f"{n_chains} of {n_chains_target} chains",)
            break

    centers = occupied[:n_occupied].copy()
    radii = np.full(centers.shape[0], float(radius))
    return SphereConfig(centers, radii, N, model="chain_forest", seed=seed,
                        contact_tol=contact_tol, warnings=warnings)


# ---------------------------------------------------------------------------
# Cluster moment statistic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEstimate:
    """Monte-Carlo estimate with its standard error."""

    mean: float
    stderr: float
    n_samples: int


def cluster_moment_statistic(config, graph, p, n_samples, seed,
                             quantity="diam") -> MomentEstimate:
    """Spatial average of ``diam(C_y)^p`` over uniform points of the box.

    ``C_y`` is the multigraph cluster containing the point ``y`` (zero
    contribution when ``y`` is outside every ball).  ``quantity`` selects
    the moment: ``"diam"`` for cluster diameters, ``"count"`` for cluster
    cardinalities.
    """
    from .multigraph import clusters as graph_clusters

    if not (p > 0):
        raise ValueError("p must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if quantity not in ("diam", "count"):
        raise ValueError("quantity must be 'diam' or 'count'")

    rng = np.random.default_rng(seed)
    N = config.box_half_width
    points = rng.uniform(-N, N, size=(n_samples, 3))

    if config.n_spheres == 0:
        return MomentEstimate(0.0, 0.0, n_samples)

    if graph.sphere_node is None:
        raise ValueError("graph carries no sphere geometry; build it "
                         "from the configuration before sampling")
    part = graph_clusters(graph)
    sphere_cluster = part.node_cluster[graph.sphere_node]
    if quantity == "diam":
        cluster_value = np.asarray(part.diameters, dtype=float)
    else:
        cluster_value = np.asarray(part.cardinalities, dtype=float)

    tree = cKDTree(config.centers)
    r_max = float(config.radii.max())
    values = np.zeros(n_samples)
    hits = tree.query_ball_point(points, r=r_max, return_sorted=True)
    for k, cand in enumerate(hits):
        for idx in cand:
            dx = points[k] - config.centers[idx]
            if dx @ dx <= config.radii[idx] ** 2:
                values[k] = cluster_value[sphere_cluster[idx]] ** p
                break
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return MomentEstimate(mean, stderr, n_samples)
