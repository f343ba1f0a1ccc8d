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

import math
import sys
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
# The range rule, (test, statement), of a configuration's contact_tol;
# criteria.check_model checks a scan's value by it.
_CONTACT_TOL = (lambda v: 0.0 < v < math.inf, "positive and finite")


class SchemaError(ValueError):
    """A document does not match its expected schema."""


class _once:
    """A method read as an attribute, computed on first read and kept in the
    instance ``__dict__`` (a raise keeps nothing): ``cached_property``
    without the lock that, on Python <= 3.11, all instances share."""

    def __init__(self, method):
        self.method, self.name = method, method.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.name, self.method(instance))


def _is_json_number(value):
    """True for a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_int(value, what):
    """``value`` as an int: a JSON integer or integral float, not a bool,
    of a magnitude within the float range."""
    if (not _is_json_number(value) or not abs(value) <= sys.float_info.max
            or value % 1):
        raise SchemaError(f"{what} must be an integer in the float range, "
                          f"got {value!r}")
    return int(value)


def _json_number(value, what):
    """``value`` as a float: a JSON number, not a bool.

    An integer beyond the float range reads as inf or -inf, so the range
    check of the field answers it.
    """
    if not _is_json_number(value):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _json_numbers(value, what):
    """``value`` as a list of floats: a nonempty JSON list of numbers.

    A tuple or an array, as flags and direct calls pass, reads as a list.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not (isinstance(value, (list, tuple)) and value):
        raise SchemaError(f"{what} must be a nonempty list of numbers, "
                          f"got {value!r}")
    return [_json_number(v, what) for v in value]


def _json_str(value, what):
    """``value``, a JSON string."""
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string, got {value!r}")
    return value


def _check_range(value, rule, what):
    """Raise ValueError unless ``value`` passes ``rule``, (test, statement)."""
    if not rule[0](value):
        raise ValueError(f"{what} must be {rule[1]}, got {value!r}")


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
        _check_range(contact_tol, _CONTACT_TOL, "contact_tol")
        self.centers = centers
        self.radii = radii
        self.box_half_width = float(box_half_width)
        self.model = str(model)
        self.seed = int(seed)
        self.contact_tol = float(contact_tol)
        # Generation diagnostics (e.g. saturation); not part of the value,
        # not serialized, excluded from equality.
        self.warnings = tuple(warnings)
        # The widest pair table asked of this configuration, (width, pairs,
        # centre distances), see ``_near_pairs``, and its contact partition,
        # see ``_contact_partition``; caches, not part of the value either.
        self._near = self._contact = None

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
            centers = [[_json_number(v, "sphere center entry")
                        for v in entry["c"]] for entry in spheres]
            radii = [_json_number(entry["r"], "sphere radius")
                     for entry in spheres]
            return cls(
                np.array(centers, dtype=float).reshape(-1, 3),
                np.array(radii, dtype=float),
                _json_number(data["box_half_width"],
                             "configuration field 'box_half_width'"),
                model=data["model"],
                seed=_json_int(data["seed"], "configuration field 'seed'"),
                contact_tol=_json_number(data["contact_tol"],
                                         "configuration field 'contact_tol'"),
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
    # Sort for deterministic downstream iteration: the pairs are distinct,
    # so the one key i*n + j gives lexicographic order.
    return pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]


def _near_pairs(config, width):
    """Candidate pairs with centre distance <= r_i + r_j + ``width``.

    Returns ``(pairs, dist)``: ``_pairs_within`` pairs in lexicographic
    order and their centre distances by ``np.linalg.norm``.  The
    configuration keeps its widest table and answers a narrower width from
    it, a superset of the narrower query's pairs; callers apply their exact
    test to the distances, so the answer does not depend on the table.
    """
    if config._near is None or config._near[0] < width:
        centers = config.centers
        pairs = _pairs_within(centers, config.radii, width)
        dist = np.linalg.norm(centers[pairs[:, 0]] - centers[pairs[:, 1]],
                              axis=1)
        config._near = (width, pairs, dist)
    return config._near[1], config._near[2]


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
    ``d < r_sum``.  The candidates come from the configuration's pair
    table (``_near_pairs``), which a wider earlier query may already hold.
    """
    pairs, d = _near_pairs(config, config.contact_tol)
    r_sum = config.radii[pairs[:, 0]] + config.radii[pairs[:, 1]]
    touching = d <= r_sum + config.contact_tol
    return pairs[touching], d[touching], r_sum[touching]


def _contact_partition(config: SphereConfig):
    """``(labels, comp_reach)``, computed once and kept by ``config``: each
    ball's component of the contact graph, numbered by smallest ball index,
    and each component's largest ball reach ``max_i |c_i| + r``."""
    if config._contact is None:
        pairs = _contact_pairs(config)[0]
        m, labels = _connected_labels(config.n_spheres, *pairs.T)
        reach = np.max(np.abs(config.centers), axis=1) + config.radii
        comp_reach = np.full(m, -np.inf)
        np.maximum.at(comp_reach, labels, reach)
        config._contact = (labels, comp_reach)
    return config._contact


def components(config: SphereConfig) -> ComponentSet:
    """Connected components of a configuration.

    Components are the connected sets of the graph joining sphere pairs
    with center distance at most ``r_i + r_j + contact_tol``; they are
    numbered by their smallest sphere index, and read with the boundary
    flags off the configuration's ``_contact_partition``.  Component volume
    uses pairwise inclusion-exclusion only; the generators never produce
    triple overlaps, and ``triple_overlap_possible`` records whether the
    truncation could matter for this instance.
    """
    centers, radii = config.centers, config.radii
    touching, d, r_sum = _contact_pairs(config)
    overlaps, overlap_dist = touching[d < r_sum], d[d < r_sum]
    labels, comp_reach = _contact_partition(config)
    m = comp_reach.size

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

    The returned configuration inherits the pair table of ``config`` (see
    ``_near_pairs``): the pairs with both balls kept, renumbered in the
    same order.  Its largest radius is no larger, so they are still a
    superset of its own query at the table's width.  It inherits the kept
    part of ``_contact_partition`` too, renumbered: whole components kept
    in ball order are its own partition.
    """
    if not (0.0 < M <= config.box_half_width):
        raise ValueError(f"need 0 < M <= box_half_width, got M={M}")
    labels, comp_reach = _contact_partition(config)
    keep = comp_reach[labels] < M
    out = SphereConfig(
        config.centers[keep],
        config.radii[keep],
        M,
        model=config.model,
        seed=config.seed,
        contact_tol=config.contact_tol,
        warnings=config.warnings,
    )
    width, pairs, dist = config._near
    both = keep[pairs[:, 0]] & keep[pairs[:, 1]]
    out._near = (width, (np.cumsum(keep) - 1)[pairs[both]], dist[both])
    kept, out_labels = np.unique(labels[keep], return_inverse=True)
    out._contact = (out_labels, comp_reach[kept])
    return out


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# Most attempts a placement block draws ahead (a chain block also stops at
# this many balls): bounds its arrays and pairs when a run saturates.  The
# placed balls do not depend on it, and fewer, larger blocks rebuild the
# placed balls' KD-tree less often (an N 50 chain cell of 7.7k balls takes
# 2 blocks, not the 8 of 2048).
_BLOCK_BALLS = 8192


def _row_dots(v):
    """``v_k @ v_k`` for each row, rounded as one BLAS dot product;
    ``np.sum(v * v, axis=1)`` sums in another order and can differ in the
    last bit.  ``np.sqrt`` of it is ``np.linalg.norm`` of each row."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _row_norms(v):
    """Euclidean norms of the rows of ``v``, rounded as ``np.linalg.norm``."""
    return np.sqrt(_row_dots(v))


def _place_in_blocks(draw, n_target, max_attempts, reach, conflict, warning):
    """Place ``n_target`` items in order, each within ``max_attempts`` tries.

    ``draw(k)`` makes the next ``k`` attempts and returns ``(n, owner,
    balls)``: the number of attempts made, and the balls of the attempts
    still in the running, each with its attempt's index in the block.  An
    attempt is accepted when ``conflict(diff)``, the exact test on centre
    differences, holds between none of its balls and a placed ball; balls
    ``reach`` or more apart never conflict.

    An attempt's outcome never changes what later attempts draw, so a block
    drawn ahead places what one attempt at a time would.  One KD-tree of
    the block's balls, queried a hair past ``reach``, finds their candidate
    pairs with placed balls and among themselves; ``conflict`` decides
    each, and one in-order pass accepts, never an attempt that a placed
    ball blocks.  The next block draws 3/2 of the attempts the items left
    would take at this block's rate: the seed-0 chains cells of the
    benchmark (N 30, 40, 50) take 2, 3 and 2 blocks, where the rate itself
    takes 4, 5 and 6.  Returns ``(centers, warnings)``, with
    ``warning`` formatted with the counts if an item ran out of attempts.
    """
    r_query = reach * (1.0 + 1e-9)
    placed = np.empty((0, 3))
    n_placed = tries = 0
    k = n_target
    while n_placed < n_target and tries < max_attempts:
        n, owner, balls = draw(min(k, _BLOCK_BALLS))
        blocked = np.bincount(owner, minlength=n) == 0
        tree = cKDTree(balls)
        near = tree.sparse_distance_matrix(cKDTree(placed), r_query,
                                           output_type="ndarray")
        hit = conflict(balls[near["i"]] - placed[near["j"]])
        blocked[owner[near["i"][hit]]] = True
        i, j = tree.query_pairs(r_query, output_type="ndarray").T
        hit = (owner[i] != owner[j]) & conflict(balls[i] - balls[j])
        # Conflicting attempt pairs (earlier, later), grouped by the later.
        key = np.unique(owner[j[hit]] * n + owner[i[hit]])
        earlier = (key % n).tolist()
        start = np.searchsorted(key // n, np.arange(n + 1)).tolist()
        accepted = [False] * n
        blocked = blocked.tolist()
        for a in range(n):
            tries += 1
            if not (blocked[a] or any(accepted[e] for e in
                                      earlier[start[a]:start[a + 1]])):
                accepted[a] = True
                n_placed += 1
                tries = 0
                if n_placed == n_target:
                    break
            elif tries == max_attempts:
                break
        placed = np.concatenate([placed, balls[np.array(accepted)[owner]]])
        # Size the next block by this one's attempts per placed item.
        made = sum(accepted)
        k = -(-3 * (n_target - n_placed) * n // (2 * made)) if made else 2 * n
    if n_placed < n_target:
        return placed, (warning.format(n_placed, n_target),)
    return placed, ()


# The target count of balls or chains in a box, density times (2N)^3, is
# capped like other sizes: the generator rounds it to an int and places
# up to that many.  The lattice's count of cells has the same cap.
_MAX_TARGET = 10 ** 8


def _check_target(density, N, what):
    count = density * (2.0 * N) ** 3
    if not (count <= _MAX_TARGET):
        raise ValueError(f"{what} * (2N)^3 must be at most 10**8, got "
                         f"{count!r} at N {N!r}")


def check_hardcore(N, intensity, radius, min_gap, max_attempts):
    """Raise ValueError unless ``generate_hardcore`` takes these values."""
    if not (intensity >= 0.0):
        raise ValueError("intensity must be >= 0")
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if not (min_gap >= 0.0):
        raise ValueError("min_gap must be >= 0")
    if not (max_attempts >= 1):
        raise ValueError("max_attempts must be >= 1")
    if not (N >= radius):
        raise ValueError("box half-width must be at least the radius")
    _check_target(intensity, N, "intensity")


def generate_hardcore(seed, N, intensity, radius, min_gap,
                      contact_tol=DEFAULT_CONTACT_TOL,
                      max_attempts=200) -> SphereConfig:
    """Random sequential adsorption of equal balls in ``(-N, N)^3``.

    Places ``round(intensity * |Q_N|)`` balls of the given radius, centers
    uniform in the box, every pair of accepted centers at distance at least
    ``2 * radius + min_gap``.  If a target ball cannot be placed within
    ``max_attempts`` draws, placement stops and the partial configuration
    is returned with a ``"saturated"`` warning.

    Centres are drawn in blocks by ``_place_in_blocks``: ``k`` attempts
    are one ``rng.uniform(-N, N, size=(k, 3))``, the same doubles as ``k``
    draws of size 3, so the balls are those of one draw at a time.
    ``check_hardcore`` states the ranges of the arguments.
    """
    check_hardcore(N, intensity, radius, min_gap, max_attempts)

    rng = np.random.default_rng(seed)
    n_target = int(round(intensity * (2.0 * N) ** 3))
    min_dist = 2.0 * radius + min_gap

    def conflict(diff):
        # float_power squares by C pow, as a scalar ``x ** 2`` does; the
        # array ``diff ** 2`` multiplies and can differ in the last bit.
        sq = np.float_power(diff, 2)
        return (sq[:, 0] + sq[:, 1]) + sq[:, 2] < min_dist * min_dist

    centers, warnings = _place_in_blocks(
        lambda k: (k, np.arange(k), rng.uniform(-N, N, size=(k, 3))),
        n_target, max_attempts, min_dist, conflict,
        "saturated: placed {} of {} balls")
    radii = np.full(centers.shape[0], float(radius))
    return SphereConfig(centers, radii, N, model="hardcore", seed=seed,
                        contact_tol=contact_tol, warnings=warnings)


def check_lattice_jitter(N, spacing, radius, jitter, allow_overlap):
    """Raise ValueError unless ``generate_lattice_jitter`` takes these values.

    The generator draws a ball in each of the (ceil(N/spacing) -
    floor(-N/spacing))^3 whole cells that cover the box before it drops
    those outside, so that count is at most 10**8.  It is computed in
    floats, without an array, so an infinite N gets a range message too.
    """
    if not (spacing > 0.0):
        raise ValueError("spacing must be positive")
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if not (jitter >= 0.0):
        raise ValueError("jitter must be >= 0")
    if not allow_overlap:
        if radius >= spacing / 2.0:
            raise ValueError("radius >= spacing/2 forces overlaps; "
                             "pass allow_overlap=True to permit them")
        if jitter >= spacing / 2.0 - radius:
            raise ValueError("jitter too large: may force overlaps")
    side = float(np.ceil(N / spacing) - np.floor(-N / spacing))
    cells = side * side * side      # a float product overflows to inf
    if not (cells <= _MAX_TARGET):
        raise ValueError(f"lattice cell count (ceil(N/spacing) - "
                         f"floor(-N/spacing))^3 must be at most 10**8, got "
                         f"{cells!r} at N {N!r}")


def generate_lattice_jitter(seed, N, spacing, radius, jitter,
                            allow_overlap=False,
                            contact_tol=DEFAULT_CONTACT_TOL) -> SphereConfig:
    """One ball per cubic cell of side ``spacing`` intersecting the box.

    Cell ``k`` covers ``[k*s, (k+1)*s)^3``; the ball sits at the cell center
    displaced uniformly in ``[-jitter, jitter]^3``.  Unless overlaps are
    explicitly allowed, parameters must keep distinct balls disjoint:
    ``jitter < spacing/2 - radius``.
    """
    check_lattice_jitter(N, spacing, radius, jitter, allow_overlap)

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


def check_chain_forest(N, radius, chain_len_max, gap_range, chain_density,
                       max_attempts):
    """Raise ValueError unless ``generate_chain_forest`` takes these values.

    An attempt's doubles are drawn at once, hence ``chain_len_max <=
    10**6``.
    """
    g_min, g_max = float(gap_range[0]), float(gap_range[1])
    if not (1 <= chain_len_max <= 10 ** 6):
        raise ValueError("chain_len_max must be in [1, 10**6]")
    if not (0.0 <= chain_density < math.inf):
        raise ValueError("chain_density must be finite and >= 0")
    if not (max_attempts >= 1):
        raise ValueError("max_attempts must be >= 1")
    if not (0.0 < g_min <= g_max):
        raise ValueError("gap_range must satisfy 0 < g_min <= g_max")
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if not (N > radius):
        raise ValueError("box half-width must exceed the radius")
    _check_target(chain_density, N, "chain_density")


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
    stops and the partial configuration carries a warning.

    Chains are placed in blocks by ``_place_in_blocks``.  An attempt of
    ``n`` balls makes three ``rng`` calls: ``integers(1, chain_len_max +
    1)`` for ``n``, ``standard_normal(3)`` for the direction, and
    ``random(n + 2)``, whose first ``n - 1`` doubles ``u`` give the gaps
    and last 3 the start.  The block maps them at once by ``low + (high -
    low) * u``, the arithmetic of ``rng.uniform``, so every gap and start
    is bitwise that of ``uniform(g_min, g_max, n - 1)`` and ``uniform(-N +
    radius, N - radius, 3)`` drawn in turn.  Balls and box test are then
    computed per block, rounding as per chain, so the chains are those of
    one attempt at a time.  ``check_chain_forest`` states the ranges of
    the arguments.
    """
    check_chain_forest(N, radius, chain_len_max, gap_range, chain_density,
                       max_attempts)
    g_min, g_max = float(gap_range[0]), float(gap_range[1])

    rng = np.random.default_rng(seed)
    n_chains_target = max(1, int(round(chain_density * (2.0 * N) ** 3)))
    min_center_dist = 2.0 * radius + 2.0 * g_max
    lo, hi = float(-N + radius), float(N - radius)

    def draw(k):
        lengths, directions, doubles = [], [], []
        n_balls = 0
        while len(lengths) < k and n_balls < _BLOCK_BALLS:
            n = int(rng.integers(1, chain_len_max + 1))
            lengths.append(n)
            directions.append(rng.standard_normal(3))
            doubles.append(rng.random(n + 2))
            n_balls += n
        lengths, directions = np.array(lengths), np.array(directions)
        owner = np.repeat(np.arange(len(lengths)), lengths)
        first = np.cumsum(lengths) - lengths
        # An attempt's n + 2 doubles are its n - 1 gaps, then its start.
        u = np.concatenate(doubles)
        at_start = (np.cumsum(lengths + 2)[:, None] - (3, 2, 1)).ravel()
        starts = lo + (hi - lo) * u[at_start].reshape(-1, 3)
        gaps = g_min + (g_max - g_min) * np.delete(u, at_start)
        # Each ball's distance from its chain's start: the cumsum of 2r + gap
        # along the chain's row, zero-padded to the block's longest chain.
        pad = np.arange(lengths.max()) < lengths[:, None]
        rows = np.zeros(pad.shape)
        rows[:, 1:][pad[:, 1:]] = 2.0 * radius + gaps
        step = np.cumsum(rows, axis=1)[pad]
        directions /= _row_norms(directions)[:, None]
        balls = starts[owner] + step[:, None] * directions[owner]
        reach = np.maximum.reduceat(np.abs(balls).max(axis=1), first)
        inside = (reach + radius < N)[owner]
        return len(lengths), owner[inside], balls[inside]

    def conflict(diff):
        return np.sum(diff ** 2, axis=1) <= min_center_dist * min_center_dist

    centers, warnings = _place_in_blocks(
        draw, n_chains_target, max_attempts, min_center_dist, conflict,
        "placement budget exhausted after {} of {} chains")
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


# The range rule, (test, statement), of each cluster_moment_statistic
# argument; criteria.TASKS checks the clustermoment task values by them.
# The sample points are drawn at once, 24 bytes each, hence the 10**6 cap.
_CLUSTER_MOMENT_RULES = {
    "p": (lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    "n_samples": (lambda v: 1 <= v <= 10 ** 6, "in [1, 10**6]"),
    "quantity": (lambda v: v in ("diam", "count"), "diam or count"),
}


def _scalar_powers(values, p):
    """``v ** p`` for each entry, rounded as numpy's scalar power.

    The array power may take a vectorised pow that differs in the last
    bit, so each distinct value is raised once as a scalar.
    """
    distinct, index = np.unique(values, return_inverse=True)
    return np.array([v ** p for v in distinct])[index]


def cluster_moment_statistic(config, graph, p, n_samples, seed,
                             quantity) -> MomentEstimate:
    """Spatial average of ``diam(C_y)^p`` over uniform points of the box.

    ``C_y`` is the multigraph cluster containing the point ``y`` (zero
    contribution when ``y`` is outside every ball).  ``quantity`` selects
    the moment: ``"diam"`` for cluster diameters, ``"count"`` for cluster
    cardinalities.

    Each point's ball is found in one vectorised pass: a single KD-tree
    query pairs the points with the centres a hair past the largest
    radius, the exact test ``dx . dx <= r**2`` keeps the pairs inside
    their ball, and each point takes its lowest-index containing ball.
    """
    from .multigraph import clusters as graph_clusters

    for name, value in (("p", p), ("n_samples", n_samples),
                        ("quantity", quantity)):
        _check_range(value, _CLUSTER_MOMENT_RULES[name], name)

    rng = np.random.default_rng(seed)
    N = config.box_half_width
    points = rng.uniform(-N, N, size=(n_samples, 3))

    if config.n_spheres == 0:
        return MomentEstimate(0.0, 0.0)

    if graph.sphere_node is None:
        raise ValueError("graph carries no sphere geometry; build it "
                         "from the configuration before sampling")
    part = graph_clusters(graph)
    sphere_cluster = part.node_cluster[graph.sphere_node]
    if quantity == "diam":
        cluster_value = np.asarray(part.diameters, dtype=float)
    else:
        cluster_value = np.asarray(part.cardinalities, dtype=float)

    r_max = float(config.radii.max())
    pairs = cKDTree(points).sparse_distance_matrix(
        cKDTree(config.centers), r_max * (1.0 + 1e-9), output_type="ndarray")
    point, ball = pairs["i"], pairs["j"]
    inside = (_row_dots(points[point] - config.centers[ball])
              <= _scalar_powers(config.radii[ball], 2))
    first = np.full(n_samples, config.n_spheres)
    np.minimum.at(first, point[inside], ball[inside])
    hit = first < config.n_spheres
    values = np.zeros(n_samples)
    values[hit] = _scalar_powers(cluster_value[sphere_cluster[first[hit]]], p)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return MomentEstimate(mean, stderr)
