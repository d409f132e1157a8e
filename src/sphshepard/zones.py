"""Latitude-zone search structure for points on the unit sphere.

Points are sorted by their z coordinate and partitioned into ``q`` strips
("spherical zones") of equal colatitude width delta, q = ceil(pi/delta).
Strip k (1-based) holds the points with colatitude theta = arccos(z) in
[(k-1)*delta, k*delta); the final strip is closed at pi.  A cap query around
a center in strip k only has to examine strips k-i*..k+i* with
i* = ceil(radius/delta), because a point within geodesic distance r of the
center differs from it in colatitude by at most r.  When the query radius
equals the strip width, i* = 1 and exactly three strips are scanned.

Strips are contiguous runs of the z-sorted array (colatitude decreases as z
grows, so strip q comes first and strip 1 last); ``zone_offsets`` stores the
q+1 run boundaries in array order.

Neighborhood radii come from

    delta = arccos(1 - 2*sqrt(k)*m/n),    k = 1, 2, ...

which sizes a cap holding about sqrt(k)*m of n uniformly scattered points.
``ZoneIndex.nearest_m`` escalates k until the cap holds at least m points,
then keeps the m nearest; the argument of arccos is clamped to [-1, 1], so
the radius saturates at pi (the whole sphere) and the escalation always
terminates.

Batched query.  ``nearest_m`` takes one center or a stack of them.  At each
radius it groups the pending centers by strip; the centers of one strip
share one candidate window, a contiguous slice of the z-sorted points, and
neighbouring strips share one block, with the union of their windows, while
the block's dot-product matrix stays within SEARCH_BLOCK entries.  One BLAS
product gives the dot products of a block's centers with its window, and
only candidates whose dot product is at least
cos(radius) - PREFILTER_MARGIN go on to the exact distance, the clamped
arccos of ``geodesic_distance``, the arithmetic a brute-force scan uses.
Candidates are kept when that distance is <= radius and ordered by
(distance, id); centers whose cap still holds fewer than m points are
queried again at the next k.

The prefilter drops no point the exact test keeps.  The BLAS dot product
and the three-term sum inside ``geodesic_distance`` each lie within
3.4e-16 * |u||v| of the exact dot product, so they differ by at most
7e-16 for unit vectors.  A distance computed as <= r < pi means a clamped
dot product of at least cos(r) less a few 1e-16 (cos and arccos are
accurate to about an ulp, and cos has slope at most 1).  The margin, 1e-12,
covers both with room to spare, also for points a little off unit length.
At radius pi every candidate is kept.  The m nearest by (distance, id) do
not depend on the strip width or on the radius at which a center was
satisfied, so results are exactly those of a brute-force (distance, id)
sort, tie order included, and one index serves searches for any m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .sphere import geodesic_distance

# See the module docstring for why this margin loses no point.
PREFILTER_MARGIN = 1e-12

# Upper bound on the entries of one block's center-by-window dot-product
# matrix, which bounds the working memory of a batched query.
SEARCH_BLOCK = 1 << 18


def compute_delta(n: int, m: int, k: int = 1) -> float:
    """Cap radius arccos(1 - 2*sqrt(k)*m/n), clamped into [0, pi]."""
    if n < 1 or m < 1 or k < 1:
        raise ValueError(f"n, m, k must be positive, got n={n}, m={m}, k={k}")
    arg = 1.0 - 2.0 * math.sqrt(k) * m / n
    return float(np.arccos(np.clip(arg, -1.0, 1.0)))


def _strips(z, delta: float, q: int) -> np.ndarray:
    """1-based strip of each z coordinate, by colatitude; a NaN z gets strip q."""
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    return np.fmin(theta // delta, q - 1).astype(int) + 1


@dataclass(frozen=True)
class NeighborSet:
    """Query result: original point indices and geodesic distances, ascending.

    One query gives 1-D arrays; a batch of p queries gives (p, m) arrays.
    """

    ids: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return self.ids.size


@dataclass(frozen=True)
class ZoneIndex:
    """Immutable z-sorted point set bucketed into latitude strips."""

    points: np.ndarray        # (n, 3), sorted ascending by z
    ids: np.ndarray           # sorted position -> original index
    delta: float              # strip width, radians
    zone_count: int           # q
    zone_offsets: np.ndarray  # q+1 run boundaries; run i is strip q - i

    def strip_slice(self, k: int) -> slice:
        """Rows of `points` in strip k (1-based, by colatitude)."""
        if not 1 <= k <= self.zone_count:
            raise ValueError(f"strip must be in 1..{self.zone_count}, got {k}")
        i = self.zone_count - k
        return slice(int(self.zone_offsets[i]), int(self.zone_offsets[i + 1]))

    def _window(self, k: int, radius: float) -> tuple[int, int]:
        """Rows [lo, hi) of the strips a cap of `radius` centered in strip k can reach."""
        q = self.zone_count
        i_star = math.ceil(radius / self.delta)
        k_lo = max(1, k - i_star)
        k_hi = min(q, k + i_star)
        return int(self.zone_offsets[q - k_hi]), int(self.zone_offsets[q - k_lo + 1])

    def query_cap(self, center, radius: float) -> NeighborSet:
        """All points within geodesic `radius` of `center`, nearest first.

        Ties in distance break toward the lower original index.  The result
        matches a brute-force scan exactly: candidate strips are filtered
        with the same clamped-arccos distance the scan would use.
        """
        if not 0.0 < radius <= np.pi:
            raise ValueError(f"radius must be in (0, pi], got {radius}")
        center = np.asarray(center, dtype=float)
        k = int(_strips(center[2], self.delta, self.zone_count))
        lo, hi = self._window(k, radius)
        dists = geodesic_distance(self.points[lo:hi], center)
        inside = dists <= radius
        cand_ids = self.ids[lo:hi][inside]
        cand_dists = dists[inside]
        order = np.lexsort((cand_ids, cand_dists))
        return NeighborSet(cand_ids[order], cand_dists[order])

    def nearest_m(self, centers, m: int) -> NeighborSet:
        """The m nearest points to each center, via escalating cap queries.

        `centers` is one point, shape (3,), giving 1-D ids and distances, or
        a stack of shape (p, 3), giving (p, m) arrays.  Radii escalate as
        compute_delta(n, m, k), n being the number of indexed points.
        """
        n_pts = self.points.shape[0]
        if m < 1 or m > n_pts:
            raise ValueError(f"m must be in 1..{n_pts}, got {m}")
        centers = np.asarray(centers, dtype=float)
        single = centers.ndim == 1
        centers = centers.reshape(-1, 3)
        ids = np.empty((centers.shape[0], m), dtype=self.ids.dtype)
        dists = np.empty((centers.shape[0], m))
        pending = np.arange(centers.shape[0])
        k = 1
        while pending.size:
            radius = compute_delta(n_pts, m, k)
            pending = self._fill_nearest(centers, pending, radius, m, ids, dists)
            if pending.size and radius >= np.pi:
                # The whole-sphere cap holds every finite point.
                raise DataError(f"center {int(pending.min())} has fewer than {m} points "
                                "within pi: it or an indexed point is not finite")
            k += 1
        if single:
            return NeighborSet(ids[0], dists[0])
        return NeighborSet(ids, dists)

    def _fill_nearest(self, centers, pending, radius, m, ids, dists) -> np.ndarray:
        """Fill the rows `pending` of ids/dists whose cap of `radius` holds m points.

        Centers are grouped by strip.  Runs of neighbouring strips share one
        block, with the union of their windows, while the block's dot-product
        matrix stays within SEARCH_BLOCK entries.  Returns the rows left pending.
        """
        floor = np.cos(radius) - PREFILTER_MARGIN if radius < np.pi else -np.inf
        strip = _strips(centers[pending, 2], self.delta, self.zone_count)
        order = np.argsort(-strip, kind="stable")  # strips in array order
        pending, strip = pending[order], strip[order]
        bounds = [0, *(np.flatnonzero(strip[1:] != strip[:-1]) + 1), strip.size]
        windows = [self._window(int(strip[b]), radius) for b in bounds[:-1]]
        left = []
        g = 0
        while g < len(windows):
            lo, h = windows[g][0], g + 1
            while h < len(windows) and (
                (bounds[h + 1] - bounds[g]) * (windows[h][1] - lo) <= SEARCH_BLOCK
            ):
                h += 1
            hi = windows[h - 1][1]
            step = max(1, SEARCH_BLOCK // max(hi - lo, 1))
            for b0 in range(bounds[g], bounds[h], step):
                block = pending[b0 : min(b0 + step, bounds[h])]
                left.append(self._fill_block(centers, block, lo, hi, floor, radius, m, ids, dists))
            g = h
        return np.concatenate(left) if left else pending[:0]

    def _fill_block(self, centers, block, lo, hi, floor, radius, m, ids, dists) -> np.ndarray:
        """Search rows [lo, hi) for the centers of `block`; returns those not filled."""
        x = centers[block]
        window = self.points[lo:hi]
        row, col = np.divmod(np.flatnonzero(x @ window.T >= floor), hi - lo)
        d = geodesic_distance(window[col], x[row])
        inside = d <= radius
        row, col, d = row[inside], col[inside], d[inside]
        counts = np.bincount(row, minlength=block.size)
        full = counts >= m
        if full.any():
            # One padded row of candidates per center, sorted by (distance, id).
            pos = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
            cand_d = np.full((block.size, counts.max()), np.inf)
            cand_id = np.zeros(cand_d.shape, dtype=self.ids.dtype)
            cand_d[row, pos] = d
            cand_id[row, pos] = self.ids[lo + col]
            cand_d, cand_id = cand_d[full], cand_id[full]
            order = np.lexsort((cand_id, cand_d), axis=-1)[:, :m]
            rows = np.arange(order.shape[0])[:, None]
            ids[block[full]] = cand_id[rows, order]
            dists[block[full]] = cand_d[rows, order]
        return block[~full]


def build_zones(points, delta: float) -> ZoneIndex:
    """Bucket `points` into latitude strips of width `delta`."""
    if not 0.0 < delta <= np.pi:
        raise ValueError(f"delta must be in (0, pi], got {delta}")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    nan_z = np.isnan(points[:, 2])
    if nan_z.any():
        # A NaN z sorts last but falls in strip q, which would shift every run.
        raise DataError(f"point {int(np.argmax(nan_z))} has a NaN z coordinate")
    q = math.ceil(np.pi / delta)
    order = np.argsort(points[:, 2], kind="stable")
    sorted_pts = points[order]
    strip = _strips(sorted_pts[:, 2], delta, q)
    counts = np.bincount(q - strip, minlength=q)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return ZoneIndex(
        points=sorted_pts,
        ids=order,
        delta=float(delta),
        zone_count=q,
        zone_offsets=offsets,
    )
