"""Latitude-zone search structure for points on the unit sphere.

Points are partitioned into ``q`` strips ("spherical zones") of equal
colatitude width delta, q = ceil(pi/delta).  Strip k (1-based) holds the
points with colatitude theta = arccos(z) in [(k-1)*delta, k*delta); the
final strip is closed at pi.  A cap query around a center in strip k only
has to examine strips k-i*..k+i* with i* = ceil(radius/delta), because a
point within geodesic distance r of the center differs from it in
colatitude by at most r.  When the query radius equals the strip width,
i* = 1 and exactly three strips are scanned.

The index keeps the points in the caller's order.  Its ``ids`` list them
strip by strip in contiguous runs, strip q first and strip 1 last;
``zone_offsets`` stores the q+1 run boundaries.  Within a run the points are
sorted by longitude phi = arctan2(y, x) + pi, which lies in [0, 2*pi]
(arctan2 gives +pi for y = +0, x < 0, so such a point has phi = 2*pi, on
the seam with phi = 0).

Neighborhood radii come from

    delta = arccos(1 - 2*sqrt(k)*m/n),    k = 1, 2, ...

which sizes a cap holding about sqrt(k)*m of n uniformly scattered points.
``ZoneIndex.nearest_m`` escalates k until the cap holds at least m points,
then keeps the m nearest.  It starts at k = 2, the largest k whose radius
stays within one strip width for m = n_w = 10 on an index built for
n_z = 15, so most centers are done in one round.  The argument of arccos
is clamped to [-1, 1], so the radius saturates at pi (the whole sphere)
and the escalation always terminates.

Longitude windows.  A cap of radius r around a center at colatitude theta
that holds no pole (sin r < sin theta, r < pi/2) reaches only the
longitudes within asin(sin r / sin theta) of the center's; a cap that may
hold a pole takes the whole ring of every strip it reaches.  Each run's
ring is stored twice in ``ring_keys``, the second copy shifted by 2*pi, and
every key carries RING_STRIDE times its run number, so one
``np.searchsorted`` gives the window of any center in any strip as one
slice of the doubled rings, also where the window wraps past the seam.
Whole rings are taken by position, not by key, so the seam points at
phi = 0 and phi = 2*pi are both in them.  ``nearest_m`` searches
SEARCH_CHUNK centers at a time: it gathers the candidates of all windows of
the pending centers, computes their exact distance, the clamped arccos of
``geodesic_distance``, the arithmetic a brute-force scan uses, keeps those
<= radius and orders them by (distance, id); centers whose cap still holds
fewer than m points are queried again at the next k.

The windows drop no point the exact test keeps.  A kept point's computed
dot product with the center is at least cos(r) less a few 1e-16 (the
three-term sum inside ``geodesic_distance`` lies within 3.4e-16 * |u||v| of
the exact dot product, and cos and arccos are accurate to about an ulp).
For vectors within 1e-12 of unit length, as ``fit`` and ``evaluate``
accept, the true angle rho between their directions then has
cos(rho) >= cos(r) - eta with eta < 2.3e-12, so
sin(rho) <= sqrt(sin(r)^2 + 2*eta) < sin(r) + 2.2e-6 for every r.  The
windows use sin(r) + LON_MARGIN, LON_MARGIN = 1e-5, in place of sin(r):
the half-width asin((sin(r) + LON_MARGIN) / s), s = hypot(x, y) of the
center, exceeds the true bound by more than 7e-6 (asin has slope at least
1), which covers the relative error of s (about 1e-12 for such vectors)
and the absolute errors of arctan2, asin and the sums of angles (a few
1e-15) with room to spare.  The same padded sine chooses the whole ring:
a cap that might hold a pole has sin(r) + LON_MARGIN >= s.  Keys are
rounded sums, but rounding is monotone, so a point whose longitude lies in
a window has its key within the window's key bounds.  The m nearest by
(distance, id) do not depend on the strip width or on the radius at which
a center was satisfied, so results are exactly those of a brute-force
(distance, id) sort, tie order included, and one index serves searches for
any m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .sphere import geodesic_distance

# See the module docstring for why this margin loses no point.
LON_MARGIN = 1e-5

# Key spacing of consecutive runs in `ring_keys`: a run's doubled ring spans
# longitudes [0, 4*pi], which is less than the spacing.
RING_STRIDE = 16.0

# Centers searched per step; bounds the candidate arrays of a batched query.
SEARCH_CHUNK = 256


def compute_delta(n: int, m: int, k: int = 1) -> float:
    """Cap radius arccos(1 - 2*sqrt(k)*m/n), clamped into [0, pi]."""
    if n < 1 or m < 1 or k < 1:
        raise ValueError(f"n, m, k must be positive, got n={n}, m={m}, k={k}")
    arg = 1.0 - 2.0 * math.sqrt(k) * m / n
    return float(np.arccos(min(1.0, max(-1.0, arg))))


def _strips(z, delta: float, q: int) -> np.ndarray:
    """1-based strip of each z coordinate, by colatitude; a NaN z gets strip q."""
    theta = np.arccos(z.clip(-1.0, 1.0))
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
    """Immutable point set bucketed into latitude strips, each sorted by longitude."""

    points: np.ndarray        # (n, 3), in the caller's order
    ids: np.ndarray           # point indices, strip runs in array order, each by longitude
    delta: float              # strip width, radians
    zone_count: int           # q
    zone_offsets: np.ndarray  # q+1 run boundaries in `ids`; run i is strip q - i
    ring_keys: np.ndarray     # (2n,) RING_STRIDE*run + longitude, each run's ring twice
    ring_ids: np.ndarray      # (2n,) int32 point index behind each key

    def strip_slice(self, k: int) -> slice:
        """Entries of `ids` in strip k (1-based, by colatitude)."""
        if not 1 <= k <= self.zone_count:
            raise ValueError(f"strip must be in 1..{self.zone_count}, got {k}")
        i = self.zone_count - k
        return slice(int(self.zone_offsets[i]), int(self.zone_offsets[i + 1]))

    def query_cap(self, center, radius: float) -> NeighborSet:
        """All points within geodesic `radius` of `center`, nearest first.

        Ties in distance break toward the lower original index.  The result
        matches a brute-force scan exactly: candidates are filtered with the
        same clamped-arccos distance the scan would use.
        """
        if not 0.0 < radius <= np.pi:
            raise ValueError(f"radius must be in (0, pi], got {radius}")
        _, cand_ids, dists = self._within(np.asarray(center, dtype=float).reshape(1, 3), radius)
        order = np.lexsort((cand_ids, dists))
        return NeighborSet(cand_ids[order].astype(self.ids.dtype), dists[order])

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
        # Centers in z order: a chunk's windows then share strips.
        by_z = centers[:, 2].argsort(kind="stable")
        for lo in range(0, centers.shape[0], SEARCH_CHUNK):
            pending = by_z[lo : lo + SEARCH_CHUNK]
            k = 2
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

        Returns the rows left pending.
        """
        row, cand, d = self._within(centers[pending], radius)
        counts = np.bincount(row, minlength=pending.size)
        full = counts >= m
        if full.any():
            # One padded row of candidates per center, sorted by (distance, id).
            pos = np.arange(row.size) - (counts.cumsum() - counts)[row]
            cand_d = np.full((pending.size, counts.max()), np.inf)
            cand_id = np.zeros(cand_d.shape, dtype=self.ids.dtype)
            cand_d[row, pos] = d
            cand_id[row, pos] = cand
            cand_d, cand_id = cand_d[full], cand_id[full]
            order = np.lexsort((cand_id, cand_d), axis=-1)[:, :m]
            rows = np.arange(order.shape[0])[:, None]
            ids[pending[full]] = cand_id[rows, order]
            dists[pending[full]] = cand_d[rows, order]
        return pending[~full]

    def _within(self, x, radius):
        """(row of x, point index, distance) of each point within `radius` of a row of x."""
        q = self.zone_count
        i_star = math.ceil(radius / self.delta)
        run = (q - _strips(x[:, 2], self.delta, q))[:, None] + np.arange(-i_star, i_star + 1)
        # The padded sine of the module docstring; a cap of pi/2 or more holds a pole.
        sin_r = math.sin(radius) + LON_MARGIN if radius < np.pi / 2 else 2.0
        s = np.hypot(x[:, 0], x[:, 1])
        whole = s <= sin_r
        half = np.arcsin(sin_r / np.maximum(s, sin_r))
        first = np.mod(np.arctan2(x[:, 1], x[:, 0]) + (np.pi - half), 2.0 * np.pi)
        first[whole] = -1.0  # below the run's first key
        base = RING_STRIDE * run
        start = np.searchsorted(self.ring_keys, base + first[:, None])
        stop = np.searchsorted(self.ring_keys, base + (first + 2.0 * half)[:, None], side="right")
        if whole.any():
            sizes = np.pad(np.diff(self.zone_offsets), q)  # 0 outside runs 0..q-1
            stop[whole] = start[whole] + sizes[run[whole] + q]
        count = stop - start
        per_center = count.sum(axis=1)
        start, count = start.ravel(), count.ravel()
        end = count.cumsum()
        # The ring positions of every window, one window after another.
        pos = np.arange(end[-1]) + (start - (end - count)).repeat(count)
        cand = self.ring_ids[pos]
        d = geodesic_distance(self.points.take(cand, axis=0), x.repeat(per_center, axis=0))
        inside = d <= radius  # compress is faster than a boolean index here
        center = np.arange(x.shape[0]).repeat(per_center)
        return center.compress(inside), cand.compress(inside), d.compress(inside)


def build_zones(points, delta: float) -> ZoneIndex:
    """Bucket `points` into latitude strips of width `delta`, each sorted by longitude."""
    if not 0.0 < delta <= np.pi:
        raise ValueError(f"delta must be in (0, pi], got {delta}")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    nan_z = np.isnan(points[:, 2])
    if nan_z.any():  # such a point has no colatitude, so no strip
        raise DataError(f"point {int(np.argmax(nan_z))} has a NaN z coordinate")
    q = math.ceil(np.pi / delta)
    run = q - _strips(points[:, 2], delta, q)
    # fmax sends the NaN longitude of a point with a NaN x or y to 0, which
    # keeps the keys sorted; such a point is never within a finite distance.
    lon = np.fmax(np.arctan2(points[:, 1], points[:, 0]) + np.pi, 0.0)
    ids = np.lexsort((lon, run))
    run, lon = run[ids], lon[ids]
    counts = np.bincount(run, minlength=q)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    # Entry j of `ids`, in run i, is at ring positions offsets[i] + j and offsets[i+1] + j.
    first = offsets[run] + np.arange(ids.size)
    second = first + counts[run]
    ring_keys = np.empty(2 * ids.size)
    ring_ids = np.empty(2 * ids.size, dtype=np.int32)  # half the memory of intp
    ring_keys[first] = RING_STRIDE * run + lon
    ring_keys[second] = RING_STRIDE * run + (lon + 2.0 * np.pi)
    ring_ids[first] = ring_ids[second] = ids
    return ZoneIndex(
        points=points,
        ids=ids,
        delta=float(delta),
        zone_count=q,
        zone_offsets=offsets,
        ring_keys=ring_keys,
        ring_ids=ring_ids,
    )
