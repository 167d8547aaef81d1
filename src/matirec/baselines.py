"""Non-temporal scorers: user-based CF, social influence, geographic power law.

The three components mix into the USG score, which also supplies the
non-temporal visit probability consumed by the latent temporal model and the
per-POI influence weights of the univariate model.  The social weighting is
a documented reconstruction (the original formulation is external to this
project): friends are weighted by the Jaccard overlap of their combined
friend-and-POI sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .ingest import CheckInLog

EARTH_RADIUS_KM = 6371.0088


class UserPoiMatrix:
    """Sparse user-by-POI visit counts with a binary view and inverted index."""

    def __init__(self, log: CheckInLog):
        counts: dict[str, dict[str, int]] = {}
        visitors: dict[str, set[str]] = {}
        for c in log.checkins:
            row = counts.setdefault(c.user_id, {})
            row[c.poi_id] = row.get(c.poi_id, 0) + 1
            visitors.setdefault(c.poi_id, set()).add(c.user_id)
        self.counts = counts
        self.pois_of: dict[str, frozenset[str]] = {u: frozenset(row) for u, row in counts.items()}
        self.visitors: dict[str, frozenset[str]] = {p: frozenset(v) for p, v in visitors.items()}
        self.all_pois: tuple[str, ...] = tuple(sorted(visitors))

    def visited(self, user: str, poi: str) -> bool:
        return poi in self.counts.get(user, ())

    def candidates_for(self, user: str) -> list[str]:
        """All POIs the user has not visited, in id order."""
        seen = self.pois_of.get(user, frozenset())
        return [p for p in self.all_pois if p not in seen]


def top_neighbors(matrix: UserPoiMatrix, user: str, k: int,
                  exclude_poi: str | None = None) -> list[tuple[str, float]]:
    """Top-k cosine neighbors of ``user`` that share at least one POI.

    ``exclude_poi`` drops one POI from the user's profile first (leave-one-out
    scoring for the univariate influence weights).  Ties break on user id.
    """
    profile = set(matrix.pois_of.get(user, frozenset()))
    if exclude_poi is not None:
        profile.discard(exclude_poi)
    if not profile:
        return []
    overlap: dict[str, int] = {}
    for poi in profile:
        for v in matrix.visitors.get(poi, ()):
            if v != user:
                overlap[v] = overlap.get(v, 0) + 1
    scored = []
    for v, shared in overlap.items():
        sim = shared / math.sqrt(len(profile) * len(matrix.pois_of[v]))
        scored.append((v, sim))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def ubcf_score(user: str, poi: str, matrix: UserPoiMatrix, k_neighbors: int = 50) -> float:
    """Weighted-neighbor visit rate over the top-k cosine-similar users."""
    neighbors = top_neighbors(matrix, user, k_neighbors)
    return ubcf_from_neighbors(neighbors, poi, matrix)


def ubcf_from_neighbors(neighbors: Sequence[tuple[str, float]], poi: str,
                        matrix: UserPoiMatrix) -> float:
    total = sum(sim for _, sim in neighbors)
    if total == 0:
        return 0.0
    hit = sum(sim for v, sim in neighbors if matrix.visited(v, poi))
    return hit / total


def social_tokens(matrix: UserPoiMatrix, friends: Mapping[str, frozenset[str]],
                  user: str, exclude_poi: str | None = None) -> frozenset[tuple[str, str]]:
    """Combined friend + POI token set used for the social Jaccard weight.

    The user themself is included on the friend side so that a mutual
    friendship contributes overlap even without common neighbors.
    """
    pois = set(matrix.pois_of.get(user, frozenset()))
    if exclude_poi is not None:
        pois.discard(exclude_poi)
    circle = set(friends.get(user, frozenset())) | {user}
    return frozenset({("f", f) for f in circle} | {("p", p) for p in pois})


def friend_weights(matrix: UserPoiMatrix, friends: Mapping[str, frozenset[str]],
                   user: str, exclude_poi: str | None = None) -> list[tuple[str, float]]:
    """Jaccard weight of each friend against the user's combined token set."""
    mine = social_tokens(matrix, friends, user, exclude_poi)
    out = []
    for f in sorted(friends.get(user, frozenset())):
        theirs = social_tokens(matrix, friends, f)
        union = len(mine | theirs)
        weight = len(mine & theirs) / union if union else 0.0
        out.append((f, weight))
    return out


def social_score(user: str, poi: str, matrix: UserPoiMatrix,
                 friends: Mapping[str, frozenset[str]]) -> float:
    """Like UBCF but restricted to friends, weighted by the Jaccard overlap."""
    weights = friend_weights(matrix, friends, user)
    return social_from_weights(weights, poi, matrix)


def social_from_weights(weights: Sequence[tuple[str, float]], poi: str,
                        matrix: UserPoiMatrix) -> float:
    total = sum(w for _, w in weights)
    if total == 0:
        return 0.0
    hit = sum(w for f, w in weights if matrix.visited(f, poi))
    return hit / total


def friend_map(log: CheckInLog) -> dict[str, frozenset[str]]:
    adj: dict[str, set[str]] = {}
    for a, b in log.social_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return {u: frozenset(v) for u, v in adj.items()}


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km on the WGS-84 mean sphere."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


@dataclass(frozen=True)
class GeoModel:
    """Power law Pr(d) = exp(log_a) * d**b over same-user POI pair distances."""

    log_a: float
    b: float
    d_min_km: float = 0.1

    def log_prob(self, distance_km: float) -> float:
        return self.log_a + self.b * math.log(max(distance_km, self.d_min_km))


def poi_coordinates(log: CheckInLog) -> dict[str, tuple[float, float]]:
    """First observed coordinate per POI (coordinates are assumed fixed)."""
    coords: dict[str, tuple[float, float]] = {}
    for c in log.checkins:
        coords.setdefault(c.poi_id, (c.lat, c.lon))
    return coords


def fit_geo_model(log: CheckInLog, bin_km: float = 0.5, d_min_km: float = 0.1) -> GeoModel:
    """Fit the distance power law by the closed-form normal equation.

    Pairwise haversine distances over every same-user distinct-POI pair are
    binned at ``bin_km`` resolution (floored at ``d_min_km``), converted to a
    probability mass per bin, and log Pr is regressed on log bin-center.
    """
    coords = poi_coordinates(log)
    bins: dict[int, int] = {}
    for user in sorted(log.by_user):
        pois = sorted(log.distinct_pois(user))
        for i, p in enumerate(pois):
            for q in pois[i + 1:]:
                d = max(haversine_km(*coords[p], *coords[q]), d_min_km)
                k = int(d // bin_km)
                bins[k] = bins.get(k, 0) + 1
    if len(bins) < 2:
        raise DataError("geo fit needs at least 2 distinct distance bins with positive frequency")
    total = sum(bins.values())
    xs = np.array([math.log((k + 0.5) * bin_km) for k in sorted(bins)])
    ys = np.array([math.log(bins[k] / total) for k in sorted(bins)])
    design = np.column_stack([np.ones_like(xs), xs])
    coef = np.linalg.solve(design.T @ design, design.T @ ys)
    return GeoModel(log_a=float(coef[0]), b=float(coef[1]), d_min_km=d_min_km)


def geo_log_score(history_coords: Sequence[tuple[float, float]],
                  target: tuple[float, float], model: GeoModel) -> float:
    """Log of the product of power-law probabilities from each visited POI.

    An empty history is neutral (log 1 = 0); per-user max-normalization over
    the candidate set happens at ranking time.
    """
    return sum(model.log_prob(haversine_km(lat, lon, target[0], target[1]))
               for lat, lon in history_coords)


def geo_scores(user_history_coords: Sequence[tuple[float, float]],
               candidates: Sequence[str], coords: Mapping[str, tuple[float, float]],
               model: GeoModel) -> dict[str, float]:
    """Per-user max-normalized geographic scores in [0, 1] for all candidates."""
    logs = {l: geo_log_score(user_history_coords, coords[l], model) for l in candidates}
    if not logs:
        return {}
    top = max(logs.values())
    return {l: math.exp(v - top) for l, v in logs.items()}


@dataclass(frozen=True)
class UsgWeights:
    """Mixing weights: score = (1-alpha-beta)*cf + alpha*social + beta*geo."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0 <= self.alpha < 1 or not 0 <= self.beta < 1 or self.alpha + self.beta >= 1:
            raise ConfigError(f"usg weights need alpha,beta in [0,1) with alpha+beta < 1, "
                              f"got alpha={self.alpha} beta={self.beta}")


def max_normalize(scores: Mapping[str, float]) -> dict[str, float]:
    """Divide by the per-user maximum; an all-zero map stays zero."""
    if not scores:
        return {}
    top = max(scores.values())
    if top <= 0:
        return dict(scores)
    return {k: v / top for k, v in scores.items()}


def usg_score(cf: float, social: float, geo: float, weights: UsgWeights) -> float:
    """Convex mix of the three (already max-normalized) component scores."""
    return (1 - weights.alpha - weights.beta) * cf + weights.alpha * social + weights.beta * geo


def rank_top_n(scores: Mapping[str, float], n: int) -> tuple[list[str], bool]:
    """Top-n POIs by score descending, ties by ascending id; flags short lists."""
    if n < 1:
        raise ConfigError(f"top-n size must be >= 1, got {n}")
    ordered = sorted(scores, key=lambda p: (-scores[p], p))
    return ordered[:n], len(ordered) < n
