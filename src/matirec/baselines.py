"""Non-temporal scorers: user-based CF, social influence, geographic power law.

The three components mix into the USG score, which is also the latent
temporal model's non-temporal factor ``Pr_nu``, applied at scoring, and
supplies the per-POI influence weights of the univariate model.  The social
weighting is a documented reconstruction (the original formulation is
external to this project): friends are weighted by the Jaccard overlap of
their combined friend-and-POI sets.

Everything here works on the integer index of ``UserPoiMatrix``: a user's
component scores are numpy vectors over POI ints, built by adding whole CSR
rows (CF, social) or history-by-target distance rows (geo), never one
candidate at a time.  Accumulations run in a fixed order (neighbors by
``(-sim, id)``, friends and history POIs by id) so the sums are reproducible
to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .ingest import CheckInLog, sorted_unique

EARTH_RADIUS_KM = 6371.0088

# Working-array entries per block of users in the all-pairs pass of
# ``distance_bins``: 1 MB per 8-byte array, with a handful of such arrays
# alive at once, so a block's arrays stay near the CPU caches while the
# per-block overhead stays small.
BLOCK_ENTRIES = 1 << 17

_NO_INTS = np.zeros(0, dtype=np.intp)


def _csr(rows: np.ndarray, cols: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the distinct (row, col) pairs, columns ascending."""
    n_cols = int(cols.max()) + 1 if cols.size else 1
    keys = sorted_unique(rows.astype(np.int64) * n_cols + cols)
    rows, cols = np.divmod(keys, n_cols)
    indptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr, cols.astype(np.intp)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``arange(s, s + n)`` over (start, length) pairs, plus each
    entry's pair index."""
    segment = np.repeat(np.arange(len(starts)), lengths)
    offsets = np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return starts[segment] + offsets, segment


def _gather(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows in the given order, plus each entry's position in ``rows``."""
    positions, segment = _ranges(indptr[rows], indptr[rows + 1] - indptr[rows])
    return indices[positions], segment


class UserPoiMatrix:
    """Integer-indexed binary visits, social graph and POI coordinates of a log.

    Users and POIs take their ints from the log's ``columns`` (sorted-id
    order, so int order is id order).  Visits are held as CSR rows
    (``indptr``/``indices``, POI ints ascending) and transposed as each POI's
    visitors (``visitor_indptr``/``visitor_indices``); friendships likewise
    (``friend_indptr``/``friend_indices``).  ``lat``/``lon`` hold each POI's
    first observed coordinate.  Methods taking a user int accept ``None`` for
    a user absent from the log, who has no history and no friends.
    """

    def __init__(self, log: CheckInLog):
        columns = log.columns
        self.users, self.pois = columns.users, columns.pois
        self.user_index, self.poi_index = columns.user_index, columns.poi_index
        self._poi_ids = np.array(self.pois, dtype=object)
        users, pois = columns.user, columns.poi
        self.indptr, self.indices = _csr(users, pois, len(self.users))
        self.visitor_indptr, self.visitor_indices = _csr(pois, users, len(self.pois))
        self.degree = np.diff(self.indptr)
        _, first = np.unique(pois, return_index=True)
        self.lat, self.lon = columns.lat[first], columns.lon[first]
        ends = np.array([(self.user_index[a], self.user_index[b])
                         for a, b in log.social_edges], dtype=np.intp).reshape(-1, 2)
        self.friend_indptr, self.friend_indices = _csr(
            np.concatenate([ends[:, 0], ends[:, 1]]), np.concatenate([ends[:, 1], ends[:, 0]]),
            len(self.users))

    @property
    def n_pois(self) -> int:
        return len(self.pois)

    def history(self, u: int | None) -> np.ndarray:
        """The user's visited POI ints, ascending."""
        return _NO_INTS if u is None else self.indices[self.indptr[u]:self.indptr[u + 1]]

    def friends(self, u: int | None) -> np.ndarray:
        return (_NO_INTS if u is None
                else self.friend_indices[self.friend_indptr[u]:self.friend_indptr[u + 1]])

    def unvisited(self, u: int | None) -> np.ndarray:
        """All POI ints the user has not visited, ascending."""
        mask = np.ones(self.n_pois, dtype=bool)
        mask[self.history(u)] = False
        return np.flatnonzero(mask)

    def ids(self, pois: np.ndarray) -> list[str]:
        return self._poi_ids[pois].tolist()

    def visit_rate(self, users: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per POI: the weight share of ``users`` who visited it.

        Rows are added in the given user order, so each POI's weight sum is
        the left-to-right sum over its visitors among ``users``; the total is
        summed left to right too (numpy's ``sum`` is pairwise and rounds
        differently).
        """
        total = float(np.add.accumulate(weights)[-1]) if len(weights) else 0.0
        if total == 0:
            return np.zeros(self.n_pois)
        cols, segment = _gather(self.indptr, self.indices, users)
        return np.bincount(cols, weights=weights[segment], minlength=self.n_pois) / total


def overlap_counts(matrix: UserPoiMatrix, u: int | None) -> np.ndarray:
    """Number of POIs every user shares with ``u`` (zero for ``u`` itself)."""
    visitors, _ = _gather(matrix.visitor_indptr, matrix.visitor_indices, matrix.history(u))
    overlap = np.bincount(visitors, minlength=len(matrix.users))
    if u is not None:
        overlap[u] = 0
    return overlap


def top_neighbors(matrix: UserPoiMatrix, overlap: np.ndarray, size: int,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k cosine neighbors (user ints, similarities) that share a POI.

    ``overlap`` holds shared-POI counts against a profile of ``size`` POIs
    (``overlap_counts``).  Ties break on user id.
    """
    if size == 0:
        return _NO_INTS, np.zeros(0)
    ids = np.flatnonzero(overlap)
    sims = overlap[ids] / np.sqrt(size * matrix.degree[ids])
    order = np.argsort(-sims, kind="stable")[:k]
    return ids[order], sims[order]


def friend_weights(matrix: UserPoiMatrix,
                   u: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Friends (ascending) and the Jaccard weight of each against the user, as
    its integer intersection and union sizes (the weight is ``inter / union``).

    Both sides are token sets of the owner's friend circle (the owner
    included, so a mutual friendship overlaps even without common friends)
    and visited POIs.
    """
    friends = matrix.friends(u)
    if not len(friends):
        return friends, _NO_INTS, _NO_INTS
    circle = np.zeros(len(matrix.users), dtype=bool)
    circle[friends] = True
    circle[u] = True
    mine = np.zeros(matrix.n_pois, dtype=bool)
    mine[matrix.history(u)] = True
    # f's own token is in the user's circle (the 1); the user's token is
    # among f's friends, so the first bincount counts it.
    their_friends, seg_f = _gather(matrix.friend_indptr, matrix.friend_indices, friends)
    their_pois, seg_p = _gather(matrix.indptr, matrix.indices, friends)
    inter = (1 + np.bincount(seg_f[circle[their_friends]], minlength=len(friends))
             + np.bincount(seg_p[mine[their_pois]], minlength=len(friends)))
    theirs = np.diff(matrix.friend_indptr)[friends] + 1 + matrix.degree[friends]
    union = len(friends) + 1 + len(matrix.history(u)) + theirs - inter
    return friends, inter, union


def visitor_flags(matrix: UserPoiMatrix, pois: np.ndarray) -> np.ndarray:
    """(pois, users) flags: whether each user visited each POI."""
    visitors, row = _gather(matrix.visitor_indptr, matrix.visitor_indices, pois)
    flags = np.zeros((len(pois), len(matrix.users)), dtype=bool)
    flags[row, visitors] = True
    return flags


def row_shares(weights: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """Per row: the share of its weight total on the entries flagged in
    ``hits``, 0 where the total is 0.  Both sums run left to right along the
    row, as ``visit_rate`` adds them."""
    if not weights.shape[1]:
        return np.zeros(len(weights))
    return _shares(np.nonzero(hits)[0], weights[hits], np.add.accumulate(weights, axis=1)[:, -1])


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km on the WGS-84 mean sphere (scalars or arrays)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2 - lon1)
    a = np.sin(dp / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


@dataclass(frozen=True)
class GeoModel:
    """Power law Pr(d) = exp(log_a) * d**b over same-user POI pair distances."""

    log_a: float
    b: float
    d_min_km: float = 0.1

    def log_prob(self, distance_km):
        return self.log_a + self.b * np.log(np.maximum(distance_km, self.d_min_km))


def distance_bins(matrix: UserPoiMatrix, bin_km: float = 0.5,
                  d_min_km: float = 0.1) -> dict[int, int]:
    """Count of same-user distinct-POI pairs per ``bin_km`` distance bin.

    Distances are floored at ``d_min_km``; bin k holds [k, k+1) * bin_km.
    Every history pair i < j of every user is enumerated at once, in blocks
    of users holding at most about ``BLOCK_ENTRIES`` pairs.
    """
    degree = matrix.degree
    counts = np.zeros(0, dtype=np.int64)
    for start, end in _blocks(degree * (degree - 1) // 2):
        first = np.arange(matrix.indptr[start], matrix.indptr[end])
        ends = np.repeat(matrix.indptr[start + 1:end + 1], degree[start:end])
        second, which = _ranges(first + 1, ends - first - 1)
        a, b = matrix.indices[first[which]], matrix.indices[second]
        d = np.maximum(haversine_km(matrix.lat[a], matrix.lon[a], matrix.lat[b], matrix.lon[b]),
                       d_min_km)
        block_counts = np.bincount((d // bin_km).astype(np.int64))
        if len(block_counts) > len(counts):
            counts = np.pad(counts, (0, len(block_counts) - len(counts)))
        counts[:len(block_counts)] += block_counts
    return {int(k): int(counts[k]) for k in np.flatnonzero(counts)}


def fit_geo_model(log: CheckInLog | UserPoiMatrix, bin_km: float = 0.5,
                  d_min_km: float = 0.1) -> GeoModel:
    """Fit the distance power law by the closed-form normal equation.

    Pairwise haversine distances over every same-user distinct-POI pair are
    binned at ``bin_km`` resolution (floored at ``d_min_km``), converted to a
    probability mass per bin, and log Pr is regressed on log bin-center.

    A fit with ``b >= 0`` is degenerate, as a single bin is, and raises the
    same ``DataError`` (callers fall back to a flat model).  Only the
    non-empty bins enter the regression, so when every same-user distance
    is short the mass can rise with distance; a law with ``b > 0``, applied
    far beyond the distances it was fitted on, would rank the farthest POIs
    first.  Clamping distances at the largest fitted bin instead would still
    reward distance within that range, so the fit is refused.
    """
    matrix = log if isinstance(log, UserPoiMatrix) else UserPoiMatrix(log)
    bins = distance_bins(matrix, bin_km, d_min_km)
    if len(bins) < 2:
        raise DataError("geo fit needs at least 2 distinct distance bins with positive frequency")
    total = sum(bins.values())
    xs = np.array([math.log((k + 0.5) * bin_km) for k in sorted(bins)])
    ys = np.array([math.log(bins[k] / total) for k in sorted(bins)])
    design = np.column_stack([np.ones_like(xs), xs])
    coef = np.linalg.solve(design.T @ design, design.T @ ys)
    if not coef[1] < 0:
        raise DataError(f"geo fit is degenerate: distance exponent b = {float(coef[1]):.3g} "
                        f"does not decay with distance")
    return GeoModel(log_a=float(coef[0]), b=float(coef[1]), d_min_km=d_min_km)


def geo_log_scores(matrix: UserPoiMatrix, history: np.ndarray, targets: np.ndarray,
                   model: GeoModel) -> np.ndarray:
    """Per target POI: log of the product of power-law probabilities from each
    history POI, summed in history order.

    An empty history is neutral (log 1 = 0); per-user max-normalization over
    the candidate set happens at ranking time.
    """
    acc = np.zeros(len(targets))
    if len(history):
        d = haversine_km(matrix.lat[history, None], matrix.lon[history, None],
                         matrix.lat[targets], matrix.lon[targets])
        for row in model.log_prob(d):
            acc += row
    return acc


def _blocks(cost: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive ranges of ``cost``'s positions whose summed cost stays
    within ``BLOCK_ENTRIES``; a position costlier than that is a range alone."""
    total = np.cumsum(cost)
    bounds = [0]
    while bounds[-1] < len(cost):
        start = bounds[-1]
        budget = (total[start - 1] if start else 0) + BLOCK_ENTRIES
        bounds.append(max(start + 1, int(np.searchsorted(total, budget, side="right"))))
    return list(zip(bounds[:-1], bounds[1:]))


def _shares(pair: np.ndarray, weights: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Weight sums per pair, added in entry order, over each pair's user total
    (0 where that total is 0)."""
    sums = np.bincount(pair, weights=weights, minlength=len(totals))
    return np.divide(sums, totals, out=np.zeros(len(totals)), where=totals != 0)


@dataclass(frozen=True)
class UsgWeights:
    """Mixing weights: score = (1-alpha-beta)*cf + alpha*social + beta*geo."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0 <= self.alpha < 1 or not 0 <= self.beta < 1 or self.alpha + self.beta >= 1:
            raise ConfigError(f"usg weights need alpha,beta in [0,1) with alpha+beta < 1, "
                              f"got alpha={self.alpha} beta={self.beta}")


def max_normalize(scores: np.ndarray) -> np.ndarray:
    """Divide by the per-user maximum; an all-zero (or non-positive) vector is unchanged."""
    if not len(scores):
        return scores
    top = scores.max()
    return scores / top if top > 0 else scores


def usg_score(cf, social, geo, weights: UsgWeights):
    """Convex mix of the three (already max-normalized) component scores."""
    return (1 - weights.alpha - weights.beta) * cf + weights.alpha * social + weights.beta * geo


def rank_top_n(scores: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Positions of the top-n scores, descending, ties by ascending position.

    Positions index the caller's target array, which is in POI-id order, so
    ties break on POI id -- also at the cut: every score tied with the n-th
    is sorted before the list is cut.  Also flags short lists.
    """
    if n < 1:
        raise ConfigError(f"top-n size must be >= 1, got {n}")
    neg = -scores
    pool = np.arange(len(neg))
    if n < len(neg):
        pool = np.flatnonzero(neg <= np.partition(neg, n - 1)[n - 1])
    return pool[np.argsort(neg[pool], kind="stable")][:n], len(neg) < n
