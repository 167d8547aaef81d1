"""Single-slot weekday/weekend temporal model, over POI ints.

A POI's act is the margin between its weekday and weekend visit shares
(``poi_acts``, one value per POI int); a user's effective act weighs each
visited POI's weekday/weekend lean by how strongly the non-temporal scorer
believes the user would visit it (computed leave-one-out, one score per
visited POI in POI-int order).  Users whose effective act clears the
orientation threshold get their candidate list re-composed so the weekday /
weekend / neutral proportions follow their measured lean:
``m_avg_recommend`` returns positions into the score-sorted pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import UnivariateConfig
from .errors import ConfigError, DataError
from .ingest import CheckInLog
from .localtime import is_weekend


@dataclass(frozen=True)
class UserActProfile:
    """Per-user weekday/weekend orientation evidence.

    ``c_hat`` (scaled influence), ``pr_day`` and ``pr_end`` (influence-weighted
    shifted shares) hold one value per distinct POI of the user, POI ints
    ascending.  ``act`` is the non-negative effective act; ``orientation`` is
    +1 for a weekday lean, -1 for weekend, 0 for neither.
    """

    c_hat: np.ndarray
    pr_day: np.ndarray
    pr_end: np.ndarray
    avg_day: float
    avg_end: float
    act: float
    orientation: int


def poi_acts(log: CheckInLog, utc_offset: int = 0) -> np.ndarray:
    """Per POI int: weekday share minus weekend share of all its visits."""
    columns = log.columns
    weekend = is_weekend(columns.timestamp, utc_offset)
    n_pois = len(columns.pois)
    end = np.bincount(columns.poi[weekend], minlength=n_pois)
    day = np.bincount(columns.poi[~weekend], minlength=n_pois)
    total = day + end
    return day / total - end / total


def effective_user_act(user: str, log: CheckInLog, cfg: UnivariateConfig,
                       c_star: np.ndarray, utc_offset: int = 0) -> UserActProfile:
    """Influence-weighted orientation of a user.

    ``c_star`` holds the leave-one-out non-temporal visit score of each of the
    user's distinct POIs, POI ints ascending (the order of
    ``UserPoiMatrix.history``).  Scores are min-max scaled across the user's
    POIs; when they are all equal the scaling is degenerate and every weight
    falls back to 1 (all POIs treated the same).
    """
    rows = log.rows(user)
    pois, local = np.unique(log.columns.poi[rows], return_inverse=True)
    if len(pois) < 2:
        raise DataError(f"user {user!r} needs >= 2 distinct POIs for feature scaling")
    weekend = is_weekend(log.columns.timestamp[rows], utc_offset)
    end = np.bincount(local[weekend], minlength=len(pois))
    day = np.bincount(local[~weekend], minlength=len(pois))
    lo, hi = c_star.min(), c_star.max()
    c_hat = np.ones(len(pois)) if hi == lo else (c_star - lo) / (hi - lo)
    pr_day = c_hat * (day / (day + end) - cfg.lam)
    pr_end = c_hat * (end / (day + end) - cfg.lam)
    # Python's float sum, POI by POI: numpy's pairwise sum rounds differently.
    avg_day = sum(pr_day.tolist()) / len(pois)
    avg_end = sum(pr_end.tolist()) / len(pois)
    margin = avg_day - avg_end
    return UserActProfile(c_hat=c_hat, pr_day=pr_day, pr_end=pr_end, avg_day=avg_day,
                          avg_end=avg_end, act=abs(margin),
                          orientation=(margin > 0) - (margin < 0))


def _apportion(quotas: np.ndarray, n: int, priority: np.ndarray) -> np.ndarray:
    """Largest-remainder seat allocation summing exactly to n.

    Raw quotas are clamped at zero and rescaled to total n when they do not
    already; remainder ties go to the lower ``priority``.
    """
    clamped = np.maximum(quotas, 0.0)
    total = sum(clamped.tolist())  # Python's float sum, as in effective_user_act
    if total <= 0:
        return np.zeros(len(quotas), dtype=np.intp)
    scaled = clamped * n / total
    floors = np.floor(scaled)
    seats = floors.astype(np.intp)
    order = np.lexsort((priority, -(scaled - floors)))
    seats[order[:n - seats.sum()]] += 1
    return seats


def m_avg_recommend(acts: np.ndarray, profile: UserActProfile, cfg: UnivariateConfig,
                    n: int) -> np.ndarray:
    """Re-compose the candidate list to match the user's weekday/weekend lean.

    ``acts`` holds the POI act of each entry of the score-sorted candidate
    pool (top k*n of the base scorer).  Weekday / weekend quota =
    (avg + lam - xi/2) * n, neutral quota = xi * n, resolved to whole seats
    by the largest-remainder rule with ties favoring the stronger lean;
    bucket shortfalls are backfilled from the remaining pool in rank order.
    Returns at most n pool positions, ascending (the list keeps pool order).
    """
    if n < 1:
        raise ConfigError(f"list size must be >= 1, got {n}")
    quotas = np.array([(profile.avg_day + cfg.lam - cfg.xi / 2) * n,
                       (profile.avg_end + cfg.lam - cfg.xi / 2) * n,
                       cfg.xi * n])
    priority = np.array([0, 1, 2] if profile.avg_day >= profile.avg_end else [1, 0, 2])
    seats = _apportion(quotas, n, priority)
    # Bucket 0 leans weekday, 1 weekend, 2 neither.
    bucket = np.where(acts > cfg.theta, 0, np.where(acts < cfg.theta, 1, 2))
    chosen = np.zeros(len(acts), dtype=bool)
    for b in range(3):
        chosen[np.flatnonzero(bucket == b)[:seats[b]]] = True
    missing = n - int(chosen.sum())
    if missing > 0:
        chosen[np.flatnonzero(~chosen)[:missing]] = True
    return np.flatnonzero(chosen)[:n]


def act_observations(log: CheckInLog, utc_offset: int = 0, min_users: int = 5,
                     min_pois: int = 8) -> tuple[list[float], list[float]]:
    """Absolute user and POI acts over the corpus, in one pass.

    Returns (user_acts, poi_acts) restricted to users with at least
    ``min_pois`` distinct POIs and POIs with at least ``min_users`` visitors.
    """
    columns = log.columns
    n_pois = len(columns.pois)
    weekend = is_weekend(columns.timestamp, utc_offset)
    pairs, pair_of = np.unique(columns.pair, return_inverse=True)
    end = np.bincount(pair_of[weekend], minlength=len(pairs))
    day = np.bincount(pair_of[~weekend], minlength=len(pairs))
    deviation = np.abs(day - end) / (day + end)
    pair_user, pair_poi = np.divmod(pairs, n_pois)

    def means(owner: np.ndarray, n_owners: int, floor: int) -> list[float]:
        # Each owner's deviations summed left to right, in pair (id) order.
        n = np.bincount(owner, minlength=n_owners)
        total = np.bincount(owner, weights=deviation, minlength=n_owners)
        keep = np.flatnonzero((n > 0) & (n >= floor))
        return (total[keep] / n[keep]).tolist()

    return (means(pair_user, len(columns.users), min_pois),
            means(pair_poi, n_pois, min_users))


def act_histogram(values: Sequence[float], width: float = 0.1) -> list[tuple[float, float, int]]:
    """Fixed-width histogram rows (lo, hi, count) for act observations."""
    if width <= 0:
        raise ConfigError("histogram width must be positive")
    counts: dict[int, int] = {}
    for v in values:
        idx = min(int(v / width), int(1.0 / width) - 1)
        counts[idx] = counts.get(idx, 0) + 1
    return [(i * width, (i + 1) * width, counts[i]) for i in sorted(counts)]


def histogram_csv(rows: Sequence[tuple[float, float, int]]) -> str:
    lines = ["bin_lo,bin_hi,count"]
    lines += [f"{lo!r},{hi!r},{c}" for lo, hi, c in rows]
    return "\n".join(lines) + "\n"
