"""Single-slot weekday/weekend temporal model.

A POI's act is the margin between its weekday and weekend visit shares; a
user's effective act weighs each visited POI's weekday/weekend lean by how
strongly the non-temporal scorer believes the user would visit it (computed
leave-one-out).  Users whose effective act clears the orientation threshold
get their candidate list re-composed so the weekday / weekend / neutral
proportions follow their measured lean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .ingest import CheckInLog
from .localtime import is_weekend


@dataclass(frozen=True)
class UnivariateConfig:
    """Thresholds of the weekday/weekend framework.

    t: effective-act threshold above which the temporal path applies
       (1/7 matches a uniform day-of-week split).
    lam: margin shift separating weekday from weekend lean.
    theta: POI-act cut separating weekday / neutral / weekend candidates.
    xi: share of the final list reserved for neutral POIs.
    k: candidate-pool multiplier (the temporal path re-ranks the top k*n).
    """

    t: float = 1.0 / 7.0
    lam: float = 0.5
    theta: float = 0.0
    xi: float = 0.1
    k: int = 10

    def __post_init__(self):
        if not 0 < self.t < 1:
            raise ConfigError(f"t must be in (0,1), got {self.t}")
        if not 0 < self.lam < 1:
            raise ConfigError(f"lam must be in (0,1), got {self.lam}")
        if not 0 <= self.xi < 1:
            raise ConfigError(f"xi must be in [0,1), got {self.xi}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class PoiAct:
    """Weekday-vs-weekend orientation of a POI over all its visits."""

    poi_id: str
    weekday_visits: int
    weekend_visits: int

    @property
    def total(self) -> int:
        return self.weekday_visits + self.weekend_visits

    @property
    def act(self) -> float:
        return self.weekday_visits / self.total - self.weekend_visits / self.total


@dataclass(frozen=True)
class UserActProfile:
    """Per-user weekday/weekend orientation evidence.

    ``act`` is the non-negative effective act; ``orientation`` is +1 for a
    weekday lean, -1 for weekend, 0 for neither.  ``raw_act`` is the plain
    visit-share margin that ignores per-POI influence.
    """

    user_id: str
    p_day: dict[str, float]
    p_end: dict[str, float]
    c_star: dict[str, float]
    c_hat: dict[str, float]
    pr_day: dict[str, float]
    pr_end: dict[str, float]
    avg_day: float
    avg_end: float
    act: float
    orientation: int
    raw_act: float


def all_poi_acts(log: CheckInLog, utc_offset: int = 0) -> dict[str, PoiAct]:
    columns = log.columns
    weekend = is_weekend(columns.timestamp, utc_offset)
    n_pois = len(columns.pois)
    end = np.bincount(columns.poi[weekend], minlength=n_pois).tolist()
    day = np.bincount(columns.poi[~weekend], minlength=n_pois).tolist()
    return {p: PoiAct(p, d, e) for p, d, e in zip(columns.pois, day, end)}


def _visit_counts(user: str, log: CheckInLog,
                  utc_offset: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The user's distinct POI ints (ascending) and their weekday and weekend
    check-in counts."""
    rows = log.rows(user)
    pois, local = np.unique(log.columns.poi[rows], return_inverse=True)
    weekend = is_weekend(log.columns.timestamp[rows], utc_offset)
    end = np.bincount(local[weekend], minlength=len(pois))
    day = np.bincount(local[~weekend], minlength=len(pois))
    return pois, day, end


def user_poi_probs(user: str, poi: str, log: CheckInLog,
                   utc_offset: int = 0) -> tuple[float, float]:
    """(weekday, weekend) visit shares of one user at one POI; they sum to 1."""
    pois, day, end = _visit_counts(user, log, utc_offset)
    at = np.flatnonzero(pois == log.columns.poi_index.get(poi, -1))
    if not len(at):
        raise DataError(f"user {user!r} never visited poi {poi!r}")
    d, e = int(day[at[0]]), int(end[at[0]])
    return d / (d + e), e / (d + e)


def effective_user_act(user: str, log: CheckInLog, cfg: UnivariateConfig,
                       c_star: Mapping[str, float] | Callable[[str, str], float],
                       utc_offset: int = 0) -> UserActProfile:
    """Influence-weighted orientation of a user.

    ``c_star`` supplies the leave-one-out non-temporal visit score for each
    of the user's POIs -- either a precomputed mapping or a callable
    ``(user, poi) -> score``.  Scores are min-max scaled across the user's
    POIs; when they are all equal the scaling is degenerate and every weight
    falls back to 1 (all POIs treated the same).
    """
    poi_ints, day_counts, end_counts = _visit_counts(user, log, utc_offset)
    pois = [log.columns.pois[p] for p in poi_ints.tolist()]
    if len(pois) < 2:
        raise DataError(f"user {user!r} needs >= 2 distinct POIs for feature scaling")
    raw = {p: (c_star[p] if isinstance(c_star, Mapping) else c_star(user, p)) for p in pois}
    lo, hi = min(raw.values()), max(raw.values())
    if hi == lo:
        c_hat = {p: 1.0 for p in pois}
    else:
        c_hat = {p: (raw[p] - lo) / (hi - lo) for p in pois}

    p_day, p_end, pr_day, pr_end = {}, {}, {}, {}
    for p, d, e in zip(pois, day_counts.tolist(), end_counts.tolist()):
        p_day[p], p_end[p] = d / (d + e), e / (d + e)
        pr_day[p] = c_hat[p] * (p_day[p] - cfg.lam)
        pr_end[p] = c_hat[p] * (p_end[p] - cfg.lam)
    avg_day = sum(pr_day.values()) / len(pois)
    avg_end = sum(pr_end.values()) / len(pois)
    margin = avg_day - avg_end

    day_events = int(day_counts.sum())
    total_events = day_events + int(end_counts.sum())
    raw_act = day_events / total_events - (total_events - day_events) / total_events

    return UserActProfile(
        user_id=user, p_day=p_day, p_end=p_end, c_star=dict(raw), c_hat=c_hat,
        pr_day=pr_day, pr_end=pr_end, avg_day=avg_day, avg_end=avg_end,
        act=abs(margin), orientation=(margin > 0) - (margin < 0), raw_act=raw_act,
    )


def _apportion(quotas: Mapping[str, float], n: int, priority: Sequence[str]) -> dict[str, int]:
    """Largest-remainder seat allocation summing exactly to n.

    Raw quotas are clamped at zero and rescaled to total n when they do not
    already; remainder ties are resolved by ``priority`` order.
    """
    clamped = {k: max(0.0, v) for k, v in quotas.items()}
    total = sum(clamped.values())
    if total <= 0:
        return {k: 0 for k in quotas}
    scaled = {k: v * n / total for k, v in clamped.items()}
    floors = {k: int(math.floor(v)) for k, v in scaled.items()}
    leftover = n - sum(floors.values())
    order = sorted(quotas, key=lambda k: (-(scaled[k] - floors[k]), priority.index(k)))
    for k in order[:leftover]:
        floors[k] += 1
    return floors


def m_avg_recommend(rho: Sequence[str], delta: Mapping[str, float],
                    profile: UserActProfile, cfg: UnivariateConfig,
                    n: int) -> tuple[list[str], bool]:
    """Re-compose the candidate list to match the user's weekday/weekend lean.

    ``rho`` is the score-sorted candidate pool (top k*n of the base scorer),
    ``delta`` maps each candidate to its POI act.  Weekday / weekend quota =
    (avg + lam - xi/2) * n, neutral quota = xi * n, resolved to whole seats
    by the largest-remainder rule with ties favoring the stronger lean;
    bucket shortfalls are backfilled from the remaining pool in rank order.
    """
    if n < 1:
        raise ConfigError(f"list size must be >= 1, got {n}")
    short = len(rho) < n
    quotas = {
        "day": (profile.avg_day + cfg.lam - cfg.xi / 2) * n,
        "end": (profile.avg_end + cfg.lam - cfg.xi / 2) * n,
        "neutral": cfg.xi * n,
    }
    lean = ["day", "end"] if profile.avg_day >= profile.avg_end else ["end", "day"]
    seats = _apportion(quotas, n, priority=lean + ["neutral"])

    buckets = {"day": [], "end": [], "neutral": []}
    for p in rho:
        act = delta[p]
        if act > cfg.theta:
            buckets["day"].append(p)
        elif act < cfg.theta:
            buckets["end"].append(p)
        else:
            buckets["neutral"].append(p)
    chosen: set[str] = set()
    for name in ("day", "end", "neutral"):
        for p in buckets[name][:seats[name]]:
            chosen.add(p)
    if len(chosen) < n:
        for p in rho:
            if len(chosen) >= n:
                break
            chosen.add(p)
    result = [p for p in rho if p in chosen][:n]
    return result, short


def usgt_recommend(profile: UserActProfile, cfg: UnivariateConfig,
                   ranked_pool: Sequence[str], delta: Mapping[str, float],
                   n: int) -> tuple[list[str], str, bool]:
    """Threshold framework: temporal re-composition when the effective act
    clears t (inclusive), the plain base ranking otherwise.

    Returns (list, path, short_flag) with path 'temporal' or 'non_temporal'.
    """
    if profile.act >= cfg.t:
        items, short = m_avg_recommend(ranked_pool, delta, profile, cfg, n)
        return items, "temporal", short
    return list(ranked_pool[:n]), "non_temporal", len(ranked_pool) < n


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
