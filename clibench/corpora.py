"""Seeded synthetic corpora, written as the raw TSVs the matirec CLI reads.

Both generators are pure functions of (n_users, seed) and use numpy only, so
the benchmark never imports the program to build its inputs.

``planted`` is the two-cohort taste-group corpus of the acceptance suite,
drawn in the same order as ``tests/corpus.py::planted_corpus``: dense pairs
(six check-ins per taste-pool pair, three per popular pair) on weekday
mornings or weekend nights.

``longtail`` is a sparse city corpus: Zipf POI popularity inside each city,
mostly single-visit pairs, a home city plus one travel city per user, and a
sparse random friend graph.  Per-user distinct-POI counts and per-pair visit
counts are fixed schedules shuffled by the seed, so every seed yields the
same numbers of users, pairs and check-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_MONDAY = 1262563200  # 2010-01-04 00:00 UTC, a Monday


def stamp(week: int, day: int, hour: int, minute: int = 0) -> int:
    return BASE_MONDAY + (week * 7 + day) * 86400 + hour * 3600 + minute * 60


@dataclass
class Corpus:
    """Check-in rows ``(user, timestamp, lat, lon, poi)`` plus undirected edges."""

    checkins: list[tuple[str, int, float, float, str]]
    edges: list[tuple[str, str]]

    def write(self, directory: Path) -> None:
        rows = [f"{u}\t{ts}\t{float(lat)!r}\t{float(lon)!r}\t{poi}\n"
                for u, ts, lat, lon, poi in self.checkins]
        (directory / "checkins.tsv").write_text("".join(rows), encoding="utf-8")
        (directory / "social.tsv").write_text("".join(f"{a}\t{b}\n" for a, b in self.edges),
                                              encoding="utf-8")

    def users(self) -> list[str]:
        return sorted({c[0] for c in self.checkins})


def planted(n_users: int, seed: int) -> Corpus:
    """Two temporally disjoint cohorts of 10-user taste groups over 14-POI pools.

    Cohort "a" checks in on weekday mornings, cohort "b" on weekend nights;
    twelve popular POIs are visited by everyone at uniformly random times.
    """
    rng = np.random.default_rng(seed)
    checkins = []
    edges = []
    cohorts = {
        "a": dict(hours=[9, 10, 11], days=[0, 1, 2, 3, 4], lat0=10.0),
        "b": dict(hours=[20, 21, 22], days=[5, 6], lat0=40.0),
    }
    group_size = 10
    n_groups = (n_users // 2) // group_size
    pool_size = 14
    zipf = 1.0 / np.arange(1, pool_size + 1)
    zipf /= zipf.sum()
    for coh, spec in cohorts.items():
        for g in range(n_groups):
            members = [f"{coh}{g}_{i}" for i in range(group_size)]
            pool = [f"p{coh}{g}_{j}" for j in range(pool_size)]
            for ui, user in enumerate(members):
                picks = rng.choice(pool_size, size=8, replace=False, p=zipf)
                for j in (int(v) for v in picks):
                    lat = spec["lat0"] + (g % 5) * 0.8 + (j % 4) * 0.01
                    lon = 20.0 + (g // 5) * 0.8 + (j // 4) * 0.01
                    for _ in range(6):
                        ts = stamp(int(rng.integers(0, 8)), int(rng.choice(spec["days"])),
                                   int(rng.choice(spec["hours"])), int(rng.integers(0, 60)))
                        checkins.append((user, ts, lat, lon, pool[j]))
                for f in range(1, 4):
                    edges.append((user, members[(ui + f) % group_size]))
    for idx, user in enumerate(sorted({c[0] for c in checkins})):
        rngu = np.random.default_rng([seed, idx])
        for pi in rngu.choice(12, size=6, replace=False):
            for _ in range(3):
                ts = stamp(int(rngu.integers(0, 8)), int(rngu.integers(0, 7)),
                           int(rngu.integers(0, 24)))
                checkins.append((user, ts, 25.0 + pi * 0.01, 22.0, f"pop{pi}"))
    return Corpus(checkins, edges)


LONGTAIL_CITIES = 6
LONGTAIL_POIS_PER_USER = 3  # POI catalogue size relative to the user count
LONGTAIL_VISITS = (1,) * 16 + (2,) * 3 + (3,)  # per-pair visit schedule: 80% single visits


def longtail(n_users: int, seed: int) -> Corpus:
    """Sparse multi-city corpus with Zipf popularity and mostly single visits.

    Users own 3..22 distinct POIs (a fixed heavy-tailed schedule), about 85%
    in their home city and the rest in one travel city.  Check-in times
    follow a per-user routine: a peak hour with +-2 h jitter and a weekday
    or weekend lean.  Each user adds up to two friendship edges, mostly
    within the home city.
    """
    rng = np.random.default_rng([seed, 1])
    n_pois = LONGTAIL_POIS_PER_USER * n_users
    per_city = n_pois // LONGTAIL_CITIES
    centers = [(30.0 + 2.5 * c, -100.0 + 3.0 * c) for c in range(LONGTAIL_CITIES)]
    city_pois = []
    coords = {}
    for c, (lat0, lon0) in enumerate(centers):
        ids = [f"l{c}_{j:04d}" for j in range(per_city)]
        offsets = rng.normal(0.0, 0.04, size=(per_city, 2))
        for poi, (dlat, dlon) in zip(ids, offsets):
            coords[poi] = (round(lat0 + float(dlat), 6), round(lon0 + float(dlon), 6))
        weights = 1.0 / rng.permutation(np.arange(1, per_city + 1))
        city_pois.append((ids, weights / weights.sum()))

    users = [f"u{i:05d}" for i in range(n_users)]
    quantiles = (np.arange(n_users) + 0.5) / n_users
    distinct = rng.permutation(3 + np.floor(20 * quantiles ** 4).astype(int))
    n_pairs = int(distinct.sum())
    schedule = np.resize(np.array(LONGTAIL_VISITS), n_pairs)
    visits = rng.permutation(schedule)

    checkins = []
    edges = []
    home = [i % LONGTAIL_CITIES for i in range(n_users)]
    pair_no = 0
    for i, user in enumerate(users):
        d = int(distinct[i])
        n_away = int(round(0.15 * d))
        away_city = (home[i] + 1 + int(rng.integers(0, LONGTAIL_CITIES - 1))) % LONGTAIL_CITIES
        chosen = []
        for city, k in ((home[i], d - n_away), (away_city, n_away)):
            if k:
                ids, p = city_pois[city]
                chosen += [ids[j] for j in rng.choice(len(ids), size=k, replace=False, p=p)]
        peak = int(rng.integers(7, 24))
        weekend_lean = rng.random() < 0.3
        for poi in chosen:
            lat, lon = coords[poi]
            for _ in range(int(visits[pair_no])):
                hour = (peak + int(rng.integers(-2, 3))) % 24
                if (rng.random() < 0.8) == weekend_lean:
                    day = int(rng.integers(5, 7))
                else:
                    day = int(rng.integers(0, 5))
                ts = stamp(int(rng.integers(0, 26)), day, hour, int(rng.integers(0, 60)))
                checkins.append((user, ts, lat, lon, poi))
            pair_no += 1
        for _ in range(2):
            if rng.random() < 0.7:
                j = int(rng.integers(0, n_users // LONGTAIL_CITIES)) * LONGTAIL_CITIES + home[i]
            else:
                j = int(rng.integers(0, n_users))
            if j != i and j < n_users:
                edges.append((user, users[j]))
    return Corpus(checkins, edges)
