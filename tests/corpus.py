"""Synthetic corpora shared by the module and acceptance tests.

``checkin_users`` lists the users that have check-ins and ``distinct_pois``
the POIs one user checked in at.
``planted_corpus`` builds two user cohorts with disjoint, slab-aligned POI
preferences (fine-grained taste groups, universal popular POIs that pollute
plain CF, in-group social edges, and geographically clustered pools).
``recovery_instance`` builds a corpus whose check-ins are drawn from a known
slab-table set so estimation quality can be measured directly.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from matirec.ingest import CheckIn, CheckInLog
from matirec.mati import joint_from_chain
from matirec.slabs import SlabIndex, day_factor, hour_factor

BASE_MONDAY = 1262563200  # 2010-01-04 00:00 UTC, a Monday


def stamp(week: int, day: int, hour: int, minute: int = 0) -> int:
    return BASE_MONDAY + (week * 7 + day) * 86400 + hour * 3600 + minute * 60


def checkin_users(log) -> list[str]:
    """Users with at least one check-in, in id order."""
    return sorted({c.user_id for c in log.checkins})


def distinct_pois(log, user: str) -> frozenset[str]:
    """The POI ids the user checked in at (none for an unknown user)."""
    columns = log.columns
    return frozenset(columns.pois[p] for p in columns.poi[log.rows(user)].tolist())


def planted_corpus(n_users: int = 500, seed: int = 2024) -> CheckInLog:
    """Two temporally disjoint cohorts with in-group preference structure.

    Cohort "a" checks in on weekday mornings, cohort "b" on weekend nights.
    Each cohort splits into taste groups of 10 users over a 14-POI pool with
    Zipf-skewed picks; a dozen popular POIs are visited by everyone at
    uniformly random times, which floods similarity-based neighborhoods.
    """
    rng = np.random.default_rng(seed)
    checkins: list[CheckIn] = []
    edges: list[tuple[str, str]] = []
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
                        checkins.append(CheckIn(
                            user, pool[j],
                            stamp(int(rng.integers(0, 8)), int(rng.choice(spec["days"])),
                                  int(rng.choice(spec["hours"])), int(rng.integers(0, 60))),
                            lat, lon))
                for f in range(1, 4):
                    edges.append((user, members[(ui + f) % group_size]))
    for idx, user in enumerate(sorted({c.user_id for c in checkins})):
        rngu = np.random.default_rng([seed, idx])
        for pi in rngu.choice(12, size=6, replace=False):
            for _ in range(3):
                checkins.append(CheckIn(
                    user, f"pop{pi}",
                    stamp(int(rngu.integers(0, 8)), int(rngu.integers(0, 7)),
                          int(rngu.integers(0, 24))),
                    25.0 + pi * 0.01, 22.0))
    return CheckInLog.from_checkins(checkins, edges)


def longtail_corpus(n_users: int = 200, seed: int = 1) -> CheckInLog:
    """The benchmark's sparse long-tail city corpus (``clibench/corpora.py``)."""
    path = Path(__file__).resolve().parents[1] / "clibench" / "corpora.py"
    spec = importlib.util.spec_from_file_location("clibench_corpora", path)
    corpora = sys.modules.get(spec.name)
    if corpora is None:
        corpora = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = corpora  # dataclasses look their module up there
        spec.loader.exec_module(corpora)
    corpus = corpora.longtail(n_users, seed)
    return CheckInLog.from_checkins(
        (CheckIn(u, poi, ts, lat, lon) for u, ts, lat, lon, poi in corpus.checkins), corpus.edges)


def three_by_three_index() -> SlabIndex:
    """Hand-built slab index: 3 hour-slabs x 3 day-slabs (no clustering run)."""
    hour = hour_factor()
    day = day_factor()
    slabs = {
        "hour": [range(0, 8), range(8, 16), range(16, 24)],
        "day": [(0, 1), (2, 3), (4, 5, 6)],
    }
    return SlabIndex([hour, day], slabs)


# Representative local (day, hour) per (day-slab, hour-slab) grid cell of the
# three_by_three_index, used to synthesize check-ins landing in a chosen cell.
GRID_TIMES = {
    (di, hi): (day, hour)
    for di, day in enumerate((0, 2, 5))
    for hi, hour in enumerate((3, 11, 19))
}


def recovery_instance(n_users: int = 50, n_pois: int = 100, pois_per_user: int = 3,
                      visits_per_pair: int = 3000, seed: int = 77):
    """Corpus drawn from known per-pair slab chains on the 3x3 grid.

    Returns (log, index, true_tables, pairs).  True chains are kept away
    from degenerate probabilities so every conditional row is well observed.
    """
    rng = np.random.default_rng(seed)
    index = three_by_three_index()
    shape = index.grid_shape()
    pois = [f"l{j:03d}" for j in range(n_pois)]
    true_tables: dict[tuple[str, str], list[np.ndarray]] = {}
    checkins: list[CheckIn] = []
    pairs: list[tuple[str, str]] = []
    for ui in range(n_users):
        user = f"u{ui:03d}"
        for j in rng.choice(n_pois, size=pois_per_user, replace=False):
            poi = pois[j]
            day_table = 0.5 * rng.dirichlet([8.0] * shape[0]) + 0.5 / shape[0]
            hour_table = (0.5 * rng.dirichlet([8.0] * shape[1], size=shape[0])
                          + 0.5 / shape[1])
            tables = [day_table, hour_table]
            true_tables[(user, poi)] = tables
            pairs.append((user, poi))
            joint = joint_from_chain(tables)
            counts = rng.multinomial(visits_per_pair, joint.ravel()).reshape(shape)
            for di in range(shape[0]):
                for hi in range(shape[1]):
                    n = int(counts[di, hi])
                    if n == 0:
                        continue
                    day, hour = GRID_TIMES[(di, hi)]
                    ts = stamp(0, day, hour)
                    checkins.extend(CheckIn(user, poi, ts, 1.0, 1.0) for _ in range(n))
    return CheckInLog.from_checkins(checkins), index, true_tables, sorted(pairs)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())
