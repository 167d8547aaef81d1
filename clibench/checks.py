"""Output checks computed apart from the program.

Everything here is derived from the raw check-in TSV, ``slab_index.json``
and the model's documented maths; nothing imports ``matirec`` and nothing
compares against a stored copy of earlier output.  Each ``check_*`` function
returns a list of human-readable failures (empty when the check holds).
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12
METRIC_TOL = 1e-12

# Slot extractors of the two factors the workloads use (UTC offset in seconds).
SLOT_OF = {
    "hour": lambda ts, off: (ts + off) % 86400 // 3600,
    "day": lambda ts, off: ((ts + off) // 86400 + 3) % 7,  # 1970-01-01 was a Thursday
}


class RawLog:
    """The raw check-in TSV (``user, time, lat, lon, poi``) as plain sets."""

    def __init__(self, path: Path):
        self.rows: list[tuple[str, int, str]] = []
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            user, ts, _lat, _lon, poi = line.split("\t")
            self.rows.append((user, int(ts), poi))
        self.visited: dict[str, set[str]] = defaultdict(set)
        for user, _, poi in self.rows:
            self.visited[user].add(poi)
        self.pois = {poi for _, _, poi in self.rows}
        self.pairs = {(user, poi) for user, _, poi in self.rows}


class SlabGrid:
    """Timestamp -> slab cell lookup rebuilt from ``slab_index.json``."""

    def __init__(self, path: Path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        coarsest_first = sorted(payload["factors"], key=lambda f: -f["containment_rank"])
        self.levels = []
        for spec in coarsest_first:
            if spec["name"] not in SLOT_OF:
                raise ValueError(f"checker has no slot rule for factor {spec['name']!r}")
            slot_to_slab = {slot: i for i, slots in enumerate(payload["slabs"][spec["name"]])
                            for slot in slots}
            self.levels.append((spec["name"], spec["utc_offset"], slot_to_slab))
        self.shape = tuple(len(payload["slabs"][spec["name"]]) for spec in coarsest_first)

    def cell(self, ts: int) -> tuple[int, ...]:
        return tuple(slabs[SLOT_OF[name](ts, off)] for name, off, slabs in self.levels)


def corpus_summary(raw: RawLog, grid: SlabGrid) -> dict:
    users = len(raw.visited)
    pois = len(raw.pois)
    return {"users": users, "pois": pois, "checkins": len(raw.rows), "pairs": len(raw.pairs),
            "density": len(raw.pairs) / (users * pois), "grid": "x".join(map(str, grid.shape))}


def _joint(tables: list) -> np.ndarray:
    joint = np.asarray(tables[0], dtype=float)
    for table in tables[1:]:
        joint = joint[..., None] * np.asarray(table, dtype=float)
    return joint


def _row_sum_errors(label: str, tables: list) -> list[str]:
    errors = []
    for level, table in enumerate(tables):
        arr = np.asarray(table, dtype=float)
        if (arr < 0).any():
            errors.append(f"{label}: chain level {level} has negative entries")
        worst = float(np.abs(arr.sum(axis=-1) - 1.0).max())
        if worst > ROW_SUM_TOL:
            errors.append(f"{label}: chain level {level} rows miss 1 by {worst:.3e}")
    return errors


def check_params(raw: RawLog, grid: SlabGrid, params_path: Path, em_path: Path,
                 gamma: float) -> tuple[list[str], float]:
    """Pair set, chain rows, monotone EM trace, and the EM closed form.

    EM's E step renormalizes a pair's own joint and its M step blends it with
    the pair's slab histogram H (n events), so after k iterations from the
    global popularity joint J0 every pair's joint is
    H/n + (gamma/(n+gamma))^k (J0 - H/n).  Returns (errors, worst error).
    """
    params = json.loads(params_path.read_text(encoding="utf-8"))
    report = json.loads(em_path.read_text(encoding="utf-8"))
    errors = []
    pairs = {tuple(key.split("\t")) for key in params["pair_tables"]}
    if pairs != raw.pairs:
        errors.append(f"params pair set differs from the raw log: {len(pairs ^ raw.pairs)} "
                      f"pairs in one and not the other")
    if {tuple(key.split("\t")) for key in params["pr_nu"]} != pairs:
        errors.append("params pr_nu keys differ from the pair set")
    for key, tables in params["pair_tables"].items():
        errors += _row_sum_errors(f"pair {key!r}", tables)
    for poi, tables in params["poi_tables"].items():
        errors += _row_sum_errors(f"poi {poi!r}", tables)
    if params["global_table"] is not None:
        errors += _row_sum_errors("global", params["global_table"])
    if set(params["poi_tables"]) != raw.pois:
        errors.append("params POI backoff tables do not cover exactly the corpus POIs")

    trace = report["log_likelihood"]
    for step, (prev, cur) in enumerate(zip(trace, trace[1:]), start=1):
        if cur < prev - 1e-9 * max(1.0, abs(prev)):
            errors.append(f"EM log-likelihood decreased at iteration {step}: {prev} -> {cur}")
    if len(trace) != report["iterations"] + 1:
        errors.append("EM trace length does not match the reported iteration count")

    global_hist = np.zeros(grid.shape)
    hist = defaultdict(lambda: np.zeros(grid.shape))
    for user, ts, poi in raw.rows:
        cell = grid.cell(ts)
        global_hist[cell] += 1
        hist[(user, poi)][cell] += 1
    j0 = global_hist / global_hist.sum()
    k = report["iterations"]
    worst = 0.0
    for key, tables in params["pair_tables"].items():
        pair = tuple(key.split("\t"))
        if pair not in hist:
            continue
        h = hist[pair]
        n = h.sum()
        want = h / n + (gamma / (n + gamma)) ** k * (j0 - h / n)
        worst = max(worst, float(np.abs(_joint(tables) - want).max()))
    if worst > CLOSED_FORM_TOL:
        errors.append(f"pair joints miss the EM closed form by up to {worst:.3e}")
    return errors, worst


def _csv_rows(path: Path) -> list[dict]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_recommendations(raw: RawLog, path: Path, users: list[str], n: int) -> list[str]:
    """Each list: min(n, unvisited) distinct unvisited corpus POIs, ranks 1..n,
    scores non-increasing with ties in ascending POI id."""
    errors = []
    by_user = defaultdict(list)
    for row in _csv_rows(path):
        by_user[row["user_id"]].append(row)
    if set(by_user) != set(users):
        errors.append(f"recommendations cover {sorted(by_user)} instead of the batch")
    for user in users:
        rows = by_user.get(user, [])
        want = min(n, len(raw.pois) - len(raw.visited[user]))
        if [int(r["rank"]) for r in rows] != list(range(1, want + 1)):
            errors.append(f"{user}: ranks are not 1..{want}")
        pois = [r["poi_id"] for r in rows]
        if len(set(pois)) != len(pois):
            errors.append(f"{user}: repeated POI in list")
        if not set(pois) <= raw.pois:
            errors.append(f"{user}: list holds POIs outside the corpus")
        if set(pois) & raw.visited[user]:
            errors.append(f"{user}: list holds POIs the user already visited")
        if any(r["path"] not in ("temporal", "non_temporal") for r in rows):
            errors.append(f"{user}: unknown hybrid path")
        try:
            scores = [float(r["score"]) for r in rows]
        except ValueError:
            errors.append(f"{user}: missing or malformed score")
            continue
        for (s1, p1), (s2, p2) in zip(zip(scores, pois), zip(scores[1:], pois[1:])):
            if s2 > s1 or (s2 == s1 and p2 < p1):
                errors.append(f"{user}: order breaks at {p1} ({s1!r}) -> {p2} ({s2!r})")
                break
    return errors


def hidden_count(distinct: int, x: float) -> int:
    """round(x * distinct POIs), half up, at least one."""
    return max(1, math.floor(distinct * x + 0.5))


def check_evaluation(raw: RawLog, users_csv: Path, report_path: Path, x: float,
                     ns: tuple[int, ...], models: tuple[str, ...], lift_n: int,
                     min_lift: float) -> tuple[list[str], dict]:
    """Per-user rows follow from the raw log, aggregates are their means, and
    every model beats a uniformly random ranking at ``lift_n`` by ``min_lift``.

    The random baseline is an upper bound on a uniform ranking's expected
    precision: a test user with d distinct POIs, k of them hidden, ranks a
    pool of at most |POIs| - (d - k) candidates holding at most k hits.
    Returns (errors, {model: precision@lift_n / random expectation}).
    """
    errors = []
    rows = _csv_rows(users_csv)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    hits = {}
    for r in rows:
        model, user, n, h = r["model"], r["user_id"], int(r["n"]), int(r["hits"])
        k = hidden_count(len(raw.visited[user]), x)
        precision, recall = h / n, h / k
        f1 = 2 * precision * recall / (precision + recall) if h else 0.0
        for name, want in (("precision", precision), ("recall", recall), ("f1", f1)):
            if not math.isclose(float(r[name]), want, rel_tol=0, abs_tol=METRIC_TOL):
                errors.append(f"{model}/{user}@{n}: {name} {r[name]} != {want!r}")
        if not 0 <= h <= min(n, k):
            errors.append(f"{model}/{user}@{n}: {h} hits out of range")
        hits[(model, user, n)] = h
    test_users = sorted({user for _, user, _ in hits})
    if {m for m, _, _ in hits} != set(models):
        errors.append(f"evaluated models {sorted({m for m, _, _ in hits})} != {sorted(models)}")
    if len(hits) != len(rows) or len(hits) != len(models) * len(test_users) * len(ns):
        errors.append("eval_users.csv is not one row per (model, user, n)")
        return errors, {}
    if report["n_test_users"] != len(test_users):
        errors.append("n_test_users disagrees with eval_users.csv")
    for model in models:
        for user in test_users:
            seq = [hits[(model, user, n)] for n in ns]
            if seq != sorted(seq):
                errors.append(f"{model}/{user}: hits decrease with n: {seq}")
        for n in ns:
            agg = report["models"][model][str(n)]
            users_rows = [r for r in rows if r["model"] == model and int(r["n"]) == n]
            for name in ("precision", "recall", "f1"):
                mean = sum(float(r[name]) for r in users_rows) / len(users_rows)
                if not math.isclose(agg[name], mean, rel_tol=METRIC_TOL, abs_tol=METRIC_TOL):
                    errors.append(f"{model}@{n}: aggregate {name} {agg[name]} != row mean {mean}")
            fail = sum(1 for r in users_rows if int(r["hits"]) == 0) / len(users_rows)
            if not math.isclose(agg["failure_rate"], fail, rel_tol=METRIC_TOL, abs_tol=METRIC_TOL):
                errors.append(f"{model}@{n}: failure_rate {agg['failure_rate']} != {fail}")

    expected = 0.0
    for user in test_users:
        d = len(raw.visited[user])
        k = hidden_count(d, x)
        expected += k / (len(raw.pois) - d + k)
    expected /= len(test_users)
    lifts = {}
    for model in models:
        precision = report["models"][model][str(lift_n)]["precision"]
        lifts[model] = precision / expected
        if not (precision > expected and precision >= min_lift * expected):
            errors.append(f"{model}: precision@{lift_n} {precision:.4f} is not {min_lift}x the "
                          f"random expectation {expected:.4f}")
    return errors, lifts
