"""Exclusion-protocol evaluation, ranking metrics, and tuning sweeps.

A random share of each test user's distinct POIs is hidden from that user's
training view (other users' views stay intact); models are trained on the
reduced log and judged by how many hidden POIs they recover in their top-N
lists.  Metrics are computed per user and then averaged.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .ingest import CheckInLog, csv_text


class Recommender(Protocol):
    name: str

    def recommend(self, user_id: str, n: int) -> list[str]: ...


@dataclass
class EvalSplit:
    """Training view plus the per-test-user excluded POI sets."""

    train_log: CheckInLog
    excluded: dict[str, frozenset[str]]
    x: float
    seed: int
    test_fraction: float
    skipped_ineligible: int

    @property
    def test_users(self) -> list[str]:
        return sorted(self.excluded)


def _user_rng(seed: int, user_id: str) -> np.random.Generator:
    digest = hashlib.sha256(user_id.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "big")])


def split_exclude(log: CheckInLog, x: float, seed: int, test_fraction: float = 0.2,
                  min_distinct: int = 2, min_checkins: int = 0) -> EvalSplit:
    """Hide round(x * distinct POIs) of each sampled test user's history.

    Users with fewer than ``min_distinct`` distinct POIs (or fewer than
    ``min_checkins`` events, for tuning populations) are ineligible; they are
    skipped and counted.  Draws are seed-deterministic and independent of
    iteration order.
    """
    if not 0 < x < 1:
        raise ConfigError(f"exclusion fraction must be in (0,1), got {x}")
    if not 0 < test_fraction <= 1:
        raise ConfigError(f"test fraction must be in (0,1], got {test_fraction}")
    columns = log.columns
    checkins, distinct = columns.checkin_counts(), columns.distinct_poi_counts()
    has_checkins = checkins > 0
    eligible_mask = has_checkins & (distinct >= min_distinct) & (checkins >= min_checkins)
    eligible = [columns.users[u] for u in np.flatnonzero(eligible_mask).tolist()]
    skipped = int(has_checkins.sum()) - len(eligible)
    if not eligible:
        raise DataError("no eligible test users")
    n_test = max(1, int(len(eligible) * test_fraction + 0.5))
    rng = np.random.default_rng([seed, 101])
    idx = rng.choice(len(eligible), size=n_test, replace=False)
    test_users = sorted(eligible[i] for i in idx)

    # Each user's distinct POI ints, ascending (= id order), from the pair ints.
    n_pois = len(columns.pois)
    pairs = columns.pairs
    starts = np.searchsorted(pairs, np.arange(len(columns.users) + 1) * n_pois)
    excluded: dict[str, frozenset[str]] = {}
    hidden = np.zeros(len(pairs), dtype=bool)
    for user in test_users:
        u = columns.user_index[user]
        user_pairs = pairs[starts[u]:starts[u + 1]]
        pois = [columns.pois[p] for p in (user_pairs - u * n_pois).tolist()]
        k = max(1, int(len(pois) * x + 0.5))
        pick = _user_rng(seed, user).choice(len(pois), size=k, replace=False)
        hidden[starts[u] + pick] = True
        excluded[user] = frozenset(pois[i] for i in pick)

    keep = ~hidden[np.searchsorted(pairs, columns.pair)]
    train = CheckInLog(columns.take(keep), log.social_edges)
    return EvalSplit(train, excluded, x, seed, test_fraction, skipped)


def metrics_at_n(recommended: Sequence[str], excluded: frozenset[str] | set[str],
                 n: int) -> tuple[float, float, float]:
    """(precision, recall, f1) at n; f1 is 0 when there are no hits."""
    hits = len(set(recommended[:n]) & set(excluded))
    precision = hits / n
    recall = hits / len(excluded) if excluded else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if hits else 0.0
    return precision, recall, f1


def failure_rate(hits_per_user: Sequence[int]) -> float:
    """Fraction of test users with zero recovered POIs."""
    if not hits_per_user:
        raise DataError("failure rate needs at least one evaluated user")
    return sum(1 for h in hits_per_user if h == 0) / len(hits_per_user)


@dataclass
class EvalReport:
    """Aggregated metrics per model and list size, plus per-user rows."""

    x: float
    seed: int
    test_fraction: float
    n_test_users: int
    skipped_ineligible: int
    ns: tuple[int, ...]
    aggregates: dict[str, dict[int, dict[str, float]]]
    rows: list[dict] = field(default_factory=list)
    fingerprint: str = ""

    def to_json(self) -> str:
        import json
        payload = {
            "fingerprint": self.fingerprint,
            "x": self.x,
            "seed": self.seed,
            "test_fraction": self.test_fraction,
            "n_test_users": self.n_test_users,
            "skipped_ineligible": self.skipped_ineligible,
            "ns": list(self.ns),
            "models": {
                model: {str(n): dict(sorted(metrics.items()))
                        for n, metrics in per_n.items()}
                for model, per_n in sorted(self.aggregates.items())
            },
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    def rows_csv(self) -> str:
        header = ("model", "user_id", "n", "hits", "precision", "recall", "f1")
        return csv_text([header, *((r["model"], r["user"], r["n"], r["hits"], repr(r["precision"]),
                                    repr(r["recall"]), repr(r["f1"])) for r in self.rows)])

    def objective(self, metric: str, n: int, model: str) -> float:
        return self.aggregates[model][n][metric]


def evaluate(models: Sequence[Recommender], split: EvalSplit,
             ns: Sequence[int] = (5, 10, 20), fingerprint: str = "") -> EvalReport:
    """Score every model on every test user at every list size.

    Each model produces one ranked list at max(ns) per user and smaller sizes
    are scored on its prefixes, so failure rates are monotone in n.  Those of
    ``usgt``/``ubcft`` are not the lists they serve at smaller n: these are not
    nested yet (strict xfails ``test_top_n_lists_are_nested[usgt|ubcft]``,
    ROADMAP.md item 5).
    """
    if not ns or any(n < 1 for n in ns):
        raise ConfigError(f"list sizes must be positive, got {ns}")
    ns = tuple(sorted(ns))
    users = split.test_users
    if not users:
        raise DataError("split has no test users")
    top = max(ns)
    aggregates: dict[str, dict[int, dict[str, float]]] = {}
    rows: list[dict] = []
    for model in models:
        per_n: dict[int, dict[str, list[float]]] = {
            n: {"precision": [], "recall": [], "f1": [], "hits": []} for n in ns}
        for user in users:
            ranked = model.recommend(user, top)
            excluded = split.excluded[user]
            for n in ns:
                p, r, f1 = metrics_at_n(ranked, excluded, n)
                hits = round(p * n)  # precision is hits / n
                per_n[n]["precision"].append(p)
                per_n[n]["recall"].append(r)
                per_n[n]["f1"].append(f1)
                per_n[n]["hits"].append(hits)
                rows.append({"model": model.name, "user": user, "n": n, "hits": hits,
                             "precision": p, "recall": r, "f1": f1})
        aggregates[model.name] = {
            n: {
                "precision": float(np.mean(vals["precision"])),
                "recall": float(np.mean(vals["recall"])),
                "f1": float(np.mean(vals["f1"])),
                "failure_rate": failure_rate(vals["hits"]),
            }
            for n, vals in per_n.items()
        }
    rows.sort(key=lambda r: (r["model"], r["user"], r["n"]))
    return EvalReport(split.x, split.seed, split.test_fraction, len(users),
                      split.skipped_ineligible, ns, aggregates, rows, fingerprint)


@dataclass
class TuneResult:
    parameter: str
    best_value: float
    objective: str
    curve: list[tuple[float, float]]

    def curve_csv(self) -> str:
        lines = [f"{self.parameter},{self.objective}"]
        lines += [f"{v!r},{score!r}" for v, score in self.curve]
        return "\n".join(lines) + "\n"


def tune_sweep(parameter: str, grid: Sequence[float],
               build: Callable[[float], Recommender], split: EvalSplit,
               objective: tuple[str, int] = ("f1", 5)) -> TuneResult:
    """Evaluate one recommender per grid point; ties go to the smaller value.

    ``build`` constructs the recommender for a given parameter value (shared
    training artifacts should be closed over, not rebuilt).
    """
    if not grid:
        raise ConfigError("tuning grid must be non-empty")
    metric, at_n = objective
    curve = []
    best_value, best_score = None, -math.inf
    for value in sorted(grid):
        model = build(value)
        report = evaluate([model], split, ns=(at_n,))
        score = report.objective(metric, at_n, model.name)
        curve.append((value, score))
        if score > best_score:
            best_value, best_score = value, score
    return TuneResult(parameter, best_value, f"{metric}@{at_n}", curve)
