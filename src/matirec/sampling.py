"""Non-replacement stratified sampling of users for slot-similarity estimation.

Users are split into passive / semi-active / active strata by distinct-POI
count.  Each round draws a fixed percentage of every stratum's remaining
users (never re-drawing anyone) and accumulates pairwise slot-similarity
samples from the drawn users until every slot pair of every factor has the
required number of samples, or the corpus is exhausted.  Under-coverage is
reported, not fatal: completion of the similarity matrices handles it.

RNG recipe (stable, documented so reruns and external simulations can
reproduce draws): round ``r`` with seed ``s`` draws from
``numpy.random.default_rng([s, r])``, strata processed in the fixed order
passive, semi-active, active, each drawing indices without replacement from
its lexicographically sorted remaining users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .ingest import CheckInLog
from .slabs import SimilaritySamples, TemporalFactorSpec, slot_pair_cosines


@dataclass(frozen=True)
class UserStrata:
    """Disjoint activity strata covering all users with check-ins."""

    passive: frozenset[str]
    semi_active: frozenset[str]
    active: frozenset[str]

    def in_order(self) -> tuple[tuple[str, frozenset[str]], ...]:
        return (("passive", self.passive), ("semi_active", self.semi_active),
                ("active", self.active))


@dataclass
class SamplingState:
    """Draw bookkeeping; ``drawn`` only ever grows (non-replacement)."""

    rng_seed: int
    drawn: set[str] = field(default_factory=set)
    round: int = 0


@dataclass
class CoverageRow:
    factor: str
    slot_a: int
    slot_b: int
    sample_count: int


def stratify_users(log: CheckInLog, thresholds: tuple[int, int] = (5, 15)) -> UserStrata:
    """Partition users by distinct-POI count: passive < low <= semi-active < high <= active."""
    low, high = thresholds
    if low >= high:
        raise ConfigError(f"strata thresholds must satisfy low < high, got {thresholds}")
    columns = log.columns
    distinct = columns.distinct_poi_counts()
    users = np.array(columns.users, dtype=object)

    def members(mask: np.ndarray) -> frozenset[str]:
        # Social-only users have no check-ins and sit in no stratum.
        return frozenset(users[mask & (distinct > 0)].tolist())

    return UserStrata(members(distinct < low), members((distinct >= low) & (distinct < high)),
                      members(distinct >= high))


def sample_round(strata: UserStrata, state: SamplingState, n_percent: float) -> frozenset[str]:
    """Draw ceil(n% of remaining) users from each stratum, without replacement.

    Returns the union of this round's draws and advances the state; an empty
    result means every stratum is exhausted.
    """
    if not 0 < n_percent <= 100:
        raise ConfigError(f"n_percent must be in (0, 100], got {n_percent}")
    rng = np.random.default_rng([state.rng_seed, state.round])
    picked: list[str] = []
    for _, members in strata.in_order():
        remaining = sorted(members - state.drawn)
        if not remaining:
            continue
        k = math.ceil(len(remaining) * n_percent / 100.0)
        idx = rng.choice(len(remaining), size=k, replace=False)
        picked.extend(remaining[i] for i in sorted(idx))
    state.drawn.update(picked)
    state.round += 1
    return frozenset(picked)


def collect_until(log: CheckInLog, factors: Sequence[TemporalFactorSpec],
                  m_min: int = 30, n_percent: float = 5.0, max_rounds: int = 100,
                  seed: int = 0, thresholds: tuple[int, int] = (5, 15),
                  binary: bool = False) -> tuple[dict[str, SimilaritySamples], list[CoverageRow], SamplingState]:
    """Sample users round by round until every slot pair has >= m_min samples.

    The floor applies per factor.  Stops early when all strata are exhausted
    or ``max_rounds`` is hit; in that case the similarity matrices are left
    partially observed for completion to fill.  Returns (samples per factor,
    full coverage table, final sampling state).
    """
    if m_min < 1:
        raise ConfigError(f"m_min must be >= 1, got {m_min}")
    strata = stratify_users(log, thresholds)
    state = SamplingState(rng_seed=seed)
    samples = {f.name: SimilaritySamples(f) for f in factors}
    columns = log.columns
    slots = {f.name: np.broadcast_to(np.asarray(f.slot_of(columns.timestamp), dtype=np.intp),
                                     columns.timestamp.shape) for f in factors}
    while state.round < max_rounds:
        if all(s.covered(m_min) for s in samples.values()):
            break
        drawn = sample_round(strata, state, n_percent)
        if not drawn:
            break
        # The round's users in id order, as ranks 0..len(drawn) - 1.
        picked = np.zeros(len(columns.users), dtype=bool)
        picked[[columns.user_index[u] for u in drawn]] = True
        rows = np.flatnonzero(picked[columns.user])
        rank = (np.cumsum(picked) - 1)[columns.user[rows]]
        for f in factors:
            samples[f.name].extend(*slot_pair_cosines(
                rank, slots[f.name][rows], columns.poi[rows], len(drawn), f.slot_count, binary))
    coverage = [
        CoverageRow(f.name, a, b, samples[f.name].count(a, b))
        for f in factors
        for a in range(f.slot_count)
        for b in range(a + 1, f.slot_count)
    ]
    return samples, coverage, state


def coverage_csv(coverage: Sequence[CoverageRow]) -> str:
    lines = ["factor,slot_a,slot_b,sample_count"]
    lines += [f"{r.factor},{r.slot_a},{r.slot_b},{r.sample_count}" for r in coverage]
    return "\n".join(lines) + "\n"
