"""Non-replacement stratified sampling of users for slot-similarity estimation.

Users are split into passive / semi-active / active strata by distinct-POI
count.  Each round draws a fixed percentage of every stratum's remaining
users (never re-drawing anyone) and accumulates pairwise slot-similarity
samples from the drawn users until every slot pair of every factor has the
required number of samples, or the corpus is exhausted.  Under-coverage is
reported, not fatal: completion of the similarity matrices handles it.
Users are the log's ``columns`` ints throughout.

RNG recipe (stable, documented so reruns and external simulations can
reproduce draws): round ``r`` with seed ``s`` draws from
``numpy.random.default_rng([s, r])``, strata processed in the fixed order
passive, semi-active, active, each drawing indices without replacement from
its remaining users as ascending user ints, which is sorted-id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .ingest import CheckInLog
from .slabs import SimilaritySamples, TemporalFactorSpec, slot_pair_cosines


@dataclass
class SamplingState:
    """Draw bookkeeping: ``taken`` flags each user int drawn so far and only
    ever gains users (non-replacement)."""

    rng_seed: int
    taken: np.ndarray
    round: int = 0

    @property
    def drawn(self) -> np.ndarray:
        """Every user drawn so far, as ascending ints."""
        return np.flatnonzero(self.taken)


def stratify_users(log: CheckInLog, thresholds: tuple[int, int] = (5, 15)
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition users by distinct-POI count: passive < low <= semi-active < high <= active.

    Returns the (passive, semi-active, active) user ints, each ascending.
    """
    low, high = thresholds
    if low >= high:
        raise ConfigError(f"strata thresholds must satisfy low < high, got {thresholds}")
    distinct = log.columns.distinct_poi_counts()
    # Social-only users have no check-ins and sit in no stratum.
    return (np.flatnonzero((distinct > 0) & (distinct < low)),
            np.flatnonzero((distinct >= low) & (distinct < high)),
            np.flatnonzero(distinct >= high))


def sample_round(strata: Sequence[np.ndarray], state: SamplingState,
                 n_percent: float) -> np.ndarray:
    """Draw ceil(n% of remaining) users from each stratum, without replacement.

    Returns this round's draws as ascending user ints and advances the state;
    an empty result means every stratum is exhausted.
    """
    if not 0 < n_percent <= 100:
        raise ConfigError(f"n_percent must be in (0, 100], got {n_percent}")
    rng = np.random.default_rng([state.rng_seed, state.round])
    picked = [np.empty(0, dtype=np.intp)]
    for members in strata:
        remaining = members[~state.taken[members]]
        if not len(remaining):
            continue
        k = math.ceil(len(remaining) * n_percent / 100.0)
        picked.append(remaining[rng.choice(len(remaining), size=k, replace=False)])
    drawn = np.sort(np.concatenate(picked))
    state.taken[drawn] = True
    state.round += 1
    return drawn


def collect_until(log: CheckInLog, factors: Sequence[TemporalFactorSpec],
                  m_min: int = 30, n_percent: float = 5.0, max_rounds: int = 100,
                  seed: int = 0, thresholds: tuple[int, int] = (5, 15),
                  binary: bool = False
                  ) -> tuple[dict[str, SimilaritySamples], tuple[np.ndarray, ...], SamplingState]:
    """Sample users round by round until every slot pair has >= m_min samples.

    The floor applies per factor.  Stops early when all strata are exhausted
    or ``max_rounds`` is hit; in that case the similarity matrices are left
    partially observed for completion to fill.  Returns (samples per factor,
    the ``stratify_users`` strata, final sampling state).
    """
    if m_min < 1:
        raise ConfigError(f"m_min must be >= 1, got {m_min}")
    strata = stratify_users(log, thresholds)
    columns = log.columns
    state = SamplingState(seed, np.zeros(len(columns.users), dtype=bool))
    samples = {f.name: SimilaritySamples(f) for f in factors}
    slots = {f.name: np.broadcast_to(np.asarray(f.slot_of(columns.timestamp), dtype=np.intp),
                                     columns.timestamp.shape) for f in factors}
    while state.round < max_rounds:
        if all(s.covered(m_min) for s in samples.values()):
            break
        drawn = sample_round(strata, state, n_percent)
        if not len(drawn):
            break
        # The round's users in id order, as ranks 0..len(drawn) - 1.
        picked = np.zeros(len(columns.users), dtype=bool)
        picked[drawn] = True
        rows = np.flatnonzero(picked[columns.user])
        rank = np.searchsorted(drawn, columns.user[rows])
        for f in factors:
            samples[f.name].extend(*slot_pair_cosines(
                rank, slots[f.name][rows], columns.poi[rows], len(drawn), f.slot_count, binary))
    return samples, strata, state
