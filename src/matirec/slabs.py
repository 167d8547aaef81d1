"""Temporal slab extraction.

A temporal factor (hour of day, day of week, ...) slices timestamps into a
fixed number of slots.  Per factor we estimate a slot-by-slot similarity
matrix from sampled user activity, complete its unobserved cells by low-rank
symmetric matrix factorization, and cluster mutually similar slots into
uni-aspect slabs with complete-linkage agglomerative clustering.  Samples are
kept as flat arrays: each one's slot pair as the int ``a * n + b`` (a < b) and
its value, in draw order.  A factor's slabs are its slot partition, a tuple of
ascending slot tuples ordered by first slot; a slab's index is its position
there.  The cross product of the per-factor slabs is a grid of multi-aspect
cells that partitions the timestamp space; a cell is an integer, the C-order
flat index over ``SlabIndex.grid_shape()`` (coarsest factor first).
``SlabIndex.cells`` maps timestamps to cells in one array pass, and per-user
and per-POI cell counts feed the latent temporal model and the
shared-activity overlap.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, InvariantError
from .ingest import CheckInLog
from .localtime import local_hour, local_weekday

SLAB_INDEX_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TemporalFactorSpec:
    """One temporal granularity: a total slot extractor plus its containment rank.

    ``slot_of`` works elementwise on int64 timestamp arrays.
    ``containment_rank`` orders granularities by containment (lower = finer:
    minute < hour < day < week); it fixes the conditioning order of the
    latent chain and the axis order of slab tables.
    """

    name: str
    slot_count: int
    slot_of: Callable[[np.ndarray], np.ndarray]
    containment_rank: int
    utc_offset: int = 0

    def __post_init__(self):
        if self.slot_count < 2:
            raise ConfigError(f"factor {self.name}: slot_count must be >= 2")


def hour_factor(utc_offset: int = 0) -> TemporalFactorSpec:
    return TemporalFactorSpec("hour", 24, lambda ts: local_hour(ts, utc_offset),
                              containment_rank=1, utc_offset=utc_offset)


def day_factor(utc_offset: int = 0) -> TemporalFactorSpec:
    return TemporalFactorSpec("day", 7, lambda ts: local_weekday(ts, utc_offset),
                              containment_rank=2, utc_offset=utc_offset)


FACTOR_BUILDERS: Mapping[str, Callable[[int], TemporalFactorSpec]] = {
    "hour": hour_factor,
    "day": day_factor,
}


def build_factor(name: str, utc_offset: int = 0) -> TemporalFactorSpec:
    if name not in FACTOR_BUILDERS:
        raise ConfigError(f"unknown temporal factor {name!r}; known: {sorted(FACTOR_BUILDERS)}")
    return FACTOR_BUILDERS[name](utc_offset)


def slot_pair_cosines(user: np.ndarray, slot: np.ndarray, poi: np.ndarray, n_users: int,
                      n_slots: int, binary: bool = False
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosine similarity of every pair of each user's active slots, for many
    users at once.

    One entry per check-in: the user (an int below ``n_users``), its slot and
    its POI int.  A user's slot vector counts their check-ins per POI in that
    slot (0/1 presence with ``binary=True``); a slot is active when it holds
    a check-in, and an inactive slot yields no sample at all (it must not be
    conflated with similarity zero).  Returns ``(slot_a, slot_b, value)``
    with ``slot_a < slot_b``, ordered by (user, slot_a, slot_b).  Each user's
    Gram matrix over slots is summed from the products of the counts that
    share a (user, POI), so every dot product and squared norm is an exact
    integer.
    """
    n_pois = int(poi.max()) + 1 if len(poi) else 1
    keys, counts = np.unique((user.astype(np.int64) * n_pois + poi) * n_slots + slot,
                             return_counts=True)
    weight = np.ones(len(keys)) if binary else counts.astype(float)
    group, slot_of = np.divmod(keys, n_slots)
    # Every ordered pair of entries within one (user, POI) group.
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    sizes = np.diff(np.r_[starts, len(keys)])
    size = np.repeat(sizes, sizes)
    left = np.repeat(np.arange(len(keys)), size)
    right = (np.repeat(np.repeat(starts, sizes), size)
             + np.arange(len(left)) - np.repeat(np.cumsum(size) - size, size))
    cell = ((group[left] // n_pois) * n_slots + slot_of[left]) * n_slots + slot_of[right]
    gram = np.bincount(cell, weights=weight[left] * weight[right],
                       minlength=n_users * n_slots * n_slots).reshape(n_users, n_slots, n_slots)
    squares = np.diagonal(gram, axis1=1, axis2=2)
    active = squares > 0
    owner, a, b = np.nonzero(active[:, :, None] & active[:, None, :]
                             & np.triu(np.ones((n_slots, n_slots), dtype=bool), 1))
    norm = np.sqrt(squares)
    return a, b, gram[owner, a, b] / (norm[owner, a] * norm[owner, b])


class SimilaritySamples:
    """Raw per-user similarity observations for one factor, in draw order.

    ``pairs`` and ``values`` hold one chunk per ``extend``: each sample's
    slot pair as the int ``a * n + b`` with a < b, and its value.  ``count``
    is the running (n, n) sample count per pair, on the upper triangle.
    """

    def __init__(self, factor: TemporalFactorSpec):
        self.factor = factor
        self.pairs: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        n = factor.slot_count
        self.count = np.zeros((n, n), dtype=np.int64)

    def extend(self, slot_a, slot_b, values) -> None:
        """Append samples in order, each under its slot pair."""
        slot_a, slot_b = np.asarray(slot_a), np.asarray(slot_b)
        n = self.factor.slot_count
        pair = np.minimum(slot_a, slot_b) * n + np.maximum(slot_a, slot_b)
        self.pairs.append(pair)
        self.values.append(np.asarray(values, dtype=float))
        self.count += np.bincount(pair, minlength=n * n).reshape(n, n)

    def covered(self, m_min: int) -> bool:
        return bool((self.count[np.triu_indices(self.factor.slot_count, 1)] >= m_min).all())


@dataclass
class SlotSimilarityMatrix:
    """Symmetric slot-by-slot similarity with observation counts.

    Cells observed with fewer than the sample floor stay NaN until matrix
    completion imputes them; the diagonal is definitionally 1 and always
    observed.  ``completed_mask`` marks imputed cells.
    """

    factor: TemporalFactorSpec
    sim: np.ndarray
    count: np.ndarray
    observed: np.ndarray
    completed_mask: np.ndarray

    def copy(self) -> "SlotSimilarityMatrix":
        return SlotSimilarityMatrix(self.factor, self.sim.copy(), self.count.copy(),
                                    self.observed.copy(), self.completed_mask.copy())

    def is_complete(self) -> bool:
        return bool((self.observed | self.completed_mask).all())


def aggregate_similarity(samples: SimilaritySamples, m_min: int = 1) -> SlotSimilarityMatrix:
    """Average the per-user samples into a similarity matrix.

    A cell becomes observed once it has at least ``m_min`` samples; the mean
    over contributing users is symmetric by construction.  Each pair's mean
    is ``np.mean`` over its samples taken contiguous and in draw order.
    """
    n = samples.factor.slot_count
    count = samples.count + samples.count.T
    observed = count >= max(m_min, 1)
    np.fill_diagonal(observed, True)
    sim = np.full((n, n), np.nan)
    np.fill_diagonal(sim, 1.0)
    pairs = np.concatenate([np.empty(0, dtype=np.intp), *samples.pairs])
    order = np.argsort(pairs, kind="stable")
    values = np.concatenate([np.empty(0), *samples.values])[order]
    keys, starts = np.unique(pairs[order], return_index=True)
    for key, vals in zip(keys.tolist(), np.split(values, starts[1:])):
        a, b = divmod(key, n)
        if observed[a, b]:
            sim[a, b] = sim[b, a] = float(np.mean(vals))
    return SlotSimilarityMatrix(samples.factor, sim, count, observed,
                                np.zeros((n, n), dtype=bool))


def complete_matrix(matrix: SlotSimilarityMatrix, rank: int = 3, reg: float = 0.01,
                    iters: int = 200, tol: float = 1e-8, seed: int = 0) -> SlotSimilarityMatrix:
    """Impute unobserved cells from a rank-``rank`` symmetric factorization.

    Fits S ~ F F^T on the observed off-diagonal cells by regularized
    alternating least squares; observed cells are never altered and imputed
    values are clamped to [0, 1].  The diagonal is excluded from the fit
    (it is fixed at its stored value and never imputed).
    """
    n = matrix.sim.shape[0]
    if matrix.observed.all():
        return matrix.copy()
    eye = np.eye(n, dtype=bool)
    off_obs = matrix.observed & ~eye
    if not off_obs.any():
        raise DataError("matrix completion needs at least one observed off-diagonal cell")
    observed_cells = int(np.triu(matrix.observed).sum())
    if observed_cells < n * rank:
        raise DataError(f"insufficient observations for rank {rank}: "
                        f"{observed_cells} observed cells < {n * rank} required")
    out = matrix.copy()

    rng = np.random.default_rng([seed, 7])
    factors = rng.uniform(0.1, 0.9, size=(n, rank)) / math.sqrt(rank)
    s_obs = np.where(off_obs, np.nan_to_num(matrix.sim), 0.0)
    # Each slot's observed partners and their similarities, fixed across
    # iterations.
    row_obs = []
    for i in range(n):
        js = np.flatnonzero(off_obs[i])
        if js.size:
            row_obs.append((i, js, s_obs[i, js]))
    observed_sims = s_obs[off_obs]
    reg_eye = reg * np.eye(rank)
    prev = math.inf
    for _ in range(iters):
        for i, js, sims in row_obs:
            partners = factors[js]
            gram = partners.T @ partners + reg_eye
            rhs = partners.T @ sims
            try:
                factors[i] = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                factors[i] = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        pred = factors @ factors.T
        obj = float(np.sum((observed_sims - pred[off_obs]) ** 2)) + reg * float(np.sum(factors ** 2))
        if math.isfinite(prev) and abs(prev - obj) <= tol * max(abs(prev), 1e-12):
            break
        prev = obj

    pred = np.clip(factors @ factors.T, 0.0, 1.0)
    fill = ~matrix.observed
    out.sim[fill] = pred[fill]
    out.completed_mask = fill.copy()
    return out


def hac_complete_linkage(matrix: SlotSimilarityMatrix,
                         threshold: float) -> tuple[tuple[int, ...], ...]:
    """Partition slots into slabs by bottom-up complete-linkage clustering.

    Two clusters merge only while their least-similar cross pair is still at
    or above ``threshold``, so every within-slab slot pair is guaranteed to
    be at least that similar.  Equal-distance merge candidates are resolved
    toward the lexicographically smallest slot ids.  Returns the slabs as
    ascending slot tuples, ordered by first slot.
    """
    if not matrix.is_complete():
        raise DataError("similarity matrix has unobserved cells; run completion first")
    sim = matrix.sim
    if not np.isfinite(sim).all():
        raise InvariantError(f"{matrix.factor.name} similarity matrix holds a non-finite value")
    n = sim.shape[0]
    clusters: list[tuple[int, ...]] = [(s,) for s in range(n)]
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                link = min(sim[a, b] for a in clusters[i] for b in clusters[j])
                key = (-link, min(clusters[i]), min(clusters[j]))
                if best is None or key < best[0]:
                    best = (key, i, j, link)
        _, i, j, link = best
        if link < threshold:
            break
        merged = tuple(sorted(clusters[i] + clusters[j]))
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [merged]
    return tuple(sorted(clusters))


class SlabIndex:
    """Immutable mapping timestamp -> multi-aspect grid cell.

    ``factors`` are kept finest-first (ascending containment rank); the grid
    axes run coarsest-first, see ``grid_shape`` and ``cells``.  ``slab_sets``
    holds each factor's slabs as slot tuples, sorted within a slab; a slab's
    index is its position, as ``slab_index.json`` stores them.
    """

    def __init__(self, factors: Sequence[TemporalFactorSpec],
                 slab_sets: Mapping[str, Sequence[Sequence[int]]]):
        if not factors:
            raise DataError("SlabIndex requires at least one factor")
        self.factors = tuple(sorted(factors, key=lambda f: f.containment_rank))
        ranks = [f.containment_rank for f in self.factors]
        if len(set(ranks)) != len(ranks):
            raise ConfigError(f"duplicate containment ranks: {ranks}")
        self.slab_sets = {f.name: tuple(tuple(sorted(slab)) for slab in slab_sets[f.name])
                          for f in self.factors}
        lookups = []
        for f in self.factors:
            covered = sorted(s for slab in self.slab_sets[f.name] for s in slab)
            if covered != list(range(f.slot_count)):
                raise DataError(f"slabs of factor {f.name} do not partition its slots")
            slab_by_slot = np.empty(f.slot_count, dtype=np.intp)
            for i, slab in enumerate(self.slab_sets[f.name]):
                slab_by_slot[list(slab)] = i
            lookups.append((f, slab_by_slot))
        self._slab_lookups = lookups[::-1]  # coarsest first, as the grid axes

    def slab_counts(self) -> dict[str, int]:
        return {f.name: len(self.slab_sets[f.name]) for f in self.factors}

    def grid_shape(self) -> tuple[int, ...]:
        """Slab counts per factor, coarsest first (array axis order for tables)."""
        return tuple(len(self.slab_sets[f.name]) for f in reversed(self.factors))

    def cells(self, timestamps) -> np.ndarray:
        """Flat grid cell of each timestamp: the C-order index over
        ``grid_shape`` of its per-factor slabs, coarsest first."""
        ts = np.asarray(timestamps, dtype=np.int64)
        return np.ravel_multi_index([slab_by_slot[f.slot_of(ts)]
                                     for f, slab_by_slot in self._slab_lookups],
                                    self.grid_shape())

    def _payload(self) -> dict:
        return {
            "format_version": SLAB_INDEX_FORMAT_VERSION,
            "factors": [
                {"name": f.name, "slot_count": f.slot_count,
                 "containment_rank": f.containment_rank, "utc_offset": f.utc_offset}
                for f in self.factors
            ],
            "slabs": {name: [list(slab) for slab in slabs]
                      for name, slabs in self.slab_sets.items()},
        }

    def to_json(self, fingerprint: str = "") -> str:
        """Versioned text form.  The content checksum covers factor specs and
        slab memberships only, so the run fingerprint can vary freely.

        ``from_json`` rebuilds factors with ``_rebuild``, so a factor it
        cannot rebuild raises ``ConfigError`` here instead of being written
        unreadable.
        """
        for f in self.factors:
            _rebuild(f.name, f.utc_offset, f.slot_count, f.containment_rank)
        payload = self._payload()
        payload["checksum"] = _checksum(payload)
        if fingerprint:
            payload["fingerprint"] = fingerprint
        return json.dumps(payload, sort_keys=True, indent=1)

    @property
    def checksum(self) -> str:
        return _checksum(self._payload())

    @classmethod
    def from_json(cls, text: str) -> "SlabIndex":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"unreadable slab index: {exc}") from exc
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if version != SLAB_INDEX_FORMAT_VERSION:
            raise DataError(f"unsupported slab index format {version!r}")
        payload.pop("fingerprint", None)
        stored = payload.pop("checksum", None)
        if stored != _checksum(payload):
            raise DataError("slab index checksum mismatch; file is stale or corrupted")
        try:
            factors = [_rebuild(spec["name"], spec["utc_offset"], spec["slot_count"],
                                spec["containment_rank"]) for spec in payload["factors"]]
            return cls(factors, payload["slabs"])
        except (KeyError, TypeError, IndexError) as exc:
            raise DataError(f"malformed slab index: {type(exc).__name__} {exc}") from exc


def _rebuild(name: str, utc_offset: int, slot_count: int, rank: int) -> TemporalFactorSpec:
    """The built-in factor a slab index stores as (name, offset, slot count,
    containment rank); ``ConfigError`` when no built-in factor matches."""
    built = FACTOR_BUILDERS[name](utc_offset) if name in FACTOR_BUILDERS else None
    if built is None or (built.slot_count, built.containment_rank) != (slot_count, rank):
        raise ConfigError(f"factor {name!r} is not a built-in factor "
                          f"({', '.join(sorted(FACTOR_BUILDERS))}) with slot count {slot_count} "
                          f"and containment rank {rank}, so a slab index cannot hold it")
    return built


def _checksum(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def all_slab_profiles(log: CheckInLog, index: SlabIndex) -> tuple[np.ndarray, np.ndarray]:
    """Check-in counts per (user, cell) and per (POI, cell), in the log's
    ``columns`` int order; a user without check-ins has a zero row."""
    columns = log.columns
    n_cells = math.prod(index.grid_shape())
    cells = index.cells(columns.timestamp)

    def counts(owner: np.ndarray, n_owners: int) -> np.ndarray:
        flat = np.bincount(owner * n_cells + cells, minlength=n_owners * n_cells)
        return flat.reshape(n_owners, n_cells)

    return counts(columns.user, len(columns.users)), counts(columns.poi, len(columns.pois))


def coverage_csv(matrices: Iterable[SlotSimilarityMatrix]) -> str:
    """Sample count of every slot pair (a < b) of each factor, row-major."""
    lines = ["factor,slot_a,slot_b,sample_count"]
    for matrix in matrices:
        a, b = np.triu_indices(matrix.sim.shape[0], 1)
        lines += [f"{matrix.factor.name},{i},{j},{c}"
                  for i, j, c in zip(a.tolist(), b.tolist(), matrix.count[a, b].tolist())]
    return "\n".join(lines) + "\n"


def similarity_csv(matrix: SlotSimilarityMatrix) -> str:
    """CSV export of one factor's similarity map (plot-ready)."""
    lines = ["factor,slot_a,slot_b,similarity,count,imputed"]
    n = matrix.sim.shape[0]
    for a in range(n):
        for b in range(n):
            value = matrix.sim[a, b]
            rendered = "" if np.isnan(value) else repr(float(value))
            lines.append(f"{matrix.factor.name},{a},{b},{rendered},"
                         f"{int(matrix.count[a, b])},{int(matrix.completed_mask[a, b])}")
    return "\n".join(lines) + "\n"
