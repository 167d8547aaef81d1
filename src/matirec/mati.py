"""Latent multi-aspect temporal model (MATI): joint probability, EM, scoring.

For every observed (user, POI) pair the model keeps a chain of conditional
slab tables, finest granularity conditioned on all coarser ones:

    Pr(z_1 | z_2..z_t, u, l) * ... * Pr(z_{t-1} | z_t, u, l) * Pr(z_t | u, l)

Table arrays are indexed coarsest-first, so the table for chain level k has
the conditioning axes first and the level's own slab axis last; every table
sums to 1 over that last axis for each conditioning tuple.

The joint visit probability is Pr(u) * Pr_nu(l|u) * chain, with Pr(u) = 1
(users are treated equally) and Pr_nu the fixed non-temporal score.  All
probability arithmetic runs in log space with an explicit -inf sentinel for
zero factors, never a silent underflow.

EM: the E step's responsibilities for a pair are its own current joint J,
renormalized, and the M step blends them with the pair's empirical slab
histogram H over its n check-ins,

    J' = (H + gamma * J) / (n + gamma).

The fixed point is the empirical histogram H/n, and EM reaches it smoothed
toward the global popularity joint J_0 it starts from: after k iterations

    J_k = H/n + (gamma / (n + gamma))^k * (J_0 - H/n).

``run_em`` computes iteration k directly for all pairs at once; ``e_step``,
``m_step`` and ``joint_prob`` are the per-pair reference it is tested
against.  The reported log-likelihood is the per-event data log-likelihood
under the current tables (plus the fixed Pr_nu terms); it is non-decreasing
across iterations.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .baselines import max_normalize
from .errors import ConfigError, DataError, InvariantError
from .ingest import CheckInLog
from .slabs import SlabIndex, SlabProfile, TemporalFactorSpec

logger = logging.getLogger(__name__)

PARAMS_FORMAT_VERSION = 1

ROW_SUM_TOL = 1e-9
MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class ChainLayout:
    """Conditional-table layout for a set of temporal factors.

    ``shape`` holds per-level slab counts coarsest-first (the array axis
    order); ``levels`` names the factors in the same order.
    """

    levels: tuple[str, ...]
    shape: tuple[int, ...]

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))


def chain_factorization(factors: Sequence[tuple[TemporalFactorSpec, int]] |
                        Sequence[tuple[str, int, int]]) -> ChainLayout:
    """Layout for (factor, slab_count) pairs; finest factor ends the chain.

    Accepts (TemporalFactorSpec, slab_count) or (name, containment_rank,
    slab_count) tuples.  Duplicate containment ranks are rejected.
    """
    norm = []
    for item in factors:
        if isinstance(item[0], TemporalFactorSpec):
            spec, count = item
            norm.append((spec.name, spec.containment_rank, count))
        else:
            norm.append(tuple(item))
    if not norm:
        raise DataError("chain factorization requires at least one factor")
    ranks = [r for _, r, _ in norm]
    if len(set(ranks)) != len(ranks):
        raise ConfigError(f"duplicate containment ranks: {ranks}")
    ordered = sorted(norm, key=lambda t: -t[1])  # coarsest first
    return ChainLayout(tuple(n for n, _, _ in ordered), tuple(c for _, _, c in ordered))


def layout_for(index: SlabIndex) -> ChainLayout:
    counts = index.slab_counts()
    return chain_factorization([(f, counts[f.name]) for f in index.factors])


def chain_from_joint(joint: np.ndarray) -> list[np.ndarray]:
    """Factor a joint slab table into the conditional chain."""
    return [table[0] for table in _stacked_chains(joint[None])]


def _stacked_chains(joints: np.ndarray) -> list[np.ndarray]:
    """Conditional chains of a stack of joint tables (stack axis first).

    Level k's table is the joint marginalized over all finer axes and
    normalized along axis k given the coarser axes; conditioning tuples with
    zero mass fall back to a uniform row (their reconstructed joint mass
    stays zero).
    """
    t = joints.ndim - 1
    tables = []
    fallbacks = 0
    for k in range(1, t + 1):
        marg = joints.sum(axis=tuple(range(k + 1, t + 1)))
        denom = marg.sum(axis=k, keepdims=True)
        size = marg.shape[k]
        with np.errstate(invalid="ignore", divide="ignore"):
            table = np.where(denom > 0, marg / np.where(denom > 0, denom, 1.0), 1.0 / size)
        fallbacks += int(np.count_nonzero(denom <= 0))
        tables.append(table)
    if fallbacks:
        logger.debug("chain_from_joint: %d zero-mass conditioning tuples set uniform", fallbacks)
    return tables


def joint_from_chain(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply the chain back into the full joint table."""
    joint = tables[0]
    for table in tables[1:]:
        joint = joint[..., None] * table
    return joint


def log_joint_from_chain(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Log-space joint with -inf where any chain factor is zero."""
    with np.errstate(divide="ignore"):
        acc = np.log(tables[0])
        for table in tables[1:]:
            acc = acc[..., None] + np.log(table)
    return acc


def validate_chain(tables: Sequence[np.ndarray]) -> None:
    for k, table in enumerate(tables):
        if (table < 0).any():
            raise InvariantError(f"chain level {k} has negative entries")
        sums = table.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=ROW_SUM_TOL, rtol=0):
            raise InvariantError(f"chain level {k} rows do not sum to 1 (max err "
                                 f"{float(np.abs(sums - 1).max()):.3e})")


@dataclass
class MatiParams:
    """Trained parameter set: fixed non-temporal scores plus slab chains.

    ``pair_tables`` covers observed pairs; candidate pairs unseen in
    training back off to the POI-marginal chain (mean of the POI's observed
    pair joints) and finally to the global popularity chain.
    """

    layout: ChainLayout
    pr_nu: dict[tuple[str, str], float]
    pair_tables: dict[tuple[str, str], list[np.ndarray]]
    poi_tables: dict[str, list[np.ndarray]] = field(default_factory=dict)
    global_table: list[np.ndarray] | None = None
    slab_checksum: str = ""

    def tables_for(self, user: str, poi: str) -> list[np.ndarray]:
        pair = (user, poi)
        if pair in self.pair_tables:
            return self.pair_tables[pair]
        if poi in self.poi_tables:
            return self.poi_tables[poi]
        if self.global_table is None:
            raise DataError(f"no tables for pair {pair} and no global fallback")
        return self.global_table

    def validate(self) -> None:
        for tables in self.pair_tables.values():
            validate_chain(tables)
        for tables in self.poi_tables.values():
            validate_chain(tables)
        if self.global_table is not None:
            validate_chain(self.global_table)


@dataclass
class EmReport:
    """Per-iteration log-likelihood trace; index 0 is the initial tables."""

    log_likelihood: list[float]
    iterations: int
    converged: bool


def psi_shared_activity(user_profile: SlabProfile, poi_profile: SlabProfile) -> float:
    """Jaccard overlap of the two slab-id sets (extent of shared activity)."""
    a, b = user_profile.slab_set, poi_profile.slab_set
    union = a | b
    if not union:
        raise DataError("shared activity undefined: both slab profiles empty")
    return len(a & b) / len(union)


def joint_prob(user: str, poi: str, assignment: tuple[int, ...], params: MatiParams,
               pr_nu: float | None = None) -> float:
    """Log joint probability of (user, poi, slab assignment).

    ``assignment`` indexes slabs coarsest-first.  Any zero factor yields the
    -inf sentinel.  ``pr_nu`` overrides the stored non-temporal score (used
    when scoring candidate pairs).
    """
    if pr_nu is None:
        pr_nu = params.pr_nu.get((user, poi))
        if pr_nu is None:
            raise DataError(f"no stored non-temporal score for pair ({user}, {poi})")
    if pr_nu < 0:
        raise DataError(f"negative non-temporal score for ({user}, {poi})")
    # log Pr(u) = log 1 = 0 contributes nothing.
    log_p = -math.inf if pr_nu == 0 else math.log(pr_nu)
    tables = params.tables_for(user, poi)
    for k, table in enumerate(tables):
        value = float(table[assignment[:k + 1]])
        if value == 0.0:
            return -math.inf
        log_p += math.log(value)
    return log_p


def e_step(params: MatiParams, pairs: Sequence[tuple[str, str]]) -> dict[tuple[str, str], np.ndarray]:
    """Posterior slab responsibilities per pair, log-sum-exp normalized."""
    out: dict[tuple[str, str], np.ndarray] = {}
    for pair in pairs:
        user, poi = pair
        pr_nu = params.pr_nu.get(pair)
        if pr_nu is None or pr_nu <= 0:
            raise DataError(f"pair {pair} has no positive non-temporal score")
        log_joint = log_joint_from_chain(params.tables_for(user, poi)) + math.log(pr_nu)
        top = log_joint.max()
        if top == -math.inf:
            raise DataError(f"pair {pair} has no support")
        shifted = np.exp(log_joint - top)
        out[pair] = shifted / shifted.sum()
    return out


def m_step(responsibilities: Mapping[tuple[str, str], np.ndarray],
           evidence: Mapping[tuple[str, str], np.ndarray],
           gamma: float = 1.0) -> dict[tuple[str, str], list[np.ndarray]]:
    """Update each pair's chain from evidence-blended responsibilities."""
    tables: dict[tuple[str, str], list[np.ndarray]] = {}
    for pair in responsibilities:
        resp = responsibilities[pair]
        hist = evidence.get(pair)
        n = float(hist.sum()) if hist is not None else 0.0
        if n > 0:
            blended = (hist + gamma * resp) / (n + gamma)
        else:
            blended = resp
        tables[pair] = chain_from_joint(blended)
    return tables


def run_em(log: CheckInLog, index: SlabIndex, pr_nu: Mapping[tuple[str, str], float],
           init: Mapping[tuple[str, str], list[np.ndarray]] | None = None,
           max_iter: int = 200, tol: float = 1e-6,
           gamma: float = 1.0) -> tuple[MatiParams, EmReport]:
    """Run EM on every observed pair's slab tables, in closed form.

    Observed pairs are every (user, poi) with at least one training
    check-in, in sorted order.  EM starts from the global popularity joint,
    or from ``init`` when given, and iteration k is evaluated directly (see
    the module docstring).  The run stops when the relative log-likelihood
    change drops below ``tol`` or after ``max_iter`` iterations; a decrease
    beyond the slack is an invariant breach.
    """
    pairs = sorted({(c.user_id, c.poi_id) for c in log.checkins})
    if not pairs:
        raise DataError("no observed pairs to train on")
    weights = np.array([pr_nu.get(pair, 0.0) for pair in pairs], dtype=float)
    bad = np.flatnonzero(weights <= 0)
    if bad.size:
        raise DataError(f"observed pair {pairs[bad[0]]} needs a positive non-temporal score")

    # Slab histogram H, one row per pair over the flattened grid.
    shape = index.grid_shape()
    row = {pair: i for i, pair in enumerate(pairs)}
    pair_of = np.fromiter((row[(c.user_id, c.poi_id)] for c in log.checkins), dtype=np.intp,
                          count=len(log.checkins))
    stamps, stamp_of = np.unique(np.fromiter((c.timestamp for c in log.checkins), dtype=np.int64,
                                             count=len(log.checkins)), return_inverse=True)
    cell_of_stamp = np.array([np.ravel_multi_index(index.grid_index_of(int(ts)), shape)
                              for ts in stamps], dtype=np.intp)
    hist = np.zeros((len(pairs), math.prod(shape)))
    np.add.at(hist, (pair_of, cell_of_stamp[stamp_of]), 1.0)

    n = hist.sum(axis=1, keepdims=True)
    empirical = hist / n
    popularity = hist.sum(axis=0) / len(log.checkins)
    if init is None:
        start = np.broadcast_to(popularity, hist.shape)
    else:
        levels = [np.stack([init[pair][k] for pair in pairs]) for k in range(len(shape))]
        start = joint_from_chain(levels).reshape(hist.shape)
    rate = gamma / (n + gamma)

    # J_k on the cells that carry evidence is all the likelihood needs.
    rows, cells = np.nonzero(hist)
    counts, target = hist[rows, cells], empirical[rows, cells]
    gap, cell_rate = start[rows, cells] - target, rate[rows, 0]
    base = float(n[:, 0] @ np.log(weights))

    def log_likelihood(k: int) -> float:
        with np.errstate(divide="ignore"):
            return base + float(counts @ np.log(target + cell_rate ** k * gap))

    trace = [log_likelihood(0)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ll = log_likelihood(iterations)
        prev = trace[-1]
        slack = MONOTONE_SLACK * max(1.0, abs(prev))
        if prev != -math.inf and ll < prev - slack:
            raise InvariantError(f"log-likelihood decreased: {prev} -> {ll}")
        trace.append(ll)
        denom = max(abs(prev), 1e-12)
        if prev != -math.inf and abs(ll - prev) / denom < tol:
            converged = True
            break

    joints = (empirical + rate ** iterations * (start - empirical)).reshape(len(pairs), *shape)
    pair_chains = _stacked_chains(joints)
    # POI backoff chain: mean of the POI's observed pair joints.
    pois, poi_of = np.unique([poi for _, poi in pairs], return_inverse=True)
    poi_sums = np.zeros((len(pois), *shape))
    np.add.at(poi_sums, poi_of, joints)
    poi_chains = _stacked_chains(poi_sums / np.bincount(poi_of).reshape(-1, *[1] * len(shape)))
    global_chain = chain_from_joint(popularity.reshape(shape))
    for chain in (pair_chains, poi_chains, global_chain):
        validate_chain(chain)

    params = MatiParams(
        layout=layout_for(index),
        pr_nu={pair: float(w) for pair, w in zip(pairs, weights)},
        pair_tables={pair: [t[i] for t in pair_chains] for i, pair in enumerate(pairs)},
        poi_tables={poi: [t[i] for t in poi_chains] for i, poi in enumerate(pois.tolist())},
        global_table=global_chain,
        slab_checksum=index.checksum)
    return params, EmReport(trace, iterations, converged)


class SlabIncidence:
    """Which multi-aspect slabs each owner (a POI, say) was active in.

    A boolean owner-by-slab matrix over the slabs of the given profiles; an
    owner without a profile has an empty row.
    """

    def __init__(self, profiles: Mapping[str, SlabProfile], owners: Sequence[str]):
        slabs = sorted({s for profile in profiles.values() for s in profile.slab_set})
        self.column = {s: j for j, s in enumerate(slabs)}
        cells = [(i, self.column[s]) for i, owner in enumerate(owners)
                 if owner in profiles for s in profiles[owner].slab_set]
        self.matrix = np.zeros((len(owners), len(slabs)), dtype=bool)
        if cells:
            self.matrix[tuple(np.array(cells).T)] = True
        self.sizes = np.count_nonzero(self.matrix, axis=1)

    def shared_activity(self, profile: SlabProfile | None) -> np.ndarray:
        """Per owner: Jaccard overlap of its slab set with ``profile``'s
        (``psi_shared_activity``); zero where either side is missing or both
        are empty."""
        if profile is None:
            return np.zeros(len(self.sizes))
        mine = profile.slab_set
        inter = np.count_nonzero(
            self.matrix[:, [self.column[s] for s in mine if s in self.column]], axis=1)
        union = len(mine) + self.sizes - inter
        psi = np.zeros(len(self.sizes))
        np.divide(inter, union, out=psi, where=union > 0)
        return psi


def poi_depth_means(params: MatiParams, pois: Sequence[str]) -> np.ndarray:
    """Per POI: the mean joint probability of its backoff chain over the slab
    grid (the global chain for a POI without one).

    Candidates are POIs the user has not visited, so their depth is
    ``pr_nu * mean`` of exactly these chains.  Every valid chain's joint sums
    to 1, so the mean is 1 / n_cells and the trained tables never change a
    ranking (the open depth fix in ROADMAP.md).  The fixed depth,
    ``pr_nu * sum_z q_u(z) * Pr(z | u, l)`` with ``q_u`` the user's
    normalized slab histogram, is the matrix-vector product
    ``joints.reshape(len(pois), -1) @ q_u`` against these same stacked
    per-POI joints.
    """
    chains = [params.poi_tables.get(poi, params.global_table) for poi in pois]
    if any(chain is None for chain in chains):
        raise DataError("a POI has no backoff tables and there is no global fallback")
    if not chains:
        return np.zeros(0)
    levels = [np.stack([chain[k] for chain in chains]) for k in range(len(chains[0]))]
    joints = joint_from_chain(levels)
    return joints.reshape(len(pois), -1).mean(axis=1)


def mati_mix(psi: np.ndarray, depth: np.ndarray, phi_t: float) -> np.ndarray:
    """Mixture score over a candidate set.

    Both components are max-normalized per query user before mixing:
    phi_t * shared_activity + (1 - phi_t) * depth.
    """
    if not 0 <= phi_t <= 1:
        raise ConfigError(f"phi_t must be in [0,1], got {phi_t}")
    return phi_t * max_normalize(psi) + (1 - phi_t) * max_normalize(depth)


def params_to_json(params: MatiParams, fingerprint: str = "") -> str:
    payload = {
        "format_version": PARAMS_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "slab_checksum": params.slab_checksum,
        "layout": {"levels": list(params.layout.levels), "shape": list(params.layout.shape)},
        "pr_nu": {f"{u}\t{l}": v for (u, l), v in sorted(params.pr_nu.items())},
        "pair_tables": {f"{u}\t{l}": [t.tolist() for t in tables]
                        for (u, l), tables in sorted(params.pair_tables.items())},
        "poi_tables": {poi: [t.tolist() for t in tables]
                       for poi, tables in sorted(params.poi_tables.items())},
        "global_table": ([t.tolist() for t in params.global_table]
                         if params.global_table is not None else None),
    }
    return json.dumps(payload, sort_keys=True)


def params_from_json(text: str, expected_checksum: str | None = None) -> MatiParams:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"unreadable model parameters: {exc}") from exc
    if payload.get("format_version") != PARAMS_FORMAT_VERSION:
        raise DataError(f"unsupported parameter format {payload.get('format_version')!r}")
    if expected_checksum is not None and payload["slab_checksum"] != expected_checksum:
        raise DataError("model parameters were trained against a different slab index; refusing")
    layout = ChainLayout(tuple(payload["layout"]["levels"]), tuple(payload["layout"]["shape"]))

    def split(key: str) -> tuple[str, str]:
        u, _, l = key.partition("\t")
        return u, l

    params = MatiParams(
        layout=layout,
        pr_nu={split(k): float(v) for k, v in payload["pr_nu"].items()},
        pair_tables={split(k): [np.asarray(t) for t in tables]
                     for k, tables in payload["pair_tables"].items()},
        poi_tables={poi: [np.asarray(t) for t in tables]
                    for poi, tables in payload["poi_tables"].items()},
        global_table=([np.asarray(t) for t in payload["global_table"]]
                      if payload["global_table"] is not None else None),
        slab_checksum=payload["slab_checksum"],
    )
    params.validate()
    return params
