"""Latent multi-aspect temporal model (MATI): joint probability, EM, scoring.

For every observed (user, POI) pair the model keeps a chain of conditional
slab tables, finest granularity conditioned on all coarser ones:

    Pr(z_1 | z_2..z_t, u, l) * ... * Pr(z_{t-1} | z_t, u, l) * Pr(z_t | u, l)

Table arrays are indexed coarsest-first, so the table for chain level k has
the conditioning axes first and the level's own slab axis last; every table
sums to 1 over that last axis for each conditioning tuple.

Slabs are addressed as integer grid cells (``SlabIndex.cells``); a pair's
evidence is its row of per-cell check-in counts.

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

Scoring mixes the depth with the shared activity psi: the Jaccard overlap of
the cells a user and a POI were active in, from integer rows of per-cell
check-in counts (``shared_activity``).

Parameter file (``mati_params.json``): one JSON object with the layout,
``pr_nu`` and the pair, POI and global chains, each chain a list of its
level tables as nested lists; pair keys are ``user<TAB>poi``.  Its bytes are
exactly ``json.dumps(payload, sort_keys=True)``.  ``params_to_json`` gets
there in a stacked pass: it validates and stacks each chain level over all
pairs (and over all POIs), renders every distinct last-axis row once (on a
day with none of a pair's check-ins, the pair's hour row is the global
one, so most rows repeat) and joins the pieces once.  ``params_from_json``
reads each level into one stack, checks it against the layout (malformed
content is a ``DataError``), validates each stack once, and hands out the
table dicts as views into the stacks.
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
from .slabs import SlabIndex, TemporalFactorSpec

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


def validate_chain(tables: Sequence[np.ndarray], owners: Sequence | None = None) -> None:
    """Every entry is non-negative and every last-axis row sums to 1.

    With ``owners``, each table is a stack whose leading axis runs over them,
    and an error names the first offending owner.  NaN and infinite entries
    fail the row sums.
    """
    def where(bad: np.ndarray) -> str:
        if owners is None:
            return ""
        return f" of {owners[int(np.argmax(bad.reshape(len(owners), -1).any(axis=1)))]!r}"

    for k, table in enumerate(tables):
        if (table < 0).any():
            raise InvariantError(f"chain level {k}{where(table < 0)} has negative entries")
        errors = np.abs(table.sum(axis=-1) - 1)
        off = ~(errors <= ROW_SUM_TOL)
        if off.any():
            raise InvariantError(f"chain level {k}{where(off)} rows do not sum to 1 (max err "
                                 f"{float(errors.max()):.3e})")


@dataclass(frozen=True)
class ChainStack:
    """The chains of several owners, stacked level by level.

    ``levels[k][i]`` is owner i's level-k table and ``keys[i]`` its JSON
    object key.  For writing, owners are sorted by raw key string, as
    ``json.dumps(sort_keys=True)`` sorts them.
    """

    owners: list
    keys: list[str]
    levels: list[np.ndarray]

    def validate(self) -> None:
        validate_chain(self.levels, self.owners)


def _pair_key(pair: tuple[str, str]) -> str:
    return f"{pair[0]}\t{pair[1]}"


def _stack(owners: list, keys: list[str], chains: list, shape: tuple[int, ...], what: str,
           error: type[Exception]) -> ChainStack:
    """Stack chains level by level; ``error`` for a chain that does not fit
    ``shape`` (a bug in memory, malformed data in a file)."""
    if not all(isinstance(chain, (list, tuple)) and len(chain) == len(shape) for chain in chains):
        raise error(f"model parameters: a {what} chain does not have {len(shape)} levels")
    levels = []
    for k in range(len(shape)):
        want = (len(chains), *shape[:k + 1])
        try:
            level = np.array([chain[k] for chain in chains]) if chains else np.zeros(want)
        except ValueError as exc:
            raise error(f"model parameters: {what} level {k} tables are ragged") from exc
        if level.dtype.kind not in "fiu":
            raise error(f"model parameters: {what} level {k} has a non-numeric entry")
        if level.shape != want:
            raise error(f"model parameters: {what} level {k} tables have shape "
                        f"{level.shape[1:]}, the layout needs {want[1:]}")
        levels.append(level.astype(float, copy=False))
    return ChainStack(owners, keys, levels)


def _sorted_stack(tables: Mapping, shape: tuple[int, ...], what: str, key=str) -> ChainStack:
    owners = sorted(tables, key=key)
    return _stack(owners, [key(owner) for owner in owners], [tables[owner] for owner in owners],
                  shape, what, InvariantError)


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

    def stacks(self) -> tuple[ChainStack, ChainStack, ChainStack | None]:
        """Pair, POI and global chains stacked per level, validated."""
        shape = self.layout.shape
        out = (_sorted_stack(self.pair_tables, shape, "pair", _pair_key),
               _sorted_stack(self.poi_tables, shape, "POI"),
               None if self.global_table is None
               else _sorted_stack({"global": self.global_table}, shape, "global"))
        for stack in out:
            if stack is not None:
                stack.validate()
        return out

    def validate(self) -> None:
        self.stacks()


@dataclass
class EmReport:
    """Per-iteration log-likelihood trace; index 0 is the initial tables."""

    log_likelihood: list[float]
    iterations: int
    converged: bool


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
    columns = log.columns
    n_pois = len(columns.pois)
    # Pair keys in int order, which is sorted (user, poi) order.
    keys, pair_of = np.unique(columns.pair, return_inverse=True)
    if not len(keys):
        raise DataError("no observed pairs to train on")
    pair_users, pair_pois = np.divmod(keys, n_pois)
    pairs = [(columns.users[u], columns.pois[p])
             for u, p in zip(pair_users.tolist(), pair_pois.tolist())]
    weights = np.array([pr_nu.get(pair, 0.0) for pair in pairs], dtype=float)
    bad = np.flatnonzero(weights <= 0)
    if bad.size:
        raise DataError(f"observed pair {pairs[bad[0]]} needs a positive non-temporal score")

    # Slab histogram H, one row per pair over the flattened grid.
    shape = index.grid_shape()
    n_cells = math.prod(shape)
    hist = np.bincount(pair_of * n_cells + index.cells(columns.timestamp),
                       minlength=len(pairs) * n_cells).reshape(len(pairs), n_cells).astype(float)

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
    pois, poi_of = np.unique(pair_pois, return_inverse=True)
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
        poi_tables={columns.pois[p]: [t[i] for t in poi_chains]
                    for i, p in enumerate(pois.tolist())},
        global_table=global_chain,
        slab_checksum=index.checksum)
    return params, EmReport(trace, iterations, converged)


def shared_activity(user_cells: np.ndarray, poi_cells: np.ndarray) -> np.ndarray:
    """Per row of ``poi_cells``: the Jaccard overlap of its active cells with
    those of ``user_cells``, from integer intersection and union counts; 0
    where both are empty.  Rows hold per-cell check-in counts (or booleans),
    so a cell is active where its entry is nonzero."""
    mine = np.flatnonzero(user_cells)
    inter = np.count_nonzero(poi_cells[..., mine], axis=-1)
    union = len(mine) + np.count_nonzero(poi_cells, axis=-1) - inter
    psi = np.zeros(union.shape)
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


def _render_rows(level: np.ndarray) -> np.ndarray:
    """JSON text of each last-axis row, shaped like the level without that axis.

    Each distinct row is rendered once, as ``json.dumps`` would, and shared:
    rows are told apart by their bit pattern, so -0.0 and 0.0 stay distinct.
    """
    rows = np.ascontiguousarray(level).reshape(-1, level.shape[-1])
    bits = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    text = np.array(["[" + ", ".join(map(repr, row)) + "]" for row in rows[first].tolist()],
                    dtype=object)
    return text[inverse.ravel()].reshape(level.shape[:-1])


def _chain_template(shape: tuple[int, ...]) -> list:
    """One chain's JSON as literal strings alternating with (level, row) slots;
    rows are numbered in C order within their level."""
    items: list = ["["]

    def nest(k: int, dims: tuple[int, ...], row: int) -> None:
        if not dims:
            items.append((k, row))
            return
        items.append("[")
        step = math.prod(dims[1:])
        for i in range(dims[0]):
            if i:
                items.append(", ")
            nest(k, dims[1:], row + i * step)
        items.append("]")

    for k in range(len(shape)):
        if k:
            items.append(", ")
        nest(k, shape[:k], 0)
    items.append("]")
    merged: list = []
    for item in items:
        if isinstance(item, str) and merged and isinstance(merged[-1], str):
            merged[-1] += item
        else:
            merged.append(item)
    return merged


def _chain_pieces(stack: ChainStack, shape: tuple[int, ...]) -> np.ndarray:
    """Object array with one row per owner; row i joins to owner i's chain."""
    rows = [_render_rows(level).reshape(len(stack.owners), -1) for level in stack.levels]
    template = _chain_template(shape)
    pieces = np.empty((len(stack.owners), len(template)), dtype=object)
    for j, item in enumerate(template):
        pieces[:, j] = item if isinstance(item, str) else rows[item[0]][:, item[1]]
    return pieces


def _object_pieces(stack: ChainStack, shape: tuple[int, ...]) -> list[str]:
    """Pieces of the JSON object mapping each owner's key to its chain."""
    if not stack.owners:
        return ["{}"]
    pieces = _chain_pieces(stack, shape)
    opening = pieces[0, 0]
    pieces[:, 0] = np.array([f", {json.dumps(key)}: {opening}" for key in stack.keys],
                            dtype=object)
    pieces[0, 0] = pieces[0, 0][2:]
    return ["{", *pieces.ravel().tolist(), "}"]


def params_to_json(params: MatiParams, fingerprint: str = "") -> str:
    """The parameter file: exactly ``json.dumps(payload, sort_keys=True)``.

    Tables are validated and stacked per level first, so an invalid or
    non-finite chain raises ``InvariantError`` instead of being written.
    """
    pairs, pois, global_stack = params.stacks()
    shape = params.layout.shape
    fields = {
        "format_version": PARAMS_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "slab_checksum": params.slab_checksum,
        "layout": {"levels": list(params.layout.levels), "shape": list(shape)},
        "pr_nu": {_pair_key(pair): v for pair, v in sorted(params.pr_nu.items())},
    }
    tables = {
        "pair_tables": _object_pieces(pairs, shape),
        "poi_tables": _object_pieces(pois, shape),
        "global_table": (["null"] if global_stack is None
                         else _chain_pieces(global_stack, shape)[0].tolist()),
    }
    pieces = ["{"]
    for name in sorted([*fields, *tables]):
        pieces.append(("" if len(pieces) == 1 else ", ") + json.dumps(name) + ": ")
        if name in fields:
            pieces.append(json.dumps(fields[name], sort_keys=True))
        else:
            pieces.extend(tables[name])
    pieces.append("}")
    return "".join(pieces)


def _field(payload, name: str, kind: type):
    if not isinstance(payload, dict) or not isinstance(payload.get(name), kind):
        raise DataError(f"model parameters have no valid {name!r} ({kind.__name__})")
    return payload[name]


def _load_stack(chains: dict, shape: tuple[int, ...], what: str, owner=str) -> ChainStack:
    return _stack([owner(key) for key in chains], list(chains), list(chains.values()), shape,
                  what, DataError)


def _split_pair_key(key: str) -> tuple[str, str]:
    u, _, l = key.partition("\t")
    return u, l


def _views(stack: ChainStack) -> dict:
    return {owner: [level[i] for level in stack.levels] for i, owner in enumerate(stack.owners)}


class _FloatLiterals(dict):
    """``float`` of each numeric literal, converted once per distinct literal
    (a parameter file repeats few literals many times).  Keys are the literal
    text, so ``-0.0`` and ``0.0`` stay apart."""

    def __missing__(self, literal: str) -> float:
        value = self[literal] = float(literal)
        return value


def params_from_json(text: str, expected_checksum: str | None = None) -> MatiParams:
    """Read a parameter file; malformed content raises ``DataError``.

    Each chain level is read into one stack and validated once; the table
    dicts hold views into those stacks.
    """
    try:
        payload = json.loads(text, parse_float=_FloatLiterals().__getitem__)
    except json.JSONDecodeError as exc:
        raise DataError(f"unreadable model parameters: {exc}") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != PARAMS_FORMAT_VERSION:
        raise DataError(f"unsupported parameter format {version!r}")
    checksum = _field(payload, "slab_checksum", str)
    if expected_checksum is not None and checksum != expected_checksum:
        raise DataError("model parameters were trained against a different slab index; refusing")
    layout_obj = _field(payload, "layout", dict)
    levels, shape = _field(layout_obj, "levels", list), _field(layout_obj, "shape", list)
    if (not shape or len(levels) != len(shape) or not all(isinstance(n, str) for n in levels)
            or not all(type(n) is int and n > 0 for n in shape)):
        raise DataError(f"model parameters have an invalid layout {layout_obj!r}")
    layout = ChainLayout(tuple(levels), tuple(shape))
    pr_nu = _field(payload, "pr_nu", dict)
    if not all(type(v) in (int, float) for v in pr_nu.values()):
        raise DataError("model parameters: pr_nu has a non-numeric entry")
    pairs = _load_stack(_field(payload, "pair_tables", dict), layout.shape, "pair",
                        _split_pair_key)
    pois = _load_stack(_field(payload, "poi_tables", dict), layout.shape, "POI")
    if "global_table" not in payload:
        raise DataError("model parameters have no 'global_table'")
    global_stack = (None if payload["global_table"] is None else
                    _load_stack({"global": payload["global_table"]}, layout.shape, "global"))
    for stack in (pairs, pois, global_stack):
        if stack is not None:
            stack.validate()
    return MatiParams(
        layout=layout,
        pr_nu={_split_pair_key(k): float(v) for k, v in pr_nu.items()},
        pair_tables=_views(pairs),
        poi_tables=_views(pois),
        global_table=None if global_stack is None else _views(global_stack)["global"],
        slab_checksum=checksum,
    )
