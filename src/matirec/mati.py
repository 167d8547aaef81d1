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
(users are treated equally).  Pr_nu is a constant factor of each pair's
joint, so the EM update below never reads it; training passes uniform
weights, and the model's Pr_nu factor is the live USG score, applied at
scoring.  The log-likelihood is summed in log space, where a zero factor is
-inf, never a silent underflow.

EM: the E step's responsibilities for a pair are its own current joint J,
renormalized, and the M step blends them with the pair's empirical slab
histogram H over its n check-ins,

    J' = (H + gamma * J) / (n + gamma).

The fixed point is the empirical histogram H/n, and EM reaches it smoothed
toward the global popularity joint J_0 it starts from: after k iterations

    J_k = H/n + (gamma / (n + gamma))^k * (J_0 - H/n).

``run_em`` computes iteration k directly for all pairs at once.  The
reported log-likelihood is the per-event data log-likelihood under the
current tables plus the constant sum of n_pair * log Pr_nu (0 under
uniform weights), which moves only the relative stop rule; it is
non-decreasing across iterations.

``MatiParams`` holds the pair and POI chains as ``ChainStack``s, one array
per level with a row per owner in raw key string order (the file's order).

Scoring mixes the depth with the shared activity psi: the Jaccard overlap of
the cells a user and a POI were active in, from integer rows of per-cell
check-in counts (``shared_activity``).

Parameter file (``mati_params.json``): one JSON object with the layout,
``pr_nu`` and the pair, POI and global chains, each chain a list of its
level tables as nested lists; pair keys are ``user<TAB>poi``.  Its bytes are
exactly ``json.dumps(payload, sort_keys=True)``.  ``params_to_json``
validates the stacks and renders straight from them: every distinct
last-axis row once (on a day with none of a pair's check-ins, the pair's
hour row is the global one, so most rows repeat), then joins the pieces
once.  ``params_from_json`` reads each level into one stack, checks it
against the layout (malformed content is a ``DataError``) and validates
each stack once.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


def chain_factorization(factors: Sequence[tuple[TemporalFactorSpec, int]]) -> ChainLayout:
    """Layout for (factor, slab_count) pairs; finest factor ends the chain.

    Duplicate containment ranks are rejected.
    """
    if not factors:
        raise DataError("chain factorization requires at least one factor")
    ranks = [spec.containment_rank for spec, _ in factors]
    if len(set(ranks)) != len(ranks):
        raise ConfigError(f"duplicate containment ranks: {ranks}")
    ordered = sorted(factors, key=lambda item: -item[0].containment_rank)  # coarsest first
    return ChainLayout(tuple(spec.name for spec, _ in ordered), tuple(c for _, c in ordered))


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


def validate_chain(tables: Sequence[np.ndarray], owner: Callable[[int], object] | None = None):
    """Every entry is non-negative and every last-axis row sums to 1.

    With ``owner``, each table is a stack whose leading axis runs over
    owners, and an error names the first offending one, ``owner(i)``.  NaN
    and infinite entries fail the row sums.
    """
    def where(bad: np.ndarray) -> str:
        if owner is None:
            return ""
        return f" of {owner(int(np.argmax(bad.reshape(len(bad), -1).any(axis=1))))!r}"

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

    ``levels[k][i]`` is owner i's level-k table and ``keys[i]`` its key in
    the parameter file: ``user<TAB>poi`` for a pair, the POI id for a POI.
    Owners are in raw key string order, as ``json.dumps(sort_keys=True)``
    sorts them.
    """

    keys: tuple[str, ...]
    levels: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.keys)


def pair_of(key: str) -> tuple[str, str]:
    """The (user, poi) of a pair key."""
    user, _, poi = key.partition("\t")
    return user, poi


def pair_keys(log: CheckInLog) -> np.ndarray:
    """Object array of the ``user<TAB>poi`` key of each of ``log.columns.pairs``."""
    columns = log.columns
    pair_users, pair_pois = np.divmod(columns.pairs, len(columns.pois))
    return (np.array(columns.users, dtype=object)[pair_users] + "\t"
            + np.array(columns.pois, dtype=object)[pair_pois])


def _validate_stack(stack: ChainStack, what: str) -> None:
    """``validate_chain`` over a stack; an error names a pair as its (user, poi)."""
    keys = stack.keys
    validate_chain(stack.levels, (lambda i: pair_of(keys[i])) if what == "pair"
                   else keys.__getitem__)


def _sorted_keys(keys: Sequence[str]) -> bool:
    return all(map(str.__lt__, keys[:-1], keys[1:]))


@dataclass
class MatiParams:
    """Trained parameter set: EM's per-pair weights plus slab chains.

    ``pair_tables`` stacks the chains of the observed pairs and ``pr_nu``
    holds the weights EM ran with, aligned with ``pair_tables.keys`` (all
    ones from ``pipeline.train_models``; scoring uses the live USG score).
    Candidate pairs unseen in training back off to the POI-marginal chains
    of ``poi_tables`` (mean of the POI's observed pair joints) and finally
    to the single global popularity chain ``global_table``.
    """

    layout: ChainLayout
    pair_tables: ChainStack
    pr_nu: np.ndarray
    poi_tables: ChainStack
    global_table: list[np.ndarray] | None
    slab_checksum: str = ""


@dataclass
class EmReport:
    """Per-iteration log-likelihood trace; index 0 is the initial tables."""

    log_likelihood: list[float]
    iterations: int
    converged: bool


def run_em(log: CheckInLog, index: SlabIndex, pr_nu: np.ndarray, max_iter: int = 200,
           tol: float = 1e-6, gamma: float = 1.0) -> tuple[MatiParams, EmReport]:
    """Run EM on every observed pair's slab tables, in closed form.

    Observed pairs are every (user, poi) with at least one training
    check-in; ``pr_nu`` holds their positive weights, aligned with
    ``log.columns.pairs``, which enter only the log-likelihood.  EM starts
    from the global popularity joint and iteration k is evaluated directly
    (see the module docstring).  The run stops when the relative
    log-likelihood change drops below ``tol`` or after ``max_iter``
    iterations; a decrease beyond the slack is an invariant breach.
    """
    columns = log.columns
    # Pair rows in int order, which is sorted (user, poi) order.
    keys, pair_of_row = np.unique(columns.pair, return_inverse=True)
    if not len(keys):
        raise DataError("no observed pairs to train on")
    weights = np.asarray(pr_nu, dtype=float)
    names = pair_keys(log)
    bad = np.flatnonzero(~(weights > 0))
    if bad.size:
        raise DataError(f"observed pair {pair_of(names[bad[0]])} needs a positive "
                        f"non-temporal score")

    # Slab histogram H, one row per pair over the flattened grid.
    shape = index.grid_shape()
    n_cells = math.prod(shape)
    hist = np.bincount(pair_of_row * n_cells + index.cells(columns.timestamp),
                       minlength=len(keys) * n_cells).reshape(len(keys), n_cells).astype(float)

    n = hist.sum(axis=1, keepdims=True)
    empirical = hist / n
    start = hist.sum(axis=0) / len(log.checkins)
    rate = gamma / (n + gamma)

    # J_k on the cells that carry evidence is all the likelihood needs.
    rows, cells = np.nonzero(hist)
    counts, target = hist[rows, cells], empirical[rows, cells]
    gap, cell_rate = start[cells] - target, rate[rows, 0]
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

    joints = (empirical + rate ** iterations * (start - empirical)).reshape(len(keys), *shape)
    pair_chains = _stacked_chains(joints)
    # POI backoff chain: mean of the POI's observed pair joints.
    pois, poi_of = np.unique(keys % len(columns.pois), return_inverse=True)
    poi_sums = np.zeros((len(pois), *shape))
    np.add.at(poi_sums, poi_of, joints)
    poi_chains = _stacked_chains(poi_sums / np.bincount(poi_of).reshape(-1, *[1] * len(shape)))
    global_chain = chain_from_joint(start.reshape(shape))
    for chain in (pair_chains, poi_chains, global_chain):
        validate_chain(chain)
    # Pair int order differs from raw key order where an id holds a
    # character below the tab.
    if not _sorted_keys(names.tolist()):
        order = np.argsort(names, kind="stable")
        names, weights = names[order], weights[order]
        pair_chains = [level[order] for level in pair_chains]

    params = MatiParams(
        layout=layout_for(index),
        pair_tables=ChainStack(tuple(names.tolist()), tuple(pair_chains)),
        pr_nu=weights,
        poi_tables=ChainStack(tuple(np.array(columns.pois, dtype=object)[pois].tolist()),
                              tuple(poi_chains)),
        global_table=global_chain,
        slab_checksum=index.checksum)
    return params, EmReport(trace, iterations, converged)


def shared_activity(user_cells: np.ndarray, cell_pois: np.ndarray,
                    poi_counts: np.ndarray) -> np.ndarray:
    """Per POI, a column of the cells × POIs ``cell_pois``: the Jaccard overlap
    of its active cells with those of ``user_cells``, from integer
    intersection and union counts; 0 where both are empty.  Entries are
    per-cell check-in counts (or booleans), so a cell is active where its
    entry is nonzero.  ``poi_counts`` holds each POI's number of active cells,
    counted once by the caller, so only the user's active cells' rows are read."""
    mine = np.flatnonzero(user_cells)
    inter = np.count_nonzero(cell_pois[mine], axis=0)
    union = len(mine) + poi_counts - inter
    psi = np.zeros(union.shape)
    np.divide(inter, union, out=psi, where=union > 0)
    return psi


def poi_depth_means(params: MatiParams, pois: Sequence[str]) -> np.ndarray:
    """Per POI: the mean joint probability of its backoff chain over the slab
    grid (the global chain for a POI without one).

    Candidates are POIs the user has not visited, so their depth is
    ``pr_nu * mean`` of exactly these chains.  Every valid chain's joint sums
    to 1, so the mean is 1 / n_cells and the trained tables never change a
    ranking (the open depth fix in ROADMAP.md).
    """
    stack = params.poi_tables
    means = joint_from_chain(stack.levels).reshape(len(stack), params.layout.n_cells).mean(axis=1)
    row = {key: i for i, key in enumerate(stack.keys)}
    rows = np.array([row.get(poi, len(stack)) for poi in pois], dtype=np.intp)
    if params.global_table is not None:
        means = np.append(means, joint_from_chain(params.global_table).mean())
    elif (rows == len(stack)).any():
        raise DataError("a POI has no backoff tables and there is no global fallback")
    return means[rows]


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
    rows = [_render_rows(level).reshape(len(stack), -1) for level in stack.levels]
    template = _chain_template(shape)
    pieces = np.empty((len(stack), len(template)), dtype=object)
    for j, item in enumerate(template):
        pieces[:, j] = item if isinstance(item, str) else rows[item[0]][:, item[1]]
    return pieces


def _object_pieces(stack: ChainStack, shape: tuple[int, ...]) -> list[str]:
    """Pieces of the JSON object mapping each owner's key to its chain."""
    if not len(stack):
        return ["{}"]
    pieces = _chain_pieces(stack, shape)
    opening = pieces[0, 0]
    pieces[:, 0] = np.array([f", {json.dumps(key)}: {opening}" for key in stack.keys],
                            dtype=object)
    pieces[0, 0] = pieces[0, 0][2:]
    return ["{", *pieces.ravel().tolist(), "}"]


def params_to_json(params: MatiParams, fingerprint: str = "") -> str:
    """The parameter file: exactly ``json.dumps(payload, sort_keys=True)``.

    Each stack is checked against the layout and validated first, so an
    invalid or non-finite chain, or a negative or non-finite ``pr_nu``,
    raises ``InvariantError`` instead of being written.
    """
    shape = params.layout.shape
    pairs, pois = params.pair_tables, params.poi_tables
    global_stack = (None if params.global_table is None
                    else ChainStack(("global",), tuple(t[None] for t in params.global_table)))
    for stack, what in ((pairs, "pair"), (pois, "POI"), (global_stack, "global")):
        if stack is None:
            continue
        got = [level.shape for level in stack.levels]
        want = [(len(stack), *shape[:k + 1]) for k in range(len(shape))]
        if got != want:
            raise InvariantError(f"model parameters: {what} levels have shapes {got}, the "
                                 f"layout needs {want}")
        if not _sorted_keys(stack.keys):
            raise InvariantError(f"model parameters: {what} keys are not in sorted order")
        _validate_stack(stack, what)
    pr_nu = np.asarray(params.pr_nu, dtype=float)
    if pr_nu.shape != (len(pairs),):
        raise InvariantError(f"model parameters: {pr_nu.size} pr_nu scores for {len(pairs)} "
                             f"pairs")
    bad = np.flatnonzero(~(np.isfinite(pr_nu) & (pr_nu >= 0)))
    if bad.size:
        raise InvariantError(f"model parameters: pr_nu of {pair_of(pairs.keys[bad[0]])!r} is "
                             f"{pr_nu[bad[0]]}, not a finite non-negative score")
    fields = {
        "format_version": PARAMS_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "slab_checksum": params.slab_checksum,
        "layout": {"levels": list(params.layout.levels), "shape": list(shape)},
        "pr_nu": dict(zip(pairs.keys, pr_nu.tolist())),
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


def _stack(chains: dict, shape: tuple[int, ...], what: str) -> ChainStack:
    """The chains of a file object, stacked level by level in key order."""
    keys = tuple(chains)
    chains = list(chains.values())
    if not all(isinstance(chain, list) and len(chain) == len(shape) for chain in chains):
        raise DataError(f"model parameters: a {what} chain does not have {len(shape)} levels")
    levels = []
    for k in range(len(shape)):
        want = (len(chains), *shape[:k + 1])
        try:
            level = np.array([chain[k] for chain in chains]) if chains else np.zeros(want)
        except ValueError as exc:
            raise DataError(f"model parameters: {what} level {k} tables are ragged") from exc
        if level.dtype.kind not in "fiu":
            raise DataError(f"model parameters: {what} level {k} has a non-numeric entry")
        if level.shape != want:
            raise DataError(f"model parameters: {what} level {k} tables have shape "
                            f"{level.shape[1:]}, the layout needs {want[1:]}")
        levels.append(level.astype(float, copy=False))
    stack = ChainStack(keys, tuple(levels))
    _validate_stack(stack, what)
    return stack


class _FloatLiterals(dict):
    """``float`` of each numeric literal, converted once per distinct literal
    (a parameter file repeats few literals many times).  Keys are the literal
    text, so ``-0.0`` and ``0.0`` stay apart."""

    def __missing__(self, literal: str) -> float:
        value = self[literal] = float(literal)
        return value


def params_from_json(text: str, expected_checksum: str | None = None) -> MatiParams:
    """Read a parameter file; malformed content raises ``DataError``.

    Each chain level is read into one stack and validated once.  ``pr_nu``
    must hold one finite, non-negative score for each pair of
    ``pair_tables`` and nothing else.
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
    chains = _field(payload, "pair_tables", dict)
    if pr_nu.keys() != chains.keys():
        raise DataError("model parameters: the pr_nu keys differ from the pair_tables keys")
    scores = np.array([pr_nu[key] for key in chains], dtype=float)
    if not (np.isfinite(scores) & (scores >= 0)).all():
        raise DataError("model parameters: pr_nu has a negative or non-finite entry")
    if "global_table" not in payload:
        raise DataError("model parameters have no 'global_table'")
    global_table = payload["global_table"]
    return MatiParams(
        layout=layout,
        pair_tables=_stack(chains, layout.shape, "pair"),
        pr_nu=scores,
        poi_tables=_stack(_field(payload, "poi_tables", dict), layout.shape, "POI"),
        global_table=(None if global_table is None else
                      [level[0] for level in
                       _stack({"global": global_table}, layout.shape, "global").levels]),
        slab_checksum=checksum,
    )
