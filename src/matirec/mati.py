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

``run_em`` computes iteration k directly for all pairs at once.  H stays
sparse: the likelihood reads only the cells with evidence, and the final
joints are the grid (gamma / (n + gamma))^k * J_0 with only those cells
overwritten.  EM builds that (pairs × cells) grid once, to sum the POI
backoff joints, and lets it go: the pair chains stay in closed form, as
``EmChains`` (the pair keys, their pair rows, the sparse H, each pair's
r^k = (gamma / (n + gamma))^k and J_0), which builds the chains of any
slice of pairs with the same arithmetic, bit for bit.  The reported
log-likelihood is the per-event data log-likelihood under the current
tables plus the constant sum of n_pair * log Pr_nu (0 under uniform
weights), which moves only the relative stop rule; it is non-decreasing
across iterations.

``MatiParams`` holds the POI chains as a ``ChainStack``, one array per
level with a row per owner in raw key string order (the file's order), and
the pair chains as an ``EmChains`` from EM or a ``ChainStack`` read from a
file; both give the chains of owners lo..hi through ``chains(lo, hi)``.

Scoring mixes the depth with the shared activity psi: the Jaccard overlap of
the cells a user and a POI were active in, from integer rows of per-cell
check-in counts (``shared_activity``).

Parameter file (``mati_params.json``): one JSON object with the layout,
``pr_nu`` and the pair, POI and global chains, each chain a list of its
level tables as nested lists; pair keys are ``user<TAB>poi``.  Its bytes are
exactly ``json.dumps(payload, sort_keys=True)``.  ``params_to_json``
builds, checks, validates and renders the chains ``PARAMS_SLICE`` owners at
a time, so only one slice's chains are held beside the text's pieces.  One
cache of row texts serves every slice, so each distinct last-axis row is
rendered once (on a day with none of a pair's check-ins, the pair's hour
row is the global one, so most rows repeat); the pieces are joined once.

``params_from_json`` reads only that text, ``READ_CHUNK`` characters at a
time, the way it is written: each chain's text split at ``[`` against
``_chain_template``, and each distinct row text decoded once while cached
(``_ChainRows``).  v2 (the sufficient statistics ``EmChains`` holds,
ROADMAP.md item 1) waits on the benchmark, which reads the v1
``pair_tables`` and ``pr_nu`` and traces both functions by name.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
from array import array
from dataclasses import dataclass
from json.decoder import scanstring
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .baselines import max_normalize
from .errors import ConfigError, DataError, InvariantError
from .ingest import CheckInLog
from .slabs import SlabIndex

logger = logging.getLogger(__name__)

PARAMS_FORMAT_VERSION = 1
# The parameter file's members in the order it holds them, sorted as
# ``json.dumps(sort_keys=True)`` sorts them; the reader needs the layout
# before ``pair_tables`` and ``poi_tables``.
PARAMS_MEMBERS = ("fingerprint", "format_version", "global_table", "layout", "pair_tables",
                  "poi_tables", "pr_nu", "slab_checksum")

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


def layout_for(index: SlabIndex) -> ChainLayout:
    """The chain layout of ``index``'s grid: coarsest factor first, so the
    finest factor ends the chain."""
    return ChainLayout(tuple(f.name for f in reversed(index.factors)), index.grid_shape())


def chain_from_joint(joint: np.ndarray) -> list[np.ndarray]:
    """Factor a joint slab table into the conditional chain."""
    return [table[0] for table in _stacked_chains(np.array(joint, dtype=float)[None])]


def _stacked_chains(joints: np.ndarray) -> list[np.ndarray]:
    """Conditional chains of a stack of joint tables (stack axis first),
    factored in place: ``joints`` is overwritten by, and returned as, the
    finest level.

    Level k's table is the joint marginalized over all finer axes and
    normalized along axis k given the coarser axes; conditioning tuples with
    zero mass fall back to a uniform row (their reconstructed joint mass
    stays zero).  Each coarser level is a new marginal array, normalized
    before the finest level divides the buffer by its row sums.
    """
    t = joints.ndim - 1
    tables = []
    fallbacks = 0
    for k in range(1, t + 1):
        table = joints.sum(axis=tuple(range(k + 1, t + 1))) if k < t else joints
        denom = table.sum(axis=k, keepdims=True)
        empty = ~(denom > 0)
        np.divide(table, denom, out=table, where=~empty)
        np.copyto(table, 1.0 / table.shape[k], where=empty)
        fallbacks += int(np.count_nonzero(empty))
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

    def __post_init__(self):
        if any(len(level) != len(self.keys) for level in self.levels):
            raise InvariantError(f"chain stack: levels of {[len(level) for level in self.levels]} "
                                 f"owners for {len(self.keys)} keys")

    def __len__(self) -> int:
        return len(self.keys)

    def chains(self, lo: int, hi: int) -> list[np.ndarray]:
        """The levels of owners ``lo`` to ``hi`` (exclusive)."""
        return [level[lo:hi] for level in self.levels]


@dataclass(frozen=True)
class EmChains:
    """EM's pair chains in closed form, built a slice of owners at a time.

    ``keys[i]`` is owner i's ``user<TAB>poi`` key, in raw key string order,
    and ``rows[i]`` its pair int row, the row of ``decay`` and of the sparse
    evidence.  Pair row r's check-ins fall in ``cells[indptr[r]:indptr[r + 1]]``,
    ``counts`` of them in each; ``decay[r]`` is its r^k, and ``start`` the
    global joint J_0, shaped like the slab grid.  These are the sufficient
    statistics of the pair chains: a pair's joint is ``decay * start`` with
    its evidence cells set to ``E + r^k (J_0 - E)``, ``E = H/n``.
    """

    keys: tuple[str, ...]
    rows: np.ndarray
    indptr: np.ndarray
    cells: np.ndarray
    counts: np.ndarray
    decay: np.ndarray
    start: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def chains(self, lo: int, hi: int) -> list[np.ndarray]:
        """The chains of owners ``lo`` to ``hi`` (exclusive), stacked, with
        the arithmetic of ``run_em``: the grid ``r^k * J_0``, the evidence
        cells overwritten, then ``_stacked_chains``."""
        rows = self.rows[lo:hi]
        first = self.indptr[rows]
        sizes = self.indptr[rows + 1] - first
        owner = np.repeat(np.arange(len(rows)), sizes)
        entry = np.arange(len(owner)) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
        cells, counts = self.cells[entry], self.counts[entry].astype(float)
        start = self.start.reshape(-1)
        decay = self.decay[rows]
        target = counts / np.bincount(owner, weights=counts, minlength=len(rows))[owner]
        joints = np.multiply.outer(decay, start)
        joints[owner, cells] = target + decay[owner] * (start[cells] - target)
        return _stacked_chains(joints.reshape(len(rows), *self.start.shape))


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

    ``pair_tables`` is the source of the observed pairs' chains: an
    ``EmChains`` from ``run_em`` (closed form, built a slice at a time) or
    a ``ChainStack`` read from a file; both have ``keys``, ``len`` and
    ``chains(lo, hi)``, and nothing but the writer builds the chains.
    ``pr_nu`` holds the weights EM ran with, aligned with
    ``pair_tables.keys`` (all ones from ``pipeline.train_models``; scoring
    uses the live USG score).
    Candidate pairs unseen in training back off to the POI-marginal chains
    of ``poi_tables`` (mean of the POI's observed pair joints) and finally
    to the single global popularity chain ``global_table``.
    """

    layout: ChainLayout
    pair_tables: EmChains | ChainStack
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
    (see the module docstring) on the sparse histogram: its nonzero
    entries come from one ``np.unique`` of (pair row, cell) positions, in
    row-major order, and each pair's n and the start joint from two
    ``bincount``s.  The final joints are built once, as one broadcast grid
    with the evidence cells overwritten, only to sum the POI backoff joints;
    the grid then goes, and the pair chains are returned in closed form, as
    an ``EmChains`` that builds them a slice of pairs at a time (the writer
    validates them as it renders).  The run stops when the relative
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

    # Slab histogram H, sparse: its nonzero entries as flat (pair row, cell)
    # positions and counts, in row-major order, which fixes the order the
    # likelihood sums them in.
    shape = index.grid_shape()
    n_cells = math.prod(shape)
    cell_of = index.cells(columns.timestamp)
    flat, hits = np.unique(pair_of_row * n_cells + cell_of, return_counts=True)
    rows, cells = np.divmod(flat, n_cells)
    counts = hits.astype(float)

    n = np.bincount(pair_of_row, minlength=len(keys)).astype(float)
    start = np.bincount(cell_of, minlength=n_cells) / len(log.checkins)
    rate = gamma / (n + gamma)

    # J_k on the cells that carry evidence is all the likelihood needs.
    target = counts / n[rows]
    gap, cell_rate = start[cells] - target, rate[rows]
    base = float(n @ np.log(weights))

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

    # J_k = rate^k * J_0 wherever H is zero; only evidence cells differ.
    decay = rate ** iterations
    joints = np.multiply.outer(decay, start)
    joints.reshape(-1)[flat] = target + decay[rows] * gap
    # POI backoff chain: mean of the POI's observed pair joints.  The pair
    # chains are not kept: ``EmChains`` builds them again a slice at a time.
    pois, poi_of = np.unique(keys % len(columns.pois), return_inverse=True)
    poi_sums = np.zeros((len(pois), n_cells))
    np.add.at(poi_sums, poi_of, joints)
    del joints
    poi_sums /= np.bincount(poi_of)[:, None]
    poi_chains = _stacked_chains(poi_sums.reshape(len(pois), *shape))
    global_chain = chain_from_joint(start.reshape(shape))
    for chain in (poi_chains, global_chain):
        validate_chain(chain)
    # Pair int order differs from raw key order where an id holds a
    # character below the tab.
    order = np.arange(len(keys))
    if not _sorted_keys(names.tolist()):
        order = np.argsort(names, kind="stable")
        names, weights = names[order], weights[order]
    pair_chains = EmChains(tuple(names.tolist()), order,
                           np.searchsorted(rows, np.arange(len(keys) + 1)), cells,
                           hits, decay, start.reshape(shape))

    params = MatiParams(
        layout=layout_for(index),
        pair_tables=pair_chains,
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


def _render_rows(level: np.ndarray, texts: dict[bytes, str]) -> np.ndarray:
    """JSON text of each last-axis row, shaped like the level without that axis.

    Each distinct row is rendered once, as ``json.dumps`` would, and shared:
    ``texts`` maps a row's bytes to its text and is kept across calls, and
    rows are told apart by their bit pattern, so -0.0 and 0.0 stay distinct.
    """
    rows = np.ascontiguousarray(level).reshape(-1, level.shape[-1])
    bits = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    keys = bits[first].tolist()
    new = [j for j, key in enumerate(keys) if key not in texts]
    for j, row in zip(new, rows[first[new]].tolist()):
        texts[keys[j]] = "[" + ", ".join(map(repr, row)) + "]"
    text = np.array([texts[key] for key in keys], dtype=object)
    return text[inverse.ravel()].reshape(level.shape[:-1])


def _chain_template(shape: tuple[int, ...]) -> list:
    """One chain's JSON as literal strings alternating with (level, row) slots;
    rows are numbered in C order within their level, as the empty rows of a
    chain's ``json.dumps`` come."""
    literals = json.dumps([np.zeros((*shape[:k], 0)).tolist()
                           for k in range(len(shape))]).split("[]")
    slots = [(k, row) for k in range(len(shape)) for row in range(math.prod(shape[:k]))]
    return [item for pair in zip(literals, slots) for item in pair] + literals[-1:]


def _chain_pieces(stack: ChainStack, shape: tuple[int, ...],
                  texts: dict[bytes, str]) -> np.ndarray:
    """Object array with one row per owner; row i joins to owner i's chain."""
    rows = [_render_rows(level, texts).reshape(len(stack), -1) for level in stack.levels]
    template = _chain_template(shape)
    pieces = np.empty((len(stack), len(template)), dtype=object)
    for j, item in enumerate(template):
        pieces[:, j] = item if isinstance(item, str) else rows[item[0]][:, item[1]]
    return pieces


def _checked(stack: ChainStack, shape: tuple[int, ...], what: str) -> ChainStack:
    """``stack``, once its levels are checked against the layout and validated."""
    got = [level.shape for level in stack.levels]
    want = [(len(stack), *shape[:k + 1]) for k in range(len(shape))]
    if got != want:
        raise InvariantError(f"model parameters: {what} levels have shapes {got}, the layout "
                             f"needs {want}")
    _validate_stack(stack, what)
    return stack


# Owners whose chains are built, checked and rendered at a time.  A larger
# slice's arrays are placed between the row texts already rendered and raise
# ``train``'s peak RSS: at 4,096 it was above rendering every chain at once.
PARAMS_SLICE = 512


def _object_pieces(source: EmChains | ChainStack, shape: tuple[int, ...], what: str,
                   texts: dict[bytes, str]) -> list[str]:
    """Pieces of the JSON object mapping each owner's key to its chain.

    The chains are built, checked, validated and rendered ``PARAMS_SLICE``
    owners at a time, so only one slice's chains are held at once.
    """
    keys = source.keys
    if not _sorted_keys(keys):
        raise InvariantError(f"model parameters: {what} keys are not in sorted order")
    pieces = ["{"]
    for lo in range(0, len(keys), PARAMS_SLICE):
        hi = min(lo + PARAMS_SLICE, len(keys))
        stack = _checked(ChainStack(keys[lo:hi], tuple(source.chains(lo, hi))), shape, what)
        block = _chain_pieces(stack, shape, texts)
        opening = block[0, 0]
        block[:, 0] = [f", {json.dumps(key)}: {opening}" for key in stack.keys]
        pieces += block.ravel().tolist()
    if len(pieces) > 1:
        pieces[1] = pieces[1][2:]
    pieces.append("}")
    return pieces


def params_to_json(params: MatiParams, fingerprint: str = "") -> str:
    """The parameter file: exactly ``json.dumps(payload, sort_keys=True)``.

    Every chain is checked against the layout and validated before it is
    rendered, so an invalid or non-finite chain, or a negative or
    non-finite ``pr_nu``, raises ``InvariantError`` instead of being
    written.  The pair and POI chains are built and rendered a slice at a
    time (``_object_pieces``), sharing one cache of row texts, and the
    pieces are joined once.
    """
    shape = params.layout.shape
    pairs = params.pair_tables
    texts: dict[bytes, str] = {}
    tables = {
        "pair_tables": _object_pieces(pairs, shape, "pair", texts),
        "poi_tables": _object_pieces(params.poi_tables, shape, "POI", texts),
        "global_table": ["null"],
    }
    if params.global_table is not None:
        stack = ChainStack(("global",), tuple(t[None] for t in params.global_table))
        tables["global_table"] = _chain_pieces(_checked(stack, shape, "global"), shape,
                                               texts)[0].tolist()
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
    pieces = ["{"]
    for name in PARAMS_MEMBERS:
        pieces.append(("" if len(pieces) == 1 else ", ") + json.dumps(name) + ": ")
        if name in fields:
            pieces.append(json.dumps(fields[name], sort_keys=True))
        else:
            pieces.extend(tables[name])
    pieces.append("}")
    return "".join(pieces)


# Characters read from the parameter file at a time; a chunk is appended to
# the unread rest, so two are held for a moment.  Planted-300's 17.4 MB file
# peaks at 0.53x its size (text mode) with 1 << 18, at 0.58x with 1 << 19.
READ_CHUNK = 1 << 18
STACK_BATCH = 64  # chains whose row texts are decoded together
_ROWS_HELD = 1 << 11  # decoded row texts a cache keeps before it starts over


class _ParamsText:
    """The text ``params_to_json`` writes, read ``READ_CHUNK`` characters at a
    time: ``expect`` reads the writer's text between values, ``value``
    decodes a value (an object as the tuple of its members) and ``upto``
    takes the raw text before a literal.  Anything unexpected raises
    ``DataError`` naming the character offset and what was expected."""

    def __init__(self, stream: TextIO):
        self._stream, self._decoder = stream, json.JSONDecoder(object_pairs_hook=tuple)
        self._text, self._pos = "", 0  # the unread rest of the chunks read so far
        self._offset = 0  # characters before ``_text``

    def error(self, message: str, at: int | None = None) -> DataError:
        at = self._offset + self._pos if at is None else at
        return DataError(f"unreadable model parameters: {message} at character {at}")

    def _more(self) -> bool:
        """Append the next chunk to the unread rest; False at the stream's end.
        A rest longer than a chunk is a value that runs on: as much again is
        read, so a long value is decoded a few times, not once per chunk."""
        rest = self._text[self._pos:]
        self._offset += self._pos
        self._text, self._pos = "", 0  # let the old text go before the next chunk is read
        chunk = self._stream.read(max(READ_CHUNK, len(rest)))
        self._text = rest + chunk
        return bool(chunk)

    def take(self, literal: str) -> bool:
        """Read ``literal`` if it comes next."""
        while len(self._text) - self._pos < len(literal) and self._more():
            pass
        found = self._text.startswith(literal, self._pos)
        self._pos += len(literal) if found else 0
        return found

    def expect(self, *literals: str) -> str:
        """Read whichever of ``literals`` comes next."""
        for literal in literals:
            if self.take(literal):
                return literal
        raise self.error("expecting " + " or ".join(map(repr, literals)))

    def value(self, decode: Callable | None = None):
        """Decode the next value by ``decode(text, pos) -> (value, end)``, the
        scanner by default; one cut by (or ending) the text read so far, which
        may still decode, is decoded again once the next chunk is appended."""
        decode, final = decode or self._decoder.raw_decode, False
        while True:
            try:
                value, end = decode(self._text, self._pos)
            except json.JSONDecodeError as exc:
                if final:
                    raise self.error(exc.msg, self._offset + exc.pos) from None
            else:
                if final or end < len(self._text):
                    self._pos = end
                    return value
            final = not self._more()

    def upto(self, literal: str) -> str:
        """The text before the next ``literal``, which is left unread."""
        while (end := self._text.find(literal, self._pos)) < 0:
            if not self._more():
                raise self.error(f"expecting {literal!r}")
        text, self._pos = self._text[self._pos:end], end
        return text

    def members(self, names: Sequence[str]) -> Iterator[str]:
        """Each of ``names`` in turn, once its key is read: the object that
        starts here holds exactly these members, in this order.  The caller
        reads each value before it asks for the next name."""
        for i, name in enumerate(names):
            self.expect(("{" if i == 0 else ", ") + json.dumps(name) + ": ")
            yield name
        self.expect("}")

    def chains(self, rows: _ChainRows) -> ChainStack:
        """The object of chains that starts here, stacked by ``rows``: keys strictly
        ascending, each chain's text ending at its first run of levels + 1 ``]``."""
        close = "]" * (len(rows.shape) + 1)
        closed = self.expect('{"', "{}") == "{}"
        while not closed:
            at = self._offset + self._pos - 1
            key = self.value(scanstring)
            if rows.keys and key <= rows.keys[-1]:
                raise self.error(f"expecting a key that sorts after {rows.keys[-1]!r}", at)
            rows.add(key, self.upto(close) + self.expect(close))
            closed = self.expect(', "', "}") == "}"
        return rows.stack()

    def finish(self) -> None:
        """Only blanks may follow the object."""
        while any(map(self.take, " \t\n\r")):
            pass
        if self._pos < len(self._text):
            raise self.error("extra data")


class _ChainRows:
    """Chains of one layout, stacked one row text at a time.  ``add`` splits a
    chain's text, from the ``": "`` after its key, at ``[``; each piece
    without a row must be that of ``_chain_template`` with empty rows.  Each
    ``STACK_BATCH`` chains, a level's rows are grouped by the piece that must
    end them, and each distinct row text not in its group's cache (up to
    ``_ROWS_HELD``, then it starts over) is checked and decoded to float64
    bytes, one scanner call a group."""

    def __init__(self, what: str, shape: tuple[int, ...]):
        self.what, self.shape, self.keys = what, shape, []
        self._pieces: list[str] = []  # those of the chains added since the last batch
        skeleton = "".join([": ", *(item if isinstance(item, str) else "[]"
                                    for item in _chain_template(shape))]).split("[")
        self._other = [piece[:1] != "]" for piece in skeleton]  # the pieces without a row
        self._others = list(itertools.compress(skeleton, self._other))
        slots = iter([j for j, other in enumerate(self._other) if not other])  # level by level
        # Per level, by the piece that ends a row: the mask of its rows' pieces, the rows, a cache.
        self._groups: list[dict] = [{} for _ in shape]
        for k, row in ((k, row) for k in range(len(shape)) for row in range(math.prod(shape[:k]))):
            mask, rows, _ = self._groups[k].setdefault(skeleton[j := next(slots)],
                                                       ([False] * len(skeleton), [], {}))
            mask[j] = True
            rows.append(row)
        self._levels = [array("d") for _ in shape]

    def add(self, key: str, chain: str) -> None:
        pieces = chain.split("[")
        if (len(pieces) != len(self._other)
                or list(itertools.compress(pieces, self._other)) != self._others):
            raise DataError(f"model parameters: the {self.what} chain of {key!r} is not nested "
                            f"as the layout {list(self.shape)} needs")
        self.keys.append(key)
        self._pieces += pieces
        if len(self.keys) % STACK_BATCH == 0:
            self._decode()

    def _decode(self) -> None:
        pieces, self._pieces = self._pieces, []
        n = len(pieces) // len(self._other)
        for k, groups in enumerate(self._groups):
            what, size = f"model parameters: {self.what} level {k}", self.shape[k]
            block = np.empty((n, math.prod(self.shape[:k]), size))
            for end, (mask, rows, cache) in groups.items():
                texts = list(itertools.compress(pieces, mask * n))
                if len(cache) > _ROWS_HELD:
                    cache.clear()
                if new := list(set(texts).difference(cache)):
                    if any(not t.endswith(end) or "]" in t[:-len(end)] for t in new):
                        raise DataError(f"{what} rows do not end as the layout {self.shape} needs")
                    try:  # the numbers hold no bracket, so a string in them can only merge rows
                        got = json.loads("[[" + "], [".join(t[:-len(end)] for t in new) + "]]")
                    except json.JSONDecodeError:
                        got = ()
                    if len(got) != len(new) or not {float, int}.issuperset(
                            map(type, itertools.chain.from_iterable(got))):
                        raise DataError(f"{what} has a non-numeric entry")
                    if (sizes := set(map(len, got))) != {size}:
                        raise DataError(f"{what} tables are ragged" if len(sizes) > 1 else
                                        f"{what} tables have shape {(*self.shape[:k], *sizes)}, "
                                        f"the layout needs {self.shape[:k + 1]}")
                    cache.update(zip(new, map(bytes, np.array(got, dtype=float))))
                got = np.frombuffer(b"".join(map(cache.get, texts)))
                block[:, rows] = got.reshape(n, len(rows), size)
            self._levels[k].frombytes(block.tobytes())

    def stack(self) -> ChainStack:
        """The validated stack of the chains added."""
        self._decode()
        stack = ChainStack(tuple(self.keys), tuple(
            np.frombuffer(level, dtype=float).reshape(len(self.keys), *self.shape[:k + 1])
            for k, level in enumerate(self._levels)))
        _validate_stack(stack, self.what)
        return stack


def params_from_json(stream: TextIO, expected_checksum: str | None = None) -> MatiParams:
    """Read a parameter file from a text stream.

    The text must be what ``params_to_json`` writes: the members of
    ``PARAMS_MEMBERS`` in that order, only the writer's ``", "`` and ``": "``
    around the keys, chain keys strictly ascending in raw string order, each
    chain as ``_chain_template`` nests it, and only blanks after the object.
    Anything else raises ``DataError``.  Each chain stack is validated once;
    ``pr_nu`` must hold one finite, non-negative score per pair, in order.
    """
    text = _ParamsText(stream)
    read = {}
    for name in text.members(PARAMS_MEMBERS):
        if name == "global_table":  # held as text until the layout that follows it is read
            read[name] = text.upto(', "layout": ')
        elif name == "layout":
            levels, shape = [text.value() for _ in text.members(("levels", "shape"))]
            if not (isinstance(levels, list) and isinstance(shape, list) and shape
                    and len(levels) == len(shape) and all(isinstance(n, str) for n in levels)
                    and all(type(n) is int and n > 0 for n in shape)):
                raise DataError(f"model parameters have an invalid layout {levels!r}, {shape!r}")
            layout = ChainLayout(tuple(levels), tuple(shape))
        elif what := {"pair_tables": "pair", "poi_tables": "POI"}.get(name):
            read[name] = text.chains(_ChainRows(what, layout.shape))
        else:
            read[name] = text.value()
        if name == "format_version" and read[name] != PARAMS_FORMAT_VERSION:
            raise DataError(f"unsupported parameter format {read[name]!r}")
    text.finish()
    checksum = read["slab_checksum"]
    if not isinstance(checksum, str):
        raise DataError("model parameters have no valid 'slab_checksum' (str)")
    if expected_checksum is not None and checksum != expected_checksum:
        raise DataError("model parameters were trained against a different slab index; refusing")
    pairs, pr_nu = read["pair_tables"], read["pr_nu"]
    if not isinstance(pr_nu, tuple) or tuple(key for key, _ in pr_nu) != pairs.keys:
        raise DataError("model parameters: the pr_nu keys differ from the pair_tables keys")
    if not all(type(score) in (int, float) for _, score in pr_nu):
        raise DataError("model parameters: pr_nu has a non-numeric entry")
    scores = np.array([score for _, score in pr_nu], dtype=float)
    if not (np.isfinite(scores) & (scores >= 0)).all():
        raise DataError("model parameters: pr_nu has a negative or non-finite entry")
    global_table, rows = None, _ChainRows("global", layout.shape)
    if read["global_table"] != "null":
        rows.add("global", ": " + read["global_table"])
        global_table = [level[0] for level in rows.stack().levels]
    return MatiParams(layout=layout, pair_tables=pairs, pr_nu=scores, poi_tables=read["poi_tables"],
                      global_table=global_table, slab_checksum=checksum)
