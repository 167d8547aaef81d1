"""Latent multi-aspect temporal model (MATI): joint probability, EM, scoring.

Slabs are addressed as integer grid cells (``SlabIndex.cells``).  A pair's
evidence is its row of per-cell check-in counts, and every table the model
holds is a joint over the cells, Pr(z | u, l), as one flat row of cells.

The joint visit probability is Pr(u) * Pr_nu(l|u) * Pr(z|u,l), with Pr(u) = 1
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
sparse: the final joints are the grid (gamma / (n + gamma))^k * J_0 with
only the cells with evidence overwritten.  The pair joints stay in closed
form, as ``EmChains``; EM sums the POI backoff joints from them
``PARAMS_SLICE`` pair rows at a time, so no (pairs × cells) grid is ever
held.  The reported log-likelihood is the per-event data log-likelihood
under the current tables plus the constant sum of n_pair * log Pr_nu (0
under uniform weights), which moves only the relative stop rule; it is
non-decreasing across iterations.

Scoring reads a ``MatiTables``: the POI backoff joints (a ``JointStack``)
and J_0.  It mixes the depth with the shared activity psi, the Jaccard
overlap of the cells a user and a POI were active in (``shared_activity``).

Chains exist only in the parameter file (``mati_params.json``), where each
joint is the chain of conditional slab tables, finest granularity
conditioned on all coarser ones,

    Pr(z_1 | z_2..z_t, u, l) * ... * Pr(z_{t-1} | z_t, u, l) * Pr(z_t | u, l),

each table indexed coarsest-first and summing to 1 over its last axis, the
level's own.  The file is one JSON object, one member a line, and one line
an entry of the pair, POI and ``pr_nu`` objects; pair keys are
``user<TAB>poi``, and JSON escapes every control character in a key, so a
``\\n`` can only end a line.  ``params_to_json`` checks, factors and renders
the joints ``PARAMS_SLICE`` owners at a time, each distinct row and float
once, into ``TextPieces``.  ``params_from_json`` reads the text a line at a
time, decodes and validates each distinct row text once while cached
(``_ChainRows``), multiplies the POI and global chains into joints, and
keeps only the pairs' keys.  v2 (the statistics ``EmChains`` holds,
ROADMAP.md item 1) waits on the benchmark, which reads the v1 members and
traces both functions by name.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .baselines import max_normalize
from .errors import ConfigError, DataError, InvariantError
from .ingest import CheckInLog, float_texts
from .slabs import SlabIndex

logger = logging.getLogger(__name__)

PARAMS_FORMAT_VERSION = 1

ROW_SUM_TOL = 1e-9
MONOTONE_SLACK = 1e-9
# Owners whose joints are built or factored at a time: EM sums the POI
# joints, and the writer checks, factors and renders the chains, one slice
# of owners at a time.
PARAMS_SLICE = 512


@dataclass(frozen=True)
class ChainLayout:
    """Conditional-table layout for a set of temporal factors.

    ``shape`` holds per-level slab counts coarsest-first (the array axis
    order); ``levels`` names the factors in the same order.
    """

    levels: tuple[str, ...]
    shape: tuple[int, ...]


def layout_for(index: SlabIndex) -> ChainLayout:
    """The chain layout of ``index``'s grid: coarsest factor first, so the
    finest factor ends the chain."""
    return ChainLayout(tuple(f.name for f in reversed(index.factors)), index.grid_shape())


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
        logger.debug("chains: %d zero-mass conditioning tuples set uniform", fallbacks)
    return tables


def joint_from_chain(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply the chain back into the full joint table."""
    joint = tables[0]
    for table in tables[1:]:
        joint = joint[..., None] * table
    return joint


def validate_chain(tables: Sequence[np.ndarray],
                   owner: Callable[[int, np.ndarray], object] | None = None):
    """Every entry is non-negative and every last-axis row sums to 1.

    With ``owner``, an error at level k names ``owner(k, bad)``, where
    ``bad`` flags the entries of the table's leading axis that hold an
    offending row.  NaN and infinite entries fail the row sums.
    """
    def where(k: int, bad: np.ndarray) -> str:
        if owner is None:
            return ""
        return f" of {owner(k, bad.reshape(len(bad), -1).any(axis=1))!r}"

    for k, table in enumerate(tables):
        if (table < 0).any():
            raise InvariantError(f"chain level {k}{where(k, table < 0)} has negative entries")
        errors = np.abs(table.sum(axis=-1) - 1)
        off = ~(errors <= ROW_SUM_TOL)
        if off.any():
            raise InvariantError(f"chain level {k}{where(k, off)} rows do not sum to 1 (max err "
                                 f"{float(errors.max()):.3e})")


@dataclass(frozen=True)
class JointStack:
    """The joints of several owners: ``keys[i]`` is owner i's key in the
    parameter file (``user<TAB>poi`` for a pair, the POI id for a POI), in
    raw key string order, and ``joints[i]`` its joint, one flat row of cells."""

    keys: tuple[str, ...]
    joints: np.ndarray

    def __post_init__(self):
        if len(self.joints) != len(self.keys):
            raise InvariantError(f"{len(self.joints)} joints for {len(self.keys)} keys")

    def __len__(self) -> int:
        return len(self.keys)

    def owner_joints(self, lo: int, hi: int) -> np.ndarray:
        """The joints of owners ``lo`` to ``hi`` (exclusive)."""
        return self.joints[lo:hi]


@dataclass(frozen=True)
class EmChains:
    """EM's pair joints in closed form, built a slice of owners at a time.

    ``keys[i]`` is owner i's ``user<TAB>poi`` key, in raw key string order,
    and ``rows[i]`` its pair int row, the row of ``decay`` and of the sparse
    evidence.  Pair row r's check-ins fall in ``cells[indptr[r]:indptr[r + 1]]``,
    ``counts`` of them in each; ``decay[r]`` is its r^k, and ``start`` the
    global joint J_0, shaped like the slab grid.  These are the sufficient
    statistics of the pair joints: a pair's joint is ``decay * start`` with
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

    def joints(self, rows: np.ndarray) -> np.ndarray:
        """The joints of pair rows ``rows``, one flat row of cells each: the
        grid ``r^k * J_0`` with the evidence cells overwritten."""
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
        return joints

    def owner_joints(self, lo: int, hi: int) -> np.ndarray:
        """The joints of owners ``lo`` to ``hi`` (exclusive)."""
        return self.joints(self.rows[lo:hi])


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


def _owner(what: str, key: str):
    """An owner as an error names it: a pair as its (user, poi)."""
    return pair_of(key) if what == "pair" else key


def _sorted_keys(keys: Sequence[str]) -> bool:
    return all(map(str.__lt__, keys[:-1], keys[1:]))


@dataclass
class MatiTables:
    """What scoring reads of a trained model (``params_from_json`` returns
    one): the POI backoff joints, each the mean of the POI's observed pair
    joints, and the global popularity joint J_0 as one flat row."""

    layout: ChainLayout
    slab_checksum: str
    pair_keys: tuple[str, ...]
    poi_tables: JointStack
    global_table: np.ndarray


@dataclass
class MatiParams(MatiTables):
    """``run_em``'s result: the tables plus what only the writer reads, the
    pair joints (keyed by ``pair_keys``) and ``pr_nu``, the weights EM ran
    with (all ones from ``pipeline.train_models``)."""

    pair_tables: EmChains | JointStack
    pr_nu: np.ndarray


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
    ``bincount``s.  The pair joints are returned in closed form, as an
    ``EmChains``; the POI backoff joints are summed from it
    ``PARAMS_SLICE`` pair rows at a time, in pair row order, so each sum
    adds in the order one whole grid would.  The run stops when
    the relative log-likelihood change drops below ``tol`` or after
    ``max_iter`` iterations; a decrease beyond the slack is an invariant
    breach.
    """
    if not 0 <= gamma < math.inf:
        raise ConfigError(f"EM smoothing gamma must be finite and >= 0, got {gamma}")
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

    # Pair int order differs from raw key order where an id holds a
    # character below the tab.
    order = np.arange(len(keys))
    if not _sorted_keys(names.tolist()):
        order = np.argsort(names, kind="stable")
        names, weights = names[order], weights[order]
    pair_joints = EmChains(tuple(names.tolist()), order,
                           np.searchsorted(rows, np.arange(len(keys) + 1)), cells,
                           hits, rate ** iterations, start.reshape(shape))
    # POI backoff joint: mean of the POI's observed pair joints, summed a
    # slice of pair rows at a time, in pair row order.
    pois, poi_of = np.unique(keys % len(columns.pois), return_inverse=True)
    poi_sums = np.zeros((len(pois), n_cells))
    for lo in range(0, len(keys), PARAMS_SLICE):
        slice_rows = np.arange(lo, min(lo + PARAMS_SLICE, len(keys)))
        np.add.at(poi_sums, poi_of[slice_rows], pair_joints.joints(slice_rows))
    poi_sums /= np.bincount(poi_of)[:, None]
    params = MatiParams(
        layout=layout_for(index), slab_checksum=index.checksum, pair_keys=pair_joints.keys,
        poi_tables=JointStack(tuple(np.array(columns.pois, dtype=object)[pois].tolist()), poi_sums),
        global_table=start, pair_tables=pair_joints, pr_nu=weights)
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


def poi_depth_means(params: MatiTables, pois: Sequence[str]) -> np.ndarray:
    """Per POI: the mean of its backoff joint over the slab grid (the global
    joint's for a POI without one).

    A candidate's depth is ``pr_nu * mean``.  Every joint sums to 1, so the
    mean is 1 / n_cells and the trained tables never change a ranking (the
    open depth fix in ROADMAP.md).
    """
    stack = params.poi_tables
    row = {key: i for i, key in enumerate(stack.keys)}
    rows = np.array([row.get(poi, len(stack)) for poi in pois], dtype=np.intp)
    return np.append(stack.joints.mean(axis=1), params.global_table.mean())[rows]


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
    The new rows' floats are rendered together, each distinct value once.
    """
    rows = np.ascontiguousarray(level).reshape(-1, level.shape[-1])
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    new = {key: j for j, key in enumerate(keys) if key not in texts}
    for key, row in zip(new, float_texts(rows[list(new.values())]).tolist()):
        texts[key] = "[" + ", ".join(row) + "]"
    return np.array([texts[key] for key in keys], dtype=object).reshape(level.shape[:-1])


def _chain_template(shape: tuple[int, ...]) -> list:
    """One chain's JSON as literal strings alternating with (level, row) slots;
    rows are numbered in C order within their level, as the empty rows of a
    chain's ``json.dumps`` come."""
    literals = json.dumps([np.zeros((*shape[:k], 0)).tolist()
                           for k in range(len(shape))]).split("[]")
    slots = [(k, row) for k in range(len(shape)) for row in range(math.prod(shape[:k]))]
    return [item for pair in zip(literals, slots) for item in pair] + literals[-1:]


def _chain_pieces(levels: Sequence[np.ndarray], texts: dict[bytes, str]) -> np.ndarray:
    """Object array with one row per owner of ``levels`` (each level's
    tables, owners first); row i joins to owner i's chain."""
    rows = [_render_rows(level, texts).reshape(len(level), -1) for level in levels]
    template = _chain_template(levels[-1].shape[1:])
    pieces = np.empty((len(levels[0]), len(template)), dtype=object)
    for j, item in enumerate(template):
        pieces[:, j] = item if isinstance(item, str) else rows[item[0]][:, item[1]]
    return pieces


def _chains(joints: np.ndarray, keys: Sequence[str], shape: tuple[int, ...],
            what: str) -> list[np.ndarray]:
    """The chains of owners ``keys``, factored from a copy of their
    ``joints`` once each is checked: a row of the layout's cells whose
    entries are non-negative and sum to 1 (a NaN or infinite entry fails
    the sum).  The error names the first owner whose joint is not."""
    want = (len(keys), math.prod(shape))
    if joints.shape != want:
        raise InvariantError(f"model parameters: {what} joints have shape {joints.shape}, the "
                             f"layout needs {want}")
    errors = np.abs(joints.sum(axis=1) - 1)
    bad = ~(errors <= ROW_SUM_TOL) | (joints < 0).any(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        raise InvariantError(f"model parameters: the {what} joint of {_owner(what, keys[first])!r}"
                             f" is not a distribution (sum {float(joints[first].sum())})")
    return _stacked_chains(np.array(joints, dtype=float).reshape(-1, *shape))


def _object_pieces(source: EmChains | JointStack, quoted: list[str], shape: tuple[int, ...],
                   what: str, texts: dict[bytes, str]) -> list[str]:
    """Pieces of the JSON object mapping each owner's key (``quoted``: the
    keys' JSON texts) to its chain, each entry on a line of its own.

    The joints are checked, factored and rendered ``PARAMS_SLICE`` owners at
    a time, so only one slice's chains are held at once.
    """
    keys = source.keys
    if not _sorted_keys(keys):
        raise InvariantError(f"model parameters: {what} keys are not in sorted order")
    pieces = ["{"]
    for lo in range(0, len(keys), PARAMS_SLICE):
        hi = min(lo + PARAMS_SLICE, len(keys))
        block = _chain_pieces(_chains(source.owner_joints(lo, hi), keys[lo:hi], shape, what),
                              texts)
        opening = block[0, 0]
        block[:, 0] = [f",\n{key}: {opening}" for key in quoted[lo:hi]]
        pieces += block.ravel().tolist()
    if len(pieces) > 1:
        pieces[1] = pieces[1][1:]
    pieces.append("\n}")
    return pieces


class TextPieces:
    """A text held as the pieces it joins from, most of them shared row
    texts, so that no copy of the whole text need exist: ``str()`` joins
    them and ``encode`` gives the text's bytes."""

    def __init__(self, pieces: list[str]):
        self.pieces = pieces

    def __str__(self) -> str:
        return "".join(self.pieces)

    def encode(self, encoding: str = "utf-8") -> bytes:
        return str(self).encode(encoding)


def params_to_json(params: MatiParams, fingerprint: str = "") -> TextPieces:
    """The parameter file, as pieces that join to its text: one member a
    line, in the order the reader needs, and one line an entry of the pair,
    POI and ``pr_nu`` objects; ``json.loads`` of it is the payload.

    Every joint is checked before its chain is factored and rendered, and
    all of them are rendered before this returns, so a joint off the layout
    or not a distribution, or a negative or non-finite ``pr_nu``, raises
    ``InvariantError`` before a byte is written.  The pair and POI joints
    are factored and rendered a slice at a time (``_object_pieces``),
    sharing one cache of row texts; the pieces are not joined here.
    """
    shape = params.layout.shape
    pairs = params.pair_tables
    pr_nu = np.asarray(params.pr_nu, dtype=float)
    if pr_nu.shape != (len(pairs),):
        raise InvariantError(f"model parameters: {pr_nu.size} pr_nu scores for {len(pairs)} "
                             f"pairs")
    bad = np.flatnonzero(~(np.isfinite(pr_nu) & (pr_nu >= 0)))
    if bad.size:
        raise InvariantError(f"model parameters: pr_nu of {pair_of(pairs.keys[bad[0]])!r} is "
                             f"{pr_nu[bad[0]]}, not a finite non-negative score")
    texts: dict[bytes, str] = {}
    pair_json = list(map(encode_basestring_ascii, pairs.keys))  # each as json.dumps spells it
    poi_json = list(map(encode_basestring_ascii, params.poi_tables.keys))
    members = {
        "fingerprint": [json.dumps(fingerprint)],
        "format_version": [json.dumps(PARAMS_FORMAT_VERSION)],
        "layout": [json.dumps({"levels": list(params.layout.levels), "shape": list(shape)},
                              sort_keys=True)],
        "slab_checksum": [json.dumps(params.slab_checksum)],
        "global_table": _chain_pieces(_chains(params.global_table[None], ("global",), shape,
                                              "global"), texts)[0].tolist(),
        "pair_tables": _object_pieces(pairs, pair_json, shape, "pair", texts),
        "poi_tables": _object_pieces(params.poi_tables, poi_json, shape, "POI", texts),
        "pr_nu": ["{", ",".join(f"\n{key}: {score}"
                                for key, score in zip(pair_json, float_texts(pr_nu))), "\n}"],
    }
    pieces = ["{"]
    for name, member in members.items():
        pieces += [("\n" if len(pieces) == 1 else ",\n") + json.dumps(name) + ": ", *member]
    pieces.append("\n}\n")
    return TextPieces(pieces)


STACK_BATCH = 64  # chains whose new row texts are decoded together
_ROWS_HELD = 1 << 11  # decoded row texts a level's cache keeps before it starts over


class _Lines:
    """The lines of the text ``params_to_json`` writes, read one at a time;
    anything else raises ``DataError`` naming the line and what it expected."""

    def __init__(self, stream: TextIO):
        self._stream, self.number = stream, 0

    def error(self, message: str) -> DataError:
        return DataError(f"unreadable model parameters: {message} at line {self.number}")

    def next(self, want: str | None = None) -> str:
        """The next line, without the ``\\n`` that must end it; it holds no
        ``\\r``, and is ``want`` if that is given."""
        self.number += 1
        line = self._stream.readline()
        if not line.endswith("\n") or "\r" in line:
            raise self.error("expecting a line ending in '\\n', with no '\\r'")
        if want is not None and line[:-1] != want:
            raise self.error(f"expecting {want!r}")
        return line[:-1]

    def member(self, name: str, decode: bool = True):
        """The value of member ``name``, the next line: decoded, and spelled as
        ``json.dumps(sort_keys=True)`` spells it, or else its text."""
        head, line = json.dumps(name) + ": ", self.next()
        if not (line.startswith(head) and line.endswith(",")):
            raise self.error(f"expecting {head + '…,'!r}")
        text = line[len(head):-1]
        if not decode:
            return text
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise self.error(exc.msg) from None
        if json.dumps(value, sort_keys=True) != text:
            raise self.error(f"expecting the value of {name!r} as the writer spells it")
        return value

    def entries(self, name: str, close: str) -> Iterator[tuple[str, str]]:
        """Key and value text of each entry of the object member ``name``: one
        line an entry, each but the last ending in ``,``, then a line ``close``."""
        self.next(json.dumps(name) + ": {")
        line = self.next()
        while line != close:
            try:
                key, end = scanstring(line, 1) if line[:1] == '"' else (None, 0)
            except json.JSONDecodeError as exc:
                raise self.error(exc.msg) from None
            if key is None or not line.startswith(": ", end):
                raise self.error(f"expecting a key and ': ', or {close!r}")
            more = line.endswith(",")
            yield key, line[end + 2:len(line) - more]
            line = self.next()
            if (line == close) == more:
                raise self.error("expecting an entry" if more else f"expecting {close!r}")


class _ChainRows:
    """Chains of one layout, read a row text at a time.  A chain's text is
    cut at ``[`` and ``]``, and the pieces without a row must be those of
    ``_chain_template``.  Each ``STACK_BATCH`` chains, a level's distinct row
    texts not in its cache (which maps a text to its row in ``_rows``, up to
    ``_ROWS_HELD`` texts, then starts over) are checked and decoded in one
    scanner call and validated, each once: an error names the first owner
    that uses a bad row.  With ``joints``, the batch's chains are then
    multiplied into joints; without, no row is kept."""

    def __init__(self, lines: _Lines, what: str, shape: tuple[int, ...], joints: bool = True):
        self.lines, self.what, self.shape, self.keys = lines, what, shape, []
        skeleton = "".join(item if isinstance(item, str) else f"[#{item[0]}]"
                           for item in _chain_template(shape)).replace("]", "[").split("[")
        self._masks = [[piece == f"#{k}" for piece in skeleton] for k in range(len(shape))]
        self._other = [piece[:1] != "#" for piece in skeleton]  # the pieces without a row
        self._others = list(itertools.compress(skeleton, self._other))
        self._texts: list[list[str]] = [[] for _ in shape]  # each level's, since the last batch
        self._caches: list[dict[str, int]] = [{} for _ in shape]
        self._rows = [np.empty((0, size)) for size in shape]  # each level's, with ``joints``
        self._joints: list[np.ndarray] | None = [] if joints else None
        self._decoded = 0  # chains whose rows are decoded

    def add(self, key: str, chain: str) -> None:
        pieces = chain.replace("]", "[").split("[")
        if (len(pieces) != len(self._other)
                or list(itertools.compress(pieces, self._other)) != self._others):
            raise self.lines.error(f"the {self.what} chain of {key!r} is not nested as the "
                                   f"layout {list(self.shape)} needs")
        self.keys.append(key)
        for texts, mask in zip(self._texts, self._masks):
            texts += itertools.compress(pieces, mask)
        if len(self.keys) % STACK_BATCH == 0:
            self._decode()

    def _new_rows(self, k: int) -> tuple[list[str], np.ndarray]:
        """Level k's batch texts not in its cache, and their rows."""
        what = f"model parameters: {self.what} level {k}"
        if len(self._caches[k]) > _ROWS_HELD:
            self._caches[k].clear()
            self._rows[k] = self._rows[k][:0]
        new = [text for text in dict.fromkeys(self._texts[k]) if text not in self._caches[k]]
        if not new:
            return new, self._rows[k][:0]
        try:  # a row's text holds no bracket, so a string in it can only merge rows
            rows = json.loads("[[" + "], [".join(new) + "]]")
        except json.JSONDecodeError:
            rows = ()
        if len(rows) != len(new) or not {float, int}.issuperset(
                map(type, itertools.chain.from_iterable(rows))):
            raise DataError(f"{what} has a non-numeric entry")
        if (sizes := set(map(len, rows))) != {self.shape[k]}:
            raise DataError(f"{what} tables are ragged" if len(sizes) > 1 else
                            f"{what} tables have shape {(*self.shape[:k], *sizes)}, "
                            f"the layout needs {self.shape[:k + 1]}")
        return new, np.array(rows, dtype=float)

    def _decode(self) -> None:
        batch = self.keys[self._decoded:]
        self._decoded = len(self.keys)
        if not batch:
            return
        new = [self._new_rows(k) for k in range(len(self.shape))]

        def owner(k: int, bad: np.ndarray):
            wrong = set(itertools.compress(new[k][0], bad))
            first = next(i for i, text in enumerate(self._texts[k]) if text in wrong)
            return _owner(self.what, batch[first // math.prod(self.shape[:k])])

        validate_chain([rows for _, rows in new], owner)
        levels = []
        for k, (texts, cache, (fresh, rows)) in enumerate(zip(self._texts, self._caches, new)):
            cache.update(zip(fresh, itertools.count(len(self._rows[k]))))
            if self._joints is not None:
                self._rows[k] = np.concatenate([self._rows[k], rows])
                ids = np.fromiter(map(cache.__getitem__, texts), np.intp, len(texts))
                levels.append(self._rows[k][ids].reshape(len(batch), *self.shape[:k + 1]))
            texts.clear()
        if levels:
            self._joints.append(joint_from_chain(levels).reshape(len(batch), -1))

    def read(self, name: str, close: str) -> tuple[str, ...]:
        """The keys of the object member ``name``'s chains, ascending."""
        for key, text in self.lines.entries(name, close):
            if self.keys and key <= self.keys[-1]:
                raise self.lines.error(f"expecting a key that sorts after {self.keys[-1]!r}")
            self.add(key, text)
        self._decode()
        return tuple(self.keys)

    def joints(self) -> np.ndarray:
        """The joints of the chains added, one flat row of cells each."""
        self._decode()
        return np.concatenate([np.empty((0, math.prod(self.shape))), *self._joints])


def params_from_json(stream: TextIO, expected_checksum: str | None = None) -> MatiTables:
    """Read a parameter file from a text stream, a line at a time.

    The text must be what ``params_to_json`` writes: one member a line in
    its order, each value spelled as it spells it, one line an entry of the
    pair, POI and ``pr_nu`` objects, chain keys strictly ascending, chains
    nested as ``_chain_template`` nests them, and nothing after the object;
    anything else raises ``DataError``.  Each distinct row is validated
    once, and ``pr_nu`` must hold one finite, non-negative score per pair,
    in order.  Only the pair keys and the POI and global joints are kept.
    """
    lines = _Lines(stream)
    lines.next("{")
    lines.member("fingerprint")
    if (version := lines.member("format_version")) != PARAMS_FORMAT_VERSION:
        raise DataError(f"unsupported parameter format {version!r}")
    layout = lines.member("layout")
    levels, shape = layout.values() if (isinstance(layout, dict)
                                        and list(layout) == ["levels", "shape"]) else (None, None)
    if not (isinstance(levels, list) and isinstance(shape, list) and shape
            and len(levels) == len(shape) and all(isinstance(n, str) for n in levels)
            and all(type(n) is int and n > 0 for n in shape)):
        raise DataError(f"model parameters have an invalid layout {levels!r}, {shape!r}")
    checksum = lines.member("slab_checksum")
    if not isinstance(checksum, str):
        raise DataError("model parameters have no valid 'slab_checksum' (str)")
    if expected_checksum is not None and checksum != expected_checksum:
        raise DataError("model parameters were trained against a different slab index; refusing")
    layout = ChainLayout(tuple(levels), tuple(shape))
    chains = _ChainRows(lines, "global", layout.shape)
    chains.add("global", lines.member("global_table", decode=False))
    global_table = chains.joints()[0]
    pairs = _ChainRows(lines, "pair", layout.shape, joints=False).read("pair_tables", "},")
    chains = _ChainRows(lines, "POI", layout.shape)
    pois = JointStack(chains.read("poi_tables", "},"), chains.joints())
    entries = list(lines.entries("pr_nu", "}"))
    lines.next("}")
    if stream.read(1):
        raise DataError(f"unreadable model parameters: extra data after line {lines.number}")
    if tuple(key for key, _ in entries) != pairs:
        raise DataError("model parameters: the pr_nu keys differ from the pair_tables keys")
    try:
        scores = json.loads("[" + ", ".join(text for _, text in entries) + "]")
    except json.JSONDecodeError:
        scores = ()
    if len(scores) != len(entries) or not all(type(score) in (int, float) for score in scores):
        raise DataError("model parameters: pr_nu has a non-numeric entry")
    scores = np.array(scores, dtype=float)
    if not (np.isfinite(scores) & (scores >= 0)).all():
        raise DataError("model parameters: pr_nu has a negative or non-finite entry")
    return MatiTables(layout=layout, slab_checksum=checksum, pair_keys=pairs, poi_tables=pois,
                      global_table=global_table)
