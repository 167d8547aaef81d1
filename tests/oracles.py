"""Brute-force reference implementations the fast code must agree with.

Everything here is written with explicit loops and plain float arithmetic,
independent of the log-space / vectorized implementations under test.
``DictParams`` is the trained parameter set as plain dicts of chains, one
entry per (user, POI) pair or POI; ``stacked`` and ``as_dicts`` convert it
to and from the library's stacked ``MatiParams``.  ``e_step``, ``m_step``
and ``joint_prob`` are the per-pair EM steps over it, which the other
oracles check; ``reference_em`` iterates them to stand in for the
closed-form ``run_em``, and ``dense_em`` is that closed form on a dense
(pairs × cells) grid, which ``run_em`` must match bit for bit
(``assert_matches_dense_em``).  ``reference_params_json`` writes the parameter
file from a ``DictParams`` through ``params_lines``, an encoder of the
file's line layout: the byte reference for the stacked writer.
``reference_params_content`` is the same payload as one nested
``json.dumps``, whose ``json.loads`` the file's must equal.

The slab references work on string ids such as ``"hour:21|day:1"`` (one
uni-aspect slab id per factor, finest first), found by scanning slab
memberships: the cell of one timestamp, the string-keyed check-in profiles
of users and POIs, and the Jaccard overlap of two id sets.  The array code
(``SlabIndex.cells``, ``all_slab_profiles``, ``shared_activity``) must agree
with them exactly.

``canonical_rows`` is the order-free comparison of two logs.  The log
references walk ``CheckIn`` records: ``reference_parse`` reads a
check-in TSV one line at a time with the per-field checks,
``reference_serialize`` sorts records into the cache, ``user_slot_vectors``
and ``slot_pair_similarity`` build one user's per-slot POI count dicts and
their cosines, and the act references count weekday and weekend visits with
dicts.  The columnar parser, ``slot_pair_cosines`` and the ``bincount``-based
acts must agree with them exactly.  ``reference_m_avg`` is the univariate
list composition over POI ids with string-keyed quotas, seats and buckets;
the positions ``m_avg_recommend`` returns must pick the same POIs.

The scalar, string-keyed scorers below (CF, social, geo, the USG mix, its
leave-one-out variant and the MATI components) are the per-candidate
implementations the integer-indexed vector core replaced.  They score one
(user, POI) at a time from sets of ids and must agree with the core: exactly
where the arithmetic is the same, to 1e-12 relative for geo, whose numpy
``log``/``arcsin``/``exp`` may differ from libm's in the last bit.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from matirec.baselines import EARTH_RADIUS_KM, GeoModel
from matirec.config import DEFAULT_COLUMNS, UsgWeights
from matirec.errors import DataError
from matirec.ingest import CheckIn, ColumnFormat, _canonical_order, parse_timestamp
from matirec.localtime import is_weekend
from matirec.mati import (PARAMS_FORMAT_VERSION, ChainLayout, ChainStack, MatiParams,
                          chain_from_joint, joint_from_chain, layout_for, pair_of, run_em)


# --- Slabs as string ids, one timestamp at a time ---------------------------

def slab_parts(index, timestamp: int) -> tuple:
    """(factor name, slab index) of each factor's slab holding the timestamp,
    finest first."""
    parts = []
    for f in index.factors:
        slot = f.slot_of(timestamp)
        holding = [i for i, slots in enumerate(index.slab_sets[f.name]) if slot in slots]
        assert len(holding) == 1, f"slot {slot} of {f.name} is in {len(holding)} slabs"
        parts.append((f.name, holding[0]))
    return tuple(parts)


def slab_id(index, timestamp: int) -> str:
    """The multi-aspect slab id of the timestamp, e.g. ``"hour:21|day:1"``."""
    return "|".join(f"{name}:{i}" for name, i in slab_parts(index, timestamp))


def grid_cell(index, timestamp: int) -> tuple[int, ...]:
    """Per-factor slab indices of the timestamp, coarsest first."""
    return tuple(i for _, i in reversed(slab_parts(index, timestamp)))


def flat_cell(index, timestamp: int) -> int:
    """``grid_cell`` as one mixed-radix number over the grid, coarsest digit first."""
    cell = 0
    for digit, size in zip(grid_cell(index, timestamp), index.grid_shape()):
        cell = cell * size + digit
    return cell


def slab_profiles(log, index) -> tuple[dict[str, dict[str, int]], dict[str, dict[str, int]]]:
    """Check-in counts per slab id of every user and every POI, one check-in
    at a time."""
    users: dict[str, dict[str, int]] = {}
    pois: dict[str, dict[str, int]] = {}
    for c in log.checkins:
        slab = slab_id(index, c.timestamp)
        for owner, profiles in ((c.user_id, users), (c.poi_id, pois)):
            counts = profiles.setdefault(owner, {})
            counts[slab] = counts.get(slab, 0) + 1
    return users, pois


def cell_ids(index) -> list[str]:
    """The slab id of every flat cell, in cell order (C order over the grid,
    coarsest factor first)."""
    return ["|".join(f"{f.name}:{i}" for f, i in zip(index.factors, reversed(digits)))
            for digits in itertools.product(*map(range, index.grid_shape()))]


def cell_profile(index, counts) -> dict[str, int]:
    """A row of per-cell counts as a slab-id-keyed profile (nonzero cells only)."""
    ids = cell_ids(index)
    return {ids[cell]: int(n) for cell, n in enumerate(counts) if n}


def jaccard(a: set[str], b: set[str]) -> float:
    """Overlap of two slab-id sets; 0 when both are empty."""
    union = a | b
    return len(a & b) / len(union) if union else 0.0


# --- Parsing and slot similarity, one line or one user at a time ----------

def canonical_rows(log) -> tuple:
    """The log's check-ins as user ids, timestamps, POI ids, lats and lons in
    ``serialize_log``'s order, plus its social edges: equal for two logs that
    hold the same check-ins and friendships, whatever their input order."""
    c = log.columns
    order = _canonical_order(c)
    return (np.array(c.users, dtype=object)[c.user[order]].tolist(),
            c.timestamp[order].tolist(),
            np.array(c.pois, dtype=object)[c.poi[order]].tolist(),
            c.lat[order].tolist(), c.lon[order].tolist(), log.social_edges)


def reference_parse(source, fmt=None, on_error: str = "abort") -> tuple[list[CheckIn], int]:
    """The check-in records and skipped-line count of a check-in TSV, parsed
    one line at a time with the per-field checks (the columnar parser's
    reference)."""
    fmt = fmt or ColumnFormat()
    idx = fmt.index
    checkins = []
    skipped = 0
    if isinstance(source, bytes):
        lines = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        lines = open(source, "r", encoding="utf-8")
    else:
        lines = source
    with lines:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            try:
                if len(parts) != len(DEFAULT_COLUMNS):
                    raise DataError(f"expected {len(DEFAULT_COLUMNS)} fields, got {len(parts)}")
                checkins.append(CheckIn(
                    user_id=parts[idx["user"]].strip(),
                    poi_id=parts[idx["poi"]].strip(),
                    timestamp=parse_timestamp(parts[idx["time"]].strip()),
                    lat=_parse_float(parts[idx["lat"]].strip(), "lat"),
                    lon=_parse_float(parts[idx["lon"]].strip(), "lon"),
                ))
            except DataError as exc:
                if on_error == "abort":
                    raise DataError(f"line {lineno}: {exc}") from exc
                skipped += 1
    return checkins, skipped


def reference_serialize(log) -> str:
    """The sorted cache, one record at a time: rows sorted by (user,
    timestamp, poi, lat, lon), stable for equal keys."""
    key = lambda c: (c.user_id, c.timestamp, c.poi_id, c.lat, c.lon)
    rows = [f"{c.user_id}\t{int(c.timestamp)}\t{float(c.lat)!r}\t{float(c.lon)!r}\t{c.poi_id}"
            for c in sorted(log.checkins, key=key)]
    return "\n".join(rows) + ("\n" if rows else "")


def _parse_float(token: str, name: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise DataError(f"malformed {name} {token!r}") from exc


def user_slot_vectors(history, factor, binary: bool = False) -> dict[int, dict[str, float]]:
    """Per-slot visit-count vectors over POIs for one user's check-ins.

    With ``binary=True`` counts collapse to 0/1 presence.
    """
    vectors: dict[int, dict[str, float]] = {}
    for c in history:
        slot = int(factor.slot_of(c.timestamp))
        vec = vectors.setdefault(slot, {})
        vec[c.poi_id] = 1.0 if binary else vec.get(c.poi_id, 0.0) + 1.0
    return vectors


def slot_pair_similarity(vec_a: dict[str, float], vec_b: dict[str, float]) -> float | None:
    """Cosine similarity of two slot vectors; None when either slot is inactive."""
    if not vec_a or not vec_b:
        return None
    dot = sum(vec_a[k] * vec_b[k] for k in vec_a.keys() & vec_b.keys())
    norm_a = math.sqrt(sum(v * v for v in vec_a.values()))
    norm_b = math.sqrt(sum(v * v for v in vec_b.values()))
    return dot / (norm_a * norm_b)


def similarity_samples(by_user, factors, users, binary: bool = False) -> dict[str, list]:
    """Per factor, the (slot_a, slot_b, value) samples of the given users in
    (user, slot_a, slot_b) order, one user's slot vectors at a time.
    ``by_user`` maps each user to their check-in records (see ``histories``)."""
    out = {f.name: [] for f in factors}
    for user in users:
        history = by_user.get(user, [])
        for f in factors:
            vectors = user_slot_vectors(history, f, binary=binary)
            slots = sorted(vectors)
            for i, a in enumerate(slots):
                for b in slots[i + 1:]:
                    value = slot_pair_similarity(vectors[a], vectors[b])
                    if value is not None:
                        out[f.name].append((a, b, value))
    return out


# --- Weekday/weekend acts, one POI or user at a time ------------------------

@dataclass(frozen=True)
class PoiAct:
    """Weekday-vs-weekend orientation of a POI over all its visits."""

    poi_id: str
    weekday_visits: int
    weekend_visits: int

    @property
    def total(self) -> int:
        return self.weekday_visits + self.weekend_visits

    @property
    def act(self) -> float:
        return self.weekday_visits / self.total - self.weekend_visits / self.total


@dataclass(frozen=True)
class UserAct:
    """``effective_user_act``'s profile keyed by POI id: shares, scaled
    influence and shifted shares per POI, then the averages and the act."""

    p_day: dict[str, float]
    p_end: dict[str, float]
    c_hat: dict[str, float]
    pr_day: dict[str, float]
    pr_end: dict[str, float]
    avg_day: float
    avg_end: float
    act: float
    orientation: int


def _pois_of_user(log, user: str) -> list[str]:
    return sorted({c.poi_id for c in log.checkins if c.user_id == user})


def poi_act(poi_id: str, log, utc_offset: int = 0) -> PoiAct:
    """Visit-share margin of a POI; positive = weekday-leaning."""
    day = end = 0
    for c in log.checkins:
        if c.poi_id == poi_id:
            if is_weekend(c.timestamp, utc_offset):
                end += 1
            else:
                day += 1
    if day + end == 0:
        raise DataError(f"poi {poi_id!r} has no visits")
    return PoiAct(poi_id, day, end)


def user_poi_probs(user: str, poi: str, log, utc_offset: int = 0) -> tuple[float, float]:
    """(weekday, weekend) visit shares of one user at one POI; they sum to 1."""
    day = end = 0
    for c in log.checkins:
        if c.user_id == user and c.poi_id == poi:
            if is_weekend(c.timestamp, utc_offset):
                end += 1
            else:
                day += 1
    if day + end == 0:
        raise DataError(f"user {user!r} never visited poi {poi!r}")
    return day / (day + end), end / (day + end)


def absolute_poi_act(poi: str, log, min_users: int = 5, utc_offset: int = 0) -> float | None:
    """Mean absolute per-visitor weekday/weekend deviation; None below the
    visitor floor (the POI is skipped from the observation)."""
    visitors = sorted({c.user_id for c in log.checkins if c.poi_id == poi})
    if len(visitors) < min_users:
        return None
    deviations = []
    for u in visitors:
        p_d, p_e = user_poi_probs(u, poi, log, utc_offset)
        deviations.append(abs(p_d - p_e))
    return sum(deviations) / len(deviations)


def absolute_user_act(user: str, log, min_pois: int = 8, utc_offset: int = 0) -> float | None:
    """Mean absolute per-POI deviation over the user's distinct POIs; None
    below the POI floor."""
    pois = _pois_of_user(log, user)
    if len(pois) < min_pois:
        return None
    deviations = []
    for p in pois:
        p_d, p_e = user_poi_probs(user, p, log, utc_offset)
        deviations.append(abs(p_d - p_e))
    return sum(deviations) / len(deviations)


def histories(log) -> dict[str, list]:
    """Each user's check-in records in input order, from one pass over the log."""
    out: dict[str, list] = {}
    for c in log.checkins:
        out.setdefault(c.user_id, []).append(c)
    return out


def reference_poi_acts(log, utc_offset: int = 0) -> dict[str, PoiAct]:
    """Weekday and weekend visit counts of every visited POI, one check-in at a time."""
    day: dict[str, int] = {}
    end: dict[str, int] = {}
    for c in log.checkins:
        bucket = end if is_weekend(c.timestamp, utc_offset) else day
        bucket[c.poi_id] = bucket.get(c.poi_id, 0) + 1
    return {p: PoiAct(p, day.get(p, 0), end.get(p, 0)) for p in set(day) | set(end)}


def reference_user_act(user: str, history, cfg, c_star, utc_offset: int = 0) -> UserAct:
    """``effective_user_act`` over one user's check-in records, POI by POI."""
    pois = sorted({c.poi_id for c in history})
    if len(pois) < 2:
        raise DataError(f"user {user!r} needs >= 2 distinct POIs for feature scaling")
    raw = {p: c_star[p] for p in pois}
    lo, hi = min(raw.values()), max(raw.values())
    c_hat = ({p: 1.0 for p in pois} if hi == lo
             else {p: (raw[p] - lo) / (hi - lo) for p in pois})
    p_day, p_end, pr_day, pr_end = {}, {}, {}, {}
    for p in pois:
        day = sum(1 for c in history if c.poi_id == p and not is_weekend(c.timestamp, utc_offset))
        end = sum(1 for c in history if c.poi_id == p and is_weekend(c.timestamp, utc_offset))
        p_day[p], p_end[p] = day / (day + end), end / (day + end)
        pr_day[p] = c_hat[p] * (p_day[p] - cfg.lam)
        pr_end[p] = c_hat[p] * (p_end[p] - cfg.lam)
    avg_day = sum(pr_day.values()) / len(pois)
    avg_end = sum(pr_end.values()) / len(pois)
    margin = avg_day - avg_end
    return UserAct(p_day=p_day, p_end=p_end, c_hat=c_hat, pr_day=pr_day, pr_end=pr_end,
                   avg_day=avg_day, avg_end=avg_end, act=abs(margin),
                   orientation=(margin > 0) - (margin < 0))


def _apportion(quotas: Mapping[str, float], n: int, priority: Sequence[str]) -> dict[str, int]:
    """Largest-remainder seat allocation summing exactly to n.

    Raw quotas are clamped at zero and rescaled to total n when they do not
    already; remainder ties are resolved by ``priority`` order.
    """
    clamped = {k: max(0.0, v) for k, v in quotas.items()}
    total = sum(clamped.values())
    if total <= 0:
        return {k: 0 for k in quotas}
    scaled = {k: v * n / total for k, v in clamped.items()}
    floors = {k: int(math.floor(v)) for k, v in scaled.items()}
    leftover = n - sum(floors.values())
    order = sorted(quotas, key=lambda k: (-(scaled[k] - floors[k]), priority.index(k)))
    for k in order[:leftover]:
        floors[k] += 1
    return floors


def reference_m_avg(rho: Sequence[str], delta: Mapping[str, float], profile, cfg,
                    n: int) -> list[str]:
    """``m_avg_recommend`` over POI ids: the re-composed list of the
    score-sorted pool ``rho`` whose POI acts are ``delta``, from string-keyed
    quotas, seats and buckets."""
    quotas = {
        "day": (profile.avg_day + cfg.lam - cfg.xi / 2) * n,
        "end": (profile.avg_end + cfg.lam - cfg.xi / 2) * n,
        "neutral": cfg.xi * n,
    }
    lean = ["day", "end"] if profile.avg_day >= profile.avg_end else ["end", "day"]
    seats = _apportion(quotas, n, priority=lean + ["neutral"])
    buckets = {"day": [], "end": [], "neutral": []}
    for p in rho:
        act = delta[p]
        if act > cfg.theta:
            buckets["day"].append(p)
        elif act < cfg.theta:
            buckets["end"].append(p)
        else:
            buckets["neutral"].append(p)
    chosen: set[str] = set()
    for name in ("day", "end", "neutral"):
        for p in buckets[name][:seats[name]]:
            chosen.add(p)
    if len(chosen) < n:
        for p in rho:
            if len(chosen) >= n:
                break
            chosen.add(p)
    return [p for p in rho if p in chosen][:n]


def reference_act_observations(log, utc_offset: int = 0, min_users: int = 5,
                               min_pois: int = 8) -> tuple[list[float], list[float]]:
    """Mean absolute weekday/weekend deviation per user and per POI, from
    per-pair counts; each mean sums its pairs left to right in id order."""
    day: dict[tuple[str, str], int] = {}
    end: dict[tuple[str, str], int] = {}
    for c in log.checkins:
        bucket = end if is_weekend(c.timestamp, utc_offset) else day
        bucket[(c.user_id, c.poi_id)] = bucket.get((c.user_id, c.poi_id), 0) + 1
    by_user: dict[str, list[float]] = {}
    by_poi: dict[str, list[float]] = {}
    for u, p in sorted(set(day) | set(end)):
        d, e = day.get((u, p), 0), end.get((u, p), 0)
        by_user.setdefault(u, []).append(abs(d - e) / (d + e))
        by_poi.setdefault(p, []).append(abs(d - e) / (d + e))

    def mean(values: list[float]) -> float:
        total = 0.0
        for v in values:
            total += v
        return total / len(values)

    return ([mean(v) for _, v in sorted(by_user.items()) if len(v) >= min_pois],
            [mean(v) for _, v in sorted(by_poi.items()) if len(v) >= min_users])


def undersampled_pairs(coverage_csv: str, m_min: int) -> list[tuple[str, int, int]]:
    """(factor, slot_a, slot_b) of the coverage rows with fewer than
    ``m_min`` samples."""
    rows = [line.split(",") for line in coverage_csv.splitlines()[1:]]
    return [(f, int(a), int(b)) for f, a, b, count in rows if int(count) < m_min]


# --- The parameter set as dicts of chains, and per-pair EM -----------------

@dataclass
class DictParams:
    """Trained parameter set as plain dicts: ``pr_nu`` and ``pair_tables``
    keyed by (user, poi), ``poi_tables`` by POI, one chain (a list of level
    tables) per entry, plus the global chain (uniform unless given)."""

    layout: ChainLayout
    pr_nu: dict[tuple[str, str], float]
    pair_tables: dict[tuple[str, str], list[np.ndarray]]
    poi_tables: dict[str, list[np.ndarray]] = field(default_factory=dict)
    global_table: list[np.ndarray] | None = None  # None: the uniform chain of the layout
    slab_checksum: str = ""

    def __post_init__(self):
        if self.global_table is None:
            shape = self.layout.shape
            self.global_table = [np.full(shape[:k + 1], 1.0 / size)
                                 for k, size in enumerate(shape)]

    def tables_for(self, user: str, poi: str) -> list[np.ndarray]:
        """The pair's chain, else its POI's backoff chain, else the global one."""
        if (user, poi) in self.pair_tables:
            return self.pair_tables[(user, poi)]
        return self.poi_tables.get(poi, self.global_table)


def _chain_stack(chains: Mapping[str, list], shape: tuple[int, ...]) -> ChainStack:
    keys = sorted(chains)
    return ChainStack.of(keys, tuple(
        np.array([chains[key][k] for key in keys], dtype=float) if keys
        else np.zeros((0, *shape[:k + 1])) for k in range(len(shape))))


def stacked(ref: DictParams) -> MatiParams:
    """The library's ``MatiParams`` holding the same chains, stacked as given
    (unvalidated) in raw key order."""
    shape = ref.layout.shape
    pairs = _chain_stack({f"{u}\t{l}": tables for (u, l), tables in ref.pair_tables.items()},
                         shape)
    return MatiParams(layout=ref.layout, pair_tables=pairs,
                      pr_nu=np.array([ref.pr_nu[pair_of(key)] for key in pairs.keys], dtype=float),
                      poi_tables=_chain_stack(ref.poi_tables, shape),
                      global_table=ref.global_table, slab_checksum=ref.slab_checksum)


def as_dicts(params: MatiParams) -> DictParams:
    """The chains of a ``MatiParams`` as dicts of per-owner level views."""
    def chains(stack) -> dict:
        levels = stack.chains(0, len(stack))
        return {key: [level[i] for level in levels] for i, key in enumerate(stack.keys)}

    pairs = params.pair_tables
    return DictParams(
        layout=params.layout,
        pr_nu={pair_of(key): v for key, v in zip(pairs.keys, params.pr_nu.tolist())},
        pair_tables={pair_of(key): chain for key, chain in chains(pairs).items()},
        poi_tables=chains(params.poi_tables), global_table=params.global_table,
        slab_checksum=params.slab_checksum)


def log_joint_from_chain(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Log-space joint with -inf where any chain factor is zero."""
    with np.errstate(divide="ignore"):
        acc = np.log(tables[0])
        for table in tables[1:]:
            acc = acc[..., None] + np.log(table)
    return acc


def joint_prob(user: str, poi: str, assignment: tuple[int, ...], params: DictParams,
               pr_nu: float | None = None) -> float:
    """Log joint probability of (user, poi, slab assignment).

    ``assignment`` indexes slabs coarsest-first.  Any zero factor yields the
    -inf sentinel.  ``pr_nu`` overrides the stored non-temporal score.
    """
    if pr_nu is None:
        pr_nu = params.pr_nu.get((user, poi))
        if pr_nu is None:
            raise DataError(f"no stored non-temporal score for pair ({user}, {poi})")
    if pr_nu < 0:
        raise DataError(f"negative non-temporal score for ({user}, {poi})")
    # log Pr(u) = log 1 = 0 contributes nothing.
    log_p = -math.inf if pr_nu == 0 else math.log(pr_nu)
    for k, table in enumerate(params.tables_for(user, poi)):
        value = float(table[assignment[:k + 1]])
        if value == 0.0:
            return -math.inf
        log_p += math.log(value)
    return log_p


def e_step(params: DictParams,
           pairs: Sequence[tuple[str, str]]) -> dict[tuple[str, str], np.ndarray]:
    """Posterior slab responsibilities per pair, log-sum-exp normalized."""
    out: dict[tuple[str, str], np.ndarray] = {}
    for pair in pairs:
        pr_nu = params.pr_nu.get(pair)
        if pr_nu is None or pr_nu <= 0:
            raise DataError(f"pair {pair} has no positive non-temporal score")
        log_joint = log_joint_from_chain(params.tables_for(*pair)) + math.log(pr_nu)
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
    for pair, resp in responsibilities.items():
        hist = evidence.get(pair)
        n = float(hist.sum()) if hist is not None else 0.0
        tables[pair] = chain_from_joint((hist + gamma * resp) / (n + gamma) if n > 0 else resp)
    return tables


def oracle_joint(pr_nu: float, tables: list[np.ndarray], z: tuple[int, int]) -> float:
    """Direct product Pr(u)*Pr_nu*Pr(z_d)*Pr(z_h|z_d) for a 2-factor grid."""
    di, hi = z
    return 1.0 * pr_nu * float(tables[0][di]) * float(tables[1][di, hi])


def oracle_responsibilities(pr_nu: float, tables: list[np.ndarray]) -> np.ndarray:
    """Enumerate every slab assignment, normalize by the total."""
    sd, sh = tables[1].shape
    joint = np.zeros((sd, sh))
    for di in range(sd):
        for hi in range(sh):
            joint[di, hi] = oracle_joint(pr_nu, tables, (di, hi))
    total = joint.sum()
    if total == 0:
        raise ZeroDivisionError("no support")
    return joint / total


def oracle_m_step(resp: np.ndarray, hist: np.ndarray | None,
                  gamma: float) -> list[np.ndarray]:
    """Evidence blend plus direct normalization into the 2-level chain."""
    if hist is not None and hist.sum() > 0:
        n = hist.sum()
        blended = (hist + gamma * resp) / (n + gamma)
    else:
        blended = resp.copy()
    sd, sh = blended.shape
    day = np.zeros(sd)
    for di in range(sd):
        day[di] = blended[di].sum()
    total = day.sum()
    day = day / total
    hour = np.zeros((sd, sh))
    for di in range(sd):
        denom = blended[di].sum()
        for hi in range(sh):
            hour[di, hi] = blended[di, hi] / denom if denom > 0 else 1.0 / sh
    return [day, hour]


def reference_em(log, index, pr_nu, max_iter: int = 200, tol: float = 1e-6,
                 gamma: float = 1.0):
    """``m_step(e_step(...))`` iterated per pair from the global popularity chain.

    Uses ``run_em``'s stop rule and its per-event log-likelihood, summed from
    ``joint_prob`` over every check-in.  Returns (pair joints, trace).
    """
    shape = index.grid_shape()
    pairs = sorted({(c.user_id, c.poi_id) for c in log.checkins})
    evidence = {pair: np.zeros(shape) for pair in pairs}
    popularity = np.zeros(shape)
    for c in log.checkins:
        cell = grid_cell(index, c.timestamp)
        evidence[(c.user_id, c.poi_id)][cell] += 1
        popularity[cell] += 1
    start = chain_from_joint(popularity / popularity.sum())
    params = DictParams(layout=layout_for(index), pr_nu={p: pr_nu[p] for p in pairs},
                        pair_tables={p: start for p in pairs})

    def log_likelihood() -> float:
        total = 0.0
        for pair in pairs:
            hist = evidence[pair]
            for cell in zip(*np.nonzero(hist)):
                total += hist[cell] * joint_prob(*pair, cell, params)
        return total

    trace = [log_likelihood()]
    for _ in range(max_iter):
        params.pair_tables = m_step(e_step(params, pairs), evidence, gamma=gamma)
        trace.append(log_likelihood())
        prev = trace[-2]
        if prev != -math.inf and abs(trace[-1] - prev) / max(abs(prev), 1e-12) < tol:
            break
    return {p: joint_from_chain(params.pair_tables[p]) for p in pairs}, trace


def copying_chains(joints: np.ndarray) -> list[np.ndarray]:
    """Conditional chains of a stack of joints, every level a new array:
    marginalize over the finer axes, divide by the row sums, uniform where
    they are zero."""
    t = joints.ndim - 1
    tables = []
    for k in range(1, t + 1):
        marg = joints.sum(axis=tuple(range(k + 1, t + 1)))
        denom = marg.sum(axis=k, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            tables.append(np.where(denom > 0, marg / np.where(denom > 0, denom, 1.0),
                                   1.0 / marg.shape[k]))
    return tables


def dense_em(log, index, pr_nu, max_iter: int = 200, tol: float = 1e-6, gamma: float = 1.0):
    """The closed-form EM on a dense (pairs × cells) histogram grid: the byte
    reference for ``run_em``'s sparse evidence and in-place factoring.

    J_k = H/n + rate^k (J_0 - H/n) over the whole grid, with ``run_em``'s
    stop rule; pair chains by ``copying_chains``, POI chains from the mean of
    each POI's pair joints.  Returns (pair keys in raw key order, pair
    chains, POI ids, POI chains, global chain, trace).
    """
    columns = log.columns
    keys, pair_of_row = np.unique(columns.pair, return_inverse=True)
    shape = index.grid_shape()
    n_cells = math.prod(shape)
    hist = np.bincount(pair_of_row * n_cells + index.cells(columns.timestamp),
                       minlength=len(keys) * n_cells).reshape(len(keys), n_cells).astype(float)
    n = hist.sum(axis=1, keepdims=True)
    empirical = hist / n
    start = hist.sum(axis=0) / len(log.checkins)
    rate = gamma / (n + gamma)
    rows, cells = np.nonzero(hist)
    counts, target = hist[rows, cells], empirical[rows, cells]
    gap, cell_rate = start[cells] - target, rate[rows, 0]
    base = float(n[:, 0] @ np.log(np.asarray(pr_nu, dtype=float)))

    def log_likelihood(k: int) -> float:
        with np.errstate(divide="ignore"):
            return base + float(counts @ np.log(target + cell_rate ** k * gap))

    trace = [log_likelihood(0)]
    for k in range(1, max_iter + 1):
        trace.append(log_likelihood(k))
        prev = trace[-2]
        if prev != -math.inf and abs(trace[-1] - prev) / max(abs(prev), 1e-12) < tol:
            break
    iterations = len(trace) - 1

    joints = (empirical + rate ** iterations * (start - empirical)).reshape(len(keys), *shape)
    pair_chains = copying_chains(joints)
    pois, poi_of = np.unique(keys % len(columns.pois), return_inverse=True)
    poi_sums = np.zeros((len(pois), *shape))
    np.add.at(poi_sums, poi_of, joints)
    poi_chains = copying_chains(poi_sums / np.bincount(poi_of).reshape(-1, *[1] * len(shape)))
    global_chain = [level[0] for level in copying_chains(start.reshape(1, *shape))]
    names = [f"{columns.users[u]}\t{columns.pois[p]}"
             for u, p in zip(*np.divmod(keys, len(columns.pois)))]
    order = sorted(range(len(names)), key=names.__getitem__)
    return ([names[i] for i in order], [level[order] for level in pair_chains],
            [columns.pois[p] for p in pois], poi_chains, global_chain, trace)


def assert_matches_dense_em(log, index, **kw):
    """``run_em`` gives the dense closed form's chains and trace bit for bit."""
    params, report = run_em(log, index, np.ones(len(log.columns.pairs)), **kw)
    pair_keys_, pair_chains, pois, poi_chains, global_chain, trace = dense_em(
        log, index, np.ones(len(log.columns.pairs)), **kw)
    assert report.log_likelihood == trace
    assert list(params.pair_tables.keys) == pair_keys_
    assert list(params.poi_tables.keys) == pois
    for got, want in ((params.pair_tables.chains(0, len(pair_keys_)), pair_chains),
                      (params.poi_tables.levels, poi_chains),
                      (params.global_table, global_chain)):
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    return params


# The parameter file's members, in file order, and those that are objects
# of one entry a line.
PARAMS_FILE_ORDER = ("fingerprint", "format_version", "layout", "slab_checksum", "global_table",
                     "pair_tables", "poi_tables", "pr_nu")
KEYED_MEMBERS = ("pair_tables", "poi_tables", "pr_nu")


def params_lines(members) -> str:
    """The parameter file's line layout of ``members``, (name, value) pairs
    in the order given: ``{`` and ``}`` on lines of their own, one member a
    line between them, each line but the last member's ending in ``,``.  A
    keyed member's value (a mapping, or a sequence of (key, value) pairs,
    repeated keys kept) spans lines: its ``{`` ends the member's line, each
    entry takes a line, and its ``}`` a line of its own.  Values are
    ``json.dumps(value, sort_keys=True)``; every line ends in ``\n``."""
    blocks = []
    for name, value in members:
        head = f"{json.dumps(name)}: "
        if name in KEYED_MEMBERS:
            items = value.items() if isinstance(value, Mapping) else value
            entries = [f"{json.dumps(key)}: {json.dumps(item)}" for key, item in items]
            blocks.append([head + "{", *[entry + "," for entry in entries[:-1]],
                           *entries[-1:], "}"])
        else:
            blocks.append([head + json.dumps(value, sort_keys=True)])
    for block in blocks[:-1]:
        block[-1] += ","
    return "".join(line + "\n" for line in ["{", *itertools.chain(*blocks), "}"])


def _reference_payload(params: DictParams, fingerprint: str) -> dict:
    """The parameter file's payload, every table through ``tolist()``."""
    return {
        "format_version": PARAMS_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "slab_checksum": params.slab_checksum,
        "layout": {"levels": list(params.layout.levels), "shape": list(params.layout.shape)},
        "pr_nu": {f"{u}\t{l}": v for (u, l), v in sorted(params.pr_nu.items())},
        "pair_tables": {f"{u}\t{l}": [t.tolist() for t in tables]
                        for (u, l), tables in sorted(params.pair_tables.items())},
        "poi_tables": {poi: [t.tolist() for t in tables]
                       for poi, tables in sorted(params.poi_tables.items())},
        "global_table": [t.tolist() for t in params.global_table],
    }


def reference_params_json(params: DictParams, fingerprint: str = "") -> str:
    """The parameter file's bytes, as ``params_lines`` lays out the payload,
    each keyed member's entries sorted by raw key string."""
    payload = _reference_payload(params, fingerprint)
    return params_lines((name, sorted(payload[name].items()) if name in KEYED_MEMBERS
                         else payload[name]) for name in PARAMS_FILE_ORDER)


def reference_params_content(params: DictParams, fingerprint: str = "") -> str:
    """The parameter file's content as one ``json.dumps(payload,
    sort_keys=True)``: ``json.loads`` of it must equal that of the file."""
    return json.dumps(_reference_payload(params, fingerprint), sort_keys=True)

def oracle_metrics(recommended: list[str], excluded: set[str], n: int):
    """Set-intersection counting, no shortcuts."""
    hits = 0
    for poi in recommended[:n]:
        if poi in excluded:
            hits += 1
    precision = hits / n
    recall = hits / len(excluded) if excluded else 0.0
    if precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def oracle_rank1_completion(sim: np.ndarray, hidden: tuple[int, int]) -> float:
    """Recover a hidden cell of a rank-1 matrix from a shared known row.

    For S = u u^T, S[i,k] * S[k,j] / S[k,k] = u_i u_j for any pivot k with
    observed entries.
    """
    i, j = hidden
    n = sim.shape[0]
    for k in range(n):
        if k not in (i, j):
            return float(sim[i, k] * sim[k, j] / sim[k, k])
    raise ValueError("matrix too small for a pivot")


def oracle_sampling_rounds(users_by_stratum: dict[str, list[str]],
                           activity: dict[str, dict[tuple[int, int], float]],
                           all_pairs: list[tuple[int, int]], m_min: int,
                           n_percent: float, max_rounds: int, seed: int):
    """Re-run the documented sampling loop independently.

    ``activity`` maps user -> {slot pair -> similarity sample or absent}.
    Returns (rounds_used, drawn_users, per-pair sample counts).
    """
    drawn: set[str] = set()
    counts = {pair: 0 for pair in all_pairs}
    rounds = 0
    while rounds < max_rounds:
        if all(c >= m_min for c in counts.values()):
            break
        rng = np.random.default_rng([seed, rounds])
        picked = []
        for name in ("passive", "semi_active", "active"):
            remaining = sorted(set(users_by_stratum[name]) - drawn)
            if not remaining:
                continue
            k = math.ceil(len(remaining) * n_percent / 100.0)
            idx = rng.choice(len(remaining), size=k, replace=False)
            picked.extend(remaining[i] for i in sorted(idx))
        drawn.update(picked)
        rounds += 1
        if not picked:
            break
        for user in picked:
            for pair in activity.get(user, {}):
                counts[pair] += 1
    return rounds, drawn, counts


# --- Non-temporal scorers, one candidate at a time -------------------------

def pois_of(matrix, user: str) -> set[str]:
    """The user's visited POI ids (empty for a user absent from the log)."""
    return set(matrix.ids(matrix.history(matrix.user_index.get(user))))


def visited(matrix, user: str, poi: str) -> bool:
    return poi in pois_of(matrix, user)


def top_neighbors(matrix, user: str, k: int,
                  exclude_poi: str | None = None) -> list[tuple[str, float]]:
    """Top-k cosine neighbors sharing a POI, ties by id; ``exclude_poi``
    drops one POI from the user's profile first."""
    profile = pois_of(matrix, user)
    profile.discard(exclude_poi)
    if not profile:
        return []
    scored = []
    for v in matrix.users:
        if v == user:
            continue
        theirs = pois_of(matrix, v)
        shared = 0
        for poi in profile:
            if poi in theirs:
                shared += 1
        if shared:
            scored.append((v, shared / math.sqrt(len(profile) * len(theirs))))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def _weighted_share(weights, poi: str, matrix) -> float:
    total = 0.0
    for _, w in weights:
        total += w
    if total == 0:
        return 0.0
    hit = 0.0
    for v, w in weights:
        if visited(matrix, v, poi):
            hit += w
    return hit / total


def ubcf_from_neighbors(neighbors, poi: str, matrix) -> float:
    return _weighted_share(neighbors, poi, matrix)


def ubcf_score(user: str, poi: str, matrix, k_neighbors: int = 50) -> float:
    """Weighted-neighbor visit rate over the top-k cosine-similar users."""
    return ubcf_from_neighbors(top_neighbors(matrix, user, k_neighbors), poi, matrix)


def friend_map(log) -> dict[str, frozenset[str]]:
    adj: dict[str, set[str]] = {}
    for a, b in log.social_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return {u: frozenset(v) for u, v in adj.items()}


def social_tokens(matrix, friends, user: str,
                  exclude_poi: str | None = None) -> frozenset[tuple[str, str]]:
    """Friend circle (the user included) plus visited POIs, as tagged tokens."""
    pois = pois_of(matrix, user)
    pois.discard(exclude_poi)
    circle = set(friends.get(user, frozenset())) | {user}
    return frozenset({("f", f) for f in circle} | {("p", p) for p in pois})


def friend_weights(matrix, friends, user: str,
                   exclude_poi: str | None = None) -> list[tuple[str, float]]:
    """Jaccard weight of each friend, in id order, against the user's tokens."""
    mine = social_tokens(matrix, friends, user, exclude_poi)
    out = []
    for f in sorted(friends.get(user, frozenset())):
        theirs = social_tokens(matrix, friends, f)
        union = len(mine | theirs)
        out.append((f, len(mine & theirs) / union if union else 0.0))
    return out


def social_from_weights(weights, poi: str, matrix) -> float:
    return _weighted_share(weights, poi, matrix)


def social_score(user: str, poi: str, matrix, friends) -> float:
    """Like UBCF but restricted to friends, weighted by the Jaccard overlap."""
    return social_from_weights(friend_weights(matrix, friends, user), poi, matrix)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def poi_coordinates(log) -> dict[str, tuple[float, float]]:
    """First observed coordinate per POI."""
    coords: dict[str, tuple[float, float]] = {}
    for c in log.checkins:
        coords.setdefault(c.poi_id, (c.lat, c.lon))
    return coords


def geo_log_score(history_coords, target: tuple[float, float], model: GeoModel) -> float:
    """Sum over the history of log_a + b * log(max(d, d_min)); 0 for no history."""
    total = 0.0
    for lat, lon in history_coords:
        d = haversine_km(lat, lon, target[0], target[1])
        total += model.log_a + model.b * math.log(max(d, model.d_min_km))
    return total


def geo_scores(history_coords, candidates, coords, model: GeoModel) -> dict[str, float]:
    """Per-user max-normalized geographic scores in [0, 1] for all candidates."""
    logs = {l: geo_log_score(history_coords, coords[l], model) for l in candidates}
    if not logs:
        return {}
    top = max(logs.values())
    return {l: math.exp(v - top) for l, v in logs.items()}


def distance_bins(log, bin_km: float = 0.5, d_min_km: float = 0.1) -> dict[int, int]:
    """Same-user distinct-POI pair counts per distance bin, pair by pair."""
    coords = poi_coordinates(log)
    bins: dict[int, int] = {}
    for user in sorted({c.user_id for c in log.checkins}):
        pois = _pois_of_user(log, user)
        for i, p in enumerate(pois):
            for q in pois[i + 1:]:
                d = max(haversine_km(*coords[p], *coords[q]), d_min_km)
                k = int(d // bin_km)
                bins[k] = bins.get(k, 0) + 1
    return bins


def max_normalize(scores: dict[str, float]) -> dict[str, float]:
    if not scores:
        return {}
    top = max(scores.values())
    if top <= 0:
        return dict(scores)
    return {k: v / top for k, v in scores.items()}


def usg_components(matrix, friends, coords, model: GeoModel, user: str, pois,
                   k_neighbors: int, exclude_poi: str | None = None):
    """Raw (cf, social, geo) maps over ``pois``; exclude_poi gives the
    leave-one-out view."""
    neighbors = top_neighbors(matrix, user, k_neighbors, exclude_poi)
    cf = {p: ubcf_from_neighbors(neighbors, p, matrix) for p in pois}
    weights = friend_weights(matrix, friends, user, exclude_poi)
    social = {p: social_from_weights(weights, p, matrix) for p in pois}
    history = [coords[p] for p in sorted(pois_of(matrix, user)) if p != exclude_poi]
    return cf, social, geo_scores(history, pois, coords, model)


def usg_mix(cf, social, geo, weights: UsgWeights) -> dict[str, float]:
    cf_n, social_n, geo_n = max_normalize(cf), max_normalize(social), max_normalize(geo)
    return {p: ((1 - weights.alpha - weights.beta) * cf_n[p] + weights.alpha * social_n[p]
                + weights.beta * geo_n[p]) for p in cf}


def leave_one_out_c_star(matrix, friends, coords, model: GeoModel, weights: UsgWeights,
                         user: str, k_neighbors: int) -> dict[str, float]:
    """Per visited POI, its components with that POI held out, then mixed."""
    cf, social, geo = {}, {}, {}
    for p in sorted(pois_of(matrix, user)):
        c, s, g = usg_components(matrix, friends, coords, model, user, [p], k_neighbors,
                                 exclude_poi=p)
        cf[p], social[p], geo[p] = c[p], s[p], g[p]
    return usg_mix(cf, social, geo, weights)


# --- MATI components, one candidate at a time -------------------------------

def mati_components(user: str, poi: str, params: DictParams, user_slabs: set[str],
                    poi_slabs: set[str], pr_nu: float) -> tuple[float, float]:
    """(shared activity, depth): Jaccard of the slab-id sets and pr_nu times
    the mean joint over the pair's (or backoff) tables."""
    joint = joint_from_chain(params.tables_for(user, poi))
    return jaccard(user_slabs, poi_slabs), pr_nu * float(joint.mean())


def mati_scores(user: str, candidates, params: DictParams, user_slabs: set[str],
                poi_slabs: dict[str, set[str]], pr_nu_map, phi_t: float) -> dict[str, float]:
    """phi_t * max-normalized psi + (1 - phi_t) * max-normalized depth."""
    psi, depth = {}, {}
    for l in candidates:
        psi[l], depth[l] = mati_components(user, l, params, user_slabs,
                                           poi_slabs.get(l, set()), pr_nu_map.get(l, 0.0))
    psi_n, depth_n = max_normalize(psi), max_normalize(depth)
    return {l: phi_t * psi_n[l] + (1 - phi_t) * depth_n[l] for l in candidates}


def rank(scores: dict[str, float], n: int) -> list[str]:
    return sorted(scores, key=lambda p: (-scores[p], p))[:n]
