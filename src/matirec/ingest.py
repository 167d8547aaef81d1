"""Parse raw check-in and social-edge files into the canonical in-memory dataset.

Input is tab-separated check-in lines (default column order
``user_id, timestamp, lat, lon, poi_id`` -- the order of the public
Brightkite dump) and tab-separated undirected social edges.  Timestamps may
be integer epoch seconds or ISO-8601; naive ISO timestamps are treated as
UTC.

The log is columnar: ``LogColumns`` holds one array per field, one entry per
check-in in input order, with users and POIs interned to ints in sorted-id
order.  The parser splits and converts whole columns at once and builds no
per-check-in object; ``CheckInLog.checkins`` renders ``CheckIn`` records on
demand for readers that want them.  The parsed ``CheckInLog`` is immutable
after construction and safe for concurrent reads.  ``serialize_log`` writes
the sorted cache, rendering each distinct coordinate once (``float_texts``,
which the parameter writer shares).  Of this package it imports only
``config`` and ``errors``, so the ``ingest`` command loads no model layer.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .config import DEFAULT_COLUMNS
from .errors import DataError, InvariantError

COLD_START_DISTINCT_POIS = 5
# Timestamps are held as int64.
TIMESTAMP_LIMIT = 1 << 63

Source = Union[str, Path, bytes, IO]


@dataclass(frozen=True, slots=True)
class CheckIn:
    """One timestamped visit event: (user, POI, epoch seconds UTC, coordinates)."""

    user_id: str
    poi_id: str
    timestamp: int
    lat: float
    lon: float

    def __post_init__(self):
        if not self.user_id or not self.poi_id:
            raise DataError("empty user or poi id")
        if self.timestamp <= 0:
            raise DataError(f"timestamp must be positive, got {self.timestamp}")
        if self.timestamp >= TIMESTAMP_LIMIT:
            raise DataError(f"timestamp out of range, got {self.timestamp}")
        if not -90.0 <= self.lat <= 90.0 or not -180.0 <= self.lon <= 180.0:
            raise DataError(f"coordinate out of range: ({self.lat}, {self.lon})")


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending: ``np.unique``'s result
    by sort and mask.  A plain ``np.unique`` (and ``np.isin``, which calls
    it) imports ``numpy.ma`` on first use, a start-up cost no CLI command
    needs to pay."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def float_texts(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float, as ``json.dumps`` spells a finite one, in an
    object array of ``values``' shape; each distinct bit pattern is rendered
    once, so -0.0 and 0.0 stay distinct.  (``np.unique`` leaves ``numpy.ma``
    unloaded when it returns the inverse, as here.)"""
    distinct, where = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return texts[where.reshape(values.shape)]


def _intern(tokens: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted distinct ids of ``tokens`` and each token's int.

    The ids are new copies of the tokens: a parser's field strings sit
    among the many it frees, and each one kept would pin its block of
    freed memory, which could not go back to the system.
    """
    index = {t: i for i, t in enumerate(sorted(set(tokens)))}
    ids = tuple("".join((t, "")) for t in index)  # a two-item join builds a new string
    return ids, np.fromiter(map(index.__getitem__, tokens), np.intp, len(tokens))


def _reintern(ids: tuple[str, ...], ints: np.ndarray,
              extra: Iterable[str] = ()) -> tuple[tuple[str, ...], np.ndarray]:
    """Re-intern an int column over the ids it uses, plus ``extra`` ids.

    Ids no entry uses (and not in ``extra``) drop out; the order stays
    sorted-id order, so the remap is one gather.
    """
    used = np.flatnonzero(np.bincount(ints, minlength=len(ids)))
    kept = [ids[i] for i in used.tolist()]
    added = set(extra).difference(kept)
    if not added and len(kept) == len(ids):
        return ids, ints
    new_ids = sorted(added.union(kept)) if added else kept
    index = {t: i for i, t in enumerate(new_ids)}
    remap = np.zeros(len(ids), dtype=np.intp)
    remap[used] = np.fromiter(map(index.__getitem__, kept), np.intp, len(kept))
    return tuple(new_ids), remap[ints]


@dataclass(frozen=True, eq=False)
class LogColumns:
    """A log's check-ins as columns, one entry per check-in, in input order.

    Users (check-in and social-only) and POIs are interned to dense ints in
    sorted-id order, so int order is id order.  ``user``/``poi`` are intp,
    ``timestamp`` int64 epoch seconds, ``lat``/``lon`` float64.  The derived
    indexes below are computed once, on first use.
    """

    users: tuple[str, ...]
    pois: tuple[str, ...]
    user: np.ndarray
    poi: np.ndarray
    timestamp: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    @classmethod
    def intern(cls, user_ids: Sequence[str], poi_ids: Sequence[str], timestamp, lat,
               lon) -> "LogColumns":
        """Columns from per-check-in id sequences and value arrays, taken as
        given, unchecked: ``parse_checkins`` and ``CheckInLog.from_checkins``
        validate their input first."""
        users, user = _intern(user_ids)
        pois, poi = _intern(poi_ids)
        return cls(users, pois, user, poi, np.asarray(timestamp, dtype=np.int64).reshape(-1),
                   np.asarray(lat, dtype=float).reshape(-1),
                   np.asarray(lon, dtype=float).reshape(-1))

    def take(self, rows: np.ndarray) -> "LogColumns":
        """The given rows (indices or a mask), re-interned: users and POIs
        without a kept row drop out."""
        users, user = _reintern(self.users, self.user[rows])
        pois, poi = _reintern(self.pois, self.poi[rows])
        return LogColumns(users, pois, user, poi, self.timestamp[rows], self.lat[rows],
                          self.lon[rows])

    @cached_property
    def user_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.users)}

    @cached_property
    def poi_index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.pois)}

    @cached_property
    def pair(self) -> np.ndarray:
        """Each check-in's (user, POI) pair as one int, ``user * n_pois + poi``,
        so pair int order is sorted (user id, POI id) order."""
        return self.user.astype(np.int64) * len(self.pois) + self.poi

    @cached_property
    def pairs(self) -> np.ndarray:
        """The distinct pair ints, ascending."""
        return sorted_unique(self.pair)

    @cached_property
    def user_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, rows): user ``u``'s check-in rows are
        ``rows[indptr[u]:indptr[u + 1]]``, in input order."""
        indptr = np.zeros(len(self.users) + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.user, minlength=len(self.users)), out=indptr[1:])
        return indptr, np.argsort(self.user, kind="stable")

    def checkin_counts(self) -> np.ndarray:
        """Check-ins per user int."""
        return np.diff(self.user_rows[0])

    def distinct_poi_counts(self) -> np.ndarray:
        """Distinct POIs per user int."""
        return np.bincount(self.pairs // len(self.pois), minlength=len(self.users))


class CheckInView(Sequence):
    """Read-only ``CheckIn`` records over a log's columns, in input order.

    Records are built on access; ``len`` reads the column length.
    """

    def __init__(self, columns: LogColumns):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns.user)

    def _record(self, user: int, poi: int, timestamp: int, lat: float, lon: float) -> CheckIn:
        c = self._columns
        return CheckIn(c.users[user], c.pois[poi], timestamp, lat, lon)

    def __getitem__(self, i: int) -> CheckIn:
        c = self._columns
        i = range(len(self))[i]
        return self._record(int(c.user[i]), int(c.poi[i]), int(c.timestamp[i]),
                            float(c.lat[i]), float(c.lon[i]))

    def __iter__(self) -> Iterator[CheckIn]:
        c = self._columns
        return map(self._record, c.user.tolist(), c.poi.tolist(), c.timestamp.tolist(),
                   c.lat.tolist(), c.lon.tolist())


def _normalize_edges(social_edges: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    edges = set()
    for a, b in social_edges:
        if a == b:
            raise DataError(f"self-loop social edge: {a}")
        edges.add((a, b) if a < b else (b, a))
    return frozenset(edges)


class CheckInLog:
    """Canonical store of check-in events plus the undirected social edge set.

    ``columns`` holds the check-ins; its users are exactly the check-in users
    plus every user of a social edge (who may have no check-ins).  Self
    loops are rejected.  ``checkins`` is a read-only record view, and
    ``rows(user)`` gives one user's rows in input order.
    """

    def __init__(self, columns: LogColumns, social_edges: Iterable[tuple[str, str]] = (),
                 skipped_lines: int = 0):
        self.social_edges: frozenset[tuple[str, str]] = _normalize_edges(social_edges)
        social_users = {u for edge in self.social_edges for u in edge}
        users, user = _reintern(columns.users, columns.user, social_users)
        if users is not columns.users:
            columns = LogColumns(users, columns.pois, user, columns.poi, columns.timestamp,
                                 columns.lat, columns.lon)
        self.columns = columns
        self.skipped_lines = skipped_lines
        self.checkins = CheckInView(columns)

    @classmethod
    def from_checkins(cls, checkins: Iterable[CheckIn],
                      social_edges: Iterable[tuple[str, str]] = ()) -> "CheckInLog":
        """A log of ``CheckIn`` records in the given order; each record was
        validated when it was made."""
        records = list(checkins)
        for c in records:
            if not isinstance(c, CheckIn):
                raise DataError(f"expected CheckIn records, got {type(c).__name__}")
        columns = LogColumns.intern(
            [c.user_id for c in records], [c.poi_id for c in records],
            [c.timestamp for c in records], [c.lat for c in records], [c.lon for c in records])
        return cls(columns, social_edges)

    def rows(self, user_id: str) -> np.ndarray:
        """Row indices of the user's check-ins, in input order (none for an
        unknown or social-only user)."""
        u = self.columns.user_index.get(user_id)
        if u is None:
            return np.zeros(0, dtype=np.intp)
        indptr, rows = self.columns.user_rows
        return rows[indptr[u]:indptr[u + 1]]

    def with_social(self, edges: Iterable[tuple[str, str]]) -> "CheckInLog":
        return CheckInLog(self.columns, edges, self.skipped_lines)

    def __len__(self):
        return len(self.columns.user)


def _canonical_order(columns: LogColumns) -> np.ndarray:
    """Rows sorted by (user, timestamp, poi, lat, lon), ties in input order."""
    return np.lexsort((columns.lon, columns.lat, columns.poi, columns.timestamp, columns.user))


@dataclass(frozen=True)
class DatasetStats:
    """Corpus-level counts and sparsity figures.

    Users are counted over the union of check-in users and social-graph
    users, so social-only members (with zero check-ins, hence zero distinct
    POIs) enter both the cold-start ratio and the per-user average.
    """

    n_users: int
    n_pois: int
    n_checkins: int
    n_social_links: int
    cold_start_ratio: float
    avg_pois_per_user: float
    density: float

    def report(self) -> str:
        lines = [f"{k}={getattr(self, k)!r}" for k in (
            "n_users", "n_pois", "n_checkins", "n_social_links",
            "cold_start_ratio", "avg_pois_per_user", "density")]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParsedSocial:
    edges: frozenset[tuple[str, str]]
    skipped: int = 0


@dataclass
class ColumnFormat:
    """Column order of a check-in TSV; a permutation of the default names."""

    columns: tuple[str, ...] = DEFAULT_COLUMNS
    index: dict = field(init=False)

    def __post_init__(self):
        if sorted(self.columns) != sorted(DEFAULT_COLUMNS):
            raise DataError(f"column format must permute {DEFAULT_COLUMNS}, got {self.columns}")
        self.index = {name: i for i, name in enumerate(self.columns)}

    @classmethod
    def parse(cls, spec: str) -> "ColumnFormat":
        return cls(tuple(part.strip() for part in spec.split(",")))


def open_input(path: str | Path, newline: str | None = None) -> IO:
    """The input file ``path``, opened to read UTF-8 text with ``open``'s
    ``newline``; one that cannot be opened is a ``DataError`` naming it."""
    try:
        return open(path, "r", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise DataError(f"cannot open input file {path}: {exc.strerror or exc}") from exc


def _text(source: Source) -> str:
    """The whole source as text, with the line endings file iteration sees;
    split on ``\\n`` it gives the lines (blank lines, a trailing empty piece
    included, are skipped by the parsers)."""
    if isinstance(source, (str, Path)):
        with open_input(source) as fh:
            return fh.read()
    if isinstance(source, bytes):
        return source.decode("utf-8")
    text = source.read()
    return text.decode("utf-8") if isinstance(text, bytes) else text


def parse_timestamp(token: str) -> int:
    """Epoch seconds from an integer literal or an ISO-8601 string (naive = UTC)."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(token.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"malformed timestamp {token!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _parse_float(token: str, name: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise DataError(f"malformed {name} {token!r}") from exc


def _rows(lines: list[str]) -> list[str]:
    """The lines that hold a check-in: neither blank nor a ``#`` comment."""
    return [line for line in filter(str.strip, lines) if line[0] != "#"]


def _line_checkin(line: str, idx: dict) -> CheckIn:
    """One line's check-in, by the per-field checks whose first failure
    names a malformed line (raises ``DataError``)."""
    parts = line.rstrip("\r").split("\t")
    if len(parts) != len(DEFAULT_COLUMNS):
        raise DataError(f"expected {len(DEFAULT_COLUMNS)} fields, got {len(parts)}")
    return CheckIn(
        user_id=parts[idx["user"]].strip(),
        poi_id=parts[idx["poi"]].strip(),
        timestamp=parse_timestamp(parts[idx["time"]].strip()),
        lat=_parse_float(parts[idx["lat"]].strip(), "lat"),
        lon=_parse_float(parts[idx["lon"]].strip(), "lon"),
    )


def _timestamp_or_zero(token: str) -> int:
    """``parse_timestamp`` of the stripped token, with 0 (itself invalid) for
    a token it refuses or one beyond int64."""
    try:
        value = parse_timestamp(token.strip())
    except DataError:
        return 0
    return value if 0 < value < TIMESTAMP_LIMIT else 0


def _float_or_nan(token: str) -> float:
    """``float`` of the stripped token, with NaN (outside every coordinate
    range) for a bad one."""
    try:
        return float(token.strip())
    except ValueError:
        return float("nan")


def _convert(tokens: list[str], fast, safe, dtype) -> np.ndarray:
    """One column through ``fast`` at C speed; only a column holding a token
    ``fast`` refuses goes through ``safe``, which strips each token and marks
    a bad one invalid instead.

    ``int`` and ``float`` skip surrounding whitespace themselves, and any
    whitespace they do not skip makes them refuse the token, so ``fast``
    takes the tokens unstripped and still agrees with ``safe``.
    """
    try:
        return np.fromiter(map(fast, tokens), dtype, len(tokens))
    except (ValueError, OverflowError):
        return np.fromiter(map(safe, tokens), dtype, len(tokens))


def _check_on_error(on_error: str) -> None:
    if on_error not in ("abort", "skip"):
        raise DataError(f"on_error must be 'abort' or 'skip', got {on_error!r}")


def parse_checkins(source: Source, fmt: ColumnFormat | None = None,
                   on_error: str = "abort") -> CheckInLog:
    """Parse a check-in TSV into a CheckInLog (no social edges yet).

    ``on_error`` is ``abort`` (raise on the first malformed line, with its
    line number) or ``skip`` (drop malformed lines and count them in
    ``log.skipped_lines``).  Blank lines and ``#`` comment lines (used for
    fingerprints in cached files) are ignored.  Input order is preserved.

    The file is split into fields once and each column is converted and
    checked as a whole.  The message for the first malformed line comes from
    the per-field checks of ``_line_checkin`` run on that line alone.
    """
    _check_on_error(on_error)
    fmt = fmt or ColumnFormat()
    idx = fmt.index
    width = len(DEFAULT_COLUMNS)
    lines = _text(source).split("\n")
    rows = _rows(lines)
    bad = np.fromiter(map(str.count, rows, repeat("\t")), np.intp, len(rows)) != width - 1
    good = list(compress(rows, ~bad)) if bad.any() else rows
    fields = "\t".join(good).split("\t") if good else []
    tokens = {name: fields[i::width] for name, i in idx.items()}
    columns = LogColumns.intern(
        list(map(str.strip, tokens["user"])), list(map(str.strip, tokens["poi"])),
        _convert(tokens["time"], int, _timestamp_or_zero, np.int64),
        _convert(tokens["lat"], float, _float_or_nan, float),
        _convert(tokens["lon"], float, _float_or_nan, float))
    lat, lon = columns.lat, columns.lon
    field_bad = ~((columns.timestamp > 0) & (lat >= -90.0) & (lat <= 90.0)
                  & (lon >= -180.0) & (lon <= 180.0))
    # An empty id sorts first, so it can only hold int 0.
    if columns.users[:1] == ("",):
        field_bad |= columns.user == 0
    if columns.pois[:1] == ("",):
        field_bad |= columns.poi == 0
    if field_bad.any():
        bad[np.flatnonzero(~bad)[field_bad]] = True
    if bad.any():
        if on_error == "abort":
            first = int(np.argmax(bad))
            lineno = [number for number, line in enumerate(lines, start=1)
                      if _rows([line])][first]
            try:
                _line_checkin(lines[lineno - 1], idx)
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
            raise InvariantError(f"line {lineno} failed a column check but no field check")
        columns = columns.take(~field_bad)
    return CheckInLog(columns, skipped_lines=int(bad.sum()))


def parse_social(source: Source, on_error: str = "abort") -> ParsedSocial:
    """Parse `a TAB b` lines into a deduplicated undirected edge set.

    ``on_error`` works as in ``parse_checkins``.  Self-loop lines are always
    skipped and counted, never fatal.
    """
    _check_on_error(on_error)
    edges = set()
    skipped = 0
    for lineno, raw in enumerate(_text(source).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            if on_error == "abort":
                raise DataError(f"line {lineno}: expected 2 fields")
            skipped += 1
            continue
        a, b = parts[0].strip(), parts[1].strip()
        if a == b:
            skipped += 1
            continue
        edges.add((a, b) if a < b else (b, a))
    return ParsedSocial(frozenset(edges), skipped)


def dataset_stats(log: CheckInLog) -> DatasetStats:
    """Corpus statistics: counts, cold-start ratio (< 5 distinct POIs), density."""
    if not len(log):
        raise DataError("empty dataset")
    columns = log.columns
    distinct = columns.distinct_poi_counts()
    n_users = len(columns.users)
    n_pois = len(columns.pois)
    n_pairs = len(columns.pairs)
    return DatasetStats(
        n_users=n_users,
        n_pois=n_pois,
        n_checkins=len(log),
        n_social_links=len(log.social_edges),
        cold_start_ratio=int((distinct < COLD_START_DISTINCT_POIS).sum()) / n_users,
        avg_pois_per_user=n_pairs / n_users,
        density=n_pairs / (n_users * n_pois),
    )


def serialize_log(log: CheckInLog) -> str:
    """Canonical on-disk form: input TSV sorted by (user, timestamp, poi)."""
    c = log.columns
    if not len(log):
        return ""
    order = _canonical_order(c)
    users = np.array(c.users, dtype=object)[c.user[order]].tolist()
    pois = np.array(c.pois, dtype=object)[c.poi[order]].tolist()
    rows = zip(users, map(str, c.timestamp[order].tolist()), float_texts(c.lat[order]).tolist(),
               float_texts(c.lon[order]).tolist(), pois)
    return "\n".join(map("\t".join, rows)) + "\n"


def csv_text(rows: Iterable[Sequence]) -> str:
    """CSV text of ``rows``, one line each, ending in ``\\n``.  A field that
    holds ``,``, ``"`` or a newline is quoted, so ids may hold them; every
    other field is written as it is."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def serialize_social(log: CheckInLog) -> str:
    rows = [f"{a}\t{b}" for a, b in sorted(log.social_edges)]
    return "\n".join(rows) + ("\n" if rows else "")
