"""The columnar log against the per-line and per-user references.

The parser splits and converts whole columns; ``oracles.reference_parse``
reads one line at a time with the per-field checks.  Sampling and the
weekday/weekend acts read the columns with ``bincount`` and Gram matrices;
the references walk ``CheckIn`` records with dicts.  Everything must agree
exactly (``==``), floats included.
"""

import io
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from corpus import checkin_users, longtail_corpus, planted_corpus

from matirec.errors import DataError
from matirec.evaluation import split_exclude
from matirec.ingest import (DEFAULT_COLUMNS, CheckIn, CheckInLog, ColumnFormat, parse_checkins,
                            serialize_log)
from matirec.sampling import SamplingState, collect_until, sample_round, stratify_users
from matirec.slabs import day_factor, hour_factor
from matirec.univariate import (UnivariateConfig, act_observations, all_poi_acts,
                                effective_user_act)

# --- Parsing ----------------------------------------------------------------

_pad = st.sampled_from(["", "", " ", "  ", "\xa0", "　", "\x1c"])
_id = st.one_of(st.text(alphabet="abXY09_-#.éü東京", min_size=1, max_size=5),
                st.sampled_from(["", " ", "a b", "\xa0"]))
_epoch = st.integers(min_value=-5, max_value=4_000_000_000).map(str)
_iso = st.datetimes(min_value=datetime(1965, 1, 1), max_value=datetime(2040, 1, 1)).flatmap(
    lambda d: st.sampled_from([d.isoformat(), d.isoformat() + "Z", d.isoformat(" ")]))
_bad_time = st.sampled_from(["", "abc", "12:00", "2010-13-01T00:00:00", "1e9",
                             "99999999999999999999", "-99999999999999999999"])
_time = st.one_of(_epoch, _epoch, _iso, _bad_time)
_coord = st.one_of(st.floats(min_value=-200, max_value=200, allow_nan=False).map(repr),
                   st.sampled_from(["0", "-0.0", "1_0.5", "nan", "inf", "x", ""]))


@st.composite
def _line(draw, order):
    kind = draw(st.sampled_from(["row"] * 6 + ["short", "long", "blank", "comment"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\xa0 "]))
    if kind == "comment":
        return draw(st.sampled_from(["#", "# fingerprint=abc", "#\tu\t1\t0\t0\tp"]))
    values = {"user": draw(_id), "time": draw(_time), "lat": draw(_coord),
              "lon": draw(_coord), "poi": draw(_id)}
    fields = [draw(_pad) + values[name] + draw(_pad) for name in order]
    if kind == "short":
        fields.pop(draw(st.integers(0, len(fields) - 1)))
    elif kind == "long":
        fields.append(draw(_id))
    return "\t".join(fields)


@st.composite
def _tsv(draw):
    order = draw(st.permutations(DEFAULT_COLUMNS))
    lines = draw(st.lists(_line(order), max_size=12))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\n")
    return ColumnFormat(tuple(order)), text


@settings(max_examples=300)
@given(_tsv(), st.sampled_from(["abort", "skip"]), st.booleans())
def test_columnar_parse_matches_line_reference(fmt_text, on_error, as_bytes):
    fmt, text = fmt_text

    def source():
        return text.encode("utf-8") if as_bytes else io.StringIO(text)

    try:
        want, skipped = orc.reference_parse(source(), fmt, on_error)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            parse_checkins(source(), fmt, on_error)
        assert str(got.value) == str(exc)
        return
    log = parse_checkins(source(), fmt, on_error)
    assert tuple(log.checkins) == tuple(want)
    assert log.skipped_lines == skipped
    assert log.columns.users == tuple(sorted({c.user_id for c in want}))
    assert log.columns.pois == tuple(sorted({c.poi_id for c in want}))


def test_parse_error_names_first_bad_line_across_checks():
    """A bad timestamp on line 3 is reported before a short line 4."""
    text = "# header\nu\t100\t1.0\t2.0\tp\nu\tsoon\t1.0\t2.0\tp\nu\t100\t1.0\n"
    with pytest.raises(DataError, match=r"^line 3: malformed timestamp 'soon'$"):
        parse_checkins(io.StringIO(text))
    log = parse_checkins(io.StringIO(text), on_error="skip")
    assert len(log) == 1 and log.skipped_lines == 2


def test_parse_timestamp_beyond_int64_is_malformed():
    with pytest.raises(DataError, match="line 1: timestamp out of range"):
        parse_checkins(io.StringIO(f"u\t{1 << 63}\t0\t0\tp\n"))


_tied_checkin = st.builds(
    CheckIn,
    user_id=st.sampled_from(["u1", "u2", "é"]),
    poi_id=st.sampled_from(["p1", "p2", "東"]),
    timestamp=st.integers(min_value=1, max_value=3),
    lat=st.sampled_from([0.0, -0.0, 1.5, -90.0, 0.1 + 0.2]),
    lon=st.sampled_from([0.0, -0.0, 180.0, 1e-300]),
)


@given(st.lists(_tied_checkin, max_size=40))
def test_serialize_log_matches_record_reference(checkins):
    """Same bytes as sorting records, ties (and -0.0 against 0.0) included."""
    log = CheckInLog.from_checkins(checkins)
    assert serialize_log(log) == orc.reference_serialize(log)


# --- The log itself ---------------------------------------------------------

def test_checkins_view_and_rows_keep_input_order(tiny_log):
    assert len(tiny_log.checkins) == 5
    assert tiny_log.checkins[-1] == CheckIn("xx", "p4", 1270000000, 10.0, 10.0)
    with pytest.raises(IndexError):
        tiny_log.checkins[5]
    rows = tiny_log.rows("ua")
    assert [tiny_log.checkins[i].timestamp for i in rows] == [1270503000, 1270506600, 1270510200]
    assert not len(tiny_log.rows("ghost"))
    assert checkin_users(tiny_log) == ["ua", "ub", "xx"]


def test_with_social_reuses_columns_and_adds_social_only_users(tiny_log):
    same = tiny_log.with_social([("ua", "xx")])
    assert same.columns is tiny_log.columns
    grown = tiny_log.with_social([("ua", "ghost")])
    assert grown.columns.users == ("ghost", "ua", "ub", "xx")
    assert grown.columns.timestamp is tiny_log.columns.timestamp
    assert checkin_users(grown) == ["ua", "ub", "xx"]
    assert tuple(grown.checkins) == tuple(tiny_log.checkins)
    # Dropping the edge drops the social-only user again.
    assert tiny_log.with_social([]).columns.users == ("ua", "ub", "xx")


def test_split_train_log_is_the_kept_records():
    log = planted_corpus(n_users=60, seed=3)
    split = split_exclude(log, 0.3, seed=5)
    kept = [c for c in log.checkins
            if c.user_id not in split.excluded or c.poi_id not in split.excluded[c.user_id]]
    assert tuple(split.train_log.checkins) == tuple(kept)
    assert split.train_log == CheckInLog.from_checkins(kept, log.social_edges)
    assert split.train_log.columns.pois == tuple(sorted({c.poi_id for c in kept}))


# --- Sampling and weekday/weekend acts against the dict references ---------

CORPORA = {
    "planted-300": lambda: planted_corpus(n_users=300, seed=2024),
    "longtail-200": lambda: longtail_corpus(n_users=200, seed=1),
}


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus_log(request):
    return CORPORA[request.param]()


@pytest.mark.parametrize("binary", [False, True])
def test_sampling_samples_equal_dict_reference(corpus_log, binary):
    log = corpus_log
    factors = [hour_factor(3600), day_factor(3600)]
    seed, n_percent, thresholds = 7, 10.0, (5, 15)
    samples, _, state = collect_until(log, factors, m_min=30, n_percent=n_percent, seed=seed,
                                      thresholds=thresholds, binary=binary)

    by_user = orc.histories(log)
    distinct = {u: len({c.poi_id for c in cs}) for u, cs in by_user.items()}
    strata = stratify_users(log, thresholds)
    assert strata.passive == {u for u, n in distinct.items() if n < 5}
    assert strata.semi_active == {u for u, n in distinct.items() if 5 <= n < 15}
    assert strata.active == {u for u, n in distinct.items() if n >= 15}

    replay = SamplingState(rng_seed=seed)
    want = {f.name: {} for f in factors}
    for _ in range(state.round):
        drawn = sample_round(strata, replay, n_percent)
        for name, rows in orc.similarity_samples(by_user, factors, sorted(drawn), binary).items():
            for a, b, value in rows:
                want[name].setdefault((a, b), []).append(value)
    assert replay.drawn == state.drawn
    for f in factors:
        assert samples[f.name].values == want[f.name]


def test_univariate_acts_equal_dict_reference(corpus_log):
    log = corpus_log
    offset = 3600
    acts = all_poi_acts(log, offset)
    assert acts == orc.reference_poi_acts(log, offset)
    cfg = UnivariateConfig()
    by_user = orc.histories(log)
    for user in checkin_users(log):
        pois = log.distinct_pois(user)
        c_star = {p: float(len(p) % 4) for p in pois}
        try:
            want = orc.reference_user_act(user, by_user[user], cfg, c_star, offset)
        except DataError:
            with pytest.raises(DataError):
                effective_user_act(user, log, cfg, c_star, offset)
            continue
        assert effective_user_act(user, log, cfg, c_star, offset) == want
    for floors in ((5, 8), (1, 1), (2, 3)):
        assert (act_observations(log, offset, *floors)
                == orc.reference_act_observations(log, offset, *floors))


def test_stats_and_strata_on_a_social_only_user():
    """Social-only users count for stats but sit in no stratum."""
    log = CheckInLog.from_checkins([CheckIn("a", "p", 100, 0.0, 0.0)], [("a", "z")])
    strata = stratify_users(log, (5, 15))
    assert strata.passive == {"a"} and not strata.semi_active and not strata.active
    assert list(log.columns.checkin_counts()) == [1, 0]
    assert np.array_equal(log.columns.distinct_poi_counts(), [1, 0])
