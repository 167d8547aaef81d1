import io

import pytest
from hypothesis import given, strategies as st

from corpus import checkin_users
from oracles import canonical_rows

from matirec.errors import DataError
from matirec.ingest import (CheckIn, CheckInLog, ColumnFormat, dataset_stats, parse_checkins,
                            parse_social, serialize_log, serialize_social)


def test_parse_single_line_maps_fields():
    log = parse_checkins(io.StringIO("u1\t2010-04-05T21:30:00Z\t37.77\t-122.41\tp9\n"))
    assert tuple(log.checkins) == (CheckIn("u1", "p9", 1270503000, 37.77, -122.41),)


def test_parse_epoch_timestamp():
    log = parse_checkins(io.StringIO("u1\t1270503000\t37.77\t-122.41\tp9\n"))
    assert log.checkins[0].timestamp == 1270503000


def test_parse_naive_iso_is_utc():
    log = parse_checkins(io.StringIO("u1\t2010-04-05T21:30:00\t0\t0\tp9\n"))
    assert log.checkins[0].timestamp == 1270503000


def test_parse_empty_stream():
    log = parse_checkins(io.StringIO(""))
    assert len(log) == 0 and not checkin_users(log)


def test_coordinate_out_of_range_aborts_with_line_number():
    stream = io.StringIO("u1\t100\t95.0\t0.0\tp1\n")
    with pytest.raises(DataError, match="line 1.*out of range"):
        parse_checkins(stream)


def test_skip_mode_counts_bad_lines():
    stream = io.StringIO("u1\t100\t95.0\t0.0\tp1\nu2\t100\t1.0\t1.0\tp2\nbroken\n")
    log = parse_checkins(stream, on_error="skip")
    assert len(log) == 1
    assert log.skipped_lines == 2


def test_column_permutation():
    fmt = ColumnFormat.parse("poi,user,time,lon,lat")
    log = parse_checkins(io.StringIO("p9\tu1\t100\t-122.41\t37.77\n"), fmt)
    assert log.checkins[0] == CheckIn("u1", "p9", 100, 37.77, -122.41)


def test_bad_column_format_rejected():
    with pytest.raises(DataError):
        ColumnFormat.parse("user,time,lat,lon")


def test_parse_social_symmetric_dedup():
    parsed = parse_social(io.StringIO("u1\tu2\nu2\tu1\n"))
    assert parsed.edges == frozenset({("u1", "u2")})


def test_parse_social_self_loop_skipped():
    parsed = parse_social(io.StringIO("u1\tu1\n"))
    assert parsed.edges == frozenset()
    assert parsed.skipped == 1


def test_parse_social_three_lines():
    parsed = parse_social(io.StringIO("a\tb\nb\tc\na\tc\n"))
    assert len(parsed.edges) == 3


@pytest.mark.parametrize("parse", [parse_checkins, parse_social])
def test_unknown_on_error_rejected(parse):
    """A misspelt mode is refused, not read as ``skip``, by both parsers."""
    with pytest.raises(DataError, match="on_error"):
        parse(io.StringIO("a\tb\nnot an edge\n"), on_error="abrot")


def test_self_loop_edge_rejected_in_log():
    with pytest.raises(DataError):
        CheckInLog.from_checkins([], [("u", "u")])


def test_log_from_checkins_takes_only_validated_records():
    log = CheckInLog.from_checkins([CheckIn("u", "p", 100, 1.5, -2.5)], [("u", "v")])
    assert list(log.checkins) == [CheckIn("u", "p", 100, 1.5, -2.5)]
    assert set(log.columns.users) == {"u", "v"}
    with pytest.raises(DataError, match="CheckIn records"):
        CheckInLog.from_checkins([("u", "p", 100, 1.5, -2.5)])


def test_stats_single_user_single_poi():
    log = CheckInLog.from_checkins([CheckIn("u", "p", 100, 0.0, 0.0)])
    stats = dataset_stats(log)
    assert stats.density == 1.0
    assert stats.cold_start_ratio == 1.0
    assert stats.n_checkins == 1


def test_stats_two_users_four_pois():
    # User A visits 2 distinct POIs, user B visits 1 (4 POIs in the corpus).
    log = CheckInLog.from_checkins([
        CheckIn("a", "p1", 100, 0.0, 0.0),
        CheckIn("a", "p2", 200, 0.0, 0.0),
        CheckIn("b", "p3", 300, 0.0, 0.0),
        CheckIn("b", "p3", 400, 0.0, 0.0),
        CheckIn("a", "p4", 500, 0.0, 0.0),
        CheckIn("b", "p4", 600, 0.0, 0.0),
    ])
    stats = dataset_stats(log)
    assert stats.n_users == 2 and stats.n_pois == 4
    assert stats.density == (3 + 2) / 8
    assert stats.cold_start_ratio == 1.0


def test_stats_empty_log_errors():
    with pytest.raises(DataError, match="empty"):
        dataset_stats(CheckInLog.from_checkins([]))


def test_stats_social_only_users_counted(tiny_log):
    log = tiny_log.with_social([("ua", "ub"), ("ua", "ghost")])
    stats = dataset_stats(log)
    assert stats.n_users == 4  # ua, ub, xx plus social-only ghost


def test_avg_pois_exact(tiny_log):
    stats = dataset_stats(tiny_log)
    assert stats.avg_pois_per_user == (2 + 1 + 1) / 3


_checkin = st.builds(
    CheckIn,
    user_id=st.sampled_from(["u1", "u2", "u3"]),
    poi_id=st.sampled_from(["p1", "p2", "p3", "p4"]),
    timestamp=st.integers(min_value=1, max_value=2_000_000_000),
    lat=st.floats(min_value=-90, max_value=90, allow_nan=False),
    lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
)


@given(st.lists(_checkin, min_size=0, max_size=30))
def test_roundtrip_serialize_parse(checkins):
    log = CheckInLog.from_checkins(checkins, [("u1", "u2")] if checkins else [])
    reparsed = parse_checkins(io.StringIO(serialize_log(log)))
    reparsed = reparsed.with_social(parse_social(io.StringIO(serialize_social(log))).edges)
    assert canonical_rows(reparsed) == canonical_rows(log)


@given(st.lists(_checkin, min_size=1, max_size=30), st.randoms())
def test_stats_order_independent(checkins, rnd):
    shuffled = list(checkins)
    rnd.shuffle(shuffled)
    assert (dataset_stats(CheckInLog.from_checkins(checkins))
            == dataset_stats(CheckInLog.from_checkins(shuffled)))
