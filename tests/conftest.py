import os

import pytest
from hypothesis import settings


from matirec.ingest import CheckIn, CheckInLog

settings.register_profile("suite", max_examples=50, deadline=None)
# CI sets HYPOTHESIS_PROFILE=ci: four times the examples of a local run.
settings.register_profile("ci", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


@pytest.fixture
def tiny_log():
    """Two users, four POIs: the smallest log with non-trivial stats."""
    checkins = [
        CheckIn("ua", "p1", 1270503000, 37.77, -122.41),      # Mon 21:30 UTC
        CheckIn("ua", "p2", 1270503000 + 3600, 37.78, -122.42),
        CheckIn("ua", "p1", 1270503000 + 7200, 37.77, -122.41),
        CheckIn("ub", "p3", 1270900800, 40.0, -73.0),          # Sat 12:00 UTC
        CheckIn("xx", "p4", 1270000000, 10.0, 10.0),
    ]
    return CheckInLog.from_checkins(checkins, [("ua", "ub")])
