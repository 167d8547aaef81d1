"""Calendar arithmetic on epoch timestamps under a fixed dataset UTC offset.

All timestamps are stored as UTC epoch seconds.  Hour-of-day and day-of-week
semantics need local time, so every helper takes the dataset-level offset in
seconds (a single offset per corpus; no per-event time zones).  Every helper
works elementwise on int64 arrays; a Python int gives a Python int (or bool).
"""

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400

# 1970-01-01 was a Thursday; shift so that Monday == 0.
_EPOCH_WEEKDAY = 3


def local_hour(timestamp, offset: int = 0):
    """Hour of day in [0, 24) at the given offset."""
    return (timestamp + offset) % SECONDS_PER_DAY // SECONDS_PER_HOUR


def local_weekday(timestamp, offset: int = 0):
    """Day of week at the given offset: 0=Monday .. 6=Sunday."""
    days = (timestamp + offset) // SECONDS_PER_DAY
    return (days + _EPOCH_WEEKDAY) % 7


def is_weekend(timestamp, offset: int = 0):
    """True for Saturday and Sunday at the given offset."""
    return local_weekday(timestamp, offset) >= 5
