"""Summary statistics and accounting shared by every workload.

Only the standard library is used, so the helpers run (and are tested)
without importing the package under test.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, q):
    """The *q*-th percentile (0..100) by linear interpolation between
    the closest ranks, the same rule as NumPy's default."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must lie in [0, 100], got %r" % q)
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def best_per_unit(rounds):
    """Each unit's fastest time over several rounds.

    *rounds* holds one list of unit times per round, units in the same
    order every round.  Contention from other tenants of a shared host
    only ever adds time, so the fastest of a few rounds is the steadiest
    estimate of what a unit costs."""
    if not rounds or len({len(times) for times in rounds}) != 1:
        raise ValueError("rounds must be non-empty and of equal length")
    return [min(times) for times in zip(*rounds)]


def spread(values):
    """Inter-quartile distance as a share of the median, with quartiles
    from ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    centre = median(values)
    if centre == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(centre)


class Tally:
    """Attempted/failed accounting for one run.

    Every operation the benchmark checks is recorded once, as passed or
    failed with a reason; ``fail_share`` is failed over attempted.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: reason -> count, for the human-readable report
        self.reasons = {}

    def ok(self, count=1):
        self.attempted += count

    def fail(self, reason, count=1):
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def check(self, passed, reason):
        """Record one operation that passed iff *passed*."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    @property
    def fail_share(self):
        return self.failed / self.attempted if self.attempted else 1.0


def serve_outcome(event, expected):
    """Classify one serve job: ``"ok"`` or the failure reason.

    *event* is the job's terminal event (None when it never arrived);
    *expected* is ``{"cycles": int, "digest": str}``.  A rejected job,
    a deadline or any other error, a missing event and a result whose
    cycles or digest differ from the expected ones all count as failed.
    """
    if event is None:
        return "missing"
    kind = event.get("event")
    if kind == "rejected":
        return "rejected"
    if kind == "error":
        return "deadline" if event.get("category") == "deadline" else "error"
    if kind != "result":
        return "unexpected-%s" % kind
    if event.get("cycles") != expected["cycles"]:
        return "cycles-mismatch"
    if event.get("digest") != expected["digest"]:
        return "digest-mismatch"
    return "ok"


def layer_coverage(layers, wall):
    """Share of *wall* seconds the named *layers* account for, and the
    unattributed remainder in seconds."""
    attributed = sum(layers.values())
    if wall <= 0:
        raise ValueError("traced wall time must be positive")
    return attributed / wall, wall - attributed


#: the layer table must account for at least this share of traced wall time
MIN_COVERAGE = 0.95


def compare_expected(observed, expected):
    """Keys whose observed value differs from the expected one, plus
    expected keys never observed (sorted)."""
    wrong = [key for key, value in observed.items()
             if expected.get(key) != value]
    missing = [key for key in expected if key not in observed]
    return sorted(wrong), sorted(missing)
