"""The benchmark's own arithmetic, kept in one place and checked on fixed
inputs by self_check() at the start of every run (and by running this file).

- medians and quartiles use statistics.quantiles(n=4), the same call the
  spread check over repeated runs uses;
- latency percentiles are nearest-rank over every attempted request, and a
  request that was refused, failed, wrong or never answered counts as
  missing any limit (it sorts after every answered one);
- the tail reported for a sample is the highest standard percentile that
  still has at least ten samples beyond it;
- fail_frac is (busy + error + dropped + wrong) / attempted.
"""

import math
import statistics
import sys

# A request that did not come back OK: sorts after every real latency.
MISSED = math.inf

TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9, 99.99)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, p):
    """Nearest-rank percentile, p in [0, 100]; MISSED entries sort last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_percentile(n):
    """Highest candidate percentile with at least ten of n samples beyond it,
    or None when even the median has fewer than ten beyond it."""
    best = None
    for p in TAIL_CANDIDATES:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def fail_frac(counts):
    """counts: dict with attempted, busy, error, dropped, wrong."""
    attempted = counts["attempted"]
    if attempted <= 0:
        raise ValueError("fail_frac needs at least one attempted request")
    failed = counts["busy"] + counts["error"] + counts["dropped"] + counts["wrong"]
    return failed / attempted


def latencies(raw_ms):
    """Client latency list as printed by `perfbench load` (-1 = not OK)."""
    return [MISSED if x < 0 else x for x in raw_ms]


def self_check():
    """Returns a list of failures; empty when the arithmetic is right."""
    bad = []

    def expect(name, got, want, tol=1e-9):
        same = (got is None and want is None) or (
            got is not None and want is not None
            and (got == want or abs(got - want) <= tol * max(1.0, abs(want))))
        if not same:
            bad.append(f"{name}: got {got!r}, want {want!r}")

    ten = [float(v) for v in range(1, 11)]
    expect("median even", median(ten), 5.5)
    expect("median odd", median([3.0, 1.0, 2.0]), 2.0)
    # statistics.quantiles default ('exclusive') on 1..10: 2.75, 5.5, 8.25.
    q1, q2, q3 = quartiles(ten)
    expect("q1", q1, 2.75)
    expect("q2", q2, 5.5)
    expect("q3", q3, 8.25)
    expect("spread", spread(ten), (8.25 - 2.75) / 5.5)
    expect("spread single", spread([4.0]), 0.0)

    hundred = [float(v) for v in range(1, 101)]
    expect("p50 nearest rank", percentile(hundred, 50), 50.0)
    expect("p99 nearest rank", percentile(hundred, 99), 99.0)
    expect("p100", percentile(hundred, 100), 100.0)
    expect("p0 clamps to min", percentile(hundred, 0), 1.0)
    # A missed request sorts last, so it is the tail, never the median.
    with_miss = latencies([1.0, 2.0, -1.0, 3.0])
    expect("missed is max", percentile(with_miss, 100), MISSED)
    expect("missed median", percentile(with_miss, 50), 2.0)
    # Two misses in 100 push p99 past every answered request.
    expect("p99 with 2% missed",
           percentile(latencies([1.0] * 98 + [-1.0, -1.0]), 99), MISSED)

    expect("tail of 9", tail_percentile(9), None)
    expect("tail of 20", tail_percentile(20), 50.0)
    expect("tail of 100", tail_percentile(100), 90.0)
    expect("tail of 999", tail_percentile(999), 90.0)
    expect("tail of 1000", tail_percentile(1000), 99.0)
    expect("tail of 10000", tail_percentile(10000), 99.9)

    expect("fail_frac none",
           fail_frac(dict(attempted=300, busy=0, error=0, dropped=0, wrong=0)), 0.0)
    expect("fail_frac all kinds",
           fail_frac(dict(attempted=200, busy=3, error=1, dropped=2, wrong=4)), 0.05)
    try:
        fail_frac(dict(attempted=0, busy=0, error=0, dropped=0, wrong=0))
        bad.append("fail_frac accepted zero attempts")
    except ValueError:
        pass
    return bad


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print("FAIL", line)
    print("stats self-check:", "ok" if not failures else f"{len(failures)} failures")
    sys.exit(1 if failures else 0)
