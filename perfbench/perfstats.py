"""The benchmark's own arithmetic: order statistics, self time, failure share,
host factors and run-to-run spread. Kept free of I/O so test_perfstats.py
can check it."""

import collections
import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it; with fewer, the value is one or two outliers, not a distribution.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def nearest_rank(values, p):
    """The p-th percentile (0 < p < 100) as an exact order statistic: the
    ceil(p/100 * n)-th smallest sample, never an interpolation. Refused
    unless MIN_BEYOND samples lie beyond that rank, so a median needs 20
    samples and a p90 needs 100."""
    if not 0 < p < 100:
        raise ValueError("percentile must be in (0, 100)")
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(f"p{p:g} of {n} samples leaves {n - rank} beyond it (< {MIN_BEYOND})")
    return sorted(values)[rank - 1]


def median_or_zero(values):
    """Median of a per-layer sample set by the middle order statistic, or
    0 when the layer did no work (a layer metric has no sample-count floor:
    one register still has one matcher time)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[(len(s) - 1) // 2]


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """A span's duration minus the part of it its children cover (children
    clipped to the span, overlaps among them counted once)."""
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)


def failure_share(failed, attempted):
    """Failed requests as a share of those attempted; a run that attempted
    nothing has failed outright."""
    if attempted <= 0:
        return 1.0
    if not 0 <= failed <= attempted:
        raise ValueError("failed must be within [0, attempted]")
    return failed / attempted


def cost_classes(samples, min_margin=0.05):
    """Do the p50 and p90 order statistics of one op sit inside one cost
    class, away from its edges? `samples` are (latency, label) pairs; n of
    them need n >= 100. Labels whose interquartile latency ranges overlap
    cost the same and form one class: only gaps between classes matter.
    Classes are ordered by their median latency. A percentile's class is
    the most common class among the samples within 1% of n ranks of it. In
    the sorted samples, a class's edges are the ranks of its 5th- and
    95th-percentile members, so that stragglers (a fast request caught in a
    host stall) do not move them. The p50 margin is the rank distance, as a
    share of n, from the highest upper edge of the classes faster than the
    p50's class up to the p50 rank; the p90 margin runs from the p90 rank
    up to the lowest lower edge of the slower classes (to n + 1 when there
    is none). A margin is negative when its percentile sits where classes
    overlap."""
    samples = sorted(samples)
    n = len(samples)
    if n < 100:
        return None

    def at(v, q):  # nearest-rank quantile of a sorted list
        return v[max(1, math.ceil(q * len(v))) - 1]

    lats = {}
    for lat, c in samples:
        lats.setdefault(c, []).append(lat)
    groups = []  # [labels, highest Q3 among them], by lowest Q1
    for c in sorted(lats, key=lambda c: at(lats[c], 0.25)):
        if groups and at(lats[c], 0.25) <= groups[-1][1]:
            groups[-1][0].append(c)
            groups[-1][1] = max(groups[-1][1], at(lats[c], 0.75))
        else:
            groups.append([[c], at(lats[c], 0.75)])
    name = {c: "|".join(sorted(g)) for g, _ in groups for c in g}
    labels = [name[c] for _, c in samples]

    def class_at(rank):
        w = max(1, n // 100)
        near = collections.Counter(labels[max(0, rank - 1 - w):rank + w])
        return near.most_common(1)[0][0]

    r50, r90 = math.ceil(0.5 * n), math.ceil(0.9 * n)
    c50, c90 = class_at(r50), class_at(r90)
    ranks, lats = {}, {}
    for r, ((lat, _), c) in enumerate(zip(samples, labels), 1):
        ranks.setdefault(c, []).append(r)
        lats.setdefault(c, []).append(lat)
    median = {c: at(v, 0.5) for c, v in lats.items()}
    below = r50 - max([at(rs, 0.95) for c, rs in ranks.items() if median[c] < median[c50]],
                      default=0)
    above = min([at(rs, 0.05) for c, rs in ranks.items() if median[c] > median[c90]],
                default=n + 1) - r90
    return {"p50_class": c50, "p90_class": c90, "p50_margin": below / n,
            "p90_margin": above / n, "classes": {c: len(rs) for c, rs in sorted(ranks.items())},
            "one_class": c50 == c90 and min(below, above) >= min_margin * n}


# A host factor needs this many reference bursts: fewer leave the median
# to one stall.
MIN_BURSTS = 10


def host_factor(burst_ns, nominal_ns):
    """How much slower than nominal the host ran: the median time of the
    reference bursts over their nominal time."""
    if len(burst_ns) < MIN_BURSTS:
        raise ValueError(f"{len(burst_ns)} reference bursts (< {MIN_BURSTS})")
    return statistics.median(burst_ns) / nominal_ns


def host_factors(burst_ns, nominal_ns, k):
    """Burst i follows chunk i: chunk i's host factor is the median of the
    2k + 1 bursts centred on it (shifted inwards at the ends) over their
    nominal time."""
    host_factor(burst_ns, nominal_ns)  # enough bursts at all
    n, width = len(burst_ns), 2 * k + 1
    out = []
    for i in range(n):
        lo = max(0, min(i - k, n - width))
        out.append(statistics.median(burst_ns[lo:lo + width]) / nominal_ns)
    return out


def quartile_spread(values):
    """(Q3 - Q1) / median with Python's default quantile method: the
    run-to-run spread the benchmark's bounds are checked against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
