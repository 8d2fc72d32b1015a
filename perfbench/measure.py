"""Latency percentiles, the reference clock and the span arithmetic of the
traced run."""
from __future__ import annotations

import math
from fractions import Fraction
from time import thread_time, thread_time_ns

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10


def tail_percentile(distinct: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of `distinct`
    samples beyond it.  Counted over distinct inputs (one pass), since ten
    repeats of one slow input are not ten samples of the tail."""
    best = None
    for p in TAIL_LADDER:
        if distinct * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            best = p
    if best is None:
        raise ValueError(f"{distinct} samples leave none with {TAIL_BEYOND} beyond the median")
    return best


def reference_work():
    """A fixed pure-Python workload that does not use raneycf, in three
    parts of about equal time, one for each kind of work raneycf's layers
    do: interpreted small-int arithmetic with tuples, a dict and Fractions;
    rotating and splicing a tuple of 400 runs, as the word code does; and
    floor square roots and divisions of 2000-bit integers, as the surd
    oracle does.  It takes about 1 ms of CPU on the host where the
    benchmark was built.  Changing it changes the unit of every end-to-end
    time the benchmark reports."""
    seen = {}
    acc = 0
    for i in range(500):
        a, b = divmod(i * 7919 + 13, 97)
        key = (a, b, i & 7)
        seen[key] = seen.get(key, 0) + 1
        acc += math.gcd(a * b + 1, i + 3)
    f = Fraction(0)
    for k in range(1, 20):
        f += Fraction(1, k)

    runs = tuple((i & 1, i % 7 + 1) for i in range(400))
    for j in range(1, 36):
        rot = runs[j:] + runs[:j]
        merged = rot[:200] + ((rot[200][0], rot[200][1] + rot[201][1]),) + rot[202:]
        acc += all(merged[i][1] == merged[i + 100][1] for i in range(30))

    D = 7**700 + 12345
    P, Q = 3**300, 5**200
    for _ in range(34):
        a = (P + math.isqrt(D)) // Q
        P = a * Q - P
        Q = (D - P * P) // Q or 1
        acc ^= a & 0xFFFF
    return acc, len(seen), f


def reference_s() -> float:
    """CPU seconds of one reference_work() call."""
    t0 = thread_time()
    reference_work()
    return thread_time() - t0


# End-to-end times are reported in reference time: CPU time scaled to the
# speed at which reference_work() takes exactly this long.
REF_S = 1e-3


def at_reference_speed(cpu_s: float, ref_s: float) -> float:
    """`cpu_s` measured while reference_work() took `ref_s`, in reference
    time."""
    return cpu_s * REF_S / ref_s


def normalise(cpu_s, segment, refs, inputs: int) -> list[list[float]]:
    """Per input, its samples in reference time.  Sample i is of input
    i % inputs and took cpu_s[i] seconds; it ran between the reference
    samples refs[j] and refs[j + 1], j = segment[i], and is scaled by their
    mean."""
    out = [[] for _ in range(inputs)]
    for i, (cpu, j) in enumerate(zip(cpu_s, segment)):
        out[i % inputs].append(at_reference_speed(cpu, (refs[j] + refs[j + 1]) / 2))
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Spans:
    """In-memory spans (name, start_ns, end_ns, op_id).  Each op has one root
    span named ROOT; the layer spans of that op lie inside it.  Times are
    the thread's CPU clock, as in the untraced run, so that time spent
    waiting for a core on a shared host counts toward no layer."""

    ROOT = "op"

    def __init__(self):
        self.rows: list[tuple[str, int, int, int]] = []
        self.op_id = 0

    def call(self, name, fn, *args):
        """Run fn(*args) as a span of the current op."""
        t0 = thread_time_ns()
        result = fn(*args)
        self.rows.append((name, t0, thread_time_ns(), self.op_id))
        return result

    def op(self, fn, *args):
        """Run fn(*args) as the root span of a new op."""
        self.op_id += 1
        return self.call(self.ROOT, fn, *args)


def self_times(rows) -> dict[str, tuple[int, int]]:
    """name -> (self time in ns, calls).  A span's self time is its duration
    minus the part of it that its child spans cover.  Layer spans are the
    leaves, children of their op's root span."""
    roots: dict[int, tuple[int, int]] = {}
    leaves: dict[int, list[tuple[int, int]]] = {}
    out: dict[str, list[int]] = {}

    def add(name, ns):
        acc = out.setdefault(name, [0, 0])
        acc[0] += ns
        acc[1] += 1

    for name, start, end, op in rows:
        if name == Spans.ROOT:
            roots[op] = (start, end)
        else:
            leaves.setdefault(op, []).append((start, end))
            add(name, end - start)
    for op, (start, end) in roots.items():
        covered, reach = 0, start
        for s, e in sorted(leaves.get(op, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        add(Spans.ROOT, end - start - covered)
    return {name: (ns, calls) for name, (ns, calls) in out.items()}


def shares(selfs: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Each span name's self time as a share of all root-span time (the sum
    of every self time, since each leaf lies inside its root)."""
    total = sum(t for t, _ in selfs.values())
    if total <= 0:
        raise ValueError("no root span time")
    return {name: t / total for name, (t, _) in selfs.items()}
