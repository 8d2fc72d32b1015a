"""One benchmark process: set up, check the anchors, run one workload and
print its figures as one JSON line.

run.py starts a fresh process for each set-up and for the measured run, so
that ru_maxrss belongs to one workload alone.  The run is a closed loop with
one client and no threads: each operation starts when the last one ends.  It
runs whole passes over the workload's operations until --seconds have gone.

With --trace 1 every operation runs twice in a row, as the CLI call and as
the same public calls timed one by one from outside, alternating which goes
first; the per-layer figures are per pass, and the difference between the
two runs' time is the tracing overhead.
"""
import argparse
import csv
import functools
import gc
import json
import resource
import statistics
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

from raneycf import bounds, cli, matrices, surds, transducer, words  # noqa: E402
from raneycf.matrices import Mat2, format_mat2  # noqa: E402
from raneycf.surds import format_cf, parse_cf  # noqa: E402

from inputs import WORKLOADS, make_ops  # noqa: E402
from measure import (  # noqa: E402
    Spans, at_reference_speed, normalise, percentile, reference_s, self_times, shares, tail_percentile,
)

# A pass that has not ended after this long is cut, so that a run ends
# within three minutes even on a much slower program.
MAX_RUN_S = 120.0

# Op CPU time between two samples of the reference clock: about 4% of the
# run goes to reference_work().
REF_EVERY_S = 0.025
# Reference samples taken at the end of a set-up.
SETUP_REFS = 7

LAYERS = (
    "surds.surd_from_cf",
    "surds.apply_mobius",
    "surds.cf_from_surd",
    "transducer.reduce_to_DB",
    "transducer.transduce_cycle",
    "transducer.lr_cycle_to_period",
    "transducer.search_max_ratio",
    "matrices.enumerate_DB",
    "bounds.s_n_closed_form",
    "bounds.check_bound",
)

# Counts summed (or, for *_max, maximised) over the traced ops.  root_runs
# only feeds lr_cycle_to_period.useful_ratio.
COUNTS = (
    "transducer.transduce_cycle.gamma_sum",
    "transducer.transduce_cycle.gamma_max",
    "transducer.transduce_cycle.input_letters",
    "transducer.transduce_cycle.output_runs",
    "root_runs",
    "transducer.reduce_to_DB.tail_letters",
    "surds.cf_from_surd.quotients",
    "surds.apply_mobius.disc_bits_max",
    "matrices.enumerate_DB.states",
    "transducer.search_max_ratio.pairs",
)

_CACHE_CLEARS = [
    obj.cache_clear
    for mod in (words, matrices, surds, transducer, bounds, cli)
    for obj in vars(mod).values()
    if callable(getattr(obj, "cache_clear", None))
]


def cold_start():
    """Drop the memos of raneycf's functions, as a fresh `raneycf search`
    process starts without them (enumerate_DB is memoised)."""
    for clear in _CACHE_CLEARS:
        clear()


def check_anchors():
    """Known values, checked once per process; they also warm up every layer
    before timing starts."""
    wrong = []
    if bounds.s_n_closed_form(7).total != 24:
        wrong.append("S_7 != 24")
    text, status = cli.cmd_transform(Mat2(12, 1, 17, 2), parse_cf("[;3]"), "json")
    if status or json.loads(text)["per_hx"] != 6:
        wrong.append("transform 12,1,17,2 [;3]: per_hx != 6")
    if json.loads(cli.cmd_search(9, parse_cf("[;4696]"), "json"))["best_ratio"] != "36":
        wrong.append("search 9 [;4696]: best_ratio != 36")
    if wrong:
        raise SystemExit("anchor check failed: " + "; ".join(wrong))


# --- transform ---------------------------------------------------------------


def transform(op):
    m, cf = op
    return cli.cmd_transform(m, cf, "json")


def check_transform(op, out):
    text, status = out
    report = json.loads(text)
    return status == 0 and report["verdict"] == "holds", report["per_hx"]


def traced_transform(spans, op, counts):
    """cmd_transform's public calls in its order, image_period split into its
    three stages."""
    m, cf = op

    def body():
        n = abs(matrices.det(m)) // matrices.content_gcd(m) ** 2
        y = spans.call("surds.surd_from_cf", surds.surd_from_cf, cf)
        hy = spans.call("surds.apply_mobius", surds.apply_mobius, m, y)
        result_cf = spans.call("surds.cf_from_surd", surds.cf_from_surd, hy)
        per_x = surds.per(cf)
        state, tail, _ = spans.call("transducer.reduce_to_DB", transducer.reduce_to_DB, m, cf)
        walk = spans.call(
            "transducer.transduce_cycle", transducer.transduce_cycle, matrices.det(state), state, tail
        )
        per_hx = spans.call("transducer.lr_cycle_to_period", transducer.lr_cycle_to_period, walk.output)
        s_n = spans.call("bounds.s_n_closed_form", bounds.s_n_closed_form, n).total
        verdict = spans.call("bounds.check_bound", bounds.check_bound, n, per_x, per_hx)
        status = 0 if per_hx == surds.per(result_cf) else 1
        report = {
            "result_cf": format_cf(result_cf),
            "per_x": per_x,
            "per_hx": per_hx,
            "S_n": s_n,
            "verdict": verdict,
        }
        return (json.dumps(report, indent=2), status), hy, result_cf, tail, walk

    out, hy, result_cf, tail, walk = spans.op(body)
    output_runs = len(walk.output.runs)
    counts["transducer.transduce_cycle.gamma_sum"] += walk.gamma
    counts["transducer.transduce_cycle.gamma_max"] = max(counts["transducer.transduce_cycle.gamma_max"], walk.gamma)
    counts["transducer.transduce_cycle.input_letters"] += len(walk.input)
    counts["transducer.transduce_cycle.output_runs"] += output_runs
    counts["root_runs"] += len(words.primitive_root(walk.output)[0].runs)
    counts["transducer.reduce_to_DB.tail_letters"] += len(tail)
    counts["surds.cf_from_surd.quotients"] += len(result_cf.preperiod) + len(result_cf.repetend)
    counts["surds.apply_mobius.disc_bits_max"] = max(counts["surds.apply_mobius.disc_bits_max"], hy.D.bit_length())
    return out


# --- search ------------------------------------------------------------------


def search(op):
    n, cf = op
    return cli.cmd_search(n, cf, "json")


@functools.cache
def s_n(n):
    return bounds.s_n_closed_form(n).total


def check_search(op, out):
    s = s_n(op[0])
    ratio = Fraction(json.loads(out)["best_ratio"])
    return Fraction(1, s) <= ratio <= s, ratio


def traced_search(spans, op, counts):
    """cmd_search's work with enumerate_DB, which search_max_ratio calls
    first, timed on its own."""
    n, cf = op

    def body():
        db = spans.call("matrices.enumerate_DB", matrices.enumerate_DB, n)
        ratio, state, offset = spans.call("transducer.search_max_ratio", transducer.search_max_ratio, n, cf)
        report = {"best_ratio": str(ratio), "witness_state": format_mat2(state), "witness_offset": offset}
        return json.dumps(report, indent=2), len(db)

    out, states = spans.op(body)
    counts["matrices.enumerate_DB.states"] += states
    counts["transducer.search_max_ratio.pairs"] += states * len(transducer.lr_repetend(cf))
    return out


KINDS = {
    "transform": (transform, check_transform, traced_transform, lambda: None),
    "search": (search, check_search, traced_search, cold_start),
}


def repro(kind, op):
    if kind == "transform":
        return f'raneycf transform --matrix={format_mat2(op[0])} --cf="{format_cf(op[1])}"'
    return f'raneycf search {op[0]} --cf="{format_cf(op[1])}"'


class Loop:
    """Whole passes over `ops`, at least `min_passes`, until `seconds` have
    gone; cut short after MAX_RUN_S."""

    def __init__(self, kind, ops, seconds, min_passes=1):
        self.kind, self.ops, self.seconds, self.min_passes = kind, ops, seconds, min_passes
        self.failed = 0
        self.done = 0

    def __iter__(self):
        start = time.perf_counter()
        while True:
            for op in self.ops:
                yield op
                self.done += 1
                if time.perf_counter() - start > MAX_RUN_S:
                    print(f"run cut after {self.done} ops", file=sys.stderr)
                    return
            if self.done >= self.min_passes * len(self.ops) and time.perf_counter() - start >= self.seconds:
                return
            # The ops leave reference cycles, which pile up between CPython's
            # rare full collections; collect them outside the timed ops, so
            # that peak_rss_mb is one pass's peak, not a function of how
            # many passes the run made.
            gc.collect()

    def fail(self, op, why):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED ({why}): {repro(self.kind, op)}", file=sys.stderr)

    @property
    def passes(self):
        return self.done / len(self.ops)


def attempt(run, check, op):
    """Run and check one op: (CPU seconds, wall seconds, checked value,
    None), or (CPU seconds, wall seconds, None, why it failed)."""
    c, t = time.thread_time(), time.perf_counter()
    try:
        out = run(op)
    except Exception as exc:  # a raising op is a failed op, not an abort
        return time.thread_time() - c, time.perf_counter() - t, None, f"{type(exc).__name__}: {exc}"
    cpu, wall = time.thread_time() - c, time.perf_counter() - t
    ok, value = check(op, out)
    return (cpu, wall, value, None) if ok else (cpu, wall, None, "check")


def timed_run(kind, ops, seconds):
    """End-to-end figures from each input's median over the passes, in
    reference time.

    Each op is timed by the thread's CPU clock, which leaves out the time
    the hypervisor takes the vCPU away.  On the shared 2-vCPU host where the
    benchmark was built, one op's CPU time still moved by up to two times
    within minutes with the host's load, and reference_work() moved with it.
    So the run times reference_work() after every REF_EVERY_S of op time and
    scales each op by the two reference samples around it.  CPU and wall
    figures are in the details."""
    run, check, _, prepare = KINDS[kind]
    loop = Loop(kind, ops, seconds, min_passes=3)
    # flat arrays, sample i of input i % len(ops), so that the bookkeeping
    # adds little to peak_rss_mb however many ops a run completes
    cpu_s, wall_s, segment = array("d"), array("d"), array("l")
    refs = [reference_s()]
    since = 0.0
    for op in loop:
        prepare()
        cpu, wall, _, why = attempt(run, check, op)
        if why:
            loop.fail(op, why)
        cpu_s.append(cpu)
        wall_s.append(wall)
        segment.append(len(refs) - 1)
        since += cpu
        if since >= REF_EVERY_S:
            refs.append(reference_s())
            since = 0.0
    refs.append(reference_s())
    n = len(ops)
    med = [statistics.median(t) for t in normalise(cpu_s, segment, refs, n) if t]
    cpu_med = [statistics.median(cpu_s[k::n]) for k in range(min(n, len(cpu_s)))]
    wall_med = [statistics.median(wall_s[k::n]) for k in range(min(n, len(wall_s)))]
    tail_p = tail_percentile(len(med))
    values = {
        "ops_per_s": len(med) / sum(med),
        "latency_p50_ms": statistics.median(med) * 1e3,
        "latency_tail_ms": percentile(med, tail_p) * 1e3,
    }
    details = {
        "tail_percentile": tail_p,
        "distinct_inputs": len(med),
        "samples": loop.done,
        "reference_samples": len(refs),
        "reference_ms_median": statistics.median(refs) * 1e3,
        "cpu_ops_per_s": len(cpu_med) / sum(cpu_med),
        "cpu_latency_p50_ms": statistics.median(cpu_med) * 1e3,
        "wall_ops_per_s": len(wall_med) / sum(wall_med),
        "wall_latency_p50_ms": statistics.median(wall_med) * 1e3,
        "cpu_over_wall": sum(cpu_s) / sum(wall_s),
    }
    return loop, values, details


def traced_run(kind, ops, seconds, spans_path):
    run, check, traced, prepare = KINDS[kind]
    loop = Loop(kind, ops, seconds)
    spans = Spans()
    counts = dict.fromkeys(COUNTS, 0)
    untraced_s = 0.0
    for op in loop:
        outcome = {}
        # alternate which of the two runs goes first, so that neither gains
        # from the other having warmed the allocator
        for is_traced in (False, True) if loop.done % 2 == 0 else (True, False):
            prepare()
            fn = (lambda o: traced(spans, o, counts)) if is_traced else run
            outcome[is_traced] = attempt(fn, check, op)
        (elapsed, _, expected, why), (_, _, value, traced_why) = outcome[False], outcome[True]
        untraced_s += elapsed
        why = why or traced_why
        if why is None and value != expected:
            why = f"traced pipeline gave {value}, the CLI call {expected}"
        if why:
            loop.fail(op, why)
    selfs = self_times(spans.rows)
    share = shares(selfs)
    passes = loop.passes
    values = {}
    for layer in LAYERS:
        ns, calls = selfs.get(layer, (0, 0))
        values[f"{layer}.busy_s"] = ns / 1e9 / passes
        values[f"{layer}.share"] = share.get(layer, 0.0)
        values[f"{layer}.calls"] = calls / passes
    root_runs = counts.pop("root_runs")
    for name, total in counts.items():
        values[name] = total if name.endswith("_max") else total / passes
    runs = counts["transducer.transduce_cycle.output_runs"]
    values["transducer.lr_cycle_to_period.useful_ratio"] = root_runs / runs if runs else 0.0
    values["trace.covered_share"] = sum(share.get(layer, 0.0) for layer in LAYERS)
    traced_s = sum(end - start for name, start, end, _ in spans.rows if name == Spans.ROOT) / 1e9
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    write_spans(spans, spans_path)
    return loop, values, {"passes": passes, "spans": len(spans.rows), "spans_file": str(spans_path.relative_to(ROOT))}


def write_spans(spans, path):
    path.parent.mkdir(exist_ok=True)
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["name", "start_ns", "end_ns", "op_id"])
        w.writerows(spans.rows)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    ops = make_ops(w, args.seed)
    check_anchors()
    # the process's CPU time so far (interpreter start, imports, inputs and
    # anchors) in reference time, like the ops
    setup_cpu_s = time.process_time()
    setup_s = at_reference_speed(setup_cpu_s, statistics.median(reference_s() for _ in range(SETUP_REFS)))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
        return 0

    if args.trace:
        spans_path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.csv"
        loop, values, details = traced_run(w.kind, ops, args.seconds, spans_path)
    else:
        loop, values, details = timed_run(w.kind, ops, args.seconds)
    values["setup_s"] = setup_s
    details["setup_cpu_s"] = setup_cpu_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details["passes"] = loop.passes
    print(json.dumps({"attempted": loop.done, "failed": loop.failed, "values": values, "details": details}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
