"""Command-line surface: bound, transducer, transform, verify, search.

Every report's format lives here: the library modules compute T_n, S_n and
the gate's values, and each cmd_* function writes them as text, CSV, DOT
or JSON.  Exit codes: 0 success, 1 verification failure, 2 input error.
Long-running commands report progress on stderr; stdout carries exactly
the report.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd
from struct import error as StructError, pack

from .bounds import check_bound, s_n_closed_form, s_n_total
from .matrices import J_MAT, L_MAT, R_MAT, Mat2, _divisors, content_gcd, det, format_mat2, parse_mat2
from .surds import PeriodicCF, cf_from_surd, format_cf, image_surd, parse_cf, per
from .transducer import build_transducer, image_repetend, search_max_ratio
from .words import format_word

_DRESS = (L_MAT, R_MAT, Mat2(1, 0, -1, 1), Mat2(1, -1, 0, 1))  # and their inverses


def _random_matrix(rng: random.Random, n: int) -> Mat2:
    """A matrix with |det| = n and content 1: a primitive Hermite form
    [[g, b], [0, d]] (g drawn from n's divisors, matrices._divisors,
    d = n/g, then b < d drawn until gcd(g, b, d) = 1, as b = 1 is) dressed
    with short unimodular words, optionally sign-flipped and
    column-swapped.  Each step keeps |det| and content, so both hold by
    construction."""
    g = rng.choice(_divisors(n))
    d = n // g
    b = rng.randrange(d)
    while gcd(g, b, d) > 1:
        b = rng.randrange(d)
    m = Mat2(g, b, 0, d)
    for _ in range(rng.randint(0, 4)):
        m = rng.choice(_DRESS) * m
    for _ in range(rng.randint(0, 4)):
        m = m * rng.choice(_DRESS)
    if rng.random() < 0.5:
        m = m * J_MAT
    if rng.random() < 0.5:
        m = Mat2(-m.a, -m.b, -m.c, -m.d)
    return m


def _random_cf(rng: random.Random, max_period: int, max_quotient: int) -> PeriodicCF:
    rep = [rng.randint(1, max_quotient) for _ in range(rng.randint(1, max_period))]
    pre = [rng.randint(1, max_quotient) for _ in range(rng.randint(0, 3))]
    if pre and rng.random() < 0.3:
        pre[0] = rng.randint(-max_quotient, max_quotient)
    return PeriodicCF.create(pre, rep)


def _same_cycle(u: tuple, v: tuple) -> bool:
    """Whether v is a rotation of u: u found in v + v at a word boundary, by
    bytes.find on 8-byte words, searched on past any match that straddles
    two words.  struct.pack writes each tuple's words in one C call; a
    quotient past 2^63 does not fit one (struct.error), and then the words
    hold each quotient's rank among u's distinct values instead, so their
    size is u's length, not its widest quotient's."""
    if len(u) != len(v):
        return False
    fmt = f"{len(u)}q"
    try:
        needle, hay = pack(fmt, *u), pack(fmt, *v)
    except StructError:
        rank = {q: i for i, q in enumerate(set(u))}
        if not rank.keys() >= set(v):
            return False
        needle, hay = (pack(fmt, *map(rank.__getitem__, w)) for w in (u, v))
    hay *= 2
    i = hay.find(needle)
    while i > 0 and i % 8:
        i = hay.find(needle, i + 1)
    return i >= 0


def _gate(m: Mat2, cf: PeriodicCF):
    """The transducer's answer for h_m(cf) checked against the oracle's:
    (the oracle's expansion, n = |det m| / content(m)^2, the |det| of m's
    primitive part, per(cf), per(h_m(cf)) by image_repetend, check_bound's
    verdict, whether the two repetends agree up to rotation)."""
    oracle = cf_from_surd(image_surd(m, cf))
    rep_hx = image_repetend(m, cf)
    n = abs(det(m)) // content_gcd(m) ** 2
    per_x = per(cf)
    verdict = check_bound(n, per_x, len(rep_hx))
    return oracle, n, per_x, len(rep_hx), verdict, _same_cycle(rep_hx, oracle.repetend)


def _render(report: dict, fmt: str) -> str:
    """The report as text, or as json.dumps(report, indent=2) writes it.
    transform and search build nonempty reports of str keys and str and
    int values, written one value at a time with the encoder's own C
    string quoting and int.__repr__, which give json.dumps's bytes; any
    other value is a TypeError."""
    if fmt != "json":
        return "\n".join(f"{k} = {v}" for k, v in report.items())
    items = []
    for k, v in report.items():
        if type(v) is str:
            v = _json_str(v)
        elif type(v) is int:
            v = int.__repr__(v)
        else:
            raise TypeError(f"cannot render {k}'s {type(v).__name__} value")
        items.append(f"{_json_str(k)}: {v}")
    return "{\n  " + ",\n  ".join(items) + "\n}"


def run_trial(args) -> dict | None:
    """One verify trial; deterministic in (seed, index). Returns a failure
    record, with a `repro` command line, or None.  A crash anywhere in the
    gate is an `error: ...` record with per_hx and oracle_per null."""
    n, seed, idx, max_period, max_quotient = args
    rng = random.Random(f"{seed}:{idx}")
    cf = _random_cf(rng, max_period, max_quotient)
    m = _random_matrix(rng, n)
    try:
        oracle, _, _, per_hx, verdict, agrees = _gate(m, cf)
    except Exception as exc:  # a crash is a failure, not an abort
        per_hx, oracle_per, verdict = None, None, f"error: {exc}"
    else:
        if agrees and verdict == "holds":
            return None
        oracle_per = per(oracle)
        if not agrees:
            verdict += "; oracle mismatch"
    # --matrix=... keeps argparse from reading a negative entry as a flag
    return {
        "index": idx,
        "matrix": format_mat2(m),
        "cf": format_cf(cf),
        "per_x": per(cf),
        "per_hx": per_hx,
        "verdict": verdict,
        "oracle_per": oracle_per,
        "repro": f'raneycf transform --matrix={format_mat2(m)} --cf "{format_cf(cf)}"',
    }


def _trials(tasks, jobs: int):
    """run_trial over the iterable tasks, in input order; in a pool of
    `jobs` processes when jobs > 1.  Both map and Pool.imap draw tasks as
    they go, so a generator of tasks is never held whole."""
    if jobs == 1:
        yield from map(run_trial, tasks)
        return
    import multiprocessing  # only --jobs > 1 pays for this import

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(run_trial, tasks, chunksize=32)


def cmd_bound(n: int, breakdown: bool = False, fmt: str = "text") -> str:
    """S_n's total, or its terms as text or JSON (--format json implies the
    breakdown)."""
    if fmt == "text" and not breakdown:
        return f"S_{n} = {s_n_total(n)}"
    bb = s_n_closed_form(n)
    if fmt == "json":
        terms = [{"t": t.t, "j": t.j, "xi": t.xi, "term": t.term} for t in bb.terms]
        return json.dumps({"n": n, "terms": terms, "total": bb.total}, indent=2)
    lines = [f"S_{n} = {bb.total}"]
    lines += (f"  t={t.t} j={t.j} xi={t.xi} term={t.term}" for t in bb.terms)
    return "\n".join(lines)


def cmd_transducer(n: int, fmt: str = "table") -> str:
    """T_n as a table, CSV, DOT or JSON, all read off one row
    (from, input, output, to) per edge in build_transducer's order.  The
    CSV goes through csv.writer, which quotes format_mat2's commas."""
    t = build_transducer(n)
    rows = [
        (format_mat2(e.src), format_word(e.input), format_word(e.output), format_mat2(e.dst))
        for e in t.edges
    ]
    if fmt == "table":
        lines = [f"T_{n}: {len(t.states)} states, {len(rows)} edges"]
        lines += (f"  {src}  --{w}|{v}-->  {dst}" for src, w, v, dst in rows)
        return "\n".join(lines)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["from", "input", "output", "to"])
        writer.writerows(rows)
        return buf.getvalue()
    states = sorted(t.states)
    if fmt == "dot":
        lines = [f"digraph T_{n} {{", "  rankdir=LR;"]
        lines += (f'  "{format_mat2(s)}";' for s in states)
        lines += (f'  "{src}" -> "{dst}" [label="{w}|{v}"];' for src, w, v, dst in rows)
        lines.append("}")
        return "\n".join(lines)
    edges = [
        {"from": list(e.src), "input": w, "output": v, "to": list(e.dst)}
        for e, (_, w, v, _) in zip(t.edges, rows)
    ]
    return json.dumps({"n": n, "states": [list(s) for s in states], "edges": edges}, indent=2)


def cmd_transform(m: Mat2, cf: PeriodicCF, fmt: str = "text") -> tuple[str, int]:
    result_cf, n, per_x, per_hx, verdict, agrees = _gate(m, cf)
    if not agrees:
        print(f"transducer repetend (period {per_hx}) disagrees with oracle's"
              f" (period {per(result_cf)})", file=sys.stderr)
    report = {
        "result_cf": format_cf(result_cf),
        "per_x": per_x,
        "per_hx": per_hx,
        "S_n": s_n_total(n),
        "verdict": verdict,
    }
    return _render(report, fmt), 0 if agrees else 1


def cmd_verify(
    n: int,
    samples: int = 100,
    seed: int = 0,
    max_period: int = 8,
    max_quotient: int = 50,
    jobs: int = 1,
) -> tuple[str, int]:
    t0 = time.monotonic()
    jobs = min(jobs, os.cpu_count() or 1)
    tasks = ((n, seed, i, max_period, max_quotient) for i in range(samples))
    failures = []
    tick = max(1, samples // 10)
    for i, record in enumerate(_trials(tasks, jobs), 1):
        if record is not None:
            failures.append(record)
        if i % tick == 0:
            print(f"verify n={n}: {i}/{samples}", file=sys.stderr)
    report = {
        "n": n,
        "samples": samples,
        "seed": seed,
        "failures": failures,
        "elapsed": round(time.monotonic() - t0, 3),
    }
    return json.dumps(report, indent=2), (1 if failures else 0)


def cmd_search(n: int, cf: PeriodicCF, fmt: str = "text") -> str:
    ratio, state, offset = search_max_ratio(n, cf)
    report = {
        "best_ratio": str(ratio),
        "witness_state": format_mat2(state),
        "witness_offset": offset,
    }
    return _render(report, fmt)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="raneycf",
        description="Periods of continued fractions under Moebius transformations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="compute the period bound S_n")
    b.add_argument("n", type=int)
    b.add_argument("--breakdown", action="store_true")
    b.add_argument("--format", choices=["text", "json"], default="text")

    t = sub.add_parser("transducer", help="print or export T_n")
    t.add_argument("n", type=int)
    t.add_argument("--format", choices=["table", "dot", "csv", "json"], default="table")

    tr = sub.add_parser("transform", help="apply a Moebius map to a periodic CF")
    tr.add_argument("--matrix", required=True, help='matrix "a,b,c,d"')
    tr.add_argument("--cf", required=True, help='continued fraction "[p0,...;r0,...]"')
    tr.add_argument("--format", choices=["text", "json"], default="text")

    v = sub.add_parser("verify", help="randomized transducer-vs-oracle verification")
    v.add_argument("n", type=int)
    v.add_argument("--samples", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-period", type=int, default=8)
    v.add_argument("--max-quotient", type=int, default=50)
    v.add_argument("--jobs", type=int, default=1)

    s = sub.add_parser("search", help="max period ratio over start states and rotations")
    s.add_argument("n", type=int)
    s.add_argument("--cf", required=True)
    s.add_argument("--format", choices=["text", "json"], default="text")
    return p


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact quotients of any size parse and print
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", 1) < 1:
        parser.error("n must be >= 1")
    try:
        if args.command == "bound":
            text, status = cmd_bound(args.n, args.breakdown, args.format), 0
        elif args.command == "transducer":
            text, status = cmd_transducer(args.n, args.format), 0
        elif args.command == "transform":
            m = parse_mat2(args.matrix)
            if det(m) == 0:
                parser.error("matrix must be nonsingular")
            text, status = cmd_transform(m, parse_cf(args.cf), args.format)
        elif args.command == "verify":
            if min(args.samples, args.max_period, args.max_quotient, args.jobs) < 1:
                parser.error("samples, max-period, max-quotient and jobs must be >= 1")
            text, status = cmd_verify(
                args.n, args.samples, args.seed,
                args.max_period, args.max_quotient, args.jobs,
            )
        else:
            text, status = cmd_search(args.n, parse_cf(args.cf), args.format), 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text.rstrip("\n"))  # every format ends in exactly one newline
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`): the report's status stands.
        # Python flushes stdout again at exit, so point it at devnull first
        # (the recipe in the docs of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
