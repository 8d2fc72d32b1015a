"""Command-line surface: bound, transducer, transform, verify, search.

Exit codes: 0 success, 1 verification failure, 2 input error.  Long-running
commands report progress on stderr; stdout carries exactly the report.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from array import array

from .bounds import breakdown_to_json, check_bound, s_n_closed_form, s_n_total
from .matrices import (
    J_MAT,
    Mat2,
    _enumerate_DB,
    content_gcd,
    det,
    format_mat2,
    parse_mat2,
    primitive_part,
)
from .surds import (
    PeriodicCF,
    apply_mobius,
    cf_from_surd,
    format_cf,
    parse_cf,
    per,
    surd_from_cf,
)
from .transducer import (
    build_transducer,
    image_repetend,
    search_max_ratio,
    to_csv,
    to_dot,
    to_json,
)
from .words import format_word

_L_INV = Mat2(1, 0, -1, 1)
_R_INV = Mat2(1, -1, 0, 1)
_DRESS = (Mat2(1, 0, 1, 1), Mat2(1, 1, 0, 1), _L_INV, _R_INV)


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("CFM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CFM_SEED is not an integer: {env!r}") from None
    return 0


def _random_matrix(rng: random.Random, n: int) -> Mat2:
    """A matrix with |det| = n and content 1: a DB_n seed dressed with short
    unimodular words, optionally sign-flipped and column-swapped."""
    m = Mat2(*rng.choice(_enumerate_DB(n)))
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
    bytes.find on 8-byte words (past 2^63, on little-endian words as wide as
    the longest quotient, which are positive), searched on past any match
    that straddles two words."""
    if len(u) != len(v):
        return False
    try:
        needle, hay, width = array("q", u).tobytes(), array("q", v).tobytes() * 2, 8
    except OverflowError:
        width = (max(q.bit_length() for q in u + v) + 7) // 8
        needle = b"".join(q.to_bytes(width, "little") for q in u)
        hay = b"".join(q.to_bytes(width, "little") for q in v) * 2
    i = hay.find(needle)
    while i > 0 and i % width:
        i = hay.find(needle, i + 1)
    return i >= 0


def run_trial(args) -> dict | None:
    """One verify trial; deterministic in (seed, index). Returns a failure
    record, with a `repro` command line, or None."""
    n, seed, idx, max_period, max_quotient = args
    rng = random.Random(f"{seed}:{idx}")
    cf = _random_cf(rng, max_period, max_quotient)
    m = _random_matrix(rng, n)
    assert abs(det(m)) == n and content_gcd(m) == 1
    per_x = per(cf)
    oracle = cf_from_surd(apply_mobius(m, surd_from_cf(cf))).repetend
    oracle_per = len(oracle)

    def failure(per_hx, verdict):
        # --matrix=... keeps argparse from reading a negative entry as a flag
        return {
            "index": idx,
            "matrix": format_mat2(m),
            "cf": format_cf(cf),
            "per_x": per_x,
            "per_hx": per_hx,
            "verdict": verdict,
            "oracle_per": oracle_per,
            "repro": f'raneycf transform --matrix={format_mat2(m)} --cf "{format_cf(cf)}"',
        }

    try:
        rep_hx = image_repetend(m, cf)
    except Exception as exc:  # a crash is a failure, not an abort
        return failure(None, f"error: {exc}")
    per_hx = len(rep_hx)
    verdict = check_bound(n, per_x, per_hx)
    agrees = _same_cycle(rep_hx, oracle)
    if agrees and verdict == "holds":
        return None
    return failure(per_hx, verdict if agrees else f"{verdict}; oracle mismatch")


def cmd_bound(n: int, breakdown: bool = False, fmt: str = "text") -> str:
    if fmt == "text" and not breakdown:
        return f"S_{n} = {s_n_total(n)}"
    bb = s_n_closed_form(n)
    if fmt == "json":
        return breakdown_to_json(bb)
    lines = [f"S_{n} = {bb.total}"]
    for t in bb.terms:
        lines.append(f"  t={t.t} j={t.j} xi={t.xi} term={t.term}")
    return "\n".join(lines)


def cmd_transducer(n: int, fmt: str = "table") -> str:
    t = build_transducer(n)
    if fmt == "dot":
        return to_dot(t)
    if fmt == "csv":
        return to_csv(t)
    if fmt == "json":
        return to_json(t)
    lines = [f"T_{n}: {len(t.states)} states, {len(t.edges)} edges"]
    for e in t.edges:
        lines.append(
            f"  {format_mat2(e.src)}  --{format_word(e.input)}|{format_word(e.output)}-->  {format_mat2(e.dst)}"
        )
    return "\n".join(lines)


def cmd_transform(m: Mat2, cf: PeriodicCF, fmt: str = "text") -> tuple[str, int]:
    n = abs(det(primitive_part(m)))
    result_cf = cf_from_surd(apply_mobius(m, surd_from_cf(cf)))
    per_x = per(cf)
    rep_hx = image_repetend(m, cf)
    per_hx = len(rep_hx)
    s_n = s_n_total(n)
    verdict = check_bound(n, per_x, per_hx)
    status = 0
    if not _same_cycle(rep_hx, result_cf.repetend):
        print(
            f"transducer repetend (period {per_hx}) disagrees with oracle's"
            f" (period {per(result_cf)})",
            file=sys.stderr,
        )
        status = 1
    report = {
        "result_cf": format_cf(result_cf),
        "per_x": per_x,
        "per_hx": per_hx,
        "S_n": s_n,
        "verdict": verdict,
    }
    if fmt == "json":
        return json.dumps(report, indent=2), status
    return "\n".join(f"{k} = {v}" for k, v in report.items()), status


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
    tasks = [(n, seed, i, max_period, max_quotient) for i in range(samples)]
    if jobs > 1:
        import multiprocessing  # only --jobs > 1 pays for this import

        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(run_trial, tasks, chunksize=32)
    else:
        results = []
        tick = max(1, samples // 10)
        for i, task in enumerate(tasks):
            results.append(run_trial(task))
            if (i + 1) % tick == 0:
                print(f"verify n={n}: {i + 1}/{samples}", file=sys.stderr)
    failures = [r for r in results if r is not None]
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
    if fmt == "json":
        return json.dumps(report, indent=2)
    return "\n".join(f"{k} = {v}" for k, v in report.items())


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
    v.add_argument("--seed", type=int, default=None)
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
    try:
        if args.command == "bound":
            if args.n < 1:
                parser.error("n must be >= 1")
            print(cmd_bound(args.n, args.breakdown, args.format))
            return 0
        if args.command == "transducer":
            if args.n < 1:
                parser.error("n must be >= 1")
            print(cmd_transducer(args.n, args.format), end="")
            if args.format == "table":
                print()
            return 0
        if args.command == "transform":
            m = parse_mat2(args.matrix)
            if det(m) == 0:
                parser.error("matrix must be nonsingular")
            cf = parse_cf(args.cf)
            text, status = cmd_transform(m, cf, args.format)
            print(text)
            return status
        if args.command == "verify":
            if args.n < 2:
                parser.error("n must be >= 2")
            if args.samples < 1 or args.max_period < 1 or args.max_quotient < 1:
                parser.error("samples, max-period and max-quotient must be >= 1")
            text, status = cmd_verify(
                args.n,
                args.samples,
                _resolve_seed(args.seed),
                args.max_period,
                args.max_quotient,
                max(1, args.jobs),
            )
            print(text)
            return status
        if args.command == "search":
            if args.n < 1:
                parser.error("n must be >= 1")
            print(cmd_search(args.n, parse_cf(args.cf), args.format))
            return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
