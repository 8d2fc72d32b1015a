"""Test-support references: what only the tests call, kept out of src/.

The LE side of S_n.  The bound S_n is computed twice: as the divisor sum
bounds.s_n_closed_form, which every command reads, and here as the sum
over Raney's LE walks, s_n_via_transducer (Raney, "On continued fractions
and finite automata", 1973), with the classes it walks from (is_LE,
is_RE, nu_L, nu_R, enumerate_LE) and the walk itself (walk_LE).  The
tests check that the two agree.

The helpers.  floor_surd, approx and conjugate_approx read a surd's value;
parse_word, transpose_word, boundary_conjugates, is_LS, transpose and
primitive_part build the inputs and references of the lemma and
acceptance suites.

pytest collects no tests here; the test modules import it by name.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

from raneycf.matrices import Mat2, _divisors, content_gcd, det, in_DB
from raneycf.surds import QuadraticSurd, _floor
from raneycf.words import (
    EPSILON,
    L,
    LRWord,
    R,
    _Out,
    _feed_run,
    rotate,
    sigma,
    star_letter,
)

# ---------------------------------------------------------------------------
# matrices


def primitive_part(m: Mat2) -> Mat2:
    """m divided by its content gcd(a, b, c, d); m must not be zero."""
    g = content_gcd(m)
    if g == 1:
        return m
    return Mat2(m.a // g, m.b // g, m.c // g, m.d // g)


def transpose(m: Mat2) -> Mat2:
    return Mat2(m.a, m.c, m.b, m.d)


def _require_DB(m: Mat2) -> int:
    n = det(m)
    if n < 1 or not in_DB(m, n):
        raise ValueError(f"{m!r} is not doubly balanced")
    return n


def is_LS(m: Mat2) -> bool:
    _require_DB(m)
    return m.b == 0


def is_LE(m: Mat2) -> bool:
    _require_DB(m)
    return m.b == 0 and m.c < gcd(m.a, m.d)


def is_RE(m: Mat2) -> bool:
    _require_DB(m)
    return m.c == 0 and m.b < gcd(m.a, m.d)


def nu_L(m: Mat2) -> int:
    if not is_LE(m):
        raise ValueError(f"{m!r} is not in LE")
    return m.a // gcd(m.a, m.d)


def nu_R(m: Mat2) -> int:
    if not is_RE(m):
        raise ValueError(f"{m!r} is not in RE")
    return m.d // gcd(m.a, m.d)


def enumerate_LE(n: int) -> set[Mat2]:
    """All [[t,0],[u,m]] with t*m = n and u in I_t (0 if gcd(t,m)=1, else 1..gcd-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = set()
    for t in _divisors(n):
        m = n // t
        g = gcd(t, m)
        us = (0,) if g == 1 else range(1, g)
        for u in us:
            out.add(Mat2(t, 0, u, m))
    return out


# ---------------------------------------------------------------------------
# LE walks and the walk side of S_n


def walk_LE(n: int, m: Mat2, i: int):
    """Simulate L^i then R's from m in LE_n; stop at the unique recurring RE
    state N with j in {3n - nu_R(N) + 1, ..., 3n}.  Returns (N, j, w).

    A letter completes an edge exactly when the state after it is doubly
    balanced: a state s * letter^j with j > 0, absorbed without an escape,
    never is, since s L^j has c + d j >= d and s R^j has a j + b >= a.
    The walk's start is checked by is_LE, and every feed is one letter, so
    the escape kernel checks every escape against DB_n."""
    if det(m) != n or not is_LE(m):
        raise ValueError(f"{m!r} is not in LE_{n}")
    nu = nu_L(m)
    if not nu <= i <= 2 * nu - 1:
        raise ValueError(f"i={i} outside [{nu}, {2 * nu - 1}]")
    out = _Out()
    cur = _feed_run(m, ((L, i),), out)
    completions = []  # (j, state, snap)
    for j in range(1, 3 * n + 1):
        cur = _feed_run(cur, ((R, 1),), out)
        a, b, c, d = cur
        if a > b and d > c:
            completions.append((j, Mat2(*cur), out.snap()))
    re_states = {s for _, s, _ in completions if is_RE(s)}
    if len(re_states) != 1:
        raise RuntimeError(f"expected a unique recurring RE state, saw {re_states}")
    target = re_states.pop()
    vr = nu_R(target)
    hits = [
        (j, snap)
        for j, s, snap in completions
        if s == target and 3 * n - vr + 1 <= j <= 3 * n
    ]
    if len(hits) != 1:
        raise RuntimeError(f"expected one window hit for {target!r}, got {hits}")
    j, snap = hits[0]
    return target, j, out.word(stop=snap)


def s_n_via_transducer(n: int) -> int:
    """S_n from the walk side: sum over M in LE_n and
    i in [nu_L(M), 2*nu_L(M)-1] of sigma(W_{L,M,i}) - 1.

    Parametrized LE matrices with content k > 1 (possible when some
    gcd(t, n/t) is composite, first at n = 16) are walked after dividing
    the content out: scaling a state leaves escapes, peels and outputs
    untouched, so the walk lives in T_{n/k^2} with identical sigma.
    """
    total = 0
    for m in sorted(enumerate_LE(n)):
        m = primitive_part(m)
        nn = det(m)
        nu = nu_L(m)
        for i in range(nu, 2 * nu):
            _, _, w = walk_LE(nn, m, i)
            total += sigma(w) - 1
    return total


# ---------------------------------------------------------------------------
# words

_RUN_RE = re.compile(r"\s*([LR])\s*(?:\^\s*(\d+))?")


def parse_word(text: str) -> LRWord:
    """Parse "L^2 R L R^3" or compact "LLRLRRR" (whitespace ignored);
    "e" denotes the empty word, matching the emitter."""
    if text.strip() == "e":
        return EPSILON
    runs = []
    pos = 0
    while pos < len(text):
        m = _RUN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse word at {text[pos:]!r}")
            break
        runs.append((m.group(1), int(m.group(2) or 1)))
        pos = m.end()
    return LRWord.from_runs(runs)


def transpose_word(word: LRWord) -> LRWord:
    """Word of the transposed matrix: reverse the runs and swap letters."""
    return LRWord(tuple((star_letter(l), e) for l, e in reversed(word.runs)))


def boundary_conjugates(word: LRWord) -> list[LRWord]:
    """The sigma(word) rotations starting at a run boundary."""
    if not word:
        raise ValueError("empty word")
    out = []
    acc = 0
    for letter, exp in word.runs:
        out.append(rotate(word, acc))
        acc += exp
    return out


# ---------------------------------------------------------------------------
# surds


def floor_surd(x: QuadraticSurd) -> int:
    return _floor(x.P, x.Q, isqrt(x.D))


def approx(x: QuadraticSurd, digits: int = 30) -> Fraction:
    """Rational approximation with error below |Q|^-1 * 10^-digits."""
    scale = 10**digits
    return Fraction(x.P * scale + isqrt(x.D * scale * scale), x.Q * scale)


def conjugate_approx(x: QuadraticSurd, digits: int = 30) -> Fraction:
    scale = 10**digits
    return Fraction(x.P * scale - isqrt(x.D * scale * scale), x.Q * scale)
