"""Exact 2x2 integer matrices and Raney's balanced matrix classes.

Matrices are row-major [[a,b],[c,d]].  The class predicates (D_n, RB_n,
DB_n) follow Raney's definitions: determinant n, nonnegative entries,
content 1, plus row/column balance inequalities.  The LE and RE classes,
which only the walk side of S_n reads, and the associate J M J are test
references (tests/references.py).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd, isqrt
from typing import NamedTuple


class Mat2(NamedTuple):
    """A matrix stored as its entry tuple (a, b, c, d): it equals, hashes,
    sorts and unpacks like that tuple, so an entry tuple that the escape
    kernel (words._feed_run) returns is the same state."""

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = other
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __repr__(self) -> str:
        return f"Mat2({self.a},{self.b},{self.c},{self.d})"


IDENTITY = Mat2(1, 0, 0, 1)
L_MAT = Mat2(1, 0, 1, 1)
R_MAT = Mat2(1, 1, 0, 1)
J_MAT = Mat2(0, 1, 1, 0)


def det(m: Mat2) -> int:
    return m.a * m.d - m.b * m.c


def content_gcd(m: Mat2) -> int:
    return gcd(m.a, m.b, m.c, m.d)


def inverse_times_det(m: Mat2) -> Mat2:
    """Adjugate: m * inverse_times_det(m) = det(m) * identity."""
    return Mat2(m.d, -m.b, -m.c, m.a)


def xi(a: int, c: int) -> int:
    """Number of division steps of the Euclidean algorithm on (a, c).

    Symmetric; xi(x, 0) = 0 for x > 0; (0, 0) is rejected.
    """
    if a < 0 or c < 0:
        raise ValueError("xi expects nonnegative arguments")
    if a < c:
        a, c = c, a
    if not a:
        raise ValueError("xi(0, 0) is undefined")
    steps = 0
    while c:
        a, c = c, a % c
        steps += 1
    return steps


def in_D(m: Mat2, n: int) -> bool:
    if n < 1:
        raise ValueError("n must be >= 1")
    return det(m) == n and min(m) >= 0 and content_gcd(m) == 1


def _balanced(t) -> bool:
    # row balance a > c, d > b: the "still inside an edge" condition
    return t[0] > t[2] and t[3] > t[1]


def in_RB(m: Mat2, n: int) -> bool:
    return in_D(m, n) and _balanced(m)


def in_DB(m: Mat2, n: int) -> bool:
    return in_RB(m, n) and m.a > m.b and m.d > m.c


def _check_db(t):
    """Raise unless t, reached by absorbing and peeling from a row-balanced
    state, is itself in DB_n for n = det(t); the one place that raises this
    contract error.  The escape kernel (words._feed_run) rebuilds each
    escaping input run's last escape from the state the run ends in and
    tests it inline on the one condition that the end state does not
    already give; it calls this only on a rebuilt state that fails it, to
    raise.  A one-letter run escapes at most once, so one-letter feeds
    check every escape.

    Only the balance conditions are checked: the content gcd(a, b, c, d)
    cannot change on the way.  Absorbing letter^k multiplies t on the right
    by L^k or R^k, and peeling multiplies it on the left by L^-k or R^-k;
    all four are integer matrices of determinant 1.  The entries of U t V
    are integer combinations of those of t, so content(t) divides
    content(U t V), and t = U^-1 (U t V) V^-1 gives the converse.  So a walk
    keeps the content of its start, and each walk settles it once where it
    enters: transduce_cycle's in_RB(start) checks it (as the tests' LE
    walks check theirs, tests/references.py's walk_LE with is_LE), and the
    search's starts (_primitive_forms, and _iter_DB, which _enumerate_DB's
    memo reads whole) and the transform's (transducer._hermite_start) are
    built with content 1.  The determinant is kept for the same reason;
    absorbing only adds to entries, and the peel's quotients keep them
    nonnegative.  So n = det(t), computed only on the way to raising, is
    the det of the walk's start, and no caller passes it.
    """
    a, b, c, d = t
    if not (a > c and d > b and a > b and d > c):
        raise RuntimeError(
            f"factorization left {(a, b, c, d)} balanced but not doubly "
            f"balanced for n={a * d - b * c}; the edge construction contract "
            "is violated"
        )


def _hermite(a, b, c, d):
    """The Hermite form [[g, b], [0, d]] of the coset GL2(Z) (a, b, c, d),
    as (g, b, d): g d = |ad - bc|, 0 <= b < d.  The matrix must be
    nonsingular.

    Left row operations in GL2(Z) keep the coset: Euclid on the first
    column (swap the rows, subtract), a row negation, b reduced mod d.  The
    form is unique, so two matrices share a coset exactly when their forms
    agree, and the content gcd(g, b, d) is the matrix's.
    """
    while c:
        q = a // c
        a, b, c, d = c, d, a - q * c, b - q * d
    if a < 0:
        a, b = -a, -b
    d = abs(d)
    return a, b % d, d


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in ascending order, by trial division up to
    isqrt(n): each divisor t <= sqrt(n) pairs with n // t >= sqrt(n), and
    a square's root is listed once."""
    small = [t for t in range(1, isqrt(n) + 1) if not n % t]
    return small + [n // t for t in reversed(small) if t * t != n]


def _primitive_forms(n: int) -> list[tuple[int, int, int]]:
    """The forms (g, b, d) of _hermite with g d = n, 0 <= b < d and
    gcd(g, b, d) = 1, by g then b: one per coset GL2(Z) M over the
    primitive integer M with |det M| = n, psi(n) = n prod(1 + 1/p) of them
    over the primes p | n."""
    return [
        (g, b, n // g)
        for g in _divisors(n)
        for b in range(n // g)
        if gcd(g, b, n // g) == 1
    ]


def _iter_DB(n: int):
    """The entries (a, b, c, d) of DB_n, sorted, one at a time: the one
    enumerator of DB_n, which the search reads as far as its witness scan
    does, and _enumerate_DB builds whole.

    The order.  Balance gives c <= a - 1 and b <= d - 1, so
    n = ad - bc >= ad - (a - 1)(d - 1) = a + d - 1 >= a, as d > b >= 0.  The
    column balance a > b and the row balance a > c put b and c in range(a).
    Given (a, b, c), d = (n + bc) / a is determined, a state exactly when
    the division is exact, d > b, d > c and gcd(a, b, c, d) = 1.  So
    walking a from 1 to n, then b, then c, each ascending, and keeping
    those, yields all of DB_n, and in tuple order, since d never breaks a
    tie.  For one row (a, b), a | n + bc reads bc = -n mod a: with
    g = gcd(a, b) it has no solution unless g | n, and then g candidates
    c in range(a), c = c0 mod a/g for c0 = -(n/g) (b/g)^-1 mod a/g.  The
    content is gcd(g, c, d).

    The rows.  A row that holds a state has b(a - b) + a <= n.  If c >= b,
    then d >= c + 1 gives n >= a(c + 1) - bc = c(a - b) + a >= b(a - b) + a;
    if c < b, then d >= b + 1 gives n >= b(a - c) + a > b(a - b) + a.  The
    bound is sharp: (a, b, b, b + 1) is in DB_n for n = b(a - b) + a.
    b(a - b) rises up to a/2 and falls after it, so the rows left are b < lo
    and b > a - lo, for lo the least b with b(a - b) + a > n.  While
    floor(a/2) ceil(a/2) + a = floor(a^2/4) + a <= n there is none, and
    every row is left.  b(a - b) + a grows with a, so lo never rises: the
    walk keeps it across a and only lowers it.

    The cost.  lo <= a/2, so (lo - 1) a/2 <= (lo - 1)(a - lo + 1) < n gives
    lo < 2n/a + 1, and 2 lo - 1 < 4n/a + 1 rows for that a; an a with no
    row ruled out has a^2 < 4n, so a < 4n/a.  Either way an a reads at most
    min(a, 4n/a + 1) rows: at most 2n + sqrt(n) for the a up to
    B = floor(2 sqrt(n)), and 4n ln(n/B) + n past it, where
    n/B <= sqrt(n)/1.5 once n >= 4.  So the walk reads at most
    2n ln n + 3n rows in all (n(n + 1)/2 <= 3n below 4), 0.90 to
    0.93 n ln n in practice (n = 4,096 to 262,144), each one gcd and at
    most one modular inverse.  Its candidates, g per solvable row, number at most
    sigma(n)(4 ln n + 5), sigma the sum of the divisors of n.  On a kept
    row min(b, a - b) < 2n/a, and g = gcd(a, min(b, a - b)) divides
    gcd(a, n), so the rows of one a give at most (2n/a) tau(gcd(a, n))
    twice over, plus a for the row b = 0 when a | n; and
    sum_a tau(gcd(a, n))/a <= (1 + ln n) sigma(n)/n.  As
    sigma(n)/n = O(log log n) (Gronwall), that is O(n log n log log n);
    measured, 0.6 to 2.2 n ln n, the most at highly composite n such as
    5,040 and 65,520.
    """
    lo = n  # the least b with b (a - b) + a > n, once there is one
    for a in range(1, n + 1):
        if a * a // 4 + a <= n:  # no row ruled out yet
            rows = range(a)
        else:
            lo = min(lo, a // 2)
            while (lo - 1) * (a - lo + 1) + a > n:
                lo -= 1
            rows = chain(range(lo), range(a - lo + 1, a))
        for b in rows:
            g = gcd(a, b)
            if n % g:
                continue
            step = a // g
            c = -(n // g) * pow(b // g, -1, step) % step
            while c < a:
                d = (n + b * c) // a
                if d > b and d > c and (g == 1 or gcd(g, c, d) == 1):
                    yield a, b, c, d
                c += step


@lru_cache(maxsize=None)
def _enumerate_DB(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The entries (a, b, c, d) of DB_n, sorted (_iter_DB, where the proof
    is); the memo that build_transducer and enumerate_DB read.  They are
    plain tuples, which equal the Mat2s of the same entries; callers that
    hand Mat2s out build them (enumerate_DB)."""
    return tuple(_iter_DB(n))


def enumerate_DB(n: int) -> set[Mat2]:
    if n < 1:
        raise ValueError("n must be >= 1")
    return {Mat2(*t) for t in _enumerate_DB(n)}


def parse_mat2(text: str) -> Mat2:
    """Parse the row-major "a,b,c,d" format."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated integers, got {text!r}")
    try:
        a, b, c, d = (int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"non-integer matrix entry in {text!r}") from None
    return Mat2(a, b, c, d)


def format_mat2(m: Mat2) -> str:
    return f"{m.a},{m.b},{m.c},{m.d}"
