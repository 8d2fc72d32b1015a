"""Exact quadratic irrationals (P + sqrt(D))/Q and the continued-fraction oracle.

Everything here is integer-exact: floors come from math.isqrt, periodicity
from repeating complete quotients.  This module is deliberately independent
of the transducer machinery so the two can cross-check each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .matrices import IDENTITY, Mat2


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


@dataclass(frozen=True, eq=False)
class QuadraticSurd:
    """The value (P + sqrt(D))/Q with D > 0 nonsquare, Q != 0, Q | D - P^2."""

    P: int
    Q: int
    D: int

    def __post_init__(self):
        if self.Q == 0:
            raise ValueError("Q must be nonzero")
        if self.D <= 0 or _is_square(self.D):
            raise ValueError("D must be a positive nonsquare")
        if (self.D - self.P * self.P) % self.Q:
            raise ValueError("not normalized: Q does not divide D - P^2")

    # Value equality: (P + sqrt(D))/Q is determined by the pair of rationals
    # (P/Q, D/Q^2) together with the sign of Q (sqrt(D)/Q = sgn(Q)*sqrt(D/Q^2)).
    def _key(self):
        return (
            Fraction(self.P, self.Q),
            Fraction(self.D, self.Q * self.Q),
            self.Q > 0,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadraticSurd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.P},{self.Q},{self.D})"


def surd(P: int, Q: int, D: int) -> QuadraticSurd:
    """Build a surd in primitive form; the one place that normalises.

    First rescale (P, Q, D) -> (Pk, Qk, Dk^2) with k = |Q| if needed, so
    that Q divides D - P^2 (the standard complete-quotient form).  The
    divmod that tests it gives m = (D - P^2)/Q; after a rescale that is
    sign(Q) (D - P^2) of the input, and m keeps the input's D - P^2.  Then
    divide out g = gcd(P, Q, m), blind to m's sign: g^2 divides
    D = P^2 +- Q m, and D/g^2 - (P/g)^2 = +-(Q/g)(m/g), so (P/g, Q/g, D/g^2)
    is in that form too, with the same value and gcd 1.

    A value has exactly one primitive form.  Two forms of one value differ
    by a factor t = u/v > 0 in lowest terms: (P', Q', D') = (tP, tQ, t^2 D),
    and (D' - P'^2)/Q' = t m.  Each of those is an integer, so v divides P,
    Q and m, and v = 1 when (P, Q, D) is primitive; u = 1 likewise.
    """
    if Q == 0:
        raise ValueError("Q must be nonzero")
    N = D - P * P
    m, rem = divmod(N, Q)
    if rem:  # rescale by k = |Q|
        P, Q, D, m = P * abs(Q), Q * abs(Q), D * Q * Q, N
    g = gcd(P, Q, m)
    if g > 1:
        P, Q, D = P // g, Q // g, D // (g * g)
    return QuadraticSurd(P, Q, D)


def floor_surd(x: QuadraticSurd) -> int:
    return _floor(x.P, x.Q, isqrt(x.D))


def _floor(P: int, Q: int, r: int) -> int:
    """floor((P + sqrt(D))/Q) for r = isqrt(D), D nonsquare, in one floor
    division: P + sqrt(D) lies strictly between P + r and P + r + 1, so for
    Q > 0 the floor is (P + r) // Q, and for Q < 0, which reverses the
    order, it is (P + r + 1) // Q, as no integer multiple of Q lies strictly
    between the two ends."""
    return (P + r) // Q if Q > 0 else (P + r + 1) // Q


def approx(x: QuadraticSurd, digits: int = 30) -> Fraction:
    """Rational approximation with error below |Q|^-1 * 10^-digits."""
    scale = 10**digits
    return Fraction(x.P * scale + isqrt(x.D * scale * scale), x.Q * scale)


def conjugate_approx(x: QuadraticSurd, digits: int = 30) -> Fraction:
    scale = 10**digits
    return Fraction(x.P * scale - isqrt(x.D * scale * scale), x.Q * scale)


@dataclass(frozen=True)
class PeriodicCF:
    preperiod: tuple[int, ...]
    repetend: tuple[int, ...]

    @classmethod
    def _trusted(cls, preperiod: tuple[int, ...], repetend: tuple[int, ...]) -> "PeriodicCF":
        """Wrap tuples that are normal by construction (a nonempty primitive
        repetend of quotients >= 1, preperiod entries after the first >= 1,
        the preperiod's last entry unequal to the repetend's last), skipping
        validation."""
        cf = object.__new__(cls)
        object.__setattr__(cf, "preperiod", preperiod)
        object.__setattr__(cf, "repetend", repetend)
        return cf

    def __post_init__(self):
        if not self.repetend:
            raise ValueError("repetend must be nonempty")
        if min(self.repetend) < 1:
            raise ValueError("repetend entries must be positive")
        if len(self.preperiod) > 1 and min(self.preperiod[1:]) < 1:
            raise ValueError("preperiod entries after the first must be positive")

    @classmethod
    def create(cls, preperiod, repetend) -> "PeriodicCF":
        """Normalize: primitive repetend, then roll the cycle start backward
        while the last preperiod entry matches the end of the cycle."""
        pre = list(preperiod)
        rep = tuple(repetend)
        if not rep:
            raise ValueError("repetend must be nonempty")
        rep = rep[: _primitive_period(rep)]
        while pre and pre[-1] == rep[-1]:
            rep = rep[-1:] + rep[:-1]
            pre.pop()
        return cls(tuple(pre), rep)

    def __str__(self) -> str:
        return format_cf(self)


def _primitive_period(seq) -> int:
    """The least cyclic period p of a nonempty tuple or list: seq[:p]
    repeated is seq.

    The cyclic periods of seq, the divisors q of its length n with
    seq = seq[:q] * (n // q), are the rotations that fix it, a subgroup of
    Z/n: so they are closed under gcd, and the least one, p, divides every
    other.  Start from q = n and, for each prime f of n, divide q by f for
    as long as q // f is still a period.  Every q taken is a multiple of p.
    Were the q left larger than p, some prime f would divide q / p, and
    then at f's turn, with q' the multiple of q held then, q' // f would
    have been a multiple of p that divides n, hence a period: f would have
    divided q' once more.  So this greedy step ends at p.

    The cost is trial division up to sqrt(n) and, per prime f of n, the
    steps taken and one more tried.  A step to a divisor r of the current
    period q tests seq[r] == seq[0], then compares seq[r:q] == seq[: q - r],
    which holds exactly when r is a period.  The comparisons stay within
    q's prefix, so the steps of a high power shrink geometrically and sum
    to O(n).
    """
    q = m = len(seq)
    f = 2
    while m > 1:
        if f * f > m:
            f = m  # the last prime of n
        if not m % f:
            m //= f
            while not m % f:
                m //= f
            while not q % f and seq[q // f] == seq[0] and seq[q // f : q] == seq[: q - q // f]:
                q //= f
        f += 1 if f == 2 else 2
    return q


def per(cf: PeriodicCF) -> int:
    return len(cf.repetend)


def _preperiod_bound(Q: int, r: int) -> int:
    """An upper bound on the index of the first reduced complete quotient of
    (P + sqrt(D))/Q, where r = isqrt(D).

    Let p_j/q_j be the convergents of x and x_k its complete quotients, so
    x = (p_{k-1} x_k + p_{k-2})/(q_{k-1} x_k + q_{k-2}).  Conjugating and
    solving for x_k' gives x_k' = -(q_{k-2} x' - p_{k-2})/(q_{k-1} x' - p_{k-1}).
    Write q_j x' - p_j = q_j (x' - x) + eta_j with |eta_j| < 1/q_{j+1}, and
    |x - x'| = 2 sqrt(D)/|Q|.  For k >= 3, q_{k-1} - q_{k-2} >= q_{k-3}, so
    q_{k-3} q_{k-1} sqrt(D) >= |Q| makes numerator and denominator share
    the sign of x' - x, the numerator strictly smaller in absolute value:
    x_k' lies in (-1, 0), and x_k > 1 because k >= 1, so x_k is reduced.  The q_j grow at least like
    the Fibonacci numbers, q_j >= F_{j+1} >= phi^(j-1), hence
    q_{k-3} q_{k-1} >= phi^(2k-6) >= 2^(k-3), and 2^(k-3) r >= |Q| suffices.
    That holds for k - 3 = max(0, bitlen|Q| - bitlen r + 1).
    """
    return 3 + max(0, abs(Q).bit_length() - r.bit_length() + 1)


def cf_from_surd(x: QuadraticSurd) -> PeriodicCF:
    """The periodic continued fraction of x, by the complete-quotient
    expansion x_k = (P_k + sqrt(D))/Q_k with exact integer floors.

    One isqrt: floor(x_k) comes from P_k + isqrt(D), and the next Q from the
    additive recurrence Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}), which keeps
    Q_k Q_{k-1} = D - P_k^2, seeded with Q_{-1} = (D - P_0^2)/Q_0.

    Closing the cycle (Galois): x_k is purely periodic exactly when it is
    reduced, x_k > 1 and -1 < x_k' < 0; in integers Q > 0, P <= r < P + Q
    and Q - P <= r.  Complete quotients of a reduced surd are reduced, so the
    index k of the first reduced one is the minimal preperiod, and the first
    return of (P_k, Q_k) closes the primitive period.  The preperiod's last
    quotient never equals the repetend's last (x_{k-1} would then equal a
    reduced complete quotient), so the result is already normal.  k is at
    most `_preperiod_bound`; past it lies a bug, not an input.  From there
    the step is an injective map of the at most r(r+1) reduced pairs
    (1 <= P <= r, r - P < Q <= r + P), so the pair must come back.  Every
    quotient after the first is >= 1, because x_k > 1 for k >= 1, so the
    result is built with PeriodicCF._trusted.

    The reduced loop carries u = P + r in place of P: a, rem = divmod(u, Q)
    gives P' = a Q - P = r - rem, so u' = 2r - rem and
    Q' = Q_prev + a (u - u'), and the cycle closes when (u, Q) is back at
    its first value.  A reduced x_k exceeds 1, so u >= Q; when u - Q < Q,
    a = 1 and rem = u - Q, with no division.  1 is the commonest quotient:
    Gauss-Kuzmin gives it 41.5 %, and it is 41 % to 42 % of the repetend
    quotients on the benchmark's three transform workloads.
    """
    P, Q, D = x.P, x.Q, x.D
    r = isqrt(D)
    Q_prev = (D - P * P) // Q
    limit = _preperiod_bound(Q, r)
    quotients: list[int] = []
    while not (Q > 0 and P <= r < P + Q and Q - P <= r):
        if len(quotients) >= limit:
            raise RuntimeError(f"no reduced complete quotient within {limit} steps")
        a = _floor(P, Q, r)
        quotients.append(a)
        P1 = a * Q - P
        P, Q, Q_prev = P1, Q_prev + a * (P - P1), Q
    start = len(quotients)
    append = quotients.append
    u = P + r  # Q > 0 on reduced pairs
    u0, Q0 = u, Q
    r2 = 2 * r
    while True:
        rem = u - Q
        if rem < Q:  # a = 1, no division
            u1 = r2 - rem
            Q, Q_prev = Q_prev + u - u1, Q
            append(1)
        else:
            a, rem = divmod(u, Q)
            u1 = r2 - rem
            Q, Q_prev = Q_prev + a * (u - u1), Q
            append(a)
        u = u1
        if u == u0 and Q == Q0:
            break
    P = u - r
    assert Q * Q_prev == D - P * P
    return PeriodicCF._trusted(tuple(quotients[:start]), tuple(quotients[start:]))


def surd_from_cf(cf: PeriodicCF) -> QuadraticSurd:
    """The value of cf as a surd in primitive form: image_surd by the
    identity."""
    return image_surd(IDENTITY, cf)


def image_surd(m: Mat2, cf: PeriodicCF) -> QuadraticSurd:
    """h_m(x) for the value x of cf, in primitive form, normalised once.

    Fixed-point construction: the purely periodic tail y satisfies
    c*y^2 + (d-a)*y - b = 0 for the convergent matrix [[a, b], [c, d]] of
    the repetend, so y = (a - d + sqrt(disc))/(2c) with
    disc = (a + d)^2 - 4(ad - bc); c >= 1, as every repetend quotient is.
    x = h_P(y) for the preperiod's convergent matrix P, so
    h_m(x) = h_{m P}(y): one 2x2 integer product and one Moebius step on y
    as it stands.  A value has exactly one primitive form, so this is the
    surd that normalising y, then h_P(y), then h_m of that would give.
    """
    a, b, c, d = _convergent_entries(cf.repetend)
    if cf.preperiod:
        m = m * Mat2(*_convergent_entries(cf.preperiod))
    return _mobius(m, a - d, 2 * c, (a + d) ** 2 - 4 * (a * d - b * c))


def _convergent_entries(quotients) -> tuple[int, int, int, int]:
    """Entries of the product of [[q, 1], [1, 0]] over the quotients."""
    a, b, c, d = 1, 0, 0, 1
    for q in quotients:
        a, b, c, d = a * q + b, a, c * q + d, c
    return a, b, c, d


def apply_mobius(m: Mat2, x: QuadraticSurd) -> QuadraticSurd:
    """h_m(x) = (a*x + b)/(c*x + d), exactly, staying in Q(sqrt(D))."""
    return _mobius(m, x.P, x.Q, x.D)


def _mobius(m, P: int, Q: int, D: int) -> QuadraticSurd:
    """h_m((P + sqrt(D))/Q) in primitive form, for Q != 0 and D > 0
    nonsquare, whether or not (P, Q, D) is primitive or Q divides D - P^2.

    Multiplying by the conjugate of c x + d gives (P2 + sqrt(D2))/Q2, which
    surd brings to primitive form."""
    A, B, C, Dm = m
    n = A * Dm - B * C
    if n == 0:
        raise ValueError("singular matrix")
    alpha = A * P + B * Q
    beta = C * P + Dm * Q
    e = Q * n  # coefficient of sqrt(D) after rationalizing
    P2 = alpha * beta - A * C * D
    Q2 = beta * beta - C * C * D
    D2 = e * e * D
    if e < 0:
        P2, Q2 = -P2, -Q2
    return surd(P2, Q2, D2)


def parse_cf(text: str) -> PeriodicCF:
    """Parse the grammar "[p0,p1,...;r0,r1,...]", e.g. "[;3]" or "[-1,1,11;7,1]"."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")) or ";" not in s:
        raise ValueError(f"bad continued fraction syntax: {text!r}")
    pre_s, rep_s = s[1:-1].split(";", 1)

    def ints(chunk: str) -> list[int]:
        chunk = chunk.strip()
        if not chunk:
            return []
        try:
            return [int(p.strip()) for p in chunk.split(",")]
        except ValueError:
            raise ValueError(f"bad continued fraction syntax: {text!r}") from None

    rep = ints(rep_s)
    if not rep:
        raise ValueError(f"empty repetend in {text!r}")
    return PeriodicCF.create(ints(pre_s), rep)


class _Digits(dict):
    """str(q) for an int q, the quotients 0-1023 read from a table: joined
    with ",", a lookup costs well under half of str() per quotient."""

    def __missing__(self, q):
        return str(q)


_DIGITS = _Digits((q, str(q)) for q in range(1024))


def format_cf(cf: PeriodicCF) -> str:
    pre = ",".join(map(_DIGITS.__getitem__, cf.preperiod))
    rep = ",".join(map(_DIGITS.__getitem__, cf.repetend))
    return f"[{pre};{rep}]"

