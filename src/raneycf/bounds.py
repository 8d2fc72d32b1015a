"""The period bound S_n: divisor-sum closed form, the independent
transducer-side sum over LE walks, and the (unproven) prime-case formula.
The module computes; cli.cmd_bound writes the breakdown as text or JSON."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .matrices import _divisors, det, enumerate_LE, nu_L, primitive_part, xi
from .transducer import walk_LE
from .words import sigma


@dataclass(frozen=True)
class BoundTerm:
    t: int
    j: int
    xi: int
    term: int


@dataclass(frozen=True)
class BoundBreakdown:
    n: int
    terms: tuple[BoundTerm, ...]
    total: int


def _s_n_terms(n: int):
    """The terms (t, j, xi(j, t), 2*floor(xi/2)+1) of S_n, one at a time;
    2*floor(x/2)+1 is x | 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for t in _divisors(n):
        g = gcd(t, n // t)
        for j in range(t, 2 * t):
            if g > 1 and j % g == 0:
                continue
            x = xi(j, t)
            yield t, j, x, x | 1


def s_n_closed_form(n: int) -> BoundBreakdown:
    """S_n = sum over divisors t of n, j in [t, 2t-1] \\ J_t, of 2*floor(xi(j,t)/2)+1,
    where J_t is the multiples of gcd(t, n/t) when that gcd exceeds 1."""
    terms = tuple(BoundTerm(*tm) for tm in _s_n_terms(n))
    return BoundBreakdown(n, terms, sum(tm.term for tm in terms))


@lru_cache(maxsize=None)
def s_n_total(n: int) -> int:
    """The total of S_n, memoised, summed term by term without building the
    breakdown: memory stays constant in n."""
    return sum(term for _, _, _, term in _s_n_terms(n))


def s_n_via_transducer(n: int) -> int:
    """Same quantity from the walk side: sum over M in LE_n and
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


def prime_sharp_bound(n: int) -> int:
    """The sharp value conjectured for prime n: 5 for n=2, otherwise
    2 + 2*sum_{i=1}^{(n-1)/2} (xi(i,n)+2) shifted down by 1 when n = 1 mod 4."""
    if n < 1 or len(_divisors(n)) != 2:
        raise ValueError(f"{n} is not prime")
    if n == 2:
        return 5
    s = sum(xi(i, n) + 2 for i in range(1, (n - 1) // 2 + 1))
    if n % 4 == 3:
        return 2 + 2 * s
    return 1 + 2 * s


def check_bound(n: int, per_x: int, per_hx: int) -> str:
    """Verdict for per_x/S_n <= per_hx <= S_n*per_x.

    The lower bound is the upper bound read backwards.  Say y = h_M(x) with
    |det M| = n, and let adj M = inverse_times_det(M).  Then
    adj M * M = det(M) I, whose map is the identity, so
    h_{adj M}(y) = x, and |det adj M| = n too.  So a ratio
    rho = per(y) / per(x) at (x, M) gives 1/rho at (y, adj M): the upper
    bound at (y, adj M), per(x) <= S_n per(y), is the lower bound at
    (x, M), and 1/S_n is reached exactly where S_n is, one transform away
    from a best witness.
    """
    if n < 1 or per_x < 1 or per_hx < 1:
        raise ValueError("all arguments must be positive")
    s = s_n_total(n)
    if per_hx > s * per_x:
        return "violates_upper"
    if per_hx * s < per_x:  # per_hx < per_x / s, cleared of the division
        return "violates_lower"
    return "holds"

