"""The period bound S_n: closed form, walk-sum dual, prime formula, verdicts."""
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from raneycf.bounds import (
    _s_n_terms,
    check_bound,
    prime_sharp_bound,
    s_n_closed_form,
    s_n_total,
)
from raneycf.cli import _same_cycle
from raneycf.matrices import Mat2, det, inverse_times_det
from raneycf.surds import PeriodicCF, apply_mobius, cf_from_surd, parse_cf, per, surd_from_cf
from raneycf.transducer import image_repetend
from references import primitive_part, s_n_via_transducer

PRIMES_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_closed_form_anchor_values():
    assert s_n_closed_form(7).total == 24
    assert s_n_closed_form(2).total == 5
    assert s_n_closed_form(14).total == 80
    assert s_n_closed_form(81).total == 538


def test_closed_form_breakdown_structure():
    bb = s_n_closed_form(7)
    assert bb.total == sum(t.term for t in bb.terms)
    assert sum(t.term for t in bb.terms if t.t == 1) == 1
    assert sum(t.term for t in bb.terms if t.t == 7) == 23
    assert [t.xi for t in bb.terms if t.t == 7] == [1, 2, 3, 3, 4, 4, 3]


def test_closed_form_excludes_gcd_multiples():
    # t = 2 of n = 4 has g = 2: j = 2 is excluded from [2, 3]
    bb = s_n_closed_form(4)
    assert [(t.t, t.j) for t in bb.terms] == [
        (1, 1),
        (2, 3),
        (4, 4),
        (4, 5),
        (4, 6),
        (4, 7),
    ]


def test_total_matches_breakdown():
    for n in range(1, 301):
        assert s_n_total(n) == s_n_closed_form(n).total, n


def test_total_builds_no_breakdown():
    # summing a built breakdown peaked at 26.8 MB at this n, and at
    # n = 720720 took 11.6 s and raised the RSS to 411 MB
    tracemalloc.start()
    try:
        s_n_total.__wrapped__(55440)  # past the memo
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_closed_form_rejects_bad_n():
    with pytest.raises(ValueError):
        s_n_closed_form(0)
    with pytest.raises(ValueError):
        s_n_total(0)


@pytest.mark.parametrize("n", [3, 7, 12])
def test_transducer_sum_examples(n):
    assert s_n_via_transducer(n) == s_n_closed_form(n).total


def test_prime_sharp_bound_values():
    assert prime_sharp_bound(7) == 24
    assert prime_sharp_bound(13) == 51
    assert prime_sharp_bound(2) == 5
    with pytest.raises(ValueError):
        prime_sharp_bound(12)


@pytest.mark.parametrize("p", PRIMES_50)
def test_prime_formula_concordance(p):
    s = s_n_closed_form(p).total
    sharp = prime_sharp_bound(p)
    if p == 2:
        assert sharp == 5 == s
    elif p % 4 == 3:
        assert sharp == s
    else:
        assert sharp == s - 1


@pytest.mark.parametrize("n", range(2, 101))
def test_bound_dominates_n(n):
    assert s_n_closed_form(n).total >= n


def test_check_bound_verdicts():
    assert check_bound(7, 1, 6) == "holds"
    assert check_bound(7, 1, 24) == "holds"
    assert check_bound(7, 1, 25) == "violates_upper"
    assert check_bound(7, 25, 1) == "violates_lower"
    assert check_bound(7, 24, 1) == "holds"
    with pytest.raises(ValueError):
        check_bound(7, 0, 1)


def _reference_check_bound(n, per_x, per_hx):
    """check_bound with the lower edge as a comparison of Fractions."""
    s = s_n_closed_form(n).total
    if per_hx > s * per_x:
        return "violates_upper"
    if Fraction(per_hx) < Fraction(per_x, s):
        return "violates_lower"
    return "holds"


@pytest.mark.parametrize("n", range(1, 51))
def test_check_bound_matches_fraction_formula_at_the_edges(n):
    s = s_n_closed_form(n).total
    for q in (1, 2, 3, 7, 10**30):
        # per_hx * S_n == per_x, and one off on each side
        assert check_bound(n, q * s, q) == "holds"
        assert check_bound(n, q * s + 1, q) == "violates_lower"
        # per_hx == S_n * per_x, and one off on each side
        assert check_bound(n, q, q * s) == "holds"
        assert check_bound(n, q, q * s + 1) == "violates_upper"
        for per_x, per_hx in [
            (q * s - 1, q), (q * s, q), (q * s + 1, q),
            (q, q * s - 1), (q, q * s), (q, q * s + 1),
        ]:
            if per_x >= 1 and per_hx >= 1:
                assert check_bound(n, per_x, per_hx) == _reference_check_bound(n, per_x, per_hx)


# the search witnesses at offset 0 that CI pins: (n, repetend, best ratio,
# witness state), the state applied to [; repetend]
_PINNED_WITNESSES = [
    (1, "[;5]", Fraction(1), Mat2(1, 0, 0, 1)),
    (1024, "[;7]", Fraction(1280), Mat2(2, 1, 0, 512)),
    (720, "[;1,1,3]", Fraction(10), Mat2(9, 8, 0, 80)),
    (240, "[;3,1,4,1,5,9]", Fraction(26, 3), Mat2(13, 7, 1, 19)),
    (4096, "[;1,2]", Fraction(1136), Mat2(1, 0, 0, 4096)),
    (500, "[;1,1,2,3,5,8,13]", Fraction(1186, 7), Mat2(3, 2, 2, 168)),
    (16384, "[;1,2]", Fraction(4532), Mat2(3, 2, 1, 5462)),
    (2310, "[;3,1,4]", Fraction(76, 3), Mat2(12, 1, 6, 193)),
]


def _dressed(rng, n):
    """A seeded matrix of |det| n: a triangular [[g, b], [0, n/g]] with
    content up to 3, times random words in L, R, J and a sign on both
    sides."""
    g = rng.choice([t for t in range(1, n + 1) if n % t == 0])
    k = rng.randint(1, 3)
    m = Mat2(g * k, rng.randrange(n // g) * k, 0, n // g * k)
    words = [Mat2(1, 0, 1, 1), Mat2(1, 1, 0, 1), Mat2(0, 1, 1, 0), Mat2(-1, 0, 0, 1)]
    for _ in range(rng.randint(0, 6)):
        m = rng.choice(words) * m if rng.random() < 0.5 else m * rng.choice(words)
    return m


def test_lower_bound_is_the_upper_bound_read_backwards():
    """With y = h_M(x) from the surd oracle, the transducer's walk of
    h_{adj M}(y) gives back x's repetend up to rotation, so a ratio rho at
    (x, M) is 1/rho at (y, adj M) and both verdicts agree: on 150 seeded
    (M, x), n from 1 to 60 with content up to 3, preperiods and negative
    determinants included, and on each search witness that CI pins at
    offset 0, whose ratio is the search's best."""
    rng = random.Random(29)
    cases = []
    for _ in range(150):
        pre = [rng.randint(-20, 20)] + [rng.randint(1, 9) for _ in range(rng.randint(0, 2))]
        rep = [rng.choice((rng.randint(1, 4), rng.randint(1, 300))) for _ in range(rng.randint(1, 5))]
        cases.append((_dressed(rng, rng.randint(1, 60)), PeriodicCF.create(pre, rep), None))
    for n, text, ratio, state in _PINNED_WITNESSES:
        cases.append((state, parse_cf(text), ratio))
    for m, x, ratio in cases:
        y = cf_from_surd(apply_mobius(m, surd_from_cf(x)))
        back = image_repetend(inverse_times_det(m), y)
        assert _same_cycle(back, x.repetend), (m, x)
        n = abs(det(primitive_part(m)))
        assert check_bound(n, per(x), per(y)) == check_bound(n, per(y), per(x)) == "holds"
        if ratio is not None:
            assert Fraction(per(y), per(x)) == ratio, (m, x)


def _euclid_steps(a, c):
    """Division steps of Euclid on (a, c), by recursion."""
    return 0 if min(a, c) == 0 else 1 + _euclid_steps(min(a, c), max(a, c) % min(a, c))


def test_s_n_terms_match_the_definition():
    """_s_n_terms gives (t, j, xi(j, t), 2*floor(xi/2)+1) over the divisors
    t of n and j in [t, 2t-1] off the multiples of gcd(t, n/t) > 1, for
    every n <= 300, with xi counted by an independent Euclid; and the
    pinned S_55440."""
    for n in range(1, 301):
        expected = []
        for t in (t for t in range(1, n + 1) if n % t == 0):
            g = math.gcd(t, n // t)
            for j in range(t, 2 * t):
                if g == 1 or j % g:
                    x = _euclid_steps(j, t)
                    expected.append((t, j, x, 2 * (x // 2) + 1))
        assert list(_s_n_terms(n)) == expected, n
    assert s_n_total(55440) == 1565184
