"""Matrix classes D/RB/DB, LS/LE/RE, the xi step count, enumerations."""
import math
import random
import re
from math import gcd

import pytest
from hypothesis import given, strategies as st

from raneycf import matrices
from raneycf.matrices import (
    IDENTITY,
    L_MAT,
    Mat2,
    R_MAT,
    _check_db,
    _divisors,
    _enumerate_DB,
    _iter_DB,
    content_gcd,
    det,
    enumerate_DB,
    format_mat2,
    in_D,
    in_DB,
    in_RB,
    inverse_times_det,
    parse_mat2,
    xi,
)
from raneycf.surds import PeriodicCF, QuadraticSurd, surd
from references import (
    _doubly_balanced_up_to,
    _pair_loop_enumerate_DB,
    associated,
    enumerate_LE,
    is_LE,
    is_LS,
    is_RE,
    nu_L,
    nu_R,
    primitive_part,
    transpose,
)

PRIMES_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


# -- xi ------------------------------------------------------------------------


def test_xi_examples():
    assert xi(7, 0) == 0 and xi(0, 7) == 0
    assert xi(7, 1) == 1 and xi(1, 7) == 1
    assert xi(13, 5) == 4 and xi(5, 13) == 4


def test_xi_rejects_bad_input():
    with pytest.raises(ValueError):
        xi(0, 0)
    with pytest.raises(ValueError):
        xi(-1, 2)


@given(st.integers(0, 500), st.integers(0, 500))
def test_xi_symmetry(a, c):
    if a == 0 and c == 0:
        return
    assert xi(a, c) == xi(c, a)


@given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 5))
def test_xi_shift_periodicity(k, t, a):
    """xi(k, t) = xi(k + a*t, t) when k >= t."""
    if k < t:
        k += t
    assert xi(k, t) == xi(k + a * t, t)


# -- arithmetic plumbing ---------------------------------------------------------


def test_det_and_content():
    assert det(Mat2(12, 1, 17, 2)) == 7
    assert content_gcd(IDENTITY) == 1
    assert content_gcd(Mat2(4, 0, 2, 4)) == 2
    assert primitive_part(Mat2(4, 0, -2, 4)) == Mat2(2, 0, -1, 2)
    assert primitive_part(IDENTITY) == IDENTITY


def test_multiply_and_adjugate():
    assert L_MAT * R_MAT == Mat2(1, 1, 1, 2)
    m = Mat2(12, 1, 17, 2)
    assert m * inverse_times_det(m) == Mat2(7, 0, 0, 7)
    assert transpose(Mat2(1, 2, 3, 4)) == Mat2(1, 3, 2, 4)


def test_mat2_is_its_entry_tuple():
    """A Mat2 equals and hashes as its entries, sorts in entry order,
    unpacks as a, b, c, d, keeps the Mat2(a,b,c,d) repr, and * is still the
    matrix product, on seeded matrices."""
    rng = random.Random(8)
    ms = []
    for _ in range(300):
        t = tuple(rng.randint(-40, 40) for _ in range(4))
        m = Mat2(*t)
        assert m == t and hash(m) == hash(t)
        a, b, c, d = m
        assert (a, b, c, d) == (m.a, m.b, m.c, m.d) == t
        assert repr(m) == f"Mat2({a},{b},{c},{d})"
        e, f, g, h = u = Mat2(*(rng.randint(-40, 40) for _ in range(4)))
        prod = m * u
        assert type(prod) is Mat2
        assert prod == (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        ms.append(m)
    assert [tuple(m) for m in sorted(ms)] == sorted(tuple(m) for m in ms)


def test_surd_and_cf_are_their_tuples():
    """QuadraticSurd and PeriodicCF, like Mat2, equal and hash as their
    tuples and keep their reprs; surd of a triple scaled by k is the same
    tuple, as a value has one primitive form, on seeded triples."""
    rng = random.Random(33)
    for _ in range(300):
        t = (rng.randint(-40, 40), rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(2, 400))
        if round(t[2] ** 0.5) ** 2 == t[2]:
            continue
        x = surd(*t)
        assert x == tuple(x) and hash(x) == hash(tuple(x))
        assert repr(x) == "QuadraticSurd({},{},{})".format(*x)
        k = rng.randint(2, 10**6)
        y = surd(t[0] * k, t[1] * k, t[2] * k * k)
        assert type(y) is QuadraticSurd and tuple(y) == tuple(x)
        pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 3)))
        cf = PeriodicCF.create(pre, [rng.randint(1, 9) for _ in range(rng.randint(1, 4))])
        assert cf == (cf.preperiod, cf.repetend) and hash(cf) == hash((cf.preperiod, cf.repetend))
        assert repr(cf) == f"PeriodicCF(preperiod={cf.preperiod}, repetend={cf.repetend})"
    assert QuadraticSurd(1, 1, 2) == (1, 1, 2) and QuadraticSurd(2, 2, 8) != (1, 1, 2)


def test_parse_format_mat2():
    assert parse_mat2("12, 1, 17, 2") == Mat2(12, 1, 17, 2)
    assert format_mat2(Mat2(-1, 0, 2, 3)) == "-1,0,2,3"
    with pytest.raises(ValueError):
        parse_mat2("1,2,3")
    with pytest.raises(ValueError):
        parse_mat2("1,2,x,4")


# -- class predicates -------------------------------------------------------------


def test_membership_examples():
    assert in_DB(Mat2(2, 1, 1, 2), 3)
    assert in_DB(Mat2(3, 0, 0, 1), 3)
    assert not in_DB(Mat2(1, 2, 0, 3), 3)  # a > b fails


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_membership_implications(a, b, c, d):
    m = Mat2(a, b, c, d)
    n = det(m)
    if n < 1:
        return
    assert not in_DB(m, n) or in_RB(m, n)
    assert not in_RB(m, n) or in_D(m, n)


def test_check_db_message_names_the_det():
    """_check_db passes a doubly balanced state and raises on a balanced
    one that is not, naming n = det(t) in its message, on seeded states of
    determinants from 1 to the hundreds."""
    rng = random.Random(12)
    dets = set()
    for _ in range(2000):
        top = rng.choice((4, 30))
        a, b, c, d = t = tuple(rng.randint(0, top) for _ in range(4))
        if not (a > c and d > b):  # the kernel hands it balanced states
            continue
        n = a * d - b * c
        if a > b and d > c:
            assert _check_db(t) is None
            continue
        dets.add(n)
        message = f"factorization left {t} balanced but not doubly balanced for n={n};"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            _check_db(t)
    assert len(dets) > 50 and min(dets) < 10 and max(dets) > 300, sorted(dets)


def test_enumerate_DB_small():
    assert enumerate_DB(2) == {Mat2(2, 0, 0, 1), Mat2(1, 0, 0, 2)}
    assert enumerate_DB(3) == {Mat2(3, 0, 0, 1), Mat2(2, 1, 1, 2), Mat2(1, 0, 0, 3)}
    assert len(enumerate_DB(13)) == 13


@pytest.mark.parametrize("n", range(1, 16))
def test_enumerate_DB_matches_brute_force(n):
    """The public set against the sweep over every doubly balanced matrix
    of det up to 300 (tests/references.py)."""
    assert enumerate_DB(n) == set(_doubly_balanced_up_to(300)[n])


def test_enumerate_DB_matches_every_matrix_up_to_300():
    """_enumerate_DB's sorted tuple is the sweep's for every n <= 300 (the
    sweep is built once and shared by the tests that read it)."""
    for n, states in _doubly_balanced_up_to(300).items():
        assert _enumerate_DB(n) == states, n


def _walk_alone(n, monkeypatch):
    """Every state _iter_DB(n) yields, with _enumerate_DB's tuple out of
    reach: the walk must never read it."""

    def build(m):
        raise AssertionError(f"_iter_DB({n}) read DB_{m}'s tuple")

    monkeypatch.setattr(matrices, "_enumerate_DB", build)
    yielded = tuple(_iter_DB(n))
    monkeypatch.undo()
    return yielded


def test_iter_DB_is_enumerate_DB_in_order_up_to_300(monkeypatch):
    """_iter_DB yields DB_n in _enumerate_DB's order, on its own."""
    for n, states in _doubly_balanced_up_to(300).items():
        assert _walk_alone(n, monkeypatch) == _enumerate_DB(n) == states, n


@pytest.mark.parametrize("n", sorted(random.Random(0).sample(range(301, 2001), 3)))
def test_enumerate_DB_matches_pair_loop(n):
    assert _enumerate_DB(n) == _pair_loop_enumerate_DB(n)


@pytest.mark.parametrize("n", [15, 20, 72, 2310, 4096])
def test_iter_DB_walks_all_of_DB_n_alone(n, monkeypatch):
    """The walk yields all of DB_n with no tuple to fall back on: the
    sweep's states up to 300, the pair loop's up to 2,310, and at 4,096,
    where the pair loop is too slow, 6,049 strictly increasing states of
    DB_n."""
    yielded = _walk_alone(n, monkeypatch)
    if n <= 300:
        assert yielded == _doubly_balanced_up_to(300)[n]
    elif n <= 2310:
        assert yielded == _pair_loop_enumerate_DB(n)
    else:
        assert len(yielded) == 6049
        assert all(s < t for s, t in zip(yielded, yielded[1:]))
        assert all(in_DB(Mat2(*s), n) for s in yielded)


@pytest.mark.parametrize("n", [4096, 5040, 65520])
def test_iter_DB_reads_at_most_2n_ln_n_plus_3n_rows(n, monkeypatch):
    """Each row (a, b) the walk reads costs one two-argument gcd(a, b), and
    the balance bound proved in _iter_DB caps the rows at 2n ln n + 3n
    (5040 and 65520 are highly composite, with the most candidates per
    row)."""
    rows = 0

    def counting(*args):
        nonlocal rows
        rows += len(args) == 2
        return gcd(*args)

    monkeypatch.setattr(matrices, "gcd", counting)
    for _ in _iter_DB(n):
        pass
    assert 0 < rows <= 2 * n * math.log(n) + 3 * n, rows


@pytest.mark.parametrize("n", [2310, 4096, 16384])
def test_enumerate_DB_is_DB_n_at_the_search_sizes(n):
    """At the CI search sizes past the pair loop's reach, every tuple that
    _enumerate_DB returns is in DB_n, and the tuples strictly increase (no
    repeats).  The search reads these states without checking them."""
    states = _enumerate_DB(n)
    for a, b, c, d in states:
        assert a * d - b * c == n and a > c >= 0 and d > b >= 0 and a > b and d > c, (a, b, c, d)
        assert gcd(a, b, c, d) == 1, (a, b, c, d)
    assert all(s < t for s, t in zip(states, states[1:]))


# -- LS/RS/LE/RE ----------------------------------------------------------------


def test_ls_rs_examples():
    assert is_LS(Mat2(7, 0, 0, 2))
    assert is_LS(Mat2(7, 0, 1, 2))
    assert not is_LS(Mat2(2, 1, 1, 2))


def test_le_re_examples():
    assert is_LE(Mat2(7, 0, 0, 2))
    assert not is_LE(Mat2(7, 0, 1, 2))  # gcd(7, 2) = 1 forces c = 0
    for n in (2, 5, 9):
        assert is_LE(Mat2(n, 0, 0, 1))


def test_predicates_reject_non_DB():
    for f in (is_LS, is_LE, is_RE):
        with pytest.raises(ValueError):
            f(Mat2(1, 2, 3, 4))


def test_nu_examples():
    assert nu_L(Mat2(7, 0, 0, 2)) == 7
    assert nu_R(Mat2(7, 0, 0, 2)) == 2
    for n in (2, 3, 10):
        assert nu_L(Mat2(n, 0, 0, 1)) == n
        assert nu_R(Mat2(n, 0, 0, 1)) == 1
    with pytest.raises(ValueError):
        nu_L(Mat2(2, 1, 1, 2))


@pytest.mark.parametrize("n", range(2, 31))
def test_nu_L_at_most_n(n):
    for m in enumerate_LE(n):
        if content_gcd(m) == 1:
            assert nu_L(m) <= n


# -- associated / transpose symmetries --------------------------------------------


def test_associated_examples():
    assert associated(Mat2(12, 1, 17, 2)) == Mat2(2, 17, 1, 12)
    assert associated(Mat2(5, 0, 0, 1)) == Mat2(1, 0, 0, 5)
    assert associated(IDENTITY) == IDENTITY


@given(st.tuples(*(st.integers(-9, 9) for _ in range(8))))
def test_associated_is_a_multiplicative_involution(vals):
    m = Mat2(*vals[:4])
    k = Mat2(*vals[4:])
    assert associated(associated(m)) == m
    assert associated(m * k) == associated(m) * associated(k)
    assert det(associated(m)) == det(m)


@pytest.mark.parametrize("n", range(1, 21))
def test_associated_preserves_DB_and_swaps_LE_RE(n):
    db = enumerate_DB(n)
    assert {associated(m) for m in db} == db
    for m in enumerate_LE(n):
        if content_gcd(m) == 1:  # content 2 first occurs at n = 16, outside DB
            assert is_RE(associated(m)) and nu_R(associated(m)) == nu_L(m)


# -- LE / RE enumeration ----------------------------------------------------------


def test_divisors_match_a_full_scan():
    """_divisors(n), trial division to isqrt(n), is the ascending list of
    a scan of 1..n: every n <= 2,000, a power of 2, a highly composite
    number and a prime."""
    for n in list(range(1, 2001)) + [262144, 720720, 1000003]:
        assert _divisors(n) == [t for t in range(1, n + 1) if n % t == 0], n
    assert len(_divisors(720720)) == 240 and _divisors(1000003) == [1, 1000003]


def test_enumerate_LE_examples():
    assert Mat2(7, 0, 0, 2) in enumerate_LE(14)
    assert Mat2(2, 0, 1, 2) in enumerate_LE(4)
    for p in (2, 3, 7, 13):
        assert enumerate_LE(p) == {Mat2(p, 0, 0, 1), Mat2(1, 0, 0, p)}


@pytest.mark.parametrize("n", range(1, 31))
def test_enumerate_LE_vs_DB_filter(n):
    """Content-1 members are exactly the LE filter of DB_n; the parametrized
    family additionally contains matrices with content > 1 (first at n = 16,
    [[4,0],[2,4]]) whenever some gcd(t, n/t) is composite."""
    le = enumerate_LE(n)
    plain = {m for m in le if content_gcd(m) == 1}
    assert plain == {m for m in enumerate_DB(n) if is_LE(m)}
    for m in le - plain:
        k = content_gcd(m)
        reduced = Mat2(m.a // k, m.b // k, m.c // k, m.d // k)
        assert n % (k * k) == 0
        assert is_LE(reduced) and det(reduced) == n // (k * k)


def test_enumerate_LE_content_exception_at_16():
    assert Mat2(4, 0, 2, 4) in enumerate_LE(16)
    assert content_gcd(Mat2(4, 0, 2, 4)) == 2
    assert primitive_part(Mat2(4, 0, -2, 4)) == Mat2(2, 0, -1, 2)
    assert primitive_part(IDENTITY) == IDENTITY


# -- prime counts (also exercised in the acceptance suite) -------------------------


@pytest.mark.parametrize("p", PRIMES_50)
def test_DB_count_is_p_for_primes(p):
    assert len(enumerate_DB(p)) == p
