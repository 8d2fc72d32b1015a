"""Quadratic surd oracle: expansion, periods, exact Moebius application."""
import random
import sys
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from raneycf.matrices import IDENTITY, J_MAT, L_MAT, Mat2, R_MAT, content_gcd, det, inverse_times_det
from raneycf.surds import (
    PeriodicCF,
    QuadraticSurd,
    _preperiod_bound,
    _primitive_period,
    apply_mobius,
    approx,
    cf_from_surd,
    conjugate_approx,
    floor_surd,
    format_cf,
    image_surd,
    parse_cf,
    per,
    surd,
    surd_from_cf,
)
from raneycf.transducer import image_period

X3 = parse_cf(
    "[-1,1,11;7,1,6,8,399,8,6,1,7,3,2,7,1,2,1,1,7,1,1,2,1,7,2,3]"
)

cfs = st.builds(
    PeriodicCF.create,
    st.lists(st.integers(1, 30), min_size=0, max_size=3),
    st.lists(st.integers(1, 30), min_size=1, max_size=6),
)


def surds():
    @st.composite
    def build(draw):
        cf = draw(cfs)
        return surd_from_cf(cf)

    return build()


# -- representation ----------------------------------------------------------


def test_surd_validation():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 0, 2)
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 4)  # perfect square
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, -2)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 3, 3)  # 3 does not divide 3 - 1


def test_surd_factory_rescales():
    x = surd(1, 3, 3)  # (1 + sqrt 3)/3 -> (3 + sqrt 27)/9
    assert (x.P, x.Q, x.D) == (3, 9, 27)
    x = surd(1, -3, 3)  # (1 + sqrt 3)/-3 -> (3 + sqrt 27)/-9
    assert (x.P, x.Q, x.D) == (3, -9, 27)


def _reference_surd(P, Q, D):
    """surd's normal form with two divisions: a remainder test, then the
    rescaled quotient (D - P^2)/Q."""
    if (D - P * P) % Q:
        k = abs(Q)
        P, Q, D = P * k, Q * k, D * k * k
    g = gcd(P, Q, (D - P * P) // Q)
    return P // g, Q // g, D // (g * g)


def test_surd_matches_the_two_division_reference():
    """surd's one divmod gives the two-division normal form, for either
    sign of Q, with and without a rescale, with and without a content
    to divide out."""
    rng = random.Random(32)
    seen = set()
    for _ in range(20000):
        big = 10 ** rng.randint(1, 30)
        Q = rng.choice((1, -1)) * rng.randint(1, big)
        P = rng.randint(-big, big)
        D = rng.randint(2, big) ** 2 + rng.randint(1, big)
        if rng.random() < 0.5:  # Q | D - P^2, and often a content g > 1
            g, m = rng.randint(1, 50), rng.randint(1, big) * (1 if Q > 0 else -1)
            P, Q, D = P * g, Q * g, (P * P + Q * m) * g * g
        if isqrt(D) ** 2 == D:
            continue
        x = surd(P, Q, D)
        assert (x.P, x.Q, x.D) == _reference_surd(P, Q, D), (P, Q, D)
        divides = (D - P * P) % Q == 0
        seen.add((Q > 0, divides, x.Q != (Q if divides else Q * abs(Q))))  # g > 1
    assert len(seen) == 8


def _surd_content(x):
    return gcd(x.P, x.Q, (x.D - x.P * x.P) // x.Q)


def test_oracle_surds_are_primitive():
    """surd_from_cf and apply_mobius return primitive forms on inputs with
    preperiods, and a rescaled surd has the same form and expansion."""
    rng = random.Random(20261018)
    for _ in range(300):
        big = 10 ** rng.randint(1, 6)
        pre = [rng.randint(-big, big)] + [rng.randint(1, big) for _ in range(rng.randint(0, 4))]
        cf = PeriodicCF.create(pre, [rng.randint(1, big) for _ in range(rng.randint(1, 5))])
        x = surd_from_cf(cf)
        assert _surd_content(x) == 1
        m = Mat2(*(rng.randint(-60, 60) for _ in range(4)))
        if det(m) == 0:
            continue
        y = apply_mobius(m, x)
        assert _surd_content(y) == 1
        k = rng.randint(2, 10**6)
        z = surd(y.P * k, y.Q * k, y.D * k * k)
        assert (z.P, z.Q, z.D) == (y.P, y.Q, y.D)
        assert cf_from_surd(QuadraticSurd(y.P * k, y.Q * k, y.D * k * k)) == cf_from_surd(y)


def test_value_equality_across_scalings():
    assert surd(1, 1, 2) == surd(2, 2, 8)
    assert surd(1, 1, 2) != surd(-1, -1, 2)
    assert hash(surd(1, 1, 2)) == hash(surd(2, 2, 8))


@given(surds(), st.integers(-20, 20), st.integers(1, 9))
def test_floor_matches_rational_approximation(x, p, q):
    y = apply_mobius(Mat2(q, p, 0, q), x)  # x + p/q keeps sign variety
    assert floor_surd(y) == approx(y, 40).__floor__()


def test_floor_negative_Q():
    x = QuadraticSurd(-1, -1, 2)  # 1 - sqrt 2 = -0.414...
    assert floor_surd(x) == -1


# -- continued fractions -----------------------------------------------------


def test_cf_from_surd_examples():
    assert cf_from_surd(surd(1, 1, 2)) == parse_cf("[;2]")
    assert cf_from_surd(surd(0, 1, 2)) == parse_cf("[1;2]")
    assert per(cf_from_surd(surd_from_cf(X3))) == 24


# Reference: the textbook per-step expansion, with a validated QuadraticSurd
# and a fresh isqrt per step, the next Q by division, and a dict of every (P, Q).
def _reference_cf_from_surd(x: QuadraticSurd) -> PeriodicCF:
    P, Q, D = x.P, x.Q, x.D
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quotients)
        a = floor_surd(QuadraticSurd(P, Q, D))
        quotients.append(a)
        P1 = a * Q - P
        P, Q = P1, (D - P1 * P1) // Q
    s = seen[(P, Q)]
    return PeriodicCF.create(quotients[:s], quotients[s:])


@st.composite
def direct_surds(draw):
    """(P + sqrt(D))/Q with either sign of Q and D nonsquare below ~10^5,
    which keeps the period short."""
    P = draw(st.integers(-(10**6), 10**6))
    Q = draw(st.integers(-1000, 1000).filter(bool))
    D0 = draw(st.integers(2, 10**5))
    D = D0 + (P * P - D0) % abs(Q)  # the least D >= D0 with Q | D - P^2
    assume(isqrt(D) ** 2 != D)
    return QuadraticSurd(P, Q, D)


# preperiods with an optional signed head down to -10^6, quotients to 10^6
wide_cfs = st.builds(
    lambda head, tail, rep: PeriodicCF.create(head + tail, rep),
    st.lists(st.integers(-(10**6), 10**6), max_size=1),
    st.lists(st.integers(1, 10**6), max_size=3),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=4),
)


@st.composite
def mobius_images(draw):
    """h_M(x) for M with 0 < |det M| <= 4096 and x over wide continued fractions."""
    m = Mat2(*(draw(st.integers(-64, 64)) for _ in range(4)))
    assume(0 < abs(det(m)) <= 4096)
    return apply_mobius(m, surd_from_cf(draw(wide_cfs)))


oracle_inputs = st.one_of(
    direct_surds(),
    direct_surds().filter(lambda x: x.Q < 0),
    wide_cfs.map(surd_from_cf),
    mobius_images(),
)


@given(oracle_inputs)
@settings(max_examples=300, deadline=None)
def test_cf_from_surd_matches_reference(x):
    assert cf_from_surd(x) == _reference_cf_from_surd(x)


@given(oracle_inputs)
@settings(max_examples=300, deadline=None)
def test_cf_from_surd_is_normal_within_bound(x):
    cf = cf_from_surd(x)
    assert len(cf.preperiod) <= _preperiod_bound(x.Q, isqrt(x.D))
    assert PeriodicCF.create(cf.preperiod, cf.repetend) == cf


def _oracle_sweep(seed, count):
    """Seeded (m, cf) pairs for the gate's oracle: either sign of det m,
    content 1 to 6, preperiods of 0-4 quotients with a signed head half the
    time, and quotients up to 9, 10^6, 2^64 + 7 or 2^90."""
    rng = random.Random(seed)
    while count:
        top = rng.choice((9, 10**6, 2**64 + 7, 2**90))
        rep = [rng.randint(1, top) for _ in range(rng.randint(1, 5))]
        pre = [rng.randint(1, top) for _ in range(rng.randint(0, 4))]
        if pre and rng.random() < 0.5:
            pre[0] = rng.randint(-top, top)
        g = rng.choice((1, 1, 2, 6))
        m = Mat2(*(g * rng.randint(-30, 30) for _ in range(4)))
        if det(m):
            count -= 1
            yield (m * J_MAT if rng.random() < 0.5 else m), PeriodicCF.create(pre, rep)


def _normalised_thrice(m, cf):
    """h_m(cf) by three normalised steps: the repetend's fixed point
    (a - d + sqrt(disc))/(2c), then the preperiod's convergent matrix, then
    m, each through surd."""
    a, b, c, d = IDENTITY
    for q in cf.repetend:
        a, b, c, d = a * q + b, a, c * q + d, c
    y = surd(a - d, 2 * c, (a + d) ** 2 - 4 * (a * d - b * c))
    if cf.preperiod:
        p = IDENTITY
        for q in cf.preperiod:
            p = p * Mat2(q, 1, 1, 0)
        y = apply_mobius(p, y)
    return apply_mobius(m, y)


def test_image_surd_is_one_mobius_step_of_the_three():
    """The gate's oracle surd, h_{m P}(y) normalised once, equals h_m of
    surd_from_cf(cf), and the three normalised steps, as a value and in its
    primitive form; surd_from_cf is image_surd by the identity."""
    seen = dict.fromkeys(("det < 0", "content > 1", "negative head", "past 2^63"), 0)
    for m, cf in _oracle_sweep(30, 400):
        x = image_surd(m, cf)
        for ref in (apply_mobius(m, surd_from_cf(cf)), _normalised_thrice(m, cf)):
            assert x == ref and (x.P, x.Q, x.D) == (ref.P, ref.Q, ref.D), (m, cf)
        assert _surd_content(x) == 1
        y, ref = surd_from_cf(cf), _normalised_thrice(IDENTITY, cf)
        assert (y.P, y.Q, y.D) == (ref.P, ref.Q, ref.D), cf
        seen["det < 0"] += det(m) < 0
        seen["content > 1"] += content_gcd(m) > 1
        seen["negative head"] += bool(cf.preperiod) and cf.preperiod[0] < 0
        seen["past 2^63"] += max(cf.repetend) >= 2**63
    assert all(seen.values()), seen
    with pytest.raises(ValueError, match="singular"):
        image_surd(Mat2(1, 2, 2, 4), parse_cf("[-3,1;2]"))


def test_cf_from_surd_result_is_its_own_normal_form():
    """cf_from_surd builds its result unvalidated: on the gate's oracle
    surds and the inputs' own surds it equals PeriodicCF.create of its own
    two parts, which validates and normalises, and the reference
    expansion."""
    for m, cf in _oracle_sweep(31, 200):
        for x in (image_surd(m, cf), surd_from_cf(cf)):
            out = cf_from_surd(x)
            assert out == PeriodicCF.create(out.preperiod, out.repetend), (m, cf)
            assert type(out.preperiod) is tuple and type(out.repetend) is tuple
            assert out == _reference_cf_from_surd(x), (m, cf)
        assert cf_from_surd(surd_from_cf(cf)) == cf


def test_cf_from_surd_period_1000_is_fast():
    rng = random.Random(20260824)
    cf = PeriodicCF.create([], [rng.randint(1, 50) for _ in range(1000)])
    m = Mat2(12, 1, 17, 2)
    x = surd_from_cf(cf)
    t0 = time.monotonic()
    back = cf_from_surd(x)
    image = cf_from_surd(apply_mobius(m, x))
    elapsed = time.monotonic() - t0
    assert back == cf
    assert per(image) == image_period(m, cf)
    assert elapsed < 1, f"took {elapsed:.2f}s, budget 1s"


def test_cf_from_surd_matches_reference_on_a_long_image():
    """An image with thousands of repetend quotients, D of 5,000 bits."""
    rng = random.Random(1)
    cf = PeriodicCF.create([], [rng.randint(1, 20) for _ in range(800)])
    x = apply_mobius(Mat2(5, 3, 7, 2), surd_from_cf(cf))
    image = cf_from_surd(x)
    assert per(image) >= 3000
    assert image == _reference_cf_from_surd(x)


def test_cf_from_surd_matches_reference_past_2_64():
    """Reduced cycles whose quotients pass 2^64, and their images."""
    rng = random.Random(64)
    for _ in range(40):
        rep = [rng.choice((rng.randint(1, 9), 2**64 + rng.randint(-5, 5), rng.randint(2**64, 2**90)))
               for _ in range(rng.randint(1, 12))]
        cf = PeriodicCF.create([], rep)
        x = surd_from_cf(cf)
        assert cf_from_surd(x) == _reference_cf_from_surd(x) == cf
        m = Mat2(*(rng.randint(-30, 30) for _ in range(4)))
        if det(m):
            y = apply_mobius(m, x)
            assert cf_from_surd(y) == _reference_cf_from_surd(y)


@pytest.mark.parametrize("offset, first", [(-1, 1), (0, 2)])
def test_cf_from_surd_at_the_one_quotient_boundary(offset, first):
    """Reduced surds (P + sqrt(D))/Q with P + isqrt(D) = 2Q - 1, whose
    quotient is 1 with remainder Q - 1, and P + isqrt(D) = 2Q, whose
    quotient is 2 with remainder 0: the edges of the reduced loop's a = 1
    branch."""
    rng = random.Random(offset)
    for _ in range(200):
        r = rng.randint(3, 3000)
        Q = rng.randint((2 * r - offset) // 3 + 1, r)  # 2r < 3Q + offset, Q <= r
        P = 2 * Q + offset - r
        D = r * r + 1 + (P * P - r * r - 1) % Q  # r^2 < D <= r^2 + Q < (r + 1)^2
        assert isqrt(D) == r and (D - P * P) % Q == 0
        assert Q > 0 and P <= r < P + Q and Q - P <= r  # reduced
        x = QuadraticSurd(P, Q, D)
        cf = cf_from_surd(x)
        assert (cf.preperiod, cf.repetend[0]) == ((), first)
        assert cf == _reference_cf_from_surd(x)


def test_per_examples():
    assert per(parse_cf("[;3]")) == 1
    assert per(parse_cf("[;200]")) == 1
    assert per(X3) == 24


def test_periodiccf_normalization():
    assert PeriodicCF.create([], [2, 2, 2]).repetend == (2,)
    cf = PeriodicCF.create([4], [1, 4])
    assert cf.preperiod == () and cf.repetend == (4, 1)
    with pytest.raises(ValueError):
        PeriodicCF((), ())
    with pytest.raises(ValueError):
        PeriodicCF((), (0,))
    with pytest.raises(ValueError):
        PeriodicCF((1, 0), (2,))


def _reference_primitive_period(seq):
    """The least cyclic period of seq by a scan over every p <= len/2 that
    divides its length, each tested by repeating seq[:p]."""
    n = len(seq)
    for p in range(1, n // 2 + 1):
        # seq[p : 2p] == seq[:p] rules out most p before the full comparison
        if not n % p and seq[p : 2 * p] == seq[:p] and seq[:p] * (n // p) == seq:
            return p
    return n


def _powers(rng, length, alphabet):
    """Seeded sequences of the given length: for each of a few divisors d,
    a random root of length d over the alphabet repeated length / d times,
    and the same with one entry changed."""
    divisors = [d for d in range(1, length + 1) if length % d == 0]
    for d in rng.sample(divisors, min(len(divisors), 3)):
        seq = [rng.choice(alphabet) for _ in range(d)] * (length // d)
        yield seq
        seq = list(seq)
        seq[rng.randrange(length)] = rng.choice(alphabet)
        yield seq


def test_primitive_period_matches_the_reference_scan():
    """_primitive_period agrees with the reference scan on seeded powers and
    near-powers, as tuples and as lists: every length 1-200, prime lengths
    up to 1009, quotients past 2^64, and long powers of short roots."""
    rng = random.Random(97)
    big = [2**64 + k for k in (0, 1, 7)]
    primes = [2, 3, 5, 7, 11, 13, 97, 199, 211, 997, 1009]
    cases = []
    for length in range(1, 201):
        cases += _powers(rng, length, (1, 2) if length % 3 else (1, 2, 3, 4, 50))
        cases += _powers(rng, length, big)
    for p in primes:
        cases += [[1] * p, [1] * (p - 1) + [2], [rng.choice(big) for _ in range(p)]]
    cases += [[1, 2] * 2048, [1] * 4095 + [2], [3, 1, 4] * 343, list(range(720)) * 6]
    for seq in cases:
        expected = _reference_primitive_period(seq)
        assert _primitive_period(seq) == _primitive_period(tuple(seq)) == expected, seq[:12]


class _SliceCounter(tuple):
    """A tuple that counts the entries of the slices taken of it: what a
    least-period search compares, at C level."""

    def __getitem__(self, i):
        item = tuple.__getitem__(self, i)
        if isinstance(i, slice):
            self.sliced += len(item)
        return item


def _sliced(seq):
    """(the least period of seq, the entries sliced to find it)."""
    seq = _SliceCounter(seq)
    seq.sliced = 0
    return _primitive_period(seq), seq.sliced


def test_primitive_period_compares_within_the_current_period():
    """A step from the current period q to q / f compares seq[q/f:q] with
    seq[:q - q/f], 2 (q - q/f) entries, so the steps taken from len(seq)
    down to the least period p telescope to 2 (len(seq) - p) entries: O(n)
    for a high power, where comparing whole shifts of seq would take
    2 len(seq) per step.  A step that fails past its entry test,
    seq[q/f] == seq[0], adds its own 2 (q - q/f); a sequence whose first
    entry never repeats is settled by entry tests alone."""
    assert _sliced((1, 2) * 2048) == (2, 2 * (4096 - 2))
    assert _sliced([1] * 720) == (1, 2 * (720 - 1))
    assert _sliced((3, 1, 4) * 343) == (3, 2 * (1029 - 3))
    # 1050 = 2 * 3 * 5^2 * 7: at q = 35, the step to 7 passes its entry test
    # (seq[7] == seq[0] == 1) and fails, 2 * 28 entries
    assert _sliced((1, 2, 1, 1, 2) * 210) == (5, 2 * (1050 - 5) + 2 * 28)
    assert _sliced(tuple(range(4096))) == (4096, 0)


def test_surd_from_cf_examples():
    assert surd_from_cf(parse_cf("[;2]")) == surd(1, 1, 2)
    assert surd_from_cf(parse_cf("[;3]")) == surd(3, 2, 13)


@given(cfs)
@settings(max_examples=300)
def test_cf_surd_roundtrip(cf):
    assert cf_from_surd(surd_from_cf(cf)) == cf


@given(cfs)
def test_galois_pure_periodicity(cf):
    """Purely periodic CF iff x > 1 and the conjugate lies in (-1, 0)."""
    x = surd_from_cf(cf)
    pure = not cf.preperiod
    big = approx(x, 25) > 1
    conj = conjugate_approx(x, 25)
    assert pure == (big and -1 < conj < 0)


# -- Moebius application ------------------------------------------------------


def test_apply_mobius_identity_and_scaling():
    x = surd(1, 1, 2)
    assert apply_mobius(IDENTITY, x) == x
    y = apply_mobius(Mat2(2, 0, 0, 1), x)  # 2 + 2*sqrt(2)
    cf = cf_from_surd(y)
    assert per(cf) == 2
    assert cf == parse_cf("[;4,1]")


def test_apply_mobius_intro_example():
    n = Mat2(12, 1, 17, 2)
    assert per(cf_from_surd(apply_mobius(n, surd_from_cf(parse_cf("[;3]"))))) == 6


def test_apply_mobius_rejects_singular():
    with pytest.raises(ValueError):
        apply_mobius(Mat2(1, 2, 2, 4), surd(1, 1, 2))


@given(
    surds(),
    st.tuples(*(st.integers(-6, 6) for _ in range(8))),
)
def test_apply_mobius_composition(x, vals):
    m1, m2 = Mat2(*vals[:4]), Mat2(*vals[4:])
    if det(m1) == 0 or det(m2) == 0:
        return
    assert apply_mobius(m1 * m2, x) == apply_mobius(m1, apply_mobius(m2, x))


@given(surds())
def test_unimodular_maps_preserve_period(x):
    p = per(cf_from_surd(x))
    for u in (L_MAT, R_MAT, inverse_times_det(L_MAT), inverse_times_det(R_MAT)):
        assert per(cf_from_surd(apply_mobius(u, x))) == p


@given(surds())
def test_float_shadow(x):
    """The surd value agrees with evaluating a long CF prefix to 1e-9."""
    cf = cf_from_surd(x)
    qs = list(cf.preperiod)
    while len(qs) < 25:
        qs.extend(cf.repetend)
    val = Fraction(qs[-1])
    for q in reversed(qs[:-1]):
        val = q + 1 / val
    assert abs(approx(x, 30) - val) < Fraction(1, 10**9)


# -- text formats --------------------------------------------------------------


def test_parse_format_cf():
    assert format_cf(parse_cf("[;3]")) == "[;3]"
    assert parse_cf("[-1, 1, 11; 7, 1]").preperiod == (-1, 1, 11)
    for bad in ("[1,2]", "3", "[1;]", "[a;2]"):
        with pytest.raises(ValueError):
            parse_cf(bad)


def test_format_cf_matches_str_of_each_quotient():
    """format_cf, whose quotients 0-1023 come from a table, writes what
    str() writes: at the table's edges, on negative and zero heads and on
    quotients of 5,001 digits, which raise the interpreter's int/str
    ValueError as str() does unless the limit is lifted."""

    def old(cf):
        return f"[{','.join(map(str, cf.preperiod))};{','.join(map(str, cf.repetend))}]"

    edges = [1, 2, 9, 10, 99, 100, 1022, 1023, 1024, 1025, 2**63, 10**40]
    rng = random.Random(1023)
    cases = [PeriodicCF((h,), (q,)) for h in (0, -1, -1023, -1024, 1023, 1024) for q in edges]
    for _ in range(300):
        head = [rng.choice([0, -5, -2000] + edges)] if rng.random() < 0.5 else []
        pre = head + [rng.choice(edges) for _ in range(rng.randint(0, 3))]
        cases.append(PeriodicCF(tuple(pre), tuple(rng.choice(edges) for _ in range(rng.randint(1, 6)))))
    for cf in cases:
        assert format_cf(cf) == old(cf), cf
    huge = PeriodicCF((-(10**5000),), (3, 10**5000))
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ValueError):
                old(huge)
            with pytest.raises(ValueError):
                format_cf(huge)
            sys.set_int_max_str_digits(0)
            assert format_cf(huge) == old(huge)
        finally:
            sys.set_int_max_str_digits(limit)
