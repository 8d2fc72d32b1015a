"""LR-word calculus: run structure, mu, conjugacy, primitivity, kappa."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from raneycf.matrices import IDENTITY, J_MAT, Mat2
from raneycf.words import (
    L,
    LRWord,
    R,
    _feed_run,
    conjugates,
    format_word,
    kappa,
    mu,
    primitive_root,
    rotate,
    tau_kappa,
)
from references import (
    EPSILON,
    _Out,
    _brute_root,
    _brute_tau_kappa,
    _validated_rotate,
    parse_word,
    sigma,
    sigma_c,
    star,
    star_letter,
    transpose,
    transpose_word,
    word_from_letters,
    word_from_runs,
)


def words(max_runs=8, max_exp=6):
    """Strategy for canonical LR words (possibly empty)."""

    @st.composite
    def build(draw):
        k = draw(st.integers(0, max_runs))
        first = draw(st.sampled_from([L, R]))
        runs = []
        for i in range(k):
            letter = first if i % 2 == 0 else (R if first == L else L)
            runs.append((letter, draw(st.integers(1, max_exp))))
        return LRWord(tuple(runs))

    return build()


nonempty_words = words().filter(bool)

_EXPS = st.one_of(st.integers(1, 4), st.integers(1, 10**25))


@st.composite
def _big_words(draw):
    """Nonempty canonical words whose exponents may be past sys.maxsize."""
    first = draw(st.sampled_from([L, R]))
    k = draw(st.integers(1, 7))
    return LRWord(tuple((first if i % 2 == 0 else star_letter(first), draw(_EXPS)) for i in range(k)))


# -- construction and text form ---------------------------------------------


def test_canonical_form_rejects_bad_runs():
    # the raw constructor trusts its runs; the tests' word_from_runs,
    # word_from_letters and parse_word validate in word_from_runs alone
    with pytest.raises(ValueError, match="not a letter"):
        word_from_runs((("X", 1),))
    with pytest.raises(ValueError, match="not a letter"):
        word_from_runs(((L, 1), ("X", 2)))
    with pytest.raises(ValueError, match="negative run exponent"):
        word_from_runs(((L, 1), (R, -1)))
    with pytest.raises(ValueError, match="not a letter"):
        word_from_letters("LRX")


def test_from_runs_merges_and_drops():
    assert word_from_runs([(L, 1), (L, 2), (R, 0), (R, 3)]).runs == ((L, 3), (R, 3))


@given(words(), st.integers(0, 5))
def test_power_matches_canonical_repetition(w, k):
    """Powers are built from raw runs, so they must come out canonical
    themselves: the runs word_from_runs builds."""
    p = w**k
    assert p.runs == word_from_runs(w.runs * k).runs


def test_parse_word_both_syntaxes():
    assert parse_word("L^2 R L R^3").runs == ((L, 2), (R, 1), (L, 1), (R, 3))
    assert parse_word("LLRLRRR").runs == ((L, 2), (R, 1), (L, 1), (R, 3))
    assert parse_word("") == EPSILON
    with pytest.raises(ValueError):
        parse_word("LXR")


def test_format_word():
    assert format_word(EPSILON) == "e"
    assert format_word(parse_word("LLRLRRR")) == "L^2RLR^3"


@given(words())
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w)) == w or not w


# -- mu, and its inverse by the kernel's plain peel --------------------------


def test_mu_generators():
    assert mu(parse_word("L")) == Mat2(1, 0, 1, 1)
    assert mu(EPSILON) == IDENTITY
    assert mu(parse_word("L^2RLR^3")) == Mat2(2, 7, 5, 18)


@given(words(), words())
def test_mu_is_a_homomorphism(v, w):
    assert mu(word_from_runs(v.runs + w.runs)) == mu(v) * mu(w)


@given(st.one_of(words(), _big_words()))
def test_mu_word_roundtrip(w):
    """The kernel fed no runs peels mu(w), of det 1, down to the identity
    (a balanced nonnegative matrix of det 1 has a >= c + 1, d >= b + 1, so
    1 = ad - bc >= b + c + 1), and what it peels is w."""
    out = _Out()
    assert _feed_run(mu(w), (), out) == (1, 0, 0, 1)
    assert out.word() == w


# -- runs --------------------------------------------------------------------


def test_sigma_examples():
    assert sigma(parse_word("LLRRRRL")) == 3
    assert sigma(EPSILON) == 0
    assert sigma(parse_word("L^2RLR^3")) == 4


def test_sigma_c_examples():
    assert sigma_c(parse_word("LLRRRRL")) == 2
    assert sigma_c(parse_word("LR")) == 2
    assert sigma_c(parse_word("R^4L")) == 2
    with pytest.raises(ValueError):
        sigma_c(EPSILON)


@given(nonempty_words)
def test_sigma_c_is_min_over_conjugates(w):
    # single-run words are the documented exception: the 2*floor(sigma/2)
    # formula gives 0 there while every conjugate has sigma 1
    if sigma(w) == 1:
        assert sigma_c(w) == 0
    else:
        assert sigma_c(w) == min(sigma(c) for c in conjugates(w))


# -- symmetry operators ------------------------------------------------------


def test_star_examples():
    assert star(parse_word("R^2L^2")) == parse_word("L^2R^2")
    assert star(EPSILON) == EPSILON
    assert star(parse_word("L^2RLR^3")) == parse_word("R^2LRL^3")


@given(words())
def test_star_involution_and_mu_identity(w):
    assert star(star(w)) == w
    assert mu(star(w)) == J_MAT * mu(w) * J_MAT


def test_transpose_word_examples():
    assert transpose_word(parse_word("L")) == parse_word("R")
    assert transpose_word(parse_word("LR")) == parse_word("LR")
    assert transpose_word(parse_word("L^2R^3")) == parse_word("L^3R^2")


@given(words())
def test_transpose_word_matches_matrix_transpose(w):
    assert mu(transpose_word(w)) == transpose(mu(w))
    assert transpose_word(transpose_word(w)) == w


# -- conjugacy and primitivity -----------------------------------------------


def test_conjugates_examples():
    assert conjugates(parse_word("LR")) == {parse_word("LR"), parse_word("RL")}
    assert conjugates(parse_word("LLRR")) == {
        parse_word("LLRR"),
        parse_word("LRRL"),
        parse_word("RRLL"),
        parse_word("RLLR"),
    }
    assert conjugates(parse_word("L^3")) == {parse_word("L^3")}
    with pytest.raises(ValueError):
        conjugates(EPSILON)


@given(nonempty_words, st.integers(-3, 40))
def test_rotate_preserves_length_and_composes(w, k):
    assert len(rotate(w, k)) == len(w)
    assert rotate(rotate(w, k), len(w) - (k % len(w))) == w


def test_rotate_equals_validated_construction():
    cases = {"inside a run": 0, "at a boundary": 0, "seam merges": 0}

    @given(_big_words(), st.integers(0, 10**26), st.booleans())
    @settings(max_examples=300)
    def check(w, k, at_boundary):
        if at_boundary:  # the start of some run
            k = sum(e for _, e in w.runs[: k % len(w.runs)])
        got = rotate(w, k)
        assert got == _validated_rotate(w, k)  # so got's runs are canonical
        starts = {sum(e for _, e in w.runs[:i]) for i in range(len(w.runs))}
        size = sum(e for _, e in w.runs)
        if k % size:
            inside = k % size not in starts
            cases["inside a run" if inside else "at a boundary"] += 1
            # unmerged, the halves hold the runs of w plus the one cut apart
            cases["seam merges"] += len(got.runs) < len(w.runs) + inside

    check()
    assert all(cases.values()), cases
    # a cut inside the first run of an odd-run word: both seams share a letter
    assert rotate(parse_word("R^3LR^2"), 1) == parse_word("R^2LR^3")
    assert rotate(parse_word("R^3LR^2"), 4) == parse_word("R^5L")
    assert rotate(parse_word("L^5"), 2) == parse_word("L^5")


@given(_big_words())
def test_star_equals_validated_construction(w):
    got = star(w)
    assert got == word_from_runs((star_letter(l), e) for l, e in w.runs)


def test_words_longer_than_maxsize():
    # len() cannot return these lengths; letters are counted on the runs
    w = LRWord(((R, 10**23), (L, 10**23)))
    assert rotate(w, 10**23 + 5) == LRWord(((L, 10**23 - 5), (R, 10**23), (L, 5)))
    assert rotate(w, 2 * 10**23) == w
    assert primitive_root(w**3) == (w, 3)


def test_primitive_root_examples():
    assert primitive_root(parse_word("LRLR")) == (parse_word("LR"), 2)
    assert primitive_root(parse_word("LLR")) == (parse_word("LLR"), 1)
    assert primitive_root(parse_word("R^3L^3") ** 2) == (parse_word("R^3L^3"), 2)
    assert primitive_root(parse_word("L^5")) == (parse_word("L"), 5)
    with pytest.raises(ValueError):
        primitive_root(EPSILON)


@given(nonempty_words, st.integers(1, 5))
def test_primitive_root_fine_wilf(u, j):
    """If V = U^j then j divides the multiplicity of V's primitive root."""
    root, mult = primitive_root(u**j)
    assert mult % j == 0
    assert root ** (mult // j) == u


@given(nonempty_words)
def test_primitive_root_reconstructs(w):
    root, mult = primitive_root(w)
    assert root**mult == w
    assert primitive_root(root) == (root, 1)
    assert (root, mult) == _brute_root(w)


# -- kappa and tau_kappa -----------------------------------------------------


def test_kappa_examples():
    assert kappa(parse_word("LR^10L^55"), 10) == parse_word("L^41R^40L^45")
    assert kappa(parse_word("L^8"), 2) == parse_word("L^8")
    assert kappa(parse_word("R"), 2) == parse_word("R^9")
    with pytest.raises(ValueError):
        kappa(EPSILON, 3)


@given(nonempty_words, st.integers(1, 9))
def test_kappa_preserves_runs_and_is_idempotent(w, n):
    k = kappa(w, n)
    assert sigma(k) == sigma(w)
    assert kappa(k, n) == k
    assert all(4 * n <= e < 5 * n and e % n == eo % n
               for (_, e), (_, eo) in zip(k.runs, w.runs))


def test_tau_kappa_examples():
    assert tau_kappa(parse_word("LR"), 1) == conjugates(parse_word("L^4R^4"))
    assert tau_kappa(parse_word("RL"), 1) == tau_kappa(parse_word("LR"), 1)
    assert tau_kappa(parse_word("R^3L^3"), 2) == conjugates(parse_word("L^9R^9"))
    with pytest.raises(ValueError):
        tau_kappa(parse_word("L^4"), 2)


def test_tau_kappa_matches_definition():
    rng = random.Random(0)
    for _ in range(300):
        first = rng.choice((L, R))
        runs = [(first if i % 2 == 0 else star_letter(first), rng.randint(1, 9))
                for i in range(rng.randint(2, 7))]
        w, n = LRWord(tuple(runs)), rng.randint(1, 6)
        assert tau_kappa(w, n) == _brute_tau_kappa(w, n), (w, n)
