"""Transducer construction, the escape kernel, transduction of periodic
input, LE walks, search.  The references these tests compare against
are in tests/references.py."""
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from raneycf import words
from raneycf.cli import _same_cycle
from raneycf.matrices import (
    Mat2,
    _balanced,
    _check_db,
    _enumerate_DB,
    _hermite,
    _primitive_forms,
    det,
    enumerate_DB,
    in_DB,
    in_RB,
)
from raneycf.surds import PeriodicCF, _primitive_period, parse_cf, per, surd_from_cf, apply_mobius, cf_from_surd
from raneycf.transducer import (
    _close_cycle,
    _enter,
    _hermite_start,
    _key_step,
    build_transducer,
    image_period,
    image_repetend,
    lr_cycle_to_period,
    lr_repetend,
    reduce_to_DB,
    search_max_ratio,
    transduce_cycle,
)
from raneycf.words import L, R, LRWord, _cyclic_runs, _feed_run, format_word, mu, rotate
from references import (
    _Out,
    _RunsOut,
    _brute_root,
    _db_states,
    _emit,
    _escape,
    _log_uniform,
    _mul,
    _psi,
    _random_unimodular,
    _reference_block_cycle,
    _reference_close_cycle,
    _reference_cycle_period,
    _reference_enter,
    _reference_feed_run,
    _reference_hermite_start,
    _reference_key_cycle,
    _reference_peel,
    _reference_search_max_ratio,
    _reference_transduce_cycle,
    enumerate_LE,
    is_RE,
    nu_L,
    nu_R,
    parse_word,
    random_word,
    sigma,
    star,
    star_letter,
    walk_LE,
    word_from_letters,
    word_from_runs,
)

A2 = Mat2(2, 0, 0, 1)
A2S = Mat2(1, 0, 0, 2)


# -- construction ----------------------------------------------------------------


def test_transducer_T1():
    t = build_transducer(1)
    assert t.states == frozenset({Mat2(1, 0, 0, 1)})
    labels = {(format_word(e.input), format_word(e.output)) for e in t.edges}
    assert labels == {("L", "L"), ("R", "R")}


@pytest.mark.parametrize("n", range(1, 9))
def test_edges_are_consistent(n):
    t = build_transducer(n)
    assert t.states == frozenset(enumerate_DB(n))
    for e in t.edges:
        assert e.src * mu(e.input) == mu(e.output) * e.dst
        assert in_DB(e.src, n) and in_DB(e.dst, n)


# -- periodic transduction ---------------------------------------------------------


def test_transduce_cycle_examples():
    walk = transduce_cycle(2, A2, parse_word("R^2L^2"))
    assert walk.gamma == 1
    assert walk.output == parse_word("R^4L")
    walk2 = transduce_cycle(2, A2S, parse_word("L^2R^2"))
    assert walk2.output == parse_word("L^4R")


def test_transduce_cycle_closure_identity():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 9)
        start = rng.choice(sorted(enumerate_DB(n)))
        rep = random_word(rng, min_runs=2)
        walk = transduce_cycle(n, start, rep)
        assert walk.start * mu(walk.input) == mu(walk.output) * walk.start
        assert walk.input == rep**walk.gamma
        # gamma is bounded by the number of balanced det-n matrices the
        # boundary can land on (mid-edge states included), hence finite;
        # with whole-edge alignment it would be <= #DB_n
        assert walk.gamma >= 1


def test_transduce_cycle_matches_per_pass_concatenation():
    """Against _reference_transduce_cycle: one fresh accumulator per pass,
    the cycle's passes joined."""
    rng = random.Random(29)
    seen = {"gamma>=2": 0, "idx>0": 0, "straddle": 0}
    for _ in range(400):
        n = rng.randint(1, 30)
        start = rng.choice(sorted(enumerate_DB(n)))
        rep = random_word(rng, max_runs=6, max_exp=9, min_runs=2)
        if len({l for l, _ in rep.runs}) < 2:
            continue
        idx, gamma, output, straddles = _reference_transduce_cycle(start, rep)
        walk = transduce_cycle(n, start, rep)
        assert (walk.gamma, walk.output) == (gamma, output)
        seen["gamma>=2"] += gamma >= 2
        seen["idx>0"] += idx > 0
        seen["straddle"] += straddles
    assert all(seen.values()), seen


def _unbalanced_D_n():
    """Nonnegative matrices of positive determinant that are not row
    balanced: mu(w) times a DB_n state for a nonempty word w, or drawn
    entry by entry."""

    def build(n, pick, exps):
        states = _db_states(n)
        w = word_from_runs((R if i % 2 else L, e) for i, e in enumerate(exps))
        return mu(w) * states[pick % len(states)]

    exp = st.one_of(st.integers(1, 5), st.integers(1, 10**6))
    built = st.builds(build, st.integers(1, 40), st.integers(0, 10**6), st.lists(exp, min_size=1, max_size=6))
    entry = st.one_of(st.integers(0, 30), st.integers(0, 10**9))
    drawn = st.tuples(entry, entry, entry, entry).filter(
        lambda t: t[0] * t[3] > t[1] * t[2] and not _balanced(t)
    )
    return st.one_of(built, drawn)


@given(_unbalanced_D_n(), st.sampled_from((None, (), ((L, 2),), ((R, 1), (L, 3)))))
@settings(max_examples=300, deadline=None)
def test_peel_only_kernel_matches_reference_peel(t, prior):
    """The kernel with no letters to absorb is the plain peel: same state,
    same output merged into whatever out already holds, and no check."""
    if prior is None:
        assert _feed_run(t, (), _Out()) == _reference_peel(t, None)
        return
    out, ref = _Out(), _Out()
    for r in prior:
        _emit(out, *r)
        _emit(ref, *r)
    assert _feed_run(t, (), out) == _reference_peel(t, ref)
    assert out.word() == ref.word()


@given(st.integers(1, 60), st.integers(0, 10**6), st.sampled_from((L, R)), st.booleans())
@settings(max_examples=300, deadline=None)
def test_single_step_kernel_matches_reference_peel(n, pick, letter, with_out):
    """One escape from a DB_n state through the kernel against absorbing up
    to the escape, then the reference peel and _check_db."""
    states = _db_states(n)
    s = states[pick % len(states)]
    k0 = _escape(s, letter)
    ref_out = _Out()
    ref = _reference_peel(_mul(s, letter, k0), ref_out)
    _check_db(ref)
    out = _Out()
    assert _feed_run(s, ((letter, k0),), out) == ref
    if with_out:
        assert out.runs == ref_out.runs


def test_feed_run_matches_reference():
    """The run-feeding kernel against the one-call-per-step reference, from
    DB states and from states part way into an edge, with the output
    compared or not (an accumulator that may already hold runs), for counts
    up to 10**30.  Some runs are cut to escape exactly once, and the rest escape
    any number of times.  Some start from a state with b = 0 (for an L-run)
    or c = 0 (for an R-run), or part way into its edge: the states of the
    single-letter loops, whose escapes the reference fast-forwards."""
    fast_forwards = {True: 0, False: 0}  # by whether the output is compared
    escapes_seen = {0: 0, 1: 0, 2: 0}  # runs by escapes taken: 0, 1, 2 or more
    loop_starts = {True: 0, False: 0}  # on_loop draws, by whether mid-edge

    @given(
        st.integers(1, 60),
        st.integers(0, 10**6),
        st.sampled_from((L, R)),
        st.integers(0, 10**6),
        st.sampled_from((L, R)),
        st.one_of(st.integers(1, 50), st.integers(1, 10**6), st.integers(1, 10**30)),
        st.sampled_from((None, (), ((L, 2),), ((R, 1), (L, 3)))),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def check(n, pick, pre_letter, pre_k, letter, count, prior, once, on_loop):
        states = _db_states(n)
        if on_loop:  # b = 0 for L, c = 0 for R; absorbing the letter keeps it
            states = [s for s in states if s[1 if letter == L else 2] == 0]
            pre_letter = letter
        t = states[pick % len(states)]
        t = _mul(t, pre_letter, pre_k % _escape(t, pre_letter))  # mid-edge when > 0
        if on_loop:
            loop_starts[not (t[0] > t[1] and t[3] > t[2])] += 1
        if once:  # past the first escape, short of the second
            k0 = _escape(t, letter)
            landed = _reference_feed_run(t, letter, k0, None)[0]
            count = k0 + count % _escape(landed, letter)
        if prior is None:
            end = _feed_run(t, ((letter, count),), _Out())
            ref, ff, escapes, _ = _reference_feed_run(t, letter, count, None)
            assert end == ref
        else:
            out, ref_out = _Out(), _Out()
            for r in prior:
                _emit(out, *r)
                _emit(ref_out, *r)
            end = _feed_run(t, ((letter, count),), out)
            ref, ff, escapes, _ = _reference_feed_run(t, letter, count, ref_out)
            assert (end, out.word()) == (ref, ref_out.word())
        assert escapes == 1 or not once
        fast_forwards[prior is not None] += ff
        escapes_seen[min(escapes, 2)] += 1

    check()
    assert all(fast_forwards.values()), fast_forwards
    assert all(escapes_seen.values()), escapes_seen
    assert all(loop_starts.values()), loop_starts


@pytest.fixture
def checked(monkeypatch):
    """The states the kernel hands _check_db, in order, each still checked."""
    calls = []

    def record(t):
        calls.append(t)
        _check_db(t)

    monkeypatch.setattr(words, "_check_db", record)
    return calls


def _rebuilt_escape(letter, t):
    """The last escape of a run of `letter` that escaped and ended at t,
    rebuilt as _feed_run's check rebuilds it: the doubly balanced state the
    rest of the run, letter^j with no escape, carried to t."""
    a, b, c, d = t
    if letter == L:
        return (a - b * (c // d), b, c % d, d)
    return (a, b % a, c, d - c * (b // a))


def test_whole_run_kernel_matches_reference_run_by_run(checked):
    """Whole blocks of runs through the kernel in one call against
    _reference_feed_run fed one run at a time, escape by escape: from
    primitive Hermite forms, DB_n states and states part way into an edge,
    for n = 1 up to 4096, counts past 2^64, into an output accumulator that
    may already hold runs.  The end state is the reference's, and so is the
    output word in the draws that feed the reference one.  The same runs fed to the kernel one call
    per run end where the reference does after each run, and the rebuild
    of the kernel's check on the end state of each run that escapes is the
    reference's last escape, which the reference checks is in DB_n.  On
    these valid inputs the kernel's inline check passes every run, so it
    never calls _check_db (block mode included);
    test_kernel_check_raises_outside_its_precondition covers the calls."""
    rng = random.Random(2019)
    seen = {"hermite": 0, "db": 0, "mid": 0, "n=1": 0, "n>=1024": 0, "past 2^64": 0,
            "no escape": 0, "2+ escapes in a run": 0, "prior": 0, "blocks": 0, "gamma>=2": 0}
    for i in range(1500):
        n = rng.choice((1, 2, 3, 7, 12, 60, 360, 1024, 4096))
        kind = rng.choice(("hermite", "db", "mid"))
        if kind == "hermite":
            g, b, d = rng.choice(_primitive_forms(n))
            t = (g, b, 0, d)
        else:
            t = rng.choice(_enumerate_DB(n))
            if kind == "mid":
                letter = rng.choice((L, R))
                t = _mul(t, letter, rng.randrange(_escape(t, letter)))
        max_exp = rng.choice((3, 10**6, 2**80))
        runs = random_word(rng, max_runs=5, max_exp=max_exp).runs
        out, ref_out = _Out(), None
        if rng.random() < 0.7:
            ref_out = _Out()
            for r in rng.choice(((), ((L, 2),), ((R, 1), (L, 3)))):
                _emit(out, *r)
                _emit(ref_out, *r)
            seen["prior"] += bool(out)
        end = _feed_run(t, runs, out)
        ref, lasts, cur, rebuilt = t, [], t, []
        for letter, e in runs:
            ref, _, escapes, last = _reference_feed_run(ref, letter, e, ref_out)
            cur = _feed_run(cur, ((letter, e),), _Out())
            assert cur == ref, (n, t, runs)
            if escapes:
                lasts.append(last)
                rebuilt.append(_rebuilt_escape(letter, cur))
            seen["2+ escapes in a run"] += escapes >= 2
        assert end == ref, (n, t, runs)
        assert rebuilt == lasts, (n, t, runs)
        assert checked == [], (n, t, runs)
        if ref_out is not None:
            assert out.word() == ref_out.word(), (n, t, runs)
        if i % 10 == 0 and max(e for _, e in runs) < 2**64:
            # the block mode: the same runs fed as a block again and again
            # until a block-boundary state repeats, against the reference
            # fed them run by run, block after block
            out, ref_out = _Out(), _Out()
            end, gamma, _ = _feed_run(t, runs, out, {})
            ref, boundary = t, {t: 0}
            while True:
                for letter, e in runs:
                    ref = _reference_feed_run(ref, letter, e, ref_out)[0]
                if ref in boundary:
                    break
                boundary[ref] = len(boundary)
            assert (end, gamma) == (ref, len(boundary) - boundary[ref]), (n, t, runs)
            assert checked == [], (n, t, runs)
            assert out.word() == ref_out.word(), (n, t, runs)
            seen["blocks"] += 1
            seen["gamma>=2"] += gamma >= 2
        seen[kind] += 1
        seen["n=1"] += n == 1
        seen["n>=1024"] += n >= 1024
        seen["past 2^64"] += max(e for _, e in runs) > 2**64
        seen["no escape"] += len(lasts) < len(runs)
    assert all(seen.values()), seen


@pytest.mark.parametrize("t, runs, landed", [
    ((0, 1, -2, 3), ((L, 1),), (1, 1, 0, 2)),
    ((3, -2, 1, 0), ((R, 1),), (2, 0, 1, 1)),
    ((0, 2, -3, 5), ((L, 2),), (2, 2, 0, 3)),  # ends at (4, 2, 3, 3), j = 1
    ((5, -3, 2, 0), ((R, 2),), (3, 0, 2, 2)),  # ends at (3, 3, 2, 4), j = 1
])
@pytest.mark.parametrize("block", [False, True])
def test_kernel_check_raises_outside_its_precondition(checked, t, runs, landed, block):
    """Starts with a negative entry, outside the kernel's precondition,
    whose run's last escape lands on a balanced state that is not doubly
    balanced: the inline check fails, and the kernel hands the rebuilt
    escape, not the end state, to _check_db, which raises the contract
    error, in block mode too.  The message's n is det(landed), the
    determinant that the walk keeps from its start."""
    n = det(Mat2(*landed))
    message = f"factorization left {landed} balanced but not doubly balanced for n={n}"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        _feed_run(t, runs, _Out(), {} if block else None)
    assert checked == [landed]


# Transform walks whose entered state is transient (tau >= 1 passes before
# the cycle), about 3 % of random entered walks: (m, repetend, tau, gamma).
# The first has an even period; the second an odd one, read starred.
_TRANSIENT_WALKS = [
    (Mat2(1, 1, 0, 7), "[;1,2]", 1, 4),
    (Mat2(1, 1, 0, 5), "[;1]", 1, 5),
]


@pytest.mark.parametrize("m, text, tau, gamma", _TRANSIENT_WALKS, ids=["even-period", "odd-period-starred"])
def test_transient_entered_walk_matches_the_oracle(m, text, tau, gamma):
    """The transform's walk from the entered state spends tau passes before
    its cycle, which _close_cycle cuts away, and its repetend is the surd
    oracle's up to rotation."""
    cf = parse_cf(text)
    t, runs = _enter(*_hermite_start(m, cf), _Out())
    boundary = {}
    _, walk_gamma, _ = _feed_run(t, runs[: per(cf)], _Out(), boundary, per(cf) % 2 == 1)
    assert (len(boundary) - walk_gamma, walk_gamma) == (tau, gamma)
    oracle = cf_from_surd(apply_mobius(m, surd_from_cf(cf))).repetend
    assert _same_cycle(image_repetend(m, cf), oracle)


def test_block_mode_matches_one_kernel_call_per_block():
    """_feed_run with a boundary dict against _reference_close_cycle: the
    state, gamma, the output's run counts, the snap the cycle is cut at and
    the block-boundary states in first-visit order.  From transform starts
    (a Hermite start entered as image_repetend enters it, the block rotated
    to the run after the first escape) and search starts (a primitive form
    fed whole blocks with scratch output until one escapes, then fed to
    the block mode as the search feeds _close_cycle), at n in
    {1, 2, 12, 720, 4096}, with odd periods and quotients past 2^64; and
    the even-period transform walk of _TRANSIENT_WALKS, whose entered state
    is transient, which the draws seldom reach."""
    rng = random.Random(24)
    seen = {"transform": 0, "search": 0, "odd period": 0, "past 2^64": 0, "gamma>=2": 0, "transient": 0}
    cases = []  # (kind, cf, start, runs)
    for i in range(160):
        n = (1, 2, 12, 720, 4096)[i % 5]
        rep = [rng.choice((rng.randint(1, 9), _log_uniform(rng, 10**6))) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.25:
            rep[rng.randrange(len(rep))] = 2**64 + rng.randint(1, 10**9)
        cf = PeriodicCF.create([rng.randint(-9, 9)] if rng.random() < 0.5 else [], rep)
        if i % 2:
            g = rng.choice([q for q in range(1, n + 1) if n % q == 0])
            b = rng.choice([b for b in range(n // g) if gcd(g, b, n // g) == 1])
            m = _random_unimodular(rng) * Mat2(g, b, 0, n // g) * _random_unimodular(rng)
            t, runs = _hermite_start(m, cf)
            assert det(Mat2(*t)) == n
            cases.append(("transform", cf, *_enter(t, runs, _Out())))
        else:
            g, b, d = rng.choice(_primitive_forms(n))
            t, runs, scratch = (g, b, 0, d), lr_repetend(cf).runs, _Out()
            while not scratch:
                t = _feed_run(t, runs, scratch)
            cases.append(("search", cf, t, runs))
    m, text, _, _ = _TRANSIENT_WALKS[0]
    cf = parse_cf(text)
    cases.append(("transform", cf, *_enter(*_hermite_start(m, cf), _Out())))
    for kind, cf, t, runs in cases:
        out, boundary = _Out(), {}
        state, gamma, cut = _feed_run(t, runs, out, boundary)
        ref_state, ref_gamma, ref_out, ref_cut, ref_states = _reference_close_cycle(t, runs)
        assert (state, gamma, cut) == (ref_state, ref_gamma, ref_cut), (t, runs)
        assert out.counts == ref_out.counts, (t, runs)
        assert list(boundary) == ref_states, (t, runs)
        seen[kind] += 1
        seen["odd period"] += per(cf) % 2
        seen["past 2^64"] += max(cf.repetend) > 2**64
        seen["gamma>=2"] += gamma >= 2
        seen["transient"] += kind == "transform" and len(boundary) > gamma
    assert all(seen.values()), seen


def test_starred_walk_matches_the_doubled_reference():
    """The transform's starred close of an odd period against
    _reference_close_cycle, one kernel call per doubled block V star(V),
    from the same entered state: the repetends agree up to rotation; the
    starred walk of tau transient passes and gamma cycle passes of V feeds
    the reference's ceil(tau / 2) + gamma doubled blocks for odd gamma (a
    star-symmetric cycle, closed on half the letters when tau = 0) and
    ceil(tau / 2) + gamma / 2 for even gamma, so never more letters; its
    even-pass states are the reference's block-boundary states.  n in
    {1, 2, 12, 720, 4096}, odd periods, quotients past 2^64, and the
    odd-period walk of _TRANSIENT_WALKS, whose entered state is transient."""
    rng = random.Random(35)
    seen = {"star symmetric": 0, "half the letters": 0, "even gamma": 0, "past 2^64": 0, "transient": 0}
    cases = []  # (n, m, cf)
    for i in range(200):
        n = (1, 2, 12, 720, 4096)[i % 5]
        rep = [rng.choice((rng.randint(1, 9), _log_uniform(rng, 10**6))) for _ in range(rng.choice((1, 3, 5)))]
        if rng.random() < 0.25:
            rep[rng.randrange(len(rep))] = 2**64 + rng.randint(1, 10**9)
        cf = PeriodicCF.create([rng.randint(-9, 9)] if rng.random() < 0.5 else [], rep)
        if per(cf) % 2 == 0:  # a repetend that is a power, such as [1, 1, 1]
            continue
        g = rng.choice([q for q in range(1, n + 1) if n % q == 0])
        b = rng.choice([b for b in range(n // g) if gcd(g, b, n // g) == 1])
        m = _random_unimodular(rng) * Mat2(g, b, 0, n // g) * _random_unimodular(rng)
        cases.append((n, m, cf))
    m, text, _, _ = _TRANSIENT_WALKS[1]
    cases.append((det(m), m, parse_cf(text)))
    for n, m, cf in cases:
        t, runs = _enter(*_hermite_start(m, cf), _Out())
        p = len(runs) // 2
        assert runs[p:] == star(LRWord(runs[:p])).runs, runs
        boundary = {}
        _, gamma, _ = _feed_run(t, runs[:p], _Out(), boundary, True)
        tau = len(boundary) - gamma
        states = {}
        repetend = _close_cycle(t, runs[:p], states)
        assert list(states) == list(boundary)
        _, ref_gamma, ref_out, ref_cut, ref_states = _reference_close_cycle(t, runs)
        ref_exps = ref_out.cyclic_exps(ref_cut)
        key = (n, m, cf)
        assert _same_cycle(tuple(repetend), tuple(ref_exps[: _primitive_period(ref_exps)])), key
        assert (ref_gamma, len(ref_states)) == (
            gamma if gamma % 2 else gamma // 2,
            -(-tau // 2) + (gamma if gamma % 2 else gamma // 2),
        ), key
        assert len(boundary) <= 2 * len(ref_states), key  # letters fed: p runs a pass, 2p a block
        even = list(boundary)[::2]
        assert even == ref_states[: len(even)], key
        assert tuple(repetend) == image_repetend(m, cf), key
        seen["star symmetric"] += gamma % 2
        seen["half the letters"] += len(boundary) == len(ref_states)
        seen["even gamma"] += gamma % 2 == 0
        seen["past 2^64"] += max(cf.repetend) > 2**64
        seen["transient"] += tau >= 1
    assert all(seen.values()), seen


def test_single_letter_loops_have_b_or_c_zero():
    """A fact about the single-letter loops of T_n, for every DB_n state,
    n <= 200, and both letters: following the escapes of one letter with
    the reference peel until a state repeats, every state on the loop has
    b = 0 (L) or c = 0 (R), and the escape of such a state peels only that
    letter."""
    for n in range(1, 201):
        for letter, zero in ((L, 1), (R, 2)):
            succ = {}
            done = set()  # states whose chain is already followed
            for s in _db_states(n):
                path = {}
                while s not in path and s not in done:
                    path[s] = len(path)
                    nxt = succ.get(s)
                    if nxt is None:
                        out = _Out()
                        nxt = succ[s] = _reference_peel(_mul(s, letter, _escape(s, letter)), out)
                        _check_db(nxt)
                        assert s[zero] or [l for l, _ in out.runs] == [letter], (n, s, out.runs)
                    s = nxt
                if s in path:  # the chain closes a loop not seen before
                    loop = list(path)[path[s] :]
                    assert all(t[zero] == 0 for t in loop), (n, letter, loop)
                done.update(path)


def test_out_word_slices_between_snaps():
    rng = random.Random(31)
    for _ in range(300):
        out = _Out()
        letters = []
        snaps = [(out.snap(), 0)]  # (snap, its position in letters)
        for _ in range(rng.randint(1, 12)):
            letter, k = rng.choice("LR"), rng.randint(0, 4)
            _emit(out, letter, k)
            letters.extend(letter * k)
            snaps.append((out.snap(), len(letters)))
        (s0, p0), (s1, p1) = sorted(rng.sample(snaps, 2), key=lambda s: s[1])
        assert out.word(s0, s1) == word_from_letters(letters[p0:p1])
        assert out.word(s0) == word_from_letters(letters[p0:])
        assert out.word(stop=s1) == word_from_letters(letters[:p1])
        assert out.word() == word_from_letters(letters)


def _peel_run(out, letter, k):
    """Peel letter^k into out through the kernel: letter^k peels to the
    identity in one step."""
    assert _feed_run(_mul((1, 0, 0, 1), letter, k), (), out) == (1, 0, 0, 1)


def _assert_slices_match(out, ref, snaps):
    """Between every ordered pair of (snap, reference snap) taken at the same
    points, out.word() is the reference's word, and out.cyclic_exps() is
    _cyclic_runs on its runs."""
    for x, (s0, r0) in enumerate(snaps):
        for s1, r1 in snaps[x:]:
            word = ref.word(r0, r1)
            assert out.word(s0, s1) == word, (out.counts, ref.runs, s0, s1)
            assert out.cyclic_exps(s0, s1) == [e for _, e in _cyclic_runs(word.runs)]
    assert out.runs == tuple(map(tuple, ref.runs))


def test_run_counts_match_the_list_of_runs_accumulator():
    """_Out's run counts against the list-of-runs accumulator they replaced,
    fed the same peels through the kernel: outputs that start with either
    letter, peels that merge into the last run, counts past 2^63, and snaps
    taken at random, between every ordered pair of which word() and
    cyclic_exps() agree with the reference."""
    rng = random.Random(61)
    seen = {L: 0, R: 0, "merge": 0, "past 2^63": 0}
    for _ in range(300):
        out, ref = _Out(), _RunsOut()
        snaps = [(out.snap(), ref.snap())]
        for _ in range(rng.randint(0, 10)):
            letter = rng.choice((L, R))
            k = rng.choice((rng.randint(1, 5), rng.randint(2**63, 2**70)))
            seen["merge"] += bool(ref.runs) and ref.runs[-1][0] == letter
            seen["past 2^63"] += k >= 2**63
            _peel_run(out, letter, k)
            ref.emit(letter, k)
            if rng.random() < 0.5:
                snaps.append((out.snap(), ref.snap()))
        snaps.append((out.snap(), ref.snap()))
        if ref.runs:
            seen[ref.runs[0][0]] += 1
        _assert_slices_match(out, ref, snaps)
    assert all(seen.values()), seen


def test_run_counts_through_the_kernel():
    """_feed_run writing run counts block by block over random words from a
    DB_n state, into an _Out that may already hold output ending in either
    letter: after each block the accumulator is the list-of-runs reference
    fed that block's output from a fresh _Out, with a snap there."""
    rng = random.Random(67)
    seen = {"prior ends in L": 0, "prior ends in R": 0, "seam merge": 0, "past 2^63": 0}
    for _ in range(300):
        n = rng.randint(1, 40)
        t = rng.choice(_db_states(n))
        out, ref = _Out(), _RunsOut()
        for _ in range(rng.choice((0, 1, 2))):
            letter, k = rng.choice((L, R)), rng.randint(1, 4)
            _peel_run(out, letter, k)
            ref.emit(letter, k)
        if ref.runs:
            seen[f"prior ends in {ref.runs[-1][0]}"] += 1
        snaps = [(out.snap(), ref.snap())]
        for _ in range(rng.randint(1, 4)):
            runs = random_word(rng, max_runs=4, max_exp=rng.choice((9, 2**70))).runs
            fresh = _Out()
            end = _feed_run(t, runs, fresh)
            t = _feed_run(t, runs, out)
            assert t == end
            emitted = fresh.word().runs
            seen["seam merge"] += bool(ref.runs and emitted) and ref.runs[-1][0] == emitted[0][0]
            seen["past 2^63"] += any(e >= 2**63 for _, e in emitted)
            for letter, k in emitted:
                ref.emit(letter, k)
            snaps.append((out.snap(), ref.snap()))
        _assert_slices_match(out, ref, snaps)
    assert all(seen.values()), seen


def test_cyclic_exps_fold_rule_on_a_starred_cycle():
    """_Out.cyclic_exps, starred, reads the output U between two snaps as
    the cycle U star(U): _cyclic_runs of that word, explicitly starred and
    doubled, is the result twice.  By hand, U = R^2 L^3 gives
    R^2 L^3 L^2 R^3 = R^5 L^5 cyclically, so [5]; then random U after
    prior output ending in either letter, with exponents past 2^63."""
    out = _Out()
    _emit(out, R, 2)
    _emit(out, L, 3)
    assert out.cyclic_exps((1, 0), starred=True) == [5]
    assert out.cyclic_exps((1, 0)) == [2, 3]
    rng = random.Random(43)
    seen = {"odd runs": 0, "even runs": 0, "one run": 0, "seam merge": 0, "past 2^63": 0}
    for _ in range(500):
        out = _Out()
        for _ in range(rng.choice((0, 1, 2))):
            _emit(out, rng.choice((L, R)), rng.randint(1, 4))
        prior = out.word().runs
        start = out.snap()
        u = random_word(rng, max_runs=7, max_exp=rng.choice((9, 2**70)))
        for letter, k in u.runs:
            _emit(out, letter, k)
        assert out.word(start) == u
        doubled = word_from_runs(u.runs + star(u).runs).runs
        assert out.cyclic_exps(start, starred=True) * 2 == [e for _, e in _cyclic_runs(doubled)], u
        m = len(u.runs)
        seen["one run" if m == 1 else "odd runs" if m % 2 else "even runs"] += 1
        seen["seam merge"] += bool(prior) and prior[-1][0] == u.runs[0][0]
        seen["past 2^63"] += max(e for _, e in u.runs) >= 2**63
    assert all(seen.values()), seen


def test_transduce_cycle_rejects_single_letter():
    with pytest.raises(ValueError):
        transduce_cycle(14, Mat2(7, 0, 0, 2), parse_word("L^7"))


def test_transduce_cycle_takes_a_row_balanced_start():
    """The start needs det n, content 1, nonnegative entries and row
    balance, not DB_n: from (1, 3, 0, 7), which has a < b, the output's
    period is image_period's.  Content 2, the wrong determinant and a start
    that is not row balanced still raise."""
    start, rep = Mat2(1, 3, 0, 7), lr_repetend(parse_cf("[;3]"))
    assert in_RB(start, 7) and not in_DB(start, 7)
    walk = transduce_cycle(7, start, rep)
    assert lr_cycle_to_period(walk.output) == image_period(start, parse_cf("[;3]"))
    for n, bad in ((4, Mat2(2, 0, 0, 2)), (6, start), (7, Mat2(1, 0, 7, 7))):
        with pytest.raises(ValueError):
            transduce_cycle(n, bad, rep)


def test_lr_cycle_to_period_examples():
    assert lr_cycle_to_period(parse_word("R^3L^3")) == 1
    assert lr_cycle_to_period(parse_word("R^4L")) == 2
    assert lr_cycle_to_period(parse_word("R^2L") ** 2) == 2
    with pytest.raises(ValueError):
        lr_cycle_to_period(parse_word("L^7"))


def test_lr_cycle_to_period_matches_conjugate_scan():
    """Against _reference_cycle_period: a scan of the boundary conjugates,
    with distinct end letters, of the brute-force root."""

    rng = random.Random(11)
    for _ in range(3000):
        w = random_word(rng, max_runs=9, max_exp=4, min_runs=2)
        if len({l for l, _ in w.runs}) < 2:
            continue
        w = w ** rng.randint(1, 3)
        assert lr_cycle_to_period(w) == _reference_cycle_period(w)

    # odd run counts up to ~41, and V*star(V) rotated off its run boundaries
    odd = halves = 0
    for _ in range(1500):
        v = random_word(rng, max_runs=21, max_exp=4, min_runs=1)
        w = word_from_runs(v.runs + star(v).runs) if rng.random() < 0.5 else random_word(rng, 41, 4, 2)
        if len({l for l, _ in w.runs}) < 2:
            continue
        w = rotate(w, rng.randrange(len(w)))
        k = len(_brute_root(w)[0].runs)
        odd += k % 2
        p = lr_cycle_to_period(w)
        halves += k % 2 == 1 and p == (k - 1) // 2
        assert p == _reference_cycle_period(w)
    assert odd and halves, (odd, halves)


def test_lr_cycle_to_period_matches_surd_oracle():
    """per of the purely periodic number whose tail repeats the cycle."""
    rng = random.Random(23)
    for _ in range(200):
        rep = [rng.randint(1, 9) for _ in range(2 * rng.randint(1, 4))]
        word = lr_repetend(parse_cf(f"[;{','.join(map(str, rep))}]"))
        cf = PeriodicCF.create([], rep)
        assert lr_cycle_to_period(word) == per(cf)


@given(st.lists(st.one_of(st.integers(1, 9), st.integers(1, 10**25)), min_size=1, max_size=9))
def test_lr_repetend_equals_validated_construction(rep):
    cf = PeriodicCF.create([], rep)
    quotients = cf.repetend * (2 if len(cf.repetend) % 2 else 1)
    expected = word_from_runs((R if i % 2 == 0 else L, q) for i, q in enumerate(quotients))
    assert lr_repetend(cf) == expected
    assert lr_repetend(cf).runs == expected.runs


def test_lr_repetend():
    assert lr_repetend(parse_cf("[;3]")) == parse_word("R^3L^3")
    assert lr_repetend(parse_cf("[;1]")) == parse_word("RL")
    assert lr_repetend(parse_cf("[;5,2]")) == parse_word("R^5L^2")


# -- reduction to DB ---------------------------------------------------------------


def test_reduce_identity():
    state, tail, pre = reduce_to_DB(Mat2(1, 0, 0, 1), parse_cf("[;3]"))
    assert det(state) == 1
    assert tail in {parse_word("R^3L^3"), parse_word("L^3R^3")}


def test_reduce_A2():
    """A2 escapes in the first run, R^2, and comes back to A2 at its end;
    the tail starts at the next run."""
    state, tail, _ = reduce_to_DB(Mat2(2, 0, 0, 1), parse_cf("[;2]"))
    assert state == A2
    assert tail == parse_word("L^2R^2")


def test_reduce_intro_matrix():
    state, tail, _ = reduce_to_DB(Mat2(12, 1, 17, 2), parse_cf("[;3]"))
    assert in_RB(state, 7)
    assert lr_cycle_to_period(transduce_cycle(7, state, tail).output) == 6


def test_reduce_rejects_singular():
    with pytest.raises(ValueError):
        reduce_to_DB(Mat2(1, 2, 2, 4), parse_cf("[;3]"))


def test_image_period_intro_examples():
    n = Mat2(12, 1, 17, 2)
    assert image_period(n, parse_cf("[;3]")) == 6
    assert image_period(n, parse_cf("[;200]")) == 24


def test_image_period_oracle_equivalence_randomized():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(2, 9)
        seeds = sorted(enumerate_DB(n))
        m = rng.choice(seeds)
        for _ in range(rng.randint(0, 3)):
            g = rng.choice([Mat2(1, 0, 1, 1), Mat2(1, 1, 0, 1),
                            Mat2(1, 0, -1, 1), Mat2(1, -1, 0, 1)])
            m = g * m if rng.random() < 0.5 else m * g
        if rng.random() < 0.4:
            m = m * Mat2(0, 1, 1, 0)
        cf = parse_cf(
            "[%s;%s]"
            % (
                ",".join(str(rng.randint(1, 20)) for _ in range(rng.randint(0, 2))),
                ",".join(str(rng.randint(1, 20)) for _ in range(rng.randint(1, 5))),
            )
        )
        expected = per(cf_from_surd(apply_mobius(m, surd_from_cf(cf))))
        assert image_period(m, cf) == expected


def test_hermite_form_escapes_once_into_DB():
    """The one-escape lemma behind reduce_to_DB, for every primitive
    Hermite form H with n <= 120: H is in DB_n when g > b, and otherwise
    every input word, whatever its first letter, escapes from H within
    2n - 1 letters, and the reference peel of that escape is in DB_n.
    Every word is followed letter by letter up to its escape.  The forms
    are _primitive_forms', which test_coset_count_and_hermite_forms checks
    to n = 200."""
    for n in range(1, 121):
        db = set(_db_states(n))
        for h in ((g, b, 0, d) for g, b, d in _primitive_forms(n)):
            if h[0] > h[1]:
                assert h in db, h
                continue
            stack = [(h, 1)]  # (state, letters absorbed after the next one)
            while stack:
                t, k = stack.pop()
                for letter in (L, R):
                    t2 = _mul(t, letter, 1)
                    if _balanced(t2):
                        stack.append((t2, k + 1))
                        continue
                    assert k <= 2 * n - 1, (n, h, k)
                    assert _reference_peel(t2, None) in db, (n, h, t2)


def test_enter_matches_a_letter_by_letter_reference():
    """_enter from every primitive Hermite form with n <= 60 and from states
    part way into an edge (s letter^j for s in DB_n), on cyclic words with
    runs past 2^63, against _reference_enter: it stops after the first run
    that holds an escape, which comes within 2n - 1 letters, and its state,
    output and runs rotated to the next run are the reference's.  Each
    start is fed the runs rotated to a random run r, as the reference reads
    them from r on.  The state is in RB_n, and t mu(runs fed) = mu(output)
    state."""
    rng = random.Random(18)
    seen = {"hermite": 0, "in-run": 0, "n=1": 0, "run past 2^63": 0, "escape past run r": 0}

    def exp():
        return rng.choice((rng.randint(1, 3), rng.randint(1, 40), rng.randint(2**63, 2**70)))

    def check(n, t, kind):
        first = rng.choice((L, R))
        runs = tuple((first if i % 2 == 0 else star_letter(first), exp()) for i in range(2 * rng.randint(1, 3)))
        r = rng.randrange(len(runs))
        out = _Out()
        state, tail = _enter(t, runs[r:] + runs[:r], out)
        ref_state, nxt, ref_word, fed, letters = _reference_enter(t, runs, r)
        assert (state, out.word()) == (ref_state, ref_word), (n, t, runs, r)
        assert tail == runs[nxt:] + runs[:nxt], (n, t, runs, r)
        assert letters <= 2 * n - 1, (n, t, runs, r)
        assert in_RB(Mat2(*state), n)
        assert Mat2(*t) * mu(word_from_runs(fed)) == mu(out.word()) * state
        seen[kind] += 1
        seen["n=1"] += n == 1
        seen["run past 2^63"] += any(e > 2**63 for _, e in fed)
        seen["escape past run r"] += len(fed) > 1

    for n in range(1, 61):
        for g, b, d in _primitive_forms(n):
            check(n, (g, b, 0, d), "hermite")
        states = _db_states(n)
        for _ in range(10):
            s = rng.choice(states)
            letter = rng.choice((L, R))
            k0 = _escape(s, letter)
            if k0 > 1:
                check(n, _mul(s, letter, rng.randint(1, k0 - 1)), "in-run")
    assert all(seen.values()), seen


def test_reduce_depends_only_on_the_coset():
    """reduce_to_DB(k U M, x) = reduce_to_DB(M, x) for U in GL2(Z), of
    either determinant, and content k: the Hermite form of the coset."""
    rng = random.Random(5)
    dets = set()
    for _ in range(300):
        m = Mat2(*(rng.randint(-30, 30) for _ in range(4)))
        if det(m) == 0:
            continue
        cf = parse_cf(
            "[%s;%s]"
            % (
                ",".join(str(rng.randint(-5 if i == 0 else 1, 40)) for i in range(rng.randint(0, 3))),
                ",".join(str(rng.randint(1, 40)) for _ in range(rng.randint(1, 4))),
            )
        )
        u = _random_unimodular(rng)
        dets.add(det(u))
        k = rng.choice((1, 2, 5))
        um = u * m
        assert reduce_to_DB(Mat2(*(k * e for e in um)), cf) == reduce_to_DB(m, cf), (m, u, k, cf)
    assert dets == {1, -1}


def _random_start_case(rng, k=None):
    """A nonsingular matrix with entries in [-99, 99] times a content of 1
    to 3, and a cf with a signed head and up to 12 more preperiod
    quotients up to 10^8 (k of them when k is given)."""
    while True:
        m = Mat2(*(rng.randint(-99, 99) for _ in range(4)))
        if det(m):
            break
    m = Mat2(*(rng.randint(1, 3) * e for e in m))
    more = rng.randint(0, 12) if k is None else k
    pre = [rng.randint(-30, 30)] + [
        rng.choice((rng.randint(1, 20), _log_uniform(rng, 10**8))) for _ in range(more)
    ]
    if rng.random() < 0.1:
        pre = []
    rep = [rng.randint(1, 50) for _ in range(rng.randint(1, 4))]
    return m, PeriodicCF.create(pre, rep)


def test_hermite_start_matches_the_product_reference():
    """_hermite_start, which takes the Hermite form one preperiod quotient
    at a time, against _reference_hermite_start on 2,000 seeded cases of
    both signs of det and content 1 to 3, and one preperiod of 3,000
    quotients."""
    rng = random.Random(28)
    seen = {"det<0": 0, "det>0": 0, "content>1": 0, "head<0": 0, "long": 0}
    cases = [_random_start_case(rng) for _ in range(2000)]
    cases.append(_random_start_case(rng, k=3000))
    for m, cf in cases:
        assert _hermite_start(m, cf) == _reference_hermite_start(m, cf), (m, cf)
        seen["det<0" if det(m) < 0 else "det>0"] += 1
        seen["content>1"] += gcd(*m) > 1
        seen["head<0"] += bool(cf.preperiod) and cf.preperiod[0] < 0
        seen["long"] += len(cf.preperiod) >= 3000
    assert all(seen.values()), seen


def test_hermite_start_entries_stay_below_n_times_the_quotient(monkeypatch):
    """Every _hermite call of _hermite_start after the first, one per
    preperiod quotient q in order, has all its entries within n (|q| + 1):
    the preperiod is never multiplied into one matrix."""
    import raneycf.transducer as transducer

    calls = []

    def recording_hermite(*entries):
        calls.append(entries)
        return _hermite(*entries)

    monkeypatch.setattr(transducer, "_hermite", recording_hermite)
    rng = random.Random(29)
    for i in range(300):
        m, cf = _random_start_case(rng, k=200 if i % 50 == 0 else None)
        calls.clear()
        (g, _, _, d), _ = _hermite_start(m, cf)
        n = g * d
        assert len(calls) == len(cf.preperiod) + 1, (m, cf)
        for entries, q in zip(calls[1:], cf.preperiod):
            assert max(map(abs, entries)) <= n * (abs(q) + 1), (m, cf, entries, q)


def test_image_period_oracle_equivalence_wide():
    """image_period, and image_repetend up to rotation, against the surd
    oracle on a seeded wide draw: |det| to 4096 (10% n = 1, 10% in
    1024..4096) with both signs, content up to 12, preperiods up to 6 long
    with zero and negative heads, quotients to 10^6."""
    rng = random.Random(2026)
    seen = {"n=1": 0, "det<0": 0, "det>0": 0, "n>=1024": 0, "content>1": 0,
            "head=0": 0, "head<0": 0, "preperiod=6": 0, "quotient>10^5": 0}
    for _ in range(800):
        r = rng.random()
        n = 1 if r < 0.1 else rng.randint(1024, 4096) if r < 0.2 else _log_uniform(rng, 4096)
        g = rng.choice([q for q in range(1, n + 1) if n % q == 0])
        d = n // g
        b = rng.choice([b for b in range(d) if gcd(g, b, d) == 1])
        m = _random_unimodular(rng) * Mat2(g, b, 0, d) * _random_unimodular(rng)
        k = rng.choice((1, 1, 1, 2, 3, 12))
        m = Mat2(*(k * e for e in m))

        def quotient():
            return rng.randint(1, 20) if rng.random() < 0.5 else _log_uniform(rng, 10**6)

        pre = [quotient() for _ in range(rng.randint(0, 6))]
        if pre and rng.random() < 0.5:
            pre[0] = rng.choice((0, -rng.randint(1, 20), -_log_uniform(rng, 10**6)))
        cf = PeriodicCF.create(pre, [quotient() for _ in range(rng.randint(1, 4))])
        oracle = cf_from_surd(apply_mobius(m, surd_from_cf(cf))).repetend
        expected = len(oracle)
        assert image_period(m, cf) == expected, (m, cf)
        # a rotation: a find at a comma of the one cycle in the other, doubled
        text = "," + ",".join(map(str, image_repetend(m, cf))) + ","
        assert text in "," + ",".join(map(str, oracle * 2)) + ",", (m, cf)
        seen["n=1"] += n == 1
        seen["det<0" if det(m) < 0 else "det>0"] += 1
        seen["n>=1024"] += n >= 1024
        seen["content>1"] += k > 1
        seen["head=0"] += bool(pre) and pre[0] == 0
        seen["head<0"] += bool(pre) and pre[0] < 0
        seen["preperiod=6"] += len(pre) == 6
        seen["quotient>10^5"] += max(pre + list(cf.repetend)) > 10**5
    assert all(seen.values()), seen


# -- LE walks ------------------------------------------------------------------------


def test_walk_LE_examples():
    target, j, w = walk_LE(14, Mat2(7, 0, 0, 2), 7)
    assert sigma(w) == 2
    _, _, w7 = walk_LE(7, Mat2(7, 0, 0, 1), 7)
    assert sigma(w7) == 2
    _, _, w11 = walk_LE(7, Mat2(7, 0, 0, 1), 11)
    assert sigma(w11) == 6


def test_walk_LE_shape():
    rng = random.Random(3)
    for n in range(2, 13):
        for m in sorted(enumerate_LE(n)):
            if gcd(*m) != 1:
                continue
            nu = nu_L(m)
            i = rng.randint(nu, 2 * nu - 1)
            target, j, w = walk_LE(n, m, i)
            assert is_RE(target)
            assert 3 * n - nu_R(target) + 1 <= j <= 3 * n
            assert w.runs[0][0] == "L" and w.runs[-1][0] == "R"


def test_walk_LE_rejects_out_of_range():
    with pytest.raises(ValueError):
        walk_LE(14, Mat2(7, 0, 0, 2), 14)  # i must be <= 2*nu_L - 1 = 13
    with pytest.raises(ValueError):
        walk_LE(14, Mat2(2, 1, 1, 2), 2)  # not LE


# -- sharpness search -------------------------------------------------------------------


def test_search_matches_direct_enumeration():
    """Against _reference_search_max_ratio, which feeds every (offset,
    state) pair directly: n from 2 to 8, periods 1-3, quotients up to 9."""
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 8)
        rep = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
        cf = parse_cf(f"[;{','.join(map(str, rep))}]")
        assert search_max_ratio(n, cf) == _reference_search_max_ratio(n, cf), (n, rep)


# small quotients give short escape chains, large ones reach the chain's loop
_QUOTIENTS = st.one_of(st.integers(1, 3), st.integers(1, 300))


@given(st.integers(1, 24), st.lists(_QUOTIENTS, min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_search_matches_reference_witness(n, rep):
    cf = parse_cf(f"[;{','.join(map(str, rep))}]")
    assert search_max_ratio(n, cf) == _reference_search_max_ratio(n, cf)


def _run_states(starts, letter, e):
    """The distinct states _feed_run(s, ((letter, k),), _Out()) over every
    DB_n state s in starts and 0 < k < e.

    Walked letter by letter, a start's path passes s * letter^j for
    0 < j < k0 and then escapes onto a DB_n state.  That state is a start
    too, reached at k = 0, and its own walk covers every later position,
    so each walk stops at its first escape.  A state s * letter^j with
    j > 0 is never doubly balanced, so it determines s: the states inside
    an edge are distinct, and only the escapes need merging.
    """
    inside = []
    escapes = {}
    for s in starts:
        k0 = _escape(s, letter)
        inside.extend(_mul(s, letter, j) for j in range(1, min(k0, e)))
        if k0 < e:
            escapes[_feed_run(s, ((letter, k0),), _Out())] = None
    return inside + list(escapes)


def test_run_states_match_letter_by_letter_walks():
    """_run_states, the tests' lister of a run's in-run nodes, lists
    exactly the distinct states that some seed reaches 0 < k < e letters
    in, against single-letter absorb-and-peel walks."""
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 30)
        seeds = _db_states(n)
        letter = rng.choice((L, R))
        e = rng.choice((rng.randint(1, 2 * n + 2), rng.randint(1, 400)))  # escapes take <= n
        walks = []
        for s in seeds:
            walk = [s]
            for _ in range(e - 1):
                t = _mul(walk[-1], letter, 1)
                walk.append(t if _balanced(t) else _feed_run(t, (), _Out()))
            walks.append(walk)
        listed = _run_states(seeds, letter, e)
        assert len(set(listed)) == len(listed)
        assert set(listed) == {t for walk in walks for t in walk[1:]}


def test_search_nodes_of_one_coset_share_their_period():
    """A search node's period depends only on its run and the Hermite form
    of its state: walk every start node and every in-run-offset node, with
    orbits closed on states and no memo keyed on cosets.  A start node
    (r, s) also counts under its coset after the run, _hermite(s * letter^e),
    read from the next run on."""
    rng = random.Random(29)
    shared = 0
    for _ in range(40):
        n = rng.randint(1, 30)
        rep = [rng.choice((rng.randint(1, 3), rng.randint(1, 300))) for _ in range(rng.randint(1, 4))]
        runs = lr_repetend(parse_cf(f"[;{','.join(map(str, rep))}]")).runs
        nr = len(runs)
        starts = _enumerate_DB(n)
        period_of = {}  # node -> period, exact per node

        def orbit_period(node):
            path, index, cur = [], {}, node
            while cur not in period_of and cur not in index:
                index[cur] = len(path)
                path.append(cur)
                r, t = cur
                cur = ((r + 1) % nr, _feed_run(t, (runs[r],), _Out()))
            if cur in period_of:
                period = period_of[cur]
            else:
                r, t = cur
                out = _Out()
                _feed_run(t, [runs[(r + i) % nr] for i in range(len(path) - index[cur])], out)
                period = lr_cycle_to_period(out.word())
            for p in path:
                period_of[p] = period
            return period

        periods = {}  # (run, Hermite form) -> the periods of its nodes
        for r, (letter, e) in enumerate(runs):
            nxt = (r + 1) % nr
            for s in starts:
                period = orbit_period((r, s))
                periods.setdefault((r, _hermite(*s)), []).append(period)
                periods.setdefault((nxt, _hermite(*_mul(s, letter, e))), []).append(period)
            for t in _run_states(starts, letter, e):
                periods.setdefault((nxt, _hermite(*t)), []).append(orbit_period((nxt, t)))
        assert all(len(set(p)) == 1 for p in periods.values()), (n, rep)
        shared += sum(len(p) > 1 for p in periods.values())
    assert shared  # some cosets hold more than one node


def test_key_walk_matches_the_state_walk():
    """The reference key cycle of a search node holds each key once, is
    exactly the set of keys that the node's state walk passes (closed on
    states, as orbit_period in
    test_search_nodes_of_one_coset_share_their_period does), is a multiple
    of nr runs long and at most nr * psi(n).  _close_cycle fed any run-0
    form of that cycle returns a repetend as long as the state walk's
    period, and the forms of its boundary states lie on the cycle.  Start
    nodes and in-run offset nodes are both drawn, and some repetends hold a
    quotient past 2^63."""
    rng = random.Random(53)
    drawn = 0  # offset nodes
    for i in range(80):
        n = rng.randint(1, 30)
        rep = [rng.choice((rng.randint(1, 3), rng.randint(1, 300))) for _ in range(rng.randint(1, 4))]
        if i % 4 == 0:
            rep[rng.randrange(len(rep))] = 2**63 + rng.randint(1, 10**6)
        runs = lr_repetend(parse_cf(f"[;{','.join(map(str, rep))}]")).runs
        nr = len(runs)
        starts = _enumerate_DB(n)

        def state_walk(node):
            path, index, cur = [], {}, node
            while cur not in index:
                index[cur] = len(path)
                path.append(cur)
                r, t = cur
                cur = ((r + 1) % nr, _feed_run(t, (runs[r],), _Out()))
            r, t = cur
            out = _Out()
            _feed_run(t, [runs[(r + j) % nr] for j in range(len(path) - index[cur])], out)
            return {(r, _hermite(*t)) for r, t in path}, lr_cycle_to_period(out.word())

        start_nodes = [(r, s) for r in range(nr) for s in starts]
        offset_nodes = [
            ((r + 1) % nr, t)
            for r, (letter, e) in enumerate(runs)
            for t in _run_states(starts, letter, e)
        ]
        drawn += min(len(offset_nodes), 15)
        for node in rng.sample(start_nodes, min(len(start_nodes), 15)) + rng.sample(
            offset_nodes, min(len(offset_nodes), 15)
        ):
            r, t = node
            keys = _reference_key_cycle(runs, (r, _hermite(*t)))
            ref_keys, ref_period = state_walk(node)
            assert len(set(keys)) == len(keys), (n, rep, node)
            assert set(keys) == ref_keys, (n, rep, node)
            assert len(keys) % nr == 0 and len(keys) <= nr * len(_primitive_forms(n))
            g, b, d = rng.choice([f for r, f in keys if r == 0])
            states = {}
            period = len(_close_cycle((g, b, 0, d), runs, states))
            assert period == ref_period, (n, rep, node)
            assert {(0, _hermite(*s)) for s in states} <= ref_keys, (n, rep, node)
    assert drawn


def test_coset_count_and_hermite_forms():
    """_primitive_forms(n) lists psi(n) distinct forms [[g, b], [0, n/g]],
    0 <= b < n/g, of content 1, so all of them; for n <= 8 they are exactly the Hermite forms of every
    primitive matrix with entries in [-n, n] and |det| = n.  Every DB_n
    state's _hermite is one of them, no two DB_n states share one, and a
    unimodular factor on the left keeps it.  So the |DB_n| states lie in
    |DB_n| < psi(n) cosets for n >= 2."""
    rng = random.Random(3)
    words = [Mat2(1, 0, 0, 1), Mat2(0, 1, 1, 0), Mat2(1, 0, 1, 1), Mat2(1, -1, 0, 1)]
    for n in range(1, 9):
        box = range(-n, n + 1)
        brute = {
            _hermite(a, b, c, d)
            for a in box
            for b in box
            for c in box
            for d in box
            if abs(a * d - b * c) == n and gcd(a, b, c, d) == 1
        }
        assert brute == set(_primitive_forms(n)), n
    for n in range(1, 201):
        forms = set(_primitive_forms(n))
        assert len(forms) == len(_primitive_forms(n)) == _psi(n)
        assert all(g * d == n and 0 <= b < d and gcd(g, b, d) == 1 for g, b, d in forms), n
        states = _enumerate_DB(n)
        state_forms = {_hermite(*s) for s in states}
        assert state_forms <= forms
        assert len(state_forms) == len(states), n
        assert n == 1 or len(states) < _psi(n), n
        for s in rng.sample(states, min(len(states), 3)):
            u = Mat2(1, 0, 0, 1)
            for _ in range(6):
                u = u * rng.choice(words)
            assert _hermite(*(u * Mat2(*s))) == _hermite(*s)


def test_key_step_matches_the_hermite_form_of_the_product():
    """_key_step(_hermite(*s), letter, k) is the form of s * letter^k, for
    every DB_n state s and some of them dressed on the left by unimodular
    words, k from 0 to 3n and past 2^63."""
    rng = random.Random(61)
    words = [Mat2(0, 1, 1, 0), Mat2(1, 0, 1, 1), Mat2(1, -1, 0, 1), Mat2(-1, 0, 0, 1)]
    for n in range(1, 41):
        states = list(_enumerate_DB(n))
        for s in rng.sample(states, min(len(states), 3)):
            u = Mat2(1, 0, 0, 1)
            for _ in range(8):
                u = u * rng.choice(words)
            states.append(u * Mat2(*s))
        ks = list(range(3 * n + 1)) + [2**63 + rng.randint(0, 10**6) for _ in range(3)]
        for s in states:
            form = _hermite(*s)
            for letter in (L, R):
                for k in ks:
                    assert _key_step(form, letter, k) == _hermite(*_mul(s, letter, k)), (n, s, letter, k)


def test_key_step_is_periodic_with_a_period_dividing_n():
    """For every primitive form of det n, the key step by letter^k depends
    on k only mod n: the search's witness scan reads n offsets below a
    run's end and no more."""
    for n in range(1, 41):
        for form in _primitive_forms(n):
            for letter in (L, R):
                for k in list(range(2 * n)) + [2**64 + 7]:
                    assert _key_step(form, letter, k + n) == _key_step(form, letter, k), (form, letter, k)


def test_search_maximum_is_the_oracle_maximum_over_every_coset():
    """best_ratio equals max per(h_H(y)) / per(y) over the psi(n) primitive
    forms H, y = [; repetend], with every period from the surd oracle: the
    first check of the search's maximality by an independent computation.
    300 seeded draws: n from 1 to 39, plus 12, 24, 30, 36 and 60; periods
    1-3; quotients up to 3, 20 or 500, and up to 10^7 in a fifth of them.
    Random draws seldom need more than run 0, so three inputs whose maximum
    lies past it come first."""
    rng = random.Random(16)
    ns = list(range(1, 40)) + [12, 24, 30, 36, 60]
    draws = [(9, [1, 17]), (2, [1, 2, 3, 30]), (36, [1, 98, 21])]
    for _ in range(300):
        top = 10**7 if rng.random() < 0.2 else rng.choice((3, 20, 500))
        draws.append((rng.choice(ns), [rng.randint(1, top) for _ in range(rng.randint(1, 3))]))
    for n, rep in draws:
        cf = PeriodicCF.create([], rep)
        y = surd_from_cf(cf)
        best = max(
            per(cf_from_surd(apply_mobius(Mat2(g, b, 0, d), y))) for g, b, d in _primitive_forms(n)
        )
        assert search_max_ratio(n, cf)[0] == Fraction(best, per(cf)), (n, cf)


def test_search_matches_the_reference_scan_on_short_repetends():
    """The search resolves every coset from its own form and agrees with
    the reference scan over every (offset, state) pair on 60 seeded draws:
    n up to 16, periods 1-3, quotients up to 3 or 60.  Then odd periods,
    whose search reads one period V starred while the reference scans the
    whole doubled word V star(V): six witnesses past run 0 found by a
    seeded hunt, and 40 seeded draws of periods 3 and 5 with a one-letter
    run 0, which puts such witnesses at run 1's first offset."""
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 16)
        rep = [rng.choice((rng.randint(1, 3), rng.randint(1, 60))) for _ in range(rng.randint(1, 3))]
        cf = parse_cf(f"[;{','.join(map(str, rep))}]")
        assert search_max_ratio(n, cf) == _reference_search_max_ratio(n, cf), (n, rep)
    hunted = [(16, [1, 7, 51]), (14, [1, 34, 59]), (9, [1, 42, 35]), (10, [1, 14, 3]), (12, [1, 3, 14]), (8, [1, 3, 31])]
    drawn = [
        (rng.randint(1, 16), [1] + [rng.choice((rng.randint(1, 3), rng.randint(1, 60))) for _ in range(rng.choice((2, 4)))])
        for _ in range(40)
    ]
    odd = 0
    for n, rep in hunted + drawn:
        cf = PeriodicCF.create([], rep)
        result = search_max_ratio(n, cf)
        assert result == _reference_search_max_ratio(n, cf), (n, rep)
        assert (n, rep) not in hunted or result[2] >= lr_repetend(cf).runs[0][1], (n, rep, result)
        odd += per(cf) % 2
    assert odd >= 40


def test_orbit_fed_from_a_hermite_form():
    """_close_cycle fed a primitive Hermite form H = (g, b, 0, d), as the
    search resolves the key (0, (g, b, d)), reads the repetend of h_H(y)
    for y = [; repetend]: a rotation of image_repetend's, which enters the
    walk first (_enter), so the two readers agree on the repetend, not
    only its length.  The Hermite forms of its block-boundary states are
    exactly the run-0 keys of H's reference key cycle: one walk covers the
    cycle.  Every form for n <= 30 and a sample of forms at n in the
    hundreds; purely periodic repetends, some of odd period and some with a
    quotient past 2^63."""
    rng = random.Random(73)
    for n in list(range(1, 31)) + [128, 210, 360, 499]:
        forms = _primitive_forms(n)
        if n > 30:
            forms = rng.sample(forms, 40)
        reps = [
            [rng.randint(1, 20) for _ in range(rng.choice((1, 3)))],
            [rng.choice((rng.randint(1, 3), rng.randint(1, 300))) for _ in range(rng.randint(2, 4))],
        ]
        if n % 3 == 0:
            reps[1][rng.randrange(len(reps[1]))] = 2**63 + rng.randint(1, 10**6)
        for rep in reps:
            cf = PeriodicCF.create([], rep)
            runs = lr_repetend(cf).runs
            for g, b, d in forms:
                states = {}
                repetend = tuple(_close_cycle((g, b, 0, d), runs, states))
                assert _same_cycle(repetend, image_repetend(Mat2(g, b, 0, d), cf)), (n, rep, (g, b, d))
                cycle = {f for r, f in _reference_key_cycle(runs, (0, (g, b, d))) if r == 0}
                assert {_hermite(*s) for s in states} == cycle, (n, rep, (g, b, d))


def test_close_cycle_is_one_kernel_call_from_H(monkeypatch):
    """_close_cycle, fed one period as the search feeds it, makes exactly
    one _feed_run call per walk, started at H itself, and H's own form is
    among its states' forms (H is the first state); the transform's walk
    still enters through _enter before its one _close_cycle call, which
    starts where _enter stops, on _enter's runs cut to one period.  n up
    to 40 and from 100 to 400, repetends of 1-4 quotients, some past
    2^63."""
    import raneycf.transducer as transducer

    calls = []

    def counting_feed(t, runs, out, boundary=None, starred=False):
        calls.append(t)
        return _feed_run(t, runs, out, boundary, starred)

    entered, left = [], []

    def counting_enter(t, runs, out):
        entered.append(t)
        left.append(_enter(t, runs, out))
        return left[-1]

    closed = []

    def counting_close(t, runs, states):
        closed.append((t, runs))
        return _close_cycle(t, runs, states)

    monkeypatch.setattr(transducer, "_feed_run", counting_feed)
    rng = random.Random(89)
    for i in range(60):
        n = rng.choice((rng.randint(1, 40), rng.randint(100, 400)))
        rep = [rng.choice((rng.randint(1, 3), rng.randint(1, 300))) for _ in range(rng.randint(1, 4))]
        if i % 4 == 0:
            rep[rng.randrange(len(rep))] = 2**63 + rng.randint(1, 10**6)
        cf = PeriodicCF.create([], rep)
        runs = lr_repetend(cf).runs[: per(cf)]
        for g, b, d in rng.sample(_primitive_forms(n), min(8, len(_primitive_forms(n)))):
            calls.clear()
            states = {}
            period = len(_close_cycle((g, b, 0, d), runs, states))
            assert calls == [(g, b, 0, d)], (n, rep, (g, b, d))
            assert next(iter(states)) == (g, b, 0, d)
            assert (g, b, d) in {_hermite(*s) for s in states}
            assert period == image_period(Mat2(g, b, 0, d), cf), (n, rep, (g, b, d))
    monkeypatch.setattr(transducer, "_enter", counting_enter)
    monkeypatch.setattr(transducer, "_close_cycle", counting_close)
    m, cf = Mat2(5, 3, 7, 2), parse_cf("[;3,1,4]")
    calls.clear()
    image_repetend(m, cf)
    assert calls[0] == entered[0] == _hermite_start(m, cf)[0] and len(entered) == 1
    assert closed == [(t, runs[: per(cf)]) for t, runs in left]


def test_search_walks_once_per_run0_key_cycle(monkeypatch):
    """The search calls _close_cycle exactly once per cycle of the block
    step on run-0 keys (_reference_block_cycle, starred for an odd
    period), once from a form on each cycle: every later form of a cycle
    is already read off its walk.  That is never more walks than the
    unstarred doubled block's run-0 key cycles, and fewer on some odd
    periods.  Every state that a walk records, associates included, has
    image_period equal to the walk's period.  n <= 30, repetends of 1-4
    quotients, some of them past 2^63."""
    import raneycf.transducer as transducer

    walked, recorded = [], []

    def counting(t, runs, states):
        g, b, _, d = t
        walked.append((g, b, d))
        repetend = _close_cycle(t, runs, states)
        recorded.append((states, len(repetend)))
        return repetend

    monkeypatch.setattr(transducer, "_close_cycle", counting)
    rng = random.Random(83)
    seen = {"odd period": 0, "fewer walks": 0}
    for i in range(120):
        n = rng.randint(1, 30)
        rep = [rng.choice((rng.randint(1, 3), rng.randint(1, 300))) for _ in range(rng.randint(1, 4))]
        if i % 3 == 0:
            rep[rng.randrange(len(rep))] = 2**63 + rng.randint(1, 10**6)
        cf = PeriodicCF.create([], rep)
        runs = lr_repetend(cf).runs
        cycle_of = {}  # run-0 form -> index of its reference block cycle
        doubled = {}  # run-0 form -> index of its doubled block's key cycle
        for form in _primitive_forms(n):
            if form not in cycle_of:
                index = len(set(cycle_of.values()))
                for f in _reference_block_cycle(runs[: per(cf)], form):
                    cycle_of[f] = index
            if form not in doubled:
                index = len(set(doubled.values()))
                for r, f in _reference_key_cycle(runs, (0, form)):
                    if r == 0:
                        doubled[f] = index
        walked.clear()
        recorded.clear()
        search_max_ratio(n, cf)
        monkeypatch.setattr(transducer, "_close_cycle", _close_cycle)  # image_period's own
        for states, period in recorded:
            for s in states:
                assert image_period(Mat2(*s), cf) == period, (n, rep, s)
        monkeypatch.setattr(transducer, "_close_cycle", counting)
        assert sorted(cycle_of[f] for f in walked) == list(range(len(set(cycle_of.values())))), (n, rep)
        assert len(walked) <= len(set(doubled.values())), (n, rep)
        seen["odd period"] += per(cf) % 2
        seen["fewer walks"] += len(walked) < len(set(doubled.values()))
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "n, rep, inside",
    [
        # inside run 1: the scan steps its run-0 periods by runs 0 and 1 to
        # read run 2's keys
        (6, [1, 3, 3, 81, 95, 3], True),
        (12, [1, 8, 2, 1, 30, 3], True),
        # odd periods, whose LR word is the repetend read twice, at run 1's
        # first offset
        (3, [1, 2, 1020, 1, 2], False),
        (4, [1, 1, 517, 2, 2], False),
    ],
)
def test_search_witness_past_run_0_matches_reference(n, rep, inside):
    """Witnesses past run 0, from seeded searches: random draws put nearly
    every witness in run 0, and no draw put one past run 1."""
    cf = PeriodicCF.create([], rep)
    (_, e0), (_, e1), *_ = lr_repetend(cf).runs
    result = search_max_ratio(n, cf)
    assert (e0 < result[2] < e0 + e1) if inside else result[2] == e0
    assert result == _reference_search_max_ratio(n, cf)


@pytest.mark.parametrize(
    "n, text, expected",
    [
        (9, "[;1,53]", (Fraction(6), Mat2(2, 1, 1, 5), 1)),
        (4, "[;1,251,197]", (Fraction(8, 3), Mat2(1, 0, 0, 4), 1)),
        (20, "[;1,55,59]", (Fraction(20, 3), Mat2(4, 3, 0, 5), 1)),
        (6, "[;1,3,14]", (Fraction(10, 3), Mat2(2, 1, 0, 3), 1)),
    ],
)
def test_search_witness_at_a_later_runs_first_offset(n, text, expected):
    """Witnesses at run 1's first offset, each after a one-letter run 0:
    the scan meets them at k = 0 of run 0's window, so a window that
    stopped at k = 1 would return a later offset."""
    cf = parse_cf(text)
    result = search_max_ratio(n, cf)
    assert result == expected
    assert result == _reference_search_max_ratio(n, cf)


def test_search_witness_at_a_run_boundary_follows_a_short_run():
    """A witness at a run boundary b > 0 follows a run of at most n
    letters: past n, the run's window holds a multiple of n, whose key is
    the boundary's (the key is periodic in k with a period dividing n), at
    an earlier offset.  Seeded n <= 30 and quotients of 1-4, up to 3n + 3
    or up to 400, half of them with a one-letter run 0, which puts nearly
    every such witness at run 1's first offset; each boundary witness is
    checked against the reference scan too."""
    rng = random.Random(32)
    boundaries = 0
    for i in range(3000):
        n = rng.randint(1, 30)
        top = rng.choice((4, 3 * n + 3, 400))
        rep = [rng.randint(1, top) for _ in range(rng.randint(1, 4))]
        if i % 2:
            rep[0] = 1
        cf = PeriodicCF.create([], rep)
        result = search_max_ratio(n, cf)
        end = 0
        for _, e in lr_repetend(cf).runs:
            end += e
            if end >= result[2]:
                break
        if result[2] and end == result[2]:
            boundaries += 1
            assert e <= n, (n, rep, result)
            assert result == _reference_search_max_ratio(n, cf), (n, rep)
    assert boundaries > 0


@pytest.mark.parametrize(
    "n, text, expected",
    [
        (9, "[;1,17]", (Fraction(6), Mat2(2, 1, 1, 5), 1)),
        (2, "[;1,2,3,30]", (Fraction(3, 2), Mat2(1, 0, 0, 2), 1)),
        (36, "[;1,98,21]", (Fraction(12), Mat2(5, 1, 4, 8), 1)),
        (1, "[;5]", (Fraction(1), Mat2(1, 0, 0, 1), 0)),  # psi(1) = 1: run 0 meets it
        (12, "[;17,14]", (Fraction(6), Mat2(1, 0, 0, 12), 2)),
        (12, "[;499398,18446744073709552092]", (Fraction(8), Mat2(1, 0, 0, 12), 1)),
    ],
)
def test_search_pinned_witnesses(n, text, expected):
    # the first three witnesses lie past run 0, which small random draws
    # seldom reach; the [;17,14] witness is two letters into its run, where
    # a window of one offset would miss it, and the last lies inside a run
    # longer than 2^64
    assert search_max_ratio(n, parse_cf(text)) == expected


def _search_building_no_DB_n(n, cf, monkeypatch):
    """search_max_ratio(n, cf), with every build of DB_n's tuple an error."""
    import raneycf.matrices as matrices
    import raneycf.transducer as transducer

    def build(m):
        raise AssertionError(f"DB_{m} built")

    monkeypatch.setattr(matrices, "_enumerate_DB", build)
    monkeypatch.setattr(transducer, "_enumerate_DB", build)
    return search_max_ratio(n, cf)


@pytest.mark.parametrize(
    "n, text, expected",
    [
        # the witness is DB_n's 42nd of 58, 30th of 38, 11th of 20, 24th of
        # 26, 111th of 114 and 14th, the last, of 14 states
        (45, "[;10,347,335]", (Fraction(80, 3), Mat2(9, 6, 3, 7), 0)),
        (35, "[;242,3,469,28]", (Fraction(8), Mat2(11, 3, 3, 4), 0)),
        (14, "[;472,26]", (Fraction(16), Mat2(5, 1, 1, 3), 0)),
        (21, "[;2,1,419,3]", (Fraction(4), Mat2(11, 1, 1, 2), 0)),
        (60, "[;357,461,4,4]", (Fraction(10), Mat2(20, 2, 0, 3), 0)),
        (10, "[;2,1,256,253]", (Fraction(9, 2), Mat2(10, 0, 0, 1), 0)),
    ],
)
def test_search_offset_0_witness_deep_in_DB_n(n, text, expected, monkeypatch):
    """Offset-0 witnesses late in DB_n's order: the scan reads the starts
    through _iter_DB's walk alone, and builds no DB_n."""
    cf = parse_cf(text)
    assert _reference_search_max_ratio(n, cf) == expected
    assert _search_building_no_DB_n(n, cf, monkeypatch) == expected


def test_search_later_offset_witness_builds_no_DB_n(monkeypatch):
    """A witness past run 0's first offset: the later offsets read the
    starts that the offset-0 scan kept, all of DB_n, and build no DB_n."""
    cf = parse_cf("[;10]")
    expected = (Fraction(3), Mat2(1, 0, 0, 2), 1)
    assert _reference_search_max_ratio(2, cf) == expected
    assert _search_building_no_DB_n(2, cf, monkeypatch) == expected


@pytest.mark.parametrize(
    "n, text, expected",
    [
        (16384, "[;1,2]", (Fraction(4532), Mat2(3, 2, 1, 5462), 0)),
        (4096, "[;1,2]", (Fraction(1136), Mat2(1, 0, 0, 4096), 0)),
    ],
)
def test_search_early_offset_0_witness_builds_no_DB_n(n, text, expected, monkeypatch):
    """CI's pinned searches at these n find their witness among the first
    states of the walk, and never build DB_n."""
    assert _search_building_no_DB_n(n, parse_cf(text), monkeypatch) == expected


def test_search_rejects_n_below_1():
    with pytest.raises(ValueError, match="n must be >= 1"):
        search_max_ratio(0, parse_cf("[;3]"))


@pytest.mark.parametrize("text", ["[;10]", "[;12]", "[;10,6]"])
def test_search_witness_inside_a_run(text):
    # no seed reaches the best period at a run's start, so the witness is
    # the largest k of the first run that reaches it
    cf = parse_cf(text)
    result = search_max_ratio(2, cf)
    assert result == (Fraction(3), Mat2(1, 0, 0, 2), 1)
    assert result == _reference_search_max_ratio(2, cf)


def test_search_small_example():
    ratio, state, off = search_max_ratio(2, parse_cf("[;1]"))
    assert ratio <= 5
    assert state in enumerate_DB(2)
