"""Raney transducers T_n: states DB_n, edges from the factorization MV = WN.

Transduction is implemented online: absorb input letters on the right,
peel output letters off the left whenever the remainder stays balanced.
Every run goes through one kernel, words._feed_run, which absorbs an
input run letter^e whole and then peels once, maximally: the
factorization of a nonnegative matrix as mu(W) times a row-balanced one
is unique (Raney), so that gives the same output and state as peeling at
every escape.  A partial quotient of any size thus costs one absorb and
one peel step per output run, and the kernel checks each run's last
escape against DB_n, rebuilt from the state it ends in.  The transform
walks from a Hermite form (image_repetend): whole runs up to the end of
the run of its first escape (_enter), then the one cycle reader,
_close_cycle: one kernel call that feeds one pass of the repetend per
block until a block-boundary state repeats (_feed_run with a boundary
dict).  An odd period's LR repetend is doubled to U star(U)
(lr_repetend), and every walk that _close_cycle reads is fed one period
per block, and read starred when that period, so its run count, is
odd: after each pass the kernel takes the state's associate
J M J, J = [[0, 1], [1, 0]], and so reads the next pass as the star of
the last (J mu(W) J = mu(star W), and Raney's transducers commute with
the associate).  A star-symmetric output cycle U star(U) then closes
after U, on half the letters.  The output cycle's runs, read
cyclically, are the image's partial quotients (lr_cycle_to_period), and
the reader takes their exponents straight off the output's run counts
(_Out.cyclic_exps, with the fold rule of U star(U) on a starred close).
The sharpness search keys its nodes on (run, Hermite form of the
state) and keeps periods for run-0 keys only: it feeds each primitive
Hermite form that no walk has reached yet straight to _close_cycle,
one period per block, starred for an odd period as the transform's walk
is, and reads the run-0 keys of its cycle off the kernel's recorded
states, associates included, one kernel call per key cycle of the block
step.  Its witness scan reads run 0's starts first, in DB_n's sorted
order, computing each one's form only when it gets there; the starts
come from matrices._iter_DB, a lazy walk of DB_n in that order that
switches to _enumerate_DB's tuple where it stops, once it has cost about
as much as building the tuple, so a scan that stops early builds no
DB_n.  Then it reads one window per run of the one
period, up to the next run's first offset, and steps the periods from
run to run by key steps alone, with no step table of its own.  Neither
reader reads past one period: lr_repetend's doubled word is left to
_enter, reduce_to_DB and transduce_cycle.  The explicit edge table
(build_transducer) exists for display and for the exhaustive lemma
checks, and is built through the same kernel one letter at a time; the
module writes no report format, and cli.cmd_transducer renders the
table as text, CSV, DOT or JSON.
The independent references are in the tests: _reference_feed_run, one
call per escape step, _reference_close_cycle, one kernel call per block,
and test_9's letter-by-letter edge walk.  The LE walks behind the walk
side of S_n (walk_LE) feed the same kernel one letter at a time from
tests/references.py; no command reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .matrices import (
    Mat2,
    _balanced,
    _enumerate_DB,
    _hermite,
    _iter_DB,
    _primitive_forms,
    det,
    in_D,
    in_DB,
    in_RB,
)
from .surds import PeriodicCF, _primitive_period, per
from .words import (
    L,
    LRWord,
    R,
    _Out,
    _cyclic_runs,
    _feed_run,
    _peel,
)

# ---------------------------------------------------------------------------
# transducer construction


@dataclass(frozen=True)
class TransducerEdge:
    src: Mat2
    input: LRWord
    output: LRWord
    dst: Mat2


@dataclass(frozen=True)
class Transducer:
    n: int
    states: frozenset[Mat2]
    edges: tuple[TransducerEdge, ...]


def factorize_to_DB(p: Mat2, n: int) -> tuple[LRWord, Mat2]:
    """Unique factorization p = mu(w) * k with w nonempty and k in DB_n.

    The maximal peel leaves the one row-balanced k with p = mu(w) * k; a p
    in D_n whose k is not column balanced as well, such as (1, 1, 1, 3)
    with k = (1, 1, 0, 2), has no such factorization, and is a ValueError
    that names k."""
    if not in_D(p, n):
        raise ValueError(f"{p!r} is not in D_{n}")
    if _balanced(p):
        raise ValueError(f"{p!r} is row balanced; the peeled word would be empty")
    out = _Out()
    k = Mat2(*_peel(p, out))
    if not in_DB(k, n):
        raise ValueError(f"{p!r} peels onto {k!r}, which is not in DB_{n}")
    return out.word(), k


def build_transducer(n: int) -> Transducer:
    if n < 1:
        raise ValueError("n must be >= 1")
    states = [Mat2(*s) for s in _enumerate_DB(n)]
    edges = []
    for m in states:
        stack = [((), m)]
        while stack:
            runs, t = stack.pop()
            for letter in (L, R):
                if runs and runs[-1][0] == letter:
                    runs2 = runs[:-1] + ((letter, runs[-1][1] + 1),)
                else:
                    runs2 = runs + ((letter, 1),)
                out = _Out()
                t2 = _feed_run(t, ((letter, 1),), out)
                if out:  # an escape, whose peel emits at least one letter
                    edges.append(
                        TransducerEdge(m, LRWord(runs2), out.word(), Mat2(*t2))
                    )
                else:
                    stack.append((runs2, t2))
    edges.sort(key=lambda e: (e.src, e.input.runs))
    return Transducer(n, frozenset(states), tuple(edges))


# ---------------------------------------------------------------------------
# transduction of periodic input


@dataclass(frozen=True)
class ClosedWalk:
    start: Mat2
    input: LRWord
    output: LRWord
    gamma: int


def transduce_cycle(n: int, start: Mat2, repetend: LRWord) -> ClosedWalk:
    """Feed the repetend cyclically from the row-balanced `start`, in DB_n
    or not, one block per pass, until a block-boundary state repeats: one
    _feed_run call with a boundary dict, which returns the repeated state,
    gamma and the output cycle's start."""
    if not in_RB(start, n):
        raise ValueError(f"{start!r} is not a row-balanced start for T_{n}")
    if len(repetend.runs) < 2:  # adjacent runs of a word differ in letter
        raise ValueError("repetend must contain both letters")
    out = _Out()
    state, gamma, cut = _feed_run(start, repetend.runs, out, {})
    return ClosedWalk(Mat2(*state), repetend**gamma, out.word(cut), gamma)


def lr_cycle_to_period(cycle: LRWord) -> int:
    """Period of the number whose LR tail repeats `cycle`.

    Read cyclically forever, the cycle's runs are _cyclic_runs(cycle.runs),
    one run per partial quotient: their exponents E, read cyclically
    forever, are the tail's partial quotients, and the letters only
    alternate.  The least period of a periodic sequence divides every period
    of it, |E| among them, so the least cyclic period p of E is the tail's
    period and E[:p] its repetend up to rotation.  No primitive root and no
    V star(V) test are needed: a cycle that is a power, or V star(V), only
    makes E repeat.

    The transform and the search read the same exponents off the kernel's
    output accumulator without building the word: there the output cycle is
    a slice of the run counts between two snaps, whose first and last runs
    share a letter exactly when the slice has odd length, and folding the
    last count into the first then is _cyclic_runs on counts
    (_Out.cyclic_exps).  When a starred walk (_close_cycle) closes on half a
    cycle U star(U), the fold is for even length instead.
    """
    if len(cycle.runs) < 2:  # adjacent runs of a word differ in letter
        raise ValueError("cycle must contain both letters")
    return _primitive_period([e for _, e in _cyclic_runs(cycle.runs)])


def lr_repetend(cf: PeriodicCF) -> LRWord:
    """LR word of one period of the tail y = [; repetend] (doubled when odd)."""
    rep = cf.repetend
    if len(rep) % 2:
        rep = rep + rep
    # PeriodicCF keeps the quotients positive, and R, L alternate
    return LRWord(tuple(zip((R, L) * (len(rep) // 2), rep)))


def _enter(t, runs, out):
    """Feed runs[0], runs[1], ... (cyclically) from t, one whole run per
    _feed_run call, until the empty accumulator out holds output; returns
    (the state at the end of that run, runs rotated to the next run).

    t must be nonnegative and row balanced, and n is its own det, which
    the walk keeps (g d for a Hermite start).  Then a >= c + 1 and
    d >= b + 1, so n >= a + d - 1, the entries sum to at most 2n, and each
    letter absorbed without an escape adds at least 1, so the walk escapes
    within 2n - 1 letters.  The escape lands in DB_n.  Say it is on L, from
    t = (a, b, c, d) to t' = t L.  Then h_t'(-1) = h_t(inf) = a/c > 1,
    while t' maps [0, inf] into [0, 1], so its peel W starts with L and maps
    [0, inf] into [0, 1] too.  The peeled state s = W^-1 t' thus sends -1 to
    h_W^-1(a/c) < 0, and a row-balanced s with h_s(-1) < 0 is doubly
    balanced.  On R, h_t'(-1) = b/d < 1 and W starts with R.  Later escapes
    of that run land in DB_n too, as every escape from a DB_n state does.
    _feed_run's DB_n check covers the last escape of the run that escaped,
    rebuilt from the row-balanced state it returns.
    """
    r = 0
    while not out:
        t = _feed_run(t, (runs[r],), out)
        r = (r + 1) % len(runs)
    return t, runs[r:] + runs[:r]


def _close_cycle(t, runs, states):
    """The repetend, up to rotation, of the output of the walk from t over
    the cyclic word of which runs is one period, as a list of partial
    quotients; states, an empty dict, is left keyed by the states the walk
    records at block boundaries, t first, in the order of their first
    visits.

    runs is one period of x's LR word: the first per(x) runs of
    lr_repetend(x) rotated by whole runs, one run per quotient.  For an
    even period it is the whole cyclic word.  For an odd one the cyclic
    word is V star(V) with V = runs: lr_repetend doubles an odd period to
    U star(U), U of odd run count, and a rotation by k whole runs is
    V star(V) again, with V = U[k:] star(U[:k]), its first len(U) runs.
    So the walk is read starred exactly when len(runs) is odd.

    One kernel call feeds t whole blocks, runs[0], runs[1], ..., until a
    recorded state repeats (_feed_run with the boundary dict states).  t
    must be nonnegative and row balanced, so it is a start for the kernel
    as for _enter, and the kernel checks every state that an escape leads
    to.  The output from the repeated state's first visit on is a whole
    number of the orbit's output cycles, and the transient blocks from t
    before it, with their output, are cut away at that visit's snap.  Read
    cyclically, the cycle's run exponents are the image's partial
    quotients (lr_cycle_to_period), taken straight off the output's run
    counts (_Out.cyclic_exps) and cut at their least cyclic period, which
    divides every period of the sequence.  So from any state t of the walk
    from a Hermite form H (_hermite_start), H itself included, with runs
    rotated to start at t's next run, the result is the repetend of h_H(y)
    for y = [; repetend], up to rotation, and its length is per(h_H(y)).

    Starred, the kernel is fed V alone, each other pass through the state's
    associate (_feed_run, "The starred cycle"), and states holds the
    recorded states, an associate after each odd pass.  Its cycle is the
    walk's own when gamma is even.  When gamma is odd, the walk's cycle is
    U star(U) for the output U from the cut on, whose cyclic exponents are
    those that cyclic_exps reads with its starred fold rule, twice; a
    sequence and its double have the same least cyclic period, so the cut
    gives the same repetend.
    """
    out = _Out()
    starred = len(runs) % 2 == 1
    _, gamma, cut = _feed_run(t, runs, out, states, starred)
    exps = out.cyclic_exps(cut, starred=starred and gamma % 2 == 1)
    return exps[: _primitive_period(exps)]


def _hermite_start(m: Mat2, x: PeriodicCF):
    """(H, runs): the start of every walk of h_m(x), the Hermite form H of
    B = m P over its content as the entry tuple (g, b, 0, d), of det
    n = g d, and the runs of lr_repetend(x).

    Write x = h_P(y), where P is the product of [[q, 1], [1, 0]] over the
    preperiod and y = [r0; r1, ...] > 1 is purely periodic, with LR stream
    lr_repetend(x).  Left row operations in GL2(Z) (matrices._hermite)
    bring B over its content to its Hermite form H = [[g, b], [0, d]] with
    g d = n, 0 <= b < d and content 1, for either sign of det m.  So
    B = k U H with k the content and U unimodular, h_m(x) = h_U(h_H(y)),
    and a unimodular map keeps the tail of a continued fraction (Serret),
    so per(h_m(x)) = per(h_H(y)).  U = B H^-1 / k records every shift and
    flip between the two.  The Hermite form is unique, so the result
    depends on m only through its coset GL2(Z) m.  H is nonnegative and row
    balanced (g > 0 = c, d > b): a start for _enter.

    H is reached one quotient at a time, never through B itself: the form
    of m over its content gcd(g, b, d) (the content of m), then, per
    quotient q, the form of the current form times [[q, 1], [1, 0]],
    [[g q + b, g], [d, 0]].  Each step multiplies the matrix so far on the
    left by a unimodular matrix, so after the last it is U' B / k for some
    unimodular U', a Hermite form with B's coset: H, by uniqueness.  The
    entries of each step lie within n (|q| + 1), so each quotient costs one
    Euclid on numbers of O(log n + log |q|) bits, and the preperiod's
    length never enters the size of an entry.
    """
    if det(m) == 0:
        raise ValueError("matrix must be nonsingular")
    g, b, d = _hermite(*m)
    k = gcd(g, b, d)
    g, b, d = g // k, b // k, d // k
    for q in x.preperiod:
        g, b, d = _hermite(g * q + b, g, d, 0)
    return (g, b, 0, d), lr_repetend(x).runs


def reduce_to_DB(m: Mat2, x: PeriodicCF):
    """Reduce h_m(x) to a row-balanced state fed by x's periodic tail.

    Returns (state, tail, emitted): state, of det n = |det m| over the
    content of m, ends the run in which the walk from the Hermite form H of
    _hermite_start first escapes (_enter), so it is row balanced and not
    always in DB_n; tail is the periodic LR input stream rotated to the
    next run; emitted is the walk's output up to state.  Why H's walk
    gives the period of h_m(x) is proved in _hermite_start.
    """
    t, runs = _hermite_start(m, x)
    out = _Out()
    t, tail = _enter(t, runs, out)
    # lr_repetend's runs alternate, even in number: a rotation is canonical
    return Mat2(*t), LRWord(tail), out.word()


def image_repetend(m: Mat2, x: PeriodicCF) -> tuple[int, ...]:
    """The repetend of h_m(x), up to rotation, computed entirely through the
    transducer machinery, on entry tuples: the walk from the Hermite start
    (_hermite_start, where the proof is) fed x's runs cyclically, entered
    with scratch output (_enter) and closed from there (_close_cycle).
    Entering first saves the walk a transient block: from H the kernel
    usually needs one, from the entered node almost never.  The entered
    runs are cut to one period, len(x.repetend) of them: for an odd period
    they are V of the rotated V star(V) (lr_repetend), so the walk is
    closed starred, on passes of V, and after one when its cycle is star
    symmetric."""
    t, runs = _enter(*_hermite_start(m, x), _Out())
    return tuple(_close_cycle(t, runs[: len(x.repetend)], {}))


def image_period(m: Mat2, x: PeriodicCF) -> int:
    """per(h_m(x)): the length of image_repetend(m, x)."""
    return len(image_repetend(m, x))


# ---------------------------------------------------------------------------
# sharpness search


def _key_step(form, letter, k):
    """The Hermite form of H letter^k for H = [[g, b], [0, d]] = form.

    H R^k = [[g, g k + b], [0, d]] is triangular already; H L^k =
    [[g + b k, b], [d k, d]] needs Euclid.  A matrix U H with U unimodular
    has the coset of H, and right multiplication by the unimodular letter^k
    maps the coset GL2(Z) H onto GL2(Z) H letter^k, keeps its determinant
    and content, and is undone by letter^-k.  So the step from a state's
    form is the form of the state times letter^k, and for each (letter, k)
    it is a bijection on the psi(n) primitive forms.
    """
    g, b, d = form
    if letter == R:
        return g, (b + g * k) % d, d
    return _hermite(g + b * k, b, d * k, d)


def search_max_ratio(n: int, cf: PeriodicCF):
    """Max of per(output)/per(input) over all DB_n start states and all
    letter rotations of the input repetend's LR word, and its first witness.

    Reading a rotation repeatedly is a bi-infinite walk over the cyclic
    word, so every limit cycle is a periodic orbit of the run-by-run map
    on (next run index, state) nodes, and its output period is rotation
    invariant.  The offsets inside run r = (letter, e) start the walk at
    (r, s) for a DB_n state s or, k letters short of the run's end, at
    ((r+1) % nr, W^-1 s letter^k) for k = e-1 ... 1, where W is the word
    peeled on the way.

    The key.  Let y_r be the number whose LR word is the cyclic word read
    from run r on.  The orbit of node (r, t) outputs the LR tail of
    h_t(y_r), so its period is per(h_t(y_r)), which depends only on the
    coset GL2(Z) t: a unimodular map keeps the tail of a continued fraction
    (Serret; see _hermite_start).  So a period belongs to the key
    (r, _hermite(t)).  W is unimodular, so the node k letters short of the
    run's end reached from s has the key (r+1, _key_step(form, letter, k))
    for s's form.  The successor's key is the same step by the node's run,
    a bijection on the nr psi(n) keys (_key_step), so the keys of an orbit
    lie on one pure cycle, and every key on it has the orbit's period.

    The maximum.  Each of the psi(n) primitive forms (g, b, d)
    (_primitive_forms) that no earlier walk reached is fed as the node
    (0, H), H = (g, b, 0, d), straight to _close_cycle with the runs of
    one period V, p = per(y) of them for y = [; repetend]: one kernel call
    feeds H one pass of V per block, and the length of the repetend it
    returns is per(h_H(y)) (_hermite_start).  For even p, V is the whole
    cyclic word, so every state the walk records is a run-0 node.  For odd
    p the cyclic word is V star(V), and the walk is starred: after an odd
    number of passes it records A = J s J, J = [[0, 1], [1, 0]], where s
    is the walk's real state at run p, the start of star(V).  A is a run-0
    node with the walk's period too: h_A(y) = 1/h_s(1/y), the number 1/y,
    whose LR word is the star of y's, is the one read from run p on, and
    per(1/z) = per(z), so per(h_A(y)) = per(h_s(y_p)).  So every recorded
    state s gets the walk's period under its form, the key of (0, s).
    The state recorded after j blocks is U H B^j, U in GL2(Z) (the peels,
    and for odd p the J's that the associates put on the left), and
    B = mu(V), times J for odd p: so its form is H's stepped j times,
    j = 0 included, by the block step: V's key steps (_key_step), then, for odd p, the form of the form
    times J, [[g, b], [0, d]] J = [[b, g], [d, 0]], _hermite(b, g, d, 0).
    Right multiplication by the unimodular B maps cosets to cosets and is
    undone by B^-1, so the block step is a bijection on the psi(n) forms,
    and its cycles are pure: the transient states' forms lie on the cycle
    too.  The kernel records tau + gamma states, the last gamma of them a
    cycle of states; a state's return implies its form's, so the key
    cycle's length divides gamma, and those gamma consecutive forms cover
    it.  So period_of holds the psi(n) run-0 keys, one walk per key cycle
    of the block step, each key's entry per(h_H(y)) for H of that form,
    whichever walk recorded it.  H is not entered first (_enter), as the
    transform's walk is: every recorded state has to be a run-0 node.  So
    best_ratio, the largest period over per(y), y = y_0, is the maximum of
    per(h_H(y)) / per(y) over the primitive forms H by construction.  A
    key cycle of the run-by-run step steps through every run index of the
    cyclic word, so no run holds a larger period.  Any x with this
    repetend is h_P(y), P unimodular, so it is also the maximum of
    per(h_M(x)) / per(x) over every primitive M with |det M| = n.  Each
    coset's image has the tail of one (offset, DB_n state) node's orbit
    (reduce_to_DB), so some node attains it.

    The witness.  Returns (best_ratio, witness_state, witness_offset): the
    first offset, then the first state in entry order, that attains the
    maximum.  The scan returns the first hit: the starts (0, s) at run 0's
    first offset, then, run by run, for k = e-1 ... max(0, e-n) and each
    start the key (r+1, _key_step(form, letter, k)), at e - k letters into
    the run; k = 0 is run r + 1's first offset.  At run 0's first offset
    the key of (0, s) is s's own form, so each start's form is computed
    only when the scan reaches that start, and the starts themselves come
    from _iter_DB: DB_n in _enumerate_DB's sorted order, walked lazily by
    a, then b, with c solved mod a, and, once that walk has spent a budget
    of the full build's order, O(n log n), read off _enumerate_DB's tuple
    from the index where it stopped.  The lazy walk yields exactly the
    tuple's prefix (proved in _iter_DB), so the entry order, and with it
    the witness, is the tuple's, and no start is read twice.  Only when no
    start hits there are all the forms held, once each, for the later
    offsets, beside the tuple's states.  Run r + 1's
    periods come from run r's by one key step per form, the key cycle's
    own step, built only when the scan gets past run r's first offset.
    The key _key_step(form, letter, k) is periodic in k with a period
    dividing n: for R it is d / gcd(g, d), and for L, H L^n H^-1 =
    I + [[b d, -b^2], [d^2, -b d]] lies in SL2(Z), so H L^(k+n) has the
    coset of H L^k.  So the largest k < e that hits lies among the n
    offsets of the window.  When e > n the window stops at k = e - n >= 1,
    short of the next run's first offset, but it holds a multiple of n,
    where each start's key is its k = 0 key: a hit there comes first.
    The scan reads the runs of V alone, up to run p's first offset |V|
    (the last window's k = 0).  For even p, V is the whole word.  For odd
    p, the word read from an offset o >= |V| is the star of the word read
    from o - |V|, so the node (o, s) has the period of (o - |V|, J s J),
    as A has above, and J s J = (d, c, b, a) is in DB_n with s, whose
    balance conditions read the same on it.  So a hit (o, s) means a hit
    (o - |V|, J s J) at an earlier offset, and the first hit lies in V.

    The cost is one kernel call per key cycle of the block step
    (_close_cycle), with a Hermite form per recorded state, then the forms
    of the starts that run 0's first offset reads, up to its first hit,
    and the lazy walk's rows up to that start.  DB_n is built only when
    the lazy walk's budget runs out, or the scan gets past run 0's first
    offset, and the walk before it costs about as much as the build.  Only
    a scan that gets past run 0's first offset pays for every start's form,
    psi(n) key steps and at most n |DB_n| more per run of V that it reads.
    None of it depends on the size of the partial quotients.  The witness
    sits at run 0's first offset in nearly every search: in 59 of the
    benchmark's 60 search problems (seed 7), where it is the 3.5th of about
    34 starts on average and has a <= 6, so the lazy walk reads at most 21
    rows; the one other problem builds DB_n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    runs = lr_repetend(cf).runs[: per(cf)]
    period_of: dict = {}  # Hermite form of a run-0 node -> its orbit's period
    for form in _primitive_forms(n):
        if form not in period_of:
            g, b, d = form
            states = {}
            period = len(_close_cycle((g, b, 0, d), runs, states))
            for s in states:  # H first, whose form is form
                period_of[_hermite(*s)] = period
    best = max(period_of.values())
    ratio = Fraction(best, per(cf))
    forms = []  # the starts' forms, each computed once when reached
    for s in _iter_DB(n):
        form = _hermite(*s)
        if period_of[form] == best:
            return ratio, Mat2(*s), 0
        forms.append(form)
    starts = _enumerate_DB(n)
    offset = 0
    here = period_of  # Hermite form of a node of the run scanned -> period
    for letter, e in runs:
        here = {_key_step(f, letter, e): p for f, p in here.items()}
        for k in range(e - 1, max(0, e - n) - 1, -1):
            for s, form in zip(starts, forms):
                if here[_key_step(form, letter, k)] == best:
                    return ratio, Mat2(*s), offset + e - k
        offset += e
