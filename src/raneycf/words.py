"""Run-length-encoded words over {L, R} and their matrix calculus.

An LRWord stores runs ((letter, exponent), ...) with adjacent letters
distinct and exponents >= 1 (arbitrary precision — exponents in the tens
of thousands occur routinely, so nothing here ever expands a word into
individual letters unless the caller asks for it).

The package's one escape kernel lives here too: _feed_run takes a state,
a Mat2 or any entry tuple (a, b, c, d) that equals one, absorbs each
input run whole on the right and then peels maximal output runs off the
left, once, and _peel is that kernel with nothing to absorb.  The state
carries its own determinant, so no n is passed along.  Given a dict of block-boundary states, it also
feeds a block of runs again and again until a boundary state repeats,
which closes a periodic walk in one call; starred, it reads every other
pass as the block's star through the state's associate, which closes a
walk over V star(V) on passes of V.  It sits below the transducer
in the import graph, so word_of_matrix and the transducer share it.  Its
output goes to an _Out, which stores only the exponents of the output's
runs: merged runs alternate in letter, so run i is an L-run for even i
and an R-run for odd i, and a peel either adds to the last exponent or
appends one.  Letters come back from the parity of the index when an
LRWord is cut out between two snaps (_Out.word).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

from .matrices import IDENTITY, Mat2, _check_db, in_D
from .surds import _primitive_period

L = "L"
R = "R"


def star_letter(letter: str) -> str:
    if letter == L:
        return R
    if letter == R:
        return L
    raise ValueError(f"not a letter: {letter!r}")


def _canonical(runs) -> tuple[tuple[str, int], ...]:
    out: list[list] = []
    for letter, exp in runs:
        if letter not in (L, R):
            raise ValueError(f"not a letter: {letter!r}")
        if exp < 0:
            raise ValueError("negative run exponent")
        if exp == 0:
            continue
        if out and out[-1][0] == letter:
            out[-1][1] += exp
        else:
            out.append([letter, exp])
    return tuple((l, e) for l, e in out)


def _cyclic_runs(runs):
    """The runs of a nonempty word read cyclically: when the first and last
    letters agree, the wrap-around pair fuses into one run, so a word of two
    or more runs, whose letters alternate, gives an even number of runs."""
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        return ((runs[0][0], runs[0][1] + runs[-1][1]),) + runs[1:-1]
    return runs


@dataclass(frozen=True)
class LRWord:
    """A word as its runs, trusted as given: letters L and R, exponents >= 1,
    adjacent letters distinct.  from_runs and from_letters build it."""

    runs: tuple[tuple[str, int], ...]

    @classmethod
    def from_runs(cls, runs) -> "LRWord":
        """The canonical word of any runs: _canonical rejects bad letters and
        negative exponents, drops zeros and merges equal neighbours."""
        return cls(_canonical(runs))

    @classmethod
    def from_letters(cls, letters) -> "LRWord":
        return cls(_canonical((l, 1) for l in letters))

    def __len__(self) -> int:
        return sum(e for _, e in self.runs)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __add__(self, other: "LRWord") -> "LRWord":
        return LRWord.from_runs(self.runs + other.runs)

    def __pow__(self, k: int) -> "LRWord":
        if k < 0:
            raise ValueError("negative power")
        runs = self.runs
        if not k or not runs or runs[0][0] != runs[-1][0]:
            return LRWord(runs * k)  # no runs merge at the seams
        if len(runs) == 1:
            return LRWord(((runs[0][0], runs[0][1] * k),))
        # the last and first runs of adjacent copies merge at each seam
        return LRWord(runs[:-1] + _cyclic_runs(runs) * (k - 1) + runs[-1:])

    def __str__(self) -> str:
        return format_word(self)

    def letters(self):
        for letter, exp in self.runs:
            for _ in range(exp):
                yield letter


EPSILON = LRWord(())

def format_word(word: LRWord) -> str:
    if not word.runs:
        return "e"
    return "".join(l if e == 1 else f"{l}^{e}" for l, e in word.runs)


def _mu_run(letter: str, exp: int) -> Mat2:
    if letter == L:
        return Mat2(1, 0, exp, 1)
    return Mat2(1, exp, 0, 1)


def mu(word: LRWord) -> Mat2:
    """Product of L = [[1,0],[1,1]] and R = [[1,1],[0,1]] along the word."""
    m = IDENTITY
    for letter, exp in word.runs:
        m = m * _mu_run(letter, exp)
    return m


def word_of_matrix(m: Mat2) -> LRWord:
    """Inverse of mu on D_1: greedy left-peeling of maximal L/R runs.

    The peel ends at the identity: a balanced nonnegative matrix has
    a >= c + 1 and d >= b + 1, so det 1 = ad - bc >= b + c + 1 forces
    b = c = 0 and a = d = 1.
    """
    if not in_D(m, 1):  # det 1 gives content 1
        raise ValueError(f"{m!r} is not a nonnegative matrix of determinant 1")
    out = _Out()
    _peel(m, out)
    return out.word()


def sigma(word: LRWord) -> int:
    return len(word.runs)


def sigma_c(word: LRWord) -> int:
    """Minimum of sigma over all conjugates; equals 2*floor(sigma/2)."""
    if not word:
        raise ValueError("sigma_c of the empty word")
    return 2 * (sigma(word) // 2)


def star(word: LRWord) -> LRWord:
    # swapping the letters of a canonical word leaves it canonical
    return LRWord(tuple((star_letter(l), e) for l, e in word.runs))


def rotate(word: LRWord, k: int) -> LRWord:
    """Cyclic left rotation by k letters (run-aware; k and the word's
    length may be huge, past what len() can return)."""
    runs = word.runs
    if len(runs) < 2:  # L^e is each of its rotations
        return word
    cyc = _cyclic_runs(runs)
    # a fused cyc starts where the word's last run does
    k = (k + (runs[-1][1] if len(cyc) < len(runs) else 0)) % sum(e for _, e in runs)
    for i, (letter, exp) in enumerate(cyc):
        if k < exp:  # cut run i after k letters: its rest leads, its head trails
            head = ((letter, k),) if k else ()
            return LRWord(((letter, exp - k),) + cyc[i + 1 :] + cyc[:i] + head)
        k -= exp


def conjugates(word: LRWord) -> set[LRWord]:
    """All cyclic rotations (deduplicated). Materializes len(word) rotations."""
    if not word:
        raise ValueError("conjugates of the empty word")
    return {rotate(word, k) for k in range(len(word))}


def primitive_root(word: LRWord) -> tuple[LRWord, int]:
    """Return (root, multiplicity) with word = root**multiplicity, root primitive.

    Let F = _cyclic_runs(runs), of even length f, and q a cyclic period of
    F (q divides f, F[i] = F[i mod q]).  Since letters alternate, q is even.
    When the end letters differ, F = runs, so word = U^(f/q) with
    U = runs[:q], whose end letters differ too, so no runs merge at its
    seams.  When they agree (l0 = first letter, e_last = last exponent),
    U = runs[:q] + ((l0, e_last),) begins and ends with l0, and its seams
    fuse into (l0, e_first + e_last) = F[0], so U^(f/q) = word.
    Conversely, if word = U^m, then F is _cyclic_runs(U.runs) repeated m
    times, so f / m is a cyclic period of F.  The least q thus gives the
    shortest root.  A one-run word L^e has root L and multiplicity e.
    """
    runs = word.runs
    if not runs:
        raise ValueError("primitive root of the empty word")
    if len(runs) == 1:
        letter, exp = runs[0]
        return LRWord(((letter, 1),)), exp
    fused = _cyclic_runs(runs)
    q = _primitive_period(fused)
    root = runs[:q]
    if len(fused) < len(runs):  # the end runs fused
        root += ((runs[0][0], runs[-1][1]),)
    return LRWord(root), len(fused) // q


def kappa(word: LRWord, n: int) -> LRWord:
    """Normalize each run exponent to its mod-n representative in [4n, 5n-1]."""
    if not word:
        raise ValueError("kappa of the empty word")
    if n < 1:
        raise ValueError("n must be >= 1")
    return LRWord(tuple((l, 4 * n + (e % n)) for l, e in word.runs))


def tau_kappa(word: LRWord, n: int) -> set[LRWord]:
    """Conjugacy class of kappa applied to a sigma_c-realizing conjugate.

    Every such conjugate gives one class.  A conjugate has sigma_c runs
    exactly when it is cut at a run boundary of the cyclic word, whose runs
    are _cyclic_runs(runs) (a cut inside a run leaves one run more), so each
    is a rotation of the fused cycle, run for run; kappa acts run by run, so
    it maps them all to rotations of kappa(fused cycle).  Words with one
    letter or none are rejected: their kappa image is conjugacy-degenerate
    and the bound machinery never needs them.
    """
    if len({l for l, _ in word.runs}) < 2:
        raise ValueError("tau_kappa requires both letters present")
    return conjugates(kappa(LRWord(_cyclic_runs(word.runs)), n))


# ---------------------------------------------------------------------------
# the escape kernel


class _Out:
    """Output accumulator of alternating runs: counts[i] is the exponent of
    run i, whose letter is L for even i and R for odd i.  It starts as [0];
    only counts[0] can be 0 (an output that starts with R), and every later
    count is >= 1, so a peel merges into the last run exactly when its
    letter is that run's, and appends a count otherwise."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: list[int] = [0]

    def __bool__(self) -> bool:
        """Whether any output is held (only counts[0] can be 0)."""
        return bool(self.counts[-1])

    def snap(self):
        """The current end of the output: (number of counts, last count)."""
        return (len(self.counts), self.counts[-1])

    def _cut(self, start, stop):
        """(index of the first run, the run exponents) of the output between
        two snaps: the edge runs are cut at them, and dropped if cut to 0."""
        i, a = start
        j, b = self.snap() if stop is None else stop
        exps = self.counts[i - 1 : j]
        exps[-1] = b
        exps[0] -= a
        # only the two edge runs can have been cut to zero; the rest are
        # merged runs
        if not exps[-1]:
            exps.pop()
        if exps and not exps[0]:
            del exps[0]
            i += 1
        return i - 1, exps

    def word(self, start=(1, 0), stop=None) -> LRWord:
        """The output between two snaps; by default all of it."""
        first, exps = self._cut(start, stop)
        return LRWord(tuple(zip(cycle((R, L) if first % 2 else (L, R)), exps)))

    def cyclic_exps(self, start, stop=None, starred=False) -> list[int]:
        """The run exponents of the output between two snaps, read
        cyclically: an odd number of runs starts and ends on one letter, so
        the last exponent folds into the first (_cyclic_runs on counts).

        When starred, the cycle is U star(U) for the output U between the
        snaps, and the result is its exponents up to the second copy: U's
        m runs start on one letter X.  For even m, U ends on star(X), where
        star(U) starts, and star(U) ends on X, where U starts, so both seams
        fuse, into the same sum: the last exponent folds into the first.
        For odd m, U ends on X and star(U) on star(X), so neither fuses.
        Either way _cyclic_runs of U star(U) is the result twice."""
        exps = self._cut(start, stop)[1]
        if (len(exps) % 2 == 1) != starred and len(exps) > 1:
            exps[0] += exps.pop()
        return exps


def _feed_run(t, runs, out, boundary=None, starred=False):
    r"""Consume the input runs ((letter, count), ...) in order from the state
    t, a Mat2 or its entry tuple, peeling the output into out.counts;
    returns the balanced state left, as an entry tuple.

    The one escape kernel.  It absorbs each run letter^e whole, t times
    L^e (a += b e, c += d e) or R^e (b += a e, d += c e), then peels
    maximal L/R runs off the left until the state is balanced.  t needs
    det(t) > 0 and nonnegative entries.  An unbalanced t is fed the empty
    run (None, 0) first, whose peel is not checked, so runs = () is a plain
    peel (_peel).  Every state of the walk keeps det(t) (see "The peel"),
    so DB_n below is for n = det(t), and no caller passes n.

    The cycle.  Given a dict `boundary`, empty, the kernel feeds the tuple
    runs as a block again and again from t and records each state at a
    block boundary, t first, as boundary[state] = (blocks fed, the output's
    snap there), until a state repeats.  It then returns (that state,
    gamma = the number of blocks between its two visits, the snap of its
    first visit): the output cycle runs from that snap to the output's end,
    and boundary's keys are the block-boundary states in the order of
    their first visits.  t need not be in DB_n: the kernel checks every
    state that an escape leads to.

    The starred cycle.  With starred, the cyclic input is V star(V), star
    swapping L and R, and runs is V alone: after each pass the kernel
    replaces the state (a, b, c, d) by its associate J M J = (d, c, b, a),
    J = [[0, 1], [1, 0]], toggles on_l and records the associate.  Since
    J L J = R and J R J = L, J mu(W) J = mu(star W).  So if
    s star(V) = mu(W) s', then (J s J) V = J s star(V) J =
    mu(star W) (J s' J): the pass over star(V) from s is the pass over V
    from J s J, which peels star W, written to out as W through the
    toggled on_l, and ends at the associate of s'.  Row balance (a > c, d > b) and double balance
    (that and a > b, d > c) read the same on (d, c, b, a), so a
    factorization's associate is the associate's factorization (by
    uniqueness, see below), the escapes and peels of the two passes
    correspond, and the inline DB test on an associate passes exactly when
    it passes on the state itself; a failure names the associate.  So the
    state s_k recorded after k passes is the walk's own state after k
    passes of V, star(V), V, ... for even k and its associate for odd k,
    and s_(k+1) is a function of s_k alone: a repeat s_i = s_j, i < j,
    closes the walk, whose passes from j on repeat those from i, starred
    when gamma = j - i is odd.  For even gamma the output U from i to j is
    a cycle.  For odd gamma the walk from j is the walk from i starred, so
    it writes star(U) up to pass 2j - i, where the state is the one at i
    again (J J = I): the cycle is U star(U) (_Out.cyclic_exps, starred).
    Every block boundary of the doubled block V star(V) is an s_k with k
    even, so the doubled walk's first repeat is one of s, after
    2 ceil(i / 2) + 2 gamma passes for odd gamma and 2 ceil(i / 2) + gamma
    for even gamma: never fewer than the starred walk's i + gamma, and
    twice as many on a star-symmetric cycle entered at once (i = 0).

    Why one peel per run gives the transducer's output.  A nonnegative M
    of det > 0 has at most one of L^-1 M = (a, b, c - a, d - b) and
    R^-1 M = (a - c, b - d, c, d) nonnegative: both would need a = c and
    b = d, so det M = 0.  A row-balanced M (a > c, d > b) has neither, and
    an unbalanced one has exactly one: a <= c with d < b would make
    ad < bc, so a <= c forces d >= b, and d <= b forces a >= c.  So the first
    letter of W in M = mu(W) B, with B nonnegative and row balanced, is
    forced, and by induction the factorization is unique (Raney 1973);
    the peel finds it, each step taking the forced letter as often as it
    stays nonnegative.  Escape-by-escape transduction, which peels at
    every escape and absorbs on, factors the same product: a left peel
    commutes with a right absorb, so it writes t letter^e = mu(W) B with
    the same kind of B, and uniqueness makes both W and B equal.  A run
    escapes exactly when t letter^e is unbalanced: a balanced product is
    its own factorization with W empty.

    The peel.  Absorbing only adds to entries and each peel step keeps
    them nonnegative, with det unchanged, so every state has a >= 1 and
    d >= 1 (a = 0 or d = 0 would give det = -bc <= 0).  A peel of L^k
    keeps c - k a and d - k b nonnegative, so k is at most
    min(c // a, d // b); det > 0 gives d / b > c / a when b > 0, so that
    minimum is c // a.  Likewise R^k peels b // d letters.  The peel
    alternates: an unbalanced state with c >= a has d >= b (the lemma
    above), so it takes L^(c // a), which leaves c < a and is balanced
    exactly when d > b; otherwise a > c and, the state being unbalanced,
    d <= b, so it takes R^(b // d) with no test, which leaves b < d and is
    balanced exactly when a > c; otherwise it loops.  Those two cases
    cover every unbalanced state, and by the lemma each one's letter peels,
    so no state is left on which neither does: the loop needs no branch
    for one.  A run thus takes one step per output run it writes, plus at
    most one that merges into the run before, on integers O(log e) bits
    longer than t's: no step count grows with a partial quotient.

    The check.  A run that peels anything escaped, and its last escape
    landed on the DB_n state s that the rest of the run, letter^j with no
    further escape, carried to the end state (a, b, c, d).  s is doubly
    balanced, so after an L-run c_s < d_s gives j = c // d and
    s = (x, b, c mod d, d) with x = a - b j; after an R-run b_s < a_s
    gives j = b // a and s = (a, b mod a, c, x) with x = d - c j.  Three
    of _check_db's four conditions on s hold already.  After an L-run, s
    and the end state share b and d, and the end state's balance gives
    d > b; a residue gives d > c mod d; and the end state's a > c reads
    x + b j > c mod d + d j, so x > c mod d + (d - b) j >= c mod d.  After
    an R-run, likewise, a > c, a > b mod a and x > b mod a + (a - c) j.
    So the kernel tests the fourth inline, x > b after L and x > c after
    R, once per run that peels, and hands s to _check_db, which raises,
    only when it fails.  One-letter feeds (build_transducer, and the tests'
    LE walks in tests/references.py) still check every escape.

    The output.  Whether out's last run is an L-run is the parity of its
    number of counts, read once at entry and then kept in on_l, so each
    peel of L^k (R^k) adds k to the last count when that run has its letter
    and appends k otherwise: one integer operation, no letter stored.
    """
    emitted = out.counts
    on_l = len(emitted) % 2 == 1  # whether the last run is an L-run
    a, b, c, d = t
    # an unbalanced t is peeled by the empty run (None, 0), with no check
    block = runs if a > c and d > b else ((None, 0), *runs)
    if boundary is not None:
        blocks = 0
        boundary[t] = (0, len(emitted), emitted[-1])
    while True:
        for letter, e in block:
            if letter == L:
                a += b * e
                c += d * e
            else:
                b += a * e
                d += c * e
            if a > c and d > b:
                continue
            while True:  # the alternating peel (see "The peel")
                if c >= a:  # so d >= b
                    k = c // a
                    c -= k * a
                    d -= k * b
                    if on_l:
                        emitted[-1] += k
                    else:
                        emitted.append(k)
                        on_l = True
                    if d > b:  # and c < a
                        break
                # a > c and d <= b
                k = b // d
                a -= k * c
                b -= k * d
                if on_l:
                    emitted.append(k)
                    on_l = False
                else:
                    emitted[-1] += k
                if a > c:  # and d > b
                    break
            if letter == L:  # the run's last escape, rebuilt: (x, b, c % d, d)
                x = a - b * (c // d)
                if x <= b:
                    _check_db((x, b, c % d, d))
            elif letter == R:  # (a, b % a, c, x)
                x = d - c * (b // a)
                if x <= c:
                    _check_db((a, b % a, c, x))
        if boundary is None:
            return (a, b, c, d)
        if starred:  # the next pass reads star(runs): feed runs to the associate
            a, b, c, d = d, c, b, a
            on_l = not on_l
        t = (a, b, c, d)
        blocks += 1
        visit = (blocks, len(emitted), emitted[-1])
        first = boundary.setdefault(t, visit)
        if first is not visit:
            return t, blocks - first[0], first[1:]
        block = runs


def _peel(t, out):
    """Peel maximal L/R runs off the left of t until the remainder is
    balanced, merging them into out.counts: the kernel with no letters to
    absorb."""
    return _feed_run(t, (), out)
