"""The tests' one home for what only the tests call: the references that
the suites check src/ against, the paper's vocabulary that no command
reads, and the helpers that more than one suite shares.

Each reference is one computation done a second way, and its docstring
ends with a paragraph, "Independent", that says why it does not lean on
the src/ code it checks.  There is one reference per computation:

- DB_n: the sweep _doubly_balanced_up_to, built once for every n <= 300,
  and the pair loop _pair_loop_enumerate_DB for single n past that;
- the escape kernel: _reference_peel and _reference_feed_run, one call
  per escape; its block mode, _reference_close_cycle, one kernel call per
  block; transduce_cycle's output cut, _reference_transduce_cycle, one
  fresh accumulator per pass; the output accumulator, _RunsOut;
- the transform's start and entry: _reference_hermite_start and
  _reference_enter;
- the search: _reference_search_max_ratio, a scan over every (offset,
  state) pair; _reference_key_cycle, the one walk of search keys; and
  _reference_block_cycle, read off that walk;
- the LE side of S_n: the sum over Raney's LE walks, s_n_via_transducer
  (Raney, "On continued fractions and finite automata", 1973), with the
  classes it walks from (is_LE, is_RE, nu_L, nu_R, enumerate_LE) and the
  walk itself (walk_LE); the tests check it against the divisor sum
  bounds.s_n_closed_form, which every command reads;
- words, surds, bounds and the CLI's draws: one reference each, below.

The vocabulary: Raney's sigma, sigma_c and star on words, the associate
J M J on matrices, the empty word EPSILON and the validated word
constructors word_from_runs and word_from_letters.

pytest collects no tests here (tests/test_imports.py pins that this file
defines no test function); the test modules import it by name.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from types import MappingProxyType

from raneycf.bounds import s_n_closed_form
from raneycf.cli import _DRESS
from raneycf.matrices import (
    IDENTITY,
    J_MAT,
    Mat2,
    _check_db,
    _divisors,
    _hermite,
    content_gcd,
    det,
    in_DB,
    inverse_times_det,
)
from raneycf.surds import PeriodicCF, QuadraticSurd, _floor, apply_mobius, cf_from_surd, per, surd, surd_from_cf
from raneycf.transducer import _key_step, lr_cycle_to_period, lr_repetend
from raneycf.words import L, R, LRWord, _feed_run, kappa, mu, rotate
from raneycf.words import _Out as _KernelOut

# ---------------------------------------------------------------------------
# matrices


def primitive_part(m: Mat2) -> Mat2:
    """m divided by its content gcd(a, b, c, d); m must not be zero."""
    g = content_gcd(m)
    if g == 1:
        return m
    return Mat2(m.a // g, m.b // g, m.c // g, m.d // g)


def transpose(m: Mat2) -> Mat2:
    return Mat2(m.a, m.c, m.b, m.d)


def associated(m: Mat2) -> Mat2:
    """The associated matrix M* = J M J (swap a<->d, b<->c)."""
    return Mat2(m.d, m.c, m.b, m.a)


def _require_DB(m: Mat2) -> int:
    n = det(m)
    if n < 1 or not in_DB(m, n):
        raise ValueError(f"{m!r} is not doubly balanced")
    return n


def is_LS(m: Mat2) -> bool:
    _require_DB(m)
    return m.b == 0


def is_LE(m: Mat2) -> bool:
    _require_DB(m)
    return m.b == 0 and m.c < gcd(m.a, m.d)


def is_RE(m: Mat2) -> bool:
    _require_DB(m)
    return m.c == 0 and m.b < gcd(m.a, m.d)


def nu_L(m: Mat2) -> int:
    if not is_LE(m):
        raise ValueError(f"{m!r} is not in LE")
    return m.a // gcd(m.a, m.d)


def nu_R(m: Mat2) -> int:
    if not is_RE(m):
        raise ValueError(f"{m!r} is not in RE")
    return m.d // gcd(m.a, m.d)


def enumerate_LE(n: int) -> set[Mat2]:
    """All [[t,0],[u,m]] with t*m = n and u in I_t (0 if gcd(t,m)=1, else 1..gcd-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = set()
    for t in _divisors(n):
        m = n // t
        g = gcd(t, m)
        us = (0,) if g == 1 else range(1, g)
        for u in us:
            out.add(Mat2(t, 0, u, m))
    return out


@lru_cache(maxsize=None)
def _doubly_balanced_up_to(top):
    """DB_n for every n <= top at once, sorted by entries: every nonnegative
    doubly balanced (a, b, c, d) with ad - bc <= top and content 1, as a
    read-only mapping, since the memo hands every caller the same one.

    For fixed a and c, the least determinant over d > max(b, c) grows as b
    moves away from c in either direction, so each b loop stops at the
    first b past the top.

    Independent: matrices._iter_DB fixes n and solves a congruence per
    row (a, b); this fixes no n, runs over the entries directly and files
    each state under its own determinant, with the balance conditions in
    its loop bounds, not read from in_DB."""
    found = {n: [] for n in range(1, top + 1)}
    for a in range(1, top + 1):
        for c in range(a):
            for bs in (range(c, a), range(c - 1, -1, -1)):
                for b in bs:
                    d = max(b, c) + 1
                    n = a * d - b * c
                    if n > top:
                        break
                    for d in range(d, d + (top - n) // a + 1):
                        if gcd(a, b, c, d) == 1:
                            found[a * d - b * c].append(Mat2(a, b, c, d))
    return MappingProxyType({n: tuple(sorted(ms)) for n, ms in found.items()})


def _pair_loop_enumerate_DB(n):
    """DB_n by the loop over every (a, c) with one linear congruence for b
    each, n^2 / 2 pairs, none skipped: the reference for single n past the
    sweep's 300.

    Independent: matrices._iter_DB reads rows (a, b), solves for c and
    skips the rows that balance rules out; this reads every column pair
    (a, c), solves for b and skips none."""
    found = []
    for a in range(1, n + 1):
        for c in range(0, a):
            g = gcd(c, a)
            if n % g:
                continue
            step = a // g
            b0 = -(n // g) * pow(c // g, -1, step) % step
            for b in range(b0, a, step):
                d = (n + b * c) // a
                if d > b and d > c and gcd(a, b, c, d) == 1:
                    found.append(Mat2(a, b, c, d))
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# words: the paper's vocabulary and the validated constructors

EPSILON = LRWord(())


def star_letter(letter: str) -> str:
    if letter == L:
        return R
    if letter == R:
        return L
    raise ValueError(f"not a letter: {letter!r}")


def star(word: LRWord) -> LRWord:
    # swapping the letters of a canonical word leaves it canonical
    return LRWord(tuple((star_letter(l), e) for l, e in word.runs))


def sigma(word: LRWord) -> int:
    return len(word.runs)


def sigma_c(word: LRWord) -> int:
    """Minimum of sigma over all conjugates; equals 2*floor(sigma/2)."""
    if not word:
        raise ValueError("sigma_c of the empty word")
    return 2 * (sigma(word) // 2)


def word_from_runs(runs) -> LRWord:
    """The canonical word of any runs ((letter, exponent), ...): bad letters
    and negative exponents are rejected, zeros dropped and equal neighbours
    merged."""
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
    return LRWord(tuple((l, e) for l, e in out))


def word_from_letters(letters) -> LRWord:
    return word_from_runs((l, 1) for l in letters)


def letters_of(word: LRWord):
    """The word's letters one at a time."""
    for letter, exp in word.runs:
        for _ in range(exp):
            yield letter


_RUN_RE = re.compile(r"\s*([LR])\s*(?:\^\s*(\d+))?")


def parse_word(text: str) -> LRWord:
    """Parse "L^2 R L R^3" or compact "LLRLRRR" (whitespace ignored);
    "e" denotes the empty word, matching the emitter."""
    if text.strip() == "e":
        return EPSILON
    runs = []
    pos = 0
    while pos < len(text):
        m = _RUN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse word at {text[pos:]!r}")
            break
        runs.append((m.group(1), int(m.group(2) or 1)))
        pos = m.end()
    return word_from_runs(runs)


def transpose_word(word: LRWord) -> LRWord:
    """Word of the transposed matrix: reverse the runs and swap letters."""
    return LRWord(tuple((star_letter(l), e) for l, e in reversed(word.runs)))


def boundary_conjugates(word: LRWord) -> list[LRWord]:
    """The sigma(word) rotations starting at a run boundary."""
    if not word:
        raise ValueError("empty word")
    out = []
    acc = 0
    for letter, exp in word.runs:
        out.append(rotate(word, acc))
        acc += exp
    return out


def _validated_rotate(w, k):
    """rotate as a validated construction: split the runs at letter k and
    join the halves through word_from_runs, which merges the seam.

    Independent: words.rotate cuts the cyclic runs (_cyclic_runs) and
    trusts the result; this cuts the word's own runs and validates."""
    size = sum(e for _, e in w.runs)
    k %= size
    acc = 0
    for i, (letter, exp) in enumerate(w.runs):
        if acc + exp > k:
            off = k - acc
            return word_from_runs(((letter, exp - off),) + w.runs[i + 1 :] + w.runs[:i] + ((letter, off),))
        acc += exp
    raise AssertionError("unreachable")


def _brute_root(w):
    """(root, multiplicity) by brute force on the letters: the least p
    dividing the letter count that rotates w into itself; the root is w's
    first p letters.

    Independent: words.primitive_root reads the least cyclic period of
    the fused runs (surds._primitive_period); this compares letter lists."""
    letters = list(letters_of(w))
    n = len(letters)
    p = next(p for p in range(1, n + 1) if n % p == 0 and letters[p:] + letters[:p] == letters)
    return word_from_letters(letters[:p]), n // p


def _brute_tau_kappa(w, n):
    """tau_kappa by its definition on letter strings: the least (L < R)
    rotation with sigma_c runs, kappa, then every rotation of the result.

    Independent: words.tau_kappa rotates the fused cycle run by run
    (rotate, conjugates); this rotates letter strings and picks a
    sigma_c-realizing one by its runs."""
    letters = "".join(letters_of(w))
    rotations = (letters[k:] + letters[:k] for k in range(len(letters)))
    least = min(r for r in rotations if sigma(word_from_letters(r)) == sigma_c(w))
    image = "".join(letters_of(kappa(word_from_letters(least), n)))
    return {word_from_letters(image[k:] + image[:k]) for k in range(len(image))}


def _reference_cycle_period(cycle):
    """The period of the number whose LR tail repeats cycle, by a scan of
    the boundary conjugates, with distinct end letters, of the brute-force
    root: half a conjugate's runs when it is V star(V), else all of them.

    Independent: transducer.lr_cycle_to_period takes the least cyclic
    period of the fused exponents; this tests V star(V) on letters."""
    root, _ = _brute_root(cycle)
    fallback = None
    for w in boundary_conjugates(root):
        rs = w.runs
        if rs[0][0] == rs[-1][0]:
            continue
        k = len(rs)
        fallback = k
        if k % 2 == 0 and all(
            rs[i + k // 2] == (star_letter(rs[i][0]), rs[i][1])
            for i in range(k // 2)
        ):
            return k // 2
    return fallback


# ---------------------------------------------------------------------------
# helpers that the kernel, transform and search suites share


def random_word(rng, max_runs=6, max_exp=8, min_runs=1):
    k = rng.randint(min_runs, max_runs)
    first = rng.choice("LR")
    runs = []
    for i in range(k):
        letter = first if i % 2 == 0 else ("R" if first == "L" else "L")
        runs.append((letter, rng.randint(1, max_exp)))
    return LRWord(tuple(runs))


class _Out(_KernelOut):
    """The package's output accumulator with a read-only view of its runs,
    ((letter, count), ...), for assertions."""

    __slots__ = ()

    @property
    def runs(self):
        # run i is an L-run for even i; only counts[0] can be 0
        return tuple((R if i % 2 else L, e) for i, e in enumerate(self.counts) if e)


def _emit(out, letter, k):
    """Append letter^k to an output accumulator, merging equal letters:
    add k to the last count when that run has the letter (run i is an
    L-run for even i), append it otherwise."""
    if k <= 0:
        return
    counts = out.counts
    if (letter == L) == (len(counts) % 2 == 1):
        counts[-1] += k
    else:
        counts.append(k)


def _feed_word(t, runs, out):
    """Feed a word's runs through the kernel one call per run: the
    reference for feeding a whole pass in one call."""
    for run in runs:
        t = _feed_run(t, (run,), out)
    return t


def _mul(t, letter, k):
    """t * letter^k on entry tuples (a, b, c, d), as the kernel's states are."""
    a, b, c, d = t
    if letter == L:
        return (a + b * k, b, c + d * k, d)
    return (a, a * k + b, c, c * k + d)


def _escape(t, letter):
    """Least k >= 1 with t * letter^k unbalanced (t must be balanced)."""
    a, b, c, d = t
    if letter == L:
        return -((a - c) // -(d - b))
    return -((d - b) // -(a - c))


def _db_states(n):
    """DB_n for n <= 300, sorted, from the sweep _doubly_balanced_up_to."""
    return list(_doubly_balanced_up_to(300)[n])


def _random_unimodular(rng):
    """A random product of elementary matrices of determinant +-1."""
    u = Mat2(1, 0, 0, 1)
    for _ in range(rng.randint(0, 5)):
        k = rng.randint(-9, 9)
        u = u * rng.choice((Mat2(1, k, 0, 1), Mat2(1, 0, k, 1), Mat2(0, 1, 1, 0), Mat2(-1, 0, 0, 1)))
    return u


def _log_uniform(rng, hi):
    return round(hi ** rng.random())


# ---------------------------------------------------------------------------
# the escape kernel


def _reference_peel(t, out):
    """The peel as a routine of its own: maximal L/R runs off the left until
    the remainder is balanced, merged into out through _emit (out may be
    None).

    Independent: words._feed_run alternates its letters with no test of
    the other and takes c // a letters of L with no bound from d // b; this
    picks each letter by testing both entry pairs, bounds each step by
    both quotients, and raises when neither letter peels."""
    a, b, c, d = t
    while not (a > c and d > b):
        if c >= a and d >= b:
            k = c // a
            if b and d // b < k:
                k = d // b
            c -= k * a
            d -= k * b
            letter = L
        elif a >= c and b >= d:
            k = b // d
            if c and a // c < k:
                k = a // c
            a -= k * c
            b -= k * d
            letter = R
        else:
            raise AssertionError(f"no peel applies to {(a, b, c, d)}")
        if out is not None:
            _emit(out, letter, k)
    return (a, b, c, d)


def _reference_feed_run(t, letter, count, out):
    """_feed_run as one call per step: escape, absorb, peel
    (_reference_peel), check the landing state, then loop detection on
    running letter totals from the first escape on.  Returns (end state,
    whether a loop was fast-forwarded, number of escapes taken one by one,
    the state the last escape landed on or None).  A fast-forward skips
    whole turns of a loop, which end where they start, so the last escape's
    state is still the last peel's.

    Independent: the kernel absorbs the whole run and peels once, which
    the uniqueness of Raney's factorization makes equal to this; this
    stops at every escape, checks every landing state with _check_db, and
    skips the turns of a single-letter loop by counting them."""
    mine = _Out()  # this run's output, moved into out at the end

    def totals():
        return sum(mine.counts[0::2]), sum(mine.counts[1::2])

    def finish(state, fast_forwarded, escapes, last):
        if out is not None:
            for run in mine.runs:
                _emit(out, *run)
        return state, fast_forwarded, escapes, last

    fast_forwarded = False
    escapes = 0
    last = None
    seen = {}
    while count > 0:
        k0 = _escape(t, letter)
        if k0 > count:
            return finish(_mul(t, letter, count), fast_forwarded, escapes, last)
        t = last = _reference_peel(_mul(t, letter, k0), mine)
        _check_db(t)
        escapes += 1
        count -= k0
        snap = seen.get(t)
        if snap is None:
            seen[t] = (count, *totals())
            continue
        prev_count, pl, pr = snap
        cyc = prev_count - count
        q = count // cyc
        if q:
            tl, tr = totals()
            dl, dr = tl - pl, tr - pr
            assert not (dl and dr), "mixed emission on a single-letter loop"
            _emit(mine, L if dl else R, q * (dl or dr))
            count -= q * cyc
            fast_forwarded = True
        seen = {}
    return finish(t, fast_forwarded, escapes, last)


def _reference_close_cycle(t, runs):
    """The kernel's block mode as one kernel call per block: feed runs
    from t until a block-boundary state repeats.  Returns (that state,
    gamma, the output, the snap of its first visit, the block-boundary
    states in the order of their first visits).

    Independent: _feed_run's block mode records each boundary in the
    kernel's own loop; this keeps its own dict and snap list around
    whole-block calls without one."""
    out = _Out()
    snaps = [out.snap()]  # snaps[p]: end of the output after p blocks
    boundary = {t: 0}
    while True:
        t = _feed_run(t, runs, out)
        idx = boundary.get(t)
        if idx is not None:
            return t, len(snaps) - idx, out, snaps[idx], list(boundary)
        boundary[t] = len(snaps)
        snaps.append(out.snap())


def _reference_transduce_cycle(start, rep):
    """transduce_cycle with one fresh accumulator per pass, the cycle's
    passes joined.  Returns (the index of the first repeated pass, gamma,
    the output cycle, whether a run straddles the cut).

    Independent: transduce_cycle cuts one accumulator at a snap
    (_Out.word); this joins whole passes' words and cuts nothing."""
    boundary = {start: 0}
    outputs = []
    cur = start
    while True:
        out = _Out()
        cur = _feed_word(cur, rep.runs, out)
        outputs.append(out.word())
        if cur in boundary:
            break
        boundary[cur] = len(outputs)
    idx = boundary[cur]
    joined = [r for w in outputs[idx:] for r in w.runs]
    before = [r for w in outputs[:idx] for r in w.runs]
    straddles = bool(before and joined and before[-1][0] == joined[0][0])
    return idx, len(outputs) - idx, word_from_runs(joined), straddles


class _RunsOut:
    """The list-of-runs accumulator that the run counts replaced, as a
    reference: runs[i] = [letter, count], each peel merged into the last
    run when it has the peel's letter.

    Independent: _Out stores exponents alone and reads letters off the
    parity of an index; this stores each run's letter."""

    def __init__(self):
        self.runs = []

    def emit(self, letter, k):
        if self.runs and self.runs[-1][0] == letter:
            self.runs[-1][1] += k
        else:
            self.runs.append([letter, k])

    def snap(self):
        return (len(self.runs), self.runs[-1][1] if self.runs else 0)

    def word(self, start=(0, 0), stop=None):
        i, a = start
        j, b = self.snap() if stop is None else stop
        runs = list(map(tuple, self.runs[max(i - 1, 0) : j]))
        if j:
            runs[-1] = (runs[-1][0], b)
        if i:
            runs[0] = (runs[0][0], runs[0][1] - a)
        if runs and not runs[-1][1]:
            runs.pop()
        if runs and not runs[0][1]:
            del runs[0]
        return LRWord(tuple(runs))


# ---------------------------------------------------------------------------
# the transform's start and entry


def _reference_hermite_start(m, x):
    """_hermite_start through the product B = primitive_part(m) P: the whole
    preperiod multiplied in, then one Euclid on B's O(k)-bit entries.

    Independent: _hermite_start folds the preperiod in one quotient at a
    time, a Hermite form per quotient; this multiplies first and reduces
    once."""
    a, b, c, d = primitive_part(m)
    for q in x.preperiod:  # times [[q, 1], [1, 0]], which is unimodular
        a, b, c, d = a * q + b, a, c * q + d, c
    a, b, d = _hermite(a, b, c, d)
    return (a, b, 0, d), lr_repetend(x).runs


def _reference_enter(t, runs, r):
    """_enter at letter level: absorb each run up to its escape (_escape,
    _mul); at the first escape, peel with _reference_peel, check DB_n, and
    finish that run through _reference_feed_run.  Returns (state, next run,
    output, the runs fed, letters up to and including the escaping one).

    Independent: _enter feeds whole runs to the kernel until the output is
    nonempty; this finds the escaping letter itself and never calls the
    kernel."""
    out = _Out()
    fed = []
    letters = 0
    while True:
        letter, e = runs[r]
        fed.append(runs[r])
        r = (r + 1) % len(runs)
        k = _escape(t, letter)
        if k > e:
            t = _mul(t, letter, e)
            letters += e
            continue
        t = _reference_peel(_mul(t, letter, k), out)
        _check_db(t)
        t = _reference_feed_run(t, letter, e - k, out)[0]
        return t, r, out.word(), fed, letters + k


# ---------------------------------------------------------------------------
# LE walks and the walk side of S_n


def walk_LE(n: int, m: Mat2, i: int):
    """Simulate L^i then R's from m in LE_n; stop at the unique recurring RE
    state N with j in {3n - nu_R(N) + 1, ..., 3n}.  Returns (N, j, w).

    A letter completes an edge exactly when the state after it is doubly
    balanced: a state s * letter^j with j > 0, absorbed without an escape,
    never is, since s L^j has c + d j >= d and s R^j has a j + b >= a.
    The walk's start is checked by is_LE, and every feed is one letter, so
    the escape kernel checks every escape against DB_n."""
    if det(m) != n or not is_LE(m):
        raise ValueError(f"{m!r} is not in LE_{n}")
    nu = nu_L(m)
    if not nu <= i <= 2 * nu - 1:
        raise ValueError(f"i={i} outside [{nu}, {2 * nu - 1}]")
    out = _Out()
    cur = _feed_run(m, ((L, i),), out)
    completions = []  # (j, state, snap)
    for j in range(1, 3 * n + 1):
        cur = _feed_run(cur, ((R, 1),), out)
        a, b, c, d = cur
        if a > b and d > c:
            completions.append((j, Mat2(*cur), out.snap()))
    re_states = {s for _, s, _ in completions if is_RE(s)}
    if len(re_states) != 1:
        raise RuntimeError(f"expected a unique recurring RE state, saw {re_states}")
    target = re_states.pop()
    vr = nu_R(target)
    hits = [
        (j, snap)
        for j, s, snap in completions
        if s == target and 3 * n - vr + 1 <= j <= 3 * n
    ]
    if len(hits) != 1:
        raise RuntimeError(f"expected one window hit for {target!r}, got {hits}")
    j, snap = hits[0]
    return target, j, out.word(stop=snap)


def s_n_via_transducer(n: int) -> int:
    """S_n from the walk side: sum over M in LE_n and
    i in [nu_L(M), 2*nu_L(M)-1] of sigma(W_{L,M,i}) - 1.

    Parametrized LE matrices with content k > 1 (possible when some
    gcd(t, n/t) is composite, first at n = 16) are walked after dividing
    the content out: scaling a state leaves escapes, peels and outputs
    untouched, so the walk lives in T_{n/k^2} with identical sigma.

    Independent: bounds.s_n_closed_form sums Euclid step counts over the
    divisors of n; this walks the transducer and counts output runs."""
    total = 0
    for m in sorted(enumerate_LE(n)):
        m = primitive_part(m)
        nn = det(m)
        nu = nu_L(m)
        for i in range(nu, 2 * nu):
            _, _, w = walk_LE(nn, m, i)
            total += sigma(w) - 1
    return total


# ---------------------------------------------------------------------------
# the sharpness search


def _reference_search_max_ratio(n, cf):
    """search_max_ratio as a scan over every (offset, state) pair: one
    partial-run feed per pair, then memoized orbit lookups, each new
    orbit's output fed escape by escape (_reference_feed_run).

    Independent: the search resolves Hermite cosets, reads one period
    (starred for an odd one), steps keys and scans a window of n offsets
    per run; this walks states, never a coset, over every offset of the
    whole LR word, the doubled one for an odd period."""
    word = lr_repetend(cf)
    runs = word.runs
    nr = len(runs)
    per_x = per(cf)
    seeds = _db_states(n)
    step_memo = {}
    orbit_of = {}  # node -> canonical node of its terminal orbit
    ratio_of = {}  # canonical orbit node -> Fraction

    def step(node):
        nxt = step_memo.get(node)
        if nxt is None:
            r, t = node
            letter, e = runs[r]
            nxt = ((r + 1) % nr, _feed_run(t, ((letter, e),), _Out()))
            step_memo[node] = nxt
        return nxt

    def resolve(node):
        path = []
        index = {}
        cur = node
        while True:
            key = orbit_of.get(cur)
            if key is not None:
                break
            if cur in index:
                cycle = path[index[cur] :]
                key = min(cycle)
                if key not in ratio_of:  # the orbit's output, step by step
                    out = _Out()
                    r, t = key
                    for i in range(len(cycle)):
                        letter, e = runs[(r + i) % nr]
                        t = _reference_feed_run(t, letter, e, out)[0]
                    ratio_of[key] = Fraction(lr_cycle_to_period(out.word()), per_x)
                break
            index[cur] = len(path)
            path.append(cur)
            cur = step(cur)
        for p in path:
            orbit_of[p] = key
        return key

    starts = []
    pos = 0
    for letter, e in runs:
        starts.append(pos)
        pos += e
    best = None
    for off in range(len(word)):
        r = bisect_right(starts, off) - 1
        within = off - starts[r]
        letter, e = runs[r]
        for seed in seeds:
            if within:
                node = ((r + 1) % nr, _feed_run(seed, ((letter, e - within),), _Out()))
            else:
                node = (r, seed)
            ratio = ratio_of[resolve(node)]
            if best is None or ratio > best[0]:
                best = (ratio, seed, off)
    return best


def _reference_key_cycle(runs, key):
    """The keys (run index, Hermite form) of a search node's run-by-run
    walk over the cyclic word runs, from key = (r, form) up to its return
    there: each step is one _key_step by the run, with no kernel call.
    The tests' one walk of search keys.

    Independent: the search reads its keys off the states that one kernel
    call records per key cycle; this steps forms alone, run by run, with
    _key_step, which test_key_step_matches_the_hermite_form_of_the_product
    checks against the form of each product."""
    nr = len(runs)
    r, form = key
    keys = [key]
    while True:
        form = _key_step(form, *runs[r])
        r = (r + 1) % nr
        if (r, form) == key:
            return keys
        keys.append((r, form))


def _reference_block_cycle(runs, form):
    """The forms of the states that the search's walk from the form
    records, fed one period runs per block, up to the form's return, read
    off _reference_key_cycle.  For an even run count the cyclic word is
    runs itself, and they are its run-0 keys.  For an odd one (an odd
    period, read starred) the cyclic word is V star(V) with V = runs, and
    after an odd number of passes the walk records the associate J s J of
    the state s at run p = len(runs), whose form is that of s J: the run-p
    key's form times J, [[g, b], [0, d]] J = [[b, g], [d, 0]].  So the
    cycle is the run-0 keys and the run-p keys times J, in walk order, up
    to the first return to the form.

    Independent: the search's walk reads these forms off the states of one
    starred kernel call; this reads them off key steps over the doubled
    word, with J put on by hand."""
    p = len(runs)
    word = runs if p % 2 == 0 else runs + star(LRWord(runs)).runs
    cycle = []
    for r, (g, b, d) in _reference_key_cycle(word, (0, form)):
        if r == 0:
            f = (g, b, d)
        elif r == p:
            f = _hermite(b, g, d, 0)
        else:
            continue
        if cycle and f == form:
            break
        cycle.append(f)
    return cycle


def _psi(n):
    """psi(n) = n prod(1 + 1/p) over the primes p | n, by trial division.

    Independent: matrices._primitive_forms lists the forms over the
    divisor list; this counts them from the prime factors."""
    count = m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            count += count // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        count += count // m
    return count


def oracle_witness_period(cf, state, offset):
    """per of the witness's image by the surd oracle: rotate the input by
    `offset` letters via its unimodular prefix, built from the runs, apply
    the witness state as a Moebius map, and expand exactly.

    Independent: the search reads periods off transducer walks; this
    expands the image surd (surds.cf_from_surd)."""
    x = surd_from_cf(cf)
    prefix = []
    for letter, e in lr_repetend(cf).runs:
        if offset <= 0:
            break
        prefix.append((letter, min(e, offset)))
        offset -= e
    if prefix:
        x = apply_mobius(inverse_times_det(mu(word_from_runs(prefix))), x)
    return per(cf_from_surd(apply_mobius(state, x)))


# ---------------------------------------------------------------------------
# surds


def floor_surd(x: QuadraticSurd) -> int:
    return _floor(x.P, x.Q, isqrt(x.D))


def approx(x: QuadraticSurd, digits: int = 30) -> Fraction:
    """Rational approximation with error below |Q|^-1 * 10^-digits."""
    scale = 10**digits
    return Fraction(x.P * scale + isqrt(x.D * scale * scale), x.Q * scale)


def conjugate_approx(x: QuadraticSurd, digits: int = 30) -> Fraction:
    scale = 10**digits
    return Fraction(x.P * scale - isqrt(x.D * scale * scale), x.Q * scale)


def _reference_surd(P, Q, D):
    """surd's normal form with two divisions: a remainder test, then the
    rescaled quotient (D - P^2)/Q.

    Independent: surd takes one divmod; this divides twice."""
    if (D - P * P) % Q:
        k = abs(Q)
        P, Q, D = P * k, Q * k, D * k * k
    g = gcd(P, Q, (D - P * P) // Q)
    return P // g, Q // g, D // (g * g)


def _reference_cf_from_surd(x: QuadraticSurd) -> PeriodicCF:
    """The textbook per-step expansion, with a fresh isqrt per step, the
    next Q by an exact division, checked, and a dict of every (P, Q).

    Independent: cf_from_surd computes isqrt(D) once, gets each next Q from
    the additive recurrence and bounds the preperiod; this divides and
    remembers every state."""
    P, Q, D = x.P, x.Q, x.D
    assert isqrt(D) ** 2 != D and (D - P * P) % Q == 0
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quotients)
        a = floor_surd(QuadraticSurd(P, Q, D))
        quotients.append(a)
        P1 = a * Q - P
        Q1, rem = divmod(D - P1 * P1, Q)
        assert Q1 and not rem
        P, Q = P1, Q1
    s = seen[(P, Q)]
    return PeriodicCF.create(quotients[:s], quotients[s:])


def _normalised_thrice(m, cf):
    """h_m(cf) by three normalised steps: the repetend's fixed point
    (a - d + sqrt(disc))/(2c), then the preperiod's convergent matrix, then
    m, each through surd.

    Independent: image_surd multiplies the preperiod's convergent matrix
    into m and applies the product once; this solves the repetend's fixed
    point and applies each factor on its own."""
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


def _reference_primitive_period(seq):
    """The least cyclic period of seq by a scan over every p <= len/2 that
    divides its length, each tested by repeating seq[:p].

    Independent: _primitive_period steps down from len(seq), one prime
    factor at a time; this scans up over every divisor."""
    n = len(seq)
    for p in range(1, n // 2 + 1):
        # seq[p : 2p] == seq[:p] rules out most p before the full comparison
        if not n % p and seq[p : 2 * p] == seq[:p] and seq[:p] * (n // p) == seq:
            return p
    return n


def _reference_create(preperiod, repetend):
    """PeriodicCF.create's normal form by the step-by-step roll-back: the
    repetend rotated right by one per matching preperiod entry.

    Independent: create counts the matching tail once and rotates once;
    this rotates per entry, with the least period by
    _reference_primitive_period."""
    pre = list(preperiod)
    rep = tuple(repetend)
    rep = rep[: _reference_primitive_period(rep)]
    while pre and pre[-1] == rep[-1]:
        rep = rep[-1:] + rep[:-1]
        pre.pop()
    return PeriodicCF(tuple(pre), rep)


def _reference_format_cf(cf):
    """format_cf through str() of each quotient.

    Independent: format_cf reads quotients 0-1023 from a table."""
    return f"[{','.join(map(str, cf.preperiod))};{','.join(map(str, cf.repetend))}]"


# ---------------------------------------------------------------------------
# bounds and the CLI's draws


def _reference_check_bound(n, per_x, per_hx):
    """check_bound with the lower edge as a comparison of Fractions.

    Independent: check_bound compares integer products, with S_n from the
    memoised s_n_total; this compares Fractions, with S_n from the
    breakdown."""
    s = s_n_closed_form(n).total
    if per_hx > s * per_x:
        return "violates_upper"
    if Fraction(per_hx) < Fraction(per_x, s):
        return "violates_lower"
    return "holds"


def _euclid_steps(a, c):
    """Division steps of Euclid on (a, c), by recursion.

    Independent: matrices.xi loops, swapping its arguments."""
    return 0 if min(a, c) == 0 else 1 + _euclid_steps(min(a, c), max(a, c) % min(a, c))


def _reference_random_matrix(rng, n):
    """_random_matrix with its divisor drawn from a full scan of 1..n, and
    b drawn until the Hermite form [[g, b], [0, n/g]] is primitive.

    Independent: _random_matrix draws its divisor from the divisor list
    (matrices._divisors); this draws it from a scan of 1..n, which must
    use up the same draws of rng."""
    g = rng.choice([t for t in range(1, n + 1) if n % t == 0])
    while True:
        b = rng.randrange(n // g)
        if gcd(g, b, n // g) == 1:
            break
    m = Mat2(g, b, 0, n // g)
    for _ in range(rng.randint(0, 4)):
        m = rng.choice(_DRESS) * m
    for _ in range(rng.randint(0, 4)):
        m = m * rng.choice(_DRESS)
    if rng.random() < 0.5:
        m = m * J_MAT
    if rng.random() < 0.5:
        m = Mat2(-m.a, -m.b, -m.c, -m.d)
    return m
