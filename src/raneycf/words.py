"""Run-length-encoded words over {L, R} and their matrix calculus.

An LRWord stores runs ((letter, exponent), ...) with adjacent letters
distinct and exponents >= 1 (arbitrary precision — exponents in the tens
of thousands occur routinely, so nothing here ever expands a word into
individual letters unless the caller asks for it).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from .matrices import IDENTITY, L_MAT, R_MAT, Mat2, content_gcd, det

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


@dataclass(frozen=True)
class LRWord:
    runs: tuple[tuple[str, int], ...]

    @classmethod
    def from_runs(cls, runs) -> "LRWord":
        return cls(_canonical(runs))

    @classmethod
    def _trusted(cls, runs: tuple[tuple[str, int], ...]) -> "LRWord":
        """Wrap runs that are canonical by construction (letters L/R,
        exponents >= 1, adjacent letters distinct), skipping validation."""
        word = object.__new__(cls)
        object.__setattr__(word, "runs", runs)
        return word

    @classmethod
    def from_letters(cls, letters) -> "LRWord":
        return cls(_canonical((l, 1) for l in letters))

    def __post_init__(self):
        for i, (letter, exp) in enumerate(self.runs):
            if letter not in (L, R) or exp < 1:
                raise ValueError(f"bad run {(letter, exp)}")
            if i and self.runs[i - 1][0] == letter:
                raise ValueError("adjacent runs share a letter")

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
            return LRWord._trusted(runs * k)  # no runs merge at the seams
        if len(runs) == 1:
            return LRWord._trusted(((runs[0][0], runs[0][1] * k),))
        # the last and first runs of adjacent copies merge at each seam
        seam = ((runs[0][0], runs[-1][1] + runs[0][1]),)
        return LRWord._trusted(runs[:-1] + (seam + runs[1:-1]) * (k - 1) + runs[-1:])

    def __str__(self) -> str:
        return format_word(self)

    def letters(self):
        for letter, exp in self.runs:
            for _ in range(exp):
                yield letter


EPSILON = LRWord(())

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
    return LRWord.from_runs(runs)


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
    """Inverse of mu on D_1: greedy left-peeling of maximal L/R runs."""
    if det(m) != 1 or min(m.entries) < 0:
        raise ValueError(f"{m!r} is not a nonnegative matrix of determinant 1")
    a, b, c, d = m.entries
    runs = []
    while True:
        if b == 0:
            # determinant forces a = d = 1, so the remainder is L^c
            if c:
                runs.append((L, c))
            break
        if c == 0:
            if b:
                runs.append((R, b))
            break
        if c >= a and d >= b:
            k = min(c // a, d // b)
            runs.append((L, k))
            c -= k * a
            d -= k * b
        elif a >= c and b >= d:
            k = min(a // c, b // d)
            runs.append((R, k))
            a -= k * c
            b -= k * d
        else:
            raise ValueError(f"{m!r} is not in the monoid generated by L and R")
    return LRWord.from_runs(runs)


def sigma(word: LRWord) -> int:
    return len(word.runs)


def sigma_c(word: LRWord) -> int:
    """Minimum of sigma over all conjugates; equals 2*floor(sigma/2)."""
    if not word:
        raise ValueError("sigma_c of the empty word")
    return 2 * (sigma(word) // 2)


def star(word: LRWord) -> LRWord:
    # swapping the letters of a canonical word leaves it canonical
    return LRWord._trusted(tuple((star_letter(l), e) for l, e in word.runs))


def transpose_word(word: LRWord) -> LRWord:
    """Word of the transposed matrix: reverse the runs and swap letters."""
    return LRWord(tuple((star_letter(l), e) for l, e in reversed(word.runs)))


def rotate(word: LRWord, k: int) -> LRWord:
    """Cyclic left rotation by k letters (run-aware; k and the word's
    length may be huge, past what len() can return)."""
    n = sum(e for _, e in word.runs)
    if n == 0:
        return word
    k %= n
    if k == 0:
        return word
    # locate the run containing letter index k
    runs = word.runs
    acc = 0
    for i, (letter, exp) in enumerate(runs):
        if acc + exp > k:
            off = k - acc
            head = runs[:i] + (((letter, off),) if off else ())
            tail = ((letter, exp - off),) + runs[i + 1 :]  # off < exp
            # both halves are canonical; only the seam between them can
            # join two runs of one letter
            if tail[-1][0] == head[0][0]:
                seam = ((head[0][0], tail[-1][1] + head[0][1]),)
                return LRWord._trusted(tail[:-1] + seam + head[1:])
            return LRWord._trusted(tail + head)
        acc += exp
    raise AssertionError("unreachable")


def conjugates(word: LRWord) -> set[LRWord]:
    """All cyclic rotations (deduplicated). Materializes len(word) rotations."""
    if not word:
        raise ValueError("conjugates of the empty word")
    return {rotate(word, k) for k in range(len(word))}


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


def primitive_root(word: LRWord) -> tuple[LRWord, int]:
    """Return (root, multiplicity) with word = root**multiplicity, root primitive."""
    runs = word.runs
    k = len(runs)
    if k == 0:
        raise ValueError("primitive root of the empty word")
    if k == 1:
        letter, exp = runs[0]
        return LRWord._trusted(((letter, 1),)), exp
    candidates = []  # (root letter-length, root, multiplicity)
    # run-aligned roots: word = U^m with first(U) != last(U)
    for q in range(1, k):
        if k % q:
            continue
        if runs[:q] * (k // q) == runs:
            root = LRWord._trusted(runs[:q])
            candidates.append((sum(e for _, e in root.runs), root, k // q))
            break  # smallest aligned root; larger ones are its powers
    # merge-aligned roots: word = U^m with first(U) == last(U); interior
    # copies fuse the boundary runs, so runs(word) = m*q + 1 with q = runs(U)-1
    if runs[0][0] == runs[-1][0]:
        for q in range(2, k, 2):
            if (k - 1) % q:
                continue
            m = (k - 1) // q
            if m < 2:
                continue
            letter0, e_first = runs[0]
            e_last = runs[-1][1]
            ok = runs[-1][0] == letter0
            for i in range(1, k - 1):
                if not ok:
                    break
                r = i % q
                if r == 0:
                    ok = runs[i] == (letter0, e_first + e_last)
                else:
                    ok = runs[i] == runs[r]
            if ok:
                # q is even, so runs[q - 1] is the other letter
                root = LRWord._trusted(runs[:q] + ((letter0, e_last),))
                candidates.append((sum(e for _, e in root.runs), root, m))
                break
    if not candidates:
        return word, 1
    _, root, mult = min(candidates, key=lambda t: t[0])
    return root, mult


def _cmp_words(w1: LRWord, w2: LRWord) -> int:
    """Lexicographic comparison (L < R) without expanding runs."""
    i = j = 0
    oi = oj = 0  # letters consumed inside the current run
    r1, r2 = w1.runs, w2.runs
    while i < len(r1) and j < len(r2):
        l1, e1 = r1[i]
        l2, e2 = r2[j]
        if l1 != l2:
            return -1 if l1 == L else 1
        step = min(e1 - oi, e2 - oj)
        oi += step
        oj += step
        if oi == e1:
            i += 1
            oi = 0
        if oj == e2:
            j += 1
            oj = 0
    if i < len(r1):
        return 1
    if j < len(r2):
        return -1
    return 0


def kappa(word: LRWord, n: int) -> LRWord:
    """Normalize each run exponent to its mod-n representative in [4n, 5n-1]."""
    if not word:
        raise ValueError("kappa of the empty word")
    if n < 1:
        raise ValueError("n must be >= 1")
    return LRWord(tuple((l, 4 * n + (e % n)) for l, e in word.runs))


def tau_kappa(word: LRWord, n: int) -> set[LRWord]:
    """Conjugacy class of kappa applied to a sigma_c-realizing conjugate.

    Tie-break: the lexicographically least (L < R) conjugate among those
    attaining sigma_c.  Single-letter words are rejected: their kappa image
    is conjugacy-degenerate and the underlying bound machinery never needs
    them.
    """
    if not word:
        raise ValueError("tau_kappa of the empty word")
    if len({l for l, _ in word.runs}) < 2:
        raise ValueError("tau_kappa requires both letters present")
    target = sigma_c(word)
    minimal = [w for w in boundary_conjugates(word) if sigma(w) == target]
    if not minimal:
        raise AssertionError("no conjugate attains sigma_c")
    least = minimal[0]
    for w in minimal[1:]:
        if _cmp_words(w, least) < 0:
            least = w
    return conjugates(kappa(least, n))
