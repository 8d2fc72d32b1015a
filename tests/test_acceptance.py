"""End-to-end acceptance gate: anchor values, golden transducers, oracle
equivalence at scale, sharpness witnesses, and the lemma-level suites.

Each test asserts both the mathematical claim and its runtime budget.
"""
import json
import math
import random
import resource
import time
from fractions import Fraction
from math import gcd

import pytest

from raneycf.bounds import check_bound, prime_sharp_bound, s_n_closed_form
from raneycf.cli import main, run_trial
from raneycf.matrices import (
    Mat2,
    _balanced,
    _check_db,
    _enumerate_DB,
    content_gcd,
    enumerate_DB,
    parse_mat2,
    xi,
)
from raneycf.surds import apply_mobius, cf_from_surd, parse_cf, per, surd_from_cf
from raneycf.transducer import (
    build_transducer,
    image_period,
    lr_repetend,
    search_max_ratio,
    transduce_cycle,
)
from raneycf.words import _feed_run, format_word, mu, tau_kappa
from references import (
    _Out,
    _mul,
    associated,
    enumerate_LE,
    is_LE,
    is_LS,
    letters_of,
    nu_L,
    oracle_witness_period,
    s_n_via_transducer,
    sigma,
    sigma_c,
    star,
    transpose,
    transpose_word,
    walk_LE,
    word_from_runs,
)

PRIMES_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class stopwatch:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"


def test_1_bound_table():
    table = {7: 24, 8: 36, 9: 36, 13: 52, 14: 80, 15: 76, 18: 120,
             20: 120, 24: 164, 27: 144, 81: 538}
    with stopwatch(1):
        for n, expected in table.items():
            assert s_n_closed_form(n).total == expected


def test_2_intro_example():
    n = Mat2(12, 1, 17, 2)
    x3 = parse_cf("[-1,1,11;7,1,6,8,399,8,6,1,7,3,2,7,1,2,1,1,7,1,1,2,1,7,2,3]")
    with stopwatch(1):
        for cf, expected in ((parse_cf("[;3]"), 6), (parse_cf("[;200]"), 24), (x3, 1)):
            assert image_period(n, cf) == expected
            oracle = per(cf_from_surd(apply_mobius(n, surd_from_cf(cf))))
            assert oracle == expected


def test_3_golden_transducers():
    a2, a2s = Mat2(2, 0, 0, 1), Mat2(1, 0, 0, 2)
    t2_golden = {
        (a2, "R", "R^2", a2), (a2, "L^2", "L", a2), (a2, "LR", "RL", a2s),
        (a2s, "RL", "LR", a2), (a2s, "L", "L^2", a2s), (a2s, "R^2", "R", a2s),
    }
    a3, b, a3s = Mat2(3, 0, 0, 1), Mat2(2, 1, 1, 2), Mat2(1, 0, 0, 3)
    t3_golden = {
        (a3, "R", "R^3", a3), (a3, "L^3", "L", a3),
        (a3, "LR", "R", b), (a3, "L^2R", "RL^2", a3s),
        (b, "L", "LR", a3), (b, "R", "RL", a3s),
        (a3s, "R^2L", "LR^2", a3), (a3s, "RL", "L", b),
        (a3s, "L", "L^3", a3s), (a3s, "R^3", "R", a3s),
    }
    with stopwatch(1):
        for n, golden in ((2, t2_golden), (3, t3_golden)):
            t = build_transducer(n)
            edges = {(e.src, format_word(e.input), format_word(e.output), e.dst) for e in t.edges}
            assert edges == golden


def test_4_DB_count_primes():
    with stopwatch(5):
        for p in PRIMES_50:
            assert len(enumerate_DB(p)) == p


def test_5_dual_bound_computation():
    with stopwatch(120):
        for n in range(2, 31):
            assert s_n_via_transducer(n) == s_n_closed_form(n).total, n
        for n, total in ((60, 556), (120, 1256), (240, 2908)):
            assert s_n_via_transducer(n) == s_n_closed_form(n).total == total, n


def test_6_oracle_equivalence_and_sandwich():
    with stopwatch(120):
        for n in range(2, 13):
            for idx in range(1000):
                failure = run_trial((n, 20260824, idx, 8, 50))
                assert failure is None, failure


def test_7_sharpness_witnesses():
    with stopwatch(10):
        for n, cf_text, expected in ((7, "[;4390]", 24), (9, "[;4696]", 36)):
            cf = parse_cf(cf_text)
            ratio, state, offset = search_max_ratio(n, cf)
            assert ratio == Fraction(expected)
            assert oracle_witness_period(cf, state, offset) == expected * per(cf)


def test_8_prime_formula_concordance():
    deviations = []
    for p in PRIMES_50:
        s = s_n_closed_form(p).total
        expected = 5 if p == 2 else (s if p % 4 == 3 else s - 1)
        if prime_sharp_bound(p) != expected:
            deviations.append((p, prime_sharp_bound(p), expected))
    assert prime_sharp_bound(7) == 24
    assert prime_sharp_bound(13) == 51
    assert deviations == [], f"prime-formula deviations: {deviations}"


# -- criterion 9: lemma-level property suites ---------------------------------


def _l_completions(m, max_letters):
    """States reached at peel completions while feeding single L letters."""
    cur = m
    out = []
    for k in range(1, max_letters + 1):
        cur = _mul(cur, "L", 1)
        if not _balanced(cur):
            cur = _feed_run(cur, (), _Out())
            _check_db(cur)
            out.append((k, Mat2(*cur)))
    return out


def test_9_lemma_suites():
    rng = random.Random(20260824)
    with stopwatch(300):
        # edge invariants + symmetry triples + prefix-code profile, n <= 20
        for n in range(1, 21):
            t = build_transducer(n)
            edge_set = {(e.src, e.input, e.output, e.dst) for e in t.edges}
            per_state = {}
            for src, vin, vout, dst in edge_set:
                assert src * mu(vin) == mu(vout) * dst
                cur = src
                letters = list(letters_of(vin))
                for letter in letters[:-1]:
                    cur = _mul(cur, letter, 1)
                    assert _balanced(cur)
                assert not _balanced(_mul(cur, letters[-1], 1))
                assert letters[-1] == vout.runs[0][0]
                assert all(e <= n for _, e in vin.runs)
                per_state.setdefault(src, []).append(vin)
                assert (associated(src), star(vin), star(vout), associated(dst)) in edge_set
                assert (transpose(dst), transpose_word(vout),
                        transpose_word(vin), transpose(src)) in edge_set
            for src, ins in per_state.items():
                lens = sorted(len(v) for v in ins)
                ell = lens[-1]
                assert lens == list(range(1, ell)) + [ell, ell], (n, src, lens)
                strs = ["".join(letters_of(v)) for v in ins]
                assert not any(
                    i != j and s2.startswith(s)
                    for i, s in enumerate(strs)
                    for j, s2 in enumerate(strs)
                )

        # LS characterization and the LE funnel, n <= 20
        for n in range(1, 21):
            for m in sorted(enumerate_DB(n)):
                comps = _l_completions(m, n)
                returns = [k for k, s in comps if s == m]
                if m.b == 0:
                    expect = m.a // gcd(m.a, m.d)
                    assert returns and returns[0] == expect <= n, (n, m, returns)
                else:
                    assert not returns, (n, m)
                assert len({s for _, s in comps if is_LE(s)}) == 1, (n, m)
                last = comps[-1][1] if comps else m
                assert all(is_LS(s) for _, s in _l_completions(last, 2 * n))

        # deflation: shortening a run of length >= 4n by n preserves the
        # endpoint, sigma of the output, and its first letter
        for _ in range(400):
            n = rng.randint(1, 8)
            start = rng.choice(sorted(enumerate_DB(n)))
            k = rng.randint(1, 5)
            first = rng.choice("LR")
            runs = [[first if i % 2 == 0 else ("R" if first == "L" else "L"),
                     rng.randint(1, 6)] for i in range(k)]
            runs[rng.randrange(k)][1] = rng.randint(4 * n, 6 * n)
            short = [r[:] for r in runs]
            next(r for r in short if r[1] >= 4 * n)[1] -= n
            o1, o2 = _Out(), _Out()
            e1 = _feed_run(start, word_from_runs(runs).runs, o1)
            e2 = _feed_run(start, word_from_runs(short).runs, o2)
            assert e1 == e2 and len(o1.runs) == len(o2.runs)
            if o1.runs:
                assert o1.runs[0][0] == o2.runs[0][0]

        # inflation: some member of tau_kappa(V) admits a closed walk with
        # sigma_c(output) at least the original's, n <= 5
        for _ in range(120):
            n = rng.randint(1, 5)
            seeds = sorted(enumerate_DB(n))
            first = rng.choice("LR")
            rep = word_from_runs(
                (first if i % 2 == 0 else ("R" if first == "L" else "L"),
                 rng.randint(1, 4))
                for i in range(rng.randint(2, 4))
            )
            walk = transduce_cycle(n, rng.choice(seeds), rep)
            target = sigma_c(walk.output)
            best = -1
            for vhat in tau_kappa(walk.input, n):
                for s in seeds:
                    out = _Out()
                    if _feed_run(s, vhat.runs, out) == s:
                        best = max(best, sigma_c(out.word()))
            assert best >= target, (n, rep, walk, best)

        # walk_LE sigma formula, n <= 20 (content > 1 members walk reduced)
        for n in range(1, 21):
            for m in sorted(enumerate_LE(n)):
                k = content_gcd(m)
                mm = Mat2(m.a // k, m.b // k, m.c // k, m.d // k)
                nn = n // (k * k)
                t1, u1, m1 = mm.a, mm.c, mm.d
                for i in range(nu_L(mm), 2 * nu_L(mm)):
                    _, _, w = walk_LE(nn, mm, i)
                    assert sigma(w) == 2 * (xi(i * m1 + u1, t1) // 2) + 2, (n, m, i)


def test_10_large_det_cycle_is_linear():
    # n = 1859: the walk makes 1859 passes over the repetend; the output
    # cycle must be built once, not re-joined per pass
    m, cf = Mat2(-28, 5, 47, 58), parse_cf("[2;1,22]")
    with stopwatch(1):
        assert image_period(m, cf) == 5206
        assert per(cf_from_surd(apply_mobius(m, surd_from_cf(cf)))) == 5206


def test_11_oracle_closes_a_million_step_period():
    # the expansion needs 1,158,480 steps after its preperiod; no step cap
    # may stop it short of the cycle
    m, cf = Mat2(420, 373, 1415, 404), parse_cf("[;20,2,24,27,11]")
    with stopwatch(15):
        assert per(cf_from_surd(apply_mobius(m, surd_from_cf(cf)))) == 1158480


def test_12_search_cost_is_independent_of_quotients():
    # 6 s at a scan over every (offset, state) pair: 40,000 offsets x 31 states
    cf = parse_cf("[;20000]")
    with stopwatch(1):
        ratio, state, offset = search_max_ratio(31, cf)
    assert ratio == Fraction(148)
    assert oracle_witness_period(cf, state, offset) == ratio * per(cf)


def test_13_search_cli_with_quotients_of_ten_million(capsys):
    # about 8.6e8 (offset, state) pairs for a per-pair scan
    text = "[;10000000,3,1000000]"
    with stopwatch(2):
        code = main(["search", "48", "--cf", text, "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    cf = parse_cf(text)
    ratio = Fraction(doc["best_ratio"])
    assert 1 / Fraction(s_n_closed_form(48).total) <= ratio <= s_n_closed_form(48).total
    witness = oracle_witness_period(cf, parse_mat2(doc["witness_state"]), doc["witness_offset"])
    assert witness == ratio * per(cf)


def test_14_enumerate_DB_is_quadratic():
    # cubic in n for a loop over every b in 0..n
    _enumerate_DB.cache_clear()
    with stopwatch(0.25):
        assert len(enumerate_DB(200)) == 322


def test_15_reduction_absorbs_whole_runs(capsys):
    # a letter-by-letter reduction holds 2 * 8,687,038 letters in a list and
    # gave up after a cap of 18,000 absorbed letters
    text = "[;8687038]"
    m = parse_mat2("1,9,0,-9")
    with stopwatch(1):
        code = main(["transform", "--matrix", "1,9,0,-9", "--cf", text, "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    cf = parse_cf(text)
    assert doc["per_hx"] == per(cf_from_surd(apply_mobius(m, surd_from_cf(cf)))) == 8

    # 0.55 s and a 250 MB rise of the peak RSS when the repetend was expanded
    m, cf = Mat2(12, 1, 17, 2), parse_cf("[;10000000]")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
    with stopwatch(0.1):
        assert image_period(m, cf) == 24
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb < 20 * 1024
    assert per(cf_from_surd(apply_mobius(m, surd_from_cf(cf)))) == 24


def test_16_enumerate_DB_is_near_linear():
    # 9 s for the loop over every (a, c), and 6,049 states there too
    _enumerate_DB.cache_clear()
    with stopwatch(0.5):
        assert len(enumerate_DB(4096)) == 6049


def test_17_search_witnesses_match_the_oracle():
    # seeded draws: every witness the search returns, at a run's start or
    # inside a run, has the claimed period under the surd oracle.  Witnesses
    # inside a run are rare (about 0.7 % of draws with n uniform in 2..48)
    # and mostly at small n, so n is drawn log-uniformly
    rng = random.Random(20261018)
    inside = 0
    with stopwatch(10):
        for _ in range(300):
            n = round(math.exp(rng.uniform(math.log(2), math.log(48))))
            rep = [
                rng.randint(1, 2 * n) if rng.random() < 0.3
                else round(10 ** rng.uniform(0, 4))
                for _ in range(rng.randint(1, 4))
            ]
            cf = parse_cf(f"[;{','.join(map(str, rep))}]")
            ratio, state, offset = search_max_ratio(n, cf)
            assert oracle_witness_period(cf, state, offset) == ratio * per(cf), (n, rep)
            run_starts = {0}
            for _, e in lr_repetend(cf).runs:
                run_starts.add(max(run_starts) + e)
            inside += offset not in run_starts
    assert inside
