"""CLI surface: rendering, exit codes, reproducibility."""
import json
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from array import array
from math import gcd
from pathlib import Path

import pytest

from raneycf import cli
from raneycf.cli import main
from raneycf.matrices import J_MAT, Mat2, content_gcd, det
from raneycf.surds import apply_mobius, cf_from_surd, format_cf, parse_cf, per, surd_from_cf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- bound ---------------------------------------------------------------------


def test_bound_text(capsys):
    code, out, _ = run(capsys, "bound", "7")
    assert code == 0 and out.splitlines()[0] == "S_7 = 24"
    code, out, _ = run(capsys, "bound", "9")
    assert out.splitlines()[0] == "S_9 = 36"


def test_bound_breakdown_and_json(capsys):
    code, out, _ = run(capsys, "bound", "7", "--breakdown")
    assert len(out.splitlines()) == 1 + 8  # total line + (t=1) + 7 terms of t=7
    code, out, _ = run(capsys, "bound", "7", "--format", "json")
    doc = json.loads(out)
    assert doc["n"] == 7 and doc["total"] == 24
    assert all(set(t) == {"t", "j", "xi", "term"} for t in doc["terms"])


def test_bound_rejects_zero(capsys):
    with pytest.raises(SystemExit) as e:
        run(capsys, "bound", "0")
    assert e.value.code == 2


# -- transducer ----------------------------------------------------------------


def test_transducer_table(capsys):
    code, out, _ = run(capsys, "transducer", "2")
    lines = out.strip().splitlines()
    assert lines[0] == "T_2: 2 states, 6 edges"
    assert len(lines) == 7


def test_transducer_csv_and_dot(capsys):
    for n, edges, state in ((1, 2, "1,0,0,1"), (2, 6, "2,0,0,1"), (3, 10, "3,0,0,1")):
        code, out, _ = run(capsys, "transducer", str(n), "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "from,input,output,to" and len(lines) == 1 + edges, n
        code, out, _ = run(capsys, "transducer", str(n), "--format", "dot")
        assert out.startswith("digraph") and out.count("->") == edges, n
        assert f'"{state}"' in out, n


def test_transducer_json_roundtrip(capsys):
    for n, edges, states in (
        (2, 6, [(1, 0, 0, 2), (2, 0, 0, 1)]),
        (3, 10, [(1, 0, 0, 3), (2, 1, 1, 2), (3, 0, 0, 1)]),
    ):
        code, out, _ = run(capsys, "transducer", str(n), "--format", "json")
        doc = json.loads(out)
        assert doc["n"] == n and len(doc["edges"]) == edges, n
        assert sorted(map(tuple, doc["states"])) == states, n


_T2_TABLE = """\
T_2: 2 states, 6 edges
  1,0,0,2  --L|L^2-->  1,0,0,2
  1,0,0,2  --RL|LR-->  2,0,0,1
  1,0,0,2  --R^2|R-->  1,0,0,2
  2,0,0,1  --LR|RL-->  1,0,0,2
  2,0,0,1  --L^2|L-->  2,0,0,1
  2,0,0,1  --R|R^2-->  2,0,0,1
"""
_T2_CSV = """\
from,input,output,to
"1,0,0,2",L,L^2,"1,0,0,2"
"1,0,0,2",RL,LR,"2,0,0,1"
"1,0,0,2",R^2,R,"1,0,0,2"
"2,0,0,1",LR,RL,"1,0,0,2"
"2,0,0,1",L^2,L,"2,0,0,1"
"2,0,0,1",R,R^2,"2,0,0,1"
"""
_T2_DOT = """\
digraph T_2 {
  rankdir=LR;
  "1,0,0,2";
  "2,0,0,1";
  "1,0,0,2" -> "1,0,0,2" [label="L|L^2"];
  "1,0,0,2" -> "2,0,0,1" [label="RL|LR"];
  "1,0,0,2" -> "1,0,0,2" [label="R^2|R"];
  "2,0,0,1" -> "1,0,0,2" [label="LR|RL"];
  "2,0,0,1" -> "2,0,0,1" [label="L^2|L"];
  "2,0,0,1" -> "2,0,0,1" [label="R|R^2"];
}
"""
_T2_JSON = json.dumps({
    "n": 2,
    "states": [[1, 0, 0, 2], [2, 0, 0, 1]],
    "edges": [
        {"from": [1, 0, 0, 2], "input": "L", "output": "L^2", "to": [1, 0, 0, 2]},
        {"from": [1, 0, 0, 2], "input": "RL", "output": "LR", "to": [2, 0, 0, 1]},
        {"from": [1, 0, 0, 2], "input": "R^2", "output": "R", "to": [1, 0, 0, 2]},
        {"from": [2, 0, 0, 1], "input": "LR", "output": "RL", "to": [1, 0, 0, 2]},
        {"from": [2, 0, 0, 1], "input": "L^2", "output": "L", "to": [2, 0, 0, 1]},
        {"from": [2, 0, 0, 1], "input": "R", "output": "R^2", "to": [2, 0, 0, 1]},
    ],
}, indent=2) + "\n"
_S7_BREAKDOWN = """\
S_7 = 24
  t=1 j=1 xi=1 term=1
  t=7 j=7 xi=1 term=1
  t=7 j=8 xi=2 term=3
  t=7 j=9 xi=3 term=3
  t=7 j=10 xi=3 term=3
  t=7 j=11 xi=4 term=5
  t=7 j=12 xi=4 term=5
  t=7 j=13 xi=3 term=3
"""
_S7_JSON = json.dumps({
    "n": 7,
    "terms": [
        {"t": 1, "j": 1, "xi": 1, "term": 1},
        {"t": 7, "j": 7, "xi": 1, "term": 1},
        {"t": 7, "j": 8, "xi": 2, "term": 3},
        {"t": 7, "j": 9, "xi": 3, "term": 3},
        {"t": 7, "j": 10, "xi": 3, "term": 3},
        {"t": 7, "j": 11, "xi": 4, "term": 5},
        {"t": 7, "j": 12, "xi": 4, "term": 5},
        {"t": 7, "j": 13, "xi": 3, "term": 3},
    ],
    "total": 24,
}, indent=2) + "\n"


@pytest.mark.parametrize("argv, expected", [
    (["transducer", "2"], _T2_TABLE),
    (["transducer", "2", "--format", "csv"], _T2_CSV),
    (["transducer", "2", "--format", "dot"], _T2_DOT),
    (["transducer", "2", "--format", "json"], _T2_JSON),
    (["bound", "7"], "S_7 = 24\n"),
    (["bound", "7", "--breakdown"], _S7_BREAKDOWN),
    (["bound", "7", "--format", "json"], _S7_JSON),
    (["bound", "7", "--breakdown", "--format", "json"], _S7_JSON),
], ids=["transducer-table", "transducer-csv", "transducer-dot", "transducer-json",
        "bound", "bound-breakdown", "bound-json", "bound-breakdown-json"])
def test_report_bytes(capsys, argv, expected):
    """The exact stdout of `transducer 2` in its four formats and of
    `bound 7` in its four modes: CSV quotes format_mat2's commas, DOT and
    the table keep their separators, and JSON is json.dumps(..., indent=2)
    of the documents spelled out here."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("fmt", ["json", "csv", "dot", "table"])
def test_transducer_output_ends_in_one_newline(capsys, fmt):
    code, out, _ = run(capsys, "transducer", "3", "--format", fmt)
    assert code == 0 and out.endswith("\n") and not out.endswith("\n\n")


# -- transform -----------------------------------------------------------------


def test_transform_intro_example(capsys):
    code, out, _ = run(
        capsys, "transform", "--matrix", "12,1,17,2", "--cf", "[;3]",
        "--format", "json",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["per_hx"] == 6 and doc["S_n"] == 24 and doc["verdict"] == "holds"
    code, out, _ = run(
        capsys, "transform", "--matrix", "12,1,17,2", "--cf", "[;200]",
        "--format", "json",
    )
    assert json.loads(out)["per_hx"] == 24


def test_transform_identity(capsys):
    code, out, _ = run(
        capsys, "transform", "--matrix", "1,0,0,1", "--cf", "[;5,2]",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["per_hx"] == doc["per_x"] == 2
    assert doc["result_cf"] == "[;5,2]"


def test_transform_quotient_past_maxsize(capsys):
    # the tail's LR word is longer than sys.maxsize letters
    code, out, _ = run(
        capsys, "transform", "--matrix", "1,2,3,4", "--cf", "[;99999999999999999999999]",
        "--format", "json",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["per_hx"] == 5 and doc["verdict"] == "holds"
    assert doc["per_hx"] == per(parse_cf(doc["result_cf"]))  # the oracle's period


@pytest.fixture
def restore_int_digit_limit():
    """main lifts the interpreter's int/str digit limit; put it back after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


def test_transform_image_quotients_past_4300_digits(capsys, restore_int_digit_limit):
    """The input parses under the default limit of 4,300 digits, but the
    image's quotients are longer: transform must still exit 0, print them
    exactly, and agree with the oracle."""
    nines = "9" * 4299
    code, out, err = run(
        capsys, "transform", "--matrix=7000,3,0,1", "--cf", f"[;{nines},3]", "--format", "json",
    )
    assert code == 0, err
    doc = json.loads(out)
    m, cf = Mat2(7000, 3, 0, 1), parse_cf(f"[;{nines},3]")
    oracle = cf_from_surd(apply_mobius(m, surd_from_cf(cf)))
    assert max(oracle.repetend) > 10**4300
    assert doc["per_hx"] == per(oracle) == 60
    assert doc["result_cf"] == format_cf(oracle) and doc["verdict"] == "holds"


def test_verify_quotients_past_maxsize(capsys):
    code, out, _ = run(
        capsys, "verify", "3", "--samples", "5", "--max-quotient", "99999999999999999999999",
    )
    assert code == 0 and json.loads(out)["failures"] == []


def test_transform_input_errors(capsys):
    with pytest.raises(SystemExit) as e:
        run(capsys, "transform", "--matrix", "1,2,2,4", "--cf", "[;3]")
    assert e.value.code == 2
    code, _, err = run(capsys, "transform", "--matrix", "1,0,0,1", "--cf", "nope")
    assert code == 2 and "error" in err


# -- verify -----------------------------------------------------------------------


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "7", "--samples", "40", "--seed", "42")
    doc = json.loads(out)
    assert code == 0
    assert doc["failures"] == [] and doc["samples"] == 40 and doc["seed"] == 42


def test_verify_reproducible(capsys):
    def body():
        _, out, _ = run(capsys, "verify", "5", "--samples", "25", "--seed", "9")
        doc = json.loads(out)
        doc.pop("elapsed")
        return doc

    assert body() == body()


def test_verify_seed_ignores_environment(capsys, monkeypatch):
    for value in ("123", "x"):
        monkeypatch.setenv("CFM_SEED", value)
        code, out, _ = run(capsys, "verify", "3", "--samples", "5")
        assert code == 0 and json.loads(out)["seed"] == 0


def test_verify_accepts_n_1_and_rejects_n_0(capsys):
    # S_1 = 1, so each trial's verdict `holds` is per(h_M(x)) = per(x) for
    # unimodular M: Serret's theorem, checked by the oracle
    code, out, _ = run(capsys, "verify", "1", "--samples", "50")
    report = json.loads(out)
    assert code == 0 and report["n"] == 1 and report["failures"] == []
    with pytest.raises(SystemExit) as e:
        run(capsys, "verify", "0")
    assert e.value.code == 2


def test_verify_parallel_matches_serial(capsys):
    """Same report under --jobs; progress lines where i * 10 // samples
    steps, so the last one reads samples/samples."""
    for samples, ticks in ((32, (4, 7, 10, 13, 16, 20, 23, 26, 29, 32)),
                           (25, (3, 5, 8, 10, 13, 15, 18, 20, 23, 25))):
        argv = ("verify", "4", "--samples", str(samples), "--seed", "7")
        _, serial, serial_err = run(capsys, *argv)
        _, parallel, parallel_err = run(capsys, *argv, "--jobs", "2")
        a, b = json.loads(serial), json.loads(parallel)
        a.pop("elapsed"), b.pop("elapsed")
        assert a == b
        progress = [f"verify n=4: {i}/{samples}" for i in ticks]
        assert serial_err.splitlines() == parallel_err.splitlines() == progress


def test_verify_jobs_capped_at_cpu_count(capsys, monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    import multiprocessing

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    code, out, _ = run(capsys, "verify", "4", "--samples", "8", "--jobs", "100000")
    assert code == 0 and json.loads(out)["failures"] == []
    assert sizes == [2]


def test_verify_draws_its_tasks_as_it_goes(capsys, monkeypatch):
    """verify's memory does not grow with --samples: with every trial
    stubbed to pass, 200,000 samples peak under 2 MB, where a list of
    their tasks alone takes about 23 MB."""
    monkeypatch.setattr(cli, "run_trial", lambda task: None)
    tracemalloc.start()
    try:
        text, status = cli.cmd_verify(4, samples=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0 and json.loads(text)["failures"] == []
    assert capsys.readouterr().err.splitlines()[-1] == "verify n=4: 200000/200000"
    assert peak < 2 << 20, peak


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_1(capsys, monkeypatch, jobs):
    """--jobs below 1 is a usage error, exit 2, like the other counts, and
    no trial runs and no pool starts."""
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(cli, "run_trial", no_pool)
    with pytest.raises(SystemExit) as e:
        run(capsys, "verify", "4", "--samples", "8", "--jobs", jobs)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "jobs must be >= 1" in err


def _child_env():
    """The environment for a child Python that imports this raneycf."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_import_leaves_multiprocessing_unloaded():
    # only verify --jobs > 1 needs it, and every CLI start would pay for it
    code = "import sys, raneycf.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["transducer", "200"], 1),  # 150 kB, past a pipe's buffer
        (["search", "9", "--cf", "[;4696]"], 0),  # closed before it prints
    ],
)
def test_reader_closing_the_pipe_early_is_not_an_error(argv, lines):
    # `raneycf transducer 720 | head -n1`: the reader's exit is no failure
    # of the command, so no traceback and the command's own status
    proc = subprocess.Popen(
        [sys.executable, "-m", "raneycf.cli", *argv],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert err == ""


def _reference_random_matrix(rng, n):
    """_random_matrix with its divisor drawn from a full scan of 1..n, and
    b drawn until the Hermite form [[g, b], [0, n/g]] is primitive."""
    g = rng.choice([t for t in range(1, n + 1) if n % t == 0])
    while True:
        b = rng.randrange(n // g)
        if gcd(g, b, n // g) == 1:
            break
    m = Mat2(g, b, 0, n // g)
    for _ in range(rng.randint(0, 4)):
        m = rng.choice(cli._DRESS) * m
    for _ in range(rng.randint(0, 4)):
        m = m * rng.choice(cli._DRESS)
    if rng.random() < 0.5:
        m = m * J_MAT
    if rng.random() < 0.5:
        m = Mat2(-m.a, -m.b, -m.c, -m.d)
    return m


@pytest.mark.parametrize("n", [1, 2, 12, 36, 200])
def test_random_matrix_matches_reference(n):
    for k in range(50):
        rng, ref = random.Random(k), random.Random(k)
        m = cli._random_matrix(rng, n)
        assert m == _reference_random_matrix(ref, n)
        assert rng.random() == ref.random()  # the same draws were used up
        assert abs(det(m)) == n and content_gcd(m) == 1


def _assert_repro(record):
    argv = shlex.split(record["repro"])
    assert argv[0] == "raneycf"
    args = cli._build_parser().parse_args(argv[1:])
    assert args.command == "transform"
    assert (args.matrix, args.cf) == (record["matrix"], record["cf"])


def test_verify_failure_records_carry_repro(monkeypatch):
    monkeypatch.setattr(cli, "image_repetend", lambda m, cf: (10**9,))
    records = [cli.run_trial((6, 11, idx, 8, 50)) for idx in range(20)]
    assert any(r["matrix"].startswith("-") for r in records)
    for r in records:
        assert r["verdict"].endswith("oracle mismatch")
        _assert_repro(r)

    def crash(m, cf):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "image_repetend", crash)
    r = cli.run_trial((6, 11, 0, 8, 50))
    assert r["verdict"] == "error: boom"
    assert r["per_hx"] is None and r["oracle_per"] is None
    _assert_repro(r)


def test_verify_records_an_oracle_crash(capsys, monkeypatch):
    """A crash on the oracle's side of the gate is an error record, like a
    transducer crash, and the run goes on to report it."""

    def crash(y):
        raise ZeroDivisionError("oracle boom")

    monkeypatch.setattr(cli, "cf_from_surd", crash)
    r = cli.run_trial((6, 11, 0, 8, 50))
    assert r["verdict"] == "error: oracle boom"
    assert r["per_hx"] is None and r["oracle_per"] is None
    _assert_repro(r)
    code, out, _ = run(capsys, "verify", "5", "--samples", "4", "--seed", "2")
    failures = json.loads(out)["failures"]
    assert code == 1 and [r["index"] for r in failures] == [0, 1, 2, 3]
    assert all(r["verdict"] == "error: oracle boom" for r in failures)


# -- search -----------------------------------------------------------------------


def test_search_small(capsys):
    code, out, _ = run(capsys, "search", "2", "--cf", "[;1]", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    num, _, den = doc["best_ratio"].partition("/")
    assert int(num) <= 5 * int(den or 1)
    assert set(doc) == {"best_ratio", "witness_state", "witness_offset"}


def test_search_reads_only_the_normal_forms_repetend(capsys):
    """parse_cf rolls [3;1,2,3] back to [;3,1,2], and search reads only
    the repetend of that normal form: a preperiod that does not roll back
    changes nothing, and a rotated repetend may change the witness."""

    def report(n, cf):
        code, out, _ = run(capsys, "search", str(n), "--cf", cf, "--format", "json")
        assert code == 0
        return out

    assert report(5, "[-4,7,1;2,3]") == report(5, "[;2,3]")
    assert report(9, "[3;1,2,3]") == report(9, "[;3,1,2]")
    rolled, plain = json.loads(report(9, "[3;1,2,3]")), json.loads(report(9, "[;1,2,3]"))
    assert rolled["best_ratio"] == plain["best_ratio"] == "14/3"
    assert (rolled["witness_state"], plain["witness_state"]) == ("1,0,0,9", "2,1,1,5")


# -- the repetend gate --------------------------------------------------------------


def test_same_cycle_against_rotations():
    """_same_cycle against the list of rotations, with quotients past 2^63
    (the fixed-width fallback) and a match of the bytes off an 8-byte
    boundary."""
    rng = random.Random(5)
    for _ in range(2000):
        top = rng.choice((2, 3, 2**64))
        u = tuple(rng.randint(1, top) for _ in range(rng.randint(1, 6)))
        k = rng.randrange(len(u))
        v = u[k:] + u[:k] if rng.random() < 0.5 else tuple(rng.randint(1, top) for _ in u)
        assert cli._same_cycle(u, v) == any(v == u[i:] + u[:i] for i in range(len(u))), (u, v)
    assert not cli._same_cycle((1,), (1, 1))
    assert not cli._same_cycle((1,), (1 << 56,))  # the bytes of 1 sit at offset 7
    assert not cli._same_cycle((2, 2**64), (12, 2**64))


def test_same_cycle_past_4300_digits():
    """The fallback past 2^63 needs no decimals, so it takes quotients past
    the interpreter's default int/str limit of 4,300 digits."""
    big = 10**4300 + 7
    u = (3, big, 5, big + 2)
    assert cli._same_cycle(u, u[2:] + u[:2]) and cli._same_cycle(u, u)
    assert not cli._same_cycle(u, (5, big, 3, big + 2))  # no rotation of u
    assert not cli._same_cycle(u, (3, big + 2, 5, big))
    assert not cli._same_cycle((big,), (big + 1,))
    # a byte rotation of big's word is found in big's doubled bytes, one
    # byte off a word boundary
    w = (big.bit_length() + 7) // 8
    word = big.to_bytes(w, "little")
    shifted = int.from_bytes(word[1:] + word[:1], "little")
    assert shifted != big and (big.to_bytes(w, "little") * 2).find(shifted.to_bytes(w, "little")) == 1
    assert not cli._same_cycle((shifted,), (big,))
    # past 2^63 the words hold ranks among u's values, so one 400,000-bit
    # quotient among 199 threes costs a few kilobytes, not 200 copies of
    # its width
    huge = (1 << 400_000) - 1
    u = (3,) * 199 + (huge,)
    cases = [
        (u[7:] + u[:7], True),
        (u, True),
        ((3,) * 198 + (huge, 3), True),
        ((3,) * 198 + (huge, 4), False),  # 4 is not among u's values
        ((3,) * 198 + (huge, huge), False),
        ((3,) * 200, False),
    ]
    tracemalloc.start()
    try:
        got = [cli._same_cycle(u, v) for v, _ in cases]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [want for _, want in cases]
    assert peak < 1 << 20, peak


def test_same_cycle_at_the_rank_boundary():
    """_same_cycle against the list of rotations at the edge of its two
    packings, 8-byte words up to 2^63 - 1 and ranks from 2^63 on, on tuples
    drawn from one side of the edge, from both sides, and with small
    quotients beside either."""
    rng = random.Random(30)
    pools = [(2**63 - 2, 2**63 - 1), (2**63, 2**63 + 1), (2**63 - 1, 2**63),
             (1, 2**63 - 1), (1, 2, 2**63 - 1, 2**63)]
    for pool in pools:
        for _ in range(300):
            u = tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))
            k = rng.randrange(len(u))
            v = u[k:] + u[:k] if rng.random() < 0.5 else tuple(rng.choice(pool) for _ in u)
            assert cli._same_cycle(u, v) == any(v == u[i:] + u[:i] for i in range(len(u))), (u, v)
            assert cli._same_cycle(v, u) == cli._same_cycle(u, v), (u, v)
    assert cli._same_cycle((2**63 - 1, 2**63), (2**63, 2**63 - 1))
    assert not cli._same_cycle((2**63 - 1, 2**63 - 1), (2**63 - 1, 2**63))


def test_same_cycle_searches_past_off_boundary_matches():
    """On the 8-byte words a match of the bytes one byte off a word
    boundary is no rotation: 256's word is found in 65536's doubled words
    at offsets 1, 9, 17 and so on, and _same_cycle says no."""
    for u, v in (((256,), (65536,)), ((256, 256), (65536, 65536)), ((256, 3 << 8), (3 << 16, 1 << 16))):
        hay = array("q", v).tobytes() * 2
        assert hay.find(array("q", u).tobytes()) % 8, (u, v)
        assert not cli._same_cycle(u, v) and not any(v == u[i:] + u[:i] for i in range(len(u)))


def _swap_two_quotients(rep):
    """rep with two unequal quotients swapped, into no rotation of rep; None
    when every such swap gives a rotation (a period of 2, for one)."""
    rotations = {rep[k:] + rep[:k] for k in range(len(rep))}
    for i in range(len(rep)):
        for j in range(i + 1, len(rep)):
            t = list(rep)
            t[i], t[j] = t[j], t[i]
            if tuple(t) not in rotations:
                return tuple(t)
    return None


def test_gates_fail_a_repetend_with_two_quotients_swapped(capsys, monkeypatch):
    """A mutant transducer whose image has the oracle's period but two
    unequal quotients swapped: transform exits 1 and verify writes an oracle
    mismatch record, with its repro, for every trial it mutates."""
    real = cli.image_repetend
    mutated = []

    def mutant(m, cf):
        rep = real(m, cf)
        swapped = _swap_two_quotients(rep)
        mutated.append(swapped is not None)
        return rep if swapped is None else swapped

    monkeypatch.setattr(cli, "image_repetend", mutant)
    code, out, err = run(capsys, "transform", "--matrix", "12,1,17,2", "--cf", "[;3]", "--format", "json")
    assert mutated == [True] and code == 1 and "disagrees with oracle" in err
    assert json.loads(out)["per_hx"] == 6  # the period alone would pass
    mutated.clear()
    code, out, _ = run(capsys, "verify", "7", "--samples", "30", "--seed", "3")
    failures = json.loads(out)["failures"]
    assert code == 1 and len(failures) == sum(mutated) > 0
    for r in failures:
        assert r["verdict"].endswith("oracle mismatch") and r["per_hx"] == r["oracle_per"]
        _assert_repro(r)


# -- rendering ----------------------------------------------------------------------


def test_render_json_is_the_indented_dump_byte_for_byte():
    """_render's JSON, written by the C encoder, equals json.dumps(report,
    indent=2) byte for byte on flat reports of the transform's and the
    search's shape: strings that need escapes (quotes, backslashes,
    control characters, non-ASCII), negative and huge ints."""
    texts = ["[;3]", 'a "quoted" \\ path', "tab\there\nnewline", "caf\u00e9 \u2028 \U0001f600",
             "\x00\x1f\x7f", "", "3/7", "holds; oracle mismatch"]
    ints = [0, 1, -1, 2**63, -(2**64), 10**5000]
    rng = random.Random(9)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for _ in range(200):
            keys = rng.sample(["result_cf", "per_x", "per_hx", "S_n", "verdict", "best_ratio",
                               "witness_state", "witness_offset", 'k"ey', "k\u00e9y"], rng.randint(1, 6))
            report = {k: rng.choice((rng.choice(texts), rng.choice(ints))) for k in keys}
            assert cli._render(report, "json") == json.dumps(report, indent=2), report
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [0.5, None, [1, 2]])
def test_render_json_rejects_values_off_the_reports_shape(value):
    """transform and search write only str and int values; _render has no
    second JSON path for any other value."""
    with pytest.raises(TypeError):
        cli._render({"per_x": 1, "a": value}, "json")


def test_transform_and_search_json_is_the_indented_dump(capsys):
    """transform and search --format json print what json.dumps(...,
    indent=2) prints for the same report."""
    for argv in (("transform", "--matrix", "12,1,17,2", "--cf", "[;3]", "--format", "json"),
                 ("transform", "--matrix=-5,3,7,2", "--cf", "[-7,2;100000000000000000000000,1]",
                  "--format", "json"),
                 ("search", "9", "--cf", "[;4696]", "--format", "json"),
                 ("search", "12", "--cf", "[;499398,18446744073709552092]", "--format", "json")):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n", argv
