"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from raneycf.matrices import content_gcd, det  # noqa: E402

import inputs  # noqa: E402
import worker  # noqa: E402
from measure import (  # noqa: E402
    REF_S, Spans, at_reference_speed, normalise, percentile, reference_s, self_times, shares, tail_percentile,
)


@pytest.mark.parametrize("n", [1, 2, 7, 12, 16, 128, 360, 1500])
def test_dressed_matrix_has_det_n_content_1_and_both_signs(n):
    rng = random.Random(n)
    signs = set()
    for _ in range(200):
        h = inputs.hermite(rng, n)
        assert (h.c, det(h), content_gcd(h)) == (0, n, 1) and 0 <= h.b < h.d
        m = inputs.dressed_matrix(rng, n)
        shown, _ = inputs.present("transform", (m, None), rng)
        for x in (m, shown):
            assert abs(det(x)) == n and content_gcd(x) == 1
        signs.add(det(shown) > 0)
    assert signs == {True, False}


def test_same_seed_same_inputs():
    for w in inputs.WORKLOADS.values():
        a = inputs.make_ops(w, 5)
        assert a == inputs.make_ops(w, 5)
        assert a != inputs.make_ops(w, 6)
        assert len(a) == w.problems


def test_presentation_keeps_the_answer():
    w = inputs.WORKLOADS["verify-mix"]
    problems = inputs.catalog(w)[:20]
    for seed in (1, 2):
        rng = random.Random(seed)
        for p in problems:
            assert worker.check_transform(None, worker.transform(p)) == worker.check_transform(
                None, worker.transform(inputs.present("transform", p, rng))
            )


def test_tail_percentile_leaves_ten_beyond():
    assert tail_percentile(20) == 50.0
    assert tail_percentile(80) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(150) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(4000) == 99.5
    assert tail_percentile(10**6) == 99.99
    for n in (20, 99, 100, 1000, 4000, 12345):
        p = tail_percentile(n)
        assert n * (100 - p) / 100 >= 10
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99.5) == 100
    assert percentile([3.0], 95) == 3.0


def test_reference_time_scales_by_the_surrounding_samples():
    assert at_reference_speed(0.004, 2 * REF_S) == pytest.approx(0.002)
    refs = [1e-3, 3e-3, 2e-3]
    out = normalise([0.010, 0.004, 0.005], [0, 0, 1], refs, 2)
    assert out[0] == pytest.approx([0.010 * REF_S / 2e-3, 0.005 * REF_S / 2.5e-3])
    assert out[1] == pytest.approx([0.004 * REF_S / 2e-3])
    assert normalise([0.010], [1], refs, 3)[1:] == [[], []]
    assert 0 < reference_s() < 1


def test_self_time_and_share():
    rows = [
        ("a", 10, 40, 1),
        ("b", 40, 90, 1),
        (Spans.ROOT, 0, 100, 1),
        ("a", 205, 215, 2),
        ("a", 210, 230, 2),  # overlaps the first: covered once
        ("b", 290, 320, 2),  # runs past the root: clipped
        (Spans.ROOT, 200, 300, 2),
    ]
    selfs = self_times(rows)
    assert selfs["a"] == (30 + 10 + 20, 3)
    assert selfs["b"] == (50 + 30, 2)
    assert selfs[Spans.ROOT] == (20 + 100 - 25 - 10, 2)
    assert shares(self_times(rows[:3])) == {"a": 0.3, "b": 0.5, Spans.ROOT: 0.2}


def test_spans_group_layers_under_their_op():
    spans = Spans()
    for _ in range(2):
        spans.op(lambda: spans.call("layer", sum, [1, 2]))
    assert [(name, op) for name, _, _, op in spans.rows] == [
        ("layer", 1), (Spans.ROOT, 1), ("layer", 2), (Spans.ROOT, 2),
    ]
    selfs = self_times(spans.rows)
    assert selfs["layer"][1] == 2 and selfs[Spans.ROOT][1] == 2
    assert sum(shares(selfs).values()) == pytest.approx(1.0)


def test_traced_pipeline_matches_the_cli():
    spans = Spans()
    counts = dict.fromkeys(worker.COUNTS, 0)
    for op in inputs.make_ops(inputs.WORKLOADS["verify-mix"], 0)[:30]:
        assert worker.check_transform(op, worker.traced_transform(spans, op, counts)) == \
            worker.check_transform(op, worker.transform(op))
    assert counts["transducer.transduce_cycle.gamma_sum"] >= 30
    assert {name for name, *_ in spans.rows} >= {"surds.cf_from_surd", "transducer.transduce_cycle"}


def test_anchors_hold():
    worker.check_anchors()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
