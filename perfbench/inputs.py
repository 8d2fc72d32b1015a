"""Seeded inputs for the benchmark workloads.

A workload is a fixed catalog of problems plus a presentation drawn from the
run's seed.  A transform problem is a matrix and a continued fraction; its
presentation flips the matrix's sign half the time, which leaves h_M(x),
gamma and the output cycle unchanged.  A search problem is a level n and a repetend;
its presentation rotates the repetend, which leaves the answer unchanged and
the cost within a few percent.  The seed also sets the order of the
operations.

The catalog is fixed per workload because the cost of one operation is heavy
tailed (on large-det the slowest inputs take a hundred times the median), so
runs that drew their own few hundred problems would not be comparable.  For
the same reason the left unimodular factor belongs to the catalog: it moves
where transduce_cycle's output cycle starts, and with it the cost of
lr_cycle_to_period by up to four times either way on long-period.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

from raneycf.matrices import J_MAT, Mat2
from raneycf.surds import PeriodicCF

# L, R and their inverses
UNIMODULAR = (Mat2(1, 0, 1, 1), Mat2(1, 1, 0, 1), Mat2(1, 0, -1, 1), Mat2(1, -1, 0, 1))


def hermite(rng: random.Random, n: int) -> Mat2:
    """[[a, b], [0, d]] with ad = n, 0 <= b < d and content 1."""
    a = rng.choice([t for t in range(1, n + 1) if n % t == 0])
    d = n // a
    b = rng.choice([b for b in range(d) if gcd(a, b, d) == 1])
    return Mat2(a, b, 0, d)


def unimodular_word(rng: random.Random, max_len: int = 4) -> Mat2:
    m = Mat2(1, 0, 0, 1)
    for _ in range(rng.randint(0, max_len)):
        m = m * rng.choice(UNIMODULAR)
    return m


def dressed_matrix(rng: random.Random, n: int) -> Mat2:
    """A Hermite form dressed with unimodular words on both sides, with J
    half the time: |det| = n, content 1, and either determinant sign."""
    m = unimodular_word(rng) * hermite(rng, n) * unimodular_word(rng)
    return m * J_MAT if rng.random() < 0.5 else m


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def periodic_cf(rng, period, quotient, preperiod=True) -> PeriodicCF:
    """`period` partial quotients drawn by `quotient(rng)`; with `preperiod`,
    0-3 more before them, the first one signed 30% of the time."""
    rep = [quotient(rng) for _ in range(period)]
    pre = [quotient(rng) for _ in range(rng.randint(0, 3))] if preperiod else []
    if pre and rng.random() < 0.3:
        pre[0] = rng.randint(-pre[0], pre[0])
    return PeriodicCF.create(pre, rep)


def _verify_mix(rng):
    m = dressed_matrix(rng, rng.randint(2, 12))
    return m, periodic_cf(rng, rng.randint(1, 8), lambda r: r.randint(1, 50))


def _large_det(rng):
    m = dressed_matrix(rng, log_uniform(rng, 128, 1500))
    return m, periodic_cf(rng, rng.randint(1, 4), lambda r: r.randint(1, 20))


def _long_period(rng):
    m = dressed_matrix(rng, rng.randint(2, 12))
    return m, periodic_cf(rng, rng.randint(100, 300), lambda r: r.randint(1, 20))


def _search(rng):
    rep = periodic_cf(rng, rng.randint(1, 4), lambda r: log_uniform(r, 1, 500), preperiod=False)
    return rng.randint(2, 48), rep


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "transform" or "search"
    problems: int  # catalog size: the operations in one pass
    draw: Callable[[random.Random], tuple]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-mix", "transform", 1000, _verify_mix),
        Workload("large-det", "transform", 40, _large_det),
        Workload("long-period", "transform", 40, _long_period),
        Workload("search", "search", 60, _search),
    )
}


def catalog(w: Workload) -> list[tuple]:
    rng = random.Random(f"catalog:{w.name}")
    return [w.draw(rng) for _ in range(w.problems)]


def present(kind: str, problem: tuple, rng: random.Random) -> tuple:
    if kind == "transform":
        m, cf = problem
        if rng.random() < 0.5:
            m = Mat2(-m.a, -m.b, -m.c, -m.d)
        return m, cf
    n, cf = problem
    k = rng.randrange(len(cf.repetend))
    return n, PeriodicCF.create((), cf.repetend[k:] + cf.repetend[:k])


def make_ops(w: Workload, seed: int) -> list[tuple]:
    """One pass of operations: every catalog problem once, presented and
    ordered by `seed`."""
    rng = random.Random(f"{w.name}:{seed}")
    ops = [present(w.kind, p, rng) for p in catalog(w)]
    rng.shuffle(ops)
    return ops
