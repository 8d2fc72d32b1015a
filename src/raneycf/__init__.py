"""Periods of continued fractions under Moebius transformations.

Exact-arithmetic toolkit built around Raney's finite-state transducers:
LR words, doubly balanced matrix classes, a quadratic-surd oracle, the
transducer pipeline for per(h(x)), and the period bound S_n. Import each
name from the module that defines it; the package root re-exports nothing.
"""
