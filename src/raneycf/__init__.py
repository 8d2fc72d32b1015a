"""Periods of continued fractions under Moebius transformations.

Exact-arithmetic toolkit built around Raney's finite-state transducers:
LR words, doubly balanced matrix classes, a quadratic-surd oracle, the
transducer pipeline for per(h(x)), and the period bound S_n.
"""

from .matrices import (
    IDENTITY,
    J_MAT,
    L_MAT,
    Mat2,
    R_MAT,
    associated,
    content_gcd,
    det,
    enumerate_DB,
    in_D,
    in_DB,
    in_RB,
    inverse_times_det,
    parse_mat2,
    format_mat2,
    xi,
)
from .words import (
    EPSILON,
    L,
    LRWord,
    R,
    conjugates,
    format_word,
    kappa,
    mu,
    primitive_root,
    rotate,
    sigma,
    sigma_c,
    star,
    word_of_matrix,
)
from .surds import (
    PeriodicCF,
    QuadraticSurd,
    apply_mobius,
    cf_from_surd,
    format_cf,
    parse_cf,
    per,
    surd,
    surd_from_cf,
)
from .transducer import (
    ClosedWalk,
    Transducer,
    TransducerEdge,
    build_transducer,
    factorize_to_DB,
    image_period,
    image_repetend,
    lr_cycle_to_period,
    lr_repetend,
    reduce_to_DB,
    search_max_ratio,
    transduce_cycle,
)
from .bounds import (
    BoundBreakdown,
    BoundTerm,
    check_bound,
    prime_sharp_bound,
    s_n_closed_form,
)

__version__ = "0.1.0"
