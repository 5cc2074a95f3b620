"""Every algebra operation sums its terms like the constructor does.

Elements of the Bruck-Reilly extension of Z/2 and of the bouquet with two
loops are drawn from small pools with coefficients from a short list, so
repeated elements, products that coincide and sums that cancel are common.
The constructor, `+`, `star`, `convolve` and the kernel-only product are
compared with running-total oracles in `tests/util.py`, as (element,
coefficient) lists, so the term order is checked with the values.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from invsemi.algebra import AlgebraElement, _convolve, convolve
from invsemi.families import br_grading, br_window, br_z2_contexts
from invsemi.graphs import (DirectedGraph, GraphContext, PathPair, enumerate_pairs,
                            graph_grading)
from invsemi.scalars import QQi

from util import product_terms, summed_terms

BR, _ = br_z2_contexts()
BR_POOL = br_window(BR, 2)
BR_GRADING = br_grading(BR)

BOUQUET = DirectedGraph(["v"], [(0, "v", "v"), (1, "v", "v")])
GRAPH = GraphContext(BOUQUET)
# pairs with legs of length <= 1 and the zero: most products of two of them
# are zero or coincide
GRAPH_POOL = enumerate_pairs(BOUQUET, 1, include_zero=True)
GRAPH_GRADING = graph_grading(BOUQUET)

# x - y times z, with x z = y z in the kernel: every product cancels
V, E0 = BOUQUET.path((), base="v"), BOUQUET.path((0,), base="v")
CANCELLING = [
    (BR, BR_GRADING, [((0, 0, 0), QQi(1)), ((1, 0, 1), QQi(-1))], [((1, 0, 1), QQi(2))]),
    (GRAPH, GRAPH_GRADING, [(PathPair(V, V), QQi(0, 1)), (PathPair(E0, E0), QQi(0, -1))],
     [(PathPair(E0, E0), QQi(1))]),
]

COEFFS = [QQi(1), QQi(-1), QQi(2), QQi(-2), QQi(0, 1), QQi(0, -1)]

CASES = [(BR, BR_POOL, BR_GRADING), (GRAPH, GRAPH_POOL, GRAPH_GRADING)]


@st.composite
def cases(draw, lists=1):
    """A context, its grading, and term lists over the same few elements of
    its pool, so products of two lists coincide often."""
    ctx, pool, grading = draw(st.sampled_from(CASES))
    few = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4, unique=True))
    terms = st.lists(st.tuples(st.sampled_from(few), st.sampled_from(COEFFS)),
                     min_size=1, max_size=8)
    return (ctx, grading, *(draw(terms) for _ in range(lists)))


def _listed(f: AlgebraElement):
    return list(f.terms.items())


@settings(max_examples=120)
@given(cases())
def test_constructor_matches_running_totals(case):
    ctx, _, pairs = case
    assert _listed(AlgebraElement(ctx, pairs)) == summed_terms(ctx, pairs)
    assert _listed(AlgebraElement(ctx, dict(pairs))) == summed_terms(ctx, dict(pairs).items())


@settings(max_examples=120)
@given(cases(lists=2))
def test_sum_and_star_match_running_totals(case):
    ctx, _, left, right = case
    f, g = AlgebraElement(ctx, left), AlgebraElement(ctx, right)
    assert _listed(f + g) == summed_terms(ctx, _listed(f) + _listed(g))
    assert _listed(f - g) == summed_terms(ctx, _listed(f) + [(e, -c) for e, c in _listed(g)])
    assert _listed(f.star()) == summed_terms(
        ctx, [(ctx.star(e), c.conjugate()) for e, c in _listed(f)])


@settings(max_examples=120)
@given(cases(lists=2))
@example(CANCELLING[0])
@example(CANCELLING[1])
def test_products_match_running_totals(case):
    ctx, grading, left, right = case
    f, g = AlgebraElement(ctx, left), AlgebraElement(ctx, right)
    assert _listed(convolve(f, g)) == product_terms(ctx, _listed(f), _listed(g))
    kernel = _convolve(f.star(), g, grading.kernel_member)
    assert _listed(kernel) == product_terms(ctx, _listed(f.star()), _listed(g),
                                            grading.kernel_member)


def test_cancelling_products_vanish():
    for ctx, grading, left, right in CANCELLING:
        f, g = AlgebraElement(ctx, left), AlgebraElement(ctx, right)
        assert len(f) == 2 and len(g) == 1
        assert not convolve(f, g) and not _convolve(f.star(), g, grading.kernel_member)
