"""Property tests for the graded scans against plain double loops.

Random graphs with a source (a vertex no edge enters) and a sink (a vertex
no edge leaves), loops and parallel edges allowed, are truncated at L <= 3.
`left_products` must hand over exactly the nonzero products that
`multiply_pairs` (or the context's `product`) gives, each listed right
element at most once, on the graph index and on the default hook over graph
truncations, Bruck-Reilly windows and tables. `check_grading`,
`bundle_fibers` and `coaction_unitary_check` must report exactly what the
pair-by-pair loops in `tests/util.py` report, on the honest grading, on
gradings that lie about one element, on gradings that lie about a product
several pairs of one left fiber reach, and on gradings that lie about a
product left elements of one R-class reach from different left fibers; the
scans grade each product once per R-class. `grading_phi` must equal the free
reduction of mu nu^-1; `word_mul`, which cancels only at the junction of two
reduced words, must equal the free reduction of u v. Pairs are stored flat:
rebuilding one from its legs gives it back, and products and stars must
follow the junction rule on Path legs. The two reports share the last scan
of a grading: the second report on an equal list takes no products from the
context, a changed list scans again, what a report returns cannot change
the scan, and on a lying grading either order of the reports gives the
violations of a fresh grading.
Examples are derandomized so every run checks the same cases.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invsemi.algebra import FREE_GROUP, INTEGERS, Grading, bundle_fibers, check_grading
from invsemi.core import GroupTable, SemigroupContext
from invsemi.families import BRContext, br_grading, br_window, br_z2_contexts
from invsemi.graphs import (ZERO_PAIR, DirectedGraph, GraphContext, PathPair,
                            enumerate_pairs, grading_phi, graph_grading, multiply_pairs,
                            star_pair)
from invsemi.jsonio import load_fixture
from invsemi.rep import Truncation, coaction_unitary_check
from invsemi.words import free_reduce, word_inv, word_mul

from util import (junction_rule, pairwise_bundle_fibers, pairwise_check_grading,
                  per_g_coaction_check)

MAX_PAIRS = 30


@st.composite
def truncated_graphs(draw):
    """(graph, L, pairs): vertex 0 is a source and the last vertex a sink;
    L <= 3 shrinks until the truncation has at most MAX_PAIRS pairs."""
    n = draw(st.integers(3, 5))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)),
                         min_size=1, max_size=5))
    g = DirectedGraph([f"v{k}" for k in range(n)],
                      [(i, f"v{s}", f"v{r}") for i, (s, r) in enumerate(ends)])
    L = draw(st.integers(0, 3))
    while len(enumerate_pairs(g, L)) > MAX_PAIRS:
        L -= 1
    return g, L, enumerate_pairs(g, L)


def _lying(grading, culprit, edge):
    """The grading with one element's degree pushed by one edge letter."""
    def degree(x):
        d = grading.degree(x)
        return word_mul(d, ((edge, 1),)) if x == culprit else d
    return Grading(grading.context, grading.group, degree)


def _assert_scans_match_pairwise(grading, pairs):
    listed = pairs + [ZERO_PAIR]
    assert check_grading(grading, listed) == pairwise_check_grading(grading, listed)
    fibers, report = bundle_fibers(listed, grading)
    want_fibers, want_report = pairwise_bundle_fibers(listed, grading)
    assert report == want_report
    assert list(fibers.items()) == list(want_fibers.items())


def _assert_left_products_are_the_nonzero_products(ctx, products, elements):
    """Each (j, p) handed over for a is (j, a b_j) by the context's own
    product, no j twice, and every j left out multiplies a to zero."""
    for a in elements:
        found = products(a)
        js = [j for j, _ in found]
        assert len(js) == len(set(js))
        for j, p in found:
            want = ctx.product(a, elements[j])
            assert not ctx.is_zero(want) and p == want and type(p) is type(want)
        assert all(ctx.is_zero(ctx.product(a, elements[j]))
                   for j in set(range(len(elements))) - set(js))


@settings(max_examples=15)
@given(truncated_graphs())
def test_left_products_are_the_nonzero_products_on_graphs(drawn):
    g, _, pairs = drawn
    ctx = GraphContext(g)
    assert ctx.product is multiply_pairs
    for listed in (pairs, pairs[::-1] + [ZERO_PAIR]):
        for products in (ctx.left_products(listed),
                         SemigroupContext.left_products(ctx, listed)):
            _assert_left_products_are_the_nonzero_products(ctx, products, listed)


@settings(max_examples=15)
@given(st.integers(2, 4), st.data())
def test_left_products_are_the_nonzero_products_on_br_windows(n, data):
    """The default hook on Bruck-Reilly, where no product is zero."""
    endos = [[(k * i) % n for i in range(n)] for k in range(n)]
    ctx = BRContext(GroupTable([[(i + j) % n for j in range(n)] for i in range(n)]),
                    data.draw(st.sampled_from(endos)))
    window = br_window(ctx, data.draw(st.integers(0, 2)))
    products = ctx.left_products(window)
    _assert_left_products_are_the_nonzero_products(ctx, products, window)
    assert all(len(products(a)) == len(window) for a in window)


@pytest.mark.parametrize("name", ["five_element", "clifford_z2", "two_parallel"])
def test_left_products_are_the_nonzero_products_on_tables(name):
    """The default hook on tables with and without a zero; a graph document
    gives the table of every pair of paths."""
    S = load_fixture(name).structure.finite_semigroup()
    for listed in (list(range(S.n)), list(range(S.n))[::-1]):
        _assert_left_products_are_the_nonzero_products(S, S.left_products(listed), listed)


@settings(max_examples=15)
@given(truncated_graphs(), st.data())
def test_graded_scans_match_pairwise_loops(drawn, data):
    g, _, pairs = drawn
    honest = graph_grading(g)
    culprit = data.draw(st.sampled_from(pairs))
    edge = data.draw(st.sampled_from(g.edge_ids))
    for grading in (honest, _lying(honest, culprit, edge)):
        _assert_scans_match_pairwise(grading, pairs)


@settings(max_examples=15)
@given(truncated_graphs(), st.data())
def test_graded_scans_catch_a_lie_about_a_shared_product(drawn, data):
    g, _, pairs = drawn
    honest = graph_grading(g)
    reached = {}
    for a in pairs:
        for b in pairs:
            r = multiply_pairs(a, b)
            if r is not ZERO_PAIR:
                key = (r, grading_phi(a))
                reached[key] = reached.get(key, 0) + 1
    shared = sorted({r for (r, _), n in reached.items() if n > 1}, key=repr)
    assume(shared)
    lying = _lying(honest, data.draw(st.sampled_from(shared)),
                   data.draw(st.sampled_from(g.edge_ids)))
    assert not check_grading(lying, pairs)["ok"]
    _assert_scans_match_pairwise(lying, pairs)


@settings(max_examples=15)
@given(truncated_graphs(), st.data())
def test_graded_scans_catch_a_lie_across_the_left_fibers_of_an_r_class(drawn, data):
    """A product that left elements of one R-class (equal a a*) reach from
    different left fibers is graded once per R-class, not once per fiber."""
    g, _, pairs = drawn
    honest = graph_grading(g)
    reached = {}
    for a in pairs:
        for b in pairs:
            r = multiply_pairs(a, b)
            if r is not ZERO_PAIR:
                key = (r, multiply_pairs(a, star_pair(a)))
                reached.setdefault(key, set()).add(grading_phi(a))
    shared = sorted({r for (r, _), fibers in reached.items() if len(fibers) > 1}, key=repr)
    assume(shared)
    lying = _lying(honest, data.draw(st.sampled_from(shared)),
                   data.draw(st.sampled_from(g.edge_ids)))
    assert not check_grading(lying, pairs)["ok"]
    _assert_scans_match_pairwise(lying, pairs)


class CountingGraphContext(GraphContext):
    """A graph context that counts the products its `left_products` hands over."""

    def __init__(self, graph):
        super().__init__(graph)
        self.products = 0

    def left_products(self, elements):
        products = super().left_products(elements)

        def counted(a):
            found = products(a)
            self.products += len(found)
            return found

        return counted


def _nonzero_pairs(listed):
    nonzero = [a for a in listed if a is not ZERO_PAIR]
    return sum(multiply_pairs(a, b) is not ZERO_PAIR for a in nonzero for b in nonzero)


def _two_loop_bouquet():
    return DirectedGraph(["v"], [(0, "v", "v"), (1, "v", "v")])


def _reports(grading, listed):
    """Both reports, with the fibers as a list of items so order counts."""
    fibers, report = bundle_fibers(listed, grading)
    return check_grading(grading, listed), list(fibers.items()), report


def test_one_scan_serves_both_reports():
    g = _two_loop_bouquet()
    ctx = CountingGraphContext(g)
    grading = Grading(ctx, FREE_GROUP, grading_phi)
    pairs = enumerate_pairs(g, 2) + [ZERO_PAIR]
    want = _reports(graph_grading(g), pairs)
    assert check_grading(grading, pairs) == want[0]
    # one scan takes each nonzero product from the context once
    scanned = _nonzero_pairs(pairs)
    assert ctx.products == scanned > 0
    # an equal list, even one built anew or handed over as an iterator,
    # reads the same scan and takes no products
    fibers, report = bundle_fibers(list(pairs), grading)
    assert ctx.products == scanned
    assert (list(fibers.items()), report) == want[1:]
    assert check_grading(grading, iter(pairs)) == want[0]
    assert ctx.products == scanned
    # a changed list, of another length or the same one, scans again
    for changed in (pairs[1:] + pairs[:1], pairs[:-2]):
        before = ctx.products
        assert _reports(grading, changed) == _reports(graph_grading(g), changed)
        assert ctx.products == before + _nonzero_pairs(changed)


def test_returned_fibers_do_not_reach_the_scan():
    g = _two_loop_bouquet()
    grading = graph_grading(g)
    pairs = enumerate_pairs(g, 2)
    want = _reports(graph_grading(g), pairs)
    fibers, _ = bundle_fibers(pairs, grading)
    for members in fibers.values():
        members.append(pairs[0])
        members.reverse()
    fibers[("not", "a", "degree")] = list(pairs)
    assert _reports(grading, pairs) == want


@settings(max_examples=15)
@given(truncated_graphs(), st.data())
def test_either_report_order_gives_a_fresh_scans_violations(drawn, data):
    g, _, pairs = drawn
    honest = graph_grading(g)
    culprit = data.draw(st.sampled_from(pairs))
    edge = data.draw(st.sampled_from(g.edge_ids))
    listed = pairs + [ZERO_PAIR]
    check_first = _lying(honest, culprit, edge)
    bundle_first = _lying(honest, culprit, edge)
    checked = check_grading(check_first, listed)
    bundled = bundle_fibers(listed, bundle_first)
    want_check = check_grading(_lying(honest, culprit, edge), listed)
    want_fibers, want_bundle = bundle_fibers(listed, _lying(honest, culprit, edge))
    assert checked == check_grading(bundle_first, listed) == want_check
    assert want_check == pairwise_check_grading(_lying(honest, culprit, edge), listed)
    for fibers, report in (bundled, bundle_fibers(listed, check_first)):
        assert report == want_bundle
        assert list(fibers.items()) == list(want_fibers.items())


@settings(max_examples=15)
@given(truncated_graphs())
def test_flat_pairs_rebuild_from_their_legs(drawn):
    g, _, pairs = drawn
    for p in pairs:
        mu, nu = p.mu, p.nu
        assert mu == g.path(mu.edges, base=mu.base) and nu == g.path(nu.edges, base=mu.base)
        q = PathPair(mu, nu)
        assert q == p and hash(q) == hash(p)
        legs = ["-".join(map(str, leg.edges)) or f"@{leg.base}" for leg in (mu, nu)]
        assert repr(p) == "({}|{})".format(*legs)


@settings(max_examples=15)
@given(truncated_graphs())
def test_products_and_stars_follow_the_junction_rule(drawn):
    g, _, pairs = drawn
    for p in pairs:
        s = star_pair(p)
        assert (s.mu, s.nu) == (p.nu, p.mu)
        for q in pairs:
            r, want = multiply_pairs(p, q), junction_rule(g, p, q)
            if want is None:
                assert r is ZERO_PAIR
            else:
                assert (r.mu, r.nu) == want and r == PathPair(*want)


@settings(max_examples=15)
@given(truncated_graphs())
def test_grading_phi_is_the_free_reduction(drawn):
    _, _, pairs = drawn
    for p in pairs:
        for q in pairs:
            r = multiply_pairs(p, q)
            if r is ZERO_PAIR:
                assert grading_phi(r) is None
                continue
            letters = [(e, 1) for e in r.mu.edges] + [(e, -1) for e in reversed(r.nu.edges)]
            assert grading_phi(r) == free_reduce(letters)


@settings(max_examples=15)
@given(truncated_graphs(), st.data())
def test_coaction_check_matches_per_g_loop(drawn, data):
    g, _, pairs = drawn
    honest = graph_grading(g)
    grading = _lying(honest, data.draw(st.sampled_from(pairs)),
                     data.draw(st.sampled_from(g.edge_ids)))
    window = [grading.group.identity]
    for p in pairs[:4]:
        if grading.degree(p) not in window:
            window.append(grading.degree(p))
    B = Truncation(GraphContext(g), pairs)
    assert (coaction_unitary_check(grading, B, window, pairs)
            == per_g_coaction_check(grading, B, window, pairs))


def test_coaction_check_matches_per_g_loop_on_br():
    ctx, _ = br_z2_contexts()
    honest = br_grading(ctx)
    culprit = ctx.element(1, 0, 0)
    lying = Grading(ctx, INTEGERS,
                    lambda s: honest.degree(s) + (2 if s == culprit else 0))
    B = Truncation(ctx, br_window(ctx, 2))
    report = coaction_unitary_check(lying, B, range(-2, 3), br_window(ctx, 1))
    assert not report["ok"]
    assert report == per_g_coaction_check(lying, B, range(-2, 3), br_window(ctx, 1))


@st.composite
def reduced_word_pairs(draw):
    """(u, v) reduced over three letters; v often starts by undoing a suffix
    of u, so cancellation runs deep and is sometimes total."""
    letters = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))
    u = free_reduce(draw(st.lists(letters, max_size=8)))
    k = draw(st.integers(0, len(u)))
    head = word_inv(u[k:]) if draw(st.booleans()) else ()
    v = free_reduce(head + tuple(draw(st.lists(letters, max_size=4))))
    return u, v


@settings(max_examples=60)
@given(reduced_word_pairs())
def test_word_mul_is_the_free_reduction(words):
    u, v = words
    assert word_mul(u, v) == free_reduce(u + v)
    assert word_mul(u, word_inv(u)) == ()
