"""One bicyclic monoid, three implementations.

Bruck–Reilly over the trivial group, Nica's T_{Z,N} and the graph inverse
semigroup of the one-loop bouquet (without its zero) are each the bicyclic
monoid, built by unrelated code: `BRContext` with its numpy left action,
`TQContext` through `ql_lub` and the generic action, `GraphContext` through
the junction rule. The isomorphism (m, 0, n) -> ((m,), (n,)) -> (e^m, e^n)
must carry products, stars, idempotents, degrees and λ matrices across.
"""

import random

import numpy as np

from invsemi.algebra import AlgebraElement
from invsemi.core import GroupTable
from invsemi.families import BRContext, TQContext
from invsemi.graphs import DirectedGraph, GraphContext, PathPair
from invsemi.rep import Truncation, lambda_matrix
from util import rand_qqi

BR = BRContext(GroupTable([[0]]), [0])
TQ = TQContext(1)
BOUQUET1 = DirectedGraph(["v"], [(0, "v", "v")])
GRAPH = GraphContext(BOUQUET1)
WINDOW = [(m, 0, n) for m in range(6) for n in range(6)]


def to_tq(p):
    m, _, n = p
    return (m,), (n,)


def to_graph(p):
    m, _, n = p
    return PathPair(BOUQUET1.path((0,) * m, base="v"), BOUQUET1.path((0,) * n, base="v"))


def signed_length(word):
    return sum(sign for _, sign in word)


def test_products_and_stars_agree_on_every_pair():
    for p in WINDOW:
        assert TQ.star(to_tq(p)) == to_tq(BR.star(p))
        assert GRAPH.star(to_graph(p)) == to_graph(BR.star(p))
        for q in WINDOW:
            pq = BR.product(p, q)
            assert TQ.product(to_tq(p), to_tq(q)) == to_tq(pq)
            assert GRAPH.product(to_graph(p), to_graph(q)) == to_graph(pq)


def test_idempotents_and_degrees_agree():
    br, tq, graph = BR.grading(), TQ.grading(), GRAPH.grading()
    for p in WINDOW:
        m, _, n = p
        idempotent = BR.is_idempotent(p)
        assert idempotent == (m == n)
        assert TQ.is_idempotent(to_tq(p)) == idempotent
        assert GRAPH.is_idempotent(to_graph(p)) == idempotent
        assert br.degree(p) == m - n
        assert tq.degree(to_tq(p)) == (m - n,)
        assert signed_length(graph.degree(to_graph(p))) == m - n


def entries(M):
    return list(zip(M.rows.tolist(), M.cols.tolist(), map(M.values.__getitem__, M.vids.tolist())))


def test_lambda_matrices_agree_on_corresponding_windows():
    rng = random.Random(24)
    terms = [(rng.choice(WINDOW), rand_qqi(rng)) for _ in range(8)]
    f = AlgebraElement(BR, terms)
    assert f
    want = lambda_matrix(f, Truncation(BR, WINDOW))
    assert want.vids.size and want.dropped
    for ctx, iso in ((TQ, to_tq), (GRAPH, to_graph)):
        g = AlgebraElement(ctx, [(iso(s), c) for s, c in terms])
        got = lambda_matrix(g, Truncation(ctx, [iso(p) for p in WINDOW]))
        assert got.n == want.n and got.dropped == want.dropped
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
        assert entries(got) == entries(want)
