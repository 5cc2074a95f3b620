import random

import pytest

from invsemi.algebra import (
    INTEGERS,
    AlgebraElement,
    Grading,
    bundle_fibers,
    check_grading,
    convolve,
    epsilon_restrict,
    epsilon_star_square,
    fiber_decompose,
    involution,
    sos_witness_coset,
    sos_witness_idempotent_kernel,
)
from invsemi.core import (
    EMPTY_PB,
    FiniteInverseSemigroup,
    IXContext,
    PartialBijection,
    max_group_image,
)
from invsemi.errors import (
    ContextMismatch,
    IdentityMismatch,
    InputError,
    NotInCoset,
    WitnessFailure,
)
from invsemi.graphs import (
    DirectedGraph,
    GraphContext,
    PathPair,
    enumerate_pairs,
    graph_grading,
    grading_phi,
)
from invsemi.scalars import QQi
from util import graph_fiber, identity_pb, rand_qqi, rand_qqi_nonzero, raw_compose


def rand_pb(rng, n=3):
    pts = list(range(1, n + 1))
    dom = rng.sample(pts, rng.randint(0, n))
    ran = rng.sample(pts, len(dom))
    return PartialBijection(dict(zip(dom, ran)))


def rand_element(rng, ctx, pool, size=4):
    terms = [(rng.choice(pool), rand_qqi(rng)) for _ in range(size)]
    return AlgebraElement(ctx, terms)


def bouquet(loops):
    return DirectedGraph(["v"], [(e, "v", "v") for e in loops])


def clifford_chain_z2():
    # two-point semilattice acted on trivially: elements (i, g), product
    # (min(i,j), g+h mod 2)
    elems = [(i, g) for i in (0, 1) for g in (0, 1)]
    idx = {e: k for k, e in enumerate(elems)}
    table = [[idx[(min(a[0], b[0]), (a[1] + b[1]) % 2)] for b in elems] for a in elems]
    star = [idx[(a[0], (-a[1]) % 2)] for a in elems]
    return FiniteInverseSemigroup(table, star_table=star,
                                  labels=[f"{i}.{g}" for i, g in elems])


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------

def test_constructor_normalizes():
    ctx = IXContext([1, 2])
    one = identity_pb([1, 2])
    f = AlgebraElement(ctx, [(EMPTY_PB, 5), (one, 0), (one, 2), (one, -2)])
    assert not f and len(f) == 0
    g = AlgebraElement(ctx, [(one, "1/2"), (one, "1/2")])
    assert g.coeff(one) == QQi(1)


def test_addition_cancels():
    rng = random.Random(0)
    ctx = IXContext([1, 2, 3])
    pool = [rand_pb(rng) for _ in range(8)]
    for _ in range(20):
        f = rand_element(rng, ctx, pool)
        g = rand_element(rng, ctx, pool)
        assert f + (-f) == AlgebraElement(ctx)
        assert (f + g) - g == f
        assert f - g == -(g - f)


def test_scale_and_exactness():
    ctx = IXContext([1, 2])
    one = identity_pb([1, 2])
    f = AlgebraElement(ctx, [(one, QQi(2, 1))])
    assert 3 * f == f.scale(3) == f + f + f
    assert f.is_exact()
    assert not f.scale(0.5).is_exact()
    assert f.scale(0) == AlgebraElement(ctx)


def test_convolve_matches_raw_composition():
    rng = random.Random(1)
    ctx = IXContext([1, 2, 3])
    pool = [rand_pb(rng) for _ in range(10)]
    for _ in range(25):
        f = rand_element(rng, ctx, pool)
        g = rand_element(rng, ctx, pool)
        expected = {}
        for s, a in f.terms.items():
            for t, b in g.terms.items():
                m = raw_compose(s.map, t.map)
                if not m:
                    continue
                p = PartialBijection(m)
                c = expected.get(p, QQi(0)) + a * b
                if c == 0:
                    expected.pop(p, None)
                else:
                    expected[p] = c
        assert convolve(f, g).terms == expected


def test_convolution_associative():
    rng = random.Random(2)
    ctx = IXContext([1, 2, 3])
    pool = [rand_pb(rng) for _ in range(10)]
    for _ in range(15):
        f, g, h = (rand_element(rng, ctx, pool) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_involution_laws():
    rng = random.Random(3)
    ctx = IXContext([1, 2, 3])
    pool = [rand_pb(rng) for _ in range(10)]
    for _ in range(15):
        f = rand_element(rng, ctx, pool)
        g = rand_element(rng, ctx, pool)
        assert involution(involution(f)) == f
        assert involution(f * g) == involution(g) * involution(f)
        assert involution(f + g) == involution(f) + involution(g)


def test_star_conjugates_coefficients():
    ctx = IXContext([1, 2])
    s = PartialBijection({1: 2})
    f = AlgebraElement(ctx, [(s, QQi(1, 2))])
    assert f.star().coeff(s.inverse()) == QQi(1, -2)


def test_context_mismatch_rejected():
    f = AlgebraElement(IXContext([1]), [(identity_pb([1]), 1)])
    g = AlgebraElement(IXContext([1, 2]), [(identity_pb([1]), 1)])
    with pytest.raises(ContextMismatch):
        f + g
    with pytest.raises(ContextMismatch):
        convolve(f, g)


def test_epsilon_restrict_set_and_predicate():
    rng = random.Random(4)
    ctx = IXContext([1, 2, 3])
    pool = [rand_pb(rng) for _ in range(10)]
    idem = lambda x: x.is_idempotent()
    for _ in range(10):
        f = rand_element(rng, ctx, pool, size=6)
        by_pred = epsilon_restrict(f, idem)
        by_set = epsilon_restrict(f, [e for e in pool if e.is_idempotent()])
        assert by_pred == by_set
        assert epsilon_restrict(by_pred, idem) == by_pred
        assert all(e.is_idempotent() for e in by_pred.support())


# ---------------------------------------------------------------------------
# convolution against a worked example
# ---------------------------------------------------------------------------

def test_convolution_hand_oracle_one_loop():
    g = bouquet(["e"])
    ctx = GraphContext(g)
    eps = g.empty_path("v")
    pe = g.path(("e",))
    pee = g.path(("e", "e"))
    f = AlgebraElement(ctx, [(PathPair(pe, eps), 1), (PathPair(pee, pe), 1)])
    prod = involution(f) * f
    expected = AlgebraElement(ctx, [(PathPair(eps, eps), 1), (PathPair(pe, pe), 3)])
    assert prod == expected


# ---------------------------------------------------------------------------
# gradings and the restriction expectation
# ---------------------------------------------------------------------------

def test_grading_fibers_keep_listed_order():
    grading = Grading(None, INTEGERS, lambda x: x % 3)
    fibers = grading.fibers([5, 3, 2, 6, 8, 5, 4])
    assert list(fibers.items()) == [(2, [5, 2, 8, 5]), (0, [3, 6]), (1, [4])]
    assert grading.fibers([]) == {}


def test_fiber_decompose_sums_back():
    rng = random.Random(5)
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    grading = graph_grading(g)
    pool = enumerate_pairs(g, 2)
    for _ in range(10):
        f = rand_element(rng, ctx, pool, size=7)
        fibers = fiber_decompose(f, grading)
        total = AlgebraElement(ctx)
        for part in fibers.values():
            total = total + part
        assert total == f
        for deg, part in fibers.items():
            assert {grading_phi(e) for e in part.support()} == {deg}


def test_epsilon_star_square_vs_double_loop():
    rng = random.Random(6)
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    grading = graph_grading(g)
    pool = enumerate_pairs(g, 2)
    for _ in range(10):
        f = rand_element(rng, ctx, pool, size=7)
        got = epsilon_star_square(f, grading)
        expected = AlgebraElement(ctx)
        for s, a in f.terms.items():
            for t, b in f.terms.items():
                p = ctx.product(ctx.star(s), t)
                if not ctx.is_zero(p) and grading.kernel_member(p):
                    expected = expected + AlgebraElement(ctx, [(p, a.conjugate() * b)])
        assert got == expected


def test_epsilon_star_square_flags_bad_degree():
    g = bouquet(["e"])
    ctx = GraphContext(g)
    eps = g.empty_path("v")
    x = PathPair(g.path(("e",)), eps)
    y = PathPair(g.path(("e", "e")), eps)

    def lying_degree(p):
        return 1 if p in (x, y) else len(p.mu.edges) - len(p.nu.edges)

    f = AlgebraElement(ctx, [(x, 1), (y, 1)])
    with pytest.raises(IdentityMismatch):
        epsilon_star_square(f, Grading(ctx, INTEGERS, lying_degree))


def test_epsilon_star_square_group_table_grading():
    rng = random.Random(7)
    S = clifford_chain_z2()
    G, sigma = max_group_image(S)
    grading = Grading(S, G, sigma.__getitem__)
    for _ in range(10):
        f = rand_element(rng, S, list(S.elements()), size=3)
        got = epsilon_star_square(f, grading)
        expected = AlgebraElement(S)
        for s, a in f.terms.items():
            for t, b in f.terms.items():
                p = S.product(S.star(s), t)
                if grading.kernel_member(p):
                    expected = expected + AlgebraElement(S, [(p, a.conjugate() * b)])
        assert got == expected


# ---------------------------------------------------------------------------
# sum-of-squares witnesses
# ---------------------------------------------------------------------------

def test_kernel_witness_on_idempotent_support():
    rng = random.Random(8)
    ctx = IXContext([1, 2, 3])
    idems = [identity_pb(dom) for dom in
             ([], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])
             if dom]
    for _ in range(10):
        f = AlgebraElement(ctx, [(rng.choice(idems), rand_qqi(rng)) for _ in range(4)])
        w = sos_witness_idempotent_kernel(f)
        assert w == f  # s* s = s on idempotents
        assert involution(w) * w == involution(f) * f


def test_kernel_witness_on_single_graph_fiber():
    rng = random.Random(9)
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    grading = graph_grading(g)
    for trial in range(10):
        support = graph_fiber(g, [("e", 1)], [("f", 1)], 2)
        f = AlgebraElement(ctx, [(rng.choice(support), rand_qqi_nonzero(rng))
                                 for _ in range(4)])
        w = sos_witness_idempotent_kernel(f, grading)
        assert involution(w) * w == involution(f) * f
        assert all(grading.kernel_member(s) for s in w.support())


def test_kernel_witness_failure_on_mixed_degrees():
    g = bouquet(["e"])
    ctx = GraphContext(g)
    eps = g.empty_path("v")
    pe = g.path(("e",))
    f = AlgebraElement(ctx, [(PathPair(pe, eps), 1), (PathPair(eps, pe), 1)])
    with pytest.raises(WitnessFailure):
        sos_witness_idempotent_kernel(f)
    with pytest.raises(InputError):
        # the grading guard refuses mixed support before any arithmetic
        sos_witness_idempotent_kernel(f, graph_grading(g))


def test_coset_witness_recovers_square():
    rng = random.Random(10)
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    grading = graph_grading(g)
    words = [([("e", 1)], [("f", 1)]),
             ([("e", 1), ("f", 1)], [("e", 1)]),
             ([], [("f", 1), ("f", 1)])]
    for s_word, t_word in words:
        support = graph_fiber(g, s_word, t_word, 2)
        for _ in range(5):
            f = AlgebraElement(ctx, [(rng.choice(support), rand_qqi_nonzero(rng))
                                     for _ in range(3)])
            if not f:
                continue
            w = sos_witness_coset(f, support[0], grading)
            assert involution(w) * w == involution(f) * f


def test_coset_witness_rejects_foreign_representative():
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    eps = g.empty_path("v")
    f = AlgebraElement(ctx, [(PathPair(g.path(("e",)), eps), 1)])
    rep = PathPair(g.path(("f",)), eps)
    with pytest.raises(NotInCoset):
        sos_witness_coset(f, rep)


# ---------------------------------------------------------------------------
# grading reports
# ---------------------------------------------------------------------------

def test_check_grading_graph_truncation():
    g = bouquet(["e", "f"])
    report = check_grading(graph_grading(g), enumerate_pairs(g, 2, include_zero=True))
    assert report["ok"] and not report["violations"]
    assert report["idempotent_pure"]
    assert report["kernel_size"] == 7  # one idempotent per path of length <= 2
    assert report["checked"] == 49 * 49


def test_check_grading_flags_corruption():
    g = bouquet(["e"])
    grading = graph_grading(g)
    bad = PathPair(g.path(("e",)), g.empty_path("v"))

    def corrupt(p):
        return (("e", 1), ("e", 1)) if p == bad else grading_phi(p)

    report = check_grading(Grading(grading.context, grading.group, corrupt),
                           enumerate_pairs(g, 1))
    assert not report["ok"] and report["violations"]


def test_bundle_fibers_graph_truncation():
    g = bouquet(["e", "f"])
    fibers, report = bundle_fibers(enumerate_pairs(g, 1, include_zero=True),
                                   graph_grading(g))
    assert report["ok"]
    assert report["fiber_sizes"]["()"] == 3
    assert sum(len(v) for v in fibers.values()) == 9
    # star must swap opposite fibers
    key_e = (("e", 1),)
    assert len(fibers[key_e]) == len(fibers[(("e", -1),)]) == 1


def test_bundle_fibers_flags_missing_star():
    g = bouquet(["e", "f"])
    elems = enumerate_pairs(g, 1)
    dropped = PathPair(g.path(("e",)), g.empty_path("v"))
    elems = [p for p in elems if p != dropped]
    _, report = bundle_fibers(elems, graph_grading(g))
    assert not report["ok"] and report["star_violations"]
