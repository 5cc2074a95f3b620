import random

import pytest

from invsemi.algebra import AlgebraElement, convolve, involution
from invsemi.errors import (
    CancellationPresent,
    InputError,
    NotPositivePair,
    UnsupportedCoefficient,
)
from invsemi.graphs import (
    ZERO_PAIR,
    DirectedGraph,
    GraphContext,
    PathPair,
    enumerate_pairs,
    grading_phi,
    longest_path,
    multiply_pairs,
    orthogonality_check,
    paths_up_to,
    semisaturation_factorize,
    star_pair,
)
from invsemi.words import free_reduce, word_inv
from util import graph_fiber, rand_qqi_nonzero, rand_square_qqi


def bouquet(loops):
    return DirectedGraph(["v"], [(e, "v", "v") for e in loops])


def two_vertex():
    # x: u -> v, plus a loop e at v
    return DirectedGraph(["u", "v"], [("x", "u", "v"), ("e", "v", "v")])


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_path_building_and_joints():
    g = two_vertex()
    p = g.path(("e", "x"))
    assert p.base == "u" and p.head == "v" and len(p) == 2
    with pytest.raises(InputError):
        g.path(("x", "e"))  # src(x)=u, rng(e)=v: does not compose
    with pytest.raises(InputError):
        g.path(("x", "x"))
    with pytest.raises(InputError):
        g.path(())
    with pytest.raises(InputError):
        g.path(("nope",))
    with pytest.raises(InputError):
        g.empty_path("w")


def test_path_checks_a_given_base():
    g = two_vertex()
    assert g.path(("e", "x"), base="u") == g.path(("e", "x"))
    assert g.path((), base="v") == g.empty_path("v")
    with pytest.raises(InputError):
        g.path(("x",), base="v")  # src(x) = u


def test_graph_validation():
    with pytest.raises(InputError):
        DirectedGraph(["u", "u"], [])
    with pytest.raises(InputError):
        DirectedGraph(["u"], [("a", "u", "u"), ("a", "u", "u")])
    with pytest.raises(InputError):
        DirectedGraph(["u"], [("a", "u", "w")])


def test_paths_up_to_counts_and_order():
    b2 = bouquet(["e", "f"])
    assert [len(p) for p in paths_up_to(b2, 2)] == [0, 1, 1, 2, 2, 2, 2]
    assert len(paths_up_to(b2, 3)) == 15
    assert paths_up_to(b2, 3) == paths_up_to(b2, 3)
    g = two_vertex()
    ps = paths_up_to(g, 2)
    assert len(ps) == 6  # u, v, e, x, ee, ex
    assert {p.edges for p in ps} == {(), ("e",), ("x",), ("e", "e"), ("e", "x")}


def test_enumerate_pairs_counts():
    b2 = bouquet(["e", "f"])
    assert len(enumerate_pairs(b2, 1)) == 9
    assert len(enumerate_pairs(b2, 1, include_zero=True)) == 10
    g = two_vertex()
    # legs grouped by source: {u, x, ex} and {v, e, ee}
    assert len(enumerate_pairs(g, 2)) == 18


def test_longest_path_of_acyclic_graphs():
    assert longest_path(DirectedGraph(["u"], [])) == 0
    chain = DirectedGraph(["a", "b", "c", "d"],
                          [(0, "a", "b"), (1, "b", "c"), (2, "c", "d"), (3, "a", "d")])
    assert longest_path(chain) == 3
    assert max(len(p) for p in paths_up_to(chain, 10)) == 3


def test_longest_path_names_a_cycle():
    with pytest.raises(InputError, match=r"edges \['e'\]"):
        longest_path(two_vertex())
    # the cycle x, y sits past the edge w into it, and z leaves it
    g = DirectedGraph(["s", "u", "v", "t"], [("w", "s", "u"), ("x", "u", "v"),
                                             ("y", "v", "u"), ("z", "v", "t")])
    with pytest.raises(InputError, match=r"edges \['x', 'y'\]"):
        longest_path(g)


def test_pair_validator():
    g = two_vertex()
    with pytest.raises(InputError, match="share their source vertex"):
        PathPair(g.path(("x",)), g.empty_path("v"))
    p = PathPair(g.path(("x",)), g.empty_path("u"))
    assert p.mu.edges == ("x",)
    assert p.nu == g.empty_path("u")


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_three_cases_one_loop():
    g = bouquet(["e"])
    eps, pe, pee = g.empty_path("v"), g.path(("e",)), g.path(("e", "e"))
    x = PathPair(pe, eps)
    # full overlap
    assert multiply_pairs(PathPair(eps, pe), x) == PathPair(eps, eps)
    # left leg sticks out: nu = alpha nu'
    assert multiply_pairs(PathPair(eps, pee), x) == PathPair(eps, pe)
    # right leg sticks out: alpha = nu alpha'
    assert multiply_pairs(x, x) == PathPair(pee, eps)
    assert star_pair(x) == PathPair(eps, pe)
    assert star_pair(ZERO_PAIR) is ZERO_PAIR
    assert multiply_pairs(x, ZERO_PAIR) is ZERO_PAIR


def test_product_orthogonal_edges_vanish():
    g = bouquet(["e", "f"])
    eps = g.empty_path("v")
    ve = PathPair(eps, g.path(("e",)))
    vf = PathPair(g.path(("f",)), eps)
    assert multiply_pairs(ve, vf) is ZERO_PAIR


def test_empty_legs_respect_vertices():
    g = two_vertex()
    iu = PathPair(g.empty_path("u"), g.empty_path("u"))
    iv = PathPair(g.empty_path("v"), g.empty_path("v"))
    x = PathPair(g.path(("x",)), g.empty_path("u"))
    assert multiply_pairs(iu, iv) is ZERO_PAIR
    assert multiply_pairs(iv, iu) is ZERO_PAIR
    # x ends at v and starts at u, so iv absorbs on the left, iu on the right
    assert multiply_pairs(iv, x) == x
    assert multiply_pairs(x, iu) == x
    assert multiply_pairs(iu, x) is ZERO_PAIR
    assert multiply_pairs(x, iv) is ZERO_PAIR


def pair_action(graph, p, window):
    """The pair (mu, nu) as a partial map on paths: nu w -> mu w."""
    k = len(p.nu.edges)
    out = {}
    for xi in window:
        if xi.edges[:k] == p.nu.edges and (k or xi.head == p.nu.base):
            out[xi] = graph.path(p.mu.edges + xi.edges[k:], xi.base)
    return out


def test_product_matches_path_action_model():
    # the semigroup acts on paths; products must compose the partial maps
    for graph, L in ((bouquet(["e", "f"]), 2), (two_vertex(), 2)):
        window = paths_up_to(graph, 3 * L)
        elems = enumerate_pairs(graph, L)
        acts = {p: pair_action(graph, p, window) for p in elems}
        for p in elems:
            for q in elems:
                r = multiply_pairs(p, q)
                composed = {xi: acts[p][mid] for xi, mid in acts[q].items()
                            if mid in acts[p]}
                if r is ZERO_PAIR:
                    assert not composed
                    continue
                assert composed
                # composition is sound ...
                r_act = pair_action(graph, r, window)
                for xi, target in composed.items():
                    assert r_act[xi] == target
                # ... and complete away from the window boundary
                for xi, target in r_act.items():
                    if len(xi) <= L and len(target) <= 2 * L:
                        assert composed.get(xi) == target


def test_inverse_semigroup_axioms_on_truncation():
    for graph, L in ((bouquet(["e", "f"]), 1), (two_vertex(), 2)):
        elems = enumerate_pairs(graph, L, include_zero=True)
        for s in elems:
            assert star_pair(star_pair(s)) == s
            t1 = multiply_pairs(multiply_pairs(s, star_pair(s)), s)
            assert t1 == s
            for t in elems:
                assert star_pair(multiply_pairs(s, t)) == multiply_pairs(
                    star_pair(t), star_pair(s))
                for u in elems:
                    assert multiply_pairs(multiply_pairs(s, t), u) == \
                        multiply_pairs(s, multiply_pairs(t, u))
        idems = [s for s in elems if multiply_pairs(s, s) == s]
        for a in idems:
            for b in idems:
                assert multiply_pairs(a, b) == multiply_pairs(b, a)


# ---------------------------------------------------------------------------
# the free group grading
# ---------------------------------------------------------------------------

def test_grading_phi_values():
    g = two_vertex()
    ex = g.path(("e", "x"))
    assert grading_phi(PathPair(ex, g.empty_path("u"))) == (("e", 1), ("x", 1))
    assert grading_phi(PathPair(ex, g.path(("x",)))) == (("e", 1),)
    assert grading_phi(PathPair(ex, ex)) == ()
    assert grading_phi(ZERO_PAIR) is None


def test_grading_phi_multiplicative_and_star():
    for graph, L in ((bouquet(["e", "f"]), 2), (two_vertex(), 2)):
        elems = enumerate_pairs(graph, L)
        for p in elems:
            assert grading_phi(star_pair(p)) == word_inv(grading_phi(p))
            for q in elems:
                r = multiply_pairs(p, q)
                if r is not ZERO_PAIR:
                    assert grading_phi(r) == free_reduce(
                        grading_phi(p) + grading_phi(q))


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def test_orthogonality_exhaustive():
    b2 = bouquet(["e", "f"])
    report = orthogonality_check(b2, 3)
    assert report["ok"] and report["checked"] == 2 * 7 * 7
    report = orthogonality_check(two_vertex(), 3)
    assert report["ok"] and report["checked"] > 0
    assert orthogonality_check(b2, 0) == {"checked": 0, "violations": [], "ok": True}


# ---------------------------------------------------------------------------
# semi-saturation factorization
# ---------------------------------------------------------------------------

def check_factorization(f, s_word, t_word):
    factors = semisaturation_factorize(f, s_word, t_word)
    total = AlgebraElement(f.context)
    for l, r in factors:
        total = total + convolve(l, r)
    if f.is_exact() and all(l.is_exact() and r.is_exact() for l, r in factors):
        assert total == f
    else:
        assert total.approx_eq(f, tol=1e-10)
    t_inv = word_inv(tuple(t_word))
    for l, r in factors:
        assert {grading_phi(e) for e in l.support()} <= {tuple(s_word)}
        assert {grading_phi(e) for e in r.support()} <= {t_inv}
    return factors


def test_factorize_square_coefficients_exact():
    rng = random.Random(20)
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    s_word, t_word = [("e", 1)], [("f", 1)]
    support = graph_fiber(g, s_word, t_word, 2)
    assert len(support) == 7
    f = AlgebraElement(ctx, [(p, rand_square_qqi(rng)) for p in support])
    factors = check_factorization(f, s_word, t_word)
    assert len(factors) == 3  # tail lengths 0, 1, 2
    assert all(l.is_exact() and r.is_exact() for l, r in factors)


def test_factorize_longer_mid():
    # t carrying inverse letters pushes the middle leg past s
    rng = random.Random(21)
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    s_word, t_word = [("e", 1)], [("f", -1)]
    support = graph_fiber(g, s_word, t_word, 1)
    f = AlgebraElement(ctx, [(p, rand_square_qqi(rng)) for p in support])
    check_factorization(f, s_word, t_word)


def test_factorize_idempotent_fiber_spans_vertices():
    rng = random.Random(22)
    g = two_vertex()
    ctx = GraphContext(g)
    support = graph_fiber(g, [], [], 2)
    assert {p.mu.base for p in support} == {"u", "v"}
    f = AlgebraElement(ctx, [(p, rand_square_qqi(rng)) for p in support])
    check_factorization(f, [], [])


def test_factorize_random_sweep():
    rng = random.Random(23)
    graphs = [bouquet(["e", "f"]), two_vertex()]
    done = 0
    while done < 30:
        g = rng.choice(graphs)
        ctx = GraphContext(g)
        paths = [p for p in paths_up_to(g, 2) if p.edges]
        a = rng.choice(paths)
        b = rng.choice(paths)
        if a.base != b.base or a.edges[-1] == b.edges[-1]:
            continue  # junction would cancel or fiber is empty
        word = [(x, 1) for x in a.edges] + [(x, -1) for x in reversed(b.edges)]
        j = rng.randint(0, len(word))
        s_word, t_word = word[:j], word_inv(word[j:])
        if s_word and t_word and s_word[-1] == t_word[-1]:
            continue
        support = graph_fiber(g, s_word, t_word, 2)
        if not support:
            continue
        chosen = rng.sample(support, rng.randint(1, len(support)))
        f = AlgebraElement(ctx, [(p, rand_square_qqi(rng)) for p in chosen])
        check_factorization(f, s_word, t_word)
        done += 1


def test_factorize_float_coefficients():
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    s_word, t_word = [("e", 1)], [("f", 1)]
    support = graph_fiber(g, s_word, t_word, 1)
    f = AlgebraElement(ctx, [(p, 0.3) for p in support])
    factors = check_factorization(f, s_word, t_word)
    assert not all(l.is_exact() for l, _ in factors)


def test_factorize_rejects_junction_cancellation():
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    f = AlgebraElement(ctx, [(PathPair(g.path(("e",)), g.path(("e",))), 1)])
    with pytest.raises(CancellationPresent):
        semisaturation_factorize(f, [("e", 1)], [("e", 1)])


def test_factorize_rejects_mixed_word():
    # e^-1 f is reduced but not of the form a b^-1
    g = bouquet(["e", "f"])
    f = AlgebraElement(GraphContext(g), [(PathPair(g.path(("e",)), g.path(("f",))), 1)])
    with pytest.raises(NotPositivePair):
        semisaturation_factorize(f, [("e", -1), ("f", 1)], [])


def test_factorize_rejects_unreduced_words():
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    f = AlgebraElement(ctx, [(PathPair(g.path(("e",)), g.path(("f",))), 1)])
    with pytest.raises(InputError):
        semisaturation_factorize(f, [("e", 1), ("f", 1), ("f", -1)], [("f", 1)])


def test_factorize_rejects_off_fiber_support():
    g = bouquet(["e", "f"])
    ctx = GraphContext(g)
    eps = g.empty_path("v")
    f = AlgebraElement(ctx, [(PathPair(g.path(("e",)), g.path(("f",))), 1),
                             (PathPair(eps, eps), 1)])
    with pytest.raises(UnsupportedCoefficient):
        semisaturation_factorize(f, [("e", 1)], [("f", 1)])


def test_factorize_empty_element():
    g = bouquet(["e", "f"])
    assert semisaturation_factorize(AlgebraElement(GraphContext(g)),
                                    [("e", 1)], [("f", 1)]) == []
