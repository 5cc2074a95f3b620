"""Structure layer: closures, tables, order, group image, omega cosets."""

from __future__ import annotations

import pytest

from invsemi.core import (
    EMPTY_PB,
    FiniteInverseSemigroup,
    GroupTable,
    Homomorphism,
    IXContext,
    PartialBijection,
    close_generators,
    idempotents,
    is_e_unitary,
    kernel_of,
    materialize_context,
    max_group_image,
    natural_leq,
    omega_coset_diagnostic,
    omega_coset_partition,
    upward_closure,
)
from invsemi.errors import CapExceeded, InputError, NotUpwardClosed

from util import raw_closure


# -- fixtures ----------------------------------------------------------------

def five_element():
    """Closure of the single partial shift 1 -> 2 on {1, 2}."""
    return close_generators([PartialBijection({1: 2})])


def chain_semilattice():
    """Two-element chain e > f: table over indices (0 = e, 1 = f)."""
    return FiniteInverseSemigroup([[0, 1], [1, 1]], [0, 1])


def clifford_chain_z2():
    """Chain of two copies of Z/2: elements (i, g), product (min(i,j), gh)."""
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {e: k for k, e in enumerate(elems)}
    table = [[idx[(min(a[0], b[0]), (a[1] + b[1]) % 2)] for b in elems] for a in elems]
    star = [idx[(a[0], (-a[1]) % 2)] for a in elems]
    labels = [f"({i},{g})" for i, g in elems]
    return FiniteInverseSemigroup(table, star, labels=labels), elems, idx


# -- closure oracle ------------------------------------------------------------

def test_five_element_closure_matches_brute_force():
    oracle = raw_closure([{1: 2}])
    assert len(oracle) == 5
    S = five_element()
    assert S.n == 5
    got = {tuple(sorted(p.map.items())) for p in S.witnesses}
    want = {tuple(sorted(d.items())) for d in oracle}
    assert got == want
    # frozen expected carrier of the closure
    assert want == {((1, 2),), ((2, 1),), ((1, 1),), ((2, 2),), ()}


def test_five_element_zero_and_idempotents():
    S = five_element()
    assert S.zero_index is not None
    assert S.witnesses[S.zero_index] == EMPTY_PB
    E = idempotents(S)
    assert len(E) == 3
    idem_maps = {tuple(sorted(S.witnesses[e].map.items())) for e in E}
    assert idem_maps == {((1, 1),), ((2, 2),), ()}


def test_closure_table_agrees_with_composition():
    S = five_element()
    ctx = IXContext({1, 2})
    for i in range(S.n):
        for j in range(S.n):
            composed = ctx.product(S.witnesses[i], S.witnesses[j])
            assert S.witnesses[S.product(i, j)] == composed
        assert S.witnesses[S.star(i)] == S.witnesses[i].inverse()


def test_closure_is_deterministic():
    a = close_generators([PartialBijection({1: 2})])
    b = close_generators([PartialBijection({1: 2})])
    assert a.witnesses == b.witnesses
    assert a.table == b.table
    assert a.labels == b.labels


def test_closure_cap():
    with pytest.raises(CapExceeded):
        close_generators([PartialBijection({1: 2})], cap=3)


def test_materialize_matches_closure():
    S = five_element()
    ctx = IXContext({1, 2})
    M = materialize_context(ctx, S.witnesses)
    assert M.table == S.table
    assert M.star_table == S.star_table
    assert M.zero_index == S.zero_index


def test_materialize_rejects_non_closed():
    ctx = IXContext({1, 2})
    with pytest.raises(InputError):
        materialize_context(ctx, [PartialBijection({1: 2})])


# -- partial bijections --------------------------------------------------------

def test_partial_bijection_rejects_non_injective():
    with pytest.raises(InputError):
        PartialBijection({1: 3, 2: 3})


def test_compose_applies_right_factor_first():
    f = PartialBijection({2: 3})
    g = PartialBijection({1: 2})
    assert f.compose(g) == PartialBijection({1: 3})
    assert g.compose(f) == PartialBijection({})


# -- table validation ----------------------------------------------------------

def test_validation_rejects_broken_associativity():
    S = five_element()
    table = [row[:] for row in S.table]
    i = S.zero_index
    j = (i + 1) % S.n
    table[i][i] = j
    with pytest.raises(InputError):
        FiniteInverseSemigroup(table, S.star_table, zero=S.zero_index)


def test_validation_rejects_noncommuting_idempotents():
    # left-zero band: xy = x, both idempotent, idempotents do not commute
    with pytest.raises(InputError):
        FiniteInverseSemigroup([[0, 0], [1, 1]], [0, 1])


def test_star_derivation():
    S = five_element()
    derived = FiniteInverseSemigroup(S.table, zero=S.zero_index)
    assert derived.star_table == S.star_table


# -- natural partial order ------------------------------------------------------

def test_natural_order_on_chain():
    S = chain_semilattice()
    assert natural_leq(1, 0, S)
    assert not natural_leq(0, 1, S)
    assert natural_leq(0, 0, S) and natural_leq(1, 1, S)


def test_natural_order_zero_is_bottom():
    S = five_element()
    z = S.zero_index
    for t in S.elements():
        assert natural_leq(z, t, S)


def test_natural_order_is_a_partial_order():
    S = five_element()
    for s in S.elements():
        assert natural_leq(s, s, S)
        for t in S.elements():
            if natural_leq(s, t, S) and natural_leq(t, s, S):
                assert s == t
            for u in S.elements():
                if natural_leq(s, t, S) and natural_leq(t, u, S):
                    assert natural_leq(s, u, S)


def test_natural_order_compatible_with_product_and_star():
    S = five_element()
    for s in S.elements():
        for t in S.elements():
            if not natural_leq(s, t, S):
                continue
            assert natural_leq(S.star(s), S.star(t), S)
            for u in S.elements():
                assert natural_leq(S.product(s, u), S.product(t, u), S)
                assert natural_leq(S.product(u, s), S.product(u, t), S)


# -- domains -------------------------------------------------------------------

def test_domain_members_five_element():
    # the domain of t: the b with t*t b = b, where the left action of t is defined
    S = five_element()
    w = {tuple(sorted(p.map.items())): i for i, p in enumerate(S.witnesses)}
    t = w[((1, 2),)]
    expect = {w[((2, 1),)], w[((1, 1),)]}
    elems = S.nonzero_elements()
    assert {b for b, x in zip(elems, S.left_action(elems)(t)) if x != -2} == expect


# -- maximum group image ---------------------------------------------------------

def test_group_image_trivial_with_zero():
    S = five_element()
    G, sigma = max_group_image(S)
    assert G.n == 1
    assert set(sigma) == {G.identity}


def test_group_image_of_group_is_itself():
    z2 = FiniteInverseSemigroup([[0, 1], [1, 0]], [0, 1])
    G, sigma = max_group_image(z2)
    assert G.n == 2
    assert sigma[0] != sigma[1]


def test_group_image_of_semilattice_is_trivial():
    S = chain_semilattice()
    G, sigma = max_group_image(S)
    assert G.n == 1


def test_group_image_clifford():
    S, elems, idx = clifford_chain_z2()
    G, sigma = max_group_image(S)
    assert G.n == 2
    # classes follow the group coordinate
    for e, i in idx.items():
        for f, j in idx.items():
            assert (sigma[i] == sigma[j]) == (e[1] == f[1])
    # sigma is multiplicative
    for i in S.elements():
        for j in S.elements():
            assert sigma[S.product(i, j)] == G.mul(sigma[i], sigma[j])
    # and star goes to inverse
    for i in S.elements():
        assert sigma[S.star(i)] == G.inv(sigma[i])


def test_e_unitary_verdicts():
    S, _, _ = clifford_chain_z2()
    assert is_e_unitary(S)
    assert is_e_unitary(chain_semilattice())                  # trivial image, S = E
    assert not is_e_unitary(five_element())                   # zero collapses the image


# -- omega cosets ----------------------------------------------------------------

def test_upward_closure_chain_example():
    S = chain_semilattice()
    assert upward_closure({1}, S) == frozenset({0, 1})
    assert upward_closure({1}, S) != frozenset({1})
    assert upward_closure({0}, S) == frozenset({0})


def test_omega_coset_rejects_not_upward_closed():
    S = chain_semilattice()
    with pytest.raises(NotUpwardClosed):
        omega_coset_diagnostic({1}, S)


def test_omega_coset_chain_overlap_diagnostic():
    S = chain_semilattice()
    # H = {e}: up(fH) = {e, f} while up(eH) = {e}, so no partition
    diag = omega_coset_diagnostic({0}, S)
    assert diag["cosets"] == [[0], [0, 1]]
    assert not diag["is_partition"]
    assert diag["overlap"] is not None


def test_omega_coset_partition_for_kernel():
    S, elems, idx = clifford_chain_z2()
    G, sigma = max_group_image(S)
    phi = Homomorphism(S, G, sigma)
    assert kernel_of(phi) == frozenset(i for i in S.elements()
                                       if sigma[i] == G.identity)
    cosets = omega_coset_partition(phi)
    fibers = {frozenset(i for i in S.elements() if sigma[i] == g)
              for g in range(G.n)}
    assert set(cosets) == fibers


def test_homomorphism_rejects_zero_source():
    S = five_element()
    G = GroupTable([[0]])
    with pytest.raises(InputError):
        Homomorphism(S, G, [0] * S.n)


def test_homomorphism_rejects_non_multiplicative():
    S, _, _ = clifford_chain_z2()
    G = GroupTable([[0, 1], [1, 0]])
    bad = [0] * S.n
    bad[1] = 1
    with pytest.raises(InputError):
        Homomorphism(S, G, bad)
