"""Property tests for the structure layer against brute-force oracles.

Random partial bijections over at most five points are closed by
`close_generators` and compared with the round-based fixpoint in
`tests/util.py`; the group image is compared with the pairwise definition
of sigma; the homomorphism test over generators is compared with the
pairwise one on moved group images and on self-maps of Z/n; and Light's
associativity test is compared with the O(n^3) scan on tables with one
mutated cell. Examples are derandomized so every run checks the same cases.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from invsemi.core import (FiniteInverseSemigroup, GroupTable, PartialBijection,
                          associativity_witness, close_generators,
                          homomorphism_witness, idempotents, is_e_unitary,
                          max_group_image)
from invsemi.errors import CapExceeded, InputError

from util import raw_closure



@st.composite
def partial_maps(draw, points, permutation=False):
    """A partial injection (or a permutation) of range(points) as a raw dict."""
    image = draw(st.permutations(range(points)))
    keep = [True] * points if permutation else \
        draw(st.lists(st.booleans(), min_size=points, max_size=points))
    return {x: y for x, y, k in zip(range(points), image, keep) if k}


@st.composite
def generator_sets(draw, points=(5, 4, 3, 2, 1), max_gens=3, permutations=False):
    n = draw(st.sampled_from(points))
    return draw(st.lists(partial_maps(n, permutations), min_size=1, max_size=max_gens))


def _closure(gens, cap):
    try:
        return close_generators([PartialBijection(g) for g in gens], cap=cap)
    except CapExceeded:
        assume(False)


def _key(m):
    return tuple(sorted(m.items()))


# -- closure -------------------------------------------------------------------

@settings(max_examples=40)
@given(generator_sets())
def test_closure_matches_round_fixpoint(gens):
    S = _closure(gens, cap=100)
    assert [p._key for p in S.witnesses] == [_key(d) for d in raw_closure(gens)]
    index = {p: i for i, p in enumerate(S.witnesses)}
    for a, pa in enumerate(S.witnesses):
        assert [index[pa.compose(pb)] for pb in S.witnesses] == S.table[a].tolist()
        assert S.witnesses[S.star(a)] == pa.inverse()
    zero = index.get(PartialBijection({}))
    assert S.zero_index == zero


@settings(max_examples=40)
@given(generator_sets())
def test_star_derived_from_the_table_matches_inverses(gens):
    S = _closure(gens, cap=100)
    derived = FiniteInverseSemigroup(S.table, zero=S.zero_index)
    assert derived.star_table.tolist() == S.star_table.tolist()


# -- group image -----------------------------------------------------------------

@settings(max_examples=40)
@given(generator_sets())
def test_group_image_matches_pairwise_sigma(gens):
    S = _closure(gens, cap=100)
    G, sigma = max_group_image(S)
    E = idempotents(S)
    t = S.table
    for s in S.elements():
        for u in S.elements():
            related = any(t[e][s] == t[e][u] for e in E)
            assert (sigma[s] == sigma[u]) == related
            assert sigma[t[s][u]] == G.mul(sigma[s], sigma[u])
    # classes are numbered by least member
    assert [sigma.index(c) for c in range(G.n)] == sorted({sigma.index(c) for c in sigma})
    kernel = {s for s in S.elements() if sigma[s] == G.identity}
    assert is_e_unitary(S) == (kernel == set(E))


# -- homomorphism test ------------------------------------------------------------

def _pairwise_witness(t, m, G):
    """Every pair (s, u) with m(s u) != m(s) m(u): the n^2 definition."""
    n = len(t)
    return [(s, u) for s in range(n) for u in range(n)
            if m[t[s][u]] != G.mul(m[s], m[u])]


def _assert_agrees_with_pairwise(t, m, G):
    bad = homomorphism_witness(t, m.__getitem__, G)
    assert (bad is None) == (not _pairwise_witness(t, m, G))
    if bad is not None:
        s, g = bad
        assert m[t[s][g]] != G.mul(m[s], m[g])


@st.composite
def clifford_sets(draw):
    """Permutations of up to four points, with or without a partial identity:
    closures whose maximum group image is mostly nontrivial."""
    gens = draw(generator_sets(points=(4, 3, 2), max_gens=2, permutations=True))
    if draw(st.booleans()):
        n = len(gens[0])
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        gens.append({x: x for x, k in zip(range(n), keep) if k})
    return gens


@settings(max_examples=40)
@given(generator_sets())
def test_group_image_passes_the_homomorphism_test(gens):
    S = _closure(gens, cap=100)
    G, sigma = max_group_image(S)
    assert homomorphism_witness(S.table, sigma.__getitem__, G) is None


@settings(max_examples=40)
@given(clifford_sets(), st.data())
def test_homomorphism_test_matches_pairwise_on_moved_images(gens, data):
    S = _closure(gens, cap=100)
    G, sigma = max_group_image(S)
    assume(G.n > 1)
    s = data.draw(st.integers(0, S.n - 1))
    moved = sigma[:]
    moved[s] = (sigma[s] + data.draw(st.integers(1, G.n - 1))) % G.n
    _assert_agrees_with_pairwise(S.table, sigma, G)
    _assert_agrees_with_pairwise(S.table, moved, G)


@settings(max_examples=40)
@given(st.integers(1, 8), st.data())
def test_homomorphism_test_matches_pairwise_on_cyclic_self_maps(n, data):
    G = GroupTable([[(i + j) % n for j in range(n)] for i in range(n)])
    # x -> kx is an endomorphism; then none, some or all entries are redrawn
    k = data.draw(st.integers(0, n - 1))
    theta = [k * x % n for x in range(n)]
    for x in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
        theta[x] = data.draw(st.integers(0, n - 1))
    _assert_agrees_with_pairwise(G.table, theta, G)


# -- associativity ----------------------------------------------------------------

def _bad_triple(t):
    n = len(t)
    return any(t[t[a][b]][c] != t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def _is_inverse_semigroup(t, star, zero):
    """Every axiom validate checks, each by its definition (O(n^3))."""
    n = len(t)
    if _bad_triple(t):
        return False
    for s in range(n):
        inverses = [x for x in range(n) if t[t[s][x]][s] == s and t[t[x][s]][x] == x]
        if inverses != [star[s]]:
            return False
    idem = [e for e in range(n) if t[e][e] == e]
    if any(t[e][f] != t[f][e] for e in idem for f in idem):
        return False
    if zero is not None:
        if any(t[zero][s] != zero or t[s][zero] != zero for s in range(n)):
            return False
        if star[zero] != zero:
            return False
    return True


@st.composite
def mutated_tables(draw, permutations=False):
    """A closure of at most 12 elements with one cell changed to another index."""
    gens = draw(generator_sets(points=(4, 3, 2), max_gens=2, permutations=permutations))
    S = _closure(gens, cap=12)
    n = S.n
    assume(n > 1)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    table = S.table.tolist()
    table[i][j] = (table[i][j] + draw(st.integers(1, n - 1))) % n
    return S, table


def _assert_witness_sound(table):
    bad = associativity_witness(table)
    assert (bad is None) == (not _bad_triple(table))
    if bad is not None:
        x, g, y = bad
        assert table[table[x][g]][y] != table[x][table[g][y]]


@pytest.mark.parametrize("gens", [
    [{1: 2}],                                   # five-element Brandt monoid
    [{0: 0}, {1: 1}, {2: 2}],                   # a semilattice of four idempotents
    [{0: 1, 1: 0}, {0: 0}],                     # Z/2 over a rank-1 idempotent
    [{0: 1, 1: 2, 2: 0}, {0: 1, 1: 0, 2: 2}],   # S_3
])
def test_light_test_on_every_single_cell_mutation(gens):
    S = close_generators([PartialBijection(g) for g in gens])
    for i in range(S.n):
        for j in range(S.n):
            for v in range(S.n):
                table = S.table.tolist()
                table[i][j] = v
                _assert_witness_sound(table)


@settings(max_examples=40)
@given(mutated_tables())
def test_semigroup_validation_matches_brute_force(case):
    S, table = case
    S.validate()                        # the closure itself is accepted
    _assert_witness_sound(table)
    valid = _is_inverse_semigroup(table, S.star_table, S.zero_index)
    if valid:
        FiniteInverseSemigroup(table, S.star_table, zero=S.zero_index)
    else:
        with pytest.raises(InputError):
            FiniteInverseSemigroup(table, S.star_table, zero=S.zero_index)


def _is_group(t):
    n = len(t)
    ident = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    return (not _bad_triple(t) and len(ident) == 1
            and all(any(t[x][y] == ident[0] == t[y][x] for y in range(n))
                    for x in range(n)))


@settings(max_examples=40)
@given(mutated_tables(permutations=True))
def test_group_validation_matches_brute_force(case):
    S, table = case
    GroupTable(S.table)                 # a closure of permutations is a group
    _assert_witness_sound(table)
    if _is_group(table):
        GroupTable(table)
    else:
        with pytest.raises(InputError):
            GroupTable(table)
