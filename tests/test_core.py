"""Structure layer: closures, tables, order, group image, omega cosets."""

from __future__ import annotations

import random

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
from invsemi.jsonio import list_fixtures, load_fixture

from util import pairwise_omega_coset_diagnostic, raw_closure, scanned_upward_closure


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
    assert diag["overlap"] == (0, 1, [0])


def _cycle(points):
    return {p: points[(i + 1) % len(points)] for i, p in enumerate(points)}


def _swap(points):
    return {p: points[1] if p == points[0] else points[0] if p == points[1] else p
            for p in points}


def _copies(perm, blocks):
    """`perm` acting in parallel on `blocks` disjoint copies of its points."""
    size = len(perm)
    return {p + size * b: perm[p] + size * b for b in range(blocks) for p in perm}


def _close(*maps):
    return close_generators([PartialBijection(m) for m in maps])


def s4_clifford_triple():
    """S_4 on three nested copies of four points: 72 elements, 3 idempotents."""
    p = list(range(4))
    return _close(_copies(_swap(p), 3), _copies(_cycle(p), 3),
                  {x: x for x in range(8)}, {x: x for x in p})


def s5_clifford_double():
    """S_5 on two copies of five points and on the first: 240 elements."""
    p = list(range(5))
    return _close(_copies(_swap(p), 2), _copies(_cycle(p), 2), {x: x for x in p})


def symmetric_inverse_monoid_3():
    """I_3: 34 partial bijections of three points."""
    return _close(_swap([0, 1, 2]), _cycle([0, 1, 2]), {0: 0, 1: 1})


def _inverse_closure(S, gens):
    """The inverse subsemigroup of S generated by `gens`."""
    H = set(gens) | {S.star(g) for g in gens}
    while True:
        more = {S.product(a, b) for a in H for b in H} - H
        if not more:
            return frozenset(H)
        H |= more


def _subsemigroups(S, rng=None, count=None):
    """Kernel, E(S), S, the empty set (the one H whose cosets do not cover
    S), and <X> and up(<X>) for each X = {x} (or for `count` random X of one
    or two elements); <X> need not be upward closed."""
    E = idempotents(S)
    G, sigma = S.group_image
    out = [frozenset(s for s in S.elements() if sigma[s] == G.identity),
           frozenset(E), frozenset(S.elements()), frozenset()]
    seeds = ([(x,) for x in S.elements()] if rng is None else
             [rng.sample(range(S.n), min(rng.choice([1, 2]), S.n)) for _ in range(count)])
    for gens in seeds:
        H = _inverse_closure(S, gens)
        out += [H, scanned_upward_closure(H, S, E)]
    return out


def _outcome(diagnostic, H, S):
    try:
        return diagnostic(H, S)
    except (InputError, NotUpwardClosed) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


def _random_semigroup(rng):
    points = rng.choice([3, 4])
    maps = []
    for _ in range(rng.choice([1, 2])):
        image = rng.sample(range(points), points)
        maps.append({x: image[x] for x in range(points) if rng.random() < 0.8})
    return _close(*maps)


_OMEGA_CASES = {"clifford_chain_z2": lambda: clifford_chain_z2()[0],
                "chain_semilattice": chain_semilattice,
                "s4_clifford_triple": s4_clifford_triple,
                "i3": symmetric_inverse_monoid_3}
_SEMIGROUP_FIXTURES = [f for f in list_fixtures() if load_fixture(f).kind == "semigroup"]


@pytest.mark.parametrize("name", [*_SEMIGROUP_FIXTURES, *_OMEGA_CASES])
def test_omega_cosets_match_pairwise_oracle(name):
    S = _OMEGA_CASES[name]() if name in _OMEGA_CASES else load_fixture(name).structure
    for H in _subsemigroups(S):
        assert _outcome(omega_coset_diagnostic, H, S) == \
            _outcome(pairwise_omega_coset_diagnostic, H, S)


def test_omega_cosets_match_pairwise_oracle_on_random_semigroups():
    rng = random.Random(29)
    overlaps = partitions = 0
    for _ in range(40):
        S = _random_semigroup(rng)
        for H in _subsemigroups(S, rng, count=8):
            got = _outcome(omega_coset_diagnostic, H, S)
            assert got == _outcome(pairwise_omega_coset_diagnostic, H, S)
            if isinstance(got, dict):
                overlaps += got["overlap"] is not None
                partitions += got["is_partition"]
    # both verdicts occur, so the overlap triple is compared element for element
    assert overlaps >= 20 and partitions >= 20


class _CountingRow(list):
    """A table row that adds the cells read from it to `reads[0]`."""

    def __init__(self, row, reads):
        super().__init__(row)
        self.reads = reads

    def __getitem__(self, i):
        self.reads[0] += 1
        return super().__getitem__(i)

    def __iter__(self):
        self.reads[0] += len(self)
        return super().__iter__()


def test_omega_cosets_read_each_cell_a_bounded_number_of_times():
    S = s5_clifford_double()
    G, sigma = S.group_image
    H = {s for s in S.elements() if sigma[s] == G.identity}
    E = idempotents(S)
    assert (S.n, len(E), len(H), G.n) == (240, 2, 2, 120)
    reads = [0]
    S.table = [_CountingRow(row, reads) for row in S.table]
    assert omega_coset_diagnostic(H, S)["is_partition"]
    # a scanned closure per element reads |S|^2 |E| = 115200 cells
    assert reads[0] < 4 * S.n * (len(E) + len(H))


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
