import random
from itertools import combinations

import pytest

from invsemi.algebra import AlgebraElement, check_grading, epsilon_star_square
from invsemi.core import GroupTable, close_generators
from invsemi.errors import InputError
from invsemi.families import (
    EMPTY_SHIFT,
    BRContext,
    Shift,
    ShiftBundle,
    TQContext,
    br_coset_rep,
    br_grading,
    br_omega_coset_check,
    br_phi,
    br_window,
    br_z2_contexts,
    example62,
    ql_lub,
    quasi_lattice_check,
    tq_apply,
    tq_generators,
    tq_oracle_check,
    tq_phi,
)
from util import as_pb, identity_pb, interval_shifts, rand_qqi, recursive_tq_window


# ---------------------------------------------------------------------------
# Bruck-Reilly
# ---------------------------------------------------------------------------

def br_action(ctx, p, K):
    """(m,a,n) as a partial map on N x G: (k,g) -> (k-n+m, theta^(k-n)(a) g)."""
    m, a, n = p
    out = {}
    for k in range(n, K + 1):
        for g in range(ctx.group.n):
            out[(k, g)] = (k - n + m, ctx.group.mul(ctx.theta_pow(k - n, a), g))
    return out


def test_br_rejects_bad_theta():
    z2 = GroupTable([[0, 1], [1, 0]])
    with pytest.raises(InputError):
        BRContext(z2, [1, 0])  # does not fix the identity
    with pytest.raises(InputError):
        BRContext(z2, [0, 2])
    z4 = GroupTable([[(i + j) % 4 for j in range(4)] for i in range(4)])
    with pytest.raises(InputError):
        BRContext(z4, [0, 2, 1, 3])  # not multiplicative
    BRContext(z4, [0, 3, 2, 1])  # inversion is one


def test_br_product_frozen():
    ctx, _ = br_z2_contexts()
    # t = max(2, 1) = 2: (3,g,2)(1,g,4) = (3, g*theta(g), 5) = (3, 1, 5)
    assert ctx.product((3, 1, 2), (1, 1, 4)) == (3, 0, 5)
    assert ctx.product((0, 0, 0), (5, 1, 3)) == (5, 1, 3)
    assert ctx.star((3, 1, 2)) == (2, 1, 3)
    # raising (0,g,1) to level 2 twists its group part: the trivial
    # endomorphism kills it, the identity endomorphism keeps it
    _, collapsed = br_z2_contexts()
    assert collapsed.product((0, 1, 1), (2, 1, 0)) == (1, 1, 0)
    assert ctx.product((0, 1, 1), (2, 1, 0)) == (1, 0, 0)


def _theta_naive(ctx, k, a):
    for _ in range(k):
        a = ctx.theta[a]
    return a


def test_br_theta_powers_reduce_into_their_cycle():
    # x -> 2x on Z/12 sends 1 to 2, 4, 8, 4, 8, ...: two steps, then period 2
    z12 = GroupTable([[(i + j) % 12 for j in range(12)] for i in range(12)])
    ctx = BRContext(z12, [2 * x % 12 for x in range(12)])
    for a in range(12):
        assert [ctx.theta_pow(k, a) for k in range(40)] == [
            _theta_naive(ctx, k, a) for k in range(40)]
        for k in (2 ** 70, 2 ** 70 + 1):
            assert ctx.theta_pow(k, a) == _theta_naive(ctx, 2 + k % 2, a)


def test_br_product_twists_one_side_only():
    """With t = max(n, i) one exponent of the two-power formula is 0, so the
    product applies theta^|n - i| to one side and must agree with
    (m - n + t, theta^(t-n)(a) theta^(t-i)(b), j - i + t)."""
    z12 = GroupTable([[(i + j) % 12 for j in range(12)] for i in range(12)])
    for ctx in (*br_z2_contexts(), BRContext(z12, [2 * x % 12 for x in range(12)])):
        window = br_window(ctx, 3)
        for m, a, n in window:
            for i, b, j in window:
                t = max(n, i)
                want = (m - n + t, ctx.group.mul(_theta_naive(ctx, t - n, a),
                                                 _theta_naive(ctx, t - i, b)), j - i + t)
                assert ctx.product((m, a, n), (i, b, j)) == want


def test_br_products_and_stars_at_index_two_to_the_seventy():
    K = 2 ** 70
    for ctx in br_z2_contexts():
        # both Z/2 thetas are constant from the first power on
        far = _theta_naive(ctx, 2, 1)
        assert ctx.product((0, 0, K), (0, 1, 0)) == (0, far, K)
        assert ctx.product((3, 1, K), (1, 1, 0)) == (3, ctx.group.mul(1, far), K - 1)
        assert ctx.product((K, 1, 0), (0, 1, K)) == (K, 0, K)
        assert ctx.product((0, 1, K), (K, 1, 0)) == (0, 0, 0)
        assert ctx.star((K, 1, 3)) == (3, 1, K)


def test_br_product_matches_action_model():
    K = 8
    for ctx in br_z2_contexts():
        elems = br_window(ctx, 2)
        acts = {p: br_action(ctx, p, K + 4) for p in elems}
        for p in elems:
            for q in elems:
                r = ctx.product(p, q)
                composed = {x: acts[p][mid] for x, mid in acts[q].items()
                            if mid in acts[p]}
                direct = {x: y for x, y in br_action(ctx, r, K + 4).items()
                          if x[0] <= K}
                assert {x: y for x, y in composed.items() if x[0] <= K} == direct


def test_br_inverse_semigroup_axioms():
    for ctx in br_z2_contexts():
        elems = br_window(ctx, 2)
        for s in elems:
            assert ctx.star(ctx.star(s)) == s
            assert ctx.product(ctx.product(s, ctx.star(s)), s) == s
            for t in elems:
                assert ctx.star(ctx.product(s, t)) == ctx.product(
                    ctx.star(t), ctx.star(s))
                for u in elems:
                    assert ctx.product(ctx.product(s, t), u) == \
                        ctx.product(s, ctx.product(t, u))
        idems = [s for s in elems if ctx.product(s, s) == s]
        assert idems == [(m, ctx.group.identity, m) for m in range(3)]
        for a, b in combinations(idems, 2):
            assert ctx.product(a, b) == ctx.product(b, a)


def test_br_grading_multiplicative():
    for ctx in br_z2_contexts():
        report = check_grading(br_grading(ctx), br_window(ctx, 2))
        assert report["ok"]
        # kernel holds every (m, a, m), not only idempotents
        assert report["kernel_size"] == 6
        assert not report["idempotent_pure"]


def test_br_coset_reps():
    ctx, _ = br_z2_contexts()
    for k in range(-3, 4):
        rep = br_coset_rep(ctx, k)
        assert br_phi(rep) == k
        assert rep[1] == ctx.group.identity


def test_br_omega_cosets_partition_window():
    for ctx in br_z2_contexts():
        report = br_omega_coset_check(ctx, 3)
        assert report["ok"], report["failures"]
        assert report["degrees"] == list(range(-3, 4))


def test_br_epsilon_star_square():
    rng = random.Random(31)
    ctx, _ = br_z2_contexts()
    grading = br_grading(ctx)
    pool = br_window(ctx, 2)
    for _ in range(10):
        f = AlgebraElement(ctx, [(rng.choice(pool), rand_qqi(rng))
                                 for _ in range(4)])
        got = epsilon_star_square(f, grading)
        assert all(br_phi(e) == 0 for e in got.support())


# ---------------------------------------------------------------------------
# the truncated shift bundle
# ---------------------------------------------------------------------------

def test_bundle_parts():
    bun = example62(3)
    assert isinstance(bun, ShiftBundle)
    assert as_pb(bun.a).map == {k: k + 1 for k in range(-3, 4)}
    assert as_pb(bun.e).map == {k: k for k in range(0, 4)}
    assert as_pb(bun.b).map == {k: k + 1 for k in range(0, 4)}
    ctx = bun
    # b* b = e exactly, b b* is the identity one step up
    assert ctx.product(ctx.star(bun.b), bun.b) == bun.e
    assert as_pb(ctx.product(bun.b, ctx.star(bun.b))) == identity_pb(range(1, 5))
    # e a* = b*
    assert ctx.product(bun.e, ctx.star(bun.a)) == ctx.star(bun.b)
    with pytest.raises(InputError):
        example62(0)


def test_shift_prints_its_interval():
    # the repr is O(1): it lists no point of the interval
    assert repr(Shift(2 ** 70, -2 ** 70, 2 ** 70)) == f"Shift({2 ** 70}, {-2 ** 70}, {2 ** 70})"
    assert repr(EMPTY_SHIFT) == "Shift(0, 1, 0)"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shift_product_and_star_match_partial_bijections(n):
    # every interval shift on the bundle's window [-n, n+1], and the zero
    bun = example62(n)
    shifts = interval_shifts(-n, n + 1) + [bun.zero]
    pbs = {s: as_pb(s) for s in shifts}
    for s in shifts:
        assert pbs[bun.star(s)] == pbs[s].inverse()
        for t in shifts:
            st, want = bun.product(s, t), pbs[s].compose(pbs[t])
            assert as_pb(st) == want
            # the empty product is the one canonical zero
            assert bun.is_zero(st) == (not want.map)


def test_bundle_epsilon_exact():
    for n in range(1, 7):
        bun = example62(n)
        got = bun.epsilon_xx_star()
        want = AlgebraElement(bun, [
            (bun.e, 1), (bun.b, -1), (bun.star(bun.b), -1)])
        assert got == want and got.is_exact()


def test_bundle_epsilon_is_scale_free():
    # no point list is built, so a window of 10^12 costs what a window of 5 does
    N = 10 ** 12
    bun = example62(N)
    want = AlgebraElement(bun, [(Shift(0, 0, N), 1), (Shift(1, 0, N), -1),
                                (Shift(-1, 1, N + 1), -1)])
    assert bun.epsilon_xx_star() == want


def test_bundle_xx_star_terms():
    bun = example62(4)
    ctx = bun
    xxs = bun.xx_star()
    aa_star = ctx.product(bun.a, ctx.star(bun.a))
    assert as_pb(aa_star) == identity_pb(range(-3, 6))
    expected = AlgebraElement(ctx, [(bun.e, 1), (bun.b, -1),
                                    (ctx.star(bun.b), -1), (aa_star, 1)])
    assert xxs == expected
    assert not bun.h_member(aa_star)


def enumerate_h(n):
    """All constant shifts with domain and range in [0, n+1], minus the full
    identity, plus the empty map."""
    out = {EMPTY_SHIFT}
    top = n + 1
    for d in range(-top, top + 1):
        lo, hi = max(0, -d), top - max(0, d)
        for p in range(lo, hi + 1):
            for q in range(p, hi + 1):
                if d == 0 and p == 0 and q == top:
                    continue
                out.add(Shift(d, p, q))
    return out


def test_h_predicate_matches_brute_closure():
    for n in (2, 3):
        bun = example62(n)
        S = close_generators([as_pb(bun.b)])
        closure = {S.witnesses[i] for i in range(S.n)}
        assert closure == {as_pb(s) for s in enumerate_h(n)}
        # every shift on the whole window is a member exactly when it is
        # in the closure
        for s in interval_shifts(-n, n + 1) + [bun.zero]:
            assert bun.h_member(s) == (as_pb(s) in closure)
        full = identity_pb(range(0, n + 2))
        assert not bun.h_member(Shift(0, 0, n + 1))
        assert full not in closure


def test_h_predicate_rejects_non_shifts():
    # a gap or an uneven map is no Shift at all: decoding one exits 2 (see
    # test_cli); what is left is a shift off the b-generated part
    bun = example62(2)
    assert not bun.h_member(Shift(1, -1, -1))       # negative domain
    assert bun.h_member(bun.zero)
    assert bun.h_member(bun.b)
    assert bun.h_member(bun.e)


def test_bundle_grading_and_fiber_squares():
    bun = example62(3)
    sq = epsilon_star_square(bun.x, bun.grading())
    ctx = bun
    a_star_a = ctx.product(ctx.star(bun.a), bun.a)
    expected = AlgebraElement(ctx, [(bun.e, 1), (a_star_a, 1)])
    assert sq == expected
    with pytest.raises(InputError):
        bun.shift_degree(bun.zero)


# ---------------------------------------------------------------------------
# Toeplitz quasi-lattice semigroups
# ---------------------------------------------------------------------------

def tq_box_elements(ctx, bound):
    pts = [()]
    for _ in range(ctx.n):
        pts = [p + (k,) for p in pts for k in range(bound + 1)]
    return [(s, t) for s in pts for t in pts]


def test_tq_product_frozen():
    ctx = TQContext(2)
    # w = lub((1,0),(0,2)) = (1,2)
    assert ctx.product(((2, 1), (1, 0)), ((0, 2), (3, 0))) == ((2, 3), (4, 0))
    assert ctx.star(((2, 1), (1, 0))) == ((1, 0), (2, 1))
    assert ctx.product(ctx.identity(), ((0, 2), (3, 0))) == ((0, 2), (3, 0))
    with pytest.raises(InputError):
        ctx.element((1,), (0, 0))
    with pytest.raises(InputError):
        ctx.element((1, -1), (0, 0))


def test_tq_inverse_semigroup_axioms():
    ctx = TQContext(2)
    elems = tq_box_elements(ctx, 1)
    assert len(elems) == 16
    for s in elems:
        assert ctx.star(ctx.star(s)) == s
        assert ctx.product(ctx.product(s, ctx.star(s)), s) == s
        for t in elems:
            assert ctx.star(ctx.product(s, t)) == ctx.product(
                ctx.star(t), ctx.star(s))
            for u in elems:
                assert ctx.product(ctx.product(s, t), u) == \
                    ctx.product(s, ctx.product(t, u))
    idems = [s for s in elems if ctx.product(s, s) == s]
    assert all(s == t for s, t in idems)
    for a in idems:
        for b in idems:
            assert ctx.product(a, b) == ctx.product(b, a)


def test_tq_grading_multiplicative():
    for n in (1, 2):
        ctx = TQContext(n)
        report = check_grading(ctx.grading(), tq_box_elements(ctx, 1))
        assert report["ok"]
        # the kernel of s - t is the diagonal, which is exactly the idempotents
        assert report["idempotent_pure"]


def test_tq_generator_degrees():
    ctx = TQContext(3)
    gens = tq_generators(ctx)
    assert [tq_phi(g) for g in gens] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert [tq_phi(ctx.star(g)) for g in gens] == [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]


def test_tq_window_matches_the_recursive_form():
    for n in (1, 2, 3, 4):
        for L in range(6):
            assert TQContext(n).window(0, L) == recursive_tq_window(n, L)


def test_tq_apply():
    ctx = TQContext(2)
    g = ((1, 0), (0, 0))
    assert tq_apply(g, (2, 2)) == (3, 2)
    assert tq_apply(ctx.star(g), (0, 2)) is None
    assert tq_apply(ctx.star(g), (1, 2)) == (0, 2)


def test_quasi_lattice_check():
    for n in (1, 2):
        report = quasi_lattice_check(n, bound=3)
        assert report["ok"]
        assert report["pairs_checked"] == (4 ** n) ** 2


def test_tq_oracle_interior_agreement():
    for n in (1, 2):
        report = tq_oracle_check(n, N=6, max_len=3, trials=60, seed=5)
        assert report["ok"], report["mismatches"]
        assert report["checked"] > 0


def test_ql_lub():
    assert ql_lub((1, 5), (3, 2)) == (3, 5)
    assert ql_lub((), ()) == ()
