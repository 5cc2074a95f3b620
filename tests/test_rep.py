import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invsemi.algebra import (FREE_GROUP, INTEGERS, AlgebraElement, Grading,
                             convolve, involution)
from invsemi.core import (FiniteInverseSemigroup, PartialBijection,
                          SemigroupContext, close_generators, idempotents,
                          max_group_image, natural_leq)
from invsemi.errors import InputError, NotHermitian
from invsemi.families import Shift, br_grading, br_window, br_z2_contexts, example62
from invsemi.graphs import (DirectedGraph, GraphContext, PathPair, enumerate_pairs,
                            graph_grading)
from invsemi.rep import (RepMatrix, Truncation, action_matrix,
                         coaction_unitary_check, epsilon_faithfulness_check,
                         h_block_check, lambda_matrix, min_eig,
                         norm_lower_bound, psd_refute, rep_identity_check,
                         rho_matrix)
import invsemi.rep as rep_module
from invsemi.scalars import QQi, is_exact, to_complex
from util import (as_action, as_pb, dict_gram, dict_product, interval_shifts,
                  per_block_extreme_eigvals, per_column_rep_identity_check, rand_qqi,
                  to_dense, union_find_blocks)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def five_element_closure():
    # x: 0 -> 1 closes to {x, x*, x*x, xx*, 0}
    return close_generators([PartialBijection({0: 1})])


def clifford_chain_z2():
    elems = [(i, g) for i in (0, 1) for g in (0, 1)]
    idx = {e: k for k, e in enumerate(elems)}
    table = [[idx[(min(a[0], b[0]), (a[1] + b[1]) % 2)] for b in elems] for a in elems]
    star = [idx[(a[0], (-a[1]) % 2)] for a in elems]
    return FiniteInverseSemigroup(table, star_table=star,
                                  labels=[f"{i}.{g}" for i, g in elems])


def bouquet(loops):
    return DirectedGraph(["v"], [(i, "v", "v") for i in range(loops)])


def full_basis(S):
    return Truncation(S, S.nonzero_elements())


def rand_alg(rng, S, pool, n=3):
    return AlgebraElement(S, [(rng.choice(pool), rand_qqi(rng)) for _ in range(n)])


def tridiag_dense(m):
    return (np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)).astype(complex)


# ---------------------------------------------------------------------------
# RepMatrix arithmetic
# ---------------------------------------------------------------------------

def identity(n):
    return RepMatrix(n, {(i, i): QQi(1) for i in range(n)})


def test_repmatrix_entry_accumulation():
    half = [((0, 1), "1/2"), ((0, 1), "1/2")]
    assert RepMatrix(3, half).entries[(0, 1)] == QQi(1)
    assert (0, 1) not in RepMatrix(3, half + [((0, 1), -1)]).entries
    with pytest.raises(InputError):
        RepMatrix(3, [((0, 0), 1), ((3, 0), 1)])


def test_repmatrix_algebra_matches_numpy():
    rng = random.Random(7)
    for _ in range(10):
        A = RepMatrix(4, [((rng.randrange(4), rng.randrange(4)), rand_qqi(rng)) for _ in range(6)])
        B = RepMatrix(4, [((rng.randrange(4), rng.randrange(4)), rand_qqi(rng)) for _ in range(6)])
        assert np.allclose(to_dense(A * B), to_dense(A) @ to_dense(B))
        assert np.allclose(to_dense(A.adjoint()), to_dense(A).conj().T)
        assert (A * B).is_exact()


def random_scalar(rng, floats):
    """A nonzero QQi, or with `floats` most often a float complex."""
    if floats and rng.random() < 0.8:
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1j
    return rand_qqi(rng)


def test_product_matches_dict_loop_oracle():
    # repeated positions and -c partners make sums that cancel or repeat
    rng = random.Random(17)
    for trial in range(80):
        n, floats = rng.randint(1, 6), trial % 2 == 1

        def random_matrix():
            pairs = []
            for _ in range(rng.randint(0, 5 * n)):
                pos, c = (rng.randrange(n), rng.randrange(n)), random_scalar(rng, floats)
                pairs += [(pos, c), (pos, -c)] if rng.random() < 0.1 else [(pos, c)]
            return RepMatrix(n, pairs, dropped=rng.randint(0, 2))

        A, B = random_matrix(), random_matrix()
        got, want = A * B, dict_product(A, B)
        assert list(got.entries) == list(want.entries)
        assert [(is_exact(c), c) for c in got.entries.values()] == \
            [(is_exact(c), c) for c in want.entries.values()]
        assert got.dropped == want.dropped == A.dropped + B.dropped


def test_norm_lower_bound_gram_matches_dict_loop_oracle():
    # random non-Hermitian action matrices, exact, float and mixed; every
    # fifth case has 300-point shifts, so its blocks take the banded solver
    rng = random.Random(29)
    gram_cases = 0
    for trial in range(60):
        n = 300 if trial % 5 == 0 else rng.randint(2, 30)
        terms, entries = [], []
        for _ in range(rng.randint(1, 4)):
            if n == 300:
                k = rng.randint(-2, 2)
                pieces = [(k, max(0, -k), n - max(0, k) - 1)]
            else:
                # a random partial permutation (any pattern, several blocks),
                # written as one single-point shift x -> y per point
                pts = rng.sample(range(n), rng.randint(1, n))
                pieces = [(y - x, x, x) for x, y in zip(pts, rng.sample(range(n), len(pts)))]
            c = random_scalar(rng, trial % 3 > 0)
            terms += [(Shift(*piece), c) for piece in pieces]
            entries += [((x + d, x), c) for d, p, q in pieces for x in range(p, q + 1)]
        f, B = AlgebraElement(example62(n), terms), Truncation(None, range(n))
        M = action_matrix(f, B)
        assert M == RepMatrix(n, entries)
        if not len(M.vids) or M.is_hermitian():
            continue
        gram_cases += 1
        want = math.sqrt(max(rep_module._extreme_eigvals(dict_gram(M), picks=(-1,))[0], 0.0))
        assert norm_lower_bound(f, B, rep="action") == want
    assert gram_cases >= 50


def test_repmatrix_identity_and_eq():
    I = identity(3)
    assert I == RepMatrix(3, {(i, i): 1 for i in range(3)})
    perturbed = RepMatrix(3, [((i, i), 1) for i in range(3)] + [((0, 0), 1e-14)])
    assert I != perturbed and not perturbed.is_exact()
    assert I.is_hermitian()


def test_exact_hermitian_test_sees_a_1e12_gap():
    # the pair differs by 1e-12, inside the float tolerance of the solver
    c = QQi("1000000000001/1000000000000")
    M = RepMatrix(2, {(0, 1): c, (1, 0): QQi(1)})
    assert not M.is_hermitian(tol=1e-10)
    assert RepMatrix(2, {(0, 1): c, (1, 0): c}).is_hermitian()
    with pytest.raises(NotHermitian) as err:
        min_eig(M)
    assert err.value.witness == (0, 1) and "(0, 1)" in str(err.value)


def test_truncation_filters_zero_and_rejects_duplicates():
    S = five_element_closure()
    B = Truncation(S, S.elements())
    assert len(B) == 4 and S.zero_index not in B
    with pytest.raises(InputError):
        Truncation(S, [1, 1])


# ---------------------------------------------------------------------------
# regular representations on a closed basis: everything exact
# ---------------------------------------------------------------------------

def test_lambda_is_multiplicative_on_closure():
    S = five_element_closure()
    B = full_basis(S)
    for a in S.nonzero_elements():
        for b in S.nonzero_elements():
            ab = S.product(a, b)
            assert lambda_matrix(a, B) * lambda_matrix(b, B) == lambda_matrix(ab, B)


def test_lambda_extends_linearly_to_products():
    S = five_element_closure()
    B = full_basis(S)
    rng = random.Random(3)
    pool = S.nonzero_elements()
    for _ in range(25):
        f = rand_alg(rng, S, pool)
        g = rand_alg(rng, S, pool)
        assert lambda_matrix(convolve(f, g), B) == lambda_matrix(f, B) * lambda_matrix(g, B)
        assert lambda_matrix(involution(f), B) == lambda_matrix(f, B).adjoint()


def test_rho_reverses_products_and_respects_star():
    S = five_element_closure()
    B = full_basis(S)
    for a in S.nonzero_elements():
        assert rho_matrix(S.star(a), B) == rho_matrix(a, B).adjoint()
        for b in S.nonzero_elements():
            ba = S.product(b, a)
            assert rho_matrix(a, B) * rho_matrix(b, B) == rho_matrix(ba, B)


def test_lambda_and_rho_commute():
    S = five_element_closure()
    B = full_basis(S)
    for s in S.nonzero_elements():
        for t in S.nonzero_elements():
            L, R = lambda_matrix(s, B), rho_matrix(t, B)
            assert L * R == R * L


def test_rho_moves_range_projection_to_element():
    S = five_element_closure()
    B = full_basis(S)
    for s in S.nonzero_elements():
        e = S.product(s, S.star(s))
        M = rho_matrix(s, B)
        assert M.entries.get((B.index[s], B.index[e])) == QQi(1)


def test_rep_identity_check_on_closures():
    for S in (five_element_closure(), clifford_chain_z2()):
        report = rep_identity_check(full_basis(S), S.nonzero_elements())
        assert report["ok"] and report["skipped"] == 0 and report["checked"] > 0


def test_rep_identity_check_on_window_skips_boundary():
    ctx, _ = br_z2_contexts()
    B = Truncation(ctx, br_window(ctx, 2))
    elems = br_window(ctx, 1)
    report = rep_identity_check(B, elems)
    assert report["ok"] and report["skipped"] > 0 and report["checked"] > 0


def test_lambda_window_drops_are_counted():
    g = bouquet(1)
    ctx = GraphContext(g)
    B = Truncation(ctx, enumerate_pairs(g, 1))
    long_leg = PathPair(g.path([0]), g.empty_path("v"))
    M = lambda_matrix(long_leg, B)
    assert M.dropped > 0


# ---------------------------------------------------------------------------
# shift bundle spectra
# ---------------------------------------------------------------------------

def test_action_matrix_of_restriction_is_tridiagonal():
    sb = example62(4)
    M = action_matrix(sb.epsilon_xx_star(), sb.action_points)
    m = len(sb.action_points)
    assert np.allclose(to_dense(M), tridiag_dense(m))
    assert M.is_exact() and M.entries[(0, 0)] == QQi(1)
    assert M.dropped == 1  # the +1 shift walks off the window top


def test_action_matrix_respects_star():
    sb = example62(3)
    pts = sb.action_points
    assert action_matrix(sb.x.star(), pts) == action_matrix(sb.x, pts).adjoint()


def test_min_eig_matches_closed_form():
    for n in (4, 5, 8):
        sb = example62(n)
        M = action_matrix(sb.epsilon_xx_star(), sb.action_points)
        m = len(sb.action_points)
        want = 1 - 2 * math.cos(math.pi / (m + 1))
        assert abs(min_eig(M) - want) < 1e-9
        assert abs(min_eig(M) - float(np.linalg.eigvalsh(tridiag_dense(m))[0])) < 1e-9
    # window 5 is the standard demonstration value
    sb = example62(5)
    val = min_eig(action_matrix(sb.epsilon_xx_star(), sb.action_points))
    assert abs(val - (1 - 2 * math.cos(math.pi / 7))) < 1e-9
    assert val < -0.8


def test_min_eig_identity_and_empty():
    assert min_eig(identity(5)) == pytest.approx(1.0)
    with pytest.raises(InputError):
        min_eig(RepMatrix(0))


def test_min_eig_rejects_non_hermitian():
    S = five_element_closure()
    B = full_basis(S)
    x = next(s for s in S.nonzero_elements() if not S.is_idempotent(s))
    with pytest.raises(NotHermitian):
        min_eig(lambda_matrix(x, B))


def test_min_eig_large_window_matches_closed_form():
    sb = example62(2100)
    M = action_matrix(sb.epsilon_xx_star(), sb.action_points)
    m = len(sb.action_points)
    assert m > 2000
    want = 1 - 2 * math.cos(math.pi / (m + 1))
    assert abs(min_eig(M) - want) < 1e-9


def test_norm_lower_bounds_are_monotone():
    vals = []
    for n in (10, 20, 40):
        sb = example62(n)
        B = Truncation(None, sb.action_points)
        vals.append(norm_lower_bound(sb.epsilon_xx_star(), B, rep="action"))
    assert vals == sorted(vals)
    assert vals[-1] > 2.9 and vals[-1] <= 3.0 + 1e-9
    for n, v in zip((10, 20, 40), vals):
        m = n + 1
        assert abs(v - (1 + 2 * math.cos(math.pi / (m + 1)))) < 1e-9


def test_norm_lower_bound_large_window_matches_svd():
    sb = example62(2100)
    B = Truncation(None, sb.action_points)
    val = norm_lower_bound(sb.x, B, rep="action")
    dense = to_dense(action_matrix(sb.x, sb.action_points))
    assert not dense.imag.any()   # a real SVD takes 2 s here, a complex one 5 s
    assert abs(val - np.linalg.svd(dense.real, compute_uv=False)[0]) < 1e-9
    # ||1 - shift|| on m points is 2cos(pi/(2m + 1))
    m = len(sb.action_points)
    assert abs(val - 2 * math.cos(math.pi / (2 * m + 1))) < 1e-9


def test_zero_element_has_zero_norm_bound():
    S = five_element_closure()
    assert norm_lower_bound(AlgebraElement(S), full_basis(S)) == 0.0


# ---------------------------------------------------------------------------
# block solver: dense or banded LAPACK per connected block
# ---------------------------------------------------------------------------

def banded_hermitian(rng, n, band, real=False):
    """Random complex (or real) Hermitian matrix with every diagonal up to
    `band` full."""
    entries = []
    for i in range(n):
        entries.append(((i, i), QQi(rng.randint(-9, 9))))
        for d in range(1, min(band, n - 1 - i) + 1):
            c = (QQi(rng.randint(-9, 9)) if real else rand_qqi(rng)) or QQi(1)
            entries += [((i + d, i), c), ((i, i + d), c.conjugate())]
    return RepMatrix(n, entries)


def assert_spectrum_matches(M):
    vals = np.linalg.eigvalsh(to_dense(M))
    assert abs(min_eig(M) - vals[0]) < 1e-9
    assert abs(rep_module._extreme_eigvals(M, picks=(-1,))[0] - vals[-1]) < 1e-9


@pytest.fixture
def banded_calls(monkeypatch):
    """Record the band storage of every banded solve."""
    import scipy.linalg
    calls = []
    solve = scipy.linalg.eig_banded

    def spy(ab, *args, **kwargs):
        calls.append((ab.shape, ab.dtype))
        return solve(ab, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig_banded", spy)
    return calls


def test_block_solver_splits_br_square_into_degree_blocks(monkeypatch):
    # lambda keeps L-classes apart, and the L-classes of one D-class give
    # equal blocks: level M has M + 1 blocks of 2(M + 1) rows, and psd
    # solves one of them, on one L-class part
    rng = random.Random(5)
    ctx, _ = br_z2_contexts()
    f = AlgebraElement(ctx, [((0, 0, 0), rand_qqi(rng)), ((1, 1, 0), rand_qqi(rng)),
                             ((2, 0, 1), rand_qqi(rng)), ((0, 1, 3), rand_qqi(rng))])
    ff = convolve(involution(f), f)
    solve, calls = rep_module._block_eigvals, []

    def spy(A, *args, **kwargs):
        calls.append(A.shape[1])
        return solve(A, *args, **kwargs)

    monkeypatch.setattr(rep_module, "_block_eigvals", spy)
    for level in (9, 25):
        B = Truncation(ctx, br_window(ctx, level))
        M = lambda_matrix(ff, B)
        blocks, free = rep_module._blocks(M)
        assert (M.n, free) == (2 * (level + 1) ** 2, 0)
        assert sorted(size for size, *_ in blocks) == [2 * (level + 1)] * (level + 1)
        calls.clear()
        value = psd_refute(ff, B)["value"]
        assert calls == [2 * (level + 1)]
        calls.clear()
        assert min_eig(M) == value
        assert calls == [2 * (level + 1)] * (level + 1)
        if level == 9:
            assert_spectrum_matches(M)
            vals = np.linalg.eigvalsh(to_dense(M))
            assert abs(norm_lower_bound(ff, B) - max(-vals[0], vals[-1])) < 1e-9
    assert psd_refute(ff, B)["value"] == value == per_block_extreme_eigvals(M, (0,))[0]


def test_block_solver_complex_banded_block(banded_calls):
    M = banded_hermitian(random.Random(8), 600, 3)
    assert len(rep_module._blocks(M)[0]) == 1
    assert_spectrum_matches(M)
    assert banded_calls == [((4, 600), np.complex128)] * 2   # min_eig, then the top


def test_block_solver_real_entries_use_real_band_storage(banded_calls):
    sb = example62(400)
    assert_spectrum_matches(action_matrix(sb.epsilon_xx_star(), sb.action_points))
    assert banded_calls == [((2, 401), np.float64)] * 2


def test_block_solver_wide_band_takes_dense_fallback(monkeypatch):
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("a wide-band block must not reach eig_banded")

    monkeypatch.setattr(scipy.linalg, "eig_banded", refuse)
    M = banded_hermitian(random.Random(4), 300, 12)   # 32 * 12 > 300
    assert len(rep_module._blocks(M)[0]) == 1
    assert_spectrum_matches(M)


def test_block_solver_counts_untouched_indices_as_zero_eigenvalues():
    M = RepMatrix(5, {(0, 0): 2, (1, 1): 3, (3, 4): 1, (4, 3): 1})
    assert rep_module._blocks(M)[1] == 1
    assert min_eig(M) == pytest.approx(-1.0)
    assert min_eig(RepMatrix(5, {(0, 0): 2})) == 0.0
    assert_spectrum_matches(M)


def two_shift_blocks(rng, distinct):
    """f on 700 points whose action is two shift blocks of 350 points with
    complex weights, not Hermitian: each shift has one interval per block,
    with one coefficient, or with `distinct` a second one for the second
    block."""
    n, half = 700, 350
    ctx = example62(n)

    def shift(k, star=False):
        c = rand_qqi(rng)
        pieces = [(Shift(k, 0, half - k - 1), c),
                  (Shift(k, half, n - k - 1), rand_qqi(rng) if distinct else c)]
        return [(ctx.star(s) if star else s, w) for s, w in pieces]

    f = AlgebraElement(ctx, [(Shift(0, 0, n - 1), rand_qqi(rng)), *shift(1), *shift(2),
                             *shift(1, star=True)])
    return f, Truncation(None, range(n))


def check_gram_path(banded_calls, distinct):
    f, B = two_shift_blocks(random.Random(13), distinct)
    M = action_matrix(f, B)
    assert not M.is_hermitian()
    assert len(rep_module._blocks(M)[0]) == 2
    val = norm_lower_bound(f, B, rep="action")
    assert abs(val - np.linalg.svd(to_dense(M), compute_uv=False)[0]) < 1e-9
    # bands 2 below and 1 above give a Gram band of 3; one solve per block
    assert banded_calls == [((4, 350), np.complex128)] * 2


def test_norm_lower_bound_gram_path_for_non_hermitian(banded_calls):
    # both blocks carry the same coefficients; each is solved on its own
    check_gram_path(banded_calls, distinct=False)


def test_norm_lower_bound_gram_path_solves_distinct_blocks_apart(banded_calls):
    check_gram_path(banded_calls, distinct=True)


# ---------------------------------------------------------------------------
# Hermitian norm: a banded block's bottom only when no factor rules it out
# ---------------------------------------------------------------------------

@pytest.fixture
def lapack_calls(monkeypatch):
    """Record each banded eigensolve and banded Cholesky factor by name."""
    import scipy.linalg
    calls = []
    for name in ("eig_banded", "cholesky_banded"):
        def spy(*args, name=name, solve=getattr(scipy.linalg, name), **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, spy)
    return calls


def toeplitz_block(start, m, diagonal, off):
    """Terms of the Hermitian tridiagonal Toeplitz block on the points
    start..start+m-1: `diagonal` on the diagonal, `off` below, conj above."""
    end = start + m - 1
    return [(Shift(0, start, end), diagonal), (Shift(1, start, end - 1), off),
            (Shift(-1, start + 1, end), off.conjugate())]


def norm_cases():
    """(name, f, window) whose action matrices are Hermitian with blocks of
    more than 256 rows, and the banded solves and factors each one takes."""
    rng = random.Random(41)
    real, complex_ = banded_hermitian(rng, 300, 2, real=True), banded_hermitian(rng, 400, 3)
    weights = [QQi(rng.randint(1, 9)) for _ in range(299)]
    path = RepMatrix(300, [(p, w) for i, w in enumerate(weights) for p in ((i + 1, i), (i, i + 1))])
    cases = []
    for name, M, solves in (("real", real, (1, 1)), ("complex", complex_, (1, 1)),
                            ("bipartite", path, (2, 1))):   # a spectrum symmetric about 0
        cases.append((name, *as_action(M, example62(M.n)), solves))
    for n in (300, 2200):
        sb = example62(n)
        eps, window = sb.epsilon_xx_star(), Truncation(None, sb.action_points)
        cases.append((f"example62.{n}", eps, window, (1, 1)))
        if n == 300:
            negated = AlgebraElement(sb, [(s, -c) for s, c in eps.terms.items()])
            cases.append(("negated", negated, window, (2, 1)))    # the bottom wins
    sb = example62(300)
    cases.append(("negative definite", AlgebraElement(sb, toeplitz_block(0, 300, QQi(-2), QQi(-1))),
                  Truncation(None, range(300)), (2, 0)))
    # free points around four blocks: spectra in (-1, 3), (-2, 2) and (-3, 1),
    # where the last bottom comes within 1.6e-5 of the first top and its
    # factor still rules it out, and a small dense block
    small = banded_hermitian(rng, 4, 3)
    terms = (toeplitz_block(2, 300, QQi(1), QQi(-1)) + toeplitz_block(305, 280, QQi(0), QQi(0, 1))
             + toeplitz_block(586, 280, QQi(-1), QQi(1))
             + [(Shift(i - j, 866 + j, 866 + j), c) for (i, j), c in small.entries.items()])
    cases.append(("blocks", AlgebraElement(sb, terms), Truncation(None, range(872)), (3, 3)))
    return cases


@pytest.mark.parametrize("name, f, window, solves", norm_cases(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_hermitian_norm_is_bit_equal_to_both_ends_per_block(lapack_calls, name, f, window,
                                                            solves):
    M = action_matrix(f, window)
    assert M.is_hermitian() and max(size for size, *_ in rep_module._blocks(M)[0]) > 256
    lo, hi = per_block_extreme_eigvals(M)
    lapack_calls.clear()
    assert norm_lower_bound(f, window, rep="action") == max(-lo, hi)
    assert tuple(map(lapack_calls.count, ("eig_banded", "cholesky_banded"))) == solves
    if name == "negated":
        assert -lo > hi
    if name == "negative definite":
        assert hi < 0


def test_as_action_rebuilds_the_matrix():
    M = banded_hermitian(random.Random(2), 40, 3)
    f, window = as_action(M, example62(40))
    assert action_matrix(f, window) == M


def test_hermitian_norm_bisects_a_bottom_only_when_the_factor_fails(lapack_calls):
    sb = example62(400)
    norm_lower_bound(sb.epsilon_xx_star(), Truncation(None, sb.action_points), rep="action")
    assert lapack_calls == ["eig_banded", "cholesky_banded"]
    # b + b* has a spectrum symmetric about 0, so no factor rules out -lo
    lapack_calls.clear()
    norm_lower_bound(AlgebraElement(sb, [(sb.b, 1), (sb.star(sb.b), 1)]),
                     Truncation(None, sb.action_points), rep="action")
    assert lapack_calls == ["eig_banded", "cholesky_banded", "eig_banded"]


@st.composite
def entry_patterns(draw):
    """(n, positions): random positions on n indices, some with a full
    subdiagonal or one missing a single step; untouched indices are common."""
    n = draw(st.integers(1, 40))
    index = st.integers(0, n - 1)
    positions = set(draw(st.lists(st.tuples(index, index), max_size=2 * n)))
    if n > 1 and draw(st.booleans()):
        gap = draw(st.sampled_from([None, *range(n - 1)]))
        positions |= {(i + 1, i) for i in range(n - 1) if i != gap}
    return n, sorted(positions)


@settings(max_examples=60)
@given(entry_patterns())
def test_blocks_match_union_find_oracle(case):
    n, positions = case
    M = RepMatrix(n, {p: QQi(k + 1) for k, p in enumerate(positions)})
    comps, free = union_find_blocks(n, positions)
    blocks, got_free = rep_module._blocks(M)
    assert got_free == free and [size for size, *_ in blocks] == list(map(len, comps))
    z = M._floats()
    for comp, (size, rows, cols, vals) in zip(comps, blocks):
        local = {x: k for k, x in enumerate(comp)}
        want = [(local[i], local[j], z[k])
                for k, (i, j) in enumerate(zip(M.rows.tolist(), M.cols.tolist())) if i in local]
        assert list(zip(rows.tolist(), cols.tolist(), vals.tolist())) == want
    if n > 1 and all((i + 1, i) in positions for i in range(n - 1)):
        assert len(blocks) == 1 and blocks[0][1] is M.rows    # taken as it stands


def test_action_matrix_reads_a_range_as_the_list_it_stands_for():
    rng = random.Random(31)
    sb = example62(9)
    for lo, n in ((0, 10), (-4, 7), (3, 1), (5, 0), (2 ** 63 - 3, 5)):
        f = AlgebraElement(sb, [(Shift(rng.randint(-2, 2), p, p + rng.randint(0, 6)), rand_qqi(rng))
                                for p in (lo + rng.randint(-2, 4) for _ in range(4))])
        window = range(lo, lo + n)
        M = action_matrix(f, window)
        assert M == action_matrix(f, list(window)) == action_matrix(f, Truncation(None, window))
        assert M.n == n
    with pytest.raises(InputError):
        action_matrix(sb.x, range(0, 20, 2))


def test_action_matrix_refuses_a_window_past_the_cap():
    # a range stands for any window without listing it, so these allocate nothing
    cap = rep_module.MAX_ACTION_WINDOW
    for window in (range(0, cap + 2), Truncation(None, range(-5, cap - 3)),
                   range(0, 2 ** 70)):
        with pytest.raises(InputError, match=f"past the action cap {cap}"):
            action_matrix(example62(3).x, window)


def test_action_matrix_sorts_no_array_as_long_as_its_entries(monkeypatch):
    # positions are sorted once; summing repeats and compacting values must
    # not sort one key per entry again
    sb = example62(10 ** 5)
    eps, seen = sb.epsilon_xx_star(), []
    for name in ("unique", "lexsort"):
        def spy(a, *args, _call=getattr(np, name), **kwargs):
            seen.append(np.shape(a)[-1] if np.ndim(a) else 1)
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    M = action_matrix(eps, sb.action_points)
    assert len(M.vids) > 3 * 10 ** 5 - 10
    assert max(seen, default=0) < len(M.vids)


def test_truncation_keeps_a_range_and_answers_as_its_list():
    window = range(-3, 50)
    B, listed = Truncation(None, window), Truncation(None, list(window))
    assert B.elements is window and len(B) == len(listed) == 53
    for x in (-4, -3, 0, 49, 50, 2.5, "x"):
        assert (x in B) == (x in listed) == (x in window)
    assert B.index == listed.index == {x: k for k, x in enumerate(window)}
    with pytest.raises(InputError, match="duplicate basis element 7"):
        Truncation(None, [5, 7, 8, 7, 5])


def test_psd_refute_large_br_square_is_not_refuted():
    # 2048 dims and a smallest eigenvalue near 6e-9: the former iterative
    # solver (eigsh "SA") raised ArpackNoConvergence on this f after 68 s
    ctx, _ = br_z2_contexts()
    f = AlgebraElement(ctx, [((0, 0, 0), QQi("1/3", 2)), ((1, 1, 0), QQi("-2/5", -3)),
                             ((2, 0, 1), QQi("2/5", 3)), ((0, 1, 3), QQi("4/3", 5))])
    cert = psd_refute(convolve(involution(f), f), Truncation(ctx, br_window(ctx, 31)))
    assert cert["basis_size"] == 2048
    assert not cert["refuted"]
    assert 5e-9 < cert["value"] < 7e-9   # dense eigvalsh: 6.0886e-9


def test_min_eig_leaves_scipy_unloaded_on_small_windows():
    code = ("import sys, invsemi\n"
            "from invsemi import action_matrix, example62, min_eig\n"
            "from invsemi.algebra import AlgebraElement, convolve, involution\n"
            "from invsemi.families import br_window, br_z2_contexts\n"
            "from invsemi.rep import Truncation, norm_lower_bound, psd_refute\n"
            "sb = example62(60)\n"
            "min_eig(action_matrix(sb.epsilon_xx_star(), sb.action_points))\n"
            "ctx, _ = br_z2_contexts()\n"
            "f = AlgebraElement(ctx, [((0, 0, 0), 1), ((1, 1, 0), -2), ((2, 0, 1), 3),\n"
            "                         ((0, 1, 3), 1)])\n"
            "ff, B = convolve(involution(f), f), Truncation(ctx, br_window(ctx, 5))\n"
            "assert not psd_refute(ff, B)['refuted'] and norm_lower_bound(ff, B) > 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(rep_module.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_rep_imports_no_family_or_front_end():
    # rep stays family-generic: each family answers its own action codes
    tree = ast.parse(Path(rep_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"families", "graphs", "jsonio", "cli", "acceptance"}


# ---------------------------------------------------------------------------
# storage properties against plain-dict oracles
# ---------------------------------------------------------------------------

SMALL = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


@st.composite
def entry_lists(draw):
    """((i, j), c) pairs on at most 12 indices: repeated positions, cancelling
    pairs, conjugate mirrors (often Hermitian), complex QQi and a few floats."""
    n = draw(st.integers(1, 12))
    index = st.integers(0, n - 1)
    value = st.one_of(st.builds(QQi, SMALL, SMALL), st.builds(QQi, SMALL),
                      st.floats(-2, 2).map(complex))
    base = draw(st.lists(st.tuples(st.tuples(index, index), value), max_size=14))
    out = list(base)
    for (i, j), c in base:
        kind = draw(st.sampled_from(["mirror", "mirror", "cancel", "repeat", "none"]))
        if kind == "mirror":
            out.append(((j, i), c.conjugate()))
        elif kind == "cancel":
            out.append(((i, j), -c))
        elif kind == "repeat":
            out.append(((i, j), draw(value)))
    return n, draw(st.permutations(out))


def dict_oracle(entries):
    """Entries added one by one: repeats sum in insertion order, and a zero
    total removes the entry. A float anywhere in a sum makes it complex, even
    where the partial sum before it was zero."""
    d = {}
    for key, c in entries:
        d[key] = d[key] + c if key in d else c
    return {key: c for key, c in d.items() if c != 0}


def asymmetric_positions(d, tol):
    """Every (i, j) where d and its adjoint differ, by the textbook definition."""
    bad = []
    for (i, j), c in d.items():
        e = d.get((j, i))
        if e is None:
            off = abs(to_complex(c)) > tol
        elif is_exact(c) and is_exact(e):
            off = e.conjugate() != c
        else:
            off = abs(to_complex(e).conjugate() - to_complex(c)) > tol
        if off:
            bad.append((i, j))
    return sorted(bad)


def bfs_blocks(n, d):
    """Connected components of the entry graph, by breadth-first search."""
    adj = {}
    for i, j in d:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    seen, comps = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        comp, queue = [], [start]
        seen.add(start)
        while queue:
            i = queue.pop(0)
            comp.append(i)
            for j in adj[i] - seen:
                seen.add(j)
                queue.append(j)
        comps.append(sorted(comp))
    return comps, n - len(adj)


@settings(max_examples=30)
@given(entry_lists())
def test_repmatrix_storage_matches_dict_oracle(case):
    n, entries = case
    M = RepMatrix(n, entries)
    d = dict_oracle(entries)
    assert {k: (is_exact(c), c) for k, c in M.entries.items()} == \
        {k: (is_exact(c), c) for k, c in d.items()}
    assert len(M.entries) == len(d) and M.is_exact() == all(map(is_exact, d.values()))
    dense = np.zeros((n, n), dtype=complex)
    for (i, j), c in d.items():
        dense[i, j] = to_complex(c)
    assert np.array_equal(to_dense(M), dense)
    for tol in (0.0, 1e-10, 0.5):
        bad = asymmetric_positions(d, tol)
        assert M.is_hermitian(tol) == (not bad)
        assert M._asymmetry(tol) == (bad[0] if bad else None)
    comps, free = bfs_blocks(n, d)
    blocks, got_free = rep_module._blocks(M)
    assert got_free == free and [size for size, *_ in blocks] == list(map(len, comps))
    for comp, (size, rows, cols, vals) in zip(comps, blocks):
        block = np.zeros((size, size), dtype=complex)
        block[rows, cols] = vals
        assert np.array_equal(block, dense[np.ix_(comp, comp)])
    bad = asymmetric_positions(d, 1e-10)
    if bad:
        with pytest.raises(NotHermitian) as err:
            min_eig(M)
        assert err.value.witness == bad[0]
    else:
        assert abs(min_eig(M) - np.linalg.eigvalsh(dense)[0]) < 1e-9


@st.composite
def shared_coo(draw):
    """COO input whose value ids repeat across positions, which the dict
    constructor never makes: runs that share prefixes, pass through zero or
    cancel, over exact and float values."""
    values = draw(st.lists(st.sampled_from(
        [QQi(1), QQi(-1), QQi(2), QQi(0), QQi("1/2", 1), complex(0.1), complex(0.2),
         complex(-0.3), complex(1 / 3, -1)]), min_size=1, max_size=6))
    n = draw(st.integers(1, 4))
    coo = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.integers(0, len(values) - 1)), max_size=40))
    return n, coo, values


@settings(max_examples=60)
@given(shared_coo())
@example((2, [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1),
              (0, 1, 2), (0, 1, 3), (1, 0, 4), (1, 0, 5), (1, 0, 6), (1, 0, 4)],
          [QQi(1), QQi(-1), QQi(2), QQi(-2), complex(0.1), complex(0.2), complex(-0.3)]))
def test_from_coo_sums_shared_ids_left_to_right(case):
    n, coo, values = case
    M = RepMatrix._from_coo(n, [i for i, _, _ in coo], [j for _, j, _ in coo],
                            [v for _, _, v in coo], values)
    want = {}
    for i, j, v in coo:
        want[i, j] = want[i, j] + values[v] if (i, j) in want else values[v]
    want = {key: c for key, c in sorted(want.items()) if c}
    assert list(M.entries) == list(want)
    # float sums keep their bits: same order, same additions
    assert [(is_exact(c), repr(c)) for c in M.entries.values()] == \
        [(is_exact(c), repr(c)) for c in want.values()]
    assert sorted(set(M.vids.tolist())) == list(range(len(M.values)))
    assert len({(is_exact(c), c) for c in M.values}) == len(M.values)


REAL_VALUE = st.one_of(st.builds(QQi, SMALL), st.floats(-2, 2).map(complex)).filter(bool)
NONZERO_VALUE = st.one_of(st.builds(QQi, SMALL, SMALL),
                          st.floats(-2, 2).map(complex)).filter(bool)


@st.composite
def repeated_blocks(draw):
    """(n, {(i, j): c}): one Hermitian block laid down 2-4 times with
    untouched indices around the copies. A copy is equal, has one value
    changed, or has the same values at other positions (one entry and its
    mirror moved). The block is small (dense solver) or a chain of 257-260
    rows (banded solver). Some cases add one entry without its mirror."""
    # a block draws from a few values, so that moved entries often leave
    # its row-major list of values as it was
    reals, values = (draw(st.lists(s, min_size=1, max_size=2))
                     for s in (REAL_VALUE, NONZERO_VALUE))

    def put(block, i, j, c):
        block[(i, j)], block[(j, i)] = c, c.conjugate()

    def pick(items):
        return items[draw(st.integers(0, len(items) - 1))]

    base = {}
    if draw(st.sampled_from(["small", "small", "small", "chain"])) == "small":
        size = draw(st.integers(1, 5))
        for i, j in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(0, size - 1)), max_size=10)):
            put(base, min(i, j), max(i, j), draw(st.sampled_from(reals if i == j else values)))
    else:
        size = draw(st.integers(257, 260))
        for i in range(size - 1):
            put(base, i, i + 1, values[i % len(values)])
        base[(0, 0)] = reals[0]
    d, n = {}, 0
    for _ in range(draw(st.integers(2, 4))):
        copy = dict(base)
        kind = draw(st.sampled_from(["equal", "equal", "value", "moved"]))
        if kind == "value" and copy:
            i, j = pick(sorted(copy))
            put(copy, i, j, draw(REAL_VALUE if i == j else NONZERO_VALUE))
        elif kind == "moved" and copy:
            i, j = pick(sorted(k for k in copy if k[0] <= k[1]))
            free = [(a, b) for a in range(min(size, 6)) for b in range(a, min(size, 6))
                    if (a == b) == (i == j) and (a, b) not in copy]
            if free:
                c = copy.pop((i, j))
                copy.pop((j, i), None)
                put(copy, *pick(free), c)
        n += draw(st.integers(0, 2))
        d.update({(n + i, n + j): c for (i, j), c in copy.items()})
        n += size
    n += draw(st.integers(0, 2))
    if n > 1 and draw(st.sampled_from([False, False, False, True])):
        i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda ij: ij[0] != ij[1]))
        d[(i, j)] = d.get((i, j), 0) + draw(st.builds(QQi, SMALL, SMALL).filter(bool))
    return n, {k: c for k, c in d.items() if c}


# a path with its diagonal entry at one end, then a star with it at the
# centre: equal sizes and equal values in row-major order, at other
# positions, and the star's top eigenvalue (2) is above the path's (1.80)
PATH_THEN_STAR = (6, dict.fromkeys([(0, 0), (0, 1), (1, 0), (1, 2), (2, 1),
                                    (3, 3), (3, 4), (3, 5), (4, 3), (5, 3)], QQi(1)))


@settings(max_examples=30)
@given(repeated_blocks())
@example(PATH_THEN_STAR)
def test_extreme_eigvals_match_per_block_oracle(case):
    n, d = case
    M = RepMatrix(n, d)
    bad = asymmetric_positions(d, 1e-10)
    if bad:
        with pytest.raises(NotHermitian) as err:
            min_eig(M)
        assert err.value.witness == bad[0]
        return
    for picks in ((0,), (-1,), (0, -1)):
        assert rep_module._extreme_eigvals(M, picks) == per_block_extreme_eigvals(M, picks)


# ---------------------------------------------------------------------------
# positivity certificates
# ---------------------------------------------------------------------------

def test_psd_refute_flags_the_restricted_square():
    for n in (4, 6):
        sb = example62(n)
        B = Truncation(None, sb.action_points)
        cert = psd_refute(sb.epsilon_xx_star(), B, rep="action")
        assert cert["refuted"] and cert["value"] < -0.7
        assert cert["basis_size"] == n + 1 and cert["rep"] == "action"


def test_psd_refute_never_fires_on_sums_of_squares():
    S = five_element_closure()
    B = full_basis(S)
    rng = random.Random(11)
    pool = S.nonzero_elements()
    for _ in range(30):
        f = AlgebraElement(S)
        for _ in range(rng.randint(1, 3)):
            g = rand_alg(rng, S, pool, n=rng.randint(1, 3))
            f = f + convolve(involution(g), g)
        cert = psd_refute(f, B)
        assert not cert["refuted"]
        assert cert["value"] > -cert["tolerance"]


def test_psd_refute_positive_on_untruncated_square_but_window_is_sound():
    # the full square xx* stays PSD in every compression, only the
    # restriction to the grading kernel goes negative
    sb = example62(5)
    B = Truncation(None, sb.action_points)
    cert = psd_refute(sb.xx_star(), B, rep="action")
    assert not cert["refuted"]


# ---------------------------------------------------------------------------
# one regular action: the column lists against per-column recomputation
# ---------------------------------------------------------------------------

@st.composite
def closures(draw):
    """The closure of one to three random partial injections of at most
    three points."""
    n = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        image = draw(st.permutations(range(n)))
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        gens.append(PartialBijection({x: y for x, y, k in zip(range(n), image, keep) if k}))
    return close_generators(gens)


class OneLie(SemigroupContext):
    """S with the product x y replaced by w, and y* x* by w*. Neither x y nor
    w is zero, w is neither x nor y, and x is not y*, so no domain or range
    projection is miscomputed and no zero appears where S has none. The lie
    keeps (a b)* = b* a*, which R's codes read: b a = (a* b*)*."""

    def __init__(self, S, x, y, w):
        self.S, self.zero = S, S.zero
        self.lies = {(x, y): w, (S.star(y), S.star(x)): S.star(w)}

    def product(self, a, b):
        lie = self.lies.get((a, b))
        return self.S.product(a, b) if lie is None else lie

    def star(self, a):
        return self.S.star(a)


@settings(max_examples=15)
@given(closures(), st.data())
def test_rep_identity_check_matches_per_column_oracle(S, data):
    elems = S.nonzero_elements()
    cases = [S]
    lies = [(x, y, w) for x in elems for y in elems for w in elems
            if not S.is_zero(S.product(x, y)) and w not in (x, y) and x != S.star(y)]
    if lies:
        cases.append(OneLie(S, *data.draw(st.sampled_from(lies))))
    for ctx in cases:
        for basis in (elems, elems[: len(elems) // 2]):
            B = Truncation(ctx, basis)
            assert rep_identity_check(B, elems) == per_column_rep_identity_check(B, elems)


def test_rep_identity_check_matches_oracle_on_windows():
    g = bouquet(2)
    cases = [(GraphContext(g), enumerate_pairs(g, 2), enumerate_pairs(g, 1))]
    cases += [(ctx, br_window(ctx, 2), br_window(ctx, 1)) for ctx in br_z2_contexts()]
    for ctx, basis, elems in cases:
        B = Truncation(ctx, basis)
        report = rep_identity_check(B, elems)
        assert report == per_column_rep_identity_check(B, elems)
        assert report["ok"] and report["skipped"] > 0


@settings(max_examples=30)
@given(closures())
def test_left_domain_is_natural_order_down_set(S):
    # a*a b = b exactly when bb* <= a*a in the natural partial order
    elems = S.nonzero_elements()
    for a in S.elements():
        aa = S.product(S.star(a), a)
        hits = {b for b, code in zip(elems, S.left_action(elems)(a)) if code != -2}
        assert hits == {b for b in elems if natural_leq(S.product(b, S.star(b)), aa, S)}


def test_action_matrix_rejects_a_repeated_point():
    # and every other window that is no interval in increasing order
    sb = example62(3)
    points = list(sb.action_points)
    for window in (points + points[:1], points + [points[-1] + 2], points[::-1]):
        with pytest.raises(InputError):
            action_matrix(sb.x, window)


@pytest.mark.parametrize("f, points", [
    (PartialBijection({0: 1}), [0, 1]),     # support that is no interval shift
    (Shift(1, 0, 0), ["x", "y"]),           # points that are no integers
    (Shift(1, 0, 0), [0.0, 1.0]),
    (Shift(1, 0, 0), [0, 2 ** 70]),
    (Shift(1, 0, 0), [0, 2]),               # a gap
    (Shift(1, 0, 0), [1, 0]),               # another order
    (Shift(1, 0, 0), range(1, -1, -1)),
])
def test_action_matrix_rejects_other_support_and_points(f, points):
    with pytest.raises(InputError):
        action_matrix(f, points)


def test_action_matrix_shift_past_every_point():
    # intervals at far offsets, shifted by int64-sized and larger steps, on
    # domains that cover, cut or miss the window: each image is found or
    # dropped exactly, and points outside the domain give no entry
    for window in (range(2 ** 63 - 2, 2 ** 63 + 2), range(-2 ** 64, -2 ** 64 + 3)):
        lo, hi = window[0], window[-1]
        for d in (2 ** 63, 2 ** 64 - 1, 1 - 2 ** 64, 2 ** 70, -2 ** 70, -2, 0, 1):
            for p, q in ((-2 ** 70, 2 ** 70), (lo + 1, hi), (lo, lo), (hi + 1, 2 ** 70),
                         (lo - d, hi - d)):
                domain = [(j, x) for j, x in enumerate(window) if p <= x <= q]
                want = {(window.index(x + d), j): 1 for j, x in domain if x + d in window}
                M = action_matrix(Shift(d, p, q), window)
                assert M == RepMatrix(len(window), want)
                assert M.dropped == len(domain) - len(want)
                assert M == action_matrix(Shift(d, p, q), Truncation(None, window))


# ---------------------------------------------------------------------------
# coaction unitary
# ---------------------------------------------------------------------------

def test_coaction_check_on_bouquet():
    g = bouquet(1)
    ctx = GraphContext(g)
    grading = graph_grading(g)
    B = Truncation(ctx, enumerate_pairs(g, 2))
    G = FREE_GROUP
    z = ((0, 1),)
    window = [G.identity, z, G.mul(z, z), G.inv(z), G.mul(G.inv(z), G.inv(z))]
    report = coaction_unitary_check(grading, B, window, enumerate_pairs(g, 1))
    assert report["ok"] and report["checked"] > 0 and report["skipped"] > 0


def test_coaction_check_on_br_window():
    ctx, _ = br_z2_contexts()
    grading = br_grading(ctx)
    B = Truncation(ctx, br_window(ctx, 2))
    report = coaction_unitary_check(grading, B, range(-2, 3), br_window(ctx, 1))
    assert report["ok"] and report["checked"] > 0


def test_coaction_check_catches_non_multiplicative_degree():
    ctx, _ = br_z2_contexts()
    honest = br_grading(ctx)
    culprit = ctx.element(1, 0, 0)

    def lying(s):
        return honest.degree(s) + (2 if s == culprit else 0)

    B = Truncation(ctx, br_window(ctx, 2))
    report = coaction_unitary_check(Grading(ctx, INTEGERS, lying), B,
                                    range(-2, 3), br_window(ctx, 1))
    assert not report["ok"]


# ---------------------------------------------------------------------------
# subalgebra blocks
# ---------------------------------------------------------------------------

def test_h_block_check_idempotents_of_closure():
    S = five_element_closure()
    B = full_basis(S)
    H = [e for e in idempotents(S) if not S.is_zero(e)]
    for h in H:
        report = h_block_check(h, H, B)
        assert report["ok"] and report["compression_ok"]


def test_h_block_check_reports_a_leak_apart_from_the_compression():
    # H = {a, a*} is no subsemigroup: a a* leaves it, which is a violation,
    # while the entries that stay inside H still match Lambda_H(a)
    S = five_element_closure()
    B = full_basis(S)
    a = next(e for e in S.nonzero_elements() if S.product(e, e) != e)
    report = h_block_check(a, [a, S.star(a)], B)
    assert report["violations"] and report["compression_ok"] and not report["ok"]


def test_h_block_check_flags_a_compression_that_differs(monkeypatch):
    # the context answers the H-basis as if h killed all of it: h h = h keeps
    # the H-block of Lambda_S(h) nonzero, so only the compression is wrong
    S = five_element_closure()
    B = full_basis(S)
    H = [e for e in idempotents(S) if not S.is_zero(e)]
    honest = S.left_action

    def left_action(elements):
        if len(elements) == len(B):
            return honest(elements)
        return lambda a: np.full(len(elements), -2, dtype=np.int64)

    monkeypatch.setattr(S, "left_action", left_action)
    for h in H:
        report = h_block_check(h, H, B)
        assert not report["violations"] and not report["compression_ok"]
        assert not report["ok"]


def test_h_block_check_on_shift_bundle():
    sb = example62(3)
    inner = set(close_generators([as_pb(sb.b)]).witnesses)
    a_star = sb.star(sb.a)
    basis = [s for s in interval_shifts(-3, 4) if as_pb(s) in inner] + [
        sb.a, a_star, sb.product(sb.a, a_star)]
    B = Truncation(sb, basis)
    report = h_block_check(sb.b, sb.h_member, B)
    assert report["ok"] and report["checked"] > 0
    with pytest.raises(InputError):
        h_block_check(sb.a, sb.h_member, B)


# ---------------------------------------------------------------------------
# faithfulness of the restriction
# ---------------------------------------------------------------------------

def test_epsilon_faithfulness_trivial_grading():
    S = five_element_closure()
    G, sigma = max_group_image(S)
    grading = Grading(S, G, lambda s: sigma[s])
    report = epsilon_faithfulness_check(grading, S.nonzero_elements(), full_basis(S),
                                        trials=50, seed=5)
    assert report["ok"] and report["trials"] == 50


def test_epsilon_faithfulness_z2_grading():
    S = clifford_chain_z2()
    G, sigma = max_group_image(S)
    assert G.n == 2
    grading = Grading(S, G, lambda s: sigma[s])
    report = epsilon_faithfulness_check(grading, S.nonzero_elements(), full_basis(S),
                                        trials=100, seed=9)
    assert report["ok"] and not report["failures"]
