import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsemi.algebra import (FREE_GROUP, INTEGERS, AlgebraElement, Grading,
                             convolve, involution)
from invsemi.core import (FiniteInverseSemigroup, IXContext, PartialBijection,
                          SemigroupContext, close_generators, idempotents,
                          max_group_image, natural_leq)
from invsemi.errors import InputError, NotHermitian
from invsemi.families import br_grading, br_window, br_z2_contexts, example62
from invsemi.graphs import (DirectedGraph, GraphContext, PathPair, enumerate_pairs,
                            graph_grading)
from invsemi.rep import (RepMatrix, Truncation, _left, action_matrix,
                         coaction_unitary_check, epsilon_faithfulness_check,
                         h_block_check, lambda_matrix, min_eig,
                         norm_lower_bound, psd_refute, rep_identity_check,
                         rho_matrix)
import invsemi.rep as rep_module
from invsemi.scalars import QQi, is_exact, to_complex
from util import dict_gram, dict_product, per_column_rep_identity_check, rand_qqi


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
        assert np.allclose((A * B).to_dense(), A.to_dense() @ B.to_dense())
        assert np.allclose(A.adjoint().to_dense(), A.to_dense().conj().T)
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
        terms = []
        for _ in range(rng.randint(1, 4)):
            if n == 300:
                k = rng.randint(-2, 2)
                pb = PartialBijection({p: p + k for p in range(max(0, -k), n - max(0, k))})
            else:
                pts = rng.sample(range(n), rng.randint(1, n))
                pb = PartialBijection(dict(zip(pts, rng.sample(range(n), len(pts)))))
            terms.append((pb, random_scalar(rng, trial % 3 > 0)))
        f, B = AlgebraElement(IXContext(range(n)), terms), Truncation(None, range(n))
        M = action_matrix(f, B)
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
    assert np.allclose(M.to_dense(), tridiag_dense(m))
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
    dense = action_matrix(sb.x, sb.action_points).to_dense()
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

def banded_hermitian(rng, n, band):
    """Random complex Hermitian matrix with every diagonal up to `band` full."""
    entries = []
    for i in range(n):
        entries.append(((i, i), QQi(rng.randint(-9, 9))))
        for d in range(1, min(band, n - 1 - i) + 1):
            c = rand_qqi(rng) or QQi(1)
            entries += [((i + d, i), c), ((i, i + d), c.conjugate())]
    return RepMatrix(n, entries)


def assert_spectrum_matches(M):
    vals = np.linalg.eigvalsh(M.to_dense())
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


def test_block_solver_splits_br_square_into_degree_blocks():
    rng = random.Random(5)
    ctx, _ = br_z2_contexts()
    f = AlgebraElement(ctx, [((0, 0, 0), rand_qqi(rng)), ((1, 1, 0), rand_qqi(rng)),
                             ((2, 0, 1), rand_qqi(rng)), ((0, 1, 3), rand_qqi(rng))])
    ff = convolve(involution(f), f)
    B = Truncation(ctx, br_window(ctx, 9))
    M = lambda_matrix(ff, B)
    blocks, free = rep_module._blocks(M)
    assert (M.n, free) == (200, 0)
    assert sorted(size for size, *_ in blocks) == [20] * 10
    assert_spectrum_matches(M)
    vals = np.linalg.eigvalsh(M.to_dense())
    assert abs(norm_lower_bound(ff, B) - max(-vals[0], vals[-1])) < 1e-9


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


def test_norm_lower_bound_gram_path_for_non_hermitian(banded_calls):
    # two shift blocks of 350 points with complex weights: not Hermitian
    rng = random.Random(13)
    n, half = 700, 350
    ctx = IXContext(range(n))

    def shift(k):
        return PartialBijection({p: p + k for p in range(n - k)
                                 if (p < half) == (p + k < half)})

    f = AlgebraElement(ctx, [(PartialBijection({p: p for p in range(n)}), rand_qqi(rng)),
                             (shift(1), rand_qqi(rng)), (shift(2), rand_qqi(rng)),
                             (shift(1).inverse(), rand_qqi(rng))])
    B = Truncation(None, range(n))
    M = action_matrix(f, B)
    assert not M.is_hermitian()
    assert len(rep_module._blocks(M)[0]) == 2
    val = norm_lower_bound(f, B, rep="action")
    assert abs(val - np.linalg.svd(M.to_dense(), compute_uv=False)[0]) < 1e-9
    # bands 2 below and 1 above give a Gram band of 3; one solve per block
    assert banded_calls == [((4, half), np.complex128)] * 2


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
    """Entries added one by one: repeats sum, a zero sum removes the entry."""
    d = {}
    for key, c in entries:
        c = d[key] + c if key in d else c
        if c == 0:
            d.pop(key, None)
        else:
            d[key] = c
    return d


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
    assert np.array_equal(M.to_dense(), dense)
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
    """S with the product x y replaced by w. Neither x y nor w is zero, w is
    neither x nor y, and x is not y*, so no domain or range projection is
    miscomputed and no zero appears where S has none."""

    def __init__(self, S, x, y, w):
        self.S, self.lie, self.zero = S, (x, y, w), S.zero

    def product(self, a, b):
        x, y, w = self.lie
        return w if (a, b) == (x, y) else self.S.product(a, b)

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
        hits = {b for b, x in zip(elems, _left(S, a, elems)) if x is not None}
        assert hits == {b for b in elems if natural_leq(S.product(b, S.star(b)), aa, S)}


def test_action_matrix_rejects_a_repeated_point():
    sb = example62(3)
    points = list(sb.action_points)
    with pytest.raises(InputError):
        action_matrix(sb.x, points + points[:1])


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


def test_h_block_check_on_shift_bundle():
    sb = example62(3)
    inner = close_generators([sb.b], carrier=sb.carrier)
    basis = list(inner.witnesses) + [sb.a, sb.a.inverse(),
                                     sb.a.compose(sb.a.inverse())]
    B = Truncation(sb, [w for w in basis if w.map])
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
