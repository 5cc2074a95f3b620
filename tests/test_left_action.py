"""The left-action hook against one product per (element, basis element).

`SemigroupContext.left_action` gives, for a listed basis, one code per basis
element: its image's position, -1 when the image is not listed, -2 outside
the domain. Bruck-Reilly overrides the default in numpy, and R's codes are
those of a* on `Truncation.starred`, the starred basis. Both are compared here with the
left and right actions computed product by product, on every kind of
context, on the full window, a shuffled half of it, and terms that lie
outside the window; the matrices built from the codes are compared with
matrices built from those images. The point action of shifts is compared
the same way, on integer intervals placed around the bundle window.
"""

import random

import numpy as np
import pytest

from invsemi.algebra import AlgebraElement
from invsemi.core import GroupTable
from invsemi.families import BRContext, Shift, TQContext, br_z2_contexts, example62
from invsemi.jsonio import load_fixture
from invsemi.rep import (RepMatrix, Truncation, action_matrix, lambda_matrix,
                         norm_lower_bound, rho_matrix)
import invsemi.rep as rep_module
from invsemi.scalars import as_scalar
from util import as_pb, left_oracle, oracle_codes, rand_qqi, right_oracle

HUGE = 2 ** 70


def _words(ctx, gens, length):
    """The distinct nonzero products of one to `length` generators, in
    first-seen order."""
    found = dict.fromkeys(g for g in gens if not ctx.is_zero(g))
    layer = list(found)
    for _ in range(length - 1):
        layer = [p for a in layer for g in gens if not ctx.is_zero(p := ctx.product(a, g))]
        found.update(dict.fromkeys(layer))
    return list(found)


def _table(name):
    S = load_fixture(name).structure
    return S, S.nonzero_elements(), list(S.elements())


def _graph(name):
    ctx = load_fixture(name).structure
    return ctx, ctx.window(0, 2), ctx.window(0, 3)


def _br(ctx):
    return ctx, ctx.window(3, 0), ctx.window(4, 0) + [
        (HUGE, 1, 0), (0, 1, HUGE), (HUGE, 0, HUGE), (HUGE, 1, 2), (2, 1, HUGE)]


def _tq(n):
    ctx = TQContext(n)
    return ctx, ctx.window(0, 3), ctx.window(0, 4)


def _shift():
    sb = example62(3)
    gens = [sb.a, sb.star(sb.a), sb.e, sb.b, sb.star(sb.b)]
    return sb, _words(sb, gens, 2), _words(sb, gens, 3)


# name -> (context, window, terms): the terms reach past the window, but for
# a closed table, whose window is all of it; a half basis leaves terms out
CONTEXTS = {
    "clifford_z2": lambda: _table("clifford_z2"),
    "five_element": lambda: _table("five_element"),
    "bouquet2": lambda: _graph("bouquet2"),
    "two_vertex": lambda: _graph("two_vertex"),
    "br_id": lambda: _br(br_z2_contexts()[0]),
    "br_collapse": lambda: _br(br_z2_contexts()[1]),
    # x -> 2x on Z/6 sends 1 to 2, 4, 2, 4, ...: one step, then period 2
    "br_z6_double": lambda: _br(BRContext(
        GroupTable([[(i + j) % 6 for j in range(6)] for i in range(6)]),
        [2 * x % 6 for x in range(6)])),
    "tq1": lambda: _tq(1),
    "tq2": lambda: _tq(2),
    "shift": _shift,
}


def _bases(window, seed=0):
    """The full window and a shuffled half of it."""
    half = list(window)
    random.Random(seed).shuffle(half)
    return {"full": list(window), "half": half[: len(half) // 2]}


def _cases():
    for name, make in CONTEXTS.items():
        for basis in ("full", "half"):
            yield pytest.param(make, basis, id=f"{name}-{basis}")


@pytest.mark.parametrize("make, basis", _cases())
def test_codes_match_the_product_oracle(make, basis):
    ctx, window, terms = make()
    elements = _bases(window)[basis]
    B = Truncation(ctx, elements)
    assert basis == "full" or any(t not in B for t in terms)
    for a in terms:
        left, right = B.left(a), B.starred.left(ctx.star(a))
        assert left.dtype == right.dtype == np.int64
        assert left.tolist() == oracle_codes(left_oracle(ctx, a, elements), elements)
        assert right.tolist() == oracle_codes(right_oracle(ctx, a, elements), elements)


@pytest.mark.parametrize("far", [2 ** 40, HUGE], ids=["past-int64-keys", "past-int64"])
def test_br_codes_on_a_basis_with_far_indices(far):
    # keys of such a basis would overflow int64, so the generic action answers
    for ctx in br_z2_contexts():
        elements = ctx.window(2, 0) + [(far, 1, 0), (0, 0, far), (far, 1, far + 1)]
        B = Truncation(ctx, elements)
        for a in ctx.window(3, 0) + [(far, 0, 0), (0, 1, far), (1, 1, far + 1)]:
            assert B.left(a).tolist() == oracle_codes(left_oracle(ctx, a, elements), elements)
            assert (B.starred.left(ctx.star(a)).tolist()
                    == oracle_codes(right_oracle(ctx, a, elements), elements))


def _oracle_matrix(n, index, terms, images):
    """The matrix of sum_s c_s T_s from per-column images, in (term, column)
    order: None is no entry, an image outside the index is dropped."""
    found = [(index.get(x, -1), j, t) for t, s in enumerate(terms)
             for j, x in enumerate(images(s)) if x is not None]
    kept = [f for f in found if f[0] >= 0]
    rows, cols, tids = (np.array([f[k] for f in kept], dtype=np.int64) for k in range(3))
    return RepMatrix._from_coo(n, rows, cols, tids, [as_scalar(c) for c in terms.values()],
                               len(found) - len(kept))


def _same(M, N):
    return (M.n == N.n and M.dropped == N.dropped
            and all(np.array_equal(getattr(M, k), getattr(N, k))
                    for k in ("rows", "cols", "vids"))
            and list(map(repr, M.values)) == list(map(repr, N.values)))


@pytest.mark.parametrize("make, basis", _cases())
def test_lambda_and_rho_match_matrices_from_the_oracle(make, basis, monkeypatch):
    ctx, window, terms = make()
    elements = _bases(window)[basis]
    B = Truncation(ctx, elements)
    rng = random.Random(7)
    for trial in range(4):
        support = [rng.choice(terms) for _ in range(rng.randint(1, 6))]
        exact = AlgebraElement(ctx, [(s, rand_qqi(rng)) for s in support])
        floats = AlgebraElement(ctx, [(s, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                                      for s in support])
        for f in (exact, floats):
            for rep, build, oracle in (("lambda", lambda_matrix, left_oracle),
                                       ("rho", rho_matrix, right_oracle)):
                want = _oracle_matrix(len(B), B.index, f.terms,
                                      lambda s: oracle(ctx, s, B.elements))
                assert _same(build(f, B), want)
                if f is floats and B.elements:
                    # the norm bound reads nothing but the matrix: equal bits
                    got = norm_lower_bound(f, B, rep)
                    with monkeypatch.context() as m:
                        m.setattr(rep_module, "_build", lambda *_: want)
                        assert repr(norm_lower_bound(f, B, rep)) == repr(got)


@pytest.mark.parametrize("n", [1, 4, 40])
def test_action_matrix_matches_point_images(n):
    # the action points 0..n, and sub-intervals inside the bundle window
    # [-n, n+1], across each of its edges, and disjoint from it
    sb = example62(n)
    rng = random.Random(n)
    windows = [sb.action_points, range(1 - n, n), range(n - 1, n + 4),
               list(range(-n - 3, 2 - n)), range(n + 3, n + 6)]
    shifts = [Shift(d, max(-n, -n - d), min(n + 1, n + 1 - d)) for d in (-2, -1, 0, 1, 3)]
    for window in windows:
        B = Truncation(None, window)
        for _ in range(3):
            f = AlgebraElement(sb, [(rng.choice(shifts + [sb.e, sb.b]), rand_qqi(rng))
                                    for _ in range(rng.randint(1, 4))])
            want = _oracle_matrix(len(B), B.index, f.terms,
                                  lambda s: map(as_pb(s).map.get, B.elements))
            assert _same(action_matrix(f, B), want) and _same(action_matrix(f, window), want)
