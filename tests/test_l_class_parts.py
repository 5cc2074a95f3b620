"""The lambda certificates on one L-class part per D-class.

`rep.l_class_parts` keeps, in each D-class of a window, the largest L-class
part, when every other part lists some of its places in the same order.
`psd_refute` and `norm_lower_bound` then solve only those parts. Here they
are compared bit for bit with the whole window's matrix, solved in full
(`util`), on the families with the hook (Bruck-Reilly, graphs). The hooks
are checked with products and stars alone: each part right-translates into
its representative, keeping places.
"""

import random

import pytest

from invsemi.algebra import AlgebraElement, convolve, involution
from invsemi.core import PartialBijection, close_generators
from invsemi.errors import NotHermitian
from invsemi.families import br_window, br_z2_contexts
from invsemi.jsonio import load_fixture
from invsemi.rep import (Truncation, l_class_parts, lambda_matrix, min_eig,
                         norm_lower_bound, psd_refute)
from util import rand_qqi, window_min_eig, window_norm


def _br(k):
    ctx = br_z2_contexts()[k]
    pool = br_window(ctx, 2) + [(4, 1, 0), (0, 0, 5)]
    return ctx, [br_window(ctx, M) for M in (3, 4, 7, 12, 25)], pool


def _graph(name, lengths):
    ctx = load_fixture(name).structure
    return ctx, [ctx.window(0, L) for L in lengths], ctx.window(0, 2)


# name -> (context, windows, pool of terms)
CASES = {
    "br_id": lambda: _br(0),
    "br_collapse": lambda: _br(1),
    "bouquet1": lambda: _graph("bouquet1", range(1, 6)),
    "bouquet2": lambda: _graph("bouquet2", (1, 3, 5)),
    "two_vertex": lambda: _graph("two_vertex", range(1, 6)),
}


def _elements(ctx, pool, rng):
    """f with exact coefficients, f* f, f + f*, and f + f* with floats."""
    support = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
    f = AlgebraElement(ctx, [(s, rand_qqi(rng)) for s in support])
    g = AlgebraElement(ctx, [(s, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                             for s in support])
    return {"f": f, "f*f": convolve(involution(f), f), "f+f*": f + involution(f),
            "float": g + involution(g)}


@pytest.mark.parametrize("name", list(CASES))
def test_part_path_matches_the_whole_window(name):
    ctx, windows, pool = CASES[name]()
    rng = random.Random(len(name))
    for elements in windows:
        B = Truncation(ctx, elements)
        assert len(l_class_parts(B)) < len(B)
        for label, f in _elements(ctx, pool, rng).items():
            assert repr(norm_lower_bound(f, B)) == repr(window_norm(f, B)), label
            try:
                want = window_min_eig(f, B)
            except NotHermitian as err:
                with pytest.raises(NotHermitian) as got:
                    psd_refute(f, B)
                assert got.value.witness == err.witness
                continue
            cert = psd_refute(f, B)
            assert repr(cert["value"]) == repr(want), label
            assert cert["basis_size"] == len(B)
            assert cert["tolerance"] == 1e-9 * len(B)


@pytest.mark.parametrize("name", list(CASES))
def test_each_part_right_translates_into_its_representative(name):
    # by products and stars alone: s = b* r for b and r at one place has
    # s s* = b* b and s* s = r* r, and x -> x s maps b's L-class part into
    # the representative, place by place, with inverse y -> y s*
    ctx, windows, pool = CASES[name]()
    split = ctx.green_coordinates
    star, mul = ctx.star, ctx.product
    for elements in windows[:2]:
        B = Truncation(ctx, elements)
        reps = l_class_parts(B).elements
        by_place = {split(r)[0]: {} for r in reps}
        for r in reps:
            by_place[split(r)[0]][split(r)[2]] = r
        f = _elements(ctx, pool, random.Random(3))["f"]
        M, R = lambda_matrix(f, B).entries, lambda_matrix(f, Truncation(ctx, reps)).entries
        at = {r: k for k, r in enumerate(reps)}
        parts = {}
        for x in B.elements:
            parts.setdefault(split(x)[:2], []).append(x)
        for (d, _), part in parts.items():
            b = part[0]
            r = by_place[d][split(b)[2]]
            s = mul(star(b), r)
            assert mul(s, star(s)) == mul(star(b), b) and mul(star(s), s) == mul(star(r), r)
            image = []
            for x in part:
                assert mul(star(x), x) == mul(star(b), b)
                y = mul(x, s)
                assert y == by_place[d][split(x)[2]] and mul(y, star(s)) == x
                image.append(at[y])
            # the part's block is the representative's on the image positions
            pos = [B.index[x] for x in part]
            for i, y in zip(pos, image):
                for j, z in zip(pos, image):
                    assert M.get((i, j)) == R.get((y, z))


def test_parts_are_one_per_d_class():
    br, _ = br_z2_contexts()
    assert len(l_class_parts(Truncation(br, br_window(br, 9)))) == 2 * 10
    bouquet2 = load_fixture("bouquet2").structure
    assert len(l_class_parts(Truncation(bouquet2, bouquet2.window(0, 4)))) == 2 ** 5 - 1
    # edge 0 runs from u to v, edge 1 loops at v: paths from u are @u, 0,
    # 1-0, 1-1-0 and from v @v, 1, 1-1, 1-1-1, one D-class per source
    two = load_fixture("two_vertex").structure
    assert len(l_class_parts(Truncation(two, two.window(0, 3)))) == 4 + 4


@pytest.mark.parametrize("elements", [
    # the largest part (n = 0) misses the place (3, 1) of the part n = 1
    [(0, 0, 0), (1, 0, 0), (2, 1, 0), (0, 0, 1), (3, 1, 1), (1, 0, 2)],
    # the part n = 1 lists the places of n = 0 in the other order
    [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 1, 1), (1, 0, 1), (0, 0, 1)],
])
def test_a_part_that_does_not_translate_keeps_the_window(elements):
    ctx, _ = br_z2_contexts()
    B = Truncation(ctx, elements)
    assert l_class_parts(B) is B
    rng = random.Random(11)
    for f in _elements(ctx, br_window(ctx, 2), rng).values():
        assert repr(norm_lower_bound(f, B)) == repr(window_norm(f, B))
        try:
            want = window_min_eig(f, B)
        except NotHermitian:
            continue
        assert repr(psd_refute(f, B)["value"]) == repr(want)


def test_a_context_without_the_hook_keeps_the_window():
    S = close_generators([PartialBijection({0: 1, 1: 2})])
    B = Truncation(S, S.nonzero_elements())
    assert S.green_coordinates is None and l_class_parts(B) is B


def test_a_non_hermitian_part_names_the_window_position():
    # the asymmetry sits in every part; psd names the window's first one
    br, _ = br_z2_contexts()
    B = Truncation(br, br_window(br, 5))
    f = AlgebraElement(br, [((1, 1, 0), 1), ((0, 0, 0), 2)])
    with pytest.raises(NotHermitian) as got:
        psd_refute(f, B)
    with pytest.raises(NotHermitian) as want:
        min_eig(lambda_matrix(f, B))
    assert got.value.witness == want.value.witness
    assert str(got.value) == str(want.value)
