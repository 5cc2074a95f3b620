"""The lambda and rho certificates on one L-class part per D-class.

`rep.l_class_parts` keeps, in each D-class of a window, the largest L-class
part, when every other part lists some of its places in the same order.
`psd_refute` and `norm_lower_bound` then solve only those parts, rho through
the flip: rho(f) on B is lambda of f-check = sum f(s) s* on `B.starred`.
Here they are compared with the whole window's matrix, solved in full
(`util`), on the families with the hook: bit for bit on Bruck-Reilly and
graphs, and within 1e-12 on Toeplitz, whose smaller parts are cut from the
largest one, so the window's other blocks can only lower its smallest
computed eigenvalue and raise its largest. The hooks are checked with
products and stars alone: each part right-translates into its
representative, keeping places.
"""

import random

import pytest

from invsemi.algebra import AlgebraElement, convolve, involution
from invsemi.core import PartialBijection, close_generators
from invsemi.errors import NotHermitian
from invsemi.families import TQContext, br_window, br_z2_contexts
from invsemi.jsonio import load_fixture
from invsemi.rep import (Truncation, l_class_parts, lambda_matrix, min_eig,
                         norm_lower_bound, psd_refute, rho_matrix)
from util import rand_qqi, window_min_eig, window_norm


def _br(k):
    ctx = br_z2_contexts()[k]
    pool = br_window(ctx, 2) + [(4, 1, 0), (0, 0, 5)]
    return ctx, [br_window(ctx, M) for M in (3, 4, 7, 12, 25)], pool


def _graph(name, lengths):
    ctx = load_fixture(name).structure
    return ctx, [ctx.window(0, L) for L in lengths], ctx.window(0, 2)


def _tq(n, lengths):
    ctx = TQContext(n)
    return ctx, [ctx.window(0, L) for L in lengths], ctx.window(0, 2)


# name -> (context, windows, pool of terms)
CASES = {
    "br_id": lambda: _br(0),
    "br_collapse": lambda: _br(1),
    "bouquet1": lambda: _graph("bouquet1", range(1, 6)),
    "bouquet2": lambda: _graph("bouquet2", (1, 3, 5)),
    "two_vertex": lambda: _graph("two_vertex", range(1, 6)),
    "tq1": lambda: _tq(1, (1, 2, 5, 9, 16)),
    "tq2": lambda: _tq(2, (1, 2, 4, 6)),
}
# the cases whose parts carry the window's values to the bit
BIT_EQUAL = {"br_id", "br_collapse", "bouquet1", "bouquet2", "two_vertex"}
MATRIX = {"lambda": lambda_matrix, "rho": rho_matrix}


def _elements(ctx, pool, rng):
    """f with exact coefficients, f* f, f + f*, and f + f* with floats."""
    support = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
    f = AlgebraElement(ctx, [(s, rand_qqi(rng)) for s in support])
    g = AlgebraElement(ctx, [(s, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                             for s in support])
    return {"f": f, "f*f": convolve(involution(f), f), "f+f*": f + involution(f),
            "float": g + involution(g)}


def _check(name, rep, f, B):
    """psd and norm on the parts against the whole window's rep matrix."""
    matrix = MATRIX[rep]
    norm, want_norm = norm_lower_bound(f, B, rep), window_norm(f, B, matrix)
    try:
        want = window_min_eig(f, B, matrix)
    except NotHermitian as err:
        with pytest.raises(NotHermitian) as got:
            psd_refute(f, B, rep)
        assert got.value.witness == err.witness
        want = None
    if name in BIT_EQUAL:
        assert repr(norm) == repr(want_norm)
    else:
        assert want_norm - 1e-12 <= norm <= want_norm
    if want is None:
        return
    cert = psd_refute(f, B, rep)
    if name in BIT_EQUAL:
        assert repr(cert["value"]) == repr(want)
    else:
        assert want <= cert["value"] <= want + 1e-12
    assert cert["basis_size"] == len(B)
    assert cert["part_size"] == len(l_class_parts(B if rep == "lambda" else B.starred))
    assert cert["tolerance"] == 1e-9 * cert["part_size"]


def _compare_windows(name, rep):
    ctx, windows, pool = CASES[name]()
    rng = random.Random(len(name))
    for elements in windows:
        B = Truncation(ctx, elements)
        assert len(l_class_parts(B if rep == "lambda" else B.starred)) < len(B)
        for f in _elements(ctx, pool, rng).values():
            _check(name, rep, f, B)


@pytest.mark.parametrize("name", list(CASES))
def test_part_path_matches_the_whole_window(name):
    _compare_windows(name, "lambda")


@pytest.mark.parametrize("name", list(CASES))
def test_rho_part_path_matches_the_whole_window(name):
    _compare_windows(name, "rho")


@pytest.mark.parametrize("name", ["br_id", "bouquet2", "tq2"])
def test_rho_is_lambda_of_the_flip_on_a_window_that_is_not_star_closed(name):
    # J rho(f) J = lambda(f-check), f-check = sum f(s) s*: rho(f) on B is
    # lambda(f-check) on the stars of B, at B's positions, value for value
    ctx, windows, pool = CASES[name]()
    elements = list(windows[2])
    random.Random(7).shuffle(elements)
    B = Truncation(ctx, elements[: len(elements) // 2])
    assert any(ctx.star(b) not in B for b in B.elements)
    assert B.starred.elements == [ctx.star(b) for b in B.elements]
    rng = random.Random(2)
    for f in _elements(ctx, pool, rng).values():
        flipped = AlgebraElement(ctx, [(ctx.star(s), c) for s, c in f.terms.items()])
        R, L = rho_matrix(f, B), lambda_matrix(flipped, B.starred)
        assert (R.rows.tolist(), R.cols.tolist(), R.vids.tolist(), R.dropped) == (
            L.rows.tolist(), L.cols.tolist(), L.vids.tolist(), L.dropped)
        assert list(map(repr, R.values)) == list(map(repr, L.values))
        _check(name, "rho", f, B)


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


def _names_the_window_position(rep):
    # the asymmetry sits in every part; psd names the window's first one
    br, _ = br_z2_contexts()
    B = Truncation(br, br_window(br, 5))
    assert len(l_class_parts(B if rep == "lambda" else B.starred)) < len(B)
    f = AlgebraElement(br, [((1, 1, 0), 1), ((0, 0, 0), 2)])
    with pytest.raises(NotHermitian) as got:
        psd_refute(f, B, rep)
    with pytest.raises(NotHermitian) as want:
        min_eig(MATRIX[rep](f, B))
    assert got.value.witness == want.value.witness
    assert str(got.value) == str(want.value)


def test_a_non_hermitian_part_names_the_window_position():
    _names_the_window_position("lambda")


def test_a_non_hermitian_rho_part_names_the_window_position():
    _names_the_window_position("rho")
