"""Closed-form spectra of lambda on the families' windows.

Each element below acts on every L-class part of its window as the
adjacency operator of a path or a tree, so `norm_lower_bound` must give that
operator's top eigenvalue, whether it solves one part per D-class (the
Bruck-Reilly and graph windows) or the whole window (Toeplitz, whose
context names no Green coordinates):

* on a Bruck-Reilly window of level M, a = (1, 0, 0), whose group part is
  the identity, moves (m, g, n) to (m + 1, g, n): a + a* is two paths of
  M + 1 points, norm 2cos(pi/(M + 2));
* on bouquet2 at length L, the two loops s0, s1 grow a path at its range:
  s0 + s0* + s1 + s1* is the binary tree of depth L, whose top eigenvalue
  is 2 sqrt(2) cos(pi/(L + 2));
* on the Toeplitz window of (Z, N) at length L, v = (1, 0) moves (s, t) to
  (s + 1, t): the part t = 0 is a path of L + 1 points, the others shorter.
"""

import math
from fractions import Fraction

import pytest

from invsemi.algebra import AlgebraElement
from invsemi.families import TQContext, br_window, br_z2_contexts
from invsemi.graphs import PathPair
from invsemi.jsonio import load_fixture
from invsemi.rep import Truncation, norm_lower_bound


def _self_adjoint_sum(ctx, terms, weight=1):
    return AlgebraElement(ctx, [(s, weight) for a in terms for s in (a, ctx.star(a))])


@pytest.mark.parametrize("M", [5, 10, 20, 40])
def test_bruck_reilly_shift(M):
    ctx, _ = br_z2_contexts()
    f = _self_adjoint_sum(ctx, [(1, 0, 0)])
    got = norm_lower_bound(f, Truncation(ctx, br_window(ctx, M)))
    assert got == pytest.approx(2 * math.cos(math.pi / (M + 2)), abs=1e-12)


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_bouquet2_tree(L):
    ctx = load_fixture("bouquet2").structure
    g = ctx.graph
    loops = [PathPair(g.path([e]), g.empty_path("v")) for e in (0, 1)]
    f = _self_adjoint_sum(ctx, loops, weight=Fraction(1, 4))
    got = norm_lower_bound(f, Truncation(ctx, ctx.window(0, L)))
    assert got == pytest.approx(math.sqrt(2) / 2 * math.cos(math.pi / (L + 2)), abs=1e-12)


@pytest.mark.parametrize("L", [2, 4, 8])
def test_toeplitz_isometry(L):
    ctx = TQContext(1)
    f = _self_adjoint_sum(ctx, [((1,), (0,))])
    got = norm_lower_bound(f, Truncation(ctx, ctx.window(0, L)))
    assert got == pytest.approx(2 * math.cos(math.pi / (L + 2)), abs=1e-12)
