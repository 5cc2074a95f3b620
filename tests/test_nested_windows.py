"""psd verdicts that a larger window cannot weaken.

A window's matrix is a compression of the one on any window that contains
it, so by Cauchy interlacing its smallest eigenvalue can only fall as the
window grows. `psd_refute` reads its default tolerance from the rows it
solves (one L-class part per D-class, 1e-9 per row), not from the whole
window: it grows with the part (2(M + 1) rows at Bruck-Reilly level M), not
with the window (2(M + 1)^2 elements), so a refutation stays one on every
larger window of a chain unless it clears the tolerance by less than that
growth. Checked on nested Bruck-Reilly levels, graph and Toeplitz lengths,
and point windows of the shift action, for g = f* f - c (p + p*) with p
one element of the smallest window; and on a Bruck-Reilly case that the old
default tolerance, 1e-9 per window element, stopped refuting between levels
30 and 200.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from invsemi.algebra import AlgebraElement, convolve, involution
from invsemi.families import br_window, br_z2_contexts, example62
from invsemi.rep import Truncation, psd_refute
from invsemi.scalars import QQi

from test_l_class_parts import CASES


def _shifted(f, c, *ps):
    """f* f - c (p1 + p2 + ...)."""
    ff = convolve(involution(f), f)
    return AlgebraElement(f.context, [*ff.terms.items(), *((p, -c) for p in ps)])


def _verdicts(g, windows, rep="lambda"):
    context = None if rep == "action" else g.context
    return [psd_refute(g, Truncation(context, w), rep)["refuted"] for w in windows]


def _assert_monotone(verdicts):
    # once refuted, refuted on every larger window of the chain
    assert verdicts == sorted(verdicts)


@settings(max_examples=16)
@given(st.sampled_from(sorted(CASES)), st.sampled_from(["lambda", "rho"]), st.data())
def test_a_refutation_stays_on_a_larger_window(name, rep, data):
    ctx, windows, pool = CASES[name]()
    support = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    f = AlgebraElement(ctx, [(s, QQi(Fraction(data.draw(st.integers(-4, 4)), 2)))
                             for s in support])
    p = data.draw(st.sampled_from(sorted(windows[0], key=repr)))
    c = QQi(Fraction(data.draw(st.integers(0, 16)), 8))
    _assert_monotone(_verdicts(_shifted(f, c, p, ctx.star(p)), windows, rep))


@settings(max_examples=8)
@given(st.integers(0, 24), st.integers(-8, 8))
def test_an_action_refutation_stays_on_a_larger_point_window(c, sign):
    # epsilon(x x*) = e - b - b* of Example 6.2 plus c/8 e, on nested point
    # windows of the bundle at n = 12; its minimum 1 - 2 cos(pi/(n + 2))
    # falls with n, so small windows are positive and large ones refuted
    sb = example62(12)
    g = sb.epsilon_xx_star() + AlgebraElement(sb, [(sb.e, QQi(Fraction(c + sign, 8)))])
    points = [range(-n, n + 2) for n in (1, 2, 4, 8, 12)]
    _assert_monotone(_verdicts(g, points, rep="action"))


def test_the_bruck_reilly_case_stays_refuted_at_level_200():
    # f as perfbench's spectral workload draws it with Random(1), and c just
    # above the smallest eigenvalue of f* f. Level 30 refutes f* f - c at
    # lambda_min -4.65e-5; at level 200 the old tolerance was 8.1e-5 and
    # beat lambda_min -5.00e-5
    br, _ = br_z2_contexts()
    f = AlgebraElement(br, [((0, 0, 0), QQi(1, Fraction(-3, 2))),
                            ((1, 1, 0), QQi(Fraction(-4, 3), Fraction(3, 2))),
                            ((2, 0, 1), QQi(-2, Fraction(3, 4))),
                            ((0, 1, 3), QQi(Fraction(-1, 3), Fraction(-2, 5)))])
    g = _shifted(f, 0.5177325 + 5e-5, (0, 0, 0))
    low, high = (psd_refute(g, Truncation(br, br_window(br, M))) for M in (30, 200))
    assert low["refuted"] and high["refuted"]
    assert low["part_size"] == 62 and high["part_size"] == 402
    assert high["basis_size"] == 2 * 201 ** 2
    assert high["value"] <= low["value"] < -4e-5
    assert high["tolerance"] == 1e-9 * 402
