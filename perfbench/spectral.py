"""spectral: shift-bundle certificates and lambda-rep positivity checks.

Almost all time is in the rep solve. The window ladder straddles the
2000-dim switch from dense LAPACK to ARPACK in rep.min_eig and
rep.norm_lower_bound; the psd ops over a Bruck-Reilly Z/2 window make the
lambda assembly a visible share. Loads rep, families, core (IX) and algebra;
bypasses graphs, jsonio and cli.
"""

from __future__ import annotations

import math
from fractions import Fraction

import scipy.sparse.linalg  # noqa: F401  (its import belongs to set-up, not to the first ARPACK op)

from invsemi import algebra, families, rep
from invsemi.scalars import QQi

from common import Op, expect, jitter

# windows n give n + 1 action points; 1960 stays dense, 2060 and 2200 go to ARPACK
MIN_EIG_WINDOWS = (100, 700, 1400, 1960, 2060)
NORM_WINDOWS = (300, 1200, 2200)
# a Bruck-Reilly window M has 2 (M + 1)^2 basis elements: 200, 800, 1352. They
# stay below 2000: there eigsh("SA") can fail to converge on a singular f* f
# (ArpackNoConvergence after 20481 iterations), a defect reported in README.md
PSD_LEVELS = (9, 19, 25)
# min_eig 1400, norm 1200 and psd 25 cost about the same, so the median and
# the tail land on like ops whether a run completes two rounds or three
WINDOW_JITTER = 0.01    # solve cost grows as n^3, so +-1% size is +-3% time
# f has a fixed support in BR(Z/2, id), so f* f and its matrix keep their
# size from seed to seed; the seed picks the coefficients
PSD_SUPPORT = ((0, 0, 0), (1, 1, 0), (2, 0, 1), (0, 1, 3))
# closed forms vs floats: dense paths agree to ~1e-15, ARPACK to ~3e-12
TOL = 1e-8


def _bundle(n):
    sb = families.example62(n)
    return sb.epsilon_xx_star(), sb.action_points


def min_eig_op(label, n):
    def run():
        eps, points = _bundle(n)
        return rep.min_eig(rep.action_matrix(eps, points))

    def check(value):
        want = 1 - 2 * math.cos(math.pi / (n + 2))
        expect(abs(value - want) <= TOL,
               f"min_eig {value!r} at window {n}, closed form {want!r}")
        return {"window": n, "min_eig": repr(value)}

    return Op(f"min_eig.{label}", "min_eig", run, check)


def norm_op(label, n):
    def run():
        eps, points = _bundle(n)
        return rep.norm_lower_bound(eps, rep.Truncation(None, points), rep="action")

    def check(value):
        want = 1 + 2 * math.cos(math.pi / (n + 2))
        expect(abs(value - want) <= TOL,
               f"norm bound {value!r} at window {n}, closed form {want!r}")
        return {"window": n, "norm_lower_bound": repr(value)}

    return Op(f"norm.{label}", "norm_lower_bound", run, check)


def psd_op(label, level, f):
    ctx = f.context

    def run():
        ff = algebra.convolve(algebra.involution(f), f)
        B = rep.Truncation(ctx, families.br_window(ctx, level))
        return rep.psd_refute(ff, B, rep="lambda")

    def check(cert):
        # a compression of the positive f* f is positive semidefinite
        expect(not cert["refuted"], f"f* f refuted at level {level}: {cert!r}")
        expect(cert["basis_size"] == 2 * (level + 1) ** 2, f"basis size {cert!r}")
        return {k: repr(v) for k, v in cert.items()}

    return Op(f"psd.{label}", "psd_refute", run, check)


def _random_element(rng, ctx):
    return algebra.AlgebraElement(ctx, [
        (s, QQi(Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 6)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
        for s in PSD_SUPPORT])


def build(rng, workdir):
    br, _ = families.br_z2_contexts()
    sized = [(w + 1, min_eig_op(w, jitter(rng, w, WINDOW_JITTER))) for w in MIN_EIG_WINDOWS]
    sized += [(w + 1, norm_op(w, jitter(rng, w, WINDOW_JITTER))) for w in NORM_WINDOWS]
    sized += [(2 * (m + 1) ** 2, psd_op(m, m, _random_element(rng, br))) for m in PSD_LEVELS]
    # a round descends the ladder by matrix size: with two BLAS threads, a
    # small dense solve right after an ARPACK op runs 2-5x slower than
    # elsewhere, and here only the 1961-dim dense solve follows one
    ops = [op for _, op in sorted(sized, key=lambda t: -t[0])]
    warmups = [min_eig_op("warm", 300), norm_op("warm", 300),
               psd_op("warm", 5, _random_element(rng, br))]
    return ops, warmups
