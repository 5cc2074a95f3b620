"""Worked families of inverse semigroups.

Three constructions exercise the graded machinery away from graphs:

* Bruck-Reilly extensions BR(G, theta): triples (m, a, n) over a finite
  group G twisted by an endomorphism theta, graded over Z by m - n.
* A truncated-shift bundle on the integer window [-n, n+1]: constant shifts
  on intervals, each stored as three integers (d, p, q), so a product costs
  O(1) at any window. It holds the full shift a, the idempotent e on
  [0, n], their product b = a e, and the element x = e - a whose restricted
  expectation is the three-term tridiagonal element e - b - b*.
* Toeplitz semigroups of the quasi-lattice (Z^n, N^n): normal forms (s, t)
  of positive cone pairs, graded over Z^n by s - t.

Everything here is exact integer and table arithmetic; numerics enter only
at the representation layer.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .algebra import (
    INTEGERS,
    AlgebraElement,
    Grading,
    epsilon_restrict,
    product_group,
    zn_group,
)
from .core import (
    GroupTable,
    SemigroupContext,
    homomorphism_witness,
    natural_leq,
)
from .errors import IdentityMismatch, InputError


# ---------------------------------------------------------------------------
# Bruck-Reilly extensions
# ---------------------------------------------------------------------------

class BRContext(SemigroupContext):
    """BR(G, theta): elements (m, a, n) with m, n in N and a in G.

    theta is an endomorphism of G given as an index map. The product raises
    the lower indices to a common level t and twists both group parts:
    (m,a,n)(i,b,j) = (m-n+t, theta^(t-n)(a) theta^(t-i)(b), j-i+t).
    """

    def __init__(self, group: GroupTable, theta):
        self.group = group
        self.theta = tuple(theta)
        if len(self.theta) != group.n or any(not (0 <= v < group.n) for v in self.theta):
            raise InputError("theta must map the group into itself")
        if self.theta[group.identity] != group.identity:
            raise InputError("theta must fix the identity")
        bad = homomorphism_witness(group.table, self.theta.__getitem__, group)
        if bad is not None:
            raise InputError(f"theta not multiplicative at ({bad[0]},{bad[1]})")
        # theta's powers are eventually periodic: keep them up to the first
        # repeat, theta^len(_powers) = theta^_cycle
        powers, first = [tuple(range(group.n))], {}
        while powers[-1] not in first:
            first[powers[-1]] = len(powers) - 1
            powers.append(tuple(self.theta[v] for v in powers[-1]))
        self._cycle = first[powers.pop()]
        self._powers = tuple(powers)

    def __eq__(self, other):
        return other is self or (isinstance(other, BRContext) and self.theta == other.theta
                                 and np.array_equal(self.group.table, other.group.table))

    def __hash__(self):
        return hash((self.group.table.tobytes(), self.theta))

    def theta_pow(self, k, a):
        if k >= len(self._powers):
            k = self._cycle + (k - self._cycle) % (len(self._powers) - self._cycle)
        return self._powers[k][a]

    def element(self, m, a, n):
        if m < 0 or n < 0 or not (0 <= a < self.group.n):
            raise InputError(f"bad triple ({m},{a},{n})")
        return (m, a, n)

    def product(self, p, q):
        # t = max(n, i) leaves one of the two twists at theta^0
        m, a, n = p
        i, b, j = q
        if n >= i:
            return (m, self.group.mul(a, self.theta_pow(n - i, b)), j - i + n)
        return (m - n + i, self.group.mul(self.theta_pow(i - n, a), b), j)

    def star(self, p):
        m, a, n = p
        return (n, self.group.inv(a), m)

    @staticmethod
    def green_coordinates(p):
        """BR is bisimple; (m, a, n) lies in the L-class of (n, 1, n), and
        (m, a, n)(n, 1, n') = (m, a, n') keeps the place (m, a)."""
        m, a, n = p
        return 0, n, (m, a)

    def left_action(self, elements):
        """The left action in numpy: b = (i, c, j) lies in dom(m, x, n)
        exactly when i >= n, and then (m, x, n) b = (m - n + i,
        theta^(i-n)(x) c, j), looked up among the sorted keys of the list.

        A term whose indices lie past the list is answered in Python, so no
        index reaches numpy that the list does not bound; a list whose keys
        would not fit in int64 takes the generic action.
        """
        g = self.group.n
        try:
            I, C, J = np.array(elements, dtype=np.int64).reshape(-1, 3).T
        except OverflowError:
            return super().left_action(elements)
        width = 1 + int(max(I.max(initial=0), J.max(initial=0)))
        if 4 * width * width * g >= 2 ** 63:
            return super().left_action(elements)
        keys = (I * width + J) * g + C
        order = np.argsort(keys)
        keys = keys[order]
        top = int(I.max(initial=-1))
        powers = np.array(self._powers, dtype=np.int64)
        cycle, period = self._cycle, len(self._powers) - self._cycle
        mul = np.array(self.group.table, dtype=np.int64)
        outside = np.full(len(elements), -2, dtype=np.int64)

        def act(a):
            m, x, n = a
            if n > top:
                return outside.copy()
            if m - n > top:
                return np.where(I >= n, -1, -2)
            domain = np.flatnonzero(I >= n)
            k = I[domain] - n
            k = np.where(k < len(powers), k, cycle + (k - cycle) % period)
            image = ((I[domain] + (m - n)) * width + J[domain]) * g + mul[powers[k, x], C[domain]]
            at = np.minimum(np.searchsorted(keys, image), len(keys) - 1)
            codes = outside.copy()
            codes[domain] = np.where(keys[at] == image, order[at], -1)
            return codes

        return act

    def grading(self) -> Grading:
        return Grading(self, INTEGERS, br_phi)

    def window(self, window, length):
        """All triples with both indices at most `window`, in deterministic order."""
        return [(m, a, n) for m in range(window + 1) for n in range(window + 1)
                for a in range(self.group.n)]

    def coset_rep(self, k):
        """The canonical degree-k element carrying the group identity."""
        e = self.group.identity
        return (k, e, 0) if k >= 0 else (0, e, -k)

    def group_window(self, basis, grading, window):
        """Every degree from -window to window."""
        return range(-window, window + 1)


def br_phi(p) -> int:
    m, _, n = p
    return m - n


# perfbench and the tests call these by name
br_grading, br_coset_rep = BRContext.grading, BRContext.coset_rep


def br_window(ctx: BRContext, M: int):
    return ctx.window(M, 0)   # the length bound does not apply


def br_refined_grading(ctx: BRContext) -> Grading:
    """Grading into Z x G whose kernel is exactly the idempotents.

    Needs theta to be the identity automorphism; a proper twist folds group
    parts across levels and no such refinement exists.
    """
    if any(ctx.theta[a] != a for a in range(ctx.group.n)):
        raise InputError("refined grading needs the untwisted extension")
    return Grading(ctx, product_group(INTEGERS, ctx.group),
                   lambda p: (p[0] - p[2], p[1]))


def br_omega_coset_check(ctx: BRContext, M: int) -> dict:
    """Windowed check that upward closures of rep-translated kernels are
    exactly the degree fibers.

    The kernel of the Z-grading is enumerated on the doubled window [0, 2M],
    which is wide enough that every fiber element t of the base window sees
    s (s* t) below it. Returns per-degree verdicts.
    """
    degrees = range(-M, M + 1)
    grading = br_grading(ctx)
    window = br_window(ctx, M)
    fibers = grading.fibers(window)
    kernel_big = grading.fibers(br_window(ctx, 2 * M))[0]
    per_degree = {}
    for k in degrees:
        s = br_coset_rep(ctx, k)
        translated = {ctx.product(s, h) for h in kernel_big}
        upward = {t for t in window if any(natural_leq(u, t, ctx) for u in translated)}
        per_degree[k] = upward == set(fibers.get(k, ()))
    return {
        "window": M,
        "degrees": list(degrees),
        "failures": [k for k in degrees if not per_degree[k]],
        "ok": all(per_degree.values()),
    }


def br_z2_contexts():
    """The two BR extensions of Z/2: untwisted, and collapsed by the trivial
    endomorphism."""
    z2 = GroupTable([[0, 1], [1, 0]], labels=["1", "g"])
    return BRContext(z2, [0, 1]), BRContext(z2, [0, 0])


# ---------------------------------------------------------------------------
# the truncated shift bundle
# ---------------------------------------------------------------------------

class Shift(tuple):
    """The partial map x -> x + d on the integers of [p, q], stored as the
    plain tuple (d, p, q); the map is empty when p > q, and the bundle keeps
    one canonical empty shift, its zero. It prints as Shift(d, p, q)."""

    __slots__ = ()

    def __new__(cls, d, p, q):
        return tuple.__new__(cls, (d, p, q))

    def __repr__(self):
        return f"Shift{tuple.__repr__(self)}"

    def point_codes(self, lo, n):
        """One int64 code per point of lo, ..., lo + n - 1: the offset of
        x + d, -1 when x + d leaves the window, -2 outside [p, q]. Bounds
        stay Python ints that slices clamp, so any size is exact."""
        d, p, q = self
        codes = np.full(n, -2, dtype=np.int64)
        codes[max(p - lo, 0):max(q - lo + 1, 0)] = -1     # [p, q] in the window
        p, q = max(p, lo, lo - d), min(q, lo + n - 1, lo + n - 1 - d)
        if p <= q:                                          # ... and its image
            codes[p - lo:q - lo + 1] = np.arange(p + d - lo, q + d - lo + 1)
        return codes


EMPTY_SHIFT = Shift(0, 1, 0)


class ShiftBundle(SemigroupContext):
    """Constant shifts on intervals of the integer window [-n, n+1].

    a is the full forward shift, e the identity on [0, n], b = a e the
    shifted corner, and x = e - a. Every product and star is a constant
    shift on an interval, computed in O(1) on (d, p, q). The subsemigroup
    generated by b consists of the shifts whose domain and range both sit
    inside [0, n+1], except the full identity on [0, n+1] itself, which no
    nonempty word in b and b* reaches. Restricting x x* to that
    subsemigroup drops the one term with negative domain and leaves
    e - b - b* exactly.
    """

    zero = EMPTY_SHIFT

    def __init__(self, n: int):
        if n < 1:
            raise InputError("window size must be at least 1")
        self.n = n
        self.a = Shift(1, -n, n)
        self.e = Shift(0, 0, n)
        self.b = Shift(1, 0, n)

    def __eq__(self, other):
        return isinstance(other, ShiftBundle) and self.n == other.n

    def __hash__(self):
        return hash(("shift", self.n))

    def product(self, a, b):
        """a after b: x + d_b must land in [p_a, q_a]."""
        da, pa, qa = a
        db, pb, qb = b
        p, q = max(pb, pa - db), min(qb, qa - db)
        return Shift(da + db, p, q) if p <= q else EMPTY_SHIFT

    def star(self, a):
        d, p, q = a
        return Shift(-d, p + d, q + d)

    @property
    def x(self) -> AlgebraElement:
        """e - a, built on each access (see SemigroupContext)."""
        return AlgebraElement(self, [(self.e, 1), (self.a, -1)])

    @property
    def action_points(self):
        """The points 0..n the restricted square acts on, as a range; a
        window past rep's action cap is refused by action_matrix."""
        return range(0, self.n + 1)

    def shift_degree(self, s: Shift) -> int:
        """The constant displacement of a shift; identities have degree 0."""
        if s == EMPTY_SHIFT:
            raise InputError("the empty map carries no degree")
        return s[0]

    def grading(self) -> Grading:
        return Grading(self, INTEGERS, self.shift_degree)

    def window(self, window, length):
        """e, b and a; the bundle's own window n fixes its basis."""
        return [self.e, self.b, self.a]

    def expectation_domain(self):
        return self.h_member

    def h_member(self, s: Shift) -> bool:
        """Membership in the inverse subsemigroup generated by b: the empty
        shift, and each shift by d on [p, q] with [p, q] and [p+d, q+d]
        inside [0, n+1]; a word of positive length always loses one
        endpoint, which excludes the full identity on [0, n+1]."""
        if s == EMPTY_SHIFT:
            return True
        d, p, q = s
        top = self.n + 1
        return max(0, -d) <= p and q <= top - max(0, d) and not (d == 0 and p == 0 and q == top)

    def xx_star(self) -> AlgebraElement:
        x = self.x
        return x * x.star()

    def epsilon_xx_star(self) -> AlgebraElement:
        """epsilon(x x*) = e - b - b*, asserted exactly."""
        got = epsilon_restrict(self.xx_star(), self.h_member)
        want = AlgebraElement(self, [(self.e, 1), (self.b, -1), (self.star(self.b), -1)])
        if got != want:
            raise IdentityMismatch("epsilon(x x*) is not e - b - b*",
                                   witness=(got.terms, want.terms))
        return got


def example62(n: int) -> ShiftBundle:
    return ShiftBundle(n)


# ---------------------------------------------------------------------------
# Toeplitz semigroups of (Z^n, N^n)
# ---------------------------------------------------------------------------

def ql_lub(t, u):
    """Componentwise least upper bound in N^n."""
    return tuple(max(x, y) for x, y in zip(t, u))


class TQContext(SemigroupContext):
    """Normal forms (s, t) over the positive cone N^n.

    The product joins at w = lub(t, u) and shifts both sides up:
    (s,t)(u,v) = (s + (w-t), v + (w-u)). There is no zero: every pair of
    cone points has a common upper bound.
    """

    def __init__(self, n: int):
        if n < 1:
            raise InputError("cone rank must be at least 1")
        self.n = n

    def __eq__(self, other):
        return isinstance(other, TQContext) and self.n == other.n

    def __hash__(self):
        return hash(("TQ", self.n))

    def element(self, s, t):
        s, t = tuple(s), tuple(t)
        if len(s) != self.n or len(t) != self.n:
            raise InputError(f"cone points must have {self.n} coordinates")
        if any(x < 0 for x in s + t):
            raise InputError("cone points must be nonnegative")
        return (s, t)

    def identity(self):
        z = (0,) * self.n
        return (z, z)

    def product(self, p, q):
        s, t = p
        u, v = q
        w = ql_lub(t, u)
        return (tuple(a + (c - b) for a, b, c in zip(s, t, w)),
                tuple(a + (c - b) for a, b, c in zip(v, u, w)))

    def star(self, p):
        s, t = p
        return (t, s)

    @staticmethod
    def green_coordinates(p):
        """TQ is bisimple; (s, t) lies in the L-class of (t, t), and
        (s, t)(t, t') = (s, t') keeps the place s."""
        s, t = p
        return 0, t, s

    def grading(self) -> Grading:
        return Grading(self, zn_group(self.n), tq_phi)

    def window(self, window, length):
        """All normal forms (s, t) of generator-word length sum(s) + sum(t)
        at most `length`, in deterministic order."""
        def cones(budget):
            points = [((), budget)]     # (point, budget left), by coordinate
            for _ in range(self.n):
                points = [(p + (head,), left - head)
                          for p, left in points for head in range(left + 1)]
            return points

        return sorted((s, t) for s, left in cones(length) for t, _ in cones(left))


def tq_phi(p):
    s, t = p
    return tuple(a - b for a, b in zip(s, t))


def tq_generators(ctx: TQContext):
    """The isometric generators beta_i = (e_i, 0) of the n cone directions."""
    zero = (0,) * ctx.n
    out = []
    for i in range(ctx.n):
        e_i = tuple(1 if j == i else 0 for j in range(ctx.n))
        out.append((e_i, zero))
    return out


def tq_apply(p, point):
    """The pair (s, t) as a partial map on cone points: x -> x - t + s when
    x >= t, undefined otherwise."""
    s, t = p
    if any(x < b for x, b in zip(point, t)):
        return None
    return tuple(x - b + a for x, a, b in zip(point, s, t))


def quasi_lattice_check(n: int, bound: int = 3) -> dict:
    """Exhaustively verify the lub axioms on the box [0, bound]^n."""
    pts = list(itertools.product(range(bound + 1), repeat=n))
    geq = lambda x, y: all(a >= b for a, b in zip(x, y))
    pairs_checked = 0
    failures = []
    for t in pts:
        for u in pts:
            pairs_checked += 1
            w = ql_lub(t, u)
            if not (geq(w, t) and geq(w, u)):
                failures.append({"t": t, "u": u, "lub": w, "reason": "not an upper bound"})
                continue
            for c in pts:
                if geq(c, t) and geq(c, u) and not geq(c, w):
                    failures.append({"t": t, "u": u, "lub": w, "witness": c,
                                     "reason": "not least"})
                    break
    return {"n": n, "bound": bound, "pairs_checked": pairs_checked,
            "failures": failures, "ok": not failures}


def _tq_windowed_word_action(ctx, letters, point, N):
    """Apply a generator word right to left, clamping to the box [0, N]^n."""
    gens = tq_generators(ctx)
    cur = point
    for i, sign in reversed(letters):
        g = gens[i] if sign == 1 else ctx.star(gens[i])
        cur = tq_apply(g, cur)
        if cur is None or any(x > N for x in cur):
            return None
    return cur


def tq_oracle_check(n: int, N: int, max_len: int, trials: int = 200,
                    seed: int = 0) -> dict:
    """Compare windowed generator-word actions with the normal-form action.

    On interior points (all coordinates at most N - word length) the box
    never clips an intermediate value from above, so the two must agree
    exactly, including where both are undefined: the cone floor is genuine.
    """
    if max_len < 1:
        raise InputError("word length bound must be at least 1")
    ctx = TQContext(n)
    gens = tq_generators(ctx)
    rng = random.Random(seed)
    points = list(itertools.product(range(N + 1), repeat=n))
    checked = 0
    skipped = 0
    mismatches = []
    for _ in range(trials):
        L = rng.randint(1, max_len)
        letters = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(L)]
        elem = ctx.identity()
        for i, sign in letters:
            g = gens[i] if sign == 1 else ctx.star(gens[i])
            elem = ctx.product(elem, g)
        interior = [p for p in points if all(x <= N - L for x in p)]
        skipped += len(points) - len(interior)
        for p in interior:
            checked += 1
            via_word = _tq_windowed_word_action(ctx, letters, p, N)
            direct = tq_apply(elem, p)
            if direct is not None and any(x > N for x in direct):
                direct = None
            if via_word != direct:
                mismatches.append({"word": letters, "point": p,
                                   "via_word": via_word, "direct": direct})
    return {"n": n, "N": N, "max_len": max_len, "trials": trials,
            "checked": checked, "skipped": skipped,
            "mismatches": mismatches[:5], "ok": not mismatches}
