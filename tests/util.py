"""Shared test helpers: brute-force oracles and seeded scalar generators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from invsemi import rep
from invsemi.algebra import AlgebraElement
from invsemi.core import PartialBijection, idempotents
from invsemi.errors import InputError, NotUpwardClosed
from invsemi.families import Shift
from invsemi.graphs import enumerate_pairs, graph_grading
from invsemi.rep import RepMatrix
from invsemi.scalars import QQi, to_complex
from invsemi.words import free_reduce, word_inv


def graph_fiber(graph, s_word, t_word, L):
    """The fiber over red(s t^-1) = a b^-1 of the pairs (a w, b w) with
    |w| <= L: legs of length up to L plus the longer of a and b."""
    word = free_reduce(tuple(s_word) + word_inv(tuple(t_word)))
    leg = max(sum(e == 1 for _, e in word), sum(e == -1 for _, e in word))
    return graph_grading(graph).fibers(enumerate_pairs(graph, L + leg)).get(word, [])


def junction_rule(graph, p, q):
    """The legs (mu', nu') of (mu, nu)(alpha, beta), or None for zero, on
    Path legs: nu and alpha must end at one vertex and one must be a prefix
    of the other. The new legs are rebuilt by `graph.path` from the source
    of the longer of nu and alpha, so their vertices come from the graph."""
    mu, nu, alpha, beta = p.mu, p.nu, q.mu, q.nu
    k = min(len(nu), len(alpha))
    if nu.head != alpha.head or nu.edges[:k] != alpha.edges[:k]:
        return None
    if len(nu) >= len(alpha):
        return mu, graph.path(beta.edges + nu.edges[k:], base=nu.base)
    return graph.path(mu.edges + alpha.edges[k:], base=alpha.base), beta


# -- interval shifts as partial bijections ----------------------------------

def identity_pb(points) -> PartialBijection:
    return PartialBijection({p: p for p in points})


def as_pb(shift: Shift) -> PartialBijection:
    """The shift (d, p, q) as the partial bijection x -> x + d on [p, q]."""
    d, p, q = shift
    return PartialBijection({k: k + d for k in range(p, q + 1)})


def interval_shifts(lo, hi):
    """Every nonempty constant shift whose domain and range lie in [lo, hi]."""
    return [Shift(d, p, q) for d in range(lo - hi, hi - lo + 1)
            for p in range(max(lo, lo - d), min(hi, hi - d) + 1)
            for q in range(p, min(hi, hi - d) + 1)]


# -- Toeplitz windows by recursion over the coordinates ----------------------

def recursive_tq_window(n, length):
    """`TQContext(n).window(0, length)` as it was built by recursion, one
    level per coordinate."""
    def cones(dim, budget):
        if dim == 0:
            return [()]
        return [(head,) + rest for head in range(budget + 1)
                for rest in cones(dim - 1, budget - head)]

    return sorted((s, t) for s in cones(n, length) for t in cones(n, length - sum(s)))


# -- raw dict-based partial map oracle (independent of PartialBijection) ----

def raw_compose(f: dict, g: dict) -> dict:
    """f after g on raw dicts."""
    return {x: f[y] for x, y in g.items() if y in f}


def raw_inverse(f: dict) -> dict:
    return {v: k for k, v in f.items()}


def raw_closure(gens, cap=100000):
    """Brute-force closure of raw dict partial maps under compose/inverse.

    Seeds the generators, then their inverses, and multiplies every pair of
    known elements per round until nothing new appears; elements are listed
    in first-seen order.
    """
    seen = set()
    elems = []

    def key(d):
        return tuple(sorted(d.items()))

    def add(d):
        k = key(d)
        if k not in seen:
            seen.add(k)
            elems.append(dict(d))

    for g in gens:
        add(g)
    for g in gens:
        add(raw_inverse(g))
    grew = True
    while grew:
        grew = False
        before = len(elems)
        snapshot = [dict(e) for e in elems]
        for a in snapshot:
            for b in snapshot:
                add(raw_compose(a, b))
        if len(elems) > cap:
            raise RuntimeError("oracle closure blew past cap")
        grew = len(elems) > before
    return elems


# -- seeded scalar generators ------------------------------------------------

def rand_fraction(rng: random.Random, span=9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))

def rand_qqi(rng: random.Random, span=9) -> QQi:
    return QQi(rand_fraction(rng, span), rand_fraction(rng, span))


def rand_qqi_nonzero(rng: random.Random, span=9) -> QQi:
    while True:
        x = rand_qqi(rng, span)
        if x:
            return x


def rand_square_qqi(rng: random.Random, span=5) -> QQi:
    """A nonzero perfect square in Q(i), so its principal root is exact."""
    mu = rand_qqi_nonzero(rng, span)
    return mu * mu


# -- views of scalars and matrices that only the tests read ------------------

def abs2(q: QQi) -> Fraction:
    """|q|^2 of an exact scalar, read off q times its conjugate."""
    return (q * q.conjugate()).re


def to_dense(M: RepMatrix) -> np.ndarray:
    """M as a dense complex array, each entry converted by to_complex."""
    D = np.zeros((M.n, M.n), dtype=complex)
    D[M.rows, M.cols] = [to_complex(M.values[v]) for v in M.vids.tolist()]
    return D


# -- the Fraction-pair scalar, an oracle for QQi ------------------------------

def _oracle_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def frac_sqrt(q: Fraction):
    """Exact nonnegative square root of a Fraction, or None."""
    if q < 0:
        return None
    pn, qd = q.numerator, q.denominator
    rn, rd = math.isqrt(pn), math.isqrt(qd)
    if rn * rn == pn and rd * rd == qd:
        return Fraction(rn, rd)
    return None


class FractionQQi:
    """The Fraction-pair QQi that the integer one replaced: a + b*i with a, b
    Fractions, kept as the oracle that tests/test_scalars.py compares with."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _oracle_fraction(re))
        object.__setattr__(self, "im", _oracle_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    def __repr__(self):
        return f"QQi({self.re!s}, {self.im!s})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FractionQQi):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQQi(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() + other
            return NotImplemented
        return FractionQQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionQQi(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() - other
            return NotImplemented
        return FractionQQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() * other
            return NotImplemented
        return FractionQQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() / other
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QQi")
        return FractionQQi((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def conjugate(self):
        return FractionQQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- predicates and conversions -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, FractionQQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return self.to_complex() == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def to_complex(self) -> complex:
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise InputError("an exact coefficient is out of the float range") from None

    def sqrt_exact(self):
        """Principal square root if it lies in Q(i), else None."""
        a, b = self.re, self.im
        if b == 0:
            if a >= 0:
                r = frac_sqrt(a)
                return None if r is None else FractionQQi(r, 0)
            r = frac_sqrt(-a)
            return None if r is None else FractionQQi(0, r)
        m = frac_sqrt(a * a + b * b)
        if m is None:
            return None
        c = frac_sqrt((m + a) / 2)
        if c is None or c == 0:
            return None
        return FractionQQi(c, b / (2 * c))


# -- graded scans as plain double loops over every pair ----------------------

def _label(ctx, e):
    labels = getattr(ctx, "labels", None)
    return labels[e] if labels is not None and isinstance(e, int) else str(e)


def pairwise_check_grading(grading, elements) -> dict:
    """`algebra.check_grading` as one product per listed pair."""
    ctx, mul = grading.context, grading.group.mul
    elems = [e for e in elements if not ctx.is_zero(e)]
    violations = []
    for a in elems:
        for b in elems:
            p = ctx.product(a, b)
            if ctx.is_zero(p):
                continue
            want = mul(grading.degree(a), grading.degree(b))
            got = grading.degree(p)
            if got != want:
                violations.append({"left": _label(ctx, a), "right": _label(ctx, b),
                                   "product_degree": str(got),
                                   "expected_degree": str(want)})
    kernel = {e for e in elems if grading.degree(e) == grading.group.identity}
    idem = {e for e in elems if ctx.product(e, e) == e}
    return {"checked": len(elems) ** 2, "skipped": 0, "violations": violations,
            "kernel_size": len(kernel), "idempotent_pure": kernel == idem,
            "ok": not violations}


def pairwise_bundle_fibers(elements, grading):
    """`algebra.bundle_fibers` as one product per pair, fiber pair by fiber pair."""
    ctx = grading.context
    fibers = {}
    for e in elements:
        if not ctx.is_zero(e):
            fibers.setdefault(grading.degree(e), []).append(e)
    star_violations = []
    for g, members in fibers.items():
        starred = {ctx.star(s) for s in members}
        expected = set(fibers.get(grading.group.inv(g), []))
        if starred != expected:
            star_violations.append({
                "fiber": str(g),
                "starred_not_listed": [_label(ctx, s) for s in sorted(starred - expected, key=repr)],
                "missing": [_label(ctx, s) for s in sorted(expected - starred, key=repr)]})
    product_violations = []
    checked = 0
    for g, left in fibers.items():
        for h, right in fibers.items():
            gh = grading.group.mul(g, h)
            for s in left:
                for t in right:
                    p = ctx.product(s, t)
                    checked += 1
                    if not ctx.is_zero(p) and grading.degree(p) != gh:
                        product_violations.append({
                            "left_fiber": str(g), "right_fiber": str(h),
                            "left": _label(ctx, s), "right": _label(ctx, t),
                            "product_degree": str(grading.degree(p))})
    report = {
        "fiber_sizes": {str(g): len(v) for g, v in sorted(fibers.items(), key=lambda kv: str(kv[0]))},
        "checked": checked, "skipped": 0, "star_violations": star_violations,
        "product_violations": product_violations,
        "ok": not star_violations and not product_violations}
    return fibers, report


def per_g_coaction_check(grading, B, group_window, T) -> dict:
    """`rep.coaction_unitary_check` comparing once per group element g."""
    ctx, G = grading.context, grading.group
    checked = skipped = zero_cases = 0
    violations = []
    for t in T:
        if ctx.is_zero(t):
            continue
        dt = grading.degree(t)
        for s in B.elements:
            dom = ctx.product(ctx.star(t), t)
            step = None if ctx.product(dom, s) != s else ctx.product(t, s)
            if step is None:
                zero_cases += len(group_window)
                continue
            if step not in B:
                skipped += len(group_window)
                continue
            ds_inv, dstep = G.inv(grading.degree(s)), grading.degree(step)
            for g in group_window:
                checked += 1
                got = G.mul(dstep, G.mul(ds_inv, g))
                want = G.mul(dt, g)
                if got != want:
                    violations.append({"t": repr(t), "s": repr(s), "g": str(g),
                                       "got": str(got), "want": str(want)})
    return {"checked": checked, "skipped": skipped, "zero_cases": zero_cases,
            "violations": violations, "ok": not violations}


# -- omega-cosets as one upward closure per element --------------------------

def scanned_upward_closure(H, S, E) -> frozenset:
    """{x : x e in H for some idempotent e}, each element against each e."""
    Hset = frozenset(H)
    return frozenset(x for x in S.elements() if any(S.table[x][e] in Hset for e in E))


def pairwise_omega_coset_diagnostic(H, S) -> dict:
    """`core.omega_coset_diagnostic` as one scanned closure per element and a
    pairwise search for the first two cosets that meet."""
    E = idempotents(S)
    Hset = frozenset(H)
    for h in Hset:
        if S.star(h) not in Hset:
            raise InputError(f"subset not star-closed at {h}")
        for k in Hset:
            if S.product(h, k) not in Hset:
                raise InputError(f"subset not product-closed at ({h},{k})")
    up = scanned_upward_closure(Hset, S, E)
    if up != Hset:
        raise NotUpwardClosed("subsemigroup is not upward closed", witness=sorted(up - Hset))
    cosets = []
    for s in S.elements():
        c = scanned_upward_closure({S.product(s, h) for h in Hset}, S, E)
        if c not in cosets:
            cosets.append(c)
    overlap = next(((i, j, sorted(cosets[i] & cosets[j]))
                    for i in range(len(cosets)) for j in range(i + 1, len(cosets))
                    if cosets[i] & cosets[j]), None)
    covers = frozenset().union(*cosets) == frozenset(S.elements())
    return {"cosets": [sorted(c) for c in cosets], "covers": covers,
            "overlap": overlap, "is_partition": overlap is None and covers}


# -- regular representation identities, one basis vector at a time ----------

def _regular_step(ctx, a, b):
    """The left regular action of a on one basis vector b: None when
    a*a b != b, else the product a b."""
    dom = ctx.product(ctx.star(a), a)
    if ctx.product(dom, b) != b:
        return None
    return ctx.product(a, b)


def left_oracle(ctx, a, elements):
    """The left regular action of a on each listed b: a b when a*a b = b,
    else None (b is outside the domain of a)."""
    return [_regular_step(ctx, a, b) for b in elements]


def right_oracle(ctx, a, elements):
    """The right regular action of a on each listed b: b a when b a a* = b,
    else None (b is outside the range of a)."""
    ran = ctx.product(a, ctx.star(a))
    return [ctx.product(b, a) if ctx.product(b, ran) == b else None for b in elements]


def oracle_codes(images, elements):
    """Action codes of a list of images: the position of each image in the
    list, -1 for an image not listed, -2 for None."""
    index = {e: i for i, e in enumerate(elements)}
    return [-2 if x is None else index.get(x, -1) for x in images]


def per_column_rep_identity_check(B, elements, pairs=None) -> dict:
    """`rep.rep_identity_check` recomputing every action step per column."""
    ctx = B.context
    elems = [e for e in elements if not ctx.is_zero(e)]
    checked = skipped = 0
    violations = []

    if pairs is None:
        pairs = [(s, t) for s in elems for t in elems]

    for s, t in pairs:
        st = ctx.product(s, t)
        for b in B.elements:
            mid = _regular_step(ctx, t, b)
            if mid is not None and mid not in B:
                skipped += 1
                continue
            lhs = None if mid is None else _regular_step(ctx, s, mid)
            rhs = None if ctx.is_zero(st) else _regular_step(ctx, st, b)
            if lhs is not None and lhs not in B and rhs is not None and rhs not in B:
                skipped += 1
                continue
            checked += 1
            if lhs != rhs:
                violations.append({"kind": "product", "left": repr(s),
                                   "right": repr(t), "column": repr(b)})

    for s in elems:
        fwd = {}
        for j, b in enumerate(B.elements):
            t = _regular_step(ctx, s, b)
            if t is not None and t in B:
                fwd[j] = B.index[t]
        bwd = {}
        for j, b in enumerate(B.elements):
            t = _regular_step(ctx, ctx.star(s), b)
            if t is not None and t in B:
                bwd[j] = B.index[t]
        checked += 1
        if bwd != {i: j for j, i in fwd.items()}:
            violations.append({"kind": "star", "element": repr(s)})

    for s, t in pairs:
        ran = ctx.product(t, ctx.star(t))
        for b in B.elements:
            right_first = ctx.product(b, t) if ctx.product(b, ran) == b else None
            if right_first is not None and ctx.is_zero(right_first):
                right_first = None
            if right_first is not None and right_first not in B:
                skipped += 1
                continue
            p1 = None if right_first is None else _regular_step(ctx, s, right_first)
            left_first = _regular_step(ctx, s, b)
            if left_first is not None and left_first not in B:
                skipped += 1
                continue
            p2 = None
            if left_first is not None and ctx.product(left_first, ran) == left_first:
                p2 = ctx.product(left_first, t)
                if ctx.is_zero(p2):
                    p2 = None
            if (p1 is not None and p1 not in B) or (p2 is not None and p2 not in B):
                skipped += 1
                continue
            checked += 1
            if p1 != p2:
                violations.append({"kind": "commutation", "lambda": repr(s),
                                   "rho": repr(t), "column": repr(b)})

    return {"checked": checked, "skipped": skipped,
            "violations": violations, "ok": not violations}


# -- algebra element sums as running totals per element ---------------------

def summed_terms(ctx, pairs) -> list:
    """The (element, total) list that summing (element, coefficient) pairs
    gives: zero elements skipped, a total that is 0 at the end dropped, and
    each element placed where its last run of nonzero running sums began."""
    total, since = {}, {}
    for i, (e, c) in enumerate(pairs):
        if ctx.is_zero(e):
            continue
        if total.get(e, 0) == 0:
            since[e] = i
        total[e] = total.get(e, 0) + c
    return [(e, total[e]) for e in sorted(since, key=since.get) if total[e] != 0]


def product_terms(ctx, f_terms, g_terms, member=lambda p: True) -> list:
    """`summed_terms` of every product s t with f(s) g(t), f's terms outer,
    kept when it is nonzero and `member` accepts it."""
    products = [(ctx.product(s, t), a * b) for s, a in f_terms for t, b in g_terms]
    return summed_terms(ctx, [(p, c) for p, c in products
                              if not ctx.is_zero(p) and member(p)])


# -- RepMatrix products as loops over entry dicts -----------------------------

def dict_product(A, B):
    """`RepMatrix.__mul__` as a loop: each entry (i, k) of A, in row-major
    order, meets each entry (k, j) of B, and the constructor sums repeats."""
    by_row = {}
    for (k, j), c in B.entries.items():
        by_row.setdefault(k, []).append((j, c))
    return RepMatrix(A.n, [((i, j), a * b) for (i, k), a in A.entries.items()
                           for j, b in by_row.get(k, ())], A.dropped + B.dropped)


def dict_gram(M):
    """M* M in floats, summed in a dict row by row of M, each sum from 0j."""
    by_row = {}
    for (i, j), c in M.entries.items():
        by_row.setdefault(i, []).append((j, to_complex(c)))
    G = {}
    for row in by_row.values():
        for j, a in row:
            for k, b in row:
                G[(j, k)] = G.get((j, k), 0j) + a.conjugate() * b
    return RepMatrix(M.n, G)


def per_block_extreme_eigvals(M, picks=(0, -1)):
    """`rep._extreme_eigvals` as a loop that solves every block on its own,
    repeated blocks included."""
    blocks, free = rep._blocks(M)
    found = [[0.0] * bool(free) for _ in picks]
    for block in blocks:
        for bucket, value in zip(found, rep._block_eigvals(rep._lower(*block), picks)):
            bucket.append(value)
    return [min(b) if p == 0 else max(b) for p, b in zip(picks, found)]


def union_find_blocks(n, positions):
    """Connected components of the entry graph on 0..n-1, each a sorted index
    list, ordered by smallest index, and the count of untouched indices: a
    plain union-find with path halving, one edge at a time."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    touched = set()
    for i, j in positions:
        touched.update((i, j))
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    comps = {}
    for i in sorted(touched):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values()), n - len(touched)


def as_action(M, ctx):
    """(f, window) whose action matrix is M: one single-point shift
    Shift(i - j, j, j) per entry (i, j), over the shift bundle `ctx`."""
    terms = [(Shift(i - j, j, j), c) for (i, j), c in M.entries.items()]
    return AlgebraElement(ctx, terms), rep.Truncation(None, range(M.n))


# -- spectral certificates on the whole window -------------------------------

def window_min_eig(f, B, matrix=rep.lambda_matrix):
    """`rep.psd_refute`'s value on the whole window's lambda matrix (or
    `matrix`, such as `rep.rho_matrix`), scanned for symmetry and solved in
    full; NotHermitian names its first asymmetric position."""
    return rep.min_eig(matrix(f, B))


def window_norm(f, B, matrix=rep.lambda_matrix):
    """`rep.norm_lower_bound` on the whole window's lambda matrix (or
    `matrix`): its block solve when the matrix is Hermitian, else the top
    of its Gram matrix."""
    M = matrix(f, B)
    if not len(M.vids):
        return 0.0
    if M.is_hermitian():
        lo, hi = rep._extreme_eigvals(M)
        return max(-lo, hi)
    F = RepMatrix._from_coo(M.n, M.rows, M.cols, M.vids, [to_complex(c) for c in M.values])
    return math.sqrt(max(rep._extreme_eigvals(F.adjoint() * F, picks=(-1,))[0], 0.0))
