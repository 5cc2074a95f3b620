"""Truncated regular representations and spectral certificates.

A Truncation fixes an ordered basis of nonzero semigroup elements (or, for
point actions, window points). Matrices are assembled sparsely with exact
scalars whenever the input coefficients are exact, so representation
identities can be asserted by recomputation rather than by tolerance.

Certificates are one-sided by design: the compression of a positive operator
is positive semidefinite, so a negative eigenvalue of a compressed matrix
refutes positivity outright, and the largest singular value of a compression
never exceeds the true norm and grows with the window.

Eigensolves use the structure of these matrices: a matrix splits into the
connected blocks of its entry graph (degree fibers, for a kernel element of a
graded algebra), and each block goes to dense LAPACK when small or wide, or
to banded LAPACK when its band is narrow (action matrices are tridiagonal).
Every size takes the same path, and the result is deterministic.
"""

from __future__ import annotations

import math
import operator
import random
from functools import cache, reduce
from itertools import chain
from types import MappingProxyType

import numpy as np

from .algebra import AlgebraElement, Grading, _membership, convolve, epsilon_restrict, involution
from .core import PartialBijection
from .errors import ContextMismatch, InputError, NotHermitian
from .scalars import QQi, as_scalar, conj, is_exact, rand_qqi, to_complex

# a block this small, or with a band wider than 1/_BAND_RATIO of its size,
# is solved dense: there eigvalsh beats eig_banded (measured at 64-2000 rows)
_SMALL_BLOCK = 256
_BAND_RATIO = 32


class Truncation:
    """Ordered basis of distinct nonzero elements with a membership index."""

    def __init__(self, context, elements):
        self.context = context
        self.elements = [e for e in elements if context is None or not context.is_zero(e)]
        self.index = {}
        for i, e in enumerate(self.elements):
            if e in self.index:
                raise InputError(f"duplicate basis element {e!r}")
            self.index[e] = i

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index


class RepMatrix:
    """Square sparse matrix, immutable: COO arrays over a table of values.

    Entry k sits at (rows[k], cols[k]) and holds values[vids[k]]. Positions
    are distinct and sorted row-major, no entry is zero, and `values` holds
    each distinct scalar once: QQi, or complex once a float coefficient
    appears. Identity checks stay exact; numerics call to_complex once per
    distinct value, so each entry converts exactly as on its own.
    """

    __slots__ = ("n", "rows", "cols", "vids", "values", "dropped", "_entries")

    def __init__(self, n, entries=(), dropped=0):
        pairs = list(entries.items() if isinstance(entries, dict) else entries)
        self._consolidate(n, [i for (i, _), _ in pairs], [j for (_, j), _ in pairs],
                          range(len(pairs)), [as_scalar(c) for _, c in pairs], dropped)

    @classmethod
    def _from_coo(cls, n, rows, cols, vids, values, dropped=0):
        M = cls.__new__(cls)
        M._consolidate(n, rows, cols, vids, values, dropped)
        return M

    def _consolidate(self, n, rows, cols, vids, values, dropped):
        """Sort positions row-major, sum repeats in insertion order, drop
        zeros, and keep one id per distinct value of each mode."""
        rows, cols, vids = (np.asarray(a, dtype=np.int64) for a in (rows, cols, vids))
        bad = np.flatnonzero((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n))[:1]
        if len(bad):
            raise InputError(f"entry ({rows[bad[0]]},{cols[bad[0]]}) outside a {n}-dim matrix")
        order = np.argsort(rows * n + cols, kind="stable")
        keys, vids = (rows * n + cols)[order], vids[order]
        start = np.flatnonzero(np.diff(keys, prepend=-1))
        ends = np.append(start[1:], len(keys))
        multi = np.flatnonzero(ends - start > 1)
        flat, values = vids.tolist(), list(values)
        repeats = [tuple(flat[s:e]) for s, e in zip(start[multi].tolist(), ends[multi].tolist())]
        runs = dict.fromkeys(repeats)   # equal runs of ids share one sum
        for run in runs:
            runs[run] = len(values)
            values.append(reduce(operator.add, map(values.__getitem__, run)))
        summed = vids[start]
        summed[multi] = [runs[run] for run in repeats]
        table = {}
        canon = np.array([table.setdefault((is_exact(c), c), len(table)) if c else -1
                          for c in values], dtype=np.int64)[summed]
        keep = canon >= 0
        used, self.vids = np.unique(canon[keep], return_inverse=True)
        distinct = [c for _, c in table]
        self.values = [distinct[u] for u in used.tolist()]
        kept = order[start[keep]]
        self.n, self.rows, self.cols = n, rows[kept], cols[kept]
        self.dropped, self._entries = dropped, None

    @property
    def entries(self):
        """Read-only {(i, j): value} mapping in row-major order, built on
        first use and cached; the arrays above stay the only storage that
        products and solves read."""
        if self._entries is None:
            self._entries = MappingProxyType(dict(zip(
                zip(self.rows.tolist(), self.cols.tolist()),
                map(self.values.__getitem__, self.vids.tolist()))))
        return self._entries

    def _floats(self) -> np.ndarray:
        z = np.array([to_complex(c) for c in self.values], dtype=complex)
        if not np.isfinite(z).all():
            raise InputError("a float matrix entry overflowed")
        return z[self.vids]

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.values)

    def __eq__(self, other):
        if not isinstance(other, RepMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __mul__(self, other):
        """Entry (i, k) of self meets row k of other, entries in row-major
        order; each distinct pair of values is multiplied once, and repeated
        positions sum in that order."""
        if not isinstance(other, RepMatrix):
            return NotImplemented
        if self.n != other.n:
            raise InputError("dimension mismatch")
        lo = np.searchsorted(other.rows, self.cols)
        counts = np.searchsorted(other.rows, self.cols, side="right") - lo
        left = np.repeat(np.arange(len(counts)), counts)
        right = np.arange(len(left)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        width = len(other.values)
        pairs, vids = np.unique(self.vids[left] * width + other.vids[right],
                                return_inverse=True)
        values = [as_scalar(self.values[p // width] * other.values[p % width])
                  for p in pairs.tolist()]
        return RepMatrix._from_coo(self.n, self.rows[left], other.cols[right], vids, values,
                                   self.dropped + other.dropped)

    def adjoint(self):
        return RepMatrix._from_coo(self.n, self.cols, self.rows, self.vids,
                                   [conj(c) for c in self.values], self.dropped)

    def _asymmetry(self, tol=0.0):
        """First position (i, j), row-major, where M differs from its adjoint,
        or None. An exact pair must match exactly, a pair with a float within
        tol, and an entry without a partner must have |c| <= tol."""
        if not len(self.vids):
            return None
        n, rows, cols, vids = self.n, self.rows, self.cols, self.vids
        keys, mirror = rows * n + cols, cols * n + rows
        at = np.minimum(np.searchsorted(keys, mirror), len(keys) - 1)
        found, partner = keys[at] == mirror, vids[at]
        exact = np.array([is_exact(c) for c in self.values], dtype=bool)
        ids = {c: k for k, c in enumerate(self.values) if is_exact(c)}
        conj_id = np.array([ids.get(c.conjugate(), -1) if is_exact(c) else -1
                            for c in self.values], dtype=np.int64)
        z = self._floats()
        bad = np.where(found & exact[vids] & exact[partner],
                       conj_id[partner] != vids,
                       np.abs(np.where(found, z[at].conj(), 0) - z) > tol)
        k = np.flatnonzero(bad)
        return (int(rows[k[0]]), int(cols[k[0]])) if len(k) else None

    def is_hermitian(self, tol=0.0) -> bool:
        return self._asymmetry(tol) is None

    def max_abs(self) -> float:
        return float(np.abs(self._floats()).max(initial=0.0))

    def to_dense(self) -> np.ndarray:
        M = np.zeros((self.n, self.n), dtype=complex)
        M[self.rows, self.cols] = self._floats()
        return M

    def __repr__(self):
        return f"RepMatrix({self.n}x{self.n}, {len(self.vids)} entries, {self.dropped} dropped)"


def _as_terms(f, context):
    """Accept an AlgebraElement or a bare element with coefficient one."""
    if isinstance(f, AlgebraElement):
        if context is not None and f.context != context:
            raise ContextMismatch("element lives over a different context")
        return f.terms
    return {f: QQi(1)}


def _left(ctx, a, elements):
    """The left regular action of a on each listed b: a b when a*a b = b,
    else None (b is outside the domain of a)."""
    dom = ctx.product(ctx.star(a), a)
    return [ctx.product(a, b) if ctx.product(dom, b) == b else None for b in elements]


def _right(ctx, a, elements):
    """The right regular action of a on each listed b: b a when b a a* = b,
    else None (b is outside the range of a)."""
    ran = ctx.product(a, ctx.star(a))
    return [ctx.product(b, a) if ctx.product(b, ran) == b else None for b in elements]


def _term_matrix(n, index, terms, columns) -> RepMatrix:
    """The matrix of sum_s c_s T_s: columns(s) lists the image of each basis
    column under T_s, None where T_s kills it; an image outside the index
    leaves the basis and is counted as dropped."""
    found = chain.from_iterable((index.get(x, -1), j, t) for t, s in enumerate(terms)
                                for j, x in enumerate(columns(s)) if x is not None)
    rows, cols, tids = np.fromiter(found, dtype=np.int64).reshape(-1, 3).T
    inside = rows >= 0
    return RepMatrix._from_coo(n, rows[inside], cols[inside], tids[inside],
                               [as_scalar(c) for c in terms.values()], int((~inside).sum()))


def lambda_matrix(f, B: Truncation) -> RepMatrix:
    """Left regular matrix: entry (ab, b) += f(a) when a*a b = b and ab in B."""
    ctx = B.context
    return _term_matrix(len(B), B.index, _as_terms(f, ctx),
                        lambda a: _left(ctx, a, B.elements))


def rho_matrix(a, B: Truncation) -> RepMatrix:
    """Right regular matrix: entry (ba, b) += coeff when b a a* = b and ba in B."""
    ctx = B.context
    return _term_matrix(len(B), B.index, _as_terms(a, ctx),
                        lambda s: _right(ctx, s, B.elements))


def action_matrix(f, window) -> RepMatrix:
    """Point-mass action of partial bijections: entry (s(p), p) += f(s).

    A window that is not a Truncation becomes one, so a repeated point is
    an InputError.
    """
    B = window if isinstance(window, Truncation) else Truncation(None, window)

    def columns(s):
        if not isinstance(s, PartialBijection):
            raise InputError("action matrices need partial bijection support")
        return map(s.map.get, B.elements)

    return _term_matrix(len(B), B.index, _as_terms(f, None), columns)


# ---------------------------------------------------------------------------
# spectral certificates
# ---------------------------------------------------------------------------

def _blocks(M: RepMatrix):
    """Connected components of the entry graph of M, in local coordinates.

    Returns (blocks, free): each block is (size, rows, cols, values) with
    indices renumbered 0..size-1 in their original order, blocks ordered by
    their smallest index, and free counts the indices no entry touches (zero
    rows and columns, eigenvalue 0). Edges hook the larger root of their ends
    to the smaller, pointer jumping flattens the forest, until every edge
    lies in one tree, rooted at the smallest index of its component.
    """
    rows, cols = M.rows, M.cols
    root = np.arange(M.n)
    while True:
        while not np.array_equal(root[root], root):
            root = root[root]
        ri, rj = root[rows], root[cols]
        if np.array_equal(ri, rj):
            break
        low = np.minimum(ri, rj)
        np.minimum.at(root, ri, low)
        np.minimum.at(root, rj, low)
    touched = np.zeros(M.n, dtype=bool)
    touched[rows] = touched[cols] = True
    idx = np.flatnonzero(touched)
    sizes = np.unique(root[idx], return_counts=True)[1]
    local = np.empty(M.n, dtype=np.int64)
    local[idx[np.argsort(root[idx], kind="stable")]] = (
        np.arange(len(idx)) - np.repeat(np.cumsum(sizes) - sizes, sizes))
    by_block = np.argsort(ri, kind="stable")
    cuts = np.flatnonzero(np.diff(ri[by_block])) + 1
    parts = (np.split(a[by_block], cuts) for a in (local[rows], local[cols], M._floats()))
    return [(int(s), *block) for s, *block in zip(sizes, *parts)], M.n - len(idx)


def _block_eigvals(size, rows, cols, vals, picks):
    """Eigenvalues at the ascending positions `picks` of one Hermitian block.

    LAPACK reads the lower triangle only. A block goes to the dense solver
    when it is small or its band is wide, else to the banded one.
    """
    if not vals.imag.any():
        vals = vals.real
    lower = rows >= cols
    rows, cols, vals = rows[lower], cols[lower], vals[lower]
    band = int((rows - cols).max(initial=0))
    if size <= _SMALL_BLOCK or _BAND_RATIO * band > size:
        A = np.zeros((size, size), dtype=vals.dtype)
        A[rows, cols] = vals
        spectrum = np.linalg.eigvalsh(A, UPLO="L")
        return [float(spectrum[p]) for p in picks]
    from scipy.linalg import eig_banded
    ab = np.zeros((band + 1, size), dtype=vals.dtype)
    ab[rows - cols, cols] = vals
    return [float(eig_banded(ab, lower=True, eigvals_only=True, select="i",
                             select_range=(p % size, p % size))[0])
            for p in picks]


def _extreme_eigvals(M: RepMatrix, picks=(0, -1)):
    """Smallest (pick 0) and largest (pick -1) eigenvalue of a Hermitian M,
    block by block; a banded block is solved once per pick."""
    blocks, free = _blocks(M)
    found = [[0.0] * bool(free) for _ in picks]
    for block in blocks:
        for bucket, value in zip(found, _block_eigvals(*block, picks=picks)):
            bucket.append(value)
    out = [min(b) if p == 0 else max(b) for p, b in zip(picks, found)]
    if not all(map(math.isfinite, out)):
        raise InputError("an eigenvalue is out of the float range")
    return out


def min_eig(M: RepMatrix) -> float:
    """Smallest eigenvalue of a Hermitian M: the minimum over the connected
    blocks of its entry graph, each solved by dense or banded LAPACK."""
    bad = M._asymmetry(tol=1e-10)
    if bad is not None:
        raise NotHermitian(f"matrix is not Hermitian near entry {bad}", witness=bad)
    if M.n == 0:
        raise InputError("empty matrix has no spectrum")
    return _extreme_eigvals(M, picks=(0,))[0]


def norm_lower_bound(f, B, rep="lambda") -> float:
    """Largest singular value of the compressed matrix; never exceeds the
    true norm and is nondecreasing in the window.

    A Hermitian matrix gives max(-lambda_min, lambda_max) from the block
    solve of min_eig; any other gives sqrt(lambda_max) of its Gram matrix
    F* F, taken on the float copy F of M, whose band is at most the lower
    plus the upper band of M.
    """
    M = _build(f, B, rep)
    if M.n == 0:
        raise InputError("empty basis")
    if not len(M.vids):
        return 0.0
    if M.is_hermitian():
        lo, hi = _extreme_eigvals(M)
        return max(-lo, hi)
    F = RepMatrix._from_coo(M.n, M.rows, M.cols, M.vids, [to_complex(c) for c in M.values])
    return math.sqrt(max(_extreme_eigvals(F.adjoint() * F, picks=(-1,))[0], 0.0))


def _build(f, B, rep) -> RepMatrix:
    if rep == "lambda":
        return lambda_matrix(f, B)
    if rep == "rho":
        return rho_matrix(f, B)
    if rep == "action":
        return action_matrix(f, B)
    raise InputError(f"unknown representation choice {rep!r}")


def psd_refute(f, B, rep="lambda", tol=None) -> dict:
    """Certificate that f is not positive, when the compressed spectrum dips
    below -tol. Sound because compressions of positive operators stay PSD."""
    M = _build(f, B, rep)
    if tol is None:
        tol = 1e-9 * max(M.n, 1)
    elif not math.isfinite(tol):
        raise InputError(f"tolerance {tol} is not finite")
    elif tol < 0:
        raise InputError(f"tolerance {tol} is negative; it must be >= 0")
    value = min_eig(M)
    return {
        "claim": "f is positive",
        "rep": rep,
        "value": value,
        "tolerance": tol,
        "basis_size": M.n,
        "refuted": value < -tol,
    }


# ---------------------------------------------------------------------------
# structural identity checks
# ---------------------------------------------------------------------------

def rep_identity_check(B: Truncation, elements) -> dict:
    """Column-wise multiplicativity, adjoint, and Lambda/R commutation.

    On a multiplicatively closed basis every check is exact. On a window,
    columns whose intermediate products escape the basis are counted as
    skipped instead of verified; everything else is still exact. Each
    element's column lists are computed once per call.
    """
    ctx, index = B.context, B.index
    left = cache(lambda a: _left(ctx, a, B.elements))
    right = cache(lambda a: _right(ctx, a, B.elements))
    elems = [e for e in elements if not ctx.is_zero(e)]
    checked = skipped = 0
    violations = []
    pairs = [(s, t) for s in elems for t in elems]

    # Lambda(s) Lambda(t) = Lambda(st), column by column
    for s, t in pairs:
        st = ctx.product(s, t)
        ls, lst = left(s), None if ctx.is_zero(st) else left(st)
        for j, mid in enumerate(left(t)):
            if mid is not None and mid not in index:
                skipped += 1
                continue
            lhs = None if mid is None else ls[index[mid]]
            rhs = None if lst is None else lst[j]
            if lhs is not None and lhs not in index and rhs is not None and rhs not in index:
                skipped += 1
                continue
            checked += 1
            if lhs != rhs:
                violations.append({"kind": "product", "left": repr(s),
                                   "right": repr(t), "column": repr(B.elements[j])})

    # Lambda(s*) = Lambda(s)^dagger: exact on any window
    def moves(a):
        return {j: index[x] for j, x in enumerate(left(a)) if x is not None and x in index}

    for s in elems:
        checked += 1
        if moves(ctx.star(s)) != {i: j for j, i in moves(s).items()}:
            violations.append({"kind": "star", "element": repr(s)})

    # Lambda(s) R(t) = R(t) Lambda(s); b t t* = b with b != 0 gives bt != 0
    for s, t in pairs:
        ls, rt = left(s), right(t)
        for j, (right_first, left_first) in enumerate(zip(rt, ls)):
            if right_first is not None and right_first not in index:
                skipped += 1
                continue
            p1 = None if right_first is None else ls[index[right_first]]
            if left_first is not None and left_first not in index:
                skipped += 1
                continue
            p2 = None if left_first is None else rt[index[left_first]]
            if (p1 is not None and p1 not in index) or (p2 is not None and p2 not in index):
                skipped += 1
                continue
            checked += 1
            if p1 != p2:
                violations.append({"kind": "commutation", "lambda": repr(s),
                                   "rho": repr(t), "column": repr(B.elements[j])})

    return {"checked": checked, "skipped": skipped,
            "violations": violations, "ok": not violations}


def coaction_unitary_check(grading: Grading, B: Truncation, group_window, T) -> dict:
    """Basis-vector identity W (Lambda(t) x I) W* (d_s x d_g) = d_{ts} x d_{phi(t)g}.

    W twists d_s x d_g to d_s x d_{phi(s)g}; the three-step composite sends
    it to d_{ts} x d_{phi(ts) phi(s)^-1 g}. In a group that equals
    phi(t) g for one g exactly when phi(ts) phi(s)^-1 = phi(t), so one
    comparison per (t, s) decides every g of the window, and each g counts
    as checked. Products that leave the truncation are counted as skipped
    boundary cases.
    """
    ctx = grading.context
    G = grading.group
    checked = skipped = zero_cases = 0
    violations = []
    for t in T:
        if ctx.is_zero(t):
            continue
        dt = grading.degree(t)
        for s, step in zip(B.elements, _left(ctx, t, B.elements)):
            if step is None:
                zero_cases += len(group_window)
                continue
            if step not in B:
                skipped += len(group_window)
                continue
            ds_inv, dstep = G.inv(grading.degree(s)), grading.degree(step)
            checked += len(group_window)
            if G.mul(dstep, ds_inv) == dt:
                continue
            for g in group_window:
                # W* then Lambda(t) x I then W
                got = G.mul(dstep, G.mul(ds_inv, g))
                want = G.mul(dt, g)
                if got != want:
                    violations.append({"t": repr(t), "s": repr(s), "g": str(g),
                                       "got": str(got), "want": str(want)})
    return {"checked": checked, "skipped": skipped, "zero_cases": zero_cases,
            "violations": violations, "ok": not violations}


def h_block_check(h, H, B: Truncation) -> dict:
    """Lambda_S(h) must preserve the H-span and restrict to Lambda_H(h).

    H is a membership predicate or container for the subsemigroup. Columns
    whose image escapes the truncation are skipped; within the window the
    H-block of the big matrix must equal the regular matrix of h on the
    H-truncation, entry for entry.
    """
    member = _membership(H)
    ctx = B.context
    if not member(h):
        raise InputError("h must belong to the subsemigroup")
    checked = skipped = 0
    violations = []
    inside = np.fromiter(map(member, B.elements), dtype=bool, count=len(B))
    lift = np.flatnonzero(inside)
    for b, target in zip(B.elements, _left(ctx, h, B.elements)):
        if target is None:
            continue
        if target not in B:
            skipped += 1
            continue
        checked += 1
        if member(b) != member(target):
            violations.append({"column": repr(b), "target": repr(target),
                               "reason": "left the block"})
    # the H-basis keeps B's order, so both position lists are row-major
    sub = Truncation(ctx, [B.elements[i] for i in lift.tolist()])
    big = lambda_matrix(AlgebraElement(ctx, [(h, 1)]), B)
    small = lambda_matrix(AlgebraElement(ctx, [(h, 1)]), sub)
    block = inside[big.rows] & inside[big.cols]
    compression_ok = (np.array_equal(big.rows[block], lift[small.rows])
                      and np.array_equal(big.cols[block], lift[small.cols]))
    return {"h": repr(h), "checked": checked, "skipped": skipped,
            "violations": violations,
            "compression_ok": compression_ok,
            "ok": not violations and compression_ok}


def epsilon_faithfulness_check(grading: Grading, pool, B: Truncation,
                               trials: int = 100, seed: int = 0) -> dict:
    """Random nonzero g over the pool must keep Lambda(eps(g* g)) on B away
    from zero."""
    rng = random.Random(seed)
    ctx = grading.context
    member = grading.kernel_member
    failures = []
    for trial in range(trials):
        g = AlgebraElement(ctx)
        while not g:
            g = AlgebraElement(ctx, [(rng.choice(pool), rand_qqi(rng))
                                     for _ in range(rng.randint(1, 4))])
        u = epsilon_restrict(convolve(involution(g), g), member)
        if not u or lambda_matrix(u, B).max_abs() <= 1e-12:
            failures.append({"trial": trial, "g": {repr(k): str(v) for k, v in g.terms.items()}})
    return {"trials": trials, "failures": failures, "ok": not failures}
