"""Truncated regular representations and spectral certificates.

A Truncation fixes an ordered basis of nonzero semigroup elements (or, for
point actions, an integer interval of points). Matrices are assembled
sparsely with exact scalars whenever the input coefficients are exact, so
representation identities are asserted by recomputation, not tolerance.

Certificates are one-sided by design: the compression of a positive operator
is positive semidefinite, so a negative eigenvalue of a compressed matrix
refutes positivity outright, and the largest singular value of a compression
never exceeds the true norm and grows with the window.

Eigensolves use the structure of these matrices: a matrix splits into the
connected blocks of its entry graph (degree fibers, for a kernel element of a
graded algebra), and each block goes to dense LAPACK when small or wide, or
to banded LAPACK when its band is narrow (action matrices are tridiagonal, one
block by their subdiagonal, and a norm solves their bottom only if needed).
The certificates assemble one L-class part per D-class: lambda maps each
L-class to itself (ab lies in the L-class of b), and right translation
between the L-classes of one D-class commutes with lambda (Green's lemma).
A family that names its Green coordinates lets `l_class_parts` check that
every part of a D-class translates into its largest one, keeping places and
their order; the largest part's block then carries the window's extreme
eigenvalues (a smaller part is a compression of it, inside by Cauchy
interlacing), so the Bruck-Reilly window of level M is solved on one of its
M + 1 equal parts. Rho takes the same path through the flip J: d_b -> d_b*,
as J rho(f) J = lambda(sum f(s) s*). Every size takes the same path, and
the result is deterministic.
"""

from __future__ import annotations

import math
import operator
import random
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .algebra import AlgebraElement, Grading, _membership, convolve, epsilon_restrict, involution
from .errors import ContextMismatch, InputError, NotHermitian
from .scalars import QQi, as_scalar, conj, is_exact, rand_qqi, to_complex

# a block this small, or with a band wider than 1/_BAND_RATIO of its size, is
# solved dense, far past the crossover: one eigvalsh took 160 us against 41 us
# per eig_banded pick at 64 rows and band 1, 3.2 against 0.14 ms at 256 rows,
# and 3.1 against 1.0 ms at 256 rows and band 9 (2-vCPU x86-64, best of 5)
_SMALL_BLOCK = 256
_BAND_RATIO = 32
# the largest shift-bundle window n: action_matrix refuses more points upfront
MAX_ACTION_WINDOW = 10 ** 7


class Truncation:
    """Ordered basis of distinct nonzero elements; with context None, the
    points of an action window (see action_matrix), a range kept as it is."""

    def __init__(self, context, elements):
        self.context = context
        if context is not None:
            elements = [e for e in elements if not context.is_zero(e)]
        self.elements = elements if isinstance(elements, range) else list(elements)
        if self.elements is not elements and len(set(self.elements)) != len(self):
            seen = set()
            twice = next(e for e in self.elements if e in seen or seen.add(e))
            raise InputError(f"duplicate basis element {twice!r}")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index

    @cached_property
    def index(self):
        """Element -> position, built on first use."""
        return dict(zip(self.elements, range(len(self.elements))))

    @cached_property
    def left(self):
        """The context's left action on this basis: a -> one code per basis
        element (see SemigroupContext.left_action)."""
        return self.context.left_action(self.elements)

    @cached_property
    def starred(self):
        """The stars b* in this basis's order (see rho_matrix)."""
        return Truncation(self.context, map(self.context.star, self.elements))


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
        lengths = np.diff(start, append=len(keys))
        # fold the runs left to right: step k adds the k-th value of every run
        # longer than k to its partial sum, each distinct (sum, value) pair once
        summed, values, width = vids[start], list(values), len(values)
        live = np.arange(len(start))
        for k in range(1, lengths.max(initial=1)):
            live = live[lengths[live] > k]
            pairs, ids = np.unique(summed[live] * width + vids[start[live] + k],
                                   return_inverse=True)
            summed[live] = len(values) + ids
            values += [values[p // width] + values[p % width] for p in pairs.tolist()]
        # one id per distinct nonzero value that some position holds
        held = np.zeros(len(values), dtype=bool)
        held[summed] = True
        table, canon = {}, np.full(len(values), -1, dtype=np.int64)
        canon[held] = [table.setdefault((is_exact(c), c), len(table)) if c else -1
                       for c in map(values.__getitem__, np.flatnonzero(held).tolist())]
        canon = canon[summed]
        keep = canon >= 0
        self.vids, self.values = canon[keep], [c for _, c in table]
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

    def __repr__(self):
        return f"RepMatrix({self.n}x{self.n}, {len(self.vids)} entries, {self.dropped} dropped)"


def _as_terms(f, context):
    """Accept an AlgebraElement or a bare element with coefficient one."""
    if isinstance(f, AlgebraElement):
        if context is not None and f.context != context:
            raise ContextMismatch("element lives over a different context")
        return f.terms
    return {f: QQi(1)}


def _term_matrix(n, terms, act) -> RepMatrix:
    """The matrix of sum_s c_s T_s, where act(s) gives one code per basis
    column: the row of its image under T_s, -1 when the image leaves the
    basis (counted as dropped), -2 when T_s kills it. Entries come in
    (term, ascending column) order, the order repeated positions sum in."""
    codes = np.array([act(s) for s in terms], dtype=np.int64).reshape(-1)
    cols = np.tile(np.arange(n, dtype=np.int64), len(terms))
    tids = np.repeat(np.arange(len(terms), dtype=np.int64), n)
    inside = codes >= 0
    return RepMatrix._from_coo(n, codes[inside], cols[inside], tids[inside],
                               [as_scalar(c) for c in terms.values()],
                               int(np.count_nonzero(codes == -1)))


def lambda_matrix(f, B: Truncation) -> RepMatrix:
    """Left regular matrix: entry (ab, b) += f(a) when a*a b = b and ab in B."""
    return _term_matrix(len(B), _as_terms(f, B.context), B.left)


def rho_matrix(a, B: Truncation) -> RepMatrix:
    """Right regular matrix: entry (ba, b) += coeff when b a a* = b and ba in B."""
    return _build(a, B, "rho", parts=False)


def action_matrix(f, window) -> RepMatrix:
    """Point-mass action: entry (s(x), x) += f(s).

    The window lists the ints lo, lo + 1, ..., lo + n - 1 in that order (a
    list, checked point by point, a range of step 1, or a Truncation of one);
    any other window, or one past MAX_ACTION_WINDOW + 1 points, is an
    InputError before an array is built. Each term answers `point_codes(lo,
    n)`, as interval shifts do; other support is an InputError.
    """
    points = window.elements if isinstance(window, Truncation) else window
    interval = isinstance(points, range) and points.step == 1
    n = max(points.stop - points.start, 0) if interval else len(points)
    if n > MAX_ACTION_WINDOW + 1:
        raise InputError(f"window {n - 1} is past the action cap {MAX_ACTION_WINDOW}")
    lo = points[0] if n else 0
    if not (interval or set(map(type, points)) <= {int}
            and all(map(operator.eq, points, range(lo, lo + n)))):
        raise InputError("an action window must list the integers lo, lo + 1, ..., "
                         "lo + n - 1 in order")

    def act(s):
        if not hasattr(s, "point_codes"):
            raise InputError("action matrices need interval shift support")
        return s.point_codes(lo, n)

    return _term_matrix(n, _as_terms(f, None), act)


# ---------------------------------------------------------------------------
# spectral certificates
# ---------------------------------------------------------------------------

def _blocks(M: RepMatrix):
    """Connected components of the entry graph of M, in local coordinates.

    Returns (blocks, free): each block is (size, rows, cols, values) with
    indices renumbered 0..size-1 in their original order, blocks ordered by
    their smallest index, and free counts the indices no entry touches (zero
    rows and columns, eigenvalue 0). M is one block as it stands when every
    (i + 1, i) is an entry. Otherwise edges hook the larger root of their ends
    to the smaller, pointer jumping flattens the forest, until every edge
    lies in one tree, rooted at the smallest index of its component.
    """
    rows, cols = M.rows, M.cols
    if M.n > 1 and np.count_nonzero(rows - cols == 1) == M.n - 1:
        return [(M.n, rows, cols, M._floats())], 0
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


def _lower(size, rows, cols, vals):
    """The lower triangle of one Hermitian block, all LAPACK reads: square if
    small or wide, else in band storage ab[i - j, j] = A[i, j] (fewer rows)."""
    if not vals.imag.any():
        vals = vals.real
    lower = rows >= cols
    rows, cols, vals = rows[lower], cols[lower], vals[lower]
    band = int((rows - cols).max(initial=0))
    dense = size <= _SMALL_BLOCK or _BAND_RATIO * band > size
    A = np.zeros((size, size) if dense else (band + 1, size), dtype=vals.dtype)
    A[(rows, cols) if dense else (rows - cols, cols)] = vals
    return A


def _block_eigvals(A, picks):
    """Eigenvalues at the ascending positions `picks` of a block stored by
    `_lower`: one eigvalsh, or one eig_banded bisection per pick."""
    size = A.shape[1]
    if A.shape[0] == size:
        return np.linalg.eigvalsh(A, UPLO="L")[list(picks)].tolist()
    from scipy.linalg import eig_banded
    return [float(eig_banded(A, lower=True, eigvals_only=True, select="i",
                             select_range=(p % size, p % size))[0])
            for p in picks]


def _finite(value):
    if not math.isfinite(value):
        raise InputError("an eigenvalue is out of the float range")
    return value


def _extreme_eigvals(M: RepMatrix, picks=(0, -1)):
    """Smallest (pick 0) and largest (pick -1) eigenvalue of a Hermitian M,
    block by block: one eigvalsh per dense block, one bisection per pick and
    banded block."""
    blocks, free = _blocks(M)
    found = [[0.0] * bool(free) for _ in picks]
    for block in blocks:
        for bucket, value in zip(found, _block_eigvals(_lower(*block), picks)):
            bucket.append(value)
    return [_finite(min(b) if p == 0 else max(b)) for p, b in zip(picks, found)]


def min_eig(M: RepMatrix) -> float:
    """Smallest eigenvalue of a Hermitian M: the minimum over the connected
    blocks of its entry graph, each solved by dense or banded LAPACK."""
    bad = M._asymmetry(tol=1e-10)
    if bad is not None:
        raise NotHermitian(f"matrix is not Hermitian near entry {bad}", witness=bad)
    if M.n == 0:
        raise InputError("empty matrix has no spectrum")
    return _extreme_eigvals(M, picks=(0,))[0]


def l_class_parts(B: Truncation) -> Truncation:
    """One L-class part per D-class of B, in B's order, or B itself.

    The context's `green_coordinates` split each element into its D-class,
    its L-class and its place. In each D-class the largest part (the first
    of equal ones) stands for all: every other part must list some of its
    places in the same order. Right translation keeps places and commutes
    with lambda, so it carries each part's block onto a principal submatrix
    of the representative's, the same block when the parts are equal. A
    context without the hook, or a part that fails the check, gives B.
    """
    split = getattr(B.context, "green_coordinates", None)
    if split is None:
        return B
    classes = {}        # d_key -> l_key -> ([place, ...], [position, ...])
    for i, (d, l, place) in enumerate(map(split, B.elements)):
        parts = classes.setdefault(d, {})
        part = parts.get(l)
        if part is None:
            part = parts[l] = ([], [])
        part[0].append(place)
        part[1].append(i)
    keep = []
    for parts in classes.values():
        places, positions = max(parts.values(), key=lambda part: len(part[0]))
        at = dict(zip(places, range(len(places))))
        for other, _ in parts.values():
            if other != places:
                ks = list(map(at.get, other))
                if None in ks or not all(map(operator.lt, ks, ks[1:])):
                    return B
        keep += positions
    if len(keep) == len(B):
        return B
    keep.sort()
    return Truncation(B.context, map(B.elements.__getitem__, keep))


def norm_lower_bound(f, B, rep="lambda") -> float:
    """Largest singular value of the compressed matrix; never exceeds the
    true norm and is nondecreasing in the window.

    A Hermitian M gives max(-lo, hi) of `_extreme_eigvals`, bit for bit: H is
    the largest top of its blocks, and a banded block A is bisected for its
    bottom only when A + (H - 2^-20 H) I has no banded Cholesky factor, which
    would prove -lambda_min(A) < H (Rump, BIT 2006). Any other M gives
    sqrt(lambda_max) of its Gram matrix F* F, taken on the float copy F of M,
    whose band is at most the lower plus the upper band of M. For lambda and
    rho, M is the matrix on one L-class part per D-class, which has the
    window's largest singular value.
    """
    M = _build(f, B, rep)
    if M.n == 0:
        raise InputError("empty basis")
    if not len(M.vids):
        return 0.0
    if not M.is_hermitian():
        F = RepMatrix._from_coo(M.n, M.rows, M.cols, M.vids, [to_complex(c) for c in M.values])
        return math.sqrt(max(_extreme_eigvals(F.adjoint() * F, picks=(-1,))[0], 0.0))
    blocks, free = _blocks(M)
    top, lows, bands = (0.0 if free else -math.inf), [0.0] * bool(free), []
    for A in (_lower(*block) for block in blocks):
        *lo, hi = _block_eigvals(A, (0, -1) if A.shape[0] == A.shape[1] else (-1,))
        lows += lo      # one eigvalsh gives both ends of a dense block
        if not lo:
            bands.append(A)
        top = max(top, hi)
    for ab in bands:
        if 0 < top < math.inf:
            from contextlib import suppress
            from scipy.linalg import LinAlgError, cholesky_banded
            shifted = np.concatenate([ab[:1] + (top - top * 2.0 ** -20), ab[1:]])
            with suppress(LinAlgError, ValueError):     # not positive, or overflowed
                cholesky_banded(shifted, lower=True, overwrite_ab=True)
                continue
        lows += _block_eigvals(ab, (0,))
    return _finite(max(-min(lows, default=top), top))


def _build(f, B, rep, parts=True) -> RepMatrix:
    """Lambda on `l_class_parts(B)`, or on B without parts; rho is lambda
    of sum f(s) s* (not conjugated) on B.starred: b a = (a* b*)*, and b a a*
    = b exactly when a a* b* = b*, so each entry keeps its position, on any
    B. A part is Hermitian exactly when the window is, since any pair of
    positions in a smaller part is a pair in its representative."""
    if rep == "action":
        return action_matrix(f, B)
    terms = _as_terms(f, B.context)
    if rep == "rho":
        star = B.context.star
        terms, B = {star(s): c for s, c in terms.items()}, B.starred
    elif rep != "lambda":
        raise InputError(f"unknown representation choice {rep!r}")
    if parts:
        B = l_class_parts(B)
    return _term_matrix(len(B), terms, B.left)


def psd_refute(f, B, rep="lambda", tol=None) -> dict:
    """Certificate that f is not positive, when the compressed spectrum dips
    below -tol. Sound because compressions of positive operators stay PSD.
    For lambda and rho the spectrum is taken on one L-class part per
    D-class; the basis size and the default tol read the whole window."""
    M = _build(f, B, rep)
    if tol is None:
        tol = 1e-9 * max(len(B), 1)
    elif not math.isfinite(tol):
        raise InputError(f"tolerance {tol} is not finite")
    elif tol < 0:
        raise InputError(f"tolerance {tol} is negative; it must be >= 0")
    try:
        value = min_eig(M)
    except NotHermitian:
        if M.n == len(B):
            raise
        # the window's own scan names the position
        value = min_eig(_build(f, B, rep, parts=False))
    return {
        "claim": "f is positive",
        "rep": rep,
        "value": value,
        "tolerance": tol,
        "basis_size": len(B),
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
    element's codes are computed once per call; two codes that are both
    positions, or both -2, agree exactly when the elements they stand for do.
    """
    ctx = B.context
    left = cache(lambda a: B.left(a).tolist())
    right = cache(lambda a: B.starred.left(ctx.star(a)).tolist())
    elems = [e for e in elements if not ctx.is_zero(e)]
    checked = skipped = 0
    violations = []
    pairs = [(s, t) for s in elems for t in elems]

    # Lambda(s) Lambda(t) = Lambda(st), column by column
    for s, t in pairs:
        st = ctx.product(s, t)
        ls, lst = left(s), None if ctx.is_zero(st) else left(st)
        for j, mid in enumerate(left(t)):
            if mid == -1:
                skipped += 1
                continue
            lhs = -2 if mid == -2 else ls[mid]
            rhs = -2 if lst is None else lst[j]
            if lhs == rhs == -1:
                skipped += 1
                continue
            checked += 1
            if lhs != rhs:
                violations.append({"kind": "product", "left": repr(s),
                                   "right": repr(t), "column": repr(B.elements[j])})

    # Lambda(s*) = Lambda(s)^dagger: exact on any window
    def moves(a):
        return {j: i for j, i in enumerate(left(a)) if i >= 0}

    for s in elems:
        checked += 1
        if moves(ctx.star(s)) != {i: j for j, i in moves(s).items()}:
            violations.append({"kind": "star", "element": repr(s)})

    # Lambda(s) R(t) = R(t) Lambda(s); b t t* = b with b != 0 gives bt != 0
    for s, t in pairs:
        ls, rt = left(s), right(t)
        for j, (right_first, left_first) in enumerate(zip(rt, ls)):
            if right_first == -1 or left_first == -1:
                skipped += 1
                continue
            p1 = -2 if right_first == -2 else ls[right_first]
            p2 = -2 if left_first == -2 else rt[left_first]
            if p1 == -1 or p2 == -1:
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
        for s, code in zip(B.elements, B.left(t).tolist()):
            if code == -2:
                zero_cases += len(group_window)
                continue
            if code == -1:
                skipped += len(group_window)
                continue
            ds_inv, dstep = G.inv(grading.degree(s)), grading.degree(B.elements[code])
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
    inside = np.fromiter(map(member, B.elements), dtype=bool, count=len(B))
    lift = np.flatnonzero(inside)
    codes = B.left(h)
    moved = np.flatnonzero(codes >= 0)
    violations = [{"column": repr(B.elements[j]), "target": repr(B.elements[i]),
                   "reason": "left the block"}
                  for j, i in zip(moved.tolist(), codes[moved].tolist())
                  if inside[j] != inside[i]]
    # column by column on the H-basis (B's order), in its positions: Lambda_S(h)
    # where it lands inside H against Lambda_H(h), -1 for no entry either way
    sub = Truncation(ctx, [B.elements[i] for i in lift.tolist()])
    big, small = codes[lift], sub.left(h)
    kept = big >= 0
    kept[kept] = inside[big[kept]]
    compression_ok = np.array_equal(np.where(kept, np.searchsorted(lift, big), -1),
                                    np.maximum(small, -1))
    return {"h": repr(h), "checked": len(moved),
            "skipped": int(np.count_nonzero(codes == -1)),
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
