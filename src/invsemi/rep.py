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
import random
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, Grading, convolve, epsilon_restrict, involution
from .core import FiniteInverseSemigroup, PartialBijection, SemigroupContext
from .errors import ContextMismatch, InputError, NotHermitian
from .scalars import QQi, as_scalar, conj, is_exact, to_complex

# a block this small, or with a band wider than 1/_BAND_RATIO of its size,
# is solved dense: there eigvalsh beats eig_banded (measured at 64-2000 rows)
_SMALL_BLOCK = 256
_BAND_RATIO = 32


class Truncation:
    """Ordered basis of distinct nonzero elements with a membership index."""

    def __init__(self, context, elements):
        self.context = context
        elems = []
        for e in elements:
            if context is not None and context.is_zero(e):
                continue
            elems.append(e)
        self.elements = elems
        self.index = {}
        for i, e in enumerate(elems):
            if e in self.index:
                raise InputError(f"duplicate basis element {e!r}")
            self.index[e] = i

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index


class RepMatrix:
    """Square sparse matrix with at most one entry per position.

    Entries stay exact (QQi) until a float coefficient appears; identity
    checks compare entry dicts, numerics go through to_dense or the block
    solver behind min_eig.
    """

    __slots__ = ("n", "entries", "dropped")

    def __init__(self, n, entries=None, dropped=0):
        self.n = n
        self.entries = {}
        self.dropped = dropped
        if entries:
            for (i, j), c in (entries.items() if isinstance(entries, dict) else entries):
                self.add_entry(i, j, c)

    @classmethod
    def identity(cls, n):
        return cls(n, {(i, i): QQi(1) for i in range(n)})

    def add_entry(self, i, j, c):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise InputError(f"entry ({i},{j}) outside a {self.n}-dim matrix")
        c = as_scalar(c)
        key = (i, j)
        if key in self.entries:
            c = self.entries[key] + c
        if c == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = c

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.entries.values())

    def __eq__(self, other):
        if not isinstance(other, RepMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self):
        raise TypeError("RepMatrix is unhashable")

    def approx_eq(self, other, tol=1e-12) -> bool:
        keys = set(self.entries) | set(other.entries)
        return self.n == other.n and all(
            abs(to_complex(self.entries.get(k, 0j) or 0j)
                - to_complex(other.entries.get(k, 0j) or 0j)) <= tol
            for k in keys)

    def __add__(self, other):
        if self.n != other.n:
            raise InputError("dimension mismatch")
        out = RepMatrix(self.n, dict(self.entries), self.dropped + other.dropped)
        for (i, j), c in other.entries.items():
            out.add_entry(i, j, c)
        return out

    def scale(self, c):
        out = RepMatrix(self.n, dropped=self.dropped)
        c = as_scalar(c)
        if c != 0:
            for k, v in self.entries.items():
                out.entries[k] = v * c
        return out

    def __mul__(self, other):
        if not isinstance(other, RepMatrix):
            return self.scale(other)
        if self.n != other.n:
            raise InputError("dimension mismatch")
        by_row = {}
        for (k, j), c in other.entries.items():
            by_row.setdefault(k, []).append((j, c))
        out = RepMatrix(self.n, dropped=self.dropped + other.dropped)
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                out.add_entry(i, j, a * b)
        return out

    def adjoint(self):
        out = RepMatrix(self.n, dropped=self.dropped)
        for (i, j), c in self.entries.items():
            out.entries[(j, i)] = conj(c)
        return out

    def is_hermitian(self, tol=0.0) -> bool:
        for (i, j), c in self.entries.items():
            d = self.entries.get((j, i))
            if d is None:
                if abs(to_complex(c)) > tol:
                    return False
            elif is_exact(c) and is_exact(d):
                if d.conjugate() != c:
                    return False
            elif abs(to_complex(d).conjugate() - to_complex(c)) > tol:
                return False
        return True

    def max_abs(self) -> float:
        return max((abs(to_complex(c)) for c in self.entries.values()), default=0.0)

    def to_dense(self) -> np.ndarray:
        M = np.zeros((self.n, self.n), dtype=complex)
        for (i, j), c in self.entries.items():
            M[i, j] = to_complex(c)
        return M

    def to_coo_json(self) -> dict:
        from .scalars import scalar_to_json
        coords = sorted(self.entries)
        return {"dim": self.n,
                "dropped": self.dropped,
                "entries": [[i, j, scalar_to_json(self.entries[(i, j)])]
                            for i, j in coords]}

    def __repr__(self):
        return f"RepMatrix({self.n}x{self.n}, {len(self.entries)} entries, {self.dropped} dropped)"


def _as_terms(f, context):
    """Accept an AlgebraElement or a bare element with coefficient one."""
    if isinstance(f, AlgebraElement):
        if context is not None and f.context != context:
            raise ContextMismatch("element lives over a different context")
        return f.terms
    return {f: QQi(1)}


def lambda_matrix(f, B: Truncation) -> RepMatrix:
    """Left regular matrix: entry (ab, b) += f(a) when a*a b = b and ab in B."""
    ctx = B.context
    terms = _as_terms(f, ctx)
    M = RepMatrix(len(B))
    for a, coeff in terms.items():
        dom = ctx.product(ctx.star(a), a)
        for j, b in enumerate(B.elements):
            if ctx.product(dom, b) != b:
                continue
            t = ctx.product(a, b)
            i = B.index.get(t)
            if i is None:
                M.dropped += 1
            else:
                M.add_entry(i, j, coeff)
    return M


def rho_matrix(a, B: Truncation) -> RepMatrix:
    """Right regular matrix: entry (ba, b) += coeff when b a a* = b and ba in B."""
    ctx = B.context
    terms = _as_terms(a, ctx)
    M = RepMatrix(len(B))
    for s, coeff in terms.items():
        ran = ctx.product(s, ctx.star(s))
        for j, b in enumerate(B.elements):
            if ctx.product(b, ran) != b:
                continue
            t = ctx.product(b, s)
            i = B.index.get(t)
            if i is None:
                M.dropped += 1
            else:
                M.add_entry(i, j, coeff)
    return M


def action_matrix(f, window) -> RepMatrix:
    """Point-mass action of partial bijections: entry (s(p), p) += f(s)."""
    if isinstance(window, Truncation):
        points, index = window.elements, window.index
    else:
        points = list(window)
        index = {p: i for i, p in enumerate(points)}
    terms = f.terms if isinstance(f, AlgebraElement) else {f: QQi(1)}
    M = RepMatrix(len(points))
    for s, coeff in terms.items():
        if not isinstance(s, PartialBijection):
            raise InputError("action matrices need partial bijection support")
        for j, p in enumerate(points):
            q = s.map.get(p)
            if q is None:
                continue
            i = index.get(q)
            if i is None:
                M.dropped += 1
            else:
                M.add_entry(i, j, coeff)
    return M


# ---------------------------------------------------------------------------
# spectral certificates
# ---------------------------------------------------------------------------

def _require_hermitian(M: RepMatrix, tol=1e-10):
    if not M.is_hermitian(tol=tol):
        bad = next(((i, j) for (i, j), c in M.entries.items()
                    if abs(to_complex(c)
                           - to_complex(M.entries.get((j, i), 0j) or 0j).conjugate()) > tol),
                   None)
        raise NotHermitian(f"matrix is not Hermitian near entry {bad}", witness=bad)


def _blocks(M: RepMatrix):
    """Connected components of the entry graph of M, in local coordinates.

    Returns (blocks, free): each block is (size, rows, cols, values) with
    indices renumbered 0..size-1 in their original order, and free counts the
    indices no entry touches (zero rows and columns, eigenvalue 0).
    """
    parent = {}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in M.entries:
        parent.setdefault(i, i)
        parent.setdefault(j, j)
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    size, local = {}, {}
    for i in sorted(parent):
        root = find(i)
        local[i] = size.get(root, 0)
        size[root] = local[i] + 1
    parts = {root: ([], [], []) for root in size}
    for (i, j), c in M.entries.items():
        rows, cols, vals = parts[find(i)]
        rows.append(local[i])
        cols.append(local[j])
        vals.append(to_complex(c))
    blocks = [(size[root], np.array(rows), np.array(cols), np.array(vals))
              for root, (rows, cols, vals) in parts.items()]
    return blocks, M.n - len(parent)


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
    return [min(b) if p == 0 else max(b) for p, b in zip(picks, found)]


def _gram(M: RepMatrix) -> RepMatrix:
    """M* M in floats; its band is at most the lower plus the upper band of M."""
    by_row = {}
    for (i, j), c in M.entries.items():
        by_row.setdefault(i, []).append((j, to_complex(c)))
    G = RepMatrix(M.n)
    for row in by_row.values():
        for j, a in row:
            for k, b in row:
                G.entries[(j, k)] = G.entries.get((j, k), 0j) + a.conjugate() * b
    return G


def min_eig(M: RepMatrix) -> float:
    """Smallest eigenvalue of a Hermitian M: the minimum over the connected
    blocks of its entry graph, each solved by dense or banded LAPACK."""
    _require_hermitian(M)
    if M.n == 0:
        raise InputError("empty matrix has no spectrum")
    return _extreme_eigvals(M, picks=(0,))[0]


def norm_lower_bound(f, B, rep="lambda") -> float:
    """Largest singular value of the compressed matrix; never exceeds the
    true norm and is nondecreasing in the window.

    A Hermitian matrix gives max(-lambda_min, lambda_max) from the block
    solve of min_eig; any other gives sqrt(lambda_max) of its Gram matrix.
    """
    M = _build(f, B, rep)
    if M.n == 0:
        raise InputError("empty basis")
    if not M.entries:
        return 0.0
    if M.is_hermitian():
        lo, hi = _extreme_eigvals(M)
        return max(-lo, hi)
    return math.sqrt(max(_extreme_eigvals(_gram(M), picks=(-1,))[0], 0.0))


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

def _regular_step(ctx, a, b):
    """Status of the left regular action on one basis vector: None for zero,
    else the product element."""
    dom = ctx.product(ctx.star(a), a)
    if ctx.product(dom, b) != b:
        return None
    return ctx.product(a, b)


def rep_identity_check(B: Truncation, elements, pairs=None) -> dict:
    """Column-wise multiplicativity, adjoint, and Lambda/R commutation.

    On a multiplicatively closed basis every check is exact. On a window,
    columns whose intermediate products escape the basis are counted as
    skipped instead of verified; everything else is still exact.
    """
    ctx = B.context
    elems = [e for e in elements if not ctx.is_zero(e)]
    checked = skipped = 0
    violations = []

    if pairs is None:
        pairs = [(s, t) for s in elems for t in elems]

    # Lambda(s) Lambda(t) = Lambda(st), column by column
    for s, t in pairs:
        st = ctx.product(s, t)
        for j, b in enumerate(B.elements):
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

    # Lambda(s*) = Lambda(s)^dagger: exact on any window
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

    # Lambda(s) R(t) = R(t) Lambda(s)
    for s, t in pairs:
        ran = ctx.product(t, ctx.star(t))
        for j, b in enumerate(B.elements):
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


def graded_block_check(grading: Grading, B: Truncation, T) -> dict:
    """Columns of Lambda(t) must land in the phi(t) phi(b) fiber or vanish."""
    ctx = grading.context
    checked = 0
    violations = []
    for t in T:
        if ctx.is_zero(t):
            continue
        dt = grading.degree(t)
        for b in B.elements:
            target = _regular_step(ctx, t, b)
            if target is None:
                continue
            checked += 1
            want = grading.group.mul(dt, grading.degree(b))
            if grading.degree(target) != want:
                violations.append({"t": repr(t), "column": repr(b),
                                   "landed": str(grading.degree(target)),
                                   "expected": str(want)})
    return {"checked": checked, "violations": violations, "ok": not violations}


def coaction_unitary_check(grading: Grading, B: Truncation, group_window, T) -> dict:
    """Basis-vector identity W (Lambda(t) x I) W* (d_s x d_g) = d_{ts} x d_{phi(t)g}.

    W twists d_s x d_g to d_s x d_{phi(s)g}; the check walks the three-step
    composite on every (s, g) pair and compares symbolically. Products that
    leave the truncation are counted as skipped boundary cases.
    """
    ctx = grading.context
    G = grading.group
    checked = skipped = zero_cases = 0
    violations = []
    for t in T:
        if ctx.is_zero(t):
            continue
        dt = grading.degree(t)
        for s in B.elements:
            step = _regular_step(ctx, t, s)
            if step is None:
                zero_cases += len(group_window)
                continue
            if step not in B:
                skipped += len(group_window)
                continue
            ds_inv, dstep = G.inv(grading.degree(s)), grading.degree(step)
            for g in group_window:
                checked += 1
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
    member = H if callable(H) else (lambda x, _H=frozenset(H): x in _H)
    ctx = B.context
    if not member(h):
        raise InputError("h must belong to the subsemigroup")
    checked = skipped = 0
    violations = []
    h_basis = [b for b in B.elements if member(b)]
    for b in B.elements:
        target = _regular_step(ctx, h, b)
        if target is None:
            continue
        if target not in B:
            skipped += 1
            continue
        checked += 1
        if member(b) != member(target):
            violations.append({"column": repr(b), "target": repr(target),
                               "reason": "left the block"})
    sub = Truncation(ctx, h_basis)
    big = lambda_matrix(AlgebraElement(ctx, [(h, 1)]), B)
    small = lambda_matrix(AlgebraElement(ctx, [(h, 1)]), sub)
    lift = {i: B.index[e] for i, e in enumerate(sub.elements)}
    block = {(i, j) for (i, j) in big.entries
             if B.elements[i] in sub.index and B.elements[j] in sub.index}
    small_lifted = {(lift[i], lift[j]) for (i, j) in small.entries}
    compression_ok = block == small_lifted
    return {"h": repr(h), "checked": checked, "skipped": skipped,
            "violations": violations,
            "compression_ok": compression_ok,
            "ok": not violations and compression_ok}


def epsilon_faithfulness_check(S: FiniteInverseSemigroup, grading: Grading,
                               trials: int = 100, seed: int = 0) -> dict:
    """Random nonzero g must keep Lambda(eps(g* g)) away from zero."""
    rng = random.Random(seed)
    pool = list(S.nonzero_elements())
    B = Truncation(S, pool)
    member = grading.kernel_predicate()
    failures = []
    for trial in range(trials):
        g = AlgebraElement(S)
        while not g:
            terms = [(rng.choice(pool),
                      QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                     for _ in range(rng.randint(1, 4))]
            g = AlgebraElement(S, terms)
        u = epsilon_restrict(convolve(involution(g), g), member)
        if not u or lambda_matrix(u, B).max_abs() <= 1e-12:
            failures.append({"trial": trial, "g": {repr(k): str(v) for k, v in g.terms.items()}})
    return {"trials": trials, "failures": failures, "ok": not failures}
