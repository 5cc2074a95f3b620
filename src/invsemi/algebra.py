"""Complex semigroup algebra over a context, with gradings and expectations.

Elements are finitely supported coefficient maps into exact rational-complex
scalars (QQi), with the semigroup zero quotiented away: a coefficient at the
zero element is dropped on construction, so convolution products that hit
zero simply vanish. Float coefficients are allowed and taint an element into
approximate mode; every identity assertion here stays in exact mode.

The restriction expectation keeps the coefficients supported on a chosen
subset H (a set or a membership predicate). For a grading phi the fiber
decomposition, the fiber-square identity for epsilon(f* f), and the two
sum-of-squares witness constructions are implemented and verified by exact
recomputation, never assumed.
"""

from __future__ import annotations

import cmath
import operator
from itertools import chain
from typing import Callable, NamedTuple

from .core import Grading, SemigroupContext
from .errors import (
    ContextMismatch,
    IdentityMismatch,
    InputError,
    NotInCoset,
    WitnessFailure,
)
from .scalars import QQi, as_scalar, is_exact, to_complex
from .words import word_inv, word_mul


class AlgebraElement:
    """Finitely supported scalar map on the nonzero part of a context.

    The constructor is the one place terms are summed: it takes (element,
    scalar) pairs or a dict, drops the context's zero, adds repeated elements
    in input order onto the first coefficient given, and drops sums that
    reach 0. Every operation below builds its result through it.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: SemigroupContext, terms=None):
        self.context = context
        clean = {}
        if terms:
            for elem, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if context.is_zero(elem):
                    continue
                c = as_scalar(coeff)
                if elem in clean:
                    c = clean[elem] + c
                if not c:
                    clean.pop(elem, None)
                else:
                    clean[elem] = c
        self.terms = clean

    def support(self):
        return list(self.terms)

    def coeff(self, elem):
        return self.terms.get(elem, QQi(0))

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def _require_same(self, other):
        if not isinstance(other, AlgebraElement):
            raise ContextMismatch(f"expected AlgebraElement, got {type(other)}")
        if self.context != other.context:
            raise ContextMismatch("elements live over different contexts")

    def __add__(self, other):
        self._require_same(other)
        return AlgebraElement(self.context, chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return AlgebraElement(self.context, ((e, -c) for e, c in self.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = as_scalar(c)
        return AlgebraElement(self.context, ((e, v * c) for e, v in self.terms.items()))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def star(self):
        star = self.context.star
        return AlgebraElement(self.context,
                              ((star(e), c.conjugate()) for e, c in self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.context, self.terms) == (other.context, other.terms)

    def __hash__(self):
        raise TypeError("AlgebraElement is unhashable")

    def approx_eq(self, other, tol=1e-12) -> bool:
        self._require_same(other)
        keys = set(self.terms) | set(other.terms)
        for e in keys:
            a = to_complex(self.terms.get(e, 0j) or 0j)
            b = to_complex(other.terms.get(e, 0j) or 0j)
            if abs(a - b) > tol:
                return False
        return True

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        parts = [f"({c})*{e!r}" for e, c in self.terms.items()]
        return "AlgebraElement(" + " + ".join(parts) + ")"


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f g)(a) = sum over st = a of f(s) g(t), zero products discarded."""
    f._require_same(g)
    return _convolve(f, g)


def _convolve(f: AlgebraElement, g: AlgebraElement, member=None) -> AlgebraElement:
    """convolve(f, g), or epsilon_restrict(convolve(f, g), member): every
    product is still evaluated and tested, but only the kept ones are
    multiplied out."""
    ctx = f.context
    product, is_zero = ctx.product, ctx.is_zero
    return AlgebraElement(ctx, (
        (p, a * b) for s, a in f.terms.items() for t, b in g.terms.items()
        for p in (product(s, t),) if not is_zero(p) and (member is None or member(p))))


def involution(f: AlgebraElement) -> AlgebraElement:
    return f.star()


def _membership(H):
    """H itself when it is a predicate, else a test for membership in it."""
    return H if callable(H) else (lambda x, _H=frozenset(H): x in _H)


def epsilon_restrict(f: AlgebraElement, H) -> AlgebraElement:
    """Keep the coefficients supported on H (a container or a predicate)."""
    member = _membership(H)
    return AlgebraElement(f.context, [(e, c) for e, c in f.terms.items() if member(e)])


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

# Grading itself lives in core, next to the contexts that build theirs

class GroupOps(NamedTuple):
    """A group as its identity, product and inverse over hashable elements;
    a GroupTable offers the same three names, so a grading takes either."""

    identity: object
    mul: Callable
    inv: Callable


INTEGERS = GroupOps(0, operator.add, operator.neg)
FREE_GROUP = GroupOps((), word_mul, word_inv)


def zn_group(n: int) -> GroupOps:
    """Z^n written additively on int tuples."""
    return GroupOps((0,) * n, lambda a, b: tuple(map(operator.add, a, b)),
                    lambda a: tuple(map(operator.neg, a)))


def product_group(left, right) -> GroupOps:
    """Direct product of two groups, elements written as pairs."""
    return GroupOps((left.identity, right.identity),
                    lambda a, b: (left.mul(a[0], b[0]), right.mul(a[1], b[1])),
                    lambda a: (left.inv(a[0]), right.inv(a[1])))


def fiber_decompose(f: AlgebraElement, grading: Grading) -> dict:
    """Split f into its graded fibers f_g; the fibers sum back to f."""
    if f.context != grading.context:
        raise ContextMismatch("grading is over a different context")
    terms = f.terms
    return {g: AlgebraElement(f.context, [(e, terms[e]) for e in members])
            for g, members in grading.fibers(terms).items()}


def epsilon_star_square(f: AlgebraElement, grading: Grading) -> AlgebraElement:
    """Return sum_g f_g* f_g and assert it equals epsilon(f* f) on the kernel."""
    rhs = AlgebraElement(f.context, chain.from_iterable(
        convolve(involution(part), part).terms.items()
        for part in fiber_decompose(f, grading).values()))
    lhs = _convolve(involution(f), f, grading.kernel_member)
    if lhs != rhs:
        keys = set(lhs.terms) | set(rhs.terms)
        for e in sorted(keys, key=repr):
            if lhs.terms.get(e) != rhs.terms.get(e):
                raise IdentityMismatch(
                    "epsilon(f* f) differs from the fiber-square sum",
                    witness=(e, lhs.terms.get(e), rhs.terms.get(e)))
    return rhs


# ---------------------------------------------------------------------------
# sum-of-squares witnesses
# ---------------------------------------------------------------------------

def _single_fiber(f: AlgebraElement, grading: Grading):
    degs = list(grading.fibers(f.terms))
    if len(degs) > 1:
        raise InputError(f"element is not supported on a single fiber: {degs}")


def _verified_witness(f_g: AlgebraElement, witness: AlgebraElement, name: str):
    """Return the witness once f'* f' = f* f holds exactly; raise otherwise.
    Float coefficients whose squares overflow are bad input, not a failure."""
    lhs, rhs = (convolve(involution(x), x) for x in (witness, f_g))
    if not all(is_exact(c) or cmath.isfinite(c)
               for c in chain(lhs.terms.values(), rhs.terms.values())):
        raise InputError(f"{name} witness: f'* f' or f* f overflows the float range")
    if lhs != rhs:
        raise WitnessFailure(f"{name} witness failed f'* f' = f* f",
                             witness=(f_g.terms, witness.terms))
    return witness


def sos_witness_idempotent_kernel(f_g: AlgebraElement,
                                  grading: Grading | None = None) -> AlgebraElement:
    """Witness f' = sum alpha_s (s* s) with f'* f' = f_g* f_g, verified exactly.

    Valid when f_g sits in one fiber of a grading whose kernel is exactly the
    nonzero idempotents; a failed identity falsifies that hypothesis and
    raises WitnessFailure.
    """
    if grading is not None:
        _single_fiber(f_g, grading)
    ctx = f_g.context
    witness = AlgebraElement(
        ctx, [(ctx.product(ctx.star(s), s), c) for s, c in f_g.terms.items()])
    return _verified_witness(f_g, witness, "idempotent-kernel")


def sos_witness_coset(f_g: AlgebraElement, s_g,
                      grading: Grading | None = None) -> AlgebraElement:
    """Witness f' = sum alpha_s (s_g* s_g) h_s with h_s = s_g* s, verified exactly.

    Each support element must factor through the chosen fiber representative:
    s_g h_s = s is required and NotInCoset(s) raised otherwise.
    """
    if grading is not None:
        _single_fiber(f_g, grading)
    ctx = f_g.context
    root = ctx.product(ctx.star(s_g), s_g)
    pairs = []
    for s, c in f_g.terms.items():
        h_s = ctx.product(ctx.star(s_g), s)
        if ctx.product(s_g, h_s) != s:
            raise NotInCoset("support element does not factor through the representative",
                             witness=s)
        pairs.append((ctx.product(root, h_s), c))
    return _verified_witness(f_g, AlgebraElement(ctx, pairs), "coset")


# ---------------------------------------------------------------------------
# grading checks over finite element lists
# ---------------------------------------------------------------------------

def _elem_label(ctx, e):
    labels = getattr(ctx, "labels", None)
    if labels is not None and isinstance(e, int):
        return labels[e]
    return str(e)


def _graded_scan(grading: Grading, elements):
    """Grade the nonzero listed elements and scan their nonzero products.

    Returns the elements, their fibers (degree -> members, in order of first
    appearance), the fiber index of each element, and (i, j, product degree,
    expected degree) for every nonzero product whose degree is not the
    expected one, in ascending (i, j). Every pair the context's partner index
    does not rule out is multiplied, and every nonzero product's degree is
    compared. Left elements are taken fiber by fiber: the expected degree is
    computed once per pair of fibers, equal products within one left fiber
    are graded once, and both are kept only while that fiber is scanned (a
    memo kept for the whole scan grew the peak RSS of `grading-check` on
    bouquet2 at length 5 from 39 to 130 MiB).

    One scan serves both reports: the grading keeps its last scan, keyed by
    the listed elements compared by value, so a caller that reports on the
    same grading and an equal list twice (`check_grading`, then
    `bundle_fibers`) scans once; one report per grading costs one copy of
    the list. Neither report changes the scan: `bundle_fibers` sorts a copy
    of the mismatches and returns fresh fiber lists.
    """
    listed = tuple(elements)
    last = grading._last_scan
    if last is not None and last[0] == listed:
        return last[1]
    ctx = grading.context
    mul, degree = grading.group.mul, grading.degree
    product, is_zero = ctx.product, ctx.is_zero
    elems = [e for e in listed if not is_zero(e)]
    fibers = grading.fibers(elems)
    degrees = list(fibers)
    where = {e: k for k, members in enumerate(fibers.values()) for e in members}
    fiber_of = [where[e] for e in elems]
    partners = ctx.partners(elems)
    left, mismatches = None, []
    for i in sorted(range(len(elems)), key=fiber_of.__getitem__):
        a = elems[i]
        if fiber_of[i] != left:
            left, expected, graded = fiber_of[i], {}, {}
        for j in partners(a):
            p = product(a, elems[j])
            if is_zero(p):
                continue
            got = graded.get(p)
            if got is None:
                got = graded[p] = degree(p)
            right = fiber_of[j]
            want = expected.get(right)
            if want is None:
                want = expected[right] = mul(degrees[left], degrees[right])
            if got != want:
                mismatches.append((i, j, got, want))
    mismatches.sort()
    scan = elems, fibers, fiber_of, mismatches
    # Grading is frozen; this one field is its memo, not part of its value
    object.__setattr__(grading, "_last_scan", (listed, scan))
    return scan


def check_grading(grading: Grading, elements) -> dict:
    """Verify multiplicativity of the degree map on every nonzero pair.

    Products are evaluated in the ambient context, so pairs whose product
    leaves the listed truncation are still checked exactly; `skipped` stays
    for contexts that cannot evaluate a product (none of the built-in ones).
    `checked` counts every listed pair, the ones the partner index rules out
    as zero included. Reports whether the kernel meets the listed elements in
    exactly the nonzero idempotents (idempotent-pure).
    """
    ctx = grading.context
    elems, fibers, _, mismatches = _graded_scan(grading, elements)
    violations = [{
        "left": _elem_label(ctx, elems[i]),
        "right": _elem_label(ctx, elems[j]),
        "product_degree": str(got),
        "expected_degree": str(want),
    } for i, j, got, want in mismatches]
    kernel = set(fibers.get(grading.group.identity, ()))
    idem = {e for e in elems if ctx.product(e, e) == e}
    return {
        "checked": len(elems) ** 2,
        "skipped": 0,
        "violations": violations,
        "kernel_size": len(kernel),
        "idempotent_pure": kernel == idem,
        "ok": not violations,
    }


def bundle_fibers(elements, grading: Grading) -> tuple[dict, dict]:
    """Group a truncation by degree and check the graded fiber axioms.

    Star must swap the g and g^-1 fibers, and products from fibers g and h
    must land in the gh fiber or die at zero. Returns (fibers, report);
    product violations are listed fiber pair by fiber pair.
    """
    ctx = grading.context
    elems, fibers, fiber_of, mismatches = _graded_scan(grading, elements)
    star_violations = []
    for g, members in fibers.items():
        ginv = grading.group.inv(g)
        starred = {ctx.star(s) for s in members}
        expected = set(fibers.get(ginv, []))
        if starred != expected:
            star_violations.append({
                "fiber": str(g),
                "starred_not_listed": [_elem_label(ctx, s) for s in sorted(starred - expected, key=repr)],
                "missing": [_elem_label(ctx, s) for s in sorted(expected - starred, key=repr)],
            })
    degrees = list(fibers)
    # members of one fiber keep their list order, so (fiber of i, fiber of j,
    # i, j) is the order of a scan over fiber pairs
    product_violations = [{
        "left_fiber": str(degrees[fiber_of[i]]),
        "right_fiber": str(degrees[fiber_of[j]]),
        "left": _elem_label(ctx, elems[i]),
        "right": _elem_label(ctx, elems[j]),
        "product_degree": str(got),
    } for i, j, got, _ in sorted(mismatches, key=lambda m: (fiber_of[m[0]], fiber_of[m[1]],
                                                               m[0], m[1]))]
    report = {
        "fiber_sizes": {str(g): len(v) for g, v in sorted(fibers.items(), key=lambda kv: str(kv[0]))},
        "checked": len(elems) ** 2,
        "skipped": 0,
        "star_violations": star_violations,
        "product_violations": product_violations,
        "ok": not star_violations and not product_violations,
    }
    return {g: list(members) for g, members in fibers.items()}, report
