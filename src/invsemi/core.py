"""Carriers and structure operations for finite inverse semigroups.

Three kinds of carrier live here:

* PartialBijection and IXContext, the symmetric inverse monoid I(X) over a
  finite carrier set, with products computed on demand; semigroup documents
  given by generating maps are closed here (the shift bundle keeps its own
  interval form, in families);
* FiniteInverseSemigroup, a fully tabulated semigroup (product table, star
  table, optional zero), each table one read-only integer array that every
  structure operation reads in whole-array steps;
* GroupTable, a tabulated semigroup with one idempotent, that is a finite
  group, used as the target of homomorphisms and maximum group images.

All contexts share the small product/star/is_zero protocol that the algebra
layer builds on, and each answers for its family: its Grading (defined here,
next to the contexts), the window the graded commands scan, and the hooks of
SemigroupContext.

On a table of n elements, each structure operation costs about n*k or n^2,
where k is the size of a generating set: closure walks the right Cayley
graph, Light's associativity test and the homomorphism test run over a
generating set, and the group image reads the row of the least idempotent.
Each is a few numpy gathers and comparisons, so a table of a few elements
pays numpy's per-call cost instead of a few list reads. The omega-cosets
up(sH) of a subsemigroup H cost about n*|H|*|E|: each is a union of the
idempotent preimages {x : x e = y}, listed once from the n*|E| cells x e.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CapExceeded,
    InputError,
    NotUpwardClosed,
    OracleMismatch,
    PartitionFailure,
)


class SemigroupContext:
    """Protocol base: product, star, zero test over hashable elements, and
    what a family answers for itself.

    A family overrides `grading` and `window`, and each hook below where it
    differs. A context stores no `Grading` or algebra element over itself:
    that would tie it into a reference cycle, which only the cycle collector
    frees.
    """

    zero = None

    # A family that knows its Green structure sets this to a map from a
    # nonzero element to (d_key, l_key, place): its D-class, its L-class in
    # it, and a place that right translation between two L-classes of one
    # D-class keeps (BR, graphs, Toeplitz). The certificates then solve one
    # L-class part per D-class (rep.l_class_parts); None solves the window.
    green_coordinates = None

    def product(self, a, b):
        raise NotImplementedError

    def star(self, a):
        raise NotImplementedError

    def is_zero(self, x) -> bool:
        return self.zero is not None and x == self.zero

    def is_idempotent(self, x) -> bool:
        return self.product(x, x) == x

    def partners(self, elements):
        """For the listed elements, a map from a left element to the ascending
        indices of the listed right elements whose product with it can be
        nonzero; a kind that cannot rule a pair out answers all of them."""
        everyone = range(len(elements))
        return lambda a: everyone

    def left_action(self, elements):
        """For the listed distinct elements, a map `act` from a to an int64
        array with one code per listed b: the position of a b in the list,
        -1 when a b is not listed (it leaves the list), and -2 when b is
        outside the domain of a, that is a*a b != b."""
        index = {e: i for i, e in enumerate(elements)}

        def act(a):
            dom = self.product(self.star(a), a)
            return np.fromiter((index.get(self.product(a, b), -1)
                                if self.product(dom, b) == b else -2 for b in elements),
                               dtype=np.int64, count=len(elements))

        return act

    def grading(self) -> Grading:
        """The family's grading, built anew on each call."""
        raise NotImplementedError

    def window(self, window, length):
        """The basis the graded commands scan; a family reads the index
        window, the length bound, or neither."""
        raise NotImplementedError

    def finite_semigroup(self):
        """The whole semigroup tabulated; its group image is `S.group_image`."""
        raise InputError("this structure is infinite; use a semigroup or graph document")

    def expectation_domain(self):
        """Membership predicate of the subsemigroup epsilon restricts to."""
        return self.grading().kernel_member

    def coset_rep(self, degree):
        """Representative of the fiber of `degree`, for the coset witness."""
        raise InputError("coset mode needs a 'rep' element for this structure")

    def group_window(self, basis, grading, window):
        """Group elements the coaction check twists by: the identity, then
        each other degree on the basis once."""
        identity = grading.group.identity
        return [identity, *(d for d in grading.fibers(basis) if d != identity)]


@dataclass(frozen=True)
class Grading:
    """Degree map from the nonzero part of a context into a group, which is
    a GroupTable or an algebra.GroupOps.

    The map must send nonzero products multiplicatively; the semigroup zero
    plays the adjoined zero of the group and is never graded.

    Frozen, so that the last graded scan it keeps (see algebra._graded_scan)
    stays the scan of these three fields; `degree` must be a pure function.
    """

    context: SemigroupContext
    group: object
    degree: Callable
    _last_scan: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def kernel_member(self, x) -> bool:
        return self.degree(x) == self.group.identity

    def fibers(self, elements) -> dict:
        """{degree: members} over the listed elements, each graded once;
        degrees and the members of each keep the order they are listed in."""
        out = {}
        for e in elements:
            out.setdefault(self.degree(e), []).append(e)
        return out


# ---------------------------------------------------------------------------
# partial bijections
# ---------------------------------------------------------------------------

class PartialBijection:
    """Injective partial map on a finite set of hashable points."""

    __slots__ = ("map", "_key")

    def __init__(self, mapping):
        m = dict(mapping)
        vals = set(m.values())
        if len(vals) != len(m):
            raise InputError(f"not injective: {m!r}")
        try:
            key = tuple(sorted(m.items()))
        except TypeError:
            raise InputError(f"the points of a map must be comparable: {m!r}") from None
        object.__setattr__(self, "map", m)
        object.__setattr__(self, "_key", key)

    def __setattr__(self, name, value):
        raise AttributeError("PartialBijection is immutable")

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __len__(self):
        return len(self.map)

    def __repr__(self):
        return f"PartialBijection({dict(self._key)!r})"

    def domain(self):
        return frozenset(self.map)

    def range(self):
        return frozenset(self.map.values())

    def compose(self, other: "PartialBijection") -> "PartialBijection":
        """self after other: x -> self(other(x)) where both steps are defined."""
        m = {}
        smap = self.map
        for x, y in other.map.items():
            if y in smap:
                m[x] = smap[y]
        return PartialBijection(m)

    def inverse(self) -> "PartialBijection":
        return PartialBijection({v: k for k, v in self.map.items()})

    def is_idempotent(self) -> bool:
        return all(k == v for k, v in self.map.items())


EMPTY_PB = PartialBijection({})


def pb_label(pb: PartialBijection) -> str:
    if not pb.map:
        return "0"
    if pb.is_idempotent():
        return "id{" + ",".join(str(k) for k, _ in pb._key) + "}"
    return ";".join(f"{k}>{v}" for k, v in pb._key)


class IXContext(SemigroupContext):
    """The symmetric inverse monoid I(X) over a fixed finite carrier."""

    def __init__(self, carrier):
        self.carrier = frozenset(carrier)
        self.zero = EMPTY_PB

    def __eq__(self, other):
        return isinstance(other, IXContext) and self.carrier == other.carrier

    def __hash__(self):
        return hash(("IX", self.carrier))

    def contains(self, pb: PartialBijection) -> bool:
        return pb.domain() <= self.carrier and pb.range() <= self.carrier

    def product(self, a, b):
        return a.compose(b)

    def star(self, a):
        return a.inverse()


# ---------------------------------------------------------------------------
# tabulated semigroups and groups
# ---------------------------------------------------------------------------

# Light's test gathers this many cells at a time, so its scratch stays small
# next to the table
_BLOCK_CELLS = 1 << 22


def _index_dtype(n):
    return np.int16 if n < 2 ** 15 else np.int32


def _frozen(a):
    a.flags.writeable = False
    return a


class FiniteInverseSemigroup(SemigroupContext):
    """Product table + star table over elements 0..n-1, optional zero index.

    `table` is one read-only n x n integer array (int16 below 2^15 elements,
    else int32) and `star_table` a read-only array of n indices; every
    whole-table step is an array step. `product` and `star` read a list
    view, built on the first scalar read, since a list cell reads faster
    than an array cell. `validate` is the one check of a table document: it
    names each bad cell, star entry or label by its JSON path under `path`.
    """

    path = "$"

    def __init__(self, table, star_table=None, zero=None, labels=None,
                 witnesses=None, check=True):
        self.table = _table_array(table, f"{self.path}.table" if check else None)
        self.n = n = len(self.table)
        # found on first use: the list view that product and star read, the
        # greedy generating set and the idempotents. Plain attributes, since
        # a cached property's store slows every attribute read on the object
        self._rows = self._stars = self._gens = self._idem = None
        if star_table is None:
            star_table = self._derive_star()
        elif check:
            _check_star(star_table, n, f"{self.path}.star")
        self.star_table = _frozen(np.asarray(star_table, dtype=_index_dtype(n)))
        self.zero = zero
        self.labels = list(labels) if labels else [f"s{i}" for i in range(n)]
        self.witnesses = witnesses
        if check:
            self._check_structure()

    def __eq__(self, other):
        return other is self or (isinstance(other, FiniteInverseSemigroup)
                                 and np.array_equal(self.table, other.table)
                                 and np.array_equal(self.star_table, other.star_table)
                                 and self.zero == other.zero)

    def __hash__(self):
        return hash((self.table.tobytes(), self.star_table.tobytes()))

    @property
    def zero_index(self):
        """The zero's index, or None: a read-only alias of `zero`, which
        perfbench/structure.py reads."""
        return self.zero

    def elements(self):
        return range(self.n)

    def nonzero_elements(self):
        return [i for i in range(self.n) if i != self.zero]

    @functools.cached_property
    def group_image(self):
        """(G, sigma), the maximum group image, computed on first use."""
        return max_group_image(self)

    @functools.cached_property
    def _e_unitary_witness(self):
        """First non-idempotent in the kernel of `group_image`, or None: one
        mask, computed on first use."""
        G, sigma = self.group_image
        bad = (np.array(sigma) == G.identity) & (self.table.diagonal() != np.arange(self.n))
        return int(bad.argmax()) if np.count_nonzero(bad) else None

    def _idempotents(self):
        """The fixed points of the diagonal, as an array."""
        if self._idem is None:
            self._idem = (self.table.diagonal() == np.arange(self.n)).nonzero()[0]
        return self._idem

    def _reach(self):
        """The greedy generating set of the table and its reach steps."""
        if self._gens is None:
            self._gens = _generating_set(self.table)
        return self._gens

    def grading(self) -> Grading:
        G, sigma = self.group_image
        return Grading(self, G, sigma.__getitem__)

    def window(self, window, length):
        return self.nonzero_elements()

    def finite_semigroup(self):
        return self

    def product(self, a, b):
        try:
            return self._rows[a][b]
        except TypeError:       # the first scalar read: no list view yet
            if self._rows is not None:
                raise
            self._rows = self.table.tolist()
            return self._rows[a][b]

    def star(self, a):
        try:
            return self._stars[a]
        except TypeError:
            if self._stars is not None:
                raise
            self._stars = self.star_table.tolist()
            return self._stars[a]

    def label_index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown element label: {label!r}") from None

    def _derive_star(self):
        """Inverses along the reach tree of a generating set: a scan finds g*
        for each generator g, and each reached s = p g gets s* = g* p*.
        validate() proves the result; on a table that is not inverse it
        fails there, or here when a generator's inverse is not unique."""
        T = self.table
        gens, steps = self._reach()
        g, every = np.array(gens, dtype=np.intp), np.arange(self.n)
        # x is an inverse of g when g x g = g and x g x = x
        inverse = (T[T[g], g[:, None]] == g[:, None]) & (T[T[:, g].T, every] == every)
        star = [0] * self.n
        counts = np.count_nonzero(inverse, axis=1).tolist()
        firsts = inverse.argmax(axis=1).tolist()
        for g, count, x in zip(gens, counts, firsts):
            if count != 1:
                raise InputError(f"element {g} has {count} generalized inverses, expected 1")
            star[g] = x
        for s, p, g in steps:
            star[s] = T.item(star[g], star[p])
        return star

    def validate(self):
        """Check the table is an inverse semigroup with this star and zero.

        Associativity is Light's test over a generating set. Inverses are not
        searched for: a regular semigroup (star gives an inverse of every
        element) whose idempotents commute is inverse, so each one is unique.
        """
        _table_array(self.table, f"{self.path}.table")
        _check_star(self.star_table, self.n, f"{self.path}.star")
        self._check_structure()

    def _check_structure(self):
        """validate() on a table whose cells and star entries are checked."""
        n, path = self.n, self.path
        z = self.zero
        if z is not None and not (type(z) is int and 0 <= z < n):
            raise InputError(f"{path}.zero: expected an element index in 0..{n - 1}, got {z!r}")
        if len(self.labels) != n:
            raise InputError(f"{path}.labels: {len(self.labels)} labels for {n} elements")
        _check_labels(self.labels, f"{path}.labels")
        T, star = self.table, self.star_table
        bad = associativity_witness(T, self._reach()[0])
        if bad is not None:
            raise InputError(f"not associative at {bad}")
        every = np.arange(n, dtype=T.dtype)
        # s s* s = s and s** = s for all s give s* s s* = s* too; on a
        # failure, the first s that fails any of the three is named
        if (_first_difference(T[T[every, star], every], every) >= 0
                or _first_difference(star[star], every) >= 0):
            for s, st in enumerate(star.tolist()):
                if T[T[s, st], s] != s or T[T[st, s], st] != st:
                    raise InputError(f"star table wrong at {s}")
                if star[st] != s:
                    raise InputError(f"star not involutive at {s}")
        idem = self._idempotents()
        TE = T[idem[:, None], idem]
        clash = _first_difference(TE, TE.T)
        if clash >= 0:
            e, f = idem[list(divmod(clash, len(idem)))].tolist()
            raise InputError(f"idempotents {e},{f} do not commute")
        # an absorbing zero passed the star check only if z* = z* z z* = z
        if z is not None and _first_difference(np.concatenate((T[z], T[:, z])), z) >= 0:
            raise InputError("declared zero is not absorbing")


def _first_difference(a, b):
    """The first flat index at which the array a differs from b (an array of
    its shape, or a scalar), or -1."""
    differ = a != b
    return int(differ.argmax()) if np.count_nonzero(differ) else -1


def _check_index_list(values, n, path):
    """Every entry of `values` is an int in 0..n-1 (bool and float rejected)."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not values or set(map(type, values)) == {int} and 0 <= min(values) and max(values) < n:
        return
    for j, v in enumerate(values):
        if type(v) is not int or not 0 <= v < n:
            raise InputError(f"{path}[{j}]: expected an element index in 0..{n - 1}, got {v!r}")


def _check_star(star, n, path):
    if len(star) != n:
        raise InputError(f"{path}: {len(star)} entries for {n} elements")
    _check_index_list(star, n, path)


def _check_cells(table, n, path):
    """The table is n x n and every cell is an element index."""
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"{path}[{i}]: expected an array of {n} cells, got {row!r}")
        if len(row) != n:
            raise InputError(f"{path}[{i}]: row has {len(row)} cells, expected {n}")
        _check_index_list(row, n, f"{path}[{i}]")


def _table_array(table, path=None):
    """The square table as a read-only index array, kept as it is when it
    already is one.

    Given a path, every row and cell is checked: the cell types in Python
    (a bool or float cell is rejected) and their range in numpy. Only when
    that fails does the row-by-row scan run, to name the first bad row or
    cell under the path.
    """
    n = len(table)
    dtype = _index_dtype(n)
    if path is not None:
        if isinstance(table, np.ndarray):
            fine = table.shape == (n, n) and table.dtype.kind in "iu"
        else:
            fine = (all(isinstance(row, (list, tuple)) and len(row) == n for row in table)
                    and set().union(*[set(map(type, row)) for row in table]) <= {int})
            if fine:
                try:
                    table = np.array(table, dtype=dtype)
                except OverflowError:
                    fine = False
        # read as unsigned, a negative cell is past every n
        fine = fine and (not n or table.view(f"u{table.itemsize}").max() < n)
        if not fine:
            rows = table.tolist() if isinstance(table, np.ndarray) else table
            _check_cells(rows, n, path)
    return _frozen(np.asarray(table, dtype=dtype).reshape(n, n))


def _check_labels(labels, path):
    """Every label is a string and no two are equal."""
    first = {}
    for j, v in enumerate(labels):
        if type(v) is not str:
            raise InputError(f"{path}[{j}]: expected a string label, got {v!r}")
        if v in first:
            raise InputError(f"{path}[{j}]: label {v!r} already names element {first[v]}")
        first[v] = j


def _generating_set(T):
    """A greedy generating set of the magma with product table T, and how
    each other element was reached.

    Scans elements in index order; one not yet reached becomes a generator,
    and the reached set is closed under right multiplication by every
    generator so far. Every element is then a left-normed product
    (...((g1 g2) g3)...) gk of generators. Returns the generators and, in
    reach order, a step (s, p, g) with s = p g for each non-generator s.
    """
    n = len(T)
    gens, cols, order, steps = [], [], [], []
    reached = [False] * n
    done = [0] * n          # how many generators order[i] was multiplied by
    for x in range(n):
        if reached[x]:
            continue
        gens.append(x)
        cols.append(T[:, x].tolist())
        reached[x] = True
        order.append(x)
        i = 0
        while i < len(order):
            r = order[i]
            for j in range(done[r], len(gens)):
                p = cols[j][r]
                if not reached[p]:
                    reached[p] = True
                    order.append(p)
                    steps.append((p, r, gens[j]))
            done[r] = len(gens)
            i += 1
    return gens, steps


def associativity_witness(t, gens=None):
    """Light's test: a triple (x, g, y) with (xg)y != x(gy), or None.

    The set of a with (xa)y = x(ay) for all x, y is closed under products in
    any magma, so it is the whole table once it holds every element of a
    generating set. Costs n^2 per generator instead of n^3 overall: per
    generator g, the gathers T[T[:, g]] and T[:, T[g]] are compared, a block
    of rows at a time. `gens` is a generating set of t, found here if not
    given.
    """
    T = np.asarray(t)
    n = len(T)
    gens = _generating_set(T)[0] if gens is None else gens
    # every generator in one gather on a small table, else one generator a
    # block of rows at a time: either way the first failure in (g, x, y)
    # order is the one found
    chunks = [gens] if len(gens) * n * n <= _BLOCK_CELLS else [[g] for g in gens]
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    for chunk in chunks:
        g = np.array(chunk, dtype=np.intp)
        gy = T[g].astype(np.intp)
        for x0 in range(0, n, rows):
            block = T[x0:x0 + rows]
            left, right = T[block[:, g]], block.take(gy, axis=1)
            bad = _first_difference(left.transpose(1, 0, 2), right.transpose(1, 0, 2))
            if bad >= 0:
                i, x, y = np.unravel_index(bad, left.transpose(1, 0, 2).shape)
                return (x0 + int(x), chunk[i], int(y))
    return None


def homomorphism_witness(t, m, G, gens=None):
    """A pair (s, g) with m(s g) != m(s) m(g) in the group G, or None.

    g runs over the generating set of the table t only: n*k products, not
    n^2, each generator one gather. Every element is a left-normed product
    x1...xk of generators, and induction on k gives m(s x1...xk) =
    m(s x1...x(k-1)) m(xk) = m(s) m(x1...x(k-1)) m(xk) = m(s) m(x1...xk),
    the last step being the test at x1...x(k-1). So t must be associative
    (validated, or built by closure) and G a group (a validated GroupTable),
    as in Light's test. `gens` is a generating set of t, found here if not
    given.
    """
    T = np.asarray(t)
    n = len(T)
    image = np.fromiter(map(m, range(n)), dtype=G.table.dtype, count=n)
    gens = _generating_set(T)[0] if gens is None else gens
    g = np.array(gens, dtype=np.intp)
    # m(s g) against m(s) m(g) for every generator at once, read g by g
    bad = _first_difference(image[T[:, g]].T, G.table[image, image[g][:, None]])
    if bad >= 0:
        i, s = divmod(bad, n)
        return (s, gens[i])
    return None


class GroupTable(FiniteInverseSemigroup):
    """Tabulated finite group: an inverse semigroup whose one idempotent is
    its identity.

    One idempotent e suffices: s s* and s* s are idempotents, so both equal
    e, and then e s = s s* s = s = s s* s = s e. The group product and
    inverse are the semigroup's product and star.
    """

    path = "$.group"

    def __init__(self, table, labels=None):
        super().__init__(table, labels=labels or [f"g{i}" for i in range(len(table))])
        idem = self._idempotents().tolist()
        if len(idem) != 1:
            raise InputError(f"{len(idem)} idempotents, a group has exactly one")
        self.identity = idem[0]

    mul = FiniteInverseSemigroup.product
    inv = FiniteInverseSemigroup.star


@dataclass
class Homomorphism:
    """Multiplicative map from a finite inverse semigroup without zero onto a group."""

    source: FiniteInverseSemigroup
    target: GroupTable
    mapping: list

    def __post_init__(self):
        S, G, m = self.source, self.target, self.mapping
        if S.zero is not None:
            raise InputError("homomorphism source must not contain a zero")
        if len(m) != S.n or any(not (0 <= v < G.n) for v in m):
            raise InputError("homomorphism mapping malformed")
        bad = homomorphism_witness(S.table, m.__getitem__, G, S._reach()[0])
        if bad is not None:
            raise InputError(f"not multiplicative at ({bad[0]},{bad[1]})")

    def __call__(self, s):
        return self.mapping[s]


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------

def _transpose_in_place(A, block=512):
    """Transpose the square array A a pair of blocks at a time, so no second
    copy of A is ever held."""
    n = len(A)
    for i in range(0, n, block):
        I = slice(i, i + block)
        A[I, I] = A[I, I].T.copy()
        for j in range(i + block, n, block):
            J = slice(j, j + block)
            corner = A[I, J].copy()
            A[I, J] = A[J, I].T
            A[J, I] = corner.T


def close_generators(gens, carrier=None, cap=20000) -> FiniteInverseSemigroup:
    """Close partial bijections under composition and inversion.

    Breadth-first orbit on the right Cayley graph (Froidure & Pin): seeds the
    generators, then their inverses, and right-multiplies each element in
    first-seen order by those seeds only, so it composes n*k maps for n
    elements and k seeds. A map is a row of point positions over the
    carrier, padded with one position for "undefined", so a whole frontier
    is multiplied by a seed in one gather and its new maps are found by
    their row bytes, interned in (element, seed) order. Every other table
    column follows from the graph: if b = p*g then a*b = (a*p)*g, one gather
    per column. Returns the tabulated semigroup; the empty map becomes the
    zero when it arises. Raises CapExceeded past `cap` elements, and
    InputError when two elements get one `pb_label`.
    """
    gens = list(gens)
    if not gens:
        raise InputError("no generators")
    if carrier is None:
        pts = set()
        for g in gens:
            pts |= g.domain() | g.range()
        carrier = pts
    ctx = IXContext(carrier)
    for g in gens:
        if not ctx.contains(g):
            raise InputError(f"generator leaves the carrier: {g!r}")

    points = list(ctx.carrier)
    m = len(points)
    place = {p: i for i, p in enumerate(points)}
    dtype = _index_dtype(m + 1)

    def row(pb):
        r = [m] * (m + 1)
        for x, y in pb.map.items():
            r[place[x]] = place[y]
        return r

    def keys(rows):
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.itemsize * (m + 1)))).ravel().tolist()

    index = {}

    def intern(rows):
        """The index of each row, numbering new ones in order; and where the new ones sit."""
        ids, new = [], []
        for q, key in enumerate(keys(rows)):
            i = index.get(key)
            if i is None:
                if len(index) >= cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
                i = index[key] = len(index)
                new.append(q)
            ids.append(i)
        return ids, new

    seeds = np.array([row(g) for g in gens] + [row(g.inverse()) for g in gens], dtype=dtype)
    frontier = seeds = seeds[intern(seeds)[1]]
    k = len(seeds)
    frontiers = [seeds]
    parent, step = [], []   # element k + i is element parent[i] * seed step[i]
    right = []              # right[a * k + j] = index of element a * seed j
    while len(frontier):
        first = len(index) - len(frontier)
        products = frontier[:, seeds].reshape(-1, m + 1)
        ids, new = intern(products)
        right += ids
        parent += [first + q // k for q in new]
        step += [q % k for q in new]
        frontier = products[new]
        frontiers.append(frontier)
    n = len(index)
    table_dtype = _index_dtype(n)
    R = np.array(right, dtype=table_dtype).reshape(n, k).T
    # columns first, as rows of one array, then turned into the table
    T = np.empty((n, n), dtype=table_dtype)
    T[:k] = R
    for b in range(k, n):
        R[step[b - k]].take(T[parent[b - k]], out=T[b])
    _transpose_in_place(T)

    maps = np.concatenate(frontiers)
    inverses = np.full_like(maps, m)
    inverses[np.arange(n)[:, None], maps] = np.arange(m + 1, dtype=dtype)
    inverses[:, m] = m
    star = [index[key] for key in keys(inverses)]
    zero = index.get(keys(np.full(m + 1, m, dtype=dtype))[0])
    elems = [PartialBijection({points[x]: points[y] for x, y in enumerate(r[:m]) if y < m})
             for r in maps.tolist()]
    # labels name elements in documents, so points that print alike (1 and
    # "1", or "1,2" against 1 and 2) must not give two maps one name
    named = {}
    for pb in elems:
        label = pb_label(pb)
        if named.setdefault(label, pb) is not pb:
            raise InputError(f"label {label!r} names two maps: {named[label]!r} and {pb!r}")
    return FiniteInverseSemigroup(T, star, zero=zero, labels=list(named),
                                  witnesses=elems, check=False)


def materialize_context(ctx: SemigroupContext, elements, labels=None) -> FiniteInverseSemigroup:
    """Tabulate a product-closed finite element list of any context."""
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    if len(index) != len(elems):
        raise InputError("duplicate elements")
    table = []
    for a in elems:
        row = []
        for b in elems:
            p = ctx.product(a, b)
            if p not in index:
                raise InputError(f"element list not product-closed at {a!r}*{b!r}")
            row.append(index[p])
        table.append(row)
    star = []
    for a in elems:
        s = ctx.star(a)
        if s not in index:
            raise InputError(f"element list not star-closed at {a!r}")
        star.append(index[s])
    zero = None
    if ctx.zero is not None and ctx.zero in index:
        zero = index[ctx.zero]
    S = FiniteInverseSemigroup(table, star, zero=zero, witnesses=elems)
    if labels:
        # printed names, not a document's labels: a graph's edge ids 1 and
        # "1" print alike, so these may repeat
        S.labels = list(labels)
    return S


# ---------------------------------------------------------------------------
# structure operations
# ---------------------------------------------------------------------------

def idempotents(S: FiniteInverseSemigroup):
    """E(S), the diagonal's fixed points, asserted commutative and
    product-closed over the |E|^2 cells e f."""
    E = S._idempotents()
    EF = S.table[E[:, None], E]
    bad = (EF != EF.T) | (S.table[EF, EF] != EF)
    if np.count_nonzero(bad):
        # the first pair (e, f) in row order that fails either check
        i, j = divmod(int(bad.argmax()), len(E))
        e, f = E[[i, j]].tolist()
        if EF[i, j] != EF[j, i]:
            raise OracleMismatch("idempotents do not commute", witness=(e, f))
        raise OracleMismatch("idempotent product not idempotent", witness=(e, f))
    return E.tolist()


def natural_leq(s, t, S: SemigroupContext) -> bool:
    """s <= t in the natural partial order: s = t (s* s)."""
    return s == S.product(t, S.product(S.star(s), s))


def max_group_image(S: FiniteInverseSemigroup):
    """Least group congruence quotient: s ~ t iff es = et for some idempotent e.

    E(S) is a finite semilattice, so it has a least element z, the product
    of all idempotents, and z = z e for every e. Then es = et gives
    zs = zes = zet = zt, so s ~ t exactly when zs = zt: sigma is read off
    the one row z of the table. Returns (GroupTable, sigma) with sigma the
    class map as a list, classes numbered by least member. A semigroup with
    zero collapses to the trivial group.
    """
    T = S.table
    E = idempotents(S)
    row = T[functools.reduce(T.item, E)].tolist() if E else []
    # the least member of each class is the first place its value takes in row z
    least = {}
    for s, zs in enumerate(row):
        least.setdefault(zs, s)
    cls = dict(zip(least, range(len(least))))
    sigma = [cls[zs] for zs in row]
    roots = list(least.values())
    r = np.array(roots, dtype=np.intp)
    # the quotient is read off the roots; validating it as a group lets the
    # homomorphism test prove sigma a congruence over generators alone
    G = GroupTable(np.array(sigma, dtype=np.intp)[T[r[:, None], r]])
    G.labels = [S.labels[r] for r in roots]     # S's names, repeats and all
    bad = homomorphism_witness(T, sigma.__getitem__, G, S._reach()[0])
    if bad is not None:
        raise OracleMismatch("group congruence not well defined", witness=bad)
    return G, sigma


def e_unitary_witness(S: FiniteInverseSemigroup):
    """First non-idempotent in the kernel of the maximum group image, or None.

    The kernel always holds E(S), so S is E-unitary exactly when this
    returns None. Computed once per S, from its cached `group_image`.
    """
    return S._e_unitary_witness


def is_e_unitary(S: FiniteInverseSemigroup) -> bool:
    """True when the kernel of the maximum group image is exactly E(S)."""
    return e_unitary_witness(S) is None


def kernel_of(phi: Homomorphism) -> frozenset:
    return frozenset(s for s in phi.source.elements()
                     if phi(s) == phi.target.identity)


def _idempotent_preimages(S: FiniteInverseSemigroup, E):
    """pre[y] = [x : x e = y for some e in E], read off the |S|*|E| cells
    x e in one gather; an x may be listed more than once."""
    cells = S.table[:, np.asarray(E, dtype=np.intp)].ravel()
    order = np.argsort(cells, kind="stable")
    xs = (order // max(len(E), 1)).tolist()
    ends = np.searchsorted(cells[order], np.arange(S.n + 1)).tolist()
    return [xs[ends[y]:ends[y + 1]] for y in range(S.n)]


def _up(pre, H) -> frozenset:
    """up(H) = {x : x e in H for some idempotent e}, the union of pre[h]."""
    return frozenset().union(*map(pre.__getitem__, H))


def upward_closure(H, S: FiniteInverseSemigroup, E=None) -> frozenset:
    """{t : te in H for some idempotent e}; E defaults to idempotents(S)."""
    if E is None:
        E = idempotents(S)
    return _up(_idempotent_preimages(S, E), frozenset(H))


def _check_upward_closed_subsemigroup(Hset, S: FiniteInverseSemigroup, pre):
    """H is star- and product-closed, with its |H|^2 products read in one
    gather, and up(H) = H; the first failure in the order H iterates is named."""
    H = np.fromiter(Hset, dtype=np.intp, count=len(Hset))
    member = np.zeros(S.n, dtype=bool)
    member[H] = True
    star_out = ~member[S.star_table[H]]
    product_out = ~member[S.table[H[:, None], H]]
    out = star_out | product_out.any(axis=1)
    if out.any():
        i = int(out.argmax())
        if star_out[i]:
            raise InputError(f"subset not star-closed at {H[i]}")
        k = int(np.argmax(product_out[i]))
        raise InputError(f"subset not product-closed at ({H[i]},{H[k]})")
    up = _up(pre, Hset)
    if up != Hset:
        raise NotUpwardClosed("subsemigroup is not upward closed",
                              witness=sorted(up - Hset))


def omega_coset_diagnostic(H, S: FiniteInverseSemigroup) -> dict:
    """All distinct up(sH) with a partition verdict; never raises on overlap.

    The idempotent preimages are built once, so the cosets cost about
    |S|*|H|*|E| cell reads. The overlap is the first pair (i, j), i < j, of
    cosets that meet, found from which cosets hold each element.
    """
    Hset = frozenset(H)
    pre = _idempotent_preimages(S, idempotents(S))
    _check_upward_closed_subsemigroup(Hset, S, pre)
    sH = S.table[:, np.fromiter(Hset, dtype=np.intp, count=len(Hset))].tolist()
    cosets = list(dict.fromkeys(_up(pre, row) for row in sH))
    holders = {}
    for i, c in enumerate(cosets):
        for x in c:
            holders.setdefault(x, []).append(i)
    # cosets i < j meet when some element is held by both; the least such
    # pair is the least of each element's first two holders
    pairs = [held[:2] for held in holders.values() if len(held) > 1]
    overlap = None
    if pairs:
        i, j = min(pairs)
        overlap = (i, j, sorted(cosets[i] & cosets[j]))
    covers = len(holders) == S.n
    return {
        "cosets": [sorted(c) for c in cosets],
        "covers": covers,
        "overlap": overlap,
        "is_partition": overlap is None and covers,
    }


def omega_coset_partition(phi: Homomorphism):
    """Distinct up(sH) for H = ker(phi); asserted to partition S along fibers."""
    S = phi.source
    H = kernel_of(phi)
    diag = omega_coset_diagnostic(H, S)
    if not diag["is_partition"]:
        raise PartitionFailure("omega-cosets of the kernel do not partition",
                               witness=diag["overlap"])
    cosets = [frozenset(c) for c in diag["cosets"]]
    for c in cosets:
        degrees = {phi(t) for t in c}
        if len(degrees) != 1:
            raise PartitionFailure("coset meets several fibers",
                                   witness=sorted(c))
    return cosets
