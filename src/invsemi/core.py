"""Carriers and structure operations for finite inverse semigroups.

Three kinds of carrier live here:

* PartialBijection and IXContext, the symmetric inverse monoid I(X) over a
  finite carrier set, with products computed on demand; semigroup documents
  given by generating maps are closed here (the shift bundle keeps its own
  interval form, in families);
* FiniteInverseSemigroup, a fully tabulated semigroup (product table, star
  table, optional zero) that every structure operation scans;
* GroupTable, a tabulated semigroup with one idempotent, that is a finite
  group, used as the target of homomorphisms and maximum group images.

All contexts share the small product/star/is_zero protocol that the algebra
layer builds on, and each answers for its family: its Grading (defined here,
next to the contexts), the window the graded commands scan, and the hooks of
SemigroupContext.

On a table of n elements, each structure operation costs about n*k or n^2,
where k is the size of a generating set: closure walks the right Cayley
graph, Light's associativity test and the homomorphism test run over a
generating set, and the group image unions each s with e*s. The omega-cosets
up(sH) of a subsemigroup H cost about n*|H|*|E|: each is a union of the
idempotent preimages {x : x e = y}, listed once from the n*|E| cells x e.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

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
        import numpy as np

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

class FiniteInverseSemigroup(SemigroupContext):
    """Product table + star table over elements 0..n-1, optional zero index.

    `validate` is the one check of a table document: it names each bad
    cell, star entry or label by its JSON path under `path`.
    """

    path = "$"

    def __init__(self, table, star_table=None, zero=None, labels=None,
                 witnesses=None, check=True):
        # a row that is not an array is kept as it is, for validate to name
        self.table = [list(row) if isinstance(row, (list, tuple)) else row
                      for row in table]
        self.n = len(self.table)
        if check:
            _check_cells(self.table, self.n, f"{self.path}.table")
        if star_table is None:
            star_table = self._derive_star()
        self.star_table = list(star_table)
        self.zero = zero
        self.labels = list(labels) if labels else [f"s{i}" for i in range(self.n)]
        self.witnesses = witnesses
        if check:
            self._check_structure()

    def __eq__(self, other):
        return (isinstance(other, FiniteInverseSemigroup)
                and self.table == other.table
                and self.star_table == other.star_table
                and self.zero == other.zero)

    def __hash__(self):
        return hash((tuple(map(tuple, self.table)), tuple(self.star_table)))

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

    def grading(self) -> Grading:
        G, sigma = self.group_image
        return Grading(self, G, sigma.__getitem__)

    def window(self, window, length):
        return self.nonzero_elements()

    def finite_semigroup(self):
        return self

    def product(self, a, b):
        return self.table[a][b]

    def star(self, a):
        return self.star_table[a]

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
        t = self.table
        gens, steps = _generating_set(t)
        star = [None] * self.n
        for g in gens:
            found = [x for x in range(self.n) if t[t[g][x]][g] == g and t[t[x][g]][x] == x]
            if len(found) != 1:
                raise InputError(
                    f"element {g} has {len(found)} generalized inverses, expected 1")
            star[g] = found[0]
        for s, p, g in steps:
            star[s] = t[star[g]][star[p]]
        return star

    def validate(self):
        """Check the table is an inverse semigroup with this star and zero.

        Associativity is Light's test over a generating set. Inverses are not
        searched for: a regular semigroup (star gives an inverse of every
        element) whose idempotents commute is inverse, so each one is unique.
        """
        _check_cells(self.table, self.n, f"{self.path}.table")
        self._check_structure()

    def _check_structure(self):
        """validate() on a table whose cells are checked."""
        n, path = self.n, self.path
        if len(self.star_table) != n:
            raise InputError(f"{path}.star: {len(self.star_table)} entries for {n} elements")
        _check_index_list(self.star_table, n, f"{path}.star")
        z = self.zero
        if z is not None and not (type(z) is int and 0 <= z < n):
            raise InputError(f"{path}.zero: expected an element index in 0..{n - 1}, got {z!r}")
        if len(self.labels) != n:
            raise InputError(f"{path}.labels: {len(self.labels)} labels for {n} elements")
        _check_labels(self.labels, f"{path}.labels")
        t = self.table
        bad = associativity_witness(t)
        if bad is not None:
            raise InputError(f"not associative at {bad}")
        for s in range(n):
            st = self.star_table[s]
            if t[t[s][st]][s] != s or t[t[st][s]][st] != st:
                raise InputError(f"star table wrong at {s}")
            if self.star_table[st] != s:
                raise InputError(f"star not involutive at {s}")
        idem = [e for e in range(n) if t[e][e] == e]
        for e in idem:
            for f in idem:
                if t[e][f] != t[f][e]:
                    raise InputError(f"idempotents {e},{f} do not commute")
        # an absorbing zero passed the star check only if z* = z* z z* = z
        if z is not None and any(t[z][s] != z or t[s][z] != z for s in range(n)):
            raise InputError("declared zero is not absorbing")


def _check_index_list(values, n, path):
    """Every entry of `values` is an int in 0..n-1 (bool and float rejected)."""
    if not values or set(map(type, values)) == {int} and 0 <= min(values) and max(values) < n:
        return
    for j, v in enumerate(values):
        if type(v) is not int or not 0 <= v < n:
            raise InputError(f"{path}[{j}]: expected an element index in 0..{n - 1}, got {v!r}")


def _check_cells(table, n, path):
    """The table is n x n and every cell is an element index."""
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"{path}[{i}]: expected an array of {n} cells, got {row!r}")
        if len(row) != n:
            raise InputError(f"{path}[{i}]: row has {len(row)} cells, expected {n}")
        _check_index_list(row, n, f"{path}[{i}]")


def _check_labels(labels, path):
    """Every label is a string and no two are equal."""
    first = {}
    for j, v in enumerate(labels):
        if type(v) is not str:
            raise InputError(f"{path}[{j}]: expected a string label, got {v!r}")
        if v in first:
            raise InputError(f"{path}[{j}]: label {v!r} already names element {first[v]}")
        first[v] = j


def _generating_set(t):
    """A greedy generating set of the magma with product table t, and how
    each other element was reached.

    Scans elements in index order; one not yet reached becomes a generator,
    and the reached set is closed under right multiplication by every
    generator so far. Every element is then a left-normed product
    (...((g1 g2) g3)...) gk of generators. Returns the generators and, in
    reach order, a step (s, p, g) with s = p g for each non-generator s.
    """
    n = len(t)
    gens, order, steps = [], [], []
    reached = [False] * n
    done = [0] * n          # how many generators order[i] was multiplied by
    for x in range(n):
        if reached[x]:
            continue
        gens.append(x)
        reached[x] = True
        order.append(x)
        i = 0
        while i < len(order):
            r = order[i]
            row = t[r]
            for g in gens[done[r]:]:
                p = row[g]
                if not reached[p]:
                    reached[p] = True
                    order.append(p)
                    steps.append((p, r, g))
            done[r] = len(gens)
            i += 1
    return gens, steps


def associativity_witness(t):
    """Light's test: a triple (x, g, y) with (xg)y != x(gy), or None.

    The set of a with (xa)y = x(ay) for all x, y is closed under products in
    any magma, so it is the whole table once it holds every element of a
    generating set. Costs n^2 per generator instead of n^3 overall.
    """
    n = len(t)
    for g in _generating_set(t)[0]:
        row_g = t[g]
        for x in range(n):
            row_x = t[x]
            left = t[row_x[g]]
            if left != list(map(row_x.__getitem__, row_g)):
                y = next(y for y in range(n) if left[y] != row_x[row_g[y]])
                return (x, g, y)
    return None


def homomorphism_witness(t, m, G):
    """A pair (s, g) with m(s g) != m(s) m(g) in the group G, or None.

    g runs over the generating set of the table t only: n*k products, not
    n^2. Every element is a left-normed product x1...xk of generators, and
    induction on k gives m(s x1...xk) = m(s x1...x(k-1)) m(xk)
    = m(s) m(x1...x(k-1)) m(xk) = m(s) m(x1...xk), the last step being the
    test at x1...x(k-1). So t must be associative (validated, or built by
    closure) and G a group (a validated GroupTable), as in Light's test.
    """
    image = [m(s) for s in range(len(t))]
    mul = G.mul
    for g in _generating_set(t)[0]:
        mg = image[g]
        for s, row in enumerate(t):
            if image[row[g]] != mul(image[s], mg):
                return (s, g)
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
        idem = [e for e in range(self.n) if self.table[e][e] == e]
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
        bad = homomorphism_witness(S.table, m.__getitem__, G)
        if bad is not None:
            raise InputError(f"not multiplicative at ({bad[0]},{bad[1]})")

    def __call__(self, s):
        return self.mapping[s]


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------

def close_generators(gens, carrier=None, cap=20000) -> FiniteInverseSemigroup:
    """Close partial bijections under composition and inversion.

    Breadth-first orbit on the right Cayley graph (Froidure & Pin): seeds the
    generators, then their inverses, and right-multiplies each element in
    first-seen order by those seeds only, so it composes n*k maps for n
    elements and k seeds. Every other table column follows from the graph: if
    b = p*g then a*b = (a*p)*g, one lookup per cell. Returns the tabulated
    semigroup; the empty map becomes the zero when it arises. Raises
    CapExceeded past `cap` elements, and InputError when two elements get
    one `pb_label`.
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

    elems = []
    index = {}
    parent, step = [], []   # element i >= k is elems[parent[i]] * steps[step[i]]

    def intern(pb, p=None, j=None):
        i = index.get(pb)
        if i is None:
            if len(elems) >= cap:
                raise CapExceeded(f"closure exceeded cap {cap}")
            i = index[pb] = len(elems)
            elems.append(pb)
            parent.append(p)
            step.append(j)
        return i

    for g in gens:
        intern(g)
    for g in gens:
        intern(g.inverse())
    steps = list(elems)
    k = len(steps)
    # right[j][a] = index of elems[a] * steps[j]: column j of the table
    right = [[] for _ in steps]
    for a, pb in enumerate(elems):
        for j, g in enumerate(steps):
            right[j].append(intern(pb.compose(g), a, j))

    cols = right[:]
    for b in range(k, len(elems)):
        cols.append(list(map(right[step[b]].__getitem__, cols[parent[b]])))
    star = [index[a.inverse()] for a in elems]
    zero = index.get(EMPTY_PB)
    # labels name elements in documents, so points that print alike (1 and
    # "1", or "1,2" against 1 and 2) must not give two maps one name
    named = {}
    for pb in elems:
        label = pb_label(pb)
        if named.setdefault(label, pb) is not pb:
            raise InputError(f"label {label!r} names two maps: {named[label]!r} and {pb!r}")
    return FiniteInverseSemigroup(zip(*cols), star, zero=zero, labels=list(named),
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
    """E(S), asserted commutative and product-closed."""
    E = [e for e in S.elements() if S.product(e, e) == e]
    for e in E:
        for f in E:
            ef = S.product(e, f)
            if ef != S.product(f, e):
                raise OracleMismatch("idempotents do not commute", witness=(e, f))
            if S.product(ef, ef) != ef:
                raise OracleMismatch("idempotent product not idempotent", witness=(e, f))
    return E


def natural_leq(s, t, S: SemigroupContext) -> bool:
    """s <= t in the natural partial order: s = t (s* s)."""
    return s == S.product(t, S.product(S.star(s), s))


def max_group_image(S: FiniteInverseSemigroup):
    """Least group congruence quotient: s ~ t iff es = et for some idempotent e.

    s ~ t exactly when s and t have a common lower bound in the natural
    order, and e*s <= s, so sigma is the equivalence generated by s ~ e*s:
    |S|*|E| unions. Returns (GroupTable, sigma) with sigma the class map,
    classes numbered by least member. A semigroup with zero collapses to the
    trivial group.
    """
    n = S.n
    E = idempotents(S)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for e in E:
        for s, es in enumerate(S.table[e]):
            union(s, es)

    roots = sorted({find(x) for x in range(n)})
    cls = {r: i for i, r in enumerate(roots)}
    sigma = [cls[find(x)] for x in range(n)]
    # the quotient is read off the roots; validating it as a group lets the
    # homomorphism test prove sigma a congruence over generators alone
    qtable = [[sigma[S.table[r][u]] for u in roots] for r in roots]
    G = GroupTable(qtable)
    G.labels = [S.labels[r] for r in roots]     # S's names, repeats and all
    bad = homomorphism_witness(S.table, sigma.__getitem__, G)
    if bad is not None:
        raise OracleMismatch("group congruence not well defined", witness=bad)
    return G, sigma


def e_unitary_witness(S: FiniteInverseSemigroup):
    """First non-idempotent in the kernel of the maximum group image, or None.

    The image is S's cached `group_image`. The kernel always holds E(S), so
    S is E-unitary exactly when this returns None.
    """
    G, sigma = S.group_image
    t = S.table
    return next((s for s in S.elements()
                 if sigma[s] == G.identity and t[s][s] != s), None)


def is_e_unitary(S: FiniteInverseSemigroup) -> bool:
    """True when the kernel of the maximum group image is exactly E(S)."""
    return e_unitary_witness(S) is None


def kernel_of(phi: Homomorphism) -> frozenset:
    return frozenset(s for s in phi.source.elements()
                     if phi(s) == phi.target.identity)


def _idempotent_preimages(S: FiniteInverseSemigroup, E):
    """pre[y] = [x : x e = y for some e in E], read off the |S|*|E| cells
    x e in one pass; an x may be listed more than once."""
    pre = [[] for _ in range(S.n)]
    for x, row in enumerate(S.table):
        for e in E:
            pre[row[e]].append(x)
    return pre


def _up(pre, H) -> frozenset:
    """up(H) = {x : x e in H for some idempotent e}, the union of pre[h]."""
    return frozenset().union(*map(pre.__getitem__, H))


def upward_closure(H, S: FiniteInverseSemigroup, E=None) -> frozenset:
    """{t : te in H for some idempotent e}; E defaults to idempotents(S)."""
    if E is None:
        E = idempotents(S)
    return _up(_idempotent_preimages(S, E), frozenset(H))


def _check_upward_closed_subsemigroup(Hset, S: FiniteInverseSemigroup, pre):
    for h in Hset:
        if S.star(h) not in Hset:
            raise InputError(f"subset not star-closed at {h}")
        for k in Hset:
            if S.product(h, k) not in Hset:
                raise InputError(f"subset not product-closed at ({h},{k})")
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
    cosets = list(dict.fromkeys(_up(pre, {row[h] for h in Hset}) for row in S.table))
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
