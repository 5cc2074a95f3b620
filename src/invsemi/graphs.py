"""Graph inverse semigroups over finite directed graphs.

Elements are pairs of finite paths (mu, nu) with a common source vertex,
plus a zero. Paths store their edge ids most-significant-edge-first, so a
path mu = mu_n ... mu_1 has source s(mu_1) and range r(mu_n), concatenation
mu . nu requires s(mu) = r(nu), and the tuple of an extended walk grows at
the front. Every path also records its source (base) and range (head)
vertices, which keeps products of pairs free of graph lookups even when a
leg is an empty path; a pair stores its legs' edge tuples and vertices flat.

The degree of a nonzero pair is the reduced word mu nu^-1 in the free group
on the edge set. Fibers of that grading are spanned by families (a w, b w)
over paths w into the common source of a and b, and an element supported on
one fiber factors through squares along any splitting of its degree word,
which is what semisaturation_factorize performs and verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FREE_GROUP, AlgebraElement, Grading, convolve
from .core import SemigroupContext, materialize_context
from .errors import (
    CancellationPresent,
    InputError,
    NotPositivePair,
    OracleMismatch,
    UnsupportedCoefficient,
    WitnessFailure,
)
from .scalars import principal_sqrt
from .words import free_reduce, word_inv


@dataclass(frozen=True)
class Path:
    edges: tuple
    base: object   # source vertex
    head: object   # range vertex

    def __len__(self):
        return len(self.edges)

    def __repr__(self):
        return "-".join(str(e) for e in self.edges) if self.edges else f"@{self.base}"


class DirectedGraph:
    """Finite directed graph with labeled edges."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertices")
        vset = set(self.vertices)
        self.src = {}
        self.rng = {}
        order = []
        for eid, s, r in edges:
            if eid in self.src:
                raise InputError(f"duplicate edge id {eid!r}")
            if s not in vset or r not in vset:
                raise InputError(f"edge {eid!r} has unknown endpoint")
            self.src[eid] = s
            self.rng[eid] = r
            order.append(eid)
        self.edge_ids = tuple(order)

    def __eq__(self, other):
        return (isinstance(other, DirectedGraph)
                and self.vertices == other.vertices
                and self.src == other.src and self.rng == other.rng)

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.src.items(), key=repr)),
                     tuple(sorted(self.rng.items(), key=repr))))

    def empty_path(self, v) -> Path:
        if v not in self.vertices:
            raise InputError(f"unknown vertex {v!r}")
        return Path((), v, v)

    def path(self, edge_seq, base=None) -> Path:
        """Build a path from edge ids, most significant first, validating
        joints; a given base must be the source of a nonempty path."""
        edges = tuple(edge_seq)
        if not edges:
            if base is None:
                raise InputError("empty path needs a base vertex")
            return self.empty_path(base)
        for e in edges:
            if e not in self.src:
                raise InputError(f"unknown edge {e!r}")
        for i in range(len(edges) - 1):
            if self.src[edges[i]] != self.rng[edges[i + 1]]:
                raise InputError(f"edges {edges[i+1]!r},{edges[i]!r} do not compose")
        if base is not None and base != self.src[edges[-1]]:
            raise InputError(f"path {list(edges)} starts at {self.src[edges[-1]]!r}, "
                             f"not at vertex {base!r}")
        return Path(edges, self.src[edges[-1]], self.rng[edges[0]])


class PathPair(tuple):
    """Nonzero element (mu, nu), both paths sharing a source vertex.

    Stored flat as (mu edges, nu edges, source, mu range, nu range), so
    products, equality and hashing run on plain tuples; .mu and .nu build
    the legs as Paths on access.
    """

    __slots__ = ()

    def __new__(cls, mu: Path, nu: Path):
        if mu.base != nu.base:
            raise InputError("pair legs must share their source vertex")
        return tuple.__new__(cls, (mu.edges, nu.edges, mu.base, mu.head, nu.head))

    @property
    def mu(self) -> Path:
        return Path(self[0], self[2], self[3])

    @property
    def nu(self) -> Path:
        return Path(self[1], self[2], self[4])

    def __repr__(self):
        return f"({self.mu!r}|{self.nu!r})"


class _ZeroPair:
    def __repr__(self):
        return "0"


ZERO_PAIR = _ZeroPair()


def multiply_pairs(p, q):
    """Product by the junction rule; ZERO_PAIR absorbs.

    (mu, nu)(alpha, beta) is nonzero exactly when nu and alpha end at the
    same vertex and one is a prefix of the other: it is (mu, beta nu') when
    nu = alpha nu' and (mu alpha', beta) when alpha = nu alpha'. A leg and its
    extension share a head, and an empty leg's head is its base, so the new
    pair's vertices are read off the two pairs themselves.
    """
    if p is ZERO_PAIR or q is ZERO_PAIR:
        return ZERO_PAIR
    mu, nu, base, mu_head, nu_head = p
    alpha, beta, alpha_base, alpha_head, beta_head = q
    if nu_head != alpha_head:
        return ZERO_PAIR
    if nu[:len(alpha)] == alpha:
        return tuple.__new__(PathPair, (mu, beta + nu[len(alpha):], base,
                                        mu_head, beta_head))
    if alpha[:len(nu)] == nu:
        return tuple.__new__(PathPair, (mu + alpha[len(nu):], beta, alpha_base,
                                        mu_head, beta_head))
    return ZERO_PAIR


def star_pair(p):
    if p is ZERO_PAIR:
        return ZERO_PAIR
    mu, nu, base, mu_head, nu_head = p
    return tuple.__new__(PathPair, (nu, mu, base, nu_head, mu_head))


class _Letters(dict):
    """Interned letters (e, sign) of one sign, keyed by edge id."""

    def __init__(self, sign):
        super().__init__()
        self.sign = sign

    def __missing__(self, e):
        letter = self[e] = (e, self.sign)
        return letter


_POSITIVE, _NEGATIVE = _Letters(1).__getitem__, _Letters(-1).__getitem__


def grading_phi(p):
    """Reduced word mu nu^-1 in the free group on edges; None for zero.

    The letters of mu nu^-1 cancel only across the junction, where the least
    significant edges of the two legs meet, so stripping their common suffix
    leaves the reduced word.
    """
    if p is ZERO_PAIR:
        return None
    mu, nu = p[0], p[1]
    m, n = len(mu), len(nu)
    while m and n and mu[m - 1] == nu[n - 1]:
        m -= 1
        n -= 1
    # tuple() of a list, not of a map: a tuple grown from a map's guessed
    # length is freed onto the free list of its final size, which then fills
    return tuple([*map(_POSITIVE, mu[:m]), *map(_NEGATIVE, nu[n - 1::-1] if n else ())])


class GraphContext(SemigroupContext):
    def __init__(self, graph: DirectedGraph):
        self.graph = graph
        self.zero = ZERO_PAIR

    def __eq__(self, other):
        return isinstance(other, GraphContext) and self.graph == other.graph

    def __hash__(self):
        return hash(("graph", self.graph))

    product = staticmethod(multiply_pairs)
    star = staticmethod(star_pair)

    def is_zero(self, x) -> bool:
        return x is ZERO_PAIR

    @staticmethod
    def green_coordinates(p):
        """(mu, nu) lies in the D-class of its source vertex and the L-class
        of (nu, nu), and (mu, nu)(nu, nu') = (mu, nu') keeps the place mu;
        each leg is read as its edges and range vertex."""
        mu, nu, base, mu_head, nu_head = p
        return base, (nu, nu_head), (mu, mu_head)

    def partners(self, elements):
        """(mu, nu)(alpha, beta) is nonzero only when alpha and nu are
        comparable: one is a prefix of the other, at the same range vertex.
        The list is indexed by its first legs alpha, once as alpha and once
        under each proper prefix, so nu takes |nu| + 1 prefix lookups plus
        one lookup of its extensions."""
        exact, under = {}, {}
        for j, q in enumerate(elements):
            if q is ZERO_PAIR:
                continue
            edges, head = q[0], q[3]
            exact.setdefault((head, edges), []).append(j)
            for k in range(len(edges)):
                under.setdefault((head, edges[:k]), []).append(j)

        def partners(a):
            if a is ZERO_PAIR:
                return ()
            edges, head = a[1], a[4]
            found = list(under.get((head, edges), ()))
            for k in range(len(edges) + 1):
                found += exact.get((head, edges[:k]), ())
            found.sort()
            return found

        return partners

    def grading(self) -> Grading:
        return Grading(self, FREE_GROUP, grading_phi)

    def window(self, window, length):
        return enumerate_pairs(self.graph, length)

    def finite_semigroup(self):
        """Every pair of paths, which is finite exactly when the graph is acyclic."""
        elems = enumerate_pairs(self.graph, longest_path(self.graph), include_zero=True)
        return materialize_context(self, elems, labels=[repr(e) for e in elems])


def graph_grading(graph: DirectedGraph) -> Grading:
    return GraphContext(graph).grading()


# ---------------------------------------------------------------------------
# truncations
# ---------------------------------------------------------------------------

def paths_up_to(graph: DirectedGraph, L: int):
    """All paths of length <= L in deterministic (length, edges) order."""
    if L < 0:
        raise InputError("length bound must be >= 0")
    level = [graph.empty_path(v) for v in sorted(graph.vertices, key=str)]
    out = list(level)
    ids = sorted(graph.edge_ids, key=str)
    for _ in range(L):
        nxt = []
        for p in level:
            for eid in ids:
                if graph.src[eid] == p.head:
                    nxt.append(Path((eid,) + p.edges, p.base, graph.rng[eid]))
        out.extend(nxt)
        level = nxt
    return out


def longest_path(graph: DirectedGraph) -> int:
    """Edge count of the longest path; InputError naming a cycle's edge ids
    when the graph has one, since its inverse semigroup is then infinite."""
    live, k = set(graph.vertices), 0   # the sources of paths with k edges
    while live:
        nxt = {graph.src[e] for e in graph.edge_ids if graph.rng[e] in live}
        if nxt == live:
            # paths of every length start here, so each of these vertices has
            # an edge back into the set: follow such edges until one repeats
            v = next(u for u in graph.vertices if u in live)
            walk, at = [], {}
            while v not in at:
                at[v] = len(walk)
                walk.append(next(e for e in graph.edge_ids
                                 if graph.src[e] == v and graph.rng[e] in live))
                v = graph.rng[walk[-1]]
            raise InputError(f"the graph has a directed cycle through edges "
                             f"{walk[at[v]:]}, so its inverse semigroup is infinite")
        live, k = nxt, k + 1
    return k - 1


def enumerate_pairs(graph: DirectedGraph, L: int, include_zero=False):
    """The truncated semigroup: all pairs with both legs of length <= L."""
    paths = paths_up_to(graph, L)
    out = []
    for mu in paths:
        for nu in paths:
            if mu.base == nu.base:
                out.append(PathPair(mu, nu))
    if include_zero:
        out.append(ZERO_PAIR)
    return out


# ---------------------------------------------------------------------------
# fibers of the free-group grading
# ---------------------------------------------------------------------------

def _split_positive_negative(word):
    """Split a reduced word w = a b^-1 into the edge tuples of a and b."""
    seen_negative = False
    pos, neg = [], []
    for x, s in word:
        if s == 1:
            if seen_negative:
                raise NotPositivePair(
                    "degree word is not of the form (positive)(positive)^-1",
                    witness=word)
            pos.append(x)
        else:
            seen_negative = True
            neg.append(x)
    # positives already read most-significant-first; negatives were traversed
    # least-significant-first, so the b tuple is their reverse
    return tuple(pos), tuple(reversed(neg))


def fiber_word_legs(s_word, t_word):
    """Edge tuples (a, b, mid) for the factorization through s t^-1.

    a b^-1 is the reduced form of s t^-1; mid is the leg the middle terms
    share: the part of a past s when s is shorter, otherwise the letters s
    still owes past a.
    """
    s_word, t_word = tuple(s_word), tuple(t_word)
    if not _word_is_reduced(s_word) or not _word_is_reduced(t_word):
        raise InputError("s and t must be reduced words")
    if s_word and t_word and s_word[-1] == t_word[-1]:
        raise CancellationPresent("s t^-1 cancels at the junction",
                                  witness=s_word[-1])
    a_edges, b_edges = _split_positive_negative(s_word + word_inv(t_word))
    if len(s_word) >= len(a_edges):
        mid_edges = tuple(reversed([x for x, _ in s_word[len(a_edges):]]))
    else:
        mid_edges = a_edges[len(s_word):]
    return a_edges, b_edges, mid_edges


def orthogonality_check(graph: DirectedGraph, L: int) -> dict:
    """Exhaustively verify S_{x^-1} . S_y = 0 for distinct edges x, y.

    Scans every pair (w, x w), (y u, u) with leg lengths <= L.
    """
    checked = 0
    violations = []
    ids = sorted(graph.edge_ids, key=str)
    tails = paths_up_to(graph, L - 1) if L >= 1 else []
    for x in ids:
        left = [PathPair(w, Path((x,) + w.edges, w.base, graph.rng[x]))
                for w in tails if w.head == graph.src[x]]
        for y in ids:
            if x == y:
                continue
            right = [PathPair(Path((y,) + u.edges, u.base, graph.rng[y]), u)
                     for u in tails if u.head == graph.src[y]]
            for p in left:
                for q in right:
                    checked += 1
                    r = multiply_pairs(p, q)
                    if r is not ZERO_PAIR:
                        violations.append({"left": repr(p), "right": repr(q),
                                           "product": repr(r)})
    return {"checked": checked, "violations": violations, "ok": not violations}


# ---------------------------------------------------------------------------
# semi-saturation factorization
# ---------------------------------------------------------------------------

def _word_is_reduced(w):
    return free_reduce(w) == tuple(w)


def semisaturation_factorize(f: AlgebraElement, s_word, t_word):
    """Factor f, supported on the fiber of s t^-1, as sum_k f_k g_k.

    Each f_k is supported on the s fiber, each g_k on the t^-1 fiber, the
    factors within one k share the tail length k, and coefficients split by
    principal square roots. The recovery sum_k f_k g_k = f is re-verified:
    exactly when every root stayed in Q(i), at tolerance 1e-12 otherwise.
    Requires reduced s, t whose concatenation s t^-1 does not cancel at the
    junction.
    """
    ctx = f.context
    if not isinstance(ctx, GraphContext):
        raise InputError("factorization needs a graph context element")
    graph = ctx.graph
    s_word, t_word = tuple(s_word), tuple(t_word)
    a_edges, b_edges, mid_edges = fiber_word_legs(s_word, t_word)

    if not f.terms:
        return []

    by_len = {}
    for elem, c in f.terms.items():
        mu, nu = elem.mu, elem.nu
        w = mu.edges[len(a_edges):]
        if (mu.edges[:len(a_edges)] != a_edges or nu.edges != b_edges + w
                or mu.base != nu.base):
            raise UnsupportedCoefficient("support element outside the fiber",
                                         witness=elem)
        # mu = a w and nu = b w, and mid w is a suffix of one of them
        mw = graph.path(mid_edges + w, base=mu.base)
        by_len.setdefault(len(w), []).append((mu, mw, nu, principal_sqrt(c)))

    factors = [(AlgebraElement(ctx, [(PathPair(aw, mw), r) for aw, mw, _, r in legs]),
                AlgebraElement(ctx, [(PathPair(mw, bw), r) for _, mw, bw, r in legs]))
               for legs in map(by_len.get, sorted(by_len))]

    total = AlgebraElement(ctx)
    for left, right in factors:
        total = total + convolve(left, right)
    if all(l.is_exact() and r.is_exact() for l, r in factors):
        if total != f:
            raise WitnessFailure("factor product does not recover f",
                                 witness=(total.terms, f.terms))
    elif not total.approx_eq(f, tol=1e-12):
        raise WitnessFailure("factor product strays past 1e-12",
                             witness=(total.terms, f.terms))

    t_inv = word_inv(t_word)
    for left, right in factors:
        for elem in left.terms:
            if grading_phi(elem) != s_word:
                raise OracleMismatch("left factor leaves the s fiber", witness=elem)
        for elem in right.terms:
            if grading_phi(elem) != t_inv:
                raise OracleMismatch("right factor leaves the t^-1 fiber", witness=elem)
    return factors
