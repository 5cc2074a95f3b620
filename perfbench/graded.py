"""graded: exact graded algebra on graph inverse semigroups and Bruck-Reilly.

Grading scans (enumerate_pairs -> check_grading + bundle_fibers), both SOS
witness constructions, epsilon_star_square and semisaturation_factorize.
Fraction/QQi arithmetic and free_reduce lead the profile. Loads algebra,
graphs, families, scalars and words; bypasses core tables, rep, jsonio and
cli.
"""

from __future__ import annotations

from fractions import Fraction

from invsemi import algebra, families, graphs
from invsemi.scalars import QQi

from common import Op, expect, jitter

# (name, vertices, edges as (src, rng) index pairs, length bound): 128..505
# pairs. Four scans of about the same cost sit between the seven cheap algebra
# ops and the six heavy ops of a round, so the median lands among them.
SCAN_GRAPHS = (
    ("bouquet3", 1, ((0, 0), (0, 0), (0, 0)), 2),
    ("two_vertex", 2, ((0, 1), (1, 1)), 7),
    ("cycle3", 3, ((0, 1), (1, 2), (2, 0)), 6),
    ("cycle4", 4, ((0, 1), (1, 2), (2, 3), (3, 0)), 6),
    ("bouquet1", 1, ((0, 0),), 12),
    ("bouquet2", 1, ((0, 0), (0, 0)), 3),
    ("two_vertex", 2, ((0, 1), (1, 1)), 9),
    ("cycle3", 3, ((0, 1), (1, 2), (2, 0)), 8),
    ("cycle2_loop", 2, ((0, 1), (1, 0), (0, 0)), 4),
)
WITNESS_TERMS = (12, 55)
SQUARE_TERMS = (60, 190)
FACTOR_TERMS = (15, 55)
TERM_JITTER = 0.02
BR_SQUARE_WINDOW = 10       # 242 elements to draw epsilon_star_square terms from
PATH_LENGTH = 5             # bouquet2 has 63 paths of length <= 5


def _graph(rng, n_vertices, edges):
    """A relabelled copy: seeded vertex names and edge ids."""
    names = [f"v{k}" for k in rng.sample(range(100), n_vertices)]
    ids = rng.sample(range(100), len(edges))
    return graphs.DirectedGraph(names, [(i, names[s], names[r])
                                        for i, (s, r) in zip(ids, edges)])


def _paths_by_base(graph, L):
    """Independent count of paths of length <= L per source vertex."""
    level = {v: 1 for v in graph.vertices}
    total = dict(level)
    for _ in range(L):
        level = {v: sum(level[graph.rng[e]] for e in graph.edge_ids
                        if graph.src[e] == v) for v in graph.vertices}
        for v in graph.vertices:
            total[v] += level[v]
    return total


def _scalar(rng):
    # fixed denominators keep the cost of exact arithmetic the same across seeds
    return QQi(Fraction(rng.randint(1, 9) * rng.choice((1, -1)), 4),
               Fraction(rng.randint(-9, 9), 3))


def _terms_report(f):
    return sorted([repr(e), str(c)] for e, c in f.terms.items())


def scan_op(name, graph, L):
    counts = _paths_by_base(graph, L)
    n_pairs = sum(c * c for c in counts.values())

    def run():
        pairs = graphs.enumerate_pairs(graph, L)
        grading = graphs.graph_grading(graph)
        report = algebra.check_grading(grading, pairs)
        _, fibers = algebra.bundle_fibers(pairs, grading)
        return len(pairs), report, fibers

    def check(out):
        got, report, fibers = out
        expect(got == n_pairs, f"{got} pairs, expected {n_pairs}")
        expect(report["ok"] and fibers["ok"], f"grading scan failed on {name}")
        expect(report["checked"] == n_pairs ** 2, f"checked {report['checked']}")
        # the free-group grading's kernel is exactly the idempotents (mu, mu)
        expect(report["kernel_size"] == sum(counts.values()) and report["idempotent_pure"],
               f"kernel {report['kernel_size']}")
        return {"pairs": got, "checked": report["checked"],
                "fiber_sizes": fibers["fiber_sizes"]}

    return Op(f"scan.{name}.L{L}", "grading_scan", run, check)


def witness_idempotent_op(label, rng, k):
    """Idempotent-kernel witness on the fiber of x y^-1 in a bouquet."""
    g = _graph(rng, 1, ((0, 0), (0, 0)))
    x, y = g.edge_ids
    tails = rng.sample(graphs.paths_up_to(g, PATH_LENGTH), k)
    f = algebra.AlgebraElement(graphs.GraphContext(g), [
        (graphs.PathPair(g.path((x,) + w.edges, base=w.base),
                         g.path((y,) + w.edges, base=w.base)), _scalar(rng))
        for w in tails])
    grading = graphs.graph_grading(g)

    def run():
        return algebra.sos_witness_idempotent_kernel(f, grading)

    def check(w):
        expect(w.is_exact() and 0 < len(w) <= k, f"witness has {len(w)} terms")
        expect(all(e.mu == e.nu for e in w.terms), "witness leaves the idempotents")
        return _terms_report(w)

    return Op(f"witness_idempotent.{label}", "witness_idempotent", run, check)


def witness_coset_op(label, rng, k):
    """Coset witness on one degree fiber of BR(Z/2, id)."""
    ctx, _ = families.br_z2_contexts()
    degree = rng.choice((2, 3))
    support = rng.sample([(m, a, m - degree) for m in range(degree, degree + k)
                          for a in (0, 1)], k)
    f = algebra.AlgebraElement(ctx, [(s, _scalar(rng)) for s in support])
    grading = families.br_grading(ctx)
    rep = families.br_coset_rep(ctx, degree)

    def run():
        return algebra.sos_witness_coset(f, rep, grading)

    def check(w):
        expect(w.is_exact() and 0 < len(w) <= k, f"witness has {len(w)} terms")
        expect(all(m == n for m, _, n in w.terms), "witness leaves degree 0")
        return _terms_report(w)

    return Op(f"witness_coset.{label}", "witness_coset", run, check)


def square_op(label, rng, k):
    ctx, _ = families.br_z2_contexts()
    support = rng.sample(families.br_window(ctx, BR_SQUARE_WINDOW), k)
    f = algebra.AlgebraElement(ctx, [(s, _scalar(rng)) for s in support])
    grading = families.br_grading(ctx)

    def run():
        return algebra.epsilon_star_square(f, grading)

    def check(sq):
        expect(len(sq) > 0 and all(m == n for m, _, n in sq.terms),
               "epsilon(f* f) left the kernel")
        return _terms_report(sq)

    return Op(f"epsilon_star_square.{label}", "epsilon_star_square", run, check)


def factorize_op(label, rng, k):
    """Factor an element of the x y x^-1 fiber of a bouquet through s t^-1."""
    g = _graph(rng, 1, ((0, 0), (0, 0)))
    x, y = g.edge_ids
    s_word, t_word = ((x, 1), (y, 1)), ((x, 1),)
    tails = rng.sample(graphs.paths_up_to(g, PATH_LENGTH), k)
    roots = [_scalar(rng) for _ in tails]
    # squares of Gaussian rationals keep every principal root exact
    f = algebra.AlgebraElement(graphs.GraphContext(g), [
        (graphs.PathPair(g.path((x, y) + w.edges, base=w.base),
                         g.path((x,) + w.edges, base=w.base)), z * z)
        for w, z in zip(tails, roots)])
    lengths = {len(w) for w in tails}

    def run():
        return graphs.semisaturation_factorize(f, s_word, t_word)

    def check(factors):
        expect(len(factors) == len(lengths), f"{len(factors)} factors for {len(lengths)} tail lengths")
        expect(sum(len(left) for left, _ in factors) == k, "factor terms do not cover f")
        expect(all(l.is_exact() and r.is_exact() for l, r in factors), "inexact factor")
        return [[_terms_report(l), _terms_report(r)] for l, r in factors]

    return Op(f"factorize.{label}", "factorize", run, check)


def build(rng, workdir):
    ops = [scan_op(name, _graph(rng, nv, edges), L) for name, nv, edges, L in SCAN_GRAPHS]
    for k in WITNESS_TERMS:
        ops.append(witness_idempotent_op(k, rng, jitter(rng, k, TERM_JITTER)))
        ops.append(witness_coset_op(k, rng, jitter(rng, k, TERM_JITTER)))
    ops += [square_op(k, rng, jitter(rng, k, TERM_JITTER)) for k in SQUARE_TERMS]
    ops += [factorize_op(k, rng, jitter(rng, k, TERM_JITTER)) for k in FACTOR_TERMS]
    warmups = [scan_op("warm", _graph(rng, 1, ((0, 0), (0, 0))), 1),
               witness_idempotent_op("warm", rng, 3), witness_coset_op("warm", rng, 3),
               square_op("warm", rng, 5), factorize_op("warm", rng, 3)]
    return ops, warmups
