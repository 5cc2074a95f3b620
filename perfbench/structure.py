"""structure: closure, group image, E-unitarity, omega-cosets, table loads.

Fixed generator sets of partial bijections; the seed only relabels points
so element counts and group orders are pinned as data.
Only core and jsonio table scans do work. Loads core and jsonio; bypasses
algebra, graphs, families, rep and cli.
"""

from __future__ import annotations

from invsemi import core, jsonio

from common import Op, expect


def _cycle(points):
    return {p: points[(i + 1) % len(points)] for i, p in enumerate(points)}


def _swap(a, b, points):
    return {p: (b if p == a else a if p == b else p) for p in points}


def _identity(points):
    return {p: p for p in points}


def _copies(perm, blocks):
    """The permutation acting in parallel on blocks of 5 (or 4) points."""
    size = len(perm)
    return {p + size * b: perm[p] + size * b for b in range(blocks) for p in perm}


_P5, _P4 = range(5), range(4)
# name: (generators, elements, group order, has zero, E-unitary, idempotents, load as table)
SETS = {
    "I4": ([_swap(0, 1, _P4), _cycle(list(_P4)), _identity(range(3))],
           209, 1, True, False, 16, True),
    "I5_cycle_rank4": ([_cycle(list(_P5)), _identity(range(4))],
                       156, 1, True, False, 32, True),
    # the rank-4 chain 0 -> 1 -> 2 -> 3 -> 4; its O(n^3) table validation
    # alone takes about 3.5 s, so it is closed but not loaded as a table
    "I5_swap_chain": ([_swap(0, 1, _P5), {0: 1, 1: 2, 2: 3, 3: 4}],
                      318, 1, True, False, 26, False),
    # S_5 on two copies of five points over the identity of the first copy:
    # a Clifford semigroup without zero
    "S5_double": ([_copies(_swap(0, 1, _P5), 2), _copies(_cycle(list(_P5)), 2),
                   _identity(_P5)], 240, 120, False, True, 2, True),
}
# warm-ups run on S_4 acting on three nested copies: zero-free and small
WARMUP = ("S4_triple", ([_copies(_swap(0, 1, _P4), 3), _copies(_cycle(list(_P4)), 3),
                         _identity(range(8)), _identity(_P4)], 72, 24, False, True, 3, True))


def _key(m):
    return tuple(sorted(m.items()))


def _closure(gens):
    """Independent closure: breadth-first right multiplication on raw dicts."""
    step = gens + [{v: k for k, v in g.items()} for g in gens]
    seen, queue = {}, []
    for g in step:
        if _key(g) not in seen:
            seen[_key(g)] = g
            queue.append(g)
    for a in queue:
        for g in step:
            p = {x: a[y] for x, y in g.items() if y in a}
            if _key(p) not in seen:
                seen[_key(p)] = p
                queue.append(p)
    return queue


def _table_doc(elements):
    index = {_key(m): i for i, m in enumerate(elements)}
    table = [[index[_key({x: a[y] for x, y in b.items() if y in a})] for b in elements]
             for a in elements]
    star = [index[_key({v: k for k, v in a.items()})] for a in elements]
    return {"kind": "semigroup", "table": table, "star": star,
            "zero": index.get(()), "labels": [f"s{i}" for i in range(len(elements))]}


class _Set:
    def __init__(self, rng, name, spec):
        gens, self.size, self.order, self.has_zero, self.e_unitary, self.n_idem, \
            self.load = spec
        self.name = name
        points = sorted({p for g in gens for p in g})
        relabel = dict(zip(points, rng.sample(points, len(points))))
        self.gens = [{relabel[x]: relabel[y] for x, y in g.items()} for g in gens]
        # breadth-first order is the same up to relabelling, so op costs do not
        # depend on the seed (max_group_image's scan stops early by element order)
        elements = _closure(self.gens)
        self.keys = {_key(m) for m in elements}
        expect(len(elements) == self.size, f"{name}: {len(elements)} elements")
        self.doc = _table_doc(elements)
        d = self.doc
        self.S = core.FiniteInverseSemigroup(d["table"], d["star"], zero=d["zero"],
                                             labels=d["labels"], check=False)

    def ops(self):
        pbs = [core.PartialBijection(g) for g in self.gens]
        yield Op(f"close.{self.name}", "close_generators",
                 lambda: core.close_generators(pbs), self.check_closure)
        yield Op(f"group_image.{self.name}", "max_group_image",
                 lambda: core.max_group_image(self.S), self.check_image)
        yield Op(f"e_unitary.{self.name}", "is_e_unitary",
                 lambda: core.is_e_unitary(self.S), self.check_e_unitary)
        if not self.has_zero:
            G, sigma = core.max_group_image(self.S)
            expect(G.n == self.order, f"{self.name}: group of order {G.n}")
            phi = core.Homomorphism(self.S, G, sigma)
            yield Op(f"omega.{self.name}", "omega_coset_partition",
                     lambda: core.omega_coset_partition(phi), self.check_cosets)
        if self.load:
            yield Op(f"load_table.{self.name}", "load_input",
                     lambda: jsonio.load_input(self.doc), self.check_load)

    def check_closure(self, S):
        expect(S.n == self.size, f"{self.name}: closure has {S.n} elements")
        expect({_key(pb.map) for pb in S.witnesses} == self.keys,
               f"{self.name}: closure differs from the independent one")
        expect((S.zero_index is not None) == self.has_zero, f"{self.name}: zero")
        return {"elements": S.n, "labels": sorted(S.labels)}

    def check_image(self, result):
        G, sigma = result
        expect(G.n == self.order, f"{self.name}: group of order {G.n}")
        expect(len(sigma) == self.size and set(sigma) == set(range(G.n)),
               f"{self.name}: sigma is not onto")
        return {"order": G.n, "sigma": sigma}

    def check_e_unitary(self, verdict):
        expect(verdict is self.e_unitary, f"{self.name}: e_unitary {verdict}")
        return {"e_unitary": verdict}

    def check_cosets(self, cosets):
        members = [t for c in cosets for t in c]
        expect(len(cosets) == self.order, f"{self.name}: {len(cosets)} cosets")
        expect(len(members) == len(set(members)) == self.size,
               f"{self.name}: cosets do not partition")
        return sorted(sorted(c) for c in cosets)

    def check_load(self, li):
        S = li.structure
        expect(S.n == self.size and S.zero_index == self.doc["zero"]
               and len([e for e in range(S.n) if S.table[e][e] == e]) == self.n_idem,
               f"{self.name}: loaded table differs")
        return {"n": S.n, "zero": S.zero_index}


def build(rng, workdir):
    ops = [op for name, spec in SETS.items() for op in _Set(rng, name, spec).ops()]
    warm = _Set(rng, *WARMUP)
    warmups = [Op(f"{op.id}.warm", op.kind, op.run, op.check) for op in warm.ops()]
    return ops, warmups
