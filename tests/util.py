"""Shared test helpers: brute-force oracles and seeded scalar generators."""

from __future__ import annotations

import random
from fractions import Fraction

from invsemi.scalars import QQi


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
