"""Contexts are freed by reference counting alone.

A context that stored an algebra element or a grading over itself would sit
in a reference cycle, and it and everything it holds (a shift bundle's
point maps, a table's group image) would wait for the cycle collector.
"""

import gc
import weakref

import pytest

from invsemi.families import example62
from invsemi.jsonio import load_fixture


def _fixture(name):
    return lambda: load_fixture(name).structure


# one fixture per document kind (the graph is acyclic, so it is finite),
# and the hooks each one answers beyond grading() and window()
CASES = {
    "semigroup": (_fixture("clifford_z2"), ["finite_semigroup"]),
    "graph": (_fixture("two_parallel"), ["finite_semigroup"]),
    "bruck_reilly": (_fixture("br_z2_id"), []),
    "toeplitz": (_fixture("toeplitz_z2"), []),
    "shift_bundle": (_fixture("shift_window5"), []),
    "example62": (lambda: example62(5), ["epsilon_xx_star"]),
}


def _used_then_dropped(make, hooks):
    ctx = make()
    ctx.grading()
    ctx.window(2, 2)
    for hook in hooks:
        getattr(ctx, hook)()
    return weakref.ref(ctx)


@pytest.mark.parametrize("kind", list(CASES))
def test_context_is_freed_without_the_cycle_collector(kind):
    gc.collect()
    gc.disable()
    try:
        assert _used_then_dropped(*CASES[kind])() is None
    finally:
        gc.enable()
