"""exact: the graded, structure and cli op sets in one round.

Everything that is not a floating-point solve: exact QQi algebra on graphs
and Bruck-Reilly extensions (graded), core/jsonio table scans (structure),
and in-process cli.main calls on tiny inputs (cli). One workload with all
three gives each run enough time to average out the host's speed drift.
Loads algebra, graphs, families, scalars, words, core, jsonio and cli;
bypasses rep except where a cli command calls it on a tiny window.
"""

from __future__ import annotations

import dataclasses

import cli_mix
import graded
import structure

PARTS = (("graded", graded), ("structure", structure), ("cli", cli_mix))


def build(rng, workdir):
    ops, warmups = [], []
    for name, part in PARTS:
        part_ops, part_warmups = part.build(rng, workdir)
        # op ids are unique within a part only (graded and cli both have a factorize)
        ops += [dataclasses.replace(op, id=f"{name}.{op.id}") for op in part_ops]
        warmups += part_warmups
    return ops, warmups
