"""Reach points: sizes past tier 1, run with `pytest -m reach`.

I_6, the symmetric inverse monoid on six points, has 13327 elements, so its
table holds 177.6 million int16 cells (339 MiB). Closure, validation and
the maximum group image run in a fresh process, so its peak RSS is theirs.
"""

import json
import os
import subprocess
import sys

import pytest

import invsemi

pytestmark = pytest.mark.reach

I6 = """
import json, resource, time
from invsemi.core import PartialBijection, close_generators, max_group_image
P = range(6)
gens = [PartialBijection({0: 1, 1: 0, **{p: p for p in P[2:]}}),
        PartialBijection({p: (p + 1) % 6 for p in P}),
        PartialBijection({p: p for p in P[:-1]})]
start = time.perf_counter()
S = close_generators(gens)
S.validate()
G, sigma = max_group_image(S)
print(json.dumps({"seconds": time.perf_counter() - start, "n": S.n, "order": G.n,
                  "zero": S.zero, "list_view": S._rows is not None,
                  "peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def test_i6_closure_validation_and_group_image():
    src = os.path.dirname(os.path.dirname(os.path.abspath(invsemi.__file__)))
    done = subprocess.run([sys.executable, "-c", I6], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert (got["n"], got["order"], got["list_view"]) == (13327, 1, False)
    assert got["zero"] is not None
    assert got["seconds"] < 5 and got["peak_mib"] < 1024, got
