"""Reach points: sizes past tier 1, run with `pytest -m reach`.

Each point runs in a fresh process, so the peak RSS it reports is its own.

- I_6, the symmetric inverse monoid on six points, has 13327 elements, so
  its table holds 177.6 million int16 cells (339 MiB). Closure, validation
  and the maximum group image run.
- `grading-check --input bouquet2 --length 5` scans the 2298051 nonzero
  pairs of its 3969 path pairs. Its memos live for one R-class; one kept
  for the whole scan reached 129.7 MiB.
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


BOUQUET2_L5 = """
import contextlib, io, json, resource, time
from invsemi.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["grading-check", "--input", "bouquet2", "--length", "5"])
print(json.dumps({"seconds": time.perf_counter() - start, "code": code,
                  "report": json.loads(out.getvalue()),
                  "peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def _fresh(code, timeout):
    src = os.path.dirname(os.path.dirname(os.path.abspath(invsemi.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_i6_closure_validation_and_group_image():
    got = _fresh(I6, 120)
    assert (got["n"], got["order"], got["list_view"]) == (13327, 1, False)
    assert got["zero"] is not None
    assert got["seconds"] < 5 and got["peak_mib"] < 1024, got


def test_bouquet2_grading_check_at_length_five():
    got = _fresh(BOUQUET2_L5, 60)
    assert got["code"] == 0 and got["report"]["ok"]
    assert got["report"]["checked"] == 3969 ** 2
    assert got["seconds"] < 15 and got["peak_mib"] < 64, got
