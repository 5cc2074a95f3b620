"""The benchmark's set-up step and its timed ops stay runnable against the
library.

`perfbench/run.py` builds every op of a workload and runs one warm-up op of
each kind with its oracle check before it times anything; an exception there
makes the run exit 1. Running that step here catches a renamed function, a
changed signature or a missing report field that the benchmark reads. The
warm-ups run at small sizes only, so one full round of the timed ops runs
too, with every oracle check: a defect that shows only at a timed size (a
Bruck-Reilly psd at level 25, a min_eig at 2060 points) fails here.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def run_module(monkeypatch):
    """perfbench/run.py imported with perfbench/ first on sys.path; the
    benchmark's top-level modules are dropped again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("run")
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "").parent == PERFBENCH:
            del sys.modules[name]


@pytest.mark.parametrize("workload", ["spectral", "exact"])
def test_setup_and_one_timed_round_pass_every_check(run_module, workload, tmp_path):
    ops = run_module.setup(workload, 9001, tmp_path)
    assert ops
    stats = run_module.Stats()
    stats.run_round(ops)
    assert stats.attempted == len(ops)
    assert not stats.failures and stats.correct


def test_setup_exits_zero_under_two_hash_seeds():
    """The benchmark's own `--setup-only` step in fresh processes under two
    fixed string-hash seeds: code that orders output by set or dict order of
    strings, or by object addresses, can pass under one seed and fail under
    another."""
    procs = [subprocess.Popen(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "exact",
         "--seed", "9001", "--setup-only"],
        cwd=PERFBENCH.parent, env=dict(os.environ, PYTHONHASHSEED=seed),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) for seed in ("0", "1")]
    for seed, proc in zip(("0", "1"), procs):
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}: {err.decode()}"


def test_exact_setup_leaves_scipy_unloaded(tmp_path):
    """scipy is imported only by the solver that needs it: the library, its
    command line and the exact workload's set-up load none of it."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import invsemi, invsemi.cli, run\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            f"run.setup('exact', 9001, {str(tmp_path)!r})\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
