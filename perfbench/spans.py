"""Spans around calls into invsemi, recorded from outside the library.

While a Tracer is active, each traced function is replaced by a wrapper in
every invsemi module that holds a reference to it, so calls the library makes
internally (is_e_unitary -> max_group_image, epsilon_star_square -> convolve,
cli.main -> load_input) open spans too. A span's self time is its duration
minus the time of the spans it caused; a layer's busy time is the summed self
time of its spans. Counters are computed from arguments and results, so
`scalars` and `words` work shows as counts, not as spans of their own.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _matrix_counts(args, M):
    return {"rep.matrix.dim": M.n, "rep.matrix.nnz": len(M.entries),
            "rep.matrix.dropped": M.dropped}


def _cli_name(args):
    argv = args[0] if args else []
    return f"cli.main.{argv[0] if argv else 'none'}"


def _cli_counts(args, code):
    return {f"cli.main.exit_{code}": 1}


# (module, attribute path, counters from (args, result))
TRACED = (
    ("invsemi.rep", "min_eig", None),
    ("invsemi.rep", "norm_lower_bound", None),
    ("invsemi.rep", "action_matrix", _matrix_counts),
    ("invsemi.rep", "lambda_matrix", _matrix_counts),
    ("invsemi.rep", "psd_refute", None),
    ("invsemi.families", "ShiftBundle.epsilon_xx_star", None),
    ("invsemi.core", "close_generators",
     lambda a, S: {"core.close_generators.elements": S.n}),
    ("invsemi.core", "max_group_image",
     lambda a, r: {"core.max_group_image.order": r[0].n}),
    ("invsemi.core", "idempotents", lambda a, E: {"core.idempotents.count": len(E)}),
    ("invsemi.core", "is_e_unitary", None),
    ("invsemi.core", "omega_coset_partition", None),
    ("invsemi.jsonio", "load_input", None),
    ("invsemi.jsonio", "load_fixture", None),
    ("invsemi.graphs", "enumerate_pairs",
     lambda a, r: {"graphs.enumerate_pairs.pairs": len(r)}),
    ("invsemi.graphs", "semisaturation_factorize", None),
    ("invsemi.algebra", "check_grading",
     lambda a, r: {"algebra.check_grading.checked": r["checked"]}),
    ("invsemi.algebra", "bundle_fibers", None),
    ("invsemi.algebra", "epsilon_star_square", None),
    ("invsemi.algebra", "sos_witness_idempotent_kernel", None),
    ("invsemi.algebra", "sos_witness_coset", None),
    ("invsemi.algebra", "convolve",
     lambda a, r: {"algebra.convolve.term_pairs": len(a[0]) * len(a[1])}),
    ("invsemi.cli", "main", _cli_counts),
)


class Tracer:
    """Collects busy time per span name and counters while installed."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_time = []   # one accumulator per open span
        self._undo = []

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            span = _cli_name(args) if name == "cli.main" else name
            tracer._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:   # argparse's exit on a bad flag
                tracer.counts[f"{name}.exit_{exc.code}"] += 1
                raise
            except Exception:
                tracer.counts[f"{name}.raised"] += 1
                raise
            finally:
                took = time.perf_counter() - t0
                tracer.busy[span] += took - tracer._child_time.pop()
                if tracer._child_time:
                    tracer._child_time[-1] += took
            if count is not None:
                for key, value in count(args, result).items():
                    tracer.counts[key] += value
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "invsemi" or n.startswith("invsemi."))]
        for mod_name, path, count in TRACED:
            owner = sys.modules.get(mod_name)
            if owner is None:   # a module the workload never imports is never called
                continue
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = mod_name.split(".", 1)[1] + "." + attr
            wrapper = self._wrap(original, name, count)
            holders = [owner] if cls_path else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, original))

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def take(self):
        """Return and clear what was recorded since the last take."""
        snap = {"busy": dict(self.busy), "counts": dict(self.counts)}
        self.busy.clear()
        self.counts.clear()
        return snap
