"""Golden stdout corpus: every command on every bundled fixture.

`tests/golden/stdout.json` maps each invocation (command and fixture) to
its exit code and the sha256 of its stdout. The test replays every entry
in-process and asserts byte identity, so a refactor that changes any report
byte, or any exit code, on the bundled fixtures fails here. Stderr carries
timings and is not compared.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from invsemi.cli import _COMMANDS, main
from invsemi.jsonio import list_fixtures

CORPUS = Path(__file__).parent / "golden" / "stdout.json"


def invocations():
    """Every non-report command on every fixture at default flags, plus the report."""
    out = [[command, "--input", fixture]
           for command in _COMMANDS if command != "report"
           for fixture in list_fixtures()]
    out.append(["report", "--seed", "0"])
    return out


def replay(argv):
    """Run the CLI once in-process; returns (exit code, sha256 of stdout)."""
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()


def _key(argv):
    return " ".join(argv)


def record():
    corpus = {}
    for argv in invocations():
        code, digest = replay(argv)
        corpus[_key(argv)] = {"exit": code, "sha256": digest}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    return corpus


def test_corpus_lists_every_invocation():
    corpus = json.loads(CORPUS.read_text())
    assert sorted(corpus) == sorted(_key(a) for a in invocations())


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_stdout_matches_golden_corpus(command):
    corpus = json.loads(CORPUS.read_text())
    mismatches = []
    for argv in invocations():
        if argv[0] != command:
            continue
        code, digest = replay(argv)
        want = corpus[_key(argv)]
        if (code, digest) != (want["exit"], want["sha256"]):
            mismatches.append(_key(argv))
    assert not mismatches


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    print(f"recorded {len(record())} invocations to {CORPUS}")
