"""The command-line output stays byte for byte what it was.

`tests/cli_snapshot.py` prints a fixed list of CLI runs; this test runs it
in a fresh interpreter and compares the size and sha256 of its output with
the values pinned below."""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")

LINES = 7390
SHA256 = "bd2b0c240d9a57368522970104c7e7e4e0d81a114b58a454500c035b227c65c5"


def test_cli_output_matches_the_pinned_snapshot():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "cli_snapshot.py"), SRC],
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    got = (proc.stdout.count(b"\n"), hashlib.sha256(proc.stdout).hexdigest())
    assert got == (LINES, SHA256), (
        "the CLI output moved: run `python tests/cli_snapshot.py SRC` on the "
        "parent tree and on this one, diff the two outputs, and name every "
        "intended change in CHANGES.md before pinning the new values")
