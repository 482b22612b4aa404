"""The golden registry: every byte-identity pin of sclab's reports.

``tests/goldens.txt`` holds one command per line::

    tier  exit  limit  sha256  argv...

``tier`` is ``quick`` (also run by tier-1, in ``tests/test_goldens.py``) or
``full``; ``exit`` is the expected exit code, ``limit`` the wall-time limit
in seconds and ``sha256`` the digest of stdout.  An argv that starts with
``sclab`` runs ``python -m sclab.cli``; any other runs ``python argv...``
(the sweeps under ``tests/sweeps/``).  Every command runs from the
repository root with ``PYTHONPATH=<tree>/src``, so a tree supplies only
the package under test.

An entry fails on a wrong digest, a wrong exit code, a run over its limit,
or any stderr output when it does not expect exit 2.

    python tests/goldens.py                # run every entry
    python tests/goldens.py --against REV  # also run them on REV; list what differs

``--against`` checks REV out as a detached ``git worktree`` in a temporary
directory, removes it afterwards, and prints every command whose stdout,
stderr or exit code differs between the two trees.  The exit code is 1 when
an entry fails or a command differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
REGISTRY = ROOT / "tests" / "goldens.txt"
TIERS = ("quick", "full")
_DIGEST = re.compile(r"[0-9a-f]{64}")


class Entry(NamedTuple):
    tier: str
    exit: int
    limit: float
    sha256: str
    argv: tuple[str, ...]

    def __str__(self) -> str:
        return shlex.join(self.argv)


class Outcome(NamedTuple):
    code: int | None  # None: killed at the entry's limit
    out: bytes
    err: bytes
    seconds: float


def parse(text: str) -> list[Entry]:
    """The entries of a registry text; ``ValueError`` names a bad line."""
    entries, seen = [], set()
    for number, line in enumerate(text.splitlines(), 1):
        fields = shlex.split(line, comments=True)
        if not fields:
            continue
        where = f"goldens line {number}"
        if len(fields) < 5:
            raise ValueError(f"{where}: expected tier, exit, limit, sha256 and a command")
        tier, code, limit, digest, *argv = fields
        try:
            entry = Entry(tier, int(code), float(limit), digest, tuple(argv))
        except ValueError:
            raise ValueError(f"{where}: exit {code!r} or limit {limit!r} is not a number") from None
        if tier not in TIERS:
            raise ValueError(f"{where}: tier {tier!r} is not one of {', '.join(TIERS)}")
        if not _DIGEST.fullmatch(digest):
            raise ValueError(f"{where}: {digest!r} is not a lowercase hex sha256")
        if not entry.limit > 0:
            raise ValueError(f"{where}: the limit must be positive, not {limit}")
        if entry.argv in seen:
            raise ValueError(f"{where}: {entry} is listed twice")
        seen.add(entry.argv)
        entries.append(entry)
    return entries


def load() -> list[Entry]:
    return parse(REGISTRY.read_text(encoding="utf-8"))


def run(entry: Entry, tree: Path) -> Outcome:
    """Run ``entry`` on the package in ``tree/src``, killed at its limit."""
    if entry.argv[0] == "sclab":
        argv = [sys.executable, "-m", "sclab.cli", *entry.argv[1:]]
    else:
        argv = [sys.executable, *entry.argv]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, timeout=entry.limit
        )
    except subprocess.TimeoutExpired as exc:
        return Outcome(None, exc.stdout or b"", exc.stderr or b"", time.perf_counter() - start)
    return Outcome(done.returncode, done.stdout, done.stderr, time.perf_counter() - start)


def problems(entry: Entry, outcome: Outcome) -> list[str]:
    """What is wrong with ``outcome`` as a run of ``entry``, one line each,
    each naming the command; empty when it passes."""
    if outcome.code is None or outcome.seconds > entry.limit:
        found = [f"over its {entry.limit:g} s limit ({outcome.seconds:.2f} s)"]
    else:
        found = []
        if outcome.code != entry.exit:
            found.append(f"exit {outcome.code}, expected {entry.exit}")
        digest = hashlib.sha256(outcome.out).hexdigest()
        if digest != entry.sha256:
            found.append(f"stdout sha256 {digest}, expected {entry.sha256}")
        if outcome.err and entry.exit != 2:
            last = outcome.err.decode(errors="replace").strip().splitlines()[-1:]
            found.append(f"unexpected stderr: {' '.join(last)!r}")
    return [f"{entry}: {problem}" for problem in found]


def differences(entries: list[Entry], ours: list[Outcome], theirs: list[Outcome]) -> list[str]:
    """One line per command whose stdout, stderr or exit code differs."""
    lines = []
    for entry, a, b in zip(entries, ours, theirs, strict=True):
        parts = [
            name
            for name, x, y in (("stdout", a.out, b.out), ("stderr", a.err, b.err), ("exit code", a.code, b.code))
            if x != y
        ]
        if parts:
            lines.append(f"{entry}: differs in {', '.join(parts)}")
    return lines


@contextmanager
def worktree(rev: str):
    """A detached checkout of ``rev`` in a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="goldens-") as tmp:
        path = Path(tmp) / "tree"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run(git + ["add", "--detach", "--quiet", str(path), rev], check=True)
        try:
            yield path
        finally:
            subprocess.run(git + ["remove", "--force", str(path)], check=True)


def _run_all(entries: list[Entry], tree: Path, label: str) -> tuple[list[Outcome], int]:
    outcomes, failed = [], 0
    for entry in entries:
        outcome = run(entry, tree)
        found = problems(entry, outcome)
        failed += bool(found)
        print(f"{label} {'FAIL' if found else 'ok  '} {outcome.seconds:6.2f} s  {entry}", flush=True)
        for line in found:
            print(f"    {line}", flush=True)
        outcomes.append(outcome)
    return outcomes, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the golden registry tests/goldens.txt.")
    parser.add_argument(
        "--against", metavar="REV",
        help="also run every entry on a git worktree of REV and list each command that differs",
    )
    args = parser.parse_args(argv)
    entries = load()
    ours, failed = _run_all(entries, ROOT, "this tree")
    print(f"{len(entries)} commands, {failed} failed")
    if args.against is None:
        return int(failed > 0)
    with worktree(args.against) as tree:
        theirs, _ = _run_all(entries, tree, args.against)
    diff = differences(entries, ours, theirs)
    print(f"{len(diff)} of {len(entries)} commands differ from {args.against}")
    for line in diff:
        print(f"    {line}")
    return int(failed > 0 or bool(diff))


if __name__ == "__main__":
    sys.exit(main())
