#!/usr/bin/env python3
"""Check that the CLI and the acceptance suite print the same bytes as at a base commit.

Usage:  python scripts/same_outputs.py BASE

BASE is any git revision.  The script exports it with ``git archive`` into a
temporary directory, runs one fixed list of ``cheshire`` commands in that
tree and in this working tree (uncommitted edits included) with the same
interpreter, and compares each command's exit status, stdout, stderr and CSV
file byte for byte.  Two sweeps span several CSV blocks of grid points: 2500
chi points of a path I magnet to a ``--csv`` file and 1500 alpha points of a
path II quadratic magnet to stdout.  The ``--config`` runs read two scenario
files that the script writes into each tree's work directory first.  It then runs
``pytest -q -s tests/test_acceptance.py`` in both trees and compares the
output, with a trailing `` in N.NNs`` cut from each line: criteria 03 and 09
print their own wall time, and pytest its own.

Every listed command and the acceptance run must also exit 0 in both trees
(``reproduce --scale-ref-cps 20`` 2, the code of a theory/data disagreement,
and each bad-input command 1, the code of its ``error:`` line); a run that
does not is named, so that two trees that fail alike (an import
error, a renamed flag) do not pass as identical.  Exit status 0 means every
output is identical and every run succeeded, 1 that some output differs or
some run failed (each is shown), 2 that BASE is not a commit.  The exported
tree is removed on exit.  A change that alters an output on purpose fails this
check against its parent, so that comparison is run by hand.

When BASE is HEAD and the working tree equals it (no edit to a tracked file,
no untracked file that git does not ignore), the two trees would be the same:
the list and the acceptance suite then run once, in this tree, and only their
exit statuses are checked.  CI runs it so, where it fails only when the
script itself has rotted or a listed command no longer exits as expected.
Standard library only.
"""

from __future__ import annotations

import difflib
import io
import itertools
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# No insertion, an absorber on each path, a magnet on each path in each truncation.
TEMPLATES = [
    [],
    ["--insertion", "absorber", "--path", "I", "--transmissivity", "0.5"],
    ["--insertion", "absorber", "--path", "II", "--transmissivity", "0.5"],
] + [
    ["--insertion", "magnet", "--path", path, "--alpha-deg", "20", "--truncation", truncation]
    for path in ("I", "II")
    for truncation in ("exact", "linear", "quadratic")
]

# Scenario files for the --config runs: README's magnet config, and a
# partial one that flags complete.
CONFIGS = {
    "magnet.cfg": "# benchmark magnet scenario\ninsertion = magnet\npath = II\nalpha_deg = 20\n"
                  "truncation = exact\nscale_ref_cps = 11.25\n",
    "partial.cfg": "insertion = magnet\n",
}

# A trailing wall time, as in "(want 4±0.2) in 0.01s" or "10 passed in 0.42s".
WALL_TIME = re.compile(rb" in \d+\.\d+s$", re.MULTILINE)

# Commands with bad input, each refused with one error line: a value, a
# missing or stray field, a grid bound, an unreadable config file, angles
# past the physical domain |alpha| <= 1e6 rad (a scan's grid on each path,
# run's magnet at chi = 0 and 0.5, and a sweep's alpha grid, which names its
# first bad angle; their readings once overflowed), a scale just below the
# domain's 1e-12 cps, and on both parse routes (the top-level parser's and
# a subcommand's own) a missing or unknown command and an unknown flag.
BAD_INPUT = [
    ["run", "--chi-rad", "nan"],
    ["run", "--insertion", "magnet", "--path", "II"],
    ["sweep", "--vary", "chi", "--points", "1"],
    ["analyze", "--path", "I", "--alpha-min", "-1e-3"],
    ["run", "--config", "missing.cfg"],
    ["sweep", "--vary", "alpha", "--insertion", "absorber", "--path", "I", "--transmissivity", "0.5"],
    ["analyze", "--path", "II", "--alpha-max", "3e154"],
    ["run", "--insertion", "magnet", "--path", "II", "--truncation", "quadratic", "--alpha-rad", "3e154"],
    ["run", "--insertion", "magnet", "--path", "II", "--truncation", "linear", "--alpha-rad", "1e200"],
    ["analyze", "--path", "I", "--alpha-max", "3e154"],
    ["run", "--insertion", "magnet", "--path", "I", "--truncation", "quadratic", "--alpha-rad", "3e154",
     "--chi-rad", "0.5"],
    ["sweep", "--insertion", "magnet", "--path", "II", "--truncation", "quadratic", "--alpha-rad", "0.3",
     "--vary", "alpha", "--start", "1", "--stop", "3e154", "--points", "40", "--chi-rad", "0.5"],
    ["run", "--scale-ref-cps", "1e-13"],
    [],
    ["bogus"],
    ["sweep", "--vary", "chi", "--bogus"],
]

# The label suffix of each run's exit status, and the runs whose status in
# both trees must be other than 0: at a 20 cps reference rate the theory
# disagrees with the published rates, so reproduce exits 2; bad input exits 1.
EXIT_STATUS = ": exit status"
EXPECTED_STATUS = {
    "cheshire reproduce --scale-ref-cps 20": b"2",
    **{" ".join(["cheshire", *argv]): b"1" for argv in BAD_INPUT},
}

# Lines of a unified diff shown per differing output.
DIFF_LINES = 20


def commands() -> list[tuple[list[str], str | None]]:
    """Each ``cheshire`` argv to run, with the CSV file it writes (or None)."""
    runs: list[tuple[list[str], str | None]] = [
        (["weakvalues"], None),
        (["reproduce"], None),
        (["reproduce", "--scale-ref-cps", "20"], None),
    ]
    for n, template in enumerate(TEMPLATES):
        runs.append((["run", *template], None))
        runs.append((["run", *template, "--chi-deg", "30"], None))
        for vary in ("chi", "alpha") if "magnet" in template else ("chi",):
            csv = f"sweep_{vary}_{n}.csv"
            runs.append((["sweep", *template, "--vary", vary, "--points", "25", "--csv", csv], csv))
    for path in ("I", "II"):
        csv = f"analyze_{path}.csv"
        runs.append((["analyze", "--path", path, "--csv", csv], csv))
    runs += [
        (["run", "--config", "magnet.cfg"], None),
        (["run", "--config", "magnet.cfg", "--alpha-deg", "0"], None),
        (["run", "--config", "magnet.cfg", "--chi-rad", "-0.0"], None),
        (["run", "--config", "partial.cfg", "--path", "II", "--alpha-deg", "20"], None),
        (["sweep", "--config", "magnet.cfg", "--vary", "alpha", "--points", "25",
          "--csv", "sweep_config.csv"], "sweep_config.csv"),
        # sweeps of several CSV blocks, to a file and to stdout
        (["sweep", "--insertion", "magnet", "--path", "I", "--alpha-deg", "20", "--vary", "chi",
          "--points", "2500", "--csv", "sweep_blocks.csv"], "sweep_blocks.csv"),
        (["sweep", "--insertion", "magnet", "--path", "II", "--truncation", "quadratic", "--chi-deg", "30",
          "--vary", "alpha", "--points", "1500"], None),
        # the corner of the domain where the readings and rates are largest
        (["run", "--insertion", "magnet", "--path", "I", "--truncation", "quadratic", "--alpha-rad", "1e6",
          "--chi-rad", "0.5", "--scale-ref-cps", "1e12"], None),
    ]
    runs += [(argv, None) for argv in BAD_INPUT]
    return runs


def outputs(tree: Path, work: Path) -> dict[str, bytes]:
    """Every output of the command list and the acceptance suite run on ``tree``, by label.

    The commands run in ``work``, where the config files are written and
    their CSV files land; the tree's own path is replaced by ``<tree>`` so
    that the two trees' messages compare.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    work.mkdir()
    for name, text in CONFIGS.items():
        (work / name).write_text(text, encoding="utf-8")
    found: dict[str, bytes] = {}

    def call(label: str, argv: list[str]) -> bytes:
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True)
        here = os.fsencode(tree)
        found[label + EXIT_STATUS] = str(done.returncode).encode()
        found[f"{label}: stderr"] = done.stderr.replace(here, b"<tree>")
        return done.stdout.replace(here, b"<tree>")

    for argv, csv in commands():
        label = " ".join(["cheshire", *argv])
        found[f"{label}: stdout"] = call(label, [sys.executable, "-m", "cheshire", *argv])
        if csv is not None:
            written = work / csv
            found[f"{label}: {csv}"] = written.read_bytes() if written.exists() else b"<none>"

    suite = tree / "tests" / "test_acceptance.py"
    label = "pytest -q -s tests/test_acceptance.py"
    stdout = call(label, [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", str(suite)])
    found[f"{label}: stdout, wall times cut"] = WALL_TIME.sub(b"", stdout)
    return found


def export(revision: str, into: Path) -> None:
    """Write the tree of ``revision`` into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        capture_output=True,
        check=True,
    ).stdout
    # the "data" filter (Python 3.10.12+, 3.11.4+) refuses links and paths out of ``into``
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)


def is_working_tree(root: Path, commit: str) -> bool:
    """Whether the working tree at ``root`` is ``commit`` itself: HEAD, unedited, nothing untracked."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)

    return (
        git("rev-parse", "--verify", "HEAD").stdout.strip() == commit
        and git("diff", "--quiet", commit, "--").returncode == 0
        and git("ls-files", "--others", "--exclude-standard").stdout == ""
    )


def show(label: str, before: bytes, after: bytes) -> None:
    print(f"DIFFERS  {label}")
    diff = difflib.unified_diff(
        before.decode(errors="replace").splitlines(keepends=True),
        after.decode(errors="replace").splitlines(keepends=True),
        "base",
        "this tree",
        n=0,
    )
    for line in itertools.islice(diff, DIFF_LINES):
        print("    " + line, end="" if line.endswith("\n") else "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/same_outputs.py BASE", file=sys.stderr)
        return 2
    base = argv[0]
    resolved = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{base}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if resolved.returncode != 0:
        print(f"error: {base!r} is not a commit", file=sys.stderr)
        return 2

    commit = resolved.stdout.strip()
    one_tree = is_working_tree(ROOT, commit)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        scratch = Path(tmp)
        after = outputs(ROOT, scratch / "tree_out")
        if one_tree:
            print(f"this tree is {base} itself: each run once, its exit status checked")
            before = after
        else:
            export(commit, scratch / "base")
            before = outputs(scratch / "base", scratch / "base_out")

    differing = [label for label in before if before[label] != after[label]]
    for label in differing:
        show(label, before[label], after[label])
    failed = []
    for label in before:
        if label.endswith(EXIT_STATUS):
            run = label.removesuffix(EXIT_STATUS)
            want = EXPECTED_STATUS.get(run, b"0")
            if before[label] != want or after[label] != want:
                failed.append(run)
                print(f"FAILED   {run}: exit status {before[label].decode()} at {base}, "
                      f"{after[label].decode()} in this tree, want {want.decode()}")
    if one_tree:
        print(f"{sum(label.endswith(EXIT_STATUS) for label in after)} runs, each once, on {base} itself")
    else:
        print(f"{len(before) - len(differing)} of {len(before)} outputs identical to {base}")
    if failed:
        print(f"{len(failed)} runs exited non-zero")
    return 1 if differing or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
