"""``scripts/same_outputs.py`` runs one pass only when BASE is the working tree itself.

These tests check that decision on a small throwaway repository; they run
no command of the list.
"""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_outputs)

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def git(repo: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


@pytest.fixture
def repo(tmp_path):
    """A repository with two commits of one tracked file and an ignored build directory."""
    git(tmp_path, "init", "-q")
    (tmp_path / ".gitignore").write_text("build/\n")
    (tmp_path / "a.txt").write_text("one\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "first")
    (tmp_path / "a.txt").write_text("two\n")
    git(tmp_path, "commit", "-q", "-am", "second")
    return tmp_path


def test_a_clean_head_is_one_pass(repo):
    (repo / "build").mkdir()
    (repo / "build" / "out.bin").write_bytes(b"ignored")
    assert same_outputs.is_working_tree(repo, git(repo, "rev-parse", "HEAD"))


def test_an_edited_tracked_file_is_two_passes(repo):
    (repo / "a.txt").write_text("three\n")
    assert not same_outputs.is_working_tree(repo, git(repo, "rev-parse", "HEAD"))


def test_an_untracked_file_is_two_passes(repo):
    (repo / "new.txt").write_text("new\n")
    assert not same_outputs.is_working_tree(repo, git(repo, "rev-parse", "HEAD"))


def test_an_older_base_is_two_passes(repo):
    assert not same_outputs.is_working_tree(repo, git(repo, "rev-parse", "HEAD~1"))
