"""The docs point at what exists: DESIGN.md stays short, every
``DESIGN.md §N`` citation names a section, and every backticked ``*.py``
path in DESIGN.md and README.md names a tracked file.
"""

from __future__ import annotations

import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DESIGN = ROOT / "DESIGN.md"
DESIGN_MAX_LINES = 900
CITING = ("src", "tests", "benchmarks", "examples", "README.md", "ROADMAP.md",
          ".claude")
CITATION = re.compile(r"DESIGN\.md[\s,]*§+\s*(\d+[a-z]?)")
HEADING = re.compile(r"^## (\d+[a-z]?)\.", re.MULTILINE)
PY_PATH = re.compile(r"[\w./-]*\w\.py\b")


def _tracked() -> "list[str]":
    out = subprocess.run(["git", "ls-files"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_design_fits_its_line_cap():
    lines = len(DESIGN.read_text().splitlines())
    assert lines <= DESIGN_MAX_LINES, (
        f"DESIGN.md has {lines} lines (cap {DESIGN_MAX_LINES}): point at the "
        "module that states a mechanism instead of restating it")


def test_section_citations_name_existing_sections():
    sections = set(HEADING.findall(DESIGN.read_text()))
    dangling = []
    for rel in _tracked():
        if not rel.startswith(CITING):
            continue
        try:
            text = (ROOT / rel).read_text()
        except (UnicodeDecodeError, FileNotFoundError):
            continue
        for m in CITATION.finditer(text):
            if m.group(1) not in sections:
                line = text.count("\n", 0, m.start()) + 1
                dangling.append(f"{rel}:{line}: §{m.group(1)}")
    assert not dangling, f"citations of missing DESIGN.md sections: {dangling}"


def test_backticked_paths_name_tracked_files():
    tracked = set(_tracked())
    missing = []
    for doc in ("DESIGN.md", "README.md"):
        spans = re.findall(r"`([^`]+)`", (ROOT / doc).read_text())
        for path in {p for span in spans for p in PY_PATH.findall(span)}:
            if path in tracked or f"src/repro/{path}" in tracked:
                continue
            if sum(t.endswith(f"/{path}") for t in tracked) != 1:
                missing.append(f"{doc}: {path}")
    assert not missing, f"backticked paths that name no tracked file: {missing}"
