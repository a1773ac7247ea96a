"""Documentation hygiene: intra-repo links and code references resolve.

Every relative link or image in README.md and docs/ must point at a file
(or directory) that exists in the repository, and same-document anchors
must match a real heading.  External URLs are out of scope.  Every
backticked ``repro.<module>[.<name>]`` in those documents and DESIGN.md
must import/resolve, so deleting a module cannot leave a dangling
paper-mapping row.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOCUMENTS = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.as_posix(),
)

#: ``[text](target)`` and ``![alt](target)``; nested brackets in the text
#: are not used in this repo's docs.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_CODE_FENCE = re.compile(r"^(```|~~~)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")


def _strip_code_blocks(text: str) -> list[str]:
    lines, fenced = [], False
    for line in text.splitlines():
        if _CODE_FENCE.match(line.strip()):
            fenced = not fenced
            continue
        if not fenced:
            lines.append(line)
    return lines


def _github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor slug (enough for this repo's docs)."""
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\s-]", "", heading, flags=re.UNICODE)
    return re.sub(r"\s+", "-", heading).strip("-")


def _links(document: Path) -> list[str]:
    return [
        match
        for line in _strip_code_blocks(document.read_text())
        for match in _LINK.findall(line)
    ]


def _anchors(document: Path) -> set[str]:
    return {
        _github_anchor(m.group(1))
        for line in _strip_code_blocks(document.read_text())
        if (m := _HEADING.match(line))
    }


def test_docs_exist():
    # README + docs index + benchmarks/datasets/internals/paper_mapping/
    # persistence/serving/verification
    assert len(DOCUMENTS) >= 9


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name)
def test_intra_repo_links_resolve(document):
    broken = []
    for target in _links(document):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if not path_part:  # same-document anchor
            if _github_anchor(anchor) not in _anchors(document):
                broken.append(f"{target} (no such heading)")
            continue
        resolved = (document.parent / path_part).resolve()
        if not resolved.exists():
            broken.append(f"{target} (no such file)")
            continue
        if anchor and resolved.suffix == ".md":
            if _github_anchor(anchor) not in _anchors(resolved):
                broken.append(f"{target} (no such heading in target)")
    assert not broken, f"broken links in {document.name}: {broken}"


#: Backticked dotted names rooted at the package; a ``/`` or ``-`` right
#: after the name marks an identifier string (obs schema ids such as
#: ``repro.obs.snapshot/9``), not code.
_CODE_REF = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?![\w/-])")

#: Dotted strings that are deliberately not importable.
_NOT_IMPORTABLE = {
    "repro._native._kernel",  # optional C extension, absent until built
}


def _resolves(dotted: str) -> bool:
    """Is ``dotted`` a module, or an attribute path inside one?"""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize(
    "document", [REPO_ROOT / "DESIGN.md", *DOCUMENTS], ids=lambda p: p.name
)
def test_code_references_resolve(document):
    references = set(_CODE_REF.findall(document.read_text())) - _NOT_IMPORTABLE
    dangling = sorted(ref for ref in references if not _resolves(ref))
    assert not dangling, f"dangling references in {document.name}: {dangling}"


def test_readme_links_the_guides():
    readme = (REPO_ROOT / "README.md").read_text()
    for guide in (
        "docs/serving.md",
        "docs/benchmarks.md",
        "docs/paper_mapping.md",
        "docs/persistence.md",
        "docs/verification.md",
        "docs/README.md",
    ):
        assert guide in readme, f"README does not link {guide}"
