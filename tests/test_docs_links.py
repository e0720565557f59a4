"""Documentation hygiene: every relative link and referenced path in
README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md must point at
something that exists.

Three kinds of references are checked:

* markdown links ``[text](target)`` whose target is not an absolute URL
  or in-page fragment — resolved against the linking file's directory
  and the repo root;
* backtick path references like ``src/repro/obs/core.py`` or
  ``docs/observability.md`` — inline code that *looks like* a repo path
  (contains a ``/`` and a known extension, or starts with a known
  top-level directory) must exist, so renamed modules can't leave the
  docs silently pointing at nothing;
* backtick test pointers like ``tests/test_x.py::test_name`` — the file
  must exist and define every ``::``-separated name (a ``[param]``
  suffix is ignored), so a renamed or deleted test cannot leave a
  citation behind.

Plus the reverse direction — CLI-flag drift: every ``repro``
subcommand and every long option it exposes must be mentioned somewhere
in the README or docs/ corpus, so a new flag cannot ship undocumented
(fenced code counts: flags are usually shown in example invocations).
"""

import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
CODE_REF = re.compile(r"`([A-Za-z0-9_./-]+)((?:::[A-Za-z0-9_.\[\]-]+)*)`")
PATH_EXTENSIONS = (".py", ".md", ".txt", ".json", ".toml", ".cfg", ".ini")
TOP_DIRS = ("src/", "docs/", "tests/", "examples/")


def _markdown_files():
    """README + docs/*.md: the user-facing corpus CLI flags must reach."""
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                files.append(os.path.join(docs, name))
    return files


def _checked_files():
    """Every document whose references must resolve."""
    extra = ("DESIGN.md", "EXPERIMENTS.md")
    return _markdown_files() + [os.path.join(REPO_ROOT, n) for n in extra]


def _strip_fenced_code(text):
    """Fenced blocks hold example output, not navigable references."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def _resolve(target, base_dir):
    """The existing file or directory *target* names, or None."""
    candidates = [
        os.path.normpath(os.path.join(base_dir, target)),
        os.path.normpath(os.path.join(REPO_ROOT, target)),
        # Module paths are conventionally given relative to the package.
        os.path.normpath(os.path.join(REPO_ROOT, "src", "repro", target)),
    ]
    return next((c for c in candidates if os.path.exists(c)), None)


def _defines(path, name):
    """Whether the Python file at *path* defines function/class *name*."""
    name = re.escape(name.split("[", 1)[0])
    pattern = re.compile(
        r"^\s*(?:async\s+)?(?:def|class)\s+%s\b" % name, re.MULTILINE
    )
    with open(path) as handle:
        return pattern.search(handle.read()) is not None


@pytest.mark.parametrize(
    "path", _checked_files(), ids=lambda p: os.path.relpath(p, REPO_ROOT)
)
def test_relative_links_resolve(path):
    text = open(path).read()
    base_dir = os.path.dirname(path)
    broken = []
    for match in LINK.finditer(_strip_fenced_code(text)):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        if _resolve(target, base_dir) is None:
            broken.append(target)
    assert not broken, "%s: broken links %s" % (
        os.path.relpath(path, REPO_ROOT), broken
    )


@pytest.mark.parametrize(
    "path", _checked_files(), ids=lambda p: os.path.relpath(p, REPO_ROOT)
)
def test_referenced_paths_exist(path):
    text = _strip_fenced_code(open(path).read())
    base_dir = os.path.dirname(path)
    missing = []
    for match in CODE_REF.finditer(text):
        ref, names = match.group(1), match.group(2)
        looks_like_path = ref.startswith(TOP_DIRS) or (
            "/" in ref and ref.endswith(PATH_EXTENSIONS)
        )
        if not looks_like_path:
            continue
        resolved = _resolve(ref, base_dir)
        if resolved is None:
            missing.append(ref)
        elif names and not all(
            _defines(resolved, name) for name in names.split("::")[1:]
        ):
            missing.append(ref + names)
    assert not missing, "%s: referenced paths missing %s" % (
        os.path.relpath(path, REPO_ROOT), missing
    )


# ---------------------------------------------------------------------
# CLI-flag drift guard
# ---------------------------------------------------------------------
def _docs_corpus():
    """README + docs text, fenced code included (example invocations are
    exactly where flags get documented)."""
    return "\n".join(open(path).read() for path in _markdown_files())


def test_every_subcommand_is_documented():
    from repro.__main__ import build_parser

    corpus = _docs_corpus()
    subparsers = build_parser()._subparsers._group_actions[0].choices
    undocumented = [name for name in subparsers if name not in corpus]
    assert not undocumented, (
        "subcommands missing from README/docs: %s" % undocumented
    )


def test_every_cli_flag_is_documented():
    from repro.__main__ import build_parser

    corpus = _docs_corpus()
    subparsers = build_parser()._subparsers._group_actions[0].choices
    undocumented = set()
    for name, sub in subparsers.items():
        for action in sub._actions:
            for option in action.option_strings:
                if not option.startswith("--") or option == "--help":
                    continue
                if option not in corpus:
                    undocumented.add("%s %s" % (name, option))
    assert not undocumented, (
        "flags missing from README/docs: %s" % sorted(undocumented)
    )

