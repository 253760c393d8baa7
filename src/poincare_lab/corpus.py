"""Bundled example domains used by the test suite and the CLI.

Each entry is a ``.dom`` file in the package's ``corpus/`` directory;
``corpus_path`` resolves a short name to a real filesystem path and
``load_corpus`` parses it, once per name and process.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from .dsl import DomainSpec, parse_domain


def corpus_names() -> list:
    """Sorted short names of all bundled domains."""
    root = resources.files(__package__) / "corpus"
    return sorted(p.name[: -len(".dom")] for p in root.iterdir() if p.name.endswith(".dom"))


def corpus_path(name: str):
    """Filesystem path of a bundled domain by short name."""
    path = resources.files(__package__) / "corpus" / f"{name}.dom"
    if not path.is_file():
        raise FileNotFoundError(
            f"no bundled domain {name!r}; available: {', '.join(corpus_names())}"
        )
    return path


@cache
def load_corpus(name: str) -> DomainSpec:
    """Parse a bundled domain by short name, once per process: later calls
    return the same object.  That is safe because a ``DomainSpec`` is
    immutable and the bundled files are read-only package data; a spec
    file given by path (as the CLI's ``--spec`` takes) is not bundled and
    is read and parsed again on every use."""
    return parse_domain(corpus_path(name).read_text())
