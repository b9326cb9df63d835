"""Bundled benchmark corpus and loaders.

Networks whose licensing permits redistribution ship inside the package;
the rest are looked up in the directory named by MODCERT_DATA_DIR, so users
can drop in files fetched per data/README.md. Missing networks are reported,
not fatal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

from .edgelist import parse_edge_list
from .graph import Network

ENV_DATA_DIR = "MODCERT_DATA_DIR"


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    directed: bool
    bundled: bool


CORPUS: dict[str, CorpusEntry] = {
    entry.name: entry
    for entry in [
        CorpusEntry("karate", False, True),
        CorpusEntry("knoki", True, True),
        CorpusEntry("knokm", True, True),
        CorpusEntry("dolphins", False, False),
        CorpusEntry("lesmis", False, False),
        CorpusEntry("polbooks", False, False),
        CorpusEntry("football", False, False),
    ]
}


class DatasetMissing(FileNotFoundError):
    pass


def _external_path(name: str) -> str | None:
    env = os.environ.get(ENV_DATA_DIR)
    if env:
        path = os.path.join(env, f"{name}.edges")
        if os.path.exists(path):
            return path
    return None


def load_network(name: str) -> Network:
    """Load a corpus network by name, bundled or from MODCERT_DATA_DIR."""
    if name not in CORPUS:
        raise ValueError(f"unknown corpus network: {name!r} (known: {sorted(CORPUS)})")
    entry = CORPUS[name]
    if entry.bundled:
        text = resources.files("modcert.data").joinpath(f"{name}.edges").read_text()
        return parse_edge_list(text, directed=entry.directed)
    path = _external_path(name)
    if path is None:
        raise DatasetMissing(
            f"{name!r} is not bundled (licensing/source constraints); place {name}.edges "
            f"in {ENV_DATA_DIR} (see data/README.md for sources)"
        )
    with open(path) as fh:
        return parse_edge_list(fh.read(), directed=entry.directed)
