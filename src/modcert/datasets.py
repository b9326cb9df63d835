"""Bundled benchmark corpus and loaders.

Networks whose licensing permits redistribution ship inside the package;
the rest are looked up in an external data directory (MODCERT_DATA_DIR or a
path passed explicitly) so users can drop in files fetched per
data/README.md. Missing networks are reported, not fatal.
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
    description: str


CORPUS: dict[str, CorpusEntry] = {
    entry.name: entry
    for entry in [
        CorpusEntry("karate", False, True, "Zachary karate club (34 nodes)"),
        CorpusEntry("knoki", True, True, "Knoke bureaucracies, information relation (10 nodes)"),
        CorpusEntry("knokm", True, True, "Knoke bureaucracies, money relation (10 nodes)"),
        CorpusEntry("dolphins", False, False, "Lusseau bottlenose dolphins (62 nodes)"),
        CorpusEntry("lesmis", False, False, "Les Miserables co-appearances, weighted (77 nodes)"),
        CorpusEntry("polbooks", False, False, "Political books co-purchases (105 nodes)"),
        CorpusEntry("football", False, False, "American college football (115 nodes)"),
    ]
}


class DatasetMissing(FileNotFoundError):
    pass


def _external_path(name: str, data_dir: str | None) -> str | None:
    candidates = []
    if data_dir:
        candidates.append(os.path.join(data_dir, f"{name}.edges"))
    env = os.environ.get(ENV_DATA_DIR)
    if env:
        candidates.append(os.path.join(env, f"{name}.edges"))
    for path in candidates:
        if os.path.exists(path):
            return path
    return None


def load_network(name: str, data_dir: str | None = None) -> Network:
    """Load a corpus network by name, bundled or from the external data dir."""
    if name not in CORPUS:
        raise ValueError(f"unknown corpus network: {name!r} (known: {sorted(CORPUS)})")
    entry = CORPUS[name]
    if entry.bundled:
        text = resources.files("modcert.data").joinpath(f"{name}.edges").read_text()
        return parse_edge_list(text, directed=entry.directed)
    path = _external_path(name, data_dir)
    if path is None:
        raise DatasetMissing(
            f"{name!r} is not bundled (licensing/source constraints); place {name}.edges "
            f"in {ENV_DATA_DIR} or the given data dir (see data/README.md for sources)"
        )
    with open(path) as fh:
        return parse_edge_list(fh.read(), directed=entry.directed)
