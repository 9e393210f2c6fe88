"""Byte identity of the CLI corpus: every file keeps its pinned digest."""
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py"


def load_tool():
    """tools/cli_corpus.py as a module, leaving sys.path as it was."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("cli_corpus", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_cli_corpus_keeps_its_pinned_digests(tmp_path):
    corpus = load_tool()
    pinned = json.loads(corpus.DIGESTS.read_text())
    # numpy's FFT, transcendental functions and sums may round otherwise in another version
    assert pinned["numpy"] == np.__version__, (
        f"{corpus.DIGESTS.name} was pinned with numpy {pinned['numpy']}, this is numpy"
        f" {np.__version__}: pin it again with `python3 tools/cli_corpus.py --pin` at a"
        " commit whose outputs are trusted")
    corpus.write(tmp_path)
    got, want = corpus.digests(tmp_path), pinned["entries"]
    moved = [f"{entry}/{name}"
             for entry in sorted(got.keys() | want.keys())
             for name in sorted(got.get(entry, {}).keys() | want.get(entry, {}).keys())
             if got.get(entry, {}).get(name) != want.get(entry, {}).get(name)]
    assert not moved, (f"{len(moved)} corpus files differ from {corpus.DIGESTS.name}:\n"
                       + "\n".join(moved))
