"""The package's public surface: what ``from treecount import *`` binds."""

from __future__ import annotations

import treecount


def test_all_names_exist_once():
    missing = [name for name in treecount.__all__ if not hasattr(treecount, name)]
    assert missing == []
    assert len(treecount.__all__) == len(set(treecount.__all__))
