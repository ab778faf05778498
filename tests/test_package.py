"""The package's public export list."""

import semiheat


def test_every_exported_name_resolves():
    missing = [n for n in semiheat.__all__ if not hasattr(semiheat, n)]
    assert missing == []
