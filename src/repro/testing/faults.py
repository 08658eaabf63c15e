"""Store corruption for the quarantine tests.

:func:`corrupt_array_file` truncates a published ``.npy`` in place: the
artifact's directory still validates by fingerprint, but its array no longer
loads, which the store must count, quarantine and rebuild.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union


def corrupt_array_file(path: Union[str, Path]) -> None:
    """Truncate a published ``.npy`` (or any file) to half its bytes, in place.

    The store-corruption scenario: the artifact's directory still validates
    by fingerprint, but loading the array fails (or yields a wrong shape),
    which the store must count, quarantine and degrade to a rebuild.
    """
    target = Path(path)
    data = target.read_bytes()
    target.write_bytes(data[: max(1, len(data) // 2)])
