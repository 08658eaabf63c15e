"""Store corruption for the quarantine tests (see :mod:`.faults`)."""

from repro.testing.faults import corrupt_array_file

__all__ = ["corrupt_array_file"]
