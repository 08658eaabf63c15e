"""The persistent artifact store: memmapped embedding segments.

The expensive artifact a later request can reuse is the value embedding.
The :class:`ArtifactStore` externalises embedding matrices to a directory,
keyed by the fingerprint scheme of :mod:`repro.storage.fingerprint`, so that
a restarted :class:`~repro.core.engine.IntegrationEngine` (or a second
engine, or a sibling ``repro serve`` process) attaches to warm vectors
instead of re-embedding them.  It holds one artifact kind; anything else
under the root (such as the ``ann/`` and ``ivf/`` index directories older
versions published) is never read.

Layout (``docs/storage.md`` documents it in full)::

    <root>/
      .tmp/                                  # in-flight publications
      embeddings/<embedder_fp>/<corpus_fp>/
        meta.json                            # version + fingerprints + shape
        keys.json                            # row i of the matrix embeds keys[i]
        matrix.npy                           # loaded with np.load(mmap_mode="r")

Three properties the callers rely on:

* **Atomic publication.**  Every segment is written into a fresh directory
  under ``.tmp/`` and published with one ``rename`` — readers never observe
  a partially written segment, and two writers racing to publish the same
  fingerprint resolve to one winner (the loser discards its copy; the
  content is identical by construction, so it does not matter which).
* **Validated reads.**  A load checks the format version, both fingerprints
  and the matrix shape against ``meta.json``; any mismatch, missing file or
  unreadable array is treated as a miss (counted in :meth:`statistics`),
  never an error — a corrupt or stale segment degrades to a re-embed.
* **Memmap returns.**  Loaded matrices are ``numpy`` memmaps: attaching a
  10M-row embedding matrix costs a page table, not a copy, and every process
  attaching the same file shares the page cache.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

#: On-disk format version; bumped on incompatible layout changes.  A reader
#: treats any other version as a miss, so old stores degrade to cold starts
#: instead of undefined behaviour.
FORMAT_VERSION = 1

#: Store modes accepted by the configuration layer.  ``"off"`` means no store
#: is constructed at all; :class:`ArtifactStore` itself only exists in
#: ``"read"`` (attach, never publish) or ``"readwrite"`` mode.
STORE_MODES = ("off", "read", "readwrite")


class ArtifactStore:
    """A directory of fingerprint-keyed, atomically published artifacts.

    Parameters
    ----------
    root:
        The store directory.  Created (with parents) in ``"readwrite"``
        mode; in ``"read"`` mode a missing directory is simply an empty
        store.
    mode:
        ``"readwrite"`` (attach and publish) or ``"read"`` (attach only —
        every ``save_*`` call is a validated no-op returning ``False``).
    """

    def __init__(self, root: Union[str, Path], mode: str = "readwrite") -> None:
        if mode not in ("read", "readwrite"):
            raise ValueError(
                f"mode must be 'read' or 'readwrite', got {mode!r} "
                "(mode 'off' means: do not construct a store)"
            )
        self.root = Path(root)
        self.mode = mode
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "segment_loads": 0,
            "segment_saves": 0,
            "corrupt_entries": 0,
            "corrupt_segments": 0,
            "rejected_entries": 0,
            "duplicate_publishes": 0,
        }
        if mode == "readwrite":
            (self.root / ".tmp").mkdir(parents=True, exist_ok=True)

    # -- introspection ---------------------------------------------------------------
    @property
    def can_write(self) -> bool:
        """Whether this store may publish segments."""
        return self.mode == "readwrite"

    def statistics(self) -> Dict[str, int]:
        """Snapshot of the load/save/corruption counters."""
        with self._lock:
            return dict(self._counters)

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r}, mode={self.mode!r})"

    # -- embedding segments ----------------------------------------------------------
    def _embeddings_dir(self, embedder_fp: str) -> Path:
        return self.root / "embeddings" / embedder_fp

    def list_embedding_segments(self, embedder_fp: str) -> List[str]:
        """Corpus fingerprints of every published segment for one embedder."""
        directory = self._embeddings_dir(embedder_fp)
        if not directory.is_dir():
            return []
        return sorted(
            entry.name for entry in directory.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
        )

    def embedding_segment_stamp(
        self, embedder_fp: str, corpus_fp: str
    ) -> Optional[Tuple[int, int]]:
        """Identity of one segment directory: ``(inode, mtime_ns)``, ``None`` if absent.

        Publication renames a freshly written directory into place, so the
        stamp changes exactly when a republish replaces the segment behind
        a fingerprint (after the old one was quarantined).
        """
        try:
            status = (self._embeddings_dir(embedder_fp) / corpus_fp).stat()
        except OSError:
            return None
        return status.st_ino, status.st_mtime_ns

    def load_embedding_segment(
        self, embedder_fp: str, corpus_fp: str, dimension: int
    ) -> Optional[Tuple[List[str], np.ndarray]]:
        """Attach one segment: ``(keys, matrix)`` with the matrix memmapped.

        Row ``i`` of the matrix is the embedding of ``keys[i]``.  Returns
        ``None`` — never raises — when the segment is absent, written for
        different fingerprints, from another format version, of another
        width than ``dimension``, or corrupt.
        """
        directory = self._embeddings_dir(embedder_fp) / corpus_fp
        meta = self._read_meta(directory)
        if meta is None:
            return None
        if not self._meta_matches(
            meta,
            kind="embeddings",
            embedder=embedder_fp,
            corpus=corpus_fp,
            dimension=int(dimension),
        ):
            return None
        try:
            keys_raw = json.loads((directory / "keys.json").read_text(encoding="utf-8"))
            matrix = np.load(directory / "matrix.npy", mmap_mode="r")
        except Exception:
            self._corrupt(directory)
            return None
        if (
            not isinstance(keys_raw, list)
            or matrix.ndim != 2
            or matrix.shape[0] != len(keys_raw)
            or matrix.shape != (meta.get("rows"), meta.get("dimension"))
        ):
            self._corrupt(directory)
            return None
        self._bump("segment_loads")
        return [str(key) for key in keys_raw], matrix

    def save_embedding_segment(
        self,
        embedder_fp: str,
        corpus_fp: str,
        keys: List[str],
        matrix: np.ndarray,
    ) -> bool:
        """Publish one segment atomically; ``False`` if it already exists.

        ``matrix`` must be ``(len(keys), dimension)``.  Publication is
        write-then-rename: a crash mid-write leaves only ``.tmp/`` garbage,
        and a concurrent publisher of the same fingerprint loses the rename
        race harmlessly (the artifacts are identical by construction).
        """
        matrix = np.ascontiguousarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != len(keys):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(keys)} keys"
            )
        meta = {
            "format_version": FORMAT_VERSION,
            "kind": "embeddings",
            "embedder": embedder_fp,
            "corpus": corpus_fp,
            "rows": int(matrix.shape[0]),
            "dimension": int(matrix.shape[1]),
            "dtype": str(matrix.dtype),
        }

        def write(tmp: Path) -> None:
            np.save(tmp / "matrix.npy", matrix)
            (tmp / "keys.json").write_text(
                json.dumps(list(keys), ensure_ascii=False), encoding="utf-8"
            )
            (tmp / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")

        published = self._publish(self._embeddings_dir(embedder_fp) / corpus_fp, write)
        if published:
            self._bump("segment_saves")
        return published

    # -- internals -------------------------------------------------------------------
    def _bump(self, key: str) -> None:
        with self._lock:
            self._counters[key] += 1

    def _corrupt(self, directory: Path) -> None:
        """Account one corrupt artifact and quarantine its directory."""
        self._bump("corrupt_entries")
        self._quarantine(directory)

    def _quarantine(self, directory: Path) -> None:
        """Move a corrupt artifact directory aside so it is never re-read.

        Without this, a corrupt entry degrades to a miss on *every* request —
        the validation cost (and the rebuild it forces) repeats forever, and
        a healing republish is impossible because the target path is
        occupied.  The directory is renamed into ``<root>/quarantine/`` (path
        components joined with ``-``, numeric suffix on collision) where an
        operator can inspect it; the vacated path lets the next publication
        replace the artifact with a good copy.  ``corrupt_segments`` counts
        the corruption regardless — a read-only store observes it but leaves
        the files in place (a writable store quarantines it on its next
        read).  Rename races lose silently: the artifact is gone either way.
        """
        self._bump("corrupt_segments")
        if not self.can_write or not directory.is_dir():
            return
        try:
            quarantine_root = self.root / "quarantine"
            quarantine_root.mkdir(parents=True, exist_ok=True)
            name = "-".join(directory.relative_to(self.root).parts)
            target = quarantine_root / name
            suffix = 0
            while target.exists():
                suffix += 1
                target = quarantine_root / f"{name}.{suffix}"
            directory.rename(target)
        except OSError:
            pass

    def _read_meta(self, directory: Path) -> Optional[Dict[str, object]]:
        """Parse ``meta.json``, or ``None`` (counting corruption) on failure."""
        path = directory / "meta.json"
        if not path.is_file():
            # Absence of the whole artifact is an ordinary miss; a directory
            # that exists without its meta is a partial write worth counting.
            if directory.is_dir():
                self._corrupt(directory)
            return None
        try:
            meta = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._corrupt(directory)
            return None
        if not isinstance(meta, dict):
            self._corrupt(directory)
            return None
        return meta

    def _meta_matches(self, meta: Dict[str, object], **expected: object) -> bool:
        """Whether the meta carries the expected version and fingerprints."""
        if meta.get("format_version") != FORMAT_VERSION:
            self._bump("rejected_entries")
            return False
        for key, value in expected.items():
            if meta.get(key) != value:
                self._bump("rejected_entries")
                return False
        return True

    def _publish(self, target: Path, write: Callable[[Path], None]) -> bool:
        """Write an artifact into ``.tmp`` and rename it into place."""
        if not self.can_write:
            return False
        if target.exists():
            self._bump("duplicate_publishes")
            return False
        tmp_root = self.root / ".tmp"
        tmp_root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            write(tmp)
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp.rename(target)
        except OSError:
            # Lost the publication race (or the filesystem failed): discard
            # our copy.  If the target now exists, someone published the
            # identical artifact — that is success from the caller's view.
            shutil.rmtree(tmp, ignore_errors=True)
            if target.exists():
                self._bump("duplicate_publishes")
            return False
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return True
