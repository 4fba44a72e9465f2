"""Content-addressed on-disk cache for compilation artifacts.

The paper's central engineering claim (sections 2 and 7.4) is that the
two compiler phases communicate *only* through summary files and the
program database, so nothing forces whole-program recompilation:

* phase 1 depends on one module's source text and the optimization
  level — nothing else;
* phase 2 depends on that module's phase-1 output plus the directive
  sets the database answers for the procedures the module defines or
  directly calls — and on nothing else in the database.

This module turns those two dependency statements into cache keys.  A
phase-1 artifact is stored under ``sha256(module name, opt level,
source text)``; a phase-2 object module under ``sha256(phase-1 key,
opt level, per-module directive digest)`` where the digest comes from
:meth:`repro.analyzer.database.ProgramDatabase.directive_digest`.
Editing one module therefore invalidates exactly that module's phase-1
entry, and changing :class:`~repro.analyzer.options.AnalyzerOptions`
invalidates only the phase-2 entries of modules whose directives
actually changed — the paper's recompilation story, made mechanical.

Entries are pickles framed by a magic string and a payload checksum;
a truncated, corrupted, or version-skewed entry is treated as a miss
(and deleted), never trusted.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import Counter
from dataclasses import dataclass, field

#: Bump whenever the artifact format or the meaning of a key changes;
#: old entries then read as misses instead of poisoning new runs.
#: v2: LDW/STW grew the ``save_restore`` slot (pickled artifacts).
SCHEMA_VERSION = 2

_MAGIC = b"repro-cache-v%d\n" % SCHEMA_VERSION


def text_digest(text: str) -> str:
    """Hex digest of a source text (the content-address primitive)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def phase2_key(phase1_fingerprint: str, directive_digest: str,
               opt_level: int, allocator: str = "paper") -> str:
    """Cache key for one module's phase-2 object module.

    ``allocator`` is the resolved allocation-strategy name
    (:mod:`repro.backend.allocators`): strategies produce different
    object code from identical inputs, so they must never share cache
    entries.
    """
    token = "|".join(
        ("phase2", str(SCHEMA_VERSION), phase1_fingerprint,
         directive_digest, str(opt_level), allocator)
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Per-stage hit/miss/corruption/eviction counters."""

    hits: Counter = field(default_factory=Counter)
    misses: Counter = field(default_factory=Counter)
    bad_entries: Counter = field(default_factory=Counter)
    evictions: Counter = field(default_factory=Counter)

    def snapshot(self) -> dict:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "bad_entries": dict(self.bad_entries),
            "evictions": dict(self.evictions),
        }

    def clear(self) -> None:
        self.hits.clear()
        self.misses.clear()
        self.bad_entries.clear()
        self.evictions.clear()


class ArtifactCache:
    """A directory of checksummed, atomically-written pickle entries.

    ``load``/``store`` take a *stage* label ("phase1" / "phase2") used
    only for the statistics counters; the key alone addresses the entry.

    ``max_bytes`` caps the cache's on-disk size: every store evicts the
    least-recently-*accessed* entries (hits refresh an entry's mtime)
    until the total fits.  The entry just written is never the eviction
    victim, so a single oversized artifact degrades to a one-entry
    cache instead of thrashing.  ``None`` reads the cap from the
    ``REPRO_CACHE_MAX_BYTES`` environment variable; zero or an absent
    variable means unbounded (the historical behavior).
    """

    def __init__(self, root: str, max_bytes: int | None = None):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        if max_bytes is None:
            raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
            max_bytes = int(raw) if raw else 0
        self.max_bytes = max_bytes if max_bytes > 0 else None
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def load(self, stage: str, key: str):
        """Return the cached object or ``None`` on any kind of miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.stats.misses[stage] += 1
            return None
        payload = self._verify(blob)
        if payload is None:
            # Corrupt, truncated, or written by another schema version:
            # drop it so the recomputed artifact replaces it.
            self.stats.bad_entries[stage] += 1
            self.stats.misses[stage] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        try:
            artifact = pickle.loads(payload)
        except Exception:
            self.stats.bad_entries[stage] += 1
            self.stats.misses[stage] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.stats.hits[stage] += 1
        try:
            # Refresh the access time so the LRU eviction in store()
            # keeps hot entries (mtime doubles as last-access time:
            # atime is unreliable under relatime mounts).
            os.utime(path)
        except OSError:
            pass
        return artifact

    def store(self, stage: str, key: str, artifact) -> None:
        """Write an entry atomically (tempfile + rename)."""
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(digest)
                handle.write(b"\n")
                handle.write(payload)
            os.replace(temp_path, path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self._enforce_limit(stage, keep=path)

    @staticmethod
    def _verify(blob: bytes):
        """Return the payload bytes, or ``None`` if the entry is bad."""
        if not blob.startswith(_MAGIC):
            return None
        rest = blob[len(_MAGIC):]
        newline = rest.find(b"\n")
        if newline != 64:  # sha256 hex digest length
            return None
        digest, payload = rest[:newline], rest[newline + 1:]
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            return None
        return payload

    def _entries(self) -> list:
        """Every entry as ``(last_access, path, size)``."""
        entries = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                entries.append((status.st_mtime, path, status.st_size))
        return entries

    def total_bytes(self) -> int:
        """Current on-disk size of all entries."""
        return sum(size for _mtime, _path, size in self._entries())

    def _enforce_limit(self, stage: str, keep: str) -> None:
        """Evict least-recently-accessed entries until the cache fits,
        sparing ``keep`` (the entry the triggering store just wrote)."""
        entries = self._entries()
        total = sum(size for _mtime, _path, size in entries)
        if total <= self.max_bytes:
            return
        for _mtime, path, size in sorted(entries):
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.stats.evictions[stage] += 1

    def __len__(self) -> int:
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self.root):
            count += sum(1 for name in filenames if name.endswith(".pkl"))
        return count
