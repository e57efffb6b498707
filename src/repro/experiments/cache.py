"""Content-addressed on-disk cache for campaign results.

A cache entry is keyed by the SHA-256 of the job's canonical identity
(:meth:`JobSpec.key_payload`) combined with a code-version tag hashed
from the simulation-relevant source modules.  Re-running a campaign
therefore only simulates points that are new *or* whose semantics may
have changed — editing the simulator invalidates every entry, editing
the report layer invalidates nothing.

Entries are JSON files under ``<root>/<key[:2]>/<key>.json``, written
atomically (temp file + rename) so a killed worker never leaves a
half-written entry behind.  Every entry is an envelope carrying the
SHA-256 of its canonical record body, verified on every read: a
corrupted entry — torn write, disk fault, bit flip inside otherwise
valid JSON — is quarantined (moved aside under ``<root>/quarantine/``
for inspection, never silently served) and the point re-simulates.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import time
from functools import lru_cache
from typing import Any

from repro.experiments.hashing import canonical_json
from repro.experiments.spec import JobSpec

__all__ = ["code_version_tag", "ResultCache"]

# Modules whose source participates in every cache key: a change to
# any of them changes what a simulation means, so cached results from
# older code must not be served.  The job-kind module is versioned
# because it owns the executors (workload construction, batch fan-out,
# synthetic drivers); the report layer deliberately is not.
_VERSIONED_MODULES = (
    "repro.accelerator.config",
    "repro.accelerator.flitize",
    "repro.accelerator.mapping",
    "repro.accelerator.orderer",
    "repro.accelerator.simulator",
    "repro.accelerator.tasks",
    "repro.bits.formats",
    "repro.bits.transitions",
    "repro.dnn.models",
    "repro.experiments.kinds",
    "repro.noc.network",
    "repro.noc.recorder",
    "repro.noc.router",
    "repro.noc.traffic",
    "repro.ordering.strategies",
    "repro.workloads.traces",
)


@lru_cache(maxsize=1)
def code_version_tag() -> str:
    """Short hash over the simulation-relevant source files."""
    import importlib

    digest = hashlib.sha256()
    for name in _VERSIONED_MODULES:
        module = importlib.import_module(name)
        source = pathlib.Path(module.__file__).read_bytes()
        digest.update(name.encode())
        digest.update(source)
    return digest.hexdigest()[:12]


class ResultCache:
    """Content-addressed store of finished job records.

    Attributes:
        root: cache directory (created lazily on first put).
        version_tag: code-version component of every key; defaults to
            :func:`code_version_tag`.  Tests override it to model a
            code change without editing source files.
        corrupt_dropped: entries quarantined as corrupt on read.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        version_tag: str | None = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.version_tag = (
            code_version_tag() if version_tag is None else version_tag
        )
        self.corrupt_dropped = 0

    # -- keys ------------------------------------------------------------

    def key_for(self, job: JobSpec) -> str:
        """The content address of a job under the current code version."""
        identity = {"code": self.version_tag, "job": job.key_payload()}
        return hashlib.sha256(canonical_json(identity).encode()).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # -- access ----------------------------------------------------------

    @staticmethod
    def _record_digest(record: dict[str, Any]) -> str:
        return hashlib.sha256(canonical_json(record).encode()).hexdigest()

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry aside (never served, kept for autopsy).

        The ``.corrupt`` suffix keeps quarantined files out of the
        ``*/*.json`` globs ``__len__``/``clear`` walk.
        """
        self.corrupt_dropped += 1
        target = self.root / "quarantine" / (path.name + ".corrupt")
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            path.unlink(missing_ok=True)

    def _verified(self, raw: bytes) -> dict[str, Any] | None:
        """The record inside an entry's bytes, or None when they are
        not a digest envelope whose ``sha256`` matches its record."""
        try:
            # json.loads on bytes: invalid UTF-8 raises a ValueError
            # subclass too, so binary garbage is rejected as well.
            doc = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(doc, dict):
            return None
        record = doc.get("record")
        if not isinstance(record, dict) or self._record_digest(
            record
        ) != doc.get("sha256"):
            return None
        return record

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached record, or None on miss / corrupted entry.

        Verify-on-read: the envelope's digest is recomputed over the
        record body every time, so corruption that keeps the JSON
        parseable still quarantines instead of serving wrong results.
        Anything that is not a verified envelope (truncated write,
        disk fault, manual edit) is quarantined, so the point
        re-simulates cleanly.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        record = self._verified(raw)
        if record is None:
            self._quarantine(path)
        return record

    def get_job(self, job: JobSpec) -> dict[str, Any] | None:
        return self.get(self.key_for(job))

    # -- cross-process claims --------------------------------------------

    def _claim_path(self, key: str) -> pathlib.Path:
        return self.root / "claims" / f"{key}.claim"

    def claim(self, key: str, stale_seconds: float = 600.0) -> bool:
        """Atomically claim ``key`` for computation; False if held.

        The claim is an ``O_CREAT | O_EXCL`` file — the one filesystem
        primitive that is atomic across processes (and NFS-safe enough
        for a shared cache root) — holding the claimant's pid.  Claims
        are advisory dedup, not locks: a worker that cannot claim may
        still compute (the entry ``put`` stays atomic either way), it
        just wastes work.  A claim older than ``stale_seconds`` is
        presumed orphaned by a dead claimant and stolen.
        """
        path = self._claim_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                # Raced with a release: the claim is gone, try again.
                return self.claim(key, stale_seconds)
            if age < stale_seconds:
                return False
            # Stale claim: steal it.  os.replace keeps the steal
            # atomic — two stealers race to rename, one wins.
            tmp = path.with_name(path.name + f".steal.{os.getpid()}")
            try:
                tmp.write_text(str(os.getpid()))
                os.replace(tmp, path)
            except OSError:
                return False
            return True
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return True

    def release_claim(self, key: str) -> None:
        """Drop a claim (done or failed); missing claims are fine."""
        self._claim_path(key).unlink(missing_ok=True)

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Atomically persist a record (digest envelope) under its key.

        The temp name carries pid *and* thread id: the sweep server's
        connection handlers put entries concurrently from one process,
        where a pid-only suffix would make two writers share (and
        steal) the same temp file.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"sha256": self._record_digest(record), "record": record}
        tmp = path.with_name(
            path.name
            + f".tmp.{os.getpid()}.{threading.get_ident()}"
        )
        tmp.write_text(json.dumps(doc, sort_keys=True))
        tmp.replace(path)

    def put_job(self, job: JobSpec, record: dict[str, Any]) -> None:
        self.put(self.key_for(job), record)

    def contains(self, job: JobSpec) -> bool:
        return self._path(self.key_for(job)).is_file()

    # -- integrity sweep -------------------------------------------------

    def verify(self, quarantine: bool = True) -> dict[str, Any]:
        """Re-check every entry's digest envelope; returns a report.

        The operational sweep behind ``repro cache verify`` — with the
        cache root shared between workers, disk faults or torn copies
        must surface before they cost a campaign wrong results.  The
        report maps ``checked`` / ``ok`` counts plus the relative
        paths found ``corrupt`` (quarantined in place unless
        ``quarantine=False``) and everything already ``quarantined``.
        """
        report: dict[str, Any] = {
            "root": str(self.root),
            "checked": 0,
            "ok": 0,
            "corrupt": [],
        }
        for path in sorted(self.root.glob("*/*.json")):
            report["checked"] += 1
            try:
                ok = self._verified(path.read_bytes()) is not None
            except OSError:
                ok = False
            if ok:
                report["ok"] += 1
                continue
            report["corrupt"].append(str(path.relative_to(self.root)))
            if quarantine:
                self._quarantine(path)
        report["quarantined"] = self.quarantined()
        return report

    def quarantined(self) -> list[str]:
        """Names of entries previously moved aside as corrupt."""
        quarantine = self.root / "quarantine"
        if not quarantine.is_dir():
            return []
        return sorted(p.name for p in quarantine.glob("*.corrupt"))

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
