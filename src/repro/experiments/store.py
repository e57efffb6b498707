"""Append-only JSONL result store, campaign journal, and CSV export.

Every campaign run appends one record per job (cached or freshly
simulated), so the store is the durable, replayable log a ``repro
report`` reads — reporting never re-simulates.  Records are plain
dicts (see runner.py for the schema); :meth:`ResultStore.latest_by_job`
deduplicates re-runs of the same point, keeping the newest record.

:class:`CampaignJournal` is the crash-safety half: an append-only,
fsynced event log the runner writes *as jobs complete* (not at
campaign end), so a crash, kill, or Ctrl-C mid-sweep loses at most the
in-flight jobs.  ``repro sweep --resume`` replays the journal to skip
every journaled-complete job; :meth:`CampaignJournal.recover`
truncates a torn tail (an append cut mid-line by the crash) via an
atomic temp-then-rename rewrite before the entries are read back.
"""

from __future__ import annotations

import csv
import json
import os
import pathlib
from typing import Any, Iterator

from repro.ioutil import atomic_open, atomic_write_bytes

__all__ = ["CampaignJournal", "ResultStore"]

# Scalar result fields promoted into CSV columns, in column order.
# The union over job kinds: model/batch rows leave the synthetic-only
# columns empty and vice versa.
_CSV_RESULT_FIELDS = (
    "total_bit_transitions",
    "total_cycles",
    "flit_hops",
    "tasks_verified",
    "tasks_total",
    "mean_packet_latency",
    "ordering_latency_cycles",
    "n_images",
    "packets_delivered",
    "recorded_bit_transitions",
    "cores_agree",
    "steps_executed",
    "idle_cycles_skipped",
)
_CSV_CONFIG_FIELDS = (
    "width",
    "height",
    "n_mcs",
    "data_format",
    "ordering",
    "max_tasks_per_layer",
    "pattern",
    "payload",
    "n_packets",
    "flits_per_packet",
    "injection_window",
    "hotspot_node",
    "link_width",
    "core",
    "trace",
    "coding",
    "seed",
)


def _flat_config(config: dict[str, Any]) -> dict[str, Any]:
    """Flatten a kind's config dict for column lookup.

    Accelerator configs are already flat; synthetic configs nest
    ``traffic`` and ``noc`` sections (whose field names are disjoint),
    so both merge into one namespace.
    """
    flat = dict(config)
    for section in ("noc", "traffic"):
        nested = flat.pop(section, None)
        if isinstance(nested, dict):
            flat.update(nested)
    return flat


class ResultStore:
    """One campaign's JSONL log of job records.

    Attributes:
        path: the JSONL file.
        corrupt_skipped: unparseable lines skipped by the last read
            (a torn append must not take the whole campaign log down).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self.corrupt_skipped = 0

    def append(self, record: dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def extend(self, records: list[dict[str, Any]]) -> None:
        for record in records:
            self.append(record)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        if not self.path.is_file():
            return
        self.corrupt_skipped = 0
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    self.corrupt_skipped += 1
                    continue
                if isinstance(record, dict):
                    yield record
                else:
                    self.corrupt_skipped += 1

    def load(self) -> list[dict[str, Any]]:
        return list(self)

    def latest_by_job(self) -> dict[str, dict[str, Any]]:
        """Newest record per job_id (append order = recency)."""
        latest: dict[str, dict[str, Any]] = {}
        for record in self:
            latest[record["job_id"]] = record
        return latest

    def to_csv(self, path: str | os.PathLike) -> int:
        """Flatten successful records into a CSV; returns row count.

        One row per job (latest record wins) with the campaign/job
        identity, the headline config fields, and the scalar results.
        """
        rows = []
        for record in self.latest_by_job().values():
            if record.get("status") != "ok":
                continue
            config = _flat_config(record.get("config", {}))
            result = record.get("result", {})
            row: dict[str, Any] = {
                "job_id": record["job_id"],
                "campaign": record.get("campaign", ""),
                "kind": record.get("kind", "model"),
                "model": record.get("model", ""),
                "cached": record.get("cached", False),
            }
            for name in _CSV_CONFIG_FIELDS:
                row[name] = config.get(name)
            for name in _CSV_RESULT_FIELDS:
                row[name] = result.get(name)
            rows.append(row)
        fieldnames = (
            ["job_id", "campaign", "kind", "model", "cached"]
            + list(_CSV_CONFIG_FIELDS)
            + list(_CSV_RESULT_FIELDS)
        )
        # Atomic temp-then-rename: an interrupted export never leaves a
        # torn CSV where a previous complete export used to be.
        with atomic_open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        return len(rows)


class CampaignJournal:
    """Append-only, crash-safe event log of one campaign's progress.

    Events are JSONL objects with an ``"event"`` key:

    * ``start`` — campaign id, name, the expanded spec dict, and the
      store path, written once when the journal is created.  Resume
      rebuilds the whole sweep from this entry alone.
    * ``job`` — one completed (status ``ok``) record, appended with
      the rest of its unit's the moment the unit settles.
      ``completed()`` is the resume set.
    * ``resume`` / ``checkpoint`` / ``end`` — lifecycle markers;
      ``checkpoint`` (written on SIGINT) and ``end`` carry the
      structured failure report and done/remaining counts.

    Appends flush and fsync, so a journaled job survives any crash of
    the parent.  A crash *during* an append leaves a torn tail — an
    unterminated partial line — which :meth:`recover` truncates off via
    an atomic temp-then-rename rewrite; every reader calls it first.

    Attributes:
        path: the journal file.
        torn_bytes_dropped: tail bytes removed by the last
            :meth:`recover`.
        corrupt_skipped: interior lines the last read skipped.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self.torn_bytes_dropped = 0
        self.corrupt_skipped = 0

    def exists(self) -> bool:
        return self.path.is_file() and self.path.stat().st_size > 0

    def append(self, *entries: dict[str, Any]) -> None:
        """Append entries, one line each, in one write and one fsync."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(
                "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries)
            )
            fh.flush()
            os.fsync(fh.fileno())

    def recover(self) -> int:
        """Drop a torn (unterminated) tail; returns bytes removed.

        The rewrite goes through a temp file and one atomic rename, so
        a second crash during recovery can't lose intact entries.
        """
        self.torn_bytes_dropped = 0
        if not self.path.is_file():
            return 0
        raw = self.path.read_bytes()
        if not raw or raw.endswith(b"\n"):
            return 0
        cut = raw.rfind(b"\n") + 1  # 0 when no newline at all
        self.torn_bytes_dropped = len(raw) - cut
        atomic_write_bytes(self.path, raw[:cut])
        return self.torn_bytes_dropped

    def entries(self) -> list[dict[str, Any]]:
        """Parsed journal entries; torn tail and bad lines skipped."""
        self.corrupt_skipped = 0
        if not self.path.is_file():
            return []
        out: list[dict[str, Any]] = []
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        torn = lines.pop() if lines and lines[-1] else None
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                self.corrupt_skipped += 1
                continue
            if isinstance(entry, dict):
                out.append(entry)
            else:
                self.corrupt_skipped += 1
        if torn is not None:
            # Tolerate a torn tail on read too (recover() removes it
            # on disk); a *parseable* unterminated line is kept — the
            # crash happened between write and the trailing newline.
            try:
                entry = json.loads(torn)
                if isinstance(entry, dict):
                    out.append(entry)
            except ValueError:
                pass
        return out

    def start(
        self,
        campaign_id: str,
        name: str,
        spec: dict[str, Any] | None,
        store_path: str | None = None,
    ) -> None:
        self.append(
            {
                "event": "start",
                "campaign_id": campaign_id,
                "campaign": name,
                "spec": spec,
                "store": store_path,
            }
        )

    def start_entry(self) -> dict[str, Any] | None:
        """The ``start`` event, or None for an empty/foreign file."""
        for entry in self.entries():
            if entry.get("event") == "start":
                return entry
        return None

    def record_job(self, records: list[dict[str, Any]]) -> None:
        """Journal completed jobs' records in one durable write."""
        self.append(*({"event": "job", "record": r} for r in records))

    def completed(self) -> dict[str, dict[str, Any]]:
        """job_id -> record for every journaled-complete (ok) job."""
        done: dict[str, dict[str, Any]] = {}
        for entry in self.entries():
            if entry.get("event") != "job":
                continue
            record = entry.get("record")
            if (
                isinstance(record, dict)
                and record.get("status") == "ok"
                and record.get("job_id")
            ):
                done[record["job_id"]] = record
        return done
