"""Packet traffic traces: capture, persistence, replay, re-analysis.

NocDAS exposes a "packet traffic trace" output (Fig. 7); the equivalent
here is a per-link record of every wire image in traversal order, plus
the packet injection schedule that produced it.  Two capture hooks
exist:

* :class:`TraceCollector` (this module) — the lightweight wire-image
  collector: link payloads and cycles only, enough for offline BT
  re-scoring and the link-coding studies.
* :class:`repro.noc.recorder.TraceRecorder` — the full-fidelity hook:
  wire images with VC and owning packet per hop, plus every
  ``send_packet`` event, enough to *replay* the identical traffic
  through a fresh network (either cycle-loop core).

On-disk format
--------------

A trace file is a JSON envelope stamped with
:data:`TRACE_FORMAT_VERSION` (2), gzip-compressed by default.  Its
payload arrays are packed as fixed-width words (``ceil(link_width / 8)``
bytes each, ``byte_order`` recorded in the envelope) and
base64-encoded, and it carries per-hop VCs and packet ids, the packet
injection schedule, and the recorded
:class:`~repro.noc.network.NoCConfig`.  :meth:`TrafficTrace.load`
sniffs compression and rejects any other version (including the
retired plain-JSON version 1); truncated or corrupt files raise
:class:`ValueError` rather than leaking codec internals.

Offline, a trace supports exact BT recomputation (validated against the
live recorders), re-applying the paper's transmission ordering at flit
granularity (:meth:`TrafficTrace.reordered`), re-encoding with the
related-work link codings (bus invert / delta) without re-running the
simulator, and — for full-fidelity traces — cycle-accurate replay
through either network core (:func:`replay_through_network`).

Storage
-------

Per-link columns are numpy-backed: wire images live in uint64 arrays
and cycles / VCs / packet ids in int64 arrays, wrapped in
:class:`repro.bits.wordarray.WordArray` so the tuple-facing API
(indexing, iteration, ``==`` against plain tuples) is unchanged while
``_stream_bts``, :meth:`TrafficTrace.reordered`,
:func:`trace_slice` and the :mod:`repro.obs` analytics stack operate
on the arrays directly.  Wire images wider than 64 bits (synthetic
link widths, header-carrying captures) fall back per column to an
arbitrary-precision tuple backing and the scalar scoring loops.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import gzip
import hashlib
import json
import pathlib
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.bits.popcount import popcount_array
from repro.ioutil import atomic_write_bytes
from repro.bits.transitions import stream_transitions, stream_transitions_bytes
from repro.bits.wordarray import WordArray, as_int64_array
from repro.ordering.encodings import (
    bus_invert_encode,
    delta_encode,
    stream_transitions_with_invert_line,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.network import Network

__all__ = [
    "TRACE_FORMAT_VERSION",
    "REPLAY_ORDERINGS",
    "TraceCollector",
    "PacketEvent",
    "TrafficTrace",
    "replay_through_network",
    "replay_window",
    "reencode_transitions",
    "reencode_per_link",
    "trace_digest",
    "trace_slice",
]

#: The on-disk format version :meth:`TrafficTrace.save` writes and
#: :meth:`TrafficTrace.load` accepts.
TRACE_FORMAT_VERSION = 2
_BYTE_ORDERS = ("big", "little")
_GZIP_MAGIC = b"\x1f\x8b"

#: Orderings that can be re-applied to recorded traffic at replay time.
#: "popcount_desc" is the paper's descending '1'-count transmission
#: ordering applied at flit granularity within each packet.
REPLAY_ORDERINGS = ("none", "popcount_desc")


class TraceCollector:
    """Accumulates per-link wire images during a simulation.

    The lightweight hook: records what each link saw and when, which is
    all the offline re-scoring paths need.  For replayable captures use
    :class:`repro.noc.recorder.TraceRecorder` instead.
    """

    def __init__(self) -> None:
        self._links: dict[str, list[int]] = {}
        self._cycles: dict[str, list[int]] = {}

    def record(
        self,
        link_name: str,
        bits: int,
        cycle: int,
        vc: int = 0,
        flit: Any = None,
    ) -> None:
        """Network hook: one flit crossed ``link_name``.

        ``vc`` and ``flit`` are part of the network's hook protocol but
        deliberately ignored here; :class:`TraceRecorder` keeps them.
        """
        self._links.setdefault(link_name, []).append(bits)
        self._cycles.setdefault(link_name, []).append(cycle)

    def finish(self, link_width: int) -> "TrafficTrace":
        """Freeze the collected data into a trace.

        The raw per-link lists go straight into the trace, whose
        ``__post_init__`` packs each into its numpy column in one
        pass — no intermediate tuples.
        """
        return TrafficTrace(
            link_width=link_width,
            links=dict(self._links),
            cycles=dict(self._cycles),
        )


@dataclass(frozen=True)
class PacketEvent:
    """One recorded packet injection: the replayable traffic unit.

    Attributes:
        cycle: network cycle at which ``send_packet`` was called.
        src / dst: endpoints of the packet.
        payloads: per-flit payload ints, head first.
    """

    cycle: int
    src: int
    dst: int
    payloads: tuple[int, ...]


@dataclass(frozen=True)
class TrafficTrace:
    """Immutable per-link wire-image trace.

    Attributes:
        link_width: wire width in bits.
        links: link name -> wire images in traversal order.
        cycles: link name -> traversal cycles (same lengths).
        vcs: link name -> output VC per traversal (full captures only).
        packet_ids: link name -> owning packet per traversal (full
            captures only; -1 marks an unknown owner).
        packets: packet injection schedule in send order (full
            captures only) — what :func:`replay_through_network`
            re-injects.
        noc: the recorded NoC config dict, if captured.

    Construction normalises every per-link column into a
    :class:`~repro.bits.wordarray.WordArray` (uint64 for wire images,
    int64 for cycles / VCs / packet ids), so plain tuples, lists, or
    already-wrapped columns are all accepted and compare equal through
    the tuple-facing API.  Wire images beyond 64 bits keep an
    arbitrary-precision tuple backing per column.
    """

    link_width: int
    links: dict[str, "WordArray | tuple[int, ...]"]
    cycles: dict[str, "WordArray | tuple[int, ...]"] = field(
        default_factory=dict
    )
    vcs: dict[str, "WordArray | tuple[int, ...]"] = field(
        default_factory=dict
    )
    packet_ids: dict[str, "WordArray | tuple[int, ...]"] = field(
        default_factory=dict
    )
    packets: tuple[PacketEvent, ...] = ()
    noc: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        # Idempotent column normalisation (dataclasses.replace re-runs
        # this on mixed already-wrapped / freshly-built dicts).
        object.__setattr__(
            self,
            "links",
            {k: WordArray(v, np.uint64) for k, v in self.links.items()},
        )
        for name in ("cycles", "vcs", "packet_ids"):
            object.__setattr__(
                self,
                name,
                {
                    k: WordArray(v, np.int64)
                    for k, v in getattr(self, name).items()
                },
            )

    def total_transitions(self) -> int:
        """Exact BT recomputation (matches the live Fig. 8 recorders)."""
        return sum(
            _stream_bts(payloads, self.link_width)
            for payloads in self.links.values()
        )

    def total_flit_traversals(self) -> int:
        return sum(len(p) for p in self.links.values())

    def per_link_transitions(self) -> dict[str, int]:
        return {
            name: _stream_bts(payloads, self.link_width)
            for name, payloads in self.links.items()
        }

    @property
    def is_replayable(self) -> bool:
        """True when the trace carries a packet schedule + NoC config."""
        return bool(self.packets) and self.noc is not None

    # -- offline re-ordering ---------------------------------------------

    def reordered(self, ordering: str = "popcount_desc") -> "TrafficTrace":
        """Re-apply a transmission ordering to the recorded traffic.

        Within each packet's run of flits on a link, the wire images
        are re-sorted by descending '1' count — the paper's ordering
        idea applied at flit granularity to traffic that already
        crossed the links.  Cycles, VCs and packet ids keep their
        recorded positions (the *slots* are unchanged; the contents
        are permuted).  The packet injection schedule is dropped from
        the result: it describes the *original* payload order, so a
        reordered trace is an offline artifact, not replayable (use
        :func:`replay_through_network` with ``ordering=`` to re-run
        reordered traffic through a network instead).

        Requires per-hop packet ids (a :class:`TraceRecorder` capture);
        the lightweight collector's traces cannot be reordered because
        packet boundaries are unknown.
        """
        if ordering == "none":
            return self
        if ordering not in REPLAY_ORDERINGS:
            raise ValueError(
                f"unknown replay ordering {ordering!r}; "
                f"use one of {REPLAY_ORDERINGS}"
            )
        missing = set(self.links) - set(self.packet_ids)
        if missing:
            raise ValueError(
                "trace carries no per-hop packet ids for links "
                f"{sorted(missing)}; record with TraceRecorder to "
                "re-apply orderings"
            )
        new_links: dict[str, WordArray] = {}
        for name, payloads in self.links.items():
            pids = as_int64_array(self.packet_ids[name])
            n = len(payloads)
            if n < 2:
                new_links[name] = payloads
                continue
            # One vectorised pass per link: runs of equal packet ids
            # become a run index, and a stable lexsort by (run,
            # -popcount) reproduces the per-run descending '1'-count
            # sort with arrival-order tie-breaks.
            arr = getattr(payloads, "array", None)
            if arr is not None:
                counts = popcount_array(arr).astype(np.int64)
            else:
                counts = np.fromiter(
                    (p.bit_count() for p in payloads),
                    dtype=np.int64,
                    count=n,
                )
            runs = np.empty(n, dtype=np.int64)
            runs[0] = 0
            np.cumsum(pids[1:] != pids[:-1], out=runs[1:])
            order = np.lexsort((-counts, runs))
            new_links[name] = payloads.take(order)
        return dataclasses.replace(self, links=new_links, packets=())

    # -- persistence -----------------------------------------------------

    def save(
        self,
        path: str | pathlib.Path,
        *,
        compress: bool = True,
        byte_order: str = "big",
    ) -> None:
        """Write the trace to disk.

        Args:
            path: output file (convention: ``*.trace.gz`` for the
                compressed default, ``*.trace.json`` for plain).
            compress: gzip the envelope (default); plain JSON loads
                just the same.
            byte_order: "big" or "little" — word packing order of the
                payload arrays, recorded in the envelope so readers
                never guess.
        """
        if byte_order not in _BYTE_ORDERS:
            raise ValueError(
                f"unknown byte order {byte_order!r}; use one of "
                f"{_BYTE_ORDERS}"
            )
        # Wire images can exceed link_width (include_header_bits
        # folds a side-band header above the payload), so the word
        # size is computed from the widest recorded image and
        # written into the envelope — never guessed by readers.
        widest = self.link_width
        for payloads in self.links.values():
            arr = getattr(payloads, "array", None)
            if arr is not None:
                if arr.size:
                    top = int(arr.max()).bit_length()
                    if top > widest:
                        widest = top
                continue
            for p in payloads:
                if p.bit_length() > widest:
                    widest = p.bit_length()
        for event in self.packets:
            for p in event.payloads:
                if p.bit_length() > widest:
                    widest = p.bit_length()
        word_bytes = _word_bytes(widest)
        doc = {
            "version": TRACE_FORMAT_VERSION,
            "link_width": self.link_width,
            "byte_order": byte_order,
            "word_bytes": word_bytes,
            "links": {
                name: _pack_words(payloads, word_bytes, byte_order)
                for name, payloads in self.links.items()
            },
            "cycles": {
                name: list(cycles)
                for name, cycles in self.cycles.items()
            },
            "vcs": {
                name: list(vcs) for name, vcs in self.vcs.items()
            },
            "packet_ids": {
                name: list(pids)
                for name, pids in self.packet_ids.items()
            },
            "packets": [
                [
                    ev.cycle,
                    ev.src,
                    ev.dst,
                    _pack_words(ev.payloads, word_bytes, byte_order),
                ]
                for ev in self.packets
            ],
            "noc": self.noc,
        }
        raw = json.dumps(doc).encode("utf-8")
        if compress:
            # Fixed mtime keeps the bytes content-addressable: the same
            # trace always hashes to the same digest.
            raw = gzip.compress(raw, mtime=0)
        # Atomic temp-then-rename: a kill mid-save never leaves a torn
        # (and gzip-unreadable) trace where a good one used to be.
        atomic_write_bytes(pathlib.Path(path), raw)

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "TrafficTrace":
        """Read a trace written by :meth:`save`.

        Compression is sniffed from the gzip magic, so renamed files
        load fine.  Truncated or corrupt files — torn writes, partial
        downloads, bad base64 — raise :class:`ValueError` naming the
        file instead of leaking codec exceptions.
        """
        path = pathlib.Path(path)
        return cls.from_bytes(path.read_bytes(), source=str(path))

    @classmethod
    def from_bytes(
        cls, raw: bytes, source: str = "<bytes>"
    ) -> "TrafficTrace":
        """Decode trace file content already in memory (see :meth:`load`).

        ``source`` names the origin in error messages.  Lets callers
        that also hash the file (the replay job kind) read it once.
        """
        path = source
        if raw[:2] == _GZIP_MAGIC:
            try:
                raw = gzip.decompress(raw)
            except (EOFError, OSError, zlib.error) as exc:
                raise ValueError(
                    f"truncated or corrupt trace file {path}: {exc}"
                ) from exc
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValueError(
                f"truncated or corrupt trace file {path}: {exc}"
            ) from exc
        if not isinstance(doc, dict):
            raise ValueError(
                f"truncated or corrupt trace file {path}: envelope is "
                f"not an object"
            )
        version = doc.get("version")
        if version != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace version {version!r} in {path}; "
                f"supported: {TRACE_FORMAT_VERSION}"
            )
        try:
            return cls._from_doc(doc)
        except (KeyError, TypeError, ValueError, binascii.Error) as exc:
            raise ValueError(
                f"truncated or corrupt trace file {path}: {exc}"
            ) from exc

    @classmethod
    def _from_doc(cls, doc: dict[str, Any]) -> "TrafficTrace":
        link_width = int(doc["link_width"])
        byte_order = doc["byte_order"]
        if byte_order not in _BYTE_ORDERS:
            raise ValueError(f"unknown byte order {byte_order!r}")
        word_bytes = doc.get("word_bytes")
        if word_bytes is None:  # envelopes written before the field
            word_bytes = _word_bytes(link_width)
        word_bytes = int(word_bytes)
        if word_bytes < 1:
            raise ValueError(f"bad word size {word_bytes}")
        return cls(
            link_width=link_width,
            links={
                name: _unpack_words(packed, word_bytes, byte_order)
                for name, packed in doc["links"].items()
            },
            cycles={
                name: tuple(int(c) for c in cycles)
                for name, cycles in doc.get("cycles", {}).items()
            },
            vcs={
                name: tuple(int(v) for v in vcs)
                for name, vcs in doc.get("vcs", {}).items()
            },
            packet_ids={
                name: tuple(int(p) for p in pids)
                for name, pids in doc.get("packet_ids", {}).items()
            },
            packets=tuple(
                PacketEvent(
                    cycle=int(cycle),
                    src=int(src),
                    dst=int(dst),
                    payloads=_unpack_words(
                        packed, word_bytes, byte_order
                    ).to_tuple(),
                )
                for cycle, src, dst, packed in doc.get("packets", [])
            ),
            noc=doc.get("noc"),
        )


def _stream_bts(payloads: Any, link_width: int) -> int:
    """Per-link BT count, vectorised where the payloads allow it.

    Array-backed columns (any :class:`TrafficTrace` whose wire images
    fit 64 bits) go straight through the byte-matrix kernel with no
    per-call conversion; plain tuples up to 64 bits pay one
    ``np.fromiter``.  Wider images — >64-bit links, or captures whose
    recorded header bits overflow uint64 — keep the scalar
    arbitrary-precision loop, which beats converting each bignum to
    bytes first.
    """
    n = len(payloads)
    if n < 2:
        return 0
    arr = getattr(payloads, "array", None)
    if arr is None and link_width <= 64:
        try:
            arr = np.fromiter(payloads, dtype="<u8", count=n)
        except (OverflowError, ValueError):
            arr = None
    if arr is not None:
        images = np.ascontiguousarray(arr.astype("<u8", copy=False))
        return stream_transitions_bytes(
            images.view(np.uint8).reshape(-1, 8)
        )
    return stream_transitions(payloads)


def _word_bytes(link_width: int) -> int:
    """Bytes per packed payload word."""
    return max(1, (link_width + 7) // 8)


def _pack_words(
    payloads: Any, word_bytes: int, byte_order: str
) -> str:
    """Fixed-width word array -> base64 text.

    Accepts array-backed :class:`~repro.bits.wordarray.WordArray`
    columns (used directly, no conversion) as well as plain tuples.
    """
    arr = getattr(payloads, "array", None)
    if word_bytes <= 8 and len(payloads) and arr is None:
        # Words that fit a numpy lane: one array pass instead of a
        # per-word to_bytes loop (the hot path for narrow-link traces).
        arr = np.fromiter(payloads, dtype="<u8", count=len(payloads))
    if word_bytes <= 8 and arr is not None and len(payloads):
        arr = np.ascontiguousarray(arr.astype("<u8", copy=False))
        if word_bytes < 8 and int(arr.max()) >> (8 * word_bytes):
            # Same loud failure the per-word to_bytes loop raised —
            # never silently truncate a payload's high bytes.
            raise OverflowError(
                f"payload wider than {word_bytes} bytes"
            )
        image = arr.view(np.uint8).reshape(-1, 8)[:, :word_bytes]
        if byte_order == "big":
            image = image[:, ::-1]
        blob = np.ascontiguousarray(image).tobytes()
    else:
        blob = b"".join(
            p.to_bytes(word_bytes, byte_order) for p in payloads
        )
    return base64.b64encode(blob).decode("ascii")


def _unpack_words(
    packed: str, word_bytes: int, byte_order: str
) -> WordArray:
    """Inverse of :func:`_pack_words`; rejects torn word arrays.

    Returns a :class:`~repro.bits.wordarray.WordArray`: on the ≤8-byte
    fast path the decoded uint64 array becomes the column's backing
    directly (no tuple materialisation); wider words (256/512-bit
    links) keep the arbitrary-precision from_bytes loop and the tuple
    fallback backing.
    """
    blob = base64.b64decode(packed.encode("ascii"), validate=True)
    if len(blob) % word_bytes:
        raise ValueError(
            f"payload array of {len(blob)} bytes is not a multiple of "
            f"the {word_bytes}-byte word size"
        )
    if word_bytes <= 8 and blob:
        # The lane-unpacking fast path: widen each word to a uint64
        # lane in one vectorised pass; wider words (256/512-bit links)
        # keep the arbitrary-precision from_bytes loop.
        lanes = np.frombuffer(blob, dtype=np.uint8).reshape(-1, word_bytes)
        if byte_order == "big":
            lanes = lanes[:, ::-1]
        wide = np.zeros((lanes.shape[0], 8), dtype=np.uint8)
        wide[:, :word_bytes] = lanes
        return WordArray(
            wide.reshape(-1).view("<u8").astype(np.uint64, copy=False)
        )
    return WordArray(
        tuple(
            int.from_bytes(blob[i : i + word_bytes], byte_order)
            for i in range(0, len(blob), word_bytes)
        )
    )


def trace_digest(source: str | pathlib.Path | bytes) -> str:
    """Short content hash of a trace file (cache-key component).

    Hashes the raw file bytes (pass ``bytes`` directly when the file
    is already in memory), so the digest pins exactly what replay
    jobs will read — any rewrite, even a lossless re-encode, changes
    the identity and re-simulates the point.
    """
    raw = (
        source
        if isinstance(source, bytes)
        else pathlib.Path(source).read_bytes()
    )
    return hashlib.sha256(raw).hexdigest()[:16]


def replay_through_network(
    trace: TrafficTrace,
    core: str | None = None,
    ordering: str = "none",
    overrides: dict[str, Any] | None = None,
    max_cycles: int = 500_000,
    trace_collector: Any = None,
) -> "Network":
    """Re-inject a recorded trace's traffic through a fresh network.

    The recorded packet schedule (cycle, src, dst, payloads) is
    replayed injection-for-injection on a mesh rebuilt from the
    trace's recorded NoC config, so — absent overrides — the replayed
    run reproduces the original link traffic exactly and the live BT
    ledger matches the recorded wire images.  This is the durable
    oracle the cross-core conformance suite replays through both
    cycle-loop cores.

    Args:
        trace: a full-fidelity (TraceRecorder) capture.
        core: cycle-loop core for the replay network; None uses the
            trace's recorded core setting, else "event".
        ordering: "none" replays the traffic verbatim;
            "popcount_desc" re-applies the paper's descending
            '1'-count ordering to each packet's payloads before
            injection.
        overrides: NoC config fields to override at replay time
            (e.g. ``{"link_latency": 2}`` for timing what-ifs).
        max_cycles: drain budget.
        trace_collector: optional collector / recorder attached to the
            replay network before driving, so the replayed traffic can
            itself be re-captured (the edge-safe replay probe in
            :func:`repro.obs.diff.bisect_divergence` scores a
            re-capture instead of the drained ledger).

    Returns:
        The drained :class:`Network` (stats + ledger readable).
    """
    from repro.noc.flit import make_packet
    from repro.noc.network import Network, NoCConfig
    from repro.noc.traffic import drive_schedule

    if not trace.packets:
        raise ValueError(
            "trace has no packet injection events; record with "
            "repro.noc.recorder.TraceRecorder to enable replay"
        )
    if trace.noc is None:
        raise ValueError(
            "trace records no NoC config; cannot rebuild the mesh"
        )
    if ordering not in REPLAY_ORDERINGS:
        raise ValueError(
            f"unknown replay ordering {ordering!r}; "
            f"use one of {REPLAY_ORDERINGS}"
        )
    noc_kwargs = dict(trace.noc)
    if overrides:
        noc_kwargs.update(overrides)
    noc = NoCConfig.from_dict(noc_kwargs)
    network = Network(noc, core=core)
    network.trace_collector = trace_collector
    events = []
    # The replay numbers its packets from 0 in recorded send order.
    for packet_id, event in enumerate(trace.packets):
        payloads = list(event.payloads)
        if ordering == "popcount_desc":
            payloads.sort(key=int.bit_count, reverse=True)
        packet = make_packet(
            event.src,
            event.dst,
            payloads,
            noc.link_width,
            packet_id=packet_id,
        )
        events.append((event.cycle, packet))
    return drive_schedule(network, events, max_cycles=max_cycles)


def trace_slice(
    trace: TrafficTrace, start: int, stop: int
) -> TrafficTrace:
    """Restrict a trace to the half-open cycle window ``[start, stop)``.

    Per-link hops keep only traversals whose recorded cycle falls in
    the window (VCs and packet ids are sliced in lockstep when
    present), and the packet schedule keeps only injections inside the
    window — so a sliced full-fidelity trace stays replayable via
    :func:`replay_window`.  Traversal cycles are non-decreasing per
    link, so a slice preserves each link's hop order and a prefix
    slice (``start == 0``) yields exact BT prefix sums.

    Window-edge semantics (pinned): hops and injections are filtered
    *independently* by their own cycles.  A packet injected before
    ``start`` contributes the hops it made inside the window but not
    its injection event, and a packet injected inside the window
    whose hops spill past ``stop`` keeps its injection but loses the
    spilled hops.  Replaying a slice's schedule therefore does **not**
    reproduce the slice's hop record at the window edges; probes that
    mix live replay with offline slice scoring must re-capture and
    slice the replayed traffic (see
    :func:`repro.obs.diff.bisect_divergence`'s edge-safe replay
    probe) rather than compare a drained ledger against a slice.

    Requires per-hop cycles for every link with traffic (any
    :class:`TraceCollector` / :class:`TraceRecorder` capture has
    them; hand-built traces without timing cannot be sliced).
    """
    if start < 0 or stop < start:
        raise ValueError(
            f"bad cycle window [{start}, {stop}): need 0 <= start <= stop"
        )
    missing = [
        name
        for name, payloads in trace.links.items()
        if payloads and len(trace.cycles.get(name, ())) != len(payloads)
    ]
    if missing:
        raise ValueError(
            "trace carries no per-hop cycles for links "
            f"{sorted(missing)}; cannot slice by cycle window"
        )
    links: dict[str, WordArray] = {}
    cycles: dict[str, WordArray] = {}
    vcs: dict[str, WordArray] = {}
    packet_ids: dict[str, WordArray] = {}
    empty = np.zeros(0, dtype=np.int64)
    for name, payloads in trace.links.items():
        link_cycles = trace.cycles.get(name)
        if link_cycles is None or not len(link_cycles):
            keep = empty
            link_cycles = WordArray(empty)
        else:
            carr = as_int64_array(link_cycles)
            keep = np.flatnonzero((carr >= start) & (carr < stop))
        links[name] = WordArray(payloads, np.uint64).take(keep)
        cycles[name] = WordArray(link_cycles, np.int64).take(keep)
        link_vcs = trace.vcs.get(name)
        if link_vcs is not None:
            vcs[name] = WordArray(link_vcs, np.int64).take(keep)
        link_pids = trace.packet_ids.get(name)
        if link_pids is not None:
            packet_ids[name] = WordArray(link_pids, np.int64).take(keep)
    return dataclasses.replace(
        trace,
        links=links,
        cycles=cycles,
        vcs=vcs,
        packet_ids=packet_ids,
        packets=tuple(
            ev for ev in trace.packets if start <= ev.cycle < stop
        ),
    )


def replay_window(
    trace: TrafficTrace,
    start: int,
    stop: int,
    core: str | None = None,
    ordering: str = "none",
    overrides: dict[str, Any] | None = None,
    max_cycles: int = 500_000,
    trace_collector: Any = None,
) -> "Network":
    """Replay only the packets injected in cycles ``[start, stop)``.

    A windowed :func:`replay_through_network`: the mesh is rebuilt
    from the trace's recorded NoC config and the schedule is filtered
    to the window before injection (injection cycles keep their
    recorded absolute values, and the network drains fully past
    ``stop``).  Replaying ``[0, span)`` therefore reproduces the
    whole-trace replay exactly — the bisection probes in
    :func:`repro.obs.diff.bisect_divergence` rely on the prefix form.
    """
    if start < 0 or stop < start:
        raise ValueError(
            f"bad cycle window [{start}, {stop}): need 0 <= start <= stop"
        )
    if not trace.packets:
        raise ValueError(
            "trace has no packet injection events; record with "
            "repro.noc.recorder.TraceRecorder to enable replay"
        )
    window_packets = tuple(
        ev for ev in trace.packets if start <= ev.cycle < stop
    )
    if not window_packets:
        # An idle window: rebuild the empty mesh so callers still get
        # a Network with a zeroed ledger rather than a special case.
        from repro.noc.network import Network, NoCConfig

        if trace.noc is None:
            raise ValueError(
                "trace records no NoC config; cannot rebuild the mesh"
            )
        noc_kwargs = dict(trace.noc)
        if overrides:
            noc_kwargs.update(overrides)
        network = Network(NoCConfig.from_dict(noc_kwargs), core=core)
        network.trace_collector = trace_collector
        return network
    return replay_through_network(
        dataclasses.replace(trace, packets=window_packets),
        core=core,
        ordering=ordering,
        overrides=overrides,
        max_cycles=max_cycles,
        trace_collector=trace_collector,
    )


def reencode_transitions(trace: TrafficTrace, coding: str) -> int:
    """Total BTs if every link additionally applied a link coding.

    Args:
        trace: the captured wire images (post-ordering, if any).
        coding: "none", "bus_invert" or "delta".

    Returns:
        NoC-wide BT count under the requested coding (bus-invert is
        charged for its extra line's transitions).
    """
    return sum(reencode_per_link(trace, coding).values())


def reencode_per_link(trace: TrafficTrace, coding: str) -> dict[str, int]:
    """Per-link BT counts under a link coding (see
    :func:`reencode_transitions`)."""
    out: dict[str, int] = {}
    for name, payloads in trace.links.items():
        if coding == "none":
            out[name] = _stream_bts(payloads, trace.link_width)
        elif coding == "bus_invert":
            encoded = bus_invert_encode(payloads, trace.link_width)
            out[name] = stream_transitions_with_invert_line(encoded)
        elif coding == "delta":
            encoded = delta_encode(payloads, trace.link_width)
            out[name] = stream_transitions_with_invert_line(encoded)
        else:
            raise ValueError(f"unknown coding {coding!r}")
    return out
