"""Directory controller: sharer tracking, fills and TID-ordered commits.

Each directory owns a line-interleaved slice of physical memory
(Table II: full-bit-vector sharer list, 10-cycle service latency) and is
the serialization point of the Scalable-TCC commit protocol: write-set
flushes are applied here, and the invalidations it broadcasts are the
*only* mechanism that aborts transactions (Section III of the paper).

Service model
-------------
The directory is a single pipelined server: every request (fill or
flush) occupies it for its service time, starting at
``max(arrival, busy_until)`` — FIFO among arrivals, which combined with
the FIFO bus gives a deterministic total order.

Commit flushes occupy the server for ``latency + lines × commit_line_cycles``
cycles.  At completion the directory

1. applies the committed words to functional memory,
2. re-homes sharer bits (committer becomes owner, others dropped),
3. broadcasts one invalidation message per victim sharer (single bus
   data transaction — the split-transaction bus is a broadcast medium),
   attaching a Stop-Clock command for victims that will abort when the
   gating unit decides to gate them, and
4. acknowledges the committer *after* the invalidations (bus FIFO
   ordering then guarantees a committer never completes before a
   conflicting invalidation has been delivered — see DESIGN.md §5).

Gating integration
------------------
A :class:`repro.gating.protocol.GatingUnit` may be attached.  The
directory notifies it on every abort-causing invalidation it sends
(step 3) and on every request received from a processor its table marks
as OFF (the paper's stale-OFF recovery: "if any load/store request
comes from a processor which is marked as off, directory assumes that
it has been turned on by some other directory").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..config import DirectoryConfig
from ..errors import ProtocolError
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..sim.trace import NullTrace
from .address import AddressMap
from .bus import Bus
from .memory import MainMemory
from .messages import FillReply, FillRequest, FlushDone, FlushRequest, Invalidation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gating.protocol import GatingUnit

__all__ = ["Directory"]


class Directory:
    """One directory node of the distributed shared memory system."""

    def __init__(
        self,
        dir_id: int,
        engine: Engine,
        bus: Bus,
        memory: MainMemory,
        config: DirectoryConfig,
        addr_map: AddressMap,
        stats: StatsRegistry,
        trace: NullTrace | None = None,
    ):
        self.dir_id = dir_id
        self._engine = engine
        self._bus = bus
        self._memory = memory
        self._config = config
        self._addr_map = addr_map
        self._stats = stats
        self._trace = trace if trace is not None else NullTrace()

        #: line -> bitmask of processor ids holding (or believed to
        #: hold) the line.  The full-bit-vector sharer list of Table II
        #: kept literally as a bit vector: flush service then re-homes a
        #: line with one int store and victim extraction is bit
        #: arithmetic instead of set iteration (PR 7 batched flush path).
        self._sharers: dict[int, int] = {}
        #: line -> last committer ("Owner" coherence state of Fig. 2b)
        self._owner: dict[int, int] = {}
        #: processors with live commit intent here ("Marked" bit, Fig. 2e)
        self.marked: set[int] = set()
        #: per-directory watermark of the last TID whose flush completed here
        self.last_committed_tid = -1

        self._busy_until = 0
        self._machine = None  # set via attach()
        self.gating: "GatingUnit | None" = None
        self._prefix = f"dir{dir_id}"
        # Hot-path bindings (see repro.sim.stats): handles and address
        # constants resolved once, not per request.
        self._num_dirs = addr_map.num_dirs
        self._latency = config.latency
        self._commit_line_cycles = config.commit_line_cycles
        self._trace_on = self._trace.enabled
        self._c_fills = stats.counter(f"{self._prefix}.fills")
        self._c_flushes = stats.counter(f"{self._prefix}.flushes")
        self._c_lines_committed = stats.counter(
            f"{self._prefix}.lines_committed"
        )
        self._c_aborts_caused = stats.counter(f"{self._prefix}.aborts_caused")
        #: per-flush batch size distribution (manifest/obs satellite;
        #: histograms are not serialized into results, so recording one
        #: is byte-neutral for stores and goldens)
        self._h_lines_per_flush = stats.histogram("dir.lines_per_flush")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, machine, gating: "GatingUnit | None" = None) -> None:
        """Connect to the machine (processor lookup) and gating unit."""
        self._machine = machine
        self.gating = gating

    def reset(self) -> None:
        """Forget all sharer/owner/commit state (machine-reset path).

        The attached machine and gating unit survive; the gating unit's
        own table is reset by its owner.  Counter and histogram handles
        stay bound.
        """
        self._sharers.clear()
        self._owner.clear()
        self.marked.clear()
        self.last_committed_tid = -1
        self._busy_until = 0

    # ------------------------------------------------------------------
    # sharer bookkeeping
    # ------------------------------------------------------------------
    def sharers_of(self, line: int) -> frozenset[int]:
        mask = self._sharers.get(line, 0)
        sharers = []
        while mask:
            low = mask & -mask
            sharers.append(low.bit_length() - 1)
            mask ^= low
        return frozenset(sharers)

    def owner_of(self, line: int) -> int | None:
        return self._owner.get(line)

    def _check_home(self, lines: Iterable[int]) -> None:
        num_dirs = self._num_dirs
        dir_id = self.dir_id
        for line in lines:
            if line % num_dirs != dir_id:
                raise ProtocolError(
                    f"line {line} homed at dir "
                    f"{self._addr_map.home_of_line(line)}, not {self.dir_id}"
                )

    # ------------------------------------------------------------------
    # commit-intent marking ("Marked" bits)
    # ------------------------------------------------------------------
    def mark_commit(self, proc: int) -> None:
        """Record commit intent (piggybacked on the commit request)."""
        self.marked.add(proc)

    def unmark_commit(self, proc: int) -> None:
        self.marked.discard(proc)

    # ------------------------------------------------------------------
    # fill path
    # ------------------------------------------------------------------
    def receive_fill_request(self, req: FillRequest) -> None:
        """Bus-arrival handler for a fill after an L1 miss."""
        line = req.line
        if line % self._num_dirs != self.dir_id:
            self._check_home((line,))  # raises with the full message
        gating = self.gating
        if gating is not None:
            # Stale-OFF recovery (module docstring): any request from a
            # processor the gating table marks OFF proves it is running.
            gating.notify_access(req.proc, req.sent_at)
        self._c_fills.value += 1

        engine = self._engine
        now = engine.now
        busy = self._busy_until
        start = busy if busy > now else now
        self._busy_until = done = start + self._latency
        engine.schedule_at(done, self._fill_serviced, req)

    def _fill_serviced(self, req: FillRequest) -> None:
        # Sharer registration happens at service time, before the data
        # round-trip: any flush applied after this instant invalidates
        # the requester, closing the fill/flush race.
        sharers = self._sharers
        line = req.line
        sharers[line] = sharers.get(line, 0) | (1 << req.proc)
        self._memory.access(self._fill_data_ready, req)

    def _fill_data_ready(self, req: FillRequest) -> None:
        proc = self._machine.proc(req.proc)
        reply = FillReply(req.proc, req.line, req.req_id)
        self._bus.send_data(proc.receive_fill_reply, reply)

    # ------------------------------------------------------------------
    # commit flush path
    # ------------------------------------------------------------------
    def receive_flush_request(self, req: FlushRequest) -> None:
        """Bus-arrival handler for a commit flush (TID-ordered globally).

        The machine's token vendor releases committers in TID order
        (the completion barrier standing in for Scalable TCC's skew
        mechanism), so flush requests reach each directory already
        ordered; this is asserted as a protocol invariant.
        """
        lines = req.lines
        self._check_home(lines)
        gating = self.gating
        if gating is not None:
            gating.notify_access(req.proc, req.sent_at)
        if req.tid <= self.last_committed_tid:
            raise ProtocolError(
                f"dir {self.dir_id}: flush TID {req.tid} not after watermark "
                f"{self.last_committed_tid} — commit order violated"
            )
        num_lines = len(lines)
        self._c_flushes.value += 1
        self._c_lines_committed.value += num_lines
        self._h_lines_per_flush.record(num_lines)

        service = self._latency + num_lines * self._commit_line_cycles
        engine = self._engine
        now = engine.now
        busy = self._busy_until
        start = busy if busy > now else now
        self._busy_until = done = start + service
        engine.schedule_at(done, self._flush_complete, req)

    def _flush_complete(self, req: FlushRequest) -> None:
        now = self._engine.now
        committer = req.proc
        tid = req.tid
        # 1. apply committed words to functional memory — one batched
        #    pass (the words were validated when buffered)
        self._memory.write_words(req.writes, tid)
        if tid > self.last_committed_tid:
            self.last_committed_tid = tid

        # 2. collect victims and re-home sharer bits.  One pass over the
        #    flushed lines: victims fall out of the sharer bit-vector
        #    with bit arithmetic, and re-homing is a single int store
        #    per line (no per-line set allocation).
        sharers = self._sharers
        owner = self._owner
        committer_bit = 1 << committer
        victims: dict[int, list[int]] = {}
        for line in req.lines:
            others = sharers.get(line, 0) & ~committer_bit  # may be stale
            while others:
                low = others & -others
                others ^= low
                victim = low.bit_length() - 1
                lines = victims.get(victim)
                if lines is None:
                    victims[victim] = [line]
                else:
                    lines.append(line)
            sharers[line] = committer_bit
            owner[line] = committer

        if victims:
            # 3. gating decisions + one invalidation broadcast per
            #    victim.  The "will this victim abort" probe models the
            #    abort ack the directory would receive a few cycles
            #    later in hardware; it only affects when the
            #    gating-table entry is created (the Stop-Clock command
            #    rides with the invalidation either way).
            ordered = sorted(victims.items())
            proc_of = self._machine.proc
            gating = self.gating
            stop_clock = 0
            for victim, lines in ordered:
                if proc_of(victim).would_abort_on(lines):
                    self._c_aborts_caused.add()
                    if self._trace_on:
                        self._trace.emit(
                            now,
                            "dir.abort",
                            directory=self.dir_id,
                            victim=victim,
                            committer=committer,
                            lines=tuple(lines),
                        )
                    if gating is not None and gating.on_abort(
                        victim, committer, req.site
                    ):
                        stop_clock |= 1 << victim

            send_data = self._bus.send_data
            dir_id = self.dir_id
            for victim, lines in ordered:
                msg = Invalidation(victim, committer, dir_id, tuple(lines))
                send_data(
                    proc_of(victim).receive_invalidation,
                    msg,
                    bool(stop_clock & (1 << victim)),
                )

        # 4. acknowledge the committer — after the invalidations, so the
        #    FIFO bus guarantees delivery order.
        done = FlushDone(committer, tid, self.dir_id)
        self._bus.send_ctrl(self._machine.proc(committer).receive_flush_done, done)

    # ------------------------------------------------------------------
    @property
    def busy_until(self) -> int:
        return self._busy_until

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Directory {self.dir_id} lines={len(self._sharers)} "
            f"marked={sorted(self.marked)}>"
        )
