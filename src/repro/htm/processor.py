"""The processor model: in-order core executing a thread program.

One :class:`Processor` owns one thread program, one private L1 cache
and one power-state timeline.  It is a message-driven FSM: intents from
the program generator are executed with timing against the memory
system, and asynchronous protocol messages (invalidations, Stop-Clock,
Turn-On, flush acknowledgements) arrive as bus-delivered callbacks.

Transactional execution model (TCC)
-----------------------------------
* *Lazy versioning* — stores are buffered in the per-attempt store
  buffer (:class:`~repro.htm.transaction.TxState`); memory and caches
  never see speculative data.
* *Lazy conflict detection* — the only abort source is a directory
  invalidation for a speculatively-read line (plus the wake-up
  self-abort of the gating protocol).
* *Re-execution* — an abort discards the attempt's ``TxState`` and
  re-instantiates the body generator.

Epoch discipline
----------------
Every abort bumps ``self._epoch``; every deferred continuation carries
the epoch it was scheduled in and becomes a no-op if stale.  This is
how "cancel all in-flight work" is implemented without hunting down
individual events (the engine's lazy cancellation plus the epoch guard
are belt and braces).

Clock gating (Section V of the paper)
-------------------------------------
A Stop-Clock command rides with the aborting invalidation; the
processor freezes (no events scheduled, power state GATED) until any
directory delivers Turn-On.  Rollback is performed at freeze time —
while frozen the processor does nothing, so performing the paper's
"Self Abort" at wake-up or at freeze is timing-equivalent; we do it at
freeze and the wake-up merely restarts the attempt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..errors import ProtocolError, WorkloadError
from ..mem.messages import FillReply, FillRequest, FlushDone, FlushRequest, Invalidation, TurnOn
from ..power.states import ProcState
from ..sim.engine import cancel
from ..sim.rng import derive_seed_from, seed_prefix
from .ops import BarrierOp, Compute, Load, Op, Store, TxOp
from .program import ThreadContext, ThreadProgram
from .transaction import TxHandle, TxState, TxStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine

__all__ = ["Processor"]


class Processor:
    """One single-issue in-order core with TCC support."""

    def __init__(self, proc_id: int, machine: "Machine"):
        self.proc_id = proc_id
        self._m = machine
        self._engine = machine.engine
        self._bus = machine.bus
        self._memory = machine.memory
        self._addr_map = machine.addr_map
        self._vendor = machine.vendor
        self._stats = machine.stats
        self._trace = machine.trace
        self._cm = machine.cm
        self.cache = machine.build_cache(proc_id)
        self.timeline = machine.timeline(proc_id)

        self._program_gen: Generator | None = None
        self._program_send = None  # bound .send of the program generator
        self._ctx: ThreadContext | None = None

        # transactional state
        self._txop: TxOp | None = None
        self._tx: TxState | None = None
        self._tx_gen: Generator | None = None
        self._tx_send = None  # bound .send of the live attempt's generator
        self._tx_index = -1
        self._tx_seed_index = -1
        self._tx_seed = 0
        self._tx_seed_prefix = seed_prefix(machine.config.seed, "tx", proc_id)
        self._attempt = 0
        self._tx_first_start = 0
        self._commit_start = 0
        self._consecutive_aborts = 0
        self._epoch = 0
        #: directories involved in the in-flight commit, computed once
        #: at TID-accept time (the footprint is frozen from then on)
        self._commit_dirs: list[int] | None = None
        #: (line, addr, epoch, in_tx, req_id) of the outstanding miss
        self._awaiting_fill: tuple[int, int, int, bool, int] | None = None
        self._fill_seq = 0
        self._restart_event = None

        # gating state
        self.gated = False
        self._gated_by: set[int] = set()
        self._gate_start = 0

        self.finished = False
        self._prefix = f"proc{proc_id}"

        # Hot-path bindings: counter/histogram handles resolved once
        # (see repro.sim.stats — no per-access f-string keys), plus the
        # constant hit latency every cache access schedules with.
        stats = machine.stats
        prefix = self._prefix
        self._hit_latency = machine.config.cache.hit_latency
        # Bound-method fast paths: the per-op dispatch loop goes through
        # these thousands of times per run, so the two-level attribute
        # chains (engine/bus/map/cache lookups) are resolved once here.
        self._schedule = self._engine.schedule
        self._check_word_addr = machine.addr_map.check_word_addr
        self._line_of = machine.addr_map.line_of
        self._home_of_line = machine.addr_map.home_of_line
        self._lines_by_home = machine.addr_map.lines_by_home
        # Constants for the inlined per-access address math (the checked
        # slow path _check_word_addr re-raises with the full message).
        self._mem_bytes = machine.addr_map.memory_bytes
        self._line_bytes = machine.addr_map.line_bytes
        self._num_dirs = machine.addr_map.num_dirs
        self._dirs = machine.dirs
        self._read_word = machine.memory.read_word
        self._send_ctrl = machine.bus.send_ctrl
        self._send_data = machine.bus.send_data
        self._dir_of = machine.dir
        self._tl_set_state = self.timeline.set_state
        # Mirror of the timeline's current state: set_state with an
        # unchanged state is a recorded no-op, so _set_state can skip
        # the call entirely — most ops run RUN → RUN.  Must start as
        # the timeline's initial state (ProcState.RUN).
        self._cur_state = ProcState.RUN
        self._cache_touch = self.cache.touch
        self._cache_fill = self.cache.fill
        #: footprint of the in-flight commit, computed once at TID
        #: accept (it cannot grow while COMMITTING) and shared by the
        #: involved-directory pass and the finalize cleanup
        self._commit_footprint: set[int] | None = None
        # Tracing is decided per run; a disabled trace must cost
        # nothing, not even the kwargs dict an emit() call builds.
        self._trace_on = self._trace.enabled
        self._c_cache_hits = stats.counter(f"{prefix}.cache.hits")
        self._c_cache_misses = stats.counter(f"{prefix}.cache.misses")
        self._c_stale_fills = stats.counter(f"{prefix}.stale_fills")
        self._c_proc_commits = stats.counter(f"{prefix}.commits")
        self._c_proc_aborts = stats.counter(f"{prefix}.aborts")
        self._c_tx_attempts = stats.counter("tx.attempts")
        self._c_tx_commit_attempts = stats.counter("tx.commit_attempts")
        self._c_tx_commits = stats.counter("tx.commits")
        self._c_aborts_conflict = stats.counter("tx.aborts.conflict")
        self._c_aborts_self = stats.counter("tx.aborts.self")
        self._c_aborts_total = stats.counter("tx.aborts.total")
        self._c_wasted_cycles = stats.counter("tx.wasted_cycles")
        self._c_aborts_while_committing = stats.counter(
            "tx.aborts_while_committing"
        )
        self._c_gated = stats.counter("gating.gated")
        self._c_redundant_on = stats.counter("gating.redundant_on")
        self._c_wakeups = stats.counter("gating.wakeups")
        self._h_attempts_to_commit = stats.histogram("tx.attempts_to_commit")
        self._h_tx_latency = stats.histogram("tx.latency")
        self._h_commit_phase = stats.histogram("tx.commit_phase")
        self._h_gated_cycles = stats.histogram("gating.gated_cycles")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the just-constructed state for a machine reset.

        Called by :meth:`repro.htm.machine.Machine.reset` after the
        machine has installed the member's config, contention manager
        and fresh timelines — seed-dependent bindings (the tx seed
        prefix, the CM) are recomputed from the machine here.  The
        structural fast-path bindings (engine/bus/memory/directory
        methods, counter handles, config-derived latencies) survive:
        those objects are reset in place and the non-seed config is
        identical by the reset contract.
        """
        m = self._m
        self.cache.reset()
        self._cm = m.cm
        self.timeline = m.timeline(self.proc_id)
        self._tl_set_state = self.timeline.set_state
        self._cur_state = ProcState.RUN
        self._tx_seed_prefix = seed_prefix(m.config.seed, "tx", self.proc_id)

        self._program_gen = None
        self._program_send = None
        self._ctx = None
        self._txop = None
        self._tx = None
        self._tx_gen = None
        self._tx_send = None
        self._tx_index = -1
        self._tx_seed_index = -1
        self._tx_seed = 0
        self._attempt = 0
        self._tx_first_start = 0
        self._commit_start = 0
        self._consecutive_aborts = 0
        self._epoch = 0
        self._commit_dirs = None
        self._commit_footprint = None
        self._awaiting_fill = None
        self._fill_seq = 0
        self._restart_event = None
        self.gated = False
        self._gated_by = set()
        self._gate_start = 0
        self.finished = False

    def start(self, program: ThreadProgram, ctx: ThreadContext) -> None:
        """Bind and launch the thread program at the current cycle."""
        self._ctx = ctx
        self._program_gen = program.generate(ctx)
        self._program_send = self._program_gen.send
        self._engine.schedule(0, self._advance_program, None)

    def _set_state(self, state: ProcState) -> None:
        if state is not self._cur_state:
            self._cur_state = state
            self._tl_set_state(self._engine.now, state)

    def _finish_program(self) -> None:
        # A finished thread spins at the final synchronization point at
        # full run power until the parallel section ends (Section VII).
        self.finished = True
        self._set_state(ProcState.RUN)
        self._m.proc_finished(self.proc_id)

    # ------------------------------------------------------------------
    # program-level execution
    # ------------------------------------------------------------------
    def _advance_program(self, value: Any) -> None:
        try:
            op = self._program_send(value)
        except StopIteration:
            self._finish_program()
            return
        self._dispatch_program_op(op)

    def _dispatch_program_op(self, op: Op) -> None:
        if isinstance(op, TxOp):
            self._begin_tx(op)
        elif isinstance(op, Compute):
            self._set_state(ProcState.RUN)
            self._schedule(op.cycles, self._advance_program, None)
        elif isinstance(op, Load):
            self._plain_load(op)
        elif isinstance(op, Store):
            self._plain_store(op)
        elif isinstance(op, BarrierOp):
            self._set_state(ProcState.RUN)
            self._m.barrier_arrive(op.name, self.proc_id, self._advance_program)
        else:
            raise WorkloadError(f"unknown program-level op: {op!r}")

    # -- non-transactional accesses (setup / thread-private data) ------
    def _plain_load(self, op: Load) -> None:
        addr = op.addr
        if addr < 0 or addr + 8 > self._mem_bytes or addr & 7:
            self._check_word_addr(addr)  # raises the detailed error
        line = addr // self._line_bytes
        entry = self._cache_touch(line)
        if entry is not None and not entry.partial:
            self._c_cache_hits.value += 1
            self._schedule(self._hit_latency, self._plain_load_done, addr)
        else:
            self._c_cache_misses.value += 1
            self._set_state(ProcState.MISS)
            self._send_fill(line, addr, in_tx=False)

    def _plain_load_done(self, addr: int) -> None:
        value = self._read_word(addr)
        self._set_state(ProcState.RUN)
        self._advance_program(value)

    def _plain_store(self, op: Store) -> None:
        addr = op.addr
        if addr < 0 or addr + 8 > self._mem_bytes or addr & 7:
            self._check_word_addr(addr)
        # Non-transactional stores bypass coherence: they are only legal
        # for thread-private data (documented restriction), so the write
        # is applied functionally and cached locally.
        self._memory.write_word(addr, op.value, writer_tid=-1)
        self._cache_fill(addr // self._line_bytes, partial=True)
        self._set_state(ProcState.RUN)
        self._schedule(self._hit_latency, self._advance_program, None)

    # ------------------------------------------------------------------
    # transactional execution
    # ------------------------------------------------------------------
    def _begin_tx(self, op: TxOp) -> None:
        self._txop = op
        self._tx_index += 1
        self._attempt = 0
        self._tx_first_start = self._engine.now
        self._m.note_first_tx(self._engine.now)
        self._start_attempt()

    def _tx_rng_seed(self) -> int:
        # The derived seed depends only on (config.seed, proc, tx_index),
        # so retries of the same transaction reuse it.  The TxHandle
        # builds a *fresh* generator from it on first use per attempt,
        # so every attempt sees an identical stream.  The FNV prefix
        # over (seed, "tx", proc) is hashed once (constructor); only
        # the tx_index suffix is folded per transaction — identical
        # output to derive_seed(seed, "tx", proc, tx_index).
        if self._tx_seed_index != self._tx_index:
            self._tx_seed_index = self._tx_index
            self._tx_seed = derive_seed_from(self._tx_seed_prefix, self._tx_index)
        return self._tx_seed

    def _start_attempt(self) -> None:
        # Any restart event has fired or been cancelled by now.
        self._restart_event = None
        if self.gated:
            # A Stop-Clock raced with a scheduled retry; the wake-up
            # will restart the attempt instead.
            return
        op = self._txop
        if op is None:  # pragma: no cover - defensive
            raise ProtocolError(f"proc {self.proc_id}: attempt with no TxOp")
        self._attempt += 1
        self._epoch += 1
        handle = TxHandle(
            self.proc_id,
            self._ctx.num_threads,
            op.site,
            self._attempt,
            self._tx_rng_seed(),
        )
        tx = TxState(
            self.proc_id,
            op.site,
            self._tx_index,
            self._attempt,
            self._engine.now,
            handle,
        )
        if self._m.validation_mode:
            tx.read_log = []
        self._tx = tx
        gen = op.body(handle)
        if not hasattr(gen, "send"):
            raise WorkloadError(
                f"transaction body for site {op.site!r} must return a "
                f"generator (got {type(gen).__name__})"
            )
        self._tx_gen = gen
        self._tx_send = gen.send
        self._c_tx_attempts.value += 1
        if self._trace_on:
            self._trace.emit(
                self._engine.now,
                "tx.begin",
                proc=self.proc_id,
                site=op.site,
                attempt=self._attempt,
            )
        self._set_state(ProcState.RUN)
        self._advance_tx(None)

    def _advance_tx(self, value: Any) -> None:
        try:
            op = self._tx_send(value)
        except StopIteration:
            self._begin_commit()
            return
        if isinstance(op, Load):
            self._tx_load(op)
        elif isinstance(op, Store):
            self._tx_store(op)
        elif isinstance(op, Compute):
            self._set_state(ProcState.RUN)
            self._schedule(op.cycles, self._tx_cont, self._epoch)
        elif isinstance(op, (TxOp, BarrierOp)):
            raise WorkloadError(
                f"{type(op).__name__} is not allowed inside a transaction "
                f"(site {self._tx.site!r}); TCC transactions are flat"
            )
        else:
            raise WorkloadError(f"unknown transactional op: {op!r}")

    def _tx_cont(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._advance_tx(None)

    # -- transactional loads -------------------------------------------
    def _tx_load(self, op: Load) -> None:
        addr = op.addr
        if addr < 0 or addr + 8 > self._mem_bytes or addr & 7:
            self._check_word_addr(addr)
        tx = self._tx
        forwarded = tx.writes.get(addr)  # store-to-load forwarding
        hit_latency = self._hit_latency
        if forwarded is not None:
            # Reading our own buffered store: no read-set registration,
            # no conflict exposure.
            self._schedule(
                hit_latency, self._tx_forwarded_done, self._epoch, forwarded
            )
            return

        line = addr // self._line_bytes
        # Register at issue time: an invalidation arriving between issue
        # and data return must abort this attempt (fill/flush race).
        tx.read_lines.add(line)
        entry = self._cache_touch(line)
        # A partial (store-allocated) line cannot serve loads of words
        # the transaction did not write: the data was never fetched and
        # the processor is not registered as a sharer (the fuzzer found
        # the resulting stale-read serializability hole).
        if entry is not None and not entry.partial:
            entry.spec_read = True
            self._c_cache_hits.value += 1
            self._schedule(hit_latency, self._tx_load_done, self._epoch, addr)
        else:
            self._c_cache_misses.value += 1
            self._set_state(ProcState.MISS)
            self._send_fill(line, addr, in_tx=True)

    def _tx_load_done(self, epoch: int, addr: int) -> None:
        if epoch != self._epoch:
            return
        value = self._read_word(addr)
        tx = self._tx
        if tx.read_log is not None:
            tx.read_log.append((addr, value))
        self._advance_tx(value)

    def _tx_forwarded_done(self, epoch: int, value: int) -> None:
        if epoch != self._epoch:
            return
        self._advance_tx(value)

    def _send_fill(self, line: int, addr: int, in_tx: bool) -> None:
        """Issue a fill request for an L1 miss (one outstanding at most)."""
        self._fill_seq += 1
        self._awaiting_fill = (line, addr, self._epoch, in_tx, self._fill_seq)
        home = self._dirs[line % self._num_dirs]
        self._send_ctrl(
            home.receive_fill_request,
            FillRequest(self.proc_id, line, self._engine.now, self._fill_seq),
        )

    def receive_fill_reply(self, msg: FillReply) -> None:
        """Bus-arrival handler for the data of an earlier L1 miss.

        The request-id match is load-bearing: a reply belonging to an
        aborted attempt must not satisfy a newer attempt's miss on the
        same line (its data may predate a commit whose invalidation the
        newer attempt — not yet registered as a sharer — never saw).
        """
        pending = self._awaiting_fill
        if (
            pending is None
            or pending[4] != msg.req_id
            or pending[0] != msg.line
            or pending[2] != self._epoch
        ):
            self._c_stale_fills.add()
            return
        line, addr, epoch, in_tx, _req_id = pending
        self._awaiting_fill = None
        self._cache_fill(line)
        self._set_state(ProcState.RUN)
        # The consuming load still pays the load-to-use latency after
        # the fill returns (data forwarding into the pipeline).
        hit_latency = self._hit_latency
        if in_tx:
            if self._tx is not None and line in self._tx.read_lines:
                self.cache.mark_spec_read(line)
            self._schedule(hit_latency, self._tx_load_done, epoch, addr)
        else:
            self._schedule(hit_latency, self._plain_load_done, addr)

    # -- transactional stores --------------------------------------------
    def _tx_store(self, op: Store) -> None:
        addr = op.addr
        if addr < 0 or addr + 8 > self._mem_bytes or addr & 7:
            self._check_word_addr(addr)
        line = addr // self._line_bytes
        self._tx.buffer_store(addr, op.value, line)
        # Write-allocate into the store buffer: the line is installed
        # locally without any directory traffic (hence *partial* — it
        # holds only the written words); data merges at commit.
        self._cache_fill(line, partial=True)
        self.cache.mark_spec_written(line)
        self._schedule(self._hit_latency, self._tx_cont, self._epoch)

    # ------------------------------------------------------------------
    # commit protocol (processor side)
    # ------------------------------------------------------------------
    def _begin_commit(self) -> None:
        tx = self._tx
        tx.status = TxStatus.COMMITTING
        self._commit_start = self._engine.now
        self._set_state(ProcState.COMMIT)
        self._c_tx_commit_attempts.value += 1
        if self._trace_on:
            self._trace.emit(
                self._engine.now, "tx.commit_request", proc=self.proc_id,
                site=tx.site,
            )
        self._m.request_tid(self, self._epoch)

    def accept_tid(self, epoch: int, tid: int) -> bool:
        """Token-vendor grant arrival; False rejects a stale grant."""
        if epoch != self._epoch or self._tx is None or not self._tx.live:
            return False
        tx = self._tx
        tx.tid = tid
        # The footprint cannot grow once the tx is COMMITTING, so it and
        # the involved-directory set are computed once here and reused
        # by the finalize (and abort-while-spinning) unmark pass.
        footprint = tx.read_lines | tx.write_lines
        self._commit_footprint = footprint
        home_of = self._home_of_line
        self._commit_dirs = sorted({home_of(line) for line in footprint})
        dirs = self._dirs
        for dir_id in self._commit_dirs:
            dirs[dir_id].mark_commit(self.proc_id)
        self._vendor.wait_for_turn(tid, self._commit_go, epoch, tid)
        return True

    def _commit_go(self, epoch: int, tid: int) -> None:
        """Completion-barrier release: all older TIDs have finished."""
        if epoch != self._epoch:
            return
        tx = self._tx
        if tx is None or tx.tid != tid:  # pragma: no cover - defensive
            raise ProtocolError(f"commit-go for unknown TID {tid}")
        groups = self._lines_by_home(tx.write_lines)
        if not groups:
            self._commit_finalize()
            return
        tx.flush_acks_pending = len(groups)
        now = self._engine.now
        send_data = self._send_data
        all_writes = sorted(tx.writes.items())  # once, not per directory
        if len(groups) == 1:
            # Single homed directory (every commit on a 1-directory
            # machine, and most small transactions): the whole sorted
            # store buffer is that directory's flush body.
            dir_id, lines = next(iter(groups.items()))
            req = FlushRequest(
                self.proc_id, tid, tuple(lines), tuple(all_writes), now, tx.site
            )
            send_data(self._dirs[dir_id].receive_flush_request, req)
            return
        # Multi-directory commit: partition the sorted store buffer in
        # one pass (order within each directory stays address-sorted),
        # instead of re-filtering all writes once per directory.
        line_of = self._line_of
        home_of = self._home_of_line
        writes_by_dir: dict[int, list[tuple[int, int]]] = {d: [] for d in groups}
        for pair in all_writes:
            writes_by_dir[home_of(line_of(pair[0]))].append(pair)
        for dir_id, lines in sorted(groups.items()):
            req = FlushRequest(
                self.proc_id,
                tid,
                tuple(lines),
                tuple(writes_by_dir[dir_id]),
                now,
                tx.site,
            )
            send_data(self._dirs[dir_id].receive_flush_request, req)

    def receive_flush_done(self, msg: FlushDone) -> None:
        tx = self._tx
        if tx is None or tx.status is not TxStatus.COMMITTING or tx.tid != msg.tid:
            raise ProtocolError(
                f"proc {self.proc_id}: FlushDone for TID {msg.tid} but no "
                "matching in-flight commit (post-barrier flushes must not abort)"
            )
        tx.flush_acks_pending -= 1
        if tx.flush_acks_pending == 0:
            self._commit_finalize()

    def _commit_finalize(self) -> None:
        tx = self._tx
        now = self._engine.now
        tx.status = TxStatus.COMMITTED
        self.cache.clear_speculative(self._commit_footprint, commit=True)
        dirs = self._dirs
        for dir_id in self._commit_dirs:
            dirs[dir_id].unmark_commit(self.proc_id)
        self._commit_dirs = None
        self._commit_footprint = None
        self._m.notify_commit(self.proc_id)
        self._vendor.finish(tx.tid)
        self._m.note_tx_end(now)
        if self._m.validation_mode:
            self._m.record_committed_tx(tx)

        self._c_tx_commits.value += 1
        self._c_proc_commits.value += 1
        self._h_attempts_to_commit.record(tx.attempt)
        self._h_tx_latency.record(now - self._tx_first_start)
        self._h_commit_phase.record(now - self._commit_start)
        if self._trace_on:
            self._trace.emit(
                now, "tx.commit", proc=self.proc_id, site=tx.site, tid=tx.tid,
                attempt=tx.attempt,
            )

        result = tx.handle.result
        self._consecutive_aborts = 0
        self._tx = None
        self._tx_gen = None
        self._tx_send = None
        self._txop = None
        self._set_state(ProcState.RUN)
        self._advance_program(result)

    # ------------------------------------------------------------------
    # abort and gating
    # ------------------------------------------------------------------
    def would_abort_on(self, lines) -> bool:
        """Directory-side probe: does ``lines`` conflict with the live tx?"""
        tx = self._tx
        return tx is not None and tx.live and tx.conflicts_with(lines)

    def receive_invalidation(self, msg: Invalidation, gate: bool) -> None:
        """Bus-arrival handler for a committed-line invalidation."""
        for line in msg.lines:
            self.cache.invalidate(line)
        if self.gated:
            # Already frozen; the directory-side table was updated, and
            # our rollback already happened at freeze time.
            if gate:
                self._gated_by.add(msg.directory)
            return
        tx = self._tx
        conflict = tx is not None and tx.live and tx.conflicts_with(msg.lines)
        if gate:
            self._abort_tx(
                conflict=conflict,
                gate=True,
                from_dir=msg.directory,
                aborter=msg.committer,
            )
        elif conflict:
            self._abort_tx(
                conflict=True,
                gate=False,
                from_dir=msg.directory,
                aborter=msg.committer,
            )

    def _abort_tx(
        self,
        conflict: bool,
        gate: bool,
        from_dir: int | None = None,
        aborter: int | None = None,
    ) -> None:
        now = self._engine.now
        tx = self._tx
        if tx is None or not tx.live:
            # Stop-Clock caught us between attempts (retry scheduled but
            # not started): freeze; the wake-up restarts the attempt.
            if gate:
                self._enter_gated(from_dir)
            return

        if tx.status is TxStatus.COMMITTING:
            if tx.flush_acks_pending:
                raise ProtocolError(
                    f"proc {self.proc_id} aborted mid-flush (TID {tx.tid}); "
                    "the completion barrier should make this impossible"
                )
            if tx.tid is not None:
                for dir_id in self._commit_dirs:
                    self._dirs[dir_id].unmark_commit(self.proc_id)
                self._commit_dirs = None
                self._commit_footprint = None
                self._vendor.release(tx.tid)
                self._c_aborts_while_committing.add()

        # Counter semantics (see repro.sim.stats "counts versus sums"):
        # tx.aborts.{conflict,self} and tx.aborts.total are *event
        # counts* (one per abort); tx.wasted_cycles is the paired
        # *cycle sum* — the cycles this attempt had invested when it
        # died.  Rates divide counts by tx.attempts; never divide the
        # cycle sum by anything but its paired count.
        if conflict:
            kind = "conflict"
            self._c_aborts_conflict.value += 1
        else:
            kind = "self"
            self._c_aborts_self.value += 1
        self._c_aborts_total.value += 1
        self._c_proc_aborts.value += 1
        self._c_wasted_cycles.value += now - tx.start_time
        self._consecutive_aborts += 1
        self._epoch += 1
        self._awaiting_fill = None
        if self._tx_gen is not None:
            self._tx_gen.close()
        self.cache.clear_speculative(tx.footprint_lines, commit=False)
        tx.status = TxStatus.ABORTED
        self._tx = None
        self._tx_gen = None
        self._tx_send = None
        if self._trace_on:
            self._trace.emit(
                now,
                "tx.abort",
                proc=self.proc_id,
                site=self._txop.site,
                cause=kind,
                aborter=aborter,
                directory=from_dir,
                gated=gate,
            )

        if gate:
            self._enter_gated(from_dir)
        else:
            delay = self._m.config.commit.abort_drain_cycles + max(
                0, self._cm.retry_delay(self.proc_id, self._consecutive_aborts)
            )
            self._set_state(ProcState.RUN)
            self._restart_event = self._engine.schedule(
                max(1, delay), self._start_attempt
            )

    def _enter_gated(self, from_dir: int | None) -> None:
        if self._txop is None:
            raise ProtocolError(
                f"proc {self.proc_id} gated with no transaction in progress"
            )
        if self._restart_event is not None:
            cancel(self._restart_event)
            self._restart_event = None
        self.gated = True
        self._gated_by = {from_dir} if from_dir is not None else set()
        self._gate_start = self._engine.now
        self._set_state(ProcState.GATED)
        self._c_gated.add()
        if self._trace_on:
            self._trace.emit(
                self._engine.now, "gate.off", proc=self.proc_id,
                directory=from_dir,
            )

    def receive_turn_on(self, msg: TurnOn) -> None:
        """Bus-arrival handler for the directory's "on" command."""
        if not self.gated:
            self._c_redundant_on.add()
            return
        now = self._engine.now
        self.gated = False
        self._gated_by.clear()
        self._c_wakeups.add()
        self._h_gated_cycles.record(now - self._gate_start)
        if self._trace_on:
            self._trace.emit(
                now, "gate.on", proc=self.proc_id, directory=msg.directory
            )
        self._set_state(ProcState.RUN)
        # The paper's "Self Abort" happened (timing-equivalently) at
        # freeze; waking simply restarts the transaction.
        self._start_attempt()

    # ------------------------------------------------------------------
    # gating-protocol queries
    # ------------------------------------------------------------------
    def attempt_age(self) -> int:
        """Cycles the live attempt has invested (its *momentum*).

        Zero when no transaction is live.  Sampled by the directory at
        abort time for momentum-aware contention management
        (Section VI's future work).
        """
        tx = self._tx
        if tx is not None and tx.live:
            return self._engine.now - tx.start_time
        return 0

    def current_tx_site(self) -> str | None:
        """TxInfoReq reply: the live transaction's site, or None.

        A gated processor replies null (the paper: "the reply to the
        TxInfoReq message will be null and therefore the comparator
        output will be zero, turning the victim processor on").
        """
        if self.gated:
            return None
        tx = self._tx
        if tx is not None and tx.live:
            return tx.site
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tx = f" tx={self._tx.site}#{self._tx.attempt}" if self._tx else ""
        flags = " GATED" if self.gated else (" done" if self.finished else "")
        return f"<Processor {self.proc_id}{tx}{flags}>"
