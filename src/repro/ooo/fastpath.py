"""Compiled hot path for the OOO timing model.

``FastOOOPipeline`` is a drop-in replacement for ``OOOPipeline`` that
produces *bit-identical* timing, statistics, and event sequences while
running several times faster.  It is the same model, re-expressed for
the interpreter:

* a per-``Instruction`` **decode cache**: opclass-derived facts (path
  kind, latency, functional-unit pool dict/size/occupancy span, the
  stats-counter slot, the fetch block) are resolved once per static
  instruction instead of per dynamic instance;
* **one compiled run loop**, ``_run(dyns, timings=None)``, is the only
  fast timing body.  Branch/jump/load/store/ALU paths branch on a
  precomputed small-int kind; slot allocation, the ring-buffer capacity
  models and the commit-gap stall-credit walk are inlined.  Everything
  the loop reads but never rebinds (widths, latencies, bound cache and
  predictor methods, slot and FU dicts, ring lists, the store index) is
  one tuple built per pipeline and unpacked once per call;
* **cursors live in locals for the whole run**: ``seq``, the fetch,
  dispatch and commit cursors, ``_last_fetch_block``,
  ``_ops_since_prune``, ``_credit_total``, ``_uniform_count``,
  ``regs.renames``, the ROB/RS/LQ/SQ ``_head``/``_count``,
  ``rob.last_commit_cycle`` and ``fus._max_claimed``.  They are written
  back to the pipeline only before each ``_prune_slot_windows()`` and in
  a ``finally`` on exit.  **Nothing may read pipeline cursors while
  ``_run`` runs**: ``_prune_slot_windows`` is safe only because it runs
  after a write-back, and the event-bus clock (which reads the fetch
  cursors) only because the loop emits no events;
* ``run_trace(trace)`` is ``_run(trace)`` then ``finish()``, and no
  ``InstrTiming`` is built; ``process(dyn)`` is a one-instruction run
  that returns its ``InstrTiming``, so the DynaSpAM framework's host
  steps drive the same body between its ``macro_*`` calls;
* **batched statistics**: hot counters accumulate in a plain int list
  indexed by module constants and flush additively into
  ``PipelineStats`` in ``finish()`` (cold counters — fabric, mapping,
  drain, offload buckets — are still written directly by the framework,
  which is why the flush adds rather than assigns);
* stall credits keep a running total so the common commit-gap case
  (no credits pending) skips the per-cause scan.

Invariants the fast path relies on (and the base model guarantees): the
slot-count and FU-occupancy dicts are pruned *in place* (cached
references stay valid), the store window is a bounded deque, and the
``macro_*`` primitives used by the DynaSpAM framework mutate the same
shared structures, so host and offload execution interleave freely.

Bit-identity against the interpreted model is enforced by
``tests/engine/test_fastpath_identity.py`` and CI's fastpath-identity
job; ``repro perfbench`` measures the speedup.
"""

from __future__ import annotations

from repro.isa.instructions import DynamicInstruction, Instruction
from repro.isa.opcodes import FU_PIPELINED, OpClass
from repro.ooo.config import CoreConfig
from repro.ooo.fus import POOL_OF
from repro.ooo.lsq import StoreRecord
from repro.ooo.pipeline import InstrTiming, OOOPipeline, PipelineResult

#: PipelineStats fields mirrored by the batched-counter list, in slot
#: order.  Only counters touched by the per-instruction hot path belong
#: here; everything else keeps writing ``stats`` directly.
_SB_FIELDS: tuple[str, ...] = (
    "fetches", "wrongpath_fetches", "icache_accesses", "icache_misses",
    "predictor_lookups", "branch_mispredicts", "btb_misses",
    "renames", "dispatches", "wakeups", "selections",
    "int_alu_ops", "int_mul_ops", "int_div_ops",
    "fp_alu_ops", "fp_mul_ops", "fp_div_ops",
    "regfile_reads", "regfile_writes", "bypass_transfers",
    "loads", "stores", "dcache_accesses", "dcache_misses", "l2_accesses",
    "store_forwards", "memory_violations",
    "commits", "rob_writes", "instructions", "cycles_host",
)

(F_FETCHES, F_WRONGPATH, F_IC_ACC, F_IC_MISS,
 F_PRED, F_MISP, F_BTB,
 F_RENAMES, F_DISPATCHES, F_WAKEUPS, F_SELECTIONS,
 F_INT_ALU, F_INT_MUL, F_INT_DIV,
 F_FP_ALU, F_FP_MUL, F_FP_DIV,
 F_RF_READS, F_RF_WRITES, F_BYPASS,
 F_LOADS, F_STORES, F_DC_ACC, F_DC_MISS, F_L2_ACC,
 F_FORWARDS, F_VIOLATIONS,
 F_COMMITS, F_ROB_WRITES, F_INSTRUCTIONS, F_CYCLES_HOST,
 ) = range(len(_SB_FIELDS))

#: Stats slot charged for one execution of each opclass — the decode-time
#: resolution of ``pipeline._EXEC_COUNTER`` (branches, jumps, nops, and
#: memory address generation all execute on the integer ALUs).
_EXEC_SLOT: dict[OpClass, int] = {
    OpClass.INT_ALU: F_INT_ALU,
    OpClass.INT_MUL: F_INT_MUL,
    OpClass.INT_DIV: F_INT_DIV,
    OpClass.FP_ALU: F_FP_ALU,
    OpClass.FP_MUL: F_FP_MUL,
    OpClass.FP_DIV: F_FP_DIV,
    OpClass.BRANCH: F_INT_ALU,
    OpClass.JUMP: F_INT_ALU,
    OpClass.NOP: F_INT_ALU,
    OpClass.LOAD: F_INT_ALU,
    OpClass.STORE: F_INT_ALU,
}

#: Slots incremented exactly once per instruction, no matter its kind.
#: ``_run`` counts instructions in one scalar and ``finish`` fans the
#: total out to these slots, saving six list increments per instruction.
_UNIFORM_SLOTS: tuple[int, ...] = (
    F_FETCHES, F_RENAMES, F_DISPATCHES, F_SELECTIONS,
    F_COMMITS, F_ROB_WRITES, F_INSTRUCTIONS,
)

#: ``tuple.__new__`` builds an ``InstrTiming`` without the Python-level
#: ``NamedTuple.__new__`` wrapper, at half the cost.
_new_tuple = tuple.__new__

# Specialized-path discriminator, resolved at decode time.
_KIND_ALU = 0
_KIND_BRANCH = 1
_KIND_JUMP = 2
_KIND_LOAD = 3
_KIND_STORE = 4


class FastOOOPipeline(OOOPipeline):
    """Decode-cached, inlined implementation of the timing model.

    Every structural model (ROB/RS/LQ/SQ rings, scoreboard dicts, FU
    occupancy dicts, slot windows) is the *same object* the base class
    owns; only the per-instruction control flow is re-expressed.  The
    framework's ``macro_dispatch``/``macro_commit``/``drain`` therefore
    work unchanged against a fast pipeline.
    """

    def __init__(
        self,
        config: CoreConfig | None = None,
        conservative_memory: bool = False,
        bus=None,
    ) -> None:
        super().__init__(config, conservative_memory, bus=bus)
        cfg = self.config
        #: id(static) -> decode record.  The record pins the static
        #: instruction (slot 0) so a recycled id can never alias a dead
        #: object's cache entry.
        self._decode: dict[int, tuple] = {}
        self._sb: list[int] = [0] * len(_SB_FIELDS)
        #: Instructions processed since the last ``finish`` — fanned out
        #: to the ``_UNIFORM_SLOTS`` counters at flush time.
        self._uniform_count = 0
        #: Sum of ``_stall_credit`` values, maintained by the overridden
        #: credit hooks so the commit hot path can skip the per-cause
        #: scan whenever no credit is pending (the common case).
        self._credit_total = 0
        rob, rs, lq, sq = self.rob, self.rs, self.lq, self.sq
        # Everything ``_run`` reads but never rebinds, unpacked once per
        # call.  All of it is identity-stable for the life of the
        # pipeline: the base model prunes its dicts in place, never
        # rebuilds them, and the config is frozen after construction.
        # Nothing here is bound to ``self``, so the tuple adds no
        # reference cycle and a finished pipeline is freed at once.
        self._invariants = (
            self._decode, self._sb, self.stats,
            self._fetch_counts, self._issue_counts, self._commit_counts,
            cfg.fetch_width, cfg.issue_width, cfg.commit_width,
            cfg.frontend_depth, cfg.l1i_latency, cfg.l1d_latency,
            cfg.btb_miss_penalty, cfg.mispredict_redirect,
            cfg.store_forward_latency, cfg.violation_squash_penalty,
            cfg.rob_entries, cfg.storesets_enabled, conservative_memory,
            cfg.store_queue * 2,
            self.icache.access, self.dcache.access, self.l2,
            self.bpred.predict_and_update, self.bpred.btb_lookup,
            self.storesets.load_dispatched, self.storesets.store_dispatched,
            self.storesets.train_violation,
            self.regs._ready, self.regs._producer,
            rob._commit_ring, rob.entries, rs._issue_ring, rs.entries,
            lq._complete_ring, lq.entries, sq._commit_ring, sq.entries,
            sq._window, sq._by_addr, sq.youngest_older,
            self._store_by_seq, self._store_seq_fifo,
            self._stall_credit, tuple(self._credit_fields.items()),
            self.PRUNE_INTERVAL,
            rob, rs, lq, sq, self.regs, self.fus,
        )

    # ------------------------------------------------------------------
    # Decode cache
    # ------------------------------------------------------------------
    def _decode_static(self, static: Instruction, key: int) -> tuple:
        opclass = static.opclass
        if static.is_branch:
            kind = _KIND_BRANCH
        elif opclass is OpClass.JUMP:
            kind = _KIND_JUMP
        elif static.is_load:
            kind = _KIND_LOAD
        elif static.is_store:
            kind = _KIND_STORE
        else:
            kind = _KIND_ALU
        latency = static.latency
        pool = POOL_OF[opclass]
        srcs = static.srcs
        rec = (
            static,                          # 0: pin against id reuse
            kind,                            # 1
            latency,                         # 2
            srcs,                            # 3
            len(srcs),                       # 4
            static.dest,                     # 5
            _EXEC_SLOT[opclass],             # 6
            self.fus._busy[pool],            # 7: pool occupancy dict
            self.fus._sizes[pool],           # 8
            1 if FU_PIPELINED[opclass] else (latency if latency > 1 else 1),  # 9
            static.pc // self.config.block_bytes,  # 10: fetch block
        )
        self._decode[key] = rec
        return rec

    # ------------------------------------------------------------------
    # Stall-credit hooks (keep _credit_total coherent with the dict;
    # also used by the base-class drain/stall_fetch_until/macro paths)
    # ------------------------------------------------------------------
    def _credit_stall(self, cause: str, cycles: int) -> None:
        if cycles > 0:
            self._stall_credit[cause] += cycles
            self._credit_total += cycles

    def _charge_commit_gap(self, gap: int, bucket: str | None) -> None:
        stats = self.stats
        if bucket == "offload":
            stats.cycles_offload += gap
            return
        if self._credit_total:
            credit = self._stall_credit
            for cause, field_name in self._credit_fields.items():
                if not gap:
                    break
                available = credit[cause]
                if available:
                    take = available if available < gap else gap
                    credit[cause] = available - take
                    self._credit_total -= take
                    setattr(stats, field_name,
                            getattr(stats, field_name) + take)
                    gap -= take
        stats.cycles_host += gap

    # ------------------------------------------------------------------
    # The compiled run loop
    # ------------------------------------------------------------------
    def process(self, dyn: DynamicInstruction) -> InstrTiming:
        """Assign cycles to one dynamic instruction (a one-instruction run)."""
        timings: list[InstrTiming] = []
        self._run((dyn,), timings)
        return timings[0]

    def _run(self, dyns, timings: list | None = None) -> None:
        """Time ``dyns`` in program order; the only fast timing body.

        Pipeline cursors live in locals for the whole run and are written
        back only before a slot-window prune and on exit, so nothing may
        read them while the loop runs.  An ``InstrTiming`` per
        instruction is appended to ``timings`` when one is passed.
        """
        (decode, sb, stats,
         fetch_counts, issue_counts, commit_counts,
         fetch_width, issue_width, commit_width,
         frontend_depth, l1i_latency, l1d_latency,
         btb_miss_penalty, mispredict_redirect,
         store_forward_latency, violation_squash_penalty,
         rob_entries, storesets_enabled, conservative,
         store_fifo_cap,
         icache_access, dcache_access, l2,
         bpred_update, btb_lookup,
         ss_load_dispatched, ss_store_dispatched,
         ss_train,
         regs_ready, regs_producer,
         rob_ring, rob_n, rs_ring, rs_n,
         lq_ring, lq_n, sq_ring, sq_n,
         sq_window, sq_by_addr, sq_youngest_older,
         store_by_seq, store_fifo,
         stall_credit, credit_fields,
         prune_interval,
         rob, rs, lq, sq, regs, fus) = self._invariants
        dyns = iter(dyns)
        pending = True
        # One pass of the outer loop per prune interval: the inner loop
        # breaks out when a prune is due, the ``finally`` writes every
        # cursor back, the prune runs against coherent pipeline state, and
        # the next pass reloads the cursors.
        while pending:
            seq = self.seq
            next_fetch = self.next_fetch_cycle
            barrier = self.fetch_barrier
            prev_dispatch = self.prev_dispatch_cycle
            prev_commit = self.prev_commit_cycle
            last_commit = self.last_commit_cycle
            last_block = self._last_fetch_block
            ops = self._ops_since_prune
            credit_total = self._credit_total
            uniform = self._uniform_count
            renames = regs.renames
            rob_head, rob_count = rob._head, rob._count
            rob_last = rob.last_commit_cycle
            rs_head, rs_count = rs._head, rs._count
            lq_head, lq_count = lq._head, lq._count
            sq_head, sq_count = sq._head, sq._count
            max_claimed = fus._max_claimed
            try:
                for dyn in dyns:
                    static = dyn.static
                    key = id(static)
                    rec = decode.get(key)
                    if rec is None or rec[0] is not static:
                        rec = self._decode_static(static, key)
                    kind = rec[1]
                    srcs = rec[3]
                    pc = dyn.pc

                    # ---- fetch & branch prediction -------------------
                    cycle = next_fetch if next_fetch >= barrier else barrier
                    count = fetch_counts.get(cycle, 0)
                    while count >= fetch_width:
                        cycle += 1
                        count = fetch_counts.get(cycle, 0)
                    if rec[10] != last_block:
                        sb[F_IC_ACC] += 1
                        extra = icache_access(pc) - l1i_latency
                        if extra > 0:
                            sb[F_IC_MISS] += 1
                            cycle += extra
                            count = fetch_counts.get(cycle, 0)
                            stall_credit["frontend"] += extra
                            credit_total += extra
                        last_block = rec[10]
                    fetch_counts[cycle] = count + 1
                    next_fetch = fetch = cycle

                    mispredicted = False
                    if kind == _KIND_BRANCH:
                        sb[F_PRED] += 1
                        taken = bool(dyn.taken)
                        prediction = bpred_update(pc, taken)
                        if prediction != taken:
                            mispredicted = True
                            sb[F_MISP] += 1
                        if prediction:
                            if not btb_lookup(pc):
                                sb[F_BTB] += 1
                                next_fetch = fetch + 1 + btb_miss_penalty
                                if btb_miss_penalty > 0:
                                    stall_credit["frontend"] += btb_miss_penalty
                                    credit_total += btb_miss_penalty
                            else:
                                # A correctly predicted taken branch ends
                                # the fetch group.
                                next_fetch = fetch + 1
                    elif kind == _KIND_JUMP:
                        if not btb_lookup(pc):
                            sb[F_BTB] += 1
                            next_fetch = fetch + 1 + btb_miss_penalty
                            if btb_miss_penalty > 0:
                                stall_credit["frontend"] += btb_miss_penalty
                                credit_total += btb_miss_penalty
                        else:
                            next_fetch = fetch + 1

                    # ---- rename / dispatch (in order) ----------------
                    dispatch = fetch + frontend_depth
                    if prev_dispatch > dispatch:
                        dispatch = prev_dispatch
                    if rob_count >= rob_n:
                        other = rob_ring[rob_head] + 1
                        if other > dispatch:
                            dispatch = other
                    if rs_count >= rs_n:
                        other = rs_ring[rs_head] + 1
                        if other > dispatch:
                            dispatch = other
                    if kind == _KIND_LOAD:
                        if lq_count >= lq_n:
                            other = lq_ring[lq_head] + 1
                            if other > dispatch:
                                dispatch = other
                    elif kind == _KIND_STORE:
                        if sq_count >= sq_n:
                            other = sq_ring[sq_head] + 1
                            if other > dispatch:
                                dispatch = other
                    prev_dispatch = dispatch

                    # ---- operand readiness ---------------------------
                    ready = dispatch + 1
                    for src in srcs:
                        other = regs_ready.get(src, 0)
                        if other > ready:
                            ready = other
                    sb[F_WAKEUPS] += rec[4]

                    violated = False
                    if kind == _KIND_LOAD:
                        sb[F_LOADS] += 1
                        if conservative:
                            older = sq_youngest_older(seq)
                            if older is not None and older.data_ready > ready:
                                ready = older.data_ready
                        elif storesets_enabled:
                            wait_seq = ss_load_dispatched(pc)
                            if wait_seq is not None:
                                predicted = store_by_seq.get(wait_seq)
                                if (predicted is not None
                                        and predicted.data_ready > ready):
                                    ready = predicted.data_ready
                    elif kind == _KIND_STORE:
                        sb[F_STORES] += 1
                        if storesets_enabled and not conservative:
                            prev_seq = ss_store_dispatched(pc, seq)
                            if prev_seq is not None:
                                prev = store_by_seq.get(prev_seq)
                                if prev is not None and prev.data_ready > ready:
                                    ready = prev.data_ready

                    # ---- issue / execute -----------------------------
                    # Earliest cycle with both a free unit for the op's
                    # full occupancy span and a free issue slot.
                    busy = rec[7]
                    pool_size = rec[8]
                    span = rec[9]
                    cycle = ready
                    if span == 1:
                        while True:
                            occupancy = busy.get(cycle, 0)
                            if occupancy < pool_size:
                                slots = issue_counts.get(cycle, 0)
                                if slots < issue_width:
                                    break
                            cycle += 1
                        busy[cycle] = occupancy + 1
                        end = cycle + 1
                    else:
                        while True:
                            free = True
                            for k in range(span):
                                if busy.get(cycle + k, 0) >= pool_size:
                                    free = False
                                    break
                            if free:
                                slots = issue_counts.get(cycle, 0)
                                if slots < issue_width:
                                    break
                            cycle += 1
                        for k in range(span):
                            claim = cycle + k
                            busy[claim] = busy.get(claim, 0) + 1
                        end = cycle + span
                    if end > max_claimed:
                        max_claimed = end
                    issue_counts[cycle] = slots + 1
                    issue = cycle
                    sb[rec[6]] += 1

                    if kind == _KIND_LOAD:
                        addr = dyn.addr
                        # The by-addr index holds the youngest windowed
                        # store per address; host seqs are monotone, so
                        # the seq guard only falls back on the (never-hit)
                        # non-monotone probe case.
                        alias = sq_by_addr.get(addr)
                        if alias is not None and alias.seq >= seq:
                            alias = None
                            for record in reversed(sq_window):
                                if record.seq < seq and record.addr == addr:
                                    alias = record
                                    break
                        if alias is not None and issue < alias.addr_ready:
                            # The load issued before the aliasing store
                            # executed: a memory-order violation, detected
                            # when the store runs.
                            violated = True
                            sb[F_VIOLATIONS] += 1
                            if storesets_enabled:
                                ss_train(pc, alias.pc)
                            complete = alias.data_ready + store_forward_latency
                            front = next_fetch if next_fetch >= barrier else barrier
                            redirect = alias.addr_ready + violation_squash_penalty
                            if redirect > front:
                                stall_credit["squash_memory"] += redirect - front
                                credit_total += redirect - front
                            if redirect > barrier:
                                barrier = redirect
                        elif alias is not None:
                            # Store-to-load forwarding from the store queue.
                            sb[F_FORWARDS] += 1
                            complete = issue + store_forward_latency
                            other = alias.data_ready + store_forward_latency
                            if other > complete:
                                complete = other
                        else:
                            sb[F_DC_ACC] += 1
                            before_l2 = l2.hits + l2.misses
                            lat_d = dcache_access(addr)
                            if lat_d > l1d_latency:
                                sb[F_DC_MISS] += 1
                            sb[F_L2_ACC] += l2.hits + l2.misses - before_l2
                            complete = issue + 1 + lat_d
                        lq_ring[lq_head] = complete
                        lq_head += 1
                        if lq_head == lq_n:
                            lq_head = 0
                        if lq_count < lq_n:
                            lq_count += 1
                    elif kind == _KIND_STORE:
                        complete = issue + 1
                    else:
                        complete = issue + rec[2]

                    # ---- misprediction redirect ----------------------
                    if mispredicted:
                        front = next_fetch if next_fetch >= barrier else barrier
                        redirect = complete + mispredict_redirect
                        if redirect > front:
                            stall_credit["squash_branch"] += redirect - front
                            credit_total += redirect - front
                        if redirect > barrier:
                            barrier = redirect
                        # Wrong-path work is not simulated, but its
                        # front-end energy is real: half-rate fetching
                        # until the branch resolves, capped at the ROB
                        # window.
                        wrong = (complete - fetch) * fetch_width // 2
                        if wrong > rob_entries:
                            wrong = rob_entries
                        if wrong > 0:
                            sb[F_WRONGPATH] += wrong

                    # ---- commit ----------------------------------------
                    cycle = complete + 1
                    if prev_commit > cycle:
                        cycle = prev_commit
                    gap = cycle - prev_commit
                    if gap:
                        if credit_total:
                            # Pending front-end stall credits are realized
                            # first, severest cause first; the rest of the
                            # gap is healthy host time.
                            for cause, field_name in credit_fields:
                                available = stall_credit[cause]
                                if available:
                                    take = available if available < gap else gap
                                    stall_credit[cause] = available - take
                                    credit_total -= take
                                    setattr(stats, field_name,
                                            getattr(stats, field_name) + take)
                                    gap -= take
                                    if not gap:
                                        break
                        sb[F_CYCLES_HOST] += gap
                    count = commit_counts.get(cycle, 0)
                    while count >= commit_width:
                        cycle += 1
                        # Commit-width contention is healthy throughput,
                        # not a stall.
                        sb[F_CYCLES_HOST] += 1
                        count = commit_counts.get(cycle, 0)
                    commit_counts[cycle] = count + 1
                    prev_commit = commit = cycle
                    if commit > last_commit:
                        last_commit = commit

                    rob_ring[rob_head] = commit
                    rob_head += 1
                    if rob_head == rob_n:
                        rob_head = 0
                    if rob_count < rob_n:
                        rob_count += 1
                    if commit > rob_last:
                        rob_last = commit
                    rs_ring[rs_head] = issue
                    rs_head += 1
                    if rs_head == rs_n:
                        rs_head = 0
                    if rs_count < rs_n:
                        rs_count += 1

                    if kind == _KIND_STORE:
                        # The address resolves once the base register is
                        # ready (AGU cycle), typically well before the
                        # store's data arrives.
                        base_ready = dispatch + 1
                        if srcs:
                            other = regs_ready.get(srcs[0], 0)
                            if other > base_ready:
                                base_ready = other
                        addr_ready = base_ready + 1
                        if issue < addr_ready:
                            addr_ready = issue
                        addr = dyn.addr
                        record = StoreRecord(
                            seq=seq,
                            pc=pc,
                            addr=addr,
                            addr_ready=addr_ready,
                            data_ready=complete,
                            commit=commit,
                        )
                        if len(sq_window) == sq_n:
                            evicted = sq_window[0]
                            if sq_by_addr.get(evicted.addr) is evicted:
                                del sq_by_addr[evicted.addr]
                        sq_window.append(record)
                        sq_by_addr[addr] = record
                        sq_ring[sq_head] = commit
                        sq_head += 1
                        if sq_head == sq_n:
                            sq_head = 0
                        if sq_count < sq_n:
                            sq_count += 1
                        store_by_seq[seq] = record
                        store_fifo.append(seq)
                        if len(store_fifo) > store_fifo_cap:
                            store_by_seq.pop(store_fifo.popleft(), None)
                        # The store writes the cache when it commits.
                        sb[F_DC_ACC] += 1
                        before_l2 = l2.hits + l2.misses
                        lat_d = dcache_access(addr)
                        if lat_d > l1d_latency:
                            sb[F_DC_MISS] += 1
                        sb[F_L2_ACC] += l2.hits + l2.misses - before_l2

                    # ---- writeback / scoreboard ----------------------
                    dest = rec[5]
                    if dest is not None:
                        if dest != "r0":
                            renames += 1
                            regs_ready[dest] = complete
                            regs_producer[dest] = seq
                        sb[F_RF_WRITES] += 1
                    # Readiness is re-read *after* the define so a dest
                    # that is also a source sees its new value — matching
                    # the interpreted model.
                    for src in srcs:
                        if issue - regs_ready.get(src, 0) <= 2:
                            sb[F_BYPASS] += 1
                        else:
                            sb[F_RF_READS] += 1

                    if timings is not None:
                        timings.append(_new_tuple(InstrTiming, (
                            seq, fetch, dispatch, issue, complete, commit,
                            mispredicted, violated,
                        )))
                    seq += 1
                    uniform += 1
                    ops += 1
                    if ops >= prune_interval:
                        ops = 0
                        break
                else:
                    pending = False
            finally:
                self.seq = seq
                self.next_fetch_cycle = next_fetch
                self.fetch_barrier = barrier
                self.prev_dispatch_cycle = prev_dispatch
                self.prev_commit_cycle = prev_commit
                self.last_commit_cycle = last_commit
                self._last_fetch_block = last_block
                self._ops_since_prune = ops
                self._credit_total = credit_total
                self._uniform_count = uniform
                regs.renames = renames
                rob._head, rob._count = rob_head, rob_count
                rob.last_commit_cycle = rob_last
                rs._head, rs._count = rs_head, rs_count
                lq._head, lq._count = lq_head, lq_count
                sq._head, sq._count = sq_head, sq_count
                fus._max_claimed = max_claimed
            if pending:
                self._prune_slot_windows()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> PipelineResult:
        """Flush the batched counters, then finalize as usual."""
        sb = self._sb
        stats = self.stats
        n = self._uniform_count
        if n:
            self._uniform_count = 0
            for index in _UNIFORM_SLOTS:
                sb[index] += n
        for index, name in enumerate(_SB_FIELDS):
            value = sb[index]
            if value:
                setattr(stats, name, getattr(stats, name) + value)
                sb[index] = 0
        return super().finish()

    def run_trace(self, trace) -> PipelineResult:
        self._run(trace)
        return self.finish()


def make_pipeline(
    config: CoreConfig | None = None,
    conservative_memory: bool = False,
    bus=None,
) -> OOOPipeline:
    """Construct a pipeline for the currently selected engine."""
    from repro.engine import fastpath_enabled

    cls = FastOOOPipeline if fastpath_enabled() else OOOPipeline
    return cls(config, conservative_memory, bus=bus)
