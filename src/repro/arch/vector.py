"""Vectorised dynamic cache walk over groups of independent task instances.

The batched executor (:mod:`repro.arch.batch`) vectorised the *static* part
of the detailed cost model but still walks the cache state record-at-a-time
in interpreted Python.  This module vectorises the *dynamic* part: the
set-associative tag stores, LRU state and hit/miss/eviction/writeback
accounting are mirrored into NumPy arrays and many instances' event streams
are walked at once in a lockstep kernel.

Independence criterion
----------------------
Task instances execute atomically in dispatch order, so two instances may be
walked in bulk only when the bulk walk replays the scalar state evolution
exactly: they must run on different cores (private tag stores disjoint by
construction) and neither may write shared data (a shared-data write
invalidates lines in *other* cores' private caches, coupling the group
through coherence).  Shared-level set aliasing between group members does
*not* force a flush: the kernel serialises events that land on the same tag
store row by rank, in stream order, and the group's concatenated event
stream is exactly the dispatch order the scalar path would execute — so
overlapping shared footprints evolve the shared LRU state bit-identically.
The engine's deferred-dispatch path (:mod:`repro.sim.engine`) accumulates
exactly such groups and hands them to :meth:`VectorWalkEngine.execute_group`
once one of them is wide and event-rich enough to amortise the kernel's
fixed per-group cost (a structural rule, see the engine); from then on
shared-data writers run as a group of one through
:meth:`VectorWalkEngine.execute_writer`, which replays their coherence
invalidations on the array state after the walk.  Before that point the
scalar walk of :class:`~repro.arch.batch.BatchedCoreExecutor` runs every
group, and the kernel has allocated nothing.

Both backends keep the executor's holder record (see
:mod:`repro.arch.batch`): after its L1 walk the kernel sets the filling
core's bit for every L1 fill of a written line, and a writer's invalidations
visit only the cores the record names.  Any future path that fills a private
level must set those bits too.

State representation
--------------------
The authoritative tag state lives in the per-level
:class:`~repro.arch.tagstore.LevelTagStore` NumPy planes owned by the
:class:`~repro.arch.hierarchy.MemorySystem`.  The kernel adopts the rows a
group touches (importing any ``OrderedDict`` working copies a scalar path
left behind) and walks the planes in place; touched rows simply *stay*
plane-resident — scalar readers materialise them back lazily through the
caches' :class:`~repro.arch.tagstore._SetViews`, so there is no per-group
export and the kernel's fixed overhead is the walk itself.

Every floating-point reduction replays the scalar operation order (per-block
exposure sums accumulate in event-rank order, per-instance totals in block
order, interconnect/DRAM latency totals by sequential ``np.cumsum`` fold),
so results are bit-identical to the scalar walk and to the per-record
:class:`~repro.sim.reference.ReferenceEngine`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.batch import BatchedCoreExecutor
from repro.arch.tagstore import LevelTagStore


class VectorWalkEngine:
    """Bulk evaluator for groups of commuting task instances.

    Parameters
    ----------
    batched:
        The scalar batched executor; the vector engine shares its
        :class:`~repro.arch.batch.ExecutionPlan` (NumPy geometry columns),
        its memoised contention tables and the live cache state.
    """

    def __init__(self, batched: BatchedCoreExecutor) -> None:
        self.batched = batched
        self.plan = batched.plan
        memory = batched.memory_system
        hierarchy = memory.hierarchy(0)
        self._num_private = len(hierarchy.private_caches)
        self._num_levels = len(hierarchy.caches)
        self._memory = memory
        self._num_cores = memory.num_cores
        #: Whether the memory system's :class:`LevelTagStore` planes and the
        #: statistics accumulators exist yet; allocated on the first group.
        self._active = False
        #: Deferred hit/miss/eviction/writeback/invalidation counters, one
        #: ``(views, 5)`` int64 array per level, built with the planes and
        #: drained into the Python statistics objects by
        #: :meth:`flush_statistics`.  Integer counters commute, so deferring
        #: them to the end of the run is exact; scalar paths keep
        #: incrementing the Python objects directly.
        self._stat_acc: Optional[List[np.ndarray]] = None
        #: Per-core, per-private-level statistics objects.
        self._private_stats = [
            [c.stats for c in memory.hierarchy(core).private_caches]
            for core in range(memory.num_cores)
        ]
        self._shared_stats = [c.stats for c in memory.shared_caches]
        #: NumPy-ified contention tables per active-core count.
        self._np_tables: Dict[int, tuple] = {}
        self._record_offsets = batched.columns.record_event_offsets
        self._event_is_write = batched.columns.event_is_write
        self._event_shared = batched.columns.event_shared
        #: The executor's holder record, shared with the scalar walk.
        self._holders = batched.holders

    def _tables(self, active_cores: int) -> tuple:
        """``(ic_latency, dram_latency, exposure values, exposure flags)``."""
        tables = self._np_tables.get(active_cores)
        if tables is None:
            ic_latency, dram_latency, _, exposure = self.batched.contention_tables(
                active_cores
            )
            values = np.array(
                [0.0 if e is None else e for e in exposure], dtype=np.float64
            )
            flags = np.array([e is not None for e in exposure], dtype=np.bool_)
            tables = (ic_latency, dram_latency, values, flags)
            self._np_tables[active_cores] = tables
        return tables

    def _ensure_states(self) -> List[LevelTagStore]:
        stores = self._memory.stores
        if not self._active:
            for store in stores:
                store.ensure_planes()
            self._stat_acc = [
                np.zeros((store.num_views, 5), dtype=np.int64) for store in stores
            ]
            self._active = True
        return stores

    # ------------------------------------------------------------------
    # Scalar-path interoperation.
    def flush_state(self) -> None:
        """Materialise every plane-resident row into the dict working copies.

        Post-run readers (snapshot tests, occupancy probes) may iterate the
        caches' set mappings directly; this forces the lazy export for
        every row the kernel still owns.
        """
        for store in self._memory.stores:
            if store.resident is not None:
                store.export_all()

    def flush_statistics(self) -> None:
        """Drain the deferred integer counters into the cache statistics."""
        acc_list = self._stat_acc
        if acc_list is None:
            return
        num_private = self._num_private
        for level, acc in enumerate(acc_list):
            if not acc.any():
                continue
            if level < num_private:
                for core in range(self._num_cores):
                    hits, misses, evictions, writebacks, invalidations = (
                        acc[core].tolist()
                    )
                    stats = self._private_stats[core][level]
                    stats.hits += hits
                    stats.misses += misses
                    stats.evictions += evictions
                    stats.writebacks += writebacks
                    stats.invalidations += invalidations
            else:
                hits, misses, evictions, writebacks, invalidations = (
                    acc[0].tolist()
                )
                stats = self._shared_stats[level - num_private]
                stats.hits += hits
                stats.misses += misses
                stats.evictions += evictions
                stats.writebacks += writebacks
                stats.invalidations += invalidations
            acc[:] = 0

    def _accumulate(
        self,
        level: int,
        cores: np.ndarray,
        hit: np.ndarray,
        evicted: Optional[np.ndarray],
        wrote_back: Optional[np.ndarray],
    ) -> None:
        """Defer one level's walk outcome into the integer accumulators."""
        acc = self._stat_acc[level]
        if level < self._num_private:
            num_cores = self._num_cores
            all_by = np.bincount(cores, minlength=num_cores)
            hit_by = np.bincount(cores[hit], minlength=num_cores)
            acc[:, 0] += hit_by
            acc[:, 1] += all_by - hit_by
            if evicted is not None:
                acc[:, 2] += np.bincount(cores[evicted], minlength=num_cores)
                acc[:, 3] += np.bincount(cores[wrote_back], minlength=num_cores)
        else:
            hits = int(hit.sum())
            acc[0, 0] += hits
            acc[0, 1] += hit.shape[0] - hits
            if evicted is not None:
                acc[0, 2] += int(evicted.sum())
                acc[0, 3] += int(wrote_back.sum())

    # ------------------------------------------------------------------
    def _finalise_static(
        self, members: Sequence[tuple]
    ) -> List[Tuple[float, float]]:
        """Results when no member's events expose stall latency."""
        static_cycles = self.plan.static_cycles
        instructions = self.plan.instructions
        results: List[Tuple[float, float]] = []
        for index, _core, _active, noise in members:
            total = static_cycles[index]
            if total <= 0.0:
                total = 1.0
            if noise is not None and noise != 1.0:
                total *= noise
            if total <= 0.0:
                results.append((total, 0.0))
                continue
            results.append((total, instructions[index] / total))
        return results

    def execute_group(
        self, members: Sequence[tuple]
    ) -> List[Tuple[float, float]]:
        """Walk a group of commuting instances in bulk.

        ``members`` is a sequence of ``(index, core_id, active_cores,
        noise)`` tuples in dispatch order.  Returns ``(cycles, ipc)`` per
        member, bit-identical to :meth:`BatchedCoreExecutor.execute_many`.
        """
        plan = self.plan
        size = len(members)
        index_arr = np.fromiter((m[0] for m in members), np.int64, size)
        core_arr = np.fromiter((m[1] for m in members), np.int64, size)

        offsets = self._record_offsets
        starts = offsets[index_arr]
        counts = offsets[index_arr + 1] - starts
        total_events = int(counts.sum())
        if not total_events:
            return self._finalise_static(members)

        # Concatenated event stream in dispatch order.
        member_of_event = np.repeat(np.arange(size, dtype=np.int64), counts)
        stream_base = np.cumsum(counts) - counts
        event_ids = (
            np.arange(total_events, dtype=np.int64)
            + (starts - stream_base)[member_of_event]
        )
        cores_of_event = core_arr[member_of_event]
        writes = self._event_is_write[event_ids]
        stream_writes = bool(writes.any())

        states = self._ensure_states()
        num_private = self._num_private
        num_levels = self._num_levels
        level_rank = plan.level_rank
        level_max_rank = plan.level_max_rank
        indices_list = [m[0] for m in members]

        # L1 walk over the full stream; the misses continue outwards.
        # Filtering preserves per-level stream order, which is all the
        # scalar walk's state evolution depends on.
        state = states[0]
        max_rank_l1 = level_max_rank[0]
        group_max = 0
        for record in indices_list:
            rank = max_rank_l1[record]
            if rank > group_max:
                group_max = rank
        l1_sets = plan.level_set[0][event_ids]
        l1_tags = plan.level_tag[0][event_ids]
        hit, evicted, wrote_back = state.walk(
            cores_of_event * state.num_sets + l1_sets,
            l1_tags,
            writes,
            ranks=level_rank[0][event_ids] if group_max else None,
            has_writes=stream_writes,
        )
        self._accumulate(0, cores_of_event, hit, evicted, wrote_back)
        keep = ~hit
        if not keep.any():
            # Every event hit L1, and with the engine's threshold an L1 hit
            # never exposes stall latency: each member's cycle count is its
            # exact static fold, and no interconnect/DRAM traffic occurred.
            return self._finalise_static(members)
        holders = self._holders
        if holders:
            # Every L1 miss filled the line: set the holder bits of the
            # written lines among them.
            filled = l1_tags[keep] * state.num_sets + l1_sets[keep]
            recorded = np.isin(filled, plan.written_lines)
            if recorded.any():
                for line, core in zip(
                    filled[recorded].tolist(), cores_of_event[keep][recorded].tolist()
                ):
                    holders[line] |= 1 << core

        deep_ids = event_ids[keep]
        deep_member = member_of_event[keep]
        alive_ids = deep_ids
        alive_member = deep_member
        alive_core = cores_of_event[keep]
        alive_writes = writes[keep]
        # Resolution level of every post-L1 event (miss_level = full miss),
        # plus each alive event's position in the post-L1 stream.
        lev = np.full(deep_ids.shape[0], num_levels, dtype=np.int64)
        pos = np.arange(deep_ids.shape[0], dtype=np.int64)
        ic_member: Optional[np.ndarray] = None
        for level in range(1, num_levels):
            if not alive_ids.size:
                break
            state = states[level]
            if level < num_private:
                max_rank_level = level_max_rank[level]
                group_max = 0
                for record in indices_list:
                    rank = max_rank_level[record]
                    if rank > group_max:
                        group_max = rank
                hit, evicted, wrote_back = state.walk(
                    alive_core * state.num_sets + plan.level_set[level][alive_ids],
                    plan.level_tag[level][alive_ids],
                    alive_writes,
                    ranks=level_rank[level][alive_ids] if group_max else None,
                    has_writes=stream_writes,
                )
            else:
                if ic_member is None:
                    # Every event reaching a shared level crosses the
                    # interconnect, hit or miss.
                    ic_member = alive_member
                hit, evicted, wrote_back = state.walk(
                    plan.level_set[level][alive_ids],
                    plan.level_tag[level][alive_ids],
                    alive_writes,
                    serialise=True,
                    has_writes=stream_writes,
                )
            self._accumulate(level, alive_core, hit, evicted, wrote_back)
            lev[pos[hit]] = level
            keep = ~hit
            alive_ids = alive_ids[keep]
            alive_member = alive_member[keep]
            alive_core = alive_core[keep]
            alive_writes = alive_writes[keep]
            pos = pos[keep]

        # ------------------------------------------------------------------
        # Interconnect / DRAM accounting.  Within one instance the latency
        # is constant, so the scalar path's sequential float accumulation is
        # replayed as a cumulative fold over per-event constants in dispatch
        # order (np.cumsum is a strict left fold for float64).
        # In steady state every member dispatched at the same instant sees
        # the same active-worker count; one shared table then replaces the
        # per-member stacking below.
        act0 = members[0][2]
        uniform = True
        for member in members:
            if member[2] != act0:
                uniform = False
                break
        if uniform:
            table0 = self._tables(act0 if act0 >= 1 else 1)
            table_rows = None
        else:
            table_rows = [self._tables(m[2] if m[2] >= 1 else 1) for m in members]
        dram_member = alive_member
        if ic_member is None:
            # No shared level: only full misses cross the interconnect.
            ic_member = alive_member
        if ic_member.size:
            interconnect = self._memory.interconnect
            fold = np.empty(ic_member.size + 1, dtype=np.float64)
            fold[0] = interconnect.stats.total_latency
            if uniform:
                fold[1:] = table0[0]
            else:
                ic_values = np.fromiter(
                    (t[0] for t in table_rows), np.float64, size
                )
                fold[1:] = ic_values[ic_member]
            interconnect.stats.transfers += ic_member.size
            interconnect.stats.total_latency = float(fold.cumsum()[-1])
        if dram_member.size:
            dram = self._memory.dram
            fold = np.empty(dram_member.size + 1, dtype=np.float64)
            fold[0] = dram.stats.total_latency
            if uniform:
                fold[1:] = table0[1]
            else:
                dram_values = np.fromiter(
                    (t[1] for t in table_rows), np.float64, size
                )
                fold[1:] = dram_values[dram_member]
            dram.stats.requests += dram_member.size
            dram.stats.total_latency = float(fold.cumsum()[-1])

        # ------------------------------------------------------------------
        # Exposure: only post-L1 events can expose stall latency, and only
        # a few outcomes per table do.  The exposed subset is usually small,
        # so the per-block aggregation runs in plain Python over it.
        if uniform:
            exposed_mask = table0[3][lev]
            if not exposed_mask.any():
                return self._finalise_static(members)
            exposed_member = deep_member[exposed_mask]
            exposed_values = table0[2][lev[exposed_mask]].tolist()
        else:
            flag_stack = np.stack([t[3] for t in table_rows])
            exposed_mask = flag_stack[deep_member, lev]
            if not exposed_mask.any():
                return self._finalise_static(members)
            value_stack = np.stack([t[2] for t in table_rows])
            exposed_member = deep_member[exposed_mask]
            exposed_values = value_stack[exposed_member, lev[exposed_mask]].tolist()
        exposed_blocks = plan.event_block[deep_ids[exposed_mask]].tolist()
        exposed_members = exposed_member.tolist()

        # Same-block exposed events are consecutive: within one record the
        # block ids are non-decreasing, and a global block id belongs to one
        # member.  The fold below therefore replays each block's exposure
        # accumulation in event order (unexposed events are skipped exactly
        # as the scalar loop skips them).
        max_outstanding = self.batched._max_outstanding
        block_repeat = plan.block_repeat_list
        block_dispatch = plan.block_dispatch_list
        stall_map: Dict[int, list] = {}

        def close_block(block: int, member: int, esum: float, emax: float, count: int) -> None:
            mlp = float(count) if count > 1 else 1.0
            if mlp > max_outstanding:
                mlp = max_outstanding
            stall = esum / mlp
            if emax > stall:
                stall = emax
            stall += block_repeat[block]
            entry = stall_map.get(member)
            if entry is None:
                stall_map[member] = entry = []
            entry.append((block, block_dispatch[block] + stall))

        current_block = exposed_blocks[0]
        current_member = exposed_members[0]
        esum = 0.0
        emax = 0.0
        count = 0
        for block, member, value in zip(
            exposed_blocks, exposed_members, exposed_values
        ):
            if block != current_block:
                close_block(current_block, current_member, esum, emax, count)
                current_block = block
                current_member = member
                esum = 0.0
                emax = 0.0
                count = 0
            esum += value
            if value > emax:
                emax = value
            count += 1
        close_block(current_block, current_member, esum, emax, count)

        # ------------------------------------------------------------------
        # Per-member totals: the left fold over block contributions, where a
        # block's contribution is its dispatch time plus (for blocks with
        # exposed events, i.e. exposed_sum > 0) the stall estimate.
        block_offsets = plan.block_offsets
        static_cycles = plan.static_cycles
        instructions = plan.instructions
        results: List[Tuple[float, float]] = []
        for g, (index, _core, _active, noise) in enumerate(members):
            stalled = stall_map.get(g)
            if stalled is None:
                total = static_cycles[index]
            else:
                first = block_offsets[index]
                contribution = block_dispatch[first : block_offsets[index + 1]]
                for block, value in stalled:
                    contribution[block - first] = value
                total = sum(contribution)
            if total <= 0.0:
                total = 1.0
            if noise is not None and noise != 1.0:
                total *= noise
            if total <= 0.0:
                results.append((total, 0.0))
                continue
            results.append((total, instructions[index] / total))
        return results

    # ------------------------------------------------------------------
    def execute_writer(
        self,
        index: int,
        core_id: int,
        active_cores: int,
        noise: Optional[float],
    ) -> Tuple[float, float]:
        """Execute a shared-data-writing record entirely on the array state.

        A shared-data write invalidates the written line in every *other*
        core's private caches, so such records never join a group — but once
        the kernel is engaged, executing them scalar-side would force a
        round trip through the ``OrderedDict`` stores.  The
        record's own walk never reads the rows its invalidations mutate
        (other cores' private rows), so the walk runs as a group of one and
        the coherence actions are applied afterwards; only the relative
        order of invalidations targeting the same line matters, which
        :meth:`_apply_invalidations` preserves by deduplicating to the first
        occurrence.  The walk sets the writer's holder bits for its fills
        before the invalidations read the record.  Bit-identical to the
        scalar path.
        """
        result = self.execute_group([(index, core_id, active_cores, noise)])
        self._apply_invalidations(index, core_id)
        return result[0]

    def _apply_invalidations(self, index: int, core_id: int) -> None:
        """Apply record ``index``'s coherence invalidations array-side.

        Replays :meth:`BatchedCoreExecutor._invalidate_remote` for every
        shared-write event of the record: the written line is dropped from
        the private levels of each other core the holder record names,
        counting one invalidation (plus a writeback if the line was dirty)
        per line actually present, and the record then keeps only the
        writer's bit.  Within one record no other core touches its own
        caches, so only the first invalidation of each distinct line can
        find it present — later duplicates are no-ops and are dropped up
        front.  The rows of cores that never held a line are not adopted.
        """
        plan = self.plan
        offsets = self._record_offsets
        start = int(offsets[index])
        end = int(offsets[index + 1])
        shared_writes = (
            self._event_is_write[start:end] & self._event_shared[start:end]
        )
        if not shared_writes.any():
            return
        events = np.nonzero(shared_writes)[0] + start
        states = self._ensure_states()
        written = (
            plan.level_tag[0][events] * np.int64(states[0].num_sets)
            + plan.level_set[0][events]
        )
        # One (line, holder) pair per other core that may hold a line.
        holders = self._holders
        writer_bit = 1 << core_id
        pair_lines: List[int] = []
        pair_cores: List[int] = []
        for line in dict.fromkeys(written.tolist()):
            others = holders[line] & ~writer_bit
            holders[line] = writer_bit
            while others:
                bit = others & -others
                others ^= bit
                pair_lines.append(line)
                pair_cores.append(bit.bit_length() - 1)
        if not pair_lines:
            return
        lines = np.array(pair_lines, dtype=np.int64)
        cores = np.array(pair_cores, dtype=np.int64)
        for level in range(self._num_private):
            state = states[level]
            num_sets = state.num_sets
            rows = cores * num_sets + lines % num_sets
            state.adopt(rows)
            match = state.tags[rows] == (lines // num_sets)[:, None]
            hit = match.any(axis=1)
            if not hit.any():
                continue
            hit_rows = rows[hit]
            hit_ways = match.argmax(axis=1)[hit]
            hit_cores = cores[hit]
            acc = self._stat_acc[level]
            acc[:, 4] += np.bincount(hit_cores, minlength=self._num_cores)
            acc[:, 3] += np.bincount(
                hit_cores[state.dirty[hit_rows, hit_ways]], minlength=self._num_cores
            )
            state.tags[hit_rows, hit_ways] = -1
