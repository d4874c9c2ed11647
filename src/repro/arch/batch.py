"""Batched detailed-mode execution over a columnar trace.

:class:`BatchedCoreExecutor` is the hot-path replacement for calling
:meth:`repro.arch.core.DetailedCoreModel.execute` once per task instance: its
one entry point, :meth:`BatchedCoreExecutor.execute_many`, walks a group of
instances (or a group of one) in dispatch order.  It exploits the columnar
trace backbone (:mod:`repro.trace.columns`) to split the detailed cost model
into

* a **static part**, precomputed vectorised over the whole trace at
  construction time: per-block dispatch cycles
  (``instructions * base_cpi / issue_width``), the repeated-access
  serialisation term of the ROB model, and the cache-geometry decomposition
  (per level: set index and tag) of every memory event's address, and
* a **dynamic part**, evaluated at dispatch: the sequential cache-state walk
  (hits, misses, LRU updates, coherence invalidations), the active-core
  contention terms of the interconnect and DRAM models — both constant within
  one task instance, so they are computed once per call instead of once per
  event — and the optional noise factor.

The executor operates **in place** on the same :class:`~repro.arch.cache.Cache`
objects as the per-record model: their per-set ``OrderedDict`` working copies
(lazy views of the authoritative :class:`~repro.arch.tagstore.LevelTagStore`
planes — a set the vector kernel holds plane-side is materialised on first
scalar touch through the view's ``__missing__``) and their statistics
counters.  Every floating-point operation replays the exact order of the
per-record implementation, so detailed-mode cycle counts, IPCs and cache/DRAM
statistics are bit-identical between the paths — this is asserted against
:class:`~repro.sim.reference.ReferenceEngine` by the equivalence tests —
while the batched path avoids the per-event method dispatch, dataclass
allocation and latency-list construction that dominated the original
profile.

One walk serves every hierarchy an
:class:`~repro.arch.config.ArchitectureConfig` accepts: a private L1, any
further private levels, then the shared levels, if any — the Table II shapes
are two private levels over one shared (high-performance) and one private
level over one shared (low-power).  As in
:meth:`~repro.arch.hierarchy.CacheHierarchy.access`, an access crosses the
interconnect when it leaves the last private level, or on a full miss when
no level is shared.

Holder record
-------------
A shared-data write drops the written line from every *other* core's
private levels.  Rather than probe all of them, each executor keeps a
**holder record** (:attr:`BatchedCoreExecutor.holders`): for every line that
some shared-data write of the trace targets, a bitmask of the cores that may
hold it in a private level.  A write visits only the cores whose bit is set
and then leaves only the writer's bit.  The record is a superset of the true
holders because every L1 fill of a recorded line sets the filling core's
bit, and the outer private levels fill only on that same L1 miss; evictions
leave bits behind, which costs a wasted probe, never a missed one.  The rule
for any future path that fills a private level (functional warming, say) is
the same: it must set the holder bits of the lines it fills, or a later
write will miss a copy.  Invalidation and writeback counters are per cache
and popping a line leaves the other lines' LRU order alone, so visiting only
the holders leaves every cycle, statistic and tag store bit-identical.  A
trace without shared-data writes has an empty record, and the walk then does
no tracking at all.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import ArchitectureConfig
from repro.arch.hierarchy import MemorySystem
from repro.arch.rob import RobModel
from repro.arch.tagstore import sorted_unique
from repro.trace.columns import TraceColumns


class ExecutionPlan(NamedTuple):
    """Static per-trace precomputation of the detailed cost model.

    One plan is built per (trace columns, model geometry) pair and memoised
    in ``columns.plan_cache``, so re-simulating the same trace with a
    different thread count or controller reuses it.  The geometry columns are
    kept both as NumPy arrays (gathered from by the vectorised walk engine in
    :mod:`repro.arch.vector`) and as plain Python lists (bound by the scalar
    walk of :meth:`BatchedCoreExecutor.execute_many`, where list indexing
    beats NumPy scalar indexing).  Every field is built with the plan except
    the per-record walk streams of ``record_blocks``, which are compiled on a
    record's first detailed execution.
    """

    #: Per cache level, the set index of every event (NumPy int64).
    level_set: Tuple[np.ndarray, ...]
    #: Per cache level, the tag of every event (NumPy int64).
    level_tag: Tuple[np.ndarray, ...]
    #: Block id of every event.
    event_block: np.ndarray
    #: Per cache level, the rank of every event among the *same-record*
    #: events that map to the same set at that level (0 for the first).  At
    #: private levels two group members never share a tag-store row, so this
    #: static rank is exactly the serialisation order the vector kernel
    #: needs; ``level_max_rank`` holds the per-record maximum per level so an
    #: all-distinct group (the common case) is detected without touching the
    #: arrays.
    level_rank: Tuple[np.ndarray, ...]
    level_max_rank: Tuple[list, ...]
    #: Exact contention-free detailed cycle count per record: the sequential
    #: left fold of ``block_dispatch_list`` over the record's blocks,
    #: bit-equal to the scalar walk when no event exposes stall latency.
    static_cycles: list
    #: Per-block dispatch cycles, ``instructions * base_cpi / issue_width``.
    block_dispatch_list: list
    #: Per-block repeated-access serialisation term of the ROB model.
    block_repeat_list: list
    #: ``level_set`` and ``level_tag`` as Python lists.
    level_set_list: tuple
    level_tag_list: tuple
    block_offsets: list
    instructions: list
    detail_events: list
    #: Per record, whether it writes shared data (and so never joins a
    #: deferred group).
    has_shared_write_list: list
    #: Sound per-record lower bound on detailed cycles (pre-noise): the
    #: contention-free dispatch time with a relative safety margin for
    #: summation-order differences.  Used by the engine's deferred-dispatch
    #: path to order completions without evaluating the cache walk.
    cycles_floor_list: list
    #: Per record, a tuple of ``(l1_events, dispatch, repeat)`` triples — one
    #: per block — where ``l1_events`` is the block's pre-zipped L1 walk
    #: stream of ``(l1_set, l1_tag, is_write, coherent_write, event_id)``
    #: tuples.  The scalar walk iterates this structure with one tuple unpack
    #: per block and one per event.  The ``coherent_write`` flag
    #: pre-evaluates ``is_write and shared`` so the hot loop's coherence gate
    #: is a single truth test.  Indexed by record; each record's tuple is
    #: compiled on its first lookup (see :class:`RecordBlocks`).
    record_blocks: "RecordBlocks"
    #: Sorted, distinct line numbers (``address // line_bytes``) that some
    #: shared-data write targets: the keys of every executor's holder record.
    written_lines: np.ndarray


class RecordBlocks(dict):
    """Per-record walk streams, compiled on first detailed execution.

    ``blocks[index]`` is record ``index``'s tuple of ``(l1_events,
    dispatch, repeat)`` triples (see :attr:`ExecutionPlan.record_blocks`).
    Compiling them for every record was most of the cost of building a plan,
    yet a sampled run executes only a few percent of the records in detail.
    So a lookup that misses compiles the :attr:`CHUNK` records around it,
    and every later lookup is a plain dict hit.  The detailed instances of a
    sampled run cluster (warm-up and history windows of one task type), and
    one comprehension over a run of records costs far less per record than
    a call per record, so a detailed run compiles the whole trace at about
    the cost of building it eagerly.
    """

    #: Records compiled together on a miss.
    CHUNK = 16

    __slots__ = ("_streams", "_dispatch", "_repeat", "_block_offsets", "_event_offsets")

    def __init__(self, streams: tuple, dispatch: list, repeat: list,
                 block_offsets: list, event_offsets: list) -> None:
        super().__init__()
        #: Per-event ``(l1_set, l1_tag, is_write, coherent_write)`` lists.
        self._streams = streams
        self._dispatch = dispatch
        self._repeat = repeat
        self._block_offsets = block_offsets
        self._event_offsets = event_offsets

    def __missing__(self, record: int) -> tuple:
        block_offsets = self._block_offsets
        event_offsets = self._event_offsets
        first = record - record % self.CHUNK
        last = min(first + self.CHUNK, len(block_offsets) - 1)
        if not 0 <= record < last:
            raise KeyError(record)
        b0, b1 = block_offsets[first], block_offsets[last]
        l1_set, l1_tag, is_write, coherent = self._streams
        block_events = [
            tuple(zip(l1_set[s:e], l1_tag[s:e], is_write[s:e], coherent[s:e], range(s, e)))
            for s, e in zip(event_offsets[b0:b1], event_offsets[b0 + 1:b1 + 1])
        ]
        triples = list(zip(block_events, self._dispatch[b0:b1], self._repeat[b0:b1]))
        for index in range(first, last):
            self[index] = tuple(
                triples[block_offsets[index] - b0:block_offsets[index + 1] - b0]
            )
        return self[record]


def _plan_key(columns: TraceColumns, caches: list, core, rob_model: RobModel) -> tuple:
    return (
        "batched-executor",
        caches[0].config.line_bytes,
        tuple(c.config.num_sets for c in caches),
        core.base_cpi,
        core.issue_width,
        rob_model.l1_latency,
    )


def build_execution_plan(
    columns: TraceColumns, caches: list, core, rob_model: RobModel
) -> ExecutionPlan:
    """Build (or fetch from ``columns.plan_cache``) the execution plan."""
    plan_key = _plan_key(columns, caches, core, rob_model)
    plan = columns.plan_cache.get(plan_key)
    if plan is not None:
        return plan

    # Contention-free base cycles: per-block dispatch time at the core's
    # issue width.  int64 -> float64 conversion and the multiply/divide
    # reproduce `instructions * base_cpi / issue_width` bit-exactly.
    block_dispatch = (
        columns.block_instructions.astype(np.float64)
        * core.base_cpi
        / core.issue_width
    )

    # Repeated-access serialisation term of RobModel.block_cycles: the
    # per-block sum of (weight - 1) scaled by a constant.
    repeats = np.maximum(columns.event_weight - 1, 0)
    cumulative = np.concatenate(([0], np.cumsum(repeats, dtype=np.int64)))
    offsets = columns.event_offsets
    repeats_per_block = cumulative[offsets[1:]] - cumulative[offsets[:-1]]
    block_repeat = (
        repeats_per_block.astype(np.float64)
        * (rob_model.l1_latency / core.issue_width)
        * 0.1
    )

    # Cache geometry: per level, the set index and tag of every event.
    line_numbers = columns.event_address // caches[0].config.line_bytes
    level_set = []
    level_tag = []
    for cache in caches:
        num_sets = cache.config.num_sets
        level_set.append(line_numbers % num_sets)
        level_tag.append(line_numbers // num_sets)

    # Event topology: the block of every event.
    event_block = np.repeat(
        np.arange(columns.num_blocks, dtype=np.int64), offsets[1:] - offsets[:-1]
    )

    record_offsets = columns.record_event_offsets
    record_events = record_offsets[1:] - record_offsets[:-1]
    shared_write = columns.event_is_write & columns.event_shared
    sw_cum = np.concatenate(([0], np.cumsum(shared_write, dtype=np.int64)))
    has_shared_write = (sw_cum[record_offsets[1:]] - sw_cum[record_offsets[:-1]]) > 0

    # The lines shared-data writes target.
    written_lines = sorted_unique(line_numbers[shared_write])

    # Per-level, per-record set-collision ranks (see ExecutionPlan docstring).
    num_records = record_events.shape[0]
    record_of_event = np.repeat(
        np.arange(num_records, dtype=np.int64), record_events
    )
    num_events = columns.num_events
    level_rank = []
    level_max_rank = []
    event_positions = np.arange(num_events, dtype=np.int64)
    for sets_at_level, cache in zip(level_set, caches):
        key = record_of_event * np.int64(cache.config.num_sets) + sets_at_level
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        if num_events:
            new_segment = np.concatenate(
                ([True], sorted_key[1:] != sorted_key[:-1])
            )
        else:
            new_segment = np.zeros(0, dtype=np.bool_)
        segment_start = np.maximum.accumulate(
            np.where(new_segment, event_positions, 0)
        )
        rank = np.empty(num_events, dtype=np.int64)
        rank[order] = event_positions - segment_start
        max_rank = np.zeros(num_records, dtype=np.int64)
        np.maximum.at(max_rank, record_of_event, rank)
        level_rank.append(rank)
        level_max_rank.append(max_rank.tolist())

    # Lower bound on the detailed cycle count: the dispatch contribution of
    # every block (stalls are non-negative).  The segment sums here use a
    # different float summation order than the scalar loop, so shave a
    # relative margin far above the worst-case summation error.
    bd_cum = np.concatenate(([0.0], np.cumsum(block_dispatch, dtype=np.float64)))
    block_offsets = columns.block_offsets
    cycles_floor = np.maximum(
        bd_cum[block_offsets[1:]] - bd_cum[block_offsets[:-1]], 0.0
    ) * (1.0 - 1e-9)

    # Exact stall-free cycle counts: the same left fold the scalar loop
    # performs when every block's exposed sum is zero.  Computed once in
    # Python because `a + b + c` and the cumsum segment difference above are
    # not bit-equal in general.
    bd_list = block_dispatch.tolist()
    bo_list = block_offsets.tolist()
    static_cycles = []
    for record in range(num_records):
        total = 0.0
        for block in range(bo_list[record], bo_list[record + 1]):
            total += bd_list[block]
        static_cycles.append(total)

    # Per-record block structure for the scalar walk, compiled lazily from
    # the per-event L1 columns.
    level_set_list = tuple(s.tolist() for s in level_set)
    level_tag_list = tuple(t.tolist() for t in level_tag)
    br_list = block_repeat.tolist()
    record_blocks = RecordBlocks(
        (level_set_list[0], level_tag_list[0], columns.event_is_write.tolist(),
         shared_write.tolist()),
        bd_list, br_list, bo_list, offsets.tolist(),
    )

    plan = ExecutionPlan(
        level_set=tuple(level_set),
        level_tag=tuple(level_tag),
        event_block=event_block,
        level_rank=tuple(level_rank),
        level_max_rank=tuple(level_max_rank),
        static_cycles=static_cycles,
        block_dispatch_list=bd_list,
        block_repeat_list=br_list,
        level_set_list=level_set_list,
        level_tag_list=level_tag_list,
        block_offsets=bo_list,
        instructions=columns.instructions.tolist(),
        detail_events=columns.detail_events_per_record().tolist(),
        has_shared_write_list=has_shared_write.tolist(),
        cycles_floor_list=cycles_floor.tolist(),
        record_blocks=record_blocks,
        written_lines=written_lines,
    )
    columns.plan_cache[plan_key] = plan
    return plan


class BatchedCoreExecutor:
    """Executes task instances of one columnar trace in detailed mode.

    Parameters
    ----------
    columns:
        Columnar trace data; instances are addressed by record index.
    architecture:
        Architecture configuration (cache geometry, core parameters).
    memory_system:
        The machine's shared memory state.  The executor reads and mutates
        the same cache tag stores and statistics as the per-record model.
    rob_model:
        The ROB-occupancy timing model shared with the per-record path (its
        parameters seed the precomputed static terms).
    """

    def __init__(
        self,
        columns: TraceColumns,
        architecture: ArchitectureConfig,
        memory_system: MemorySystem,
        rob_model: RobModel,
    ) -> None:
        self.columns = columns
        self.architecture = architecture
        self.memory_system = memory_system
        self.rob_model = rob_model

        core = architecture.core
        self._hide = rob_model.hide_capacity()
        self._l1_threshold = rob_model.l1_latency
        self._max_outstanding = max(1.0, core.rob_size / 32.0)

        # ------------------------------------------------------------------
        # Static precomputation, vectorised over the whole trace — memoised
        # on the columns (keyed by model geometry) so that re-simulating one
        # trace with different thread counts or controllers pays it once.
        # ------------------------------------------------------------------
        hierarchy = memory_system.hierarchy(0)
        caches = hierarchy.caches
        self._num_private = len(hierarchy.private_caches)
        self._have_shared = bool(hierarchy.shared_caches)
        self._num_levels = len(caches)
        self._level_latency: List[int] = [c.config.latency_cycles for c in caches]
        self._level_assoc: List[int] = [c.config.associativity for c in caches]

        plan = build_execution_plan(columns, caches, core, rob_model)
        self.plan = plan
        ev_set = plan.level_set_list
        ev_tag = plan.level_tag_list
        self._record_blocks = plan.record_blocks
        #: The holder record (see the module docstring): written line ->
        #: bitmask of the cores that may hold it in a private level.  Each
        #: executor owns its record; the plan it starts from is shared.
        self.holders: Dict[int, int] = dict.fromkeys(plan.written_lines.tolist(), 0)
        self._l1_num_sets = caches[0].config.num_sets
        self._l1_set_list = ev_set[0]
        self._l1_tag_list = ev_tag[0]
        #: Persistent flat per-(core, level) counter block for
        #: :meth:`execute_many`: ``[core * stride + level * 4 + k]`` with
        #: ``k`` in (hits, misses, evictions, writebacks).  Zeroed slot-wise
        #: during each group's writeback, so no per-group allocation.
        self._group_acc = [0] * (memory_system.num_cores * self._num_levels * 4)
        self._instructions = plan.instructions
        #: Contention tables memoised per active-core count (see
        #: :meth:`contention_tables`); shared with the vector engine.
        self._tables: Dict[int, tuple] = {}

        # Per-core view of the tag stores: [core][level] -> (sets, stats),
        # plus the flattened hot-loop bindings (sets, associativity, per-event
        # set index, per-event tag) hoisted out of the per-call path.
        self._core_levels: List[List[Tuple[list, object]]] = []
        self._core_level_data: List[List[tuple]] = []
        for core_id in range(memory_system.num_cores):
            view = memory_system.hierarchy(core_id)
            caches_for_core = view.private_caches + view.shared_caches
            self._core_levels.append([(c._sets, c.stats) for c in caches_for_core])
            self._core_level_data.append(
                [
                    (
                        caches_for_core[k]._sets,
                        self._level_assoc[k],
                        ev_set[k],
                        ev_tag[k],
                    )
                    for k in range(self._num_levels)
                ]
            )
        # What a shared-data write probes on each holder core: its private
        # levels, with the per-event set index and tag of each.
        self._private_targets: List[List[tuple]] = [
            [
                (cache._sets, cache.stats, ev_set[level], ev_tag[level])
                for level, cache in enumerate(
                    memory_system.hierarchy(core_id).private_caches
                )
            ]
            for core_id in range(memory_system.num_cores)
        ]

    # ------------------------------------------------------------------
    def contention_tables(self, active_cores: int) -> tuple:
        """Latency and exposure tables for one active-core count.

        Returns ``(ic_latency, dram_latency, hit_latency, exposure)`` exactly
        as the per-record model computes them; the dynamic contention terms
        are constant for the duration of one task instance, and within one
        simulation they recur for the same ``active_cores`` value, so the
        tables are memoised per count.  The float operation order below
        replays :meth:`CacheHierarchy.access` bit-exactly.
        """
        tables = self._tables.get(active_cores)
        if tables is not None:
            return tables
        interconnect = self.memory_system.interconnect
        dram = self.memory_system.dram

        ic_config = interconnect.config
        ic_latency = float(ic_config.interconnect_latency_cycles) + (
            ic_config.interconnect_contention_per_core * (active_cores - 1)
        )
        dram_config = dram.config
        dram_base = float(dram_config.dram_latency_cycles)
        demand = 0.02 * active_cores
        utilisation = min(0.95, demand / dram_config.dram_bandwidth_lines_per_cycle)
        dram_latency = dram_base + dram_base * (
            utilisation / (2.0 * (1.0 - utilisation))
        )

        # Walk-latency table: the accumulated latency charged when an access
        # hits at level k, replaying the addition order of
        # CacheHierarchy.access (interconnect crossing after the last private
        # level), plus the full-miss latency.
        num_private = self._num_private
        have_shared = self._have_shared
        walk = 0.0
        hit_latency: List[float] = []
        for level, latency_cycles in enumerate(self._level_latency):
            walk += latency_cycles
            hit_latency.append(walk)
            if level == num_private - 1 and have_shared:
                walk += ic_latency
        if not have_shared:
            walk += ic_latency
        miss_latency = walk + dram_latency

        # Exposure table: the stall latency an access exposes beyond the
        # ROB's hiding capacity is a per-(hit level | miss) constant within
        # one call.  ``None`` marks outcomes that contribute nothing to the
        # block's stall estimate — a latency at or below the L1 threshold, or
        # one fully hidden by the ROB (its ``max(0, lat - hide)`` term is
        # exactly 0.0, and adding 0.0 to a non-negative sum is a bitwise
        # no-op) — so the hot loop skips their bookkeeping entirely.
        hide = self._hide
        l1_threshold = self._l1_threshold
        exposure: List[Optional[float]] = []
        for latency in hit_latency:
            if latency > l1_threshold and latency - hide > 0.0:
                exposure.append(latency - hide)
            else:
                exposure.append(None)
        exposure.append(
            miss_latency - hide
            if miss_latency > l1_threshold and miss_latency - hide > 0.0
            else None
        )
        tables = (ic_latency, dram_latency, hit_latency, exposure)
        self._tables[active_cores] = tables
        return tables

    # ------------------------------------------------------------------
    def execute_many(self, entries: Sequence[tuple]) -> List[Tuple[float, float]]:
        """Execute ``(index, core_id, active_cores, noise)`` entries in order.

        This is the scalar walk, for every accepted hierarchy shape.  Returns
        ``(cycles, ipc)`` per entry, bit-identical to running each record
        through ``DetailedCoreModel.execute`` in turn (same cache walk, same
        float operation order, same statistics).  The per-call setup is
        hoisted out of the loop: contention tables are re-resolved only when
        the active-core count changes (within one dispatch instant it never
        does), the interconnect/DRAM latency folds carry across entries,
        hit/miss counters accumulate in locals and in the flat per-(core,
        level) counter block and are written back once per call (integer
        sums, so the aggregate is identical), and the walk iterates the
        pre-zipped ``record_blocks`` structure.  Every L1 fill of a line in
        the holder record sets the filling core's bit, and a shared-data
        write probes only the cores the record names.  The engine sends
        whole deferred groups through here while the vector kernel is not
        engaged, and shared-data writers as groups of one.
        """
        memory = self.memory_system
        interconnect = memory.interconnect
        dram = memory.dram
        num_private = self._num_private
        num_levels = self._num_levels
        miss_level = num_levels
        record_blocks = self._record_blocks
        max_outstanding = self._max_outstanding
        instructions = self._instructions
        core_level_data = self._core_level_data
        core_levels = self._core_levels
        contention_tables = self.contention_tables
        invalidate_remote = self._invalidate_remote
        holders = self.holders
        l1_num_sets = self._l1_num_sets
        acc = self._group_acc
        stride = num_levels * 4

        ic_transfers = 0
        ic_total = interconnect.stats.total_latency
        dram_requests = 0
        dram_total = dram.stats.total_latency
        touched: set = set()
        touched_add = touched.add

        tables_for = -1
        ic_latency = dram_latency = 0.0
        exposure: List[Optional[float]] = []
        l1_exposure: Optional[float] = None
        results: List[Tuple[float, float]] = []
        for index, core_id, active_cores, noise in entries:
            if active_cores < 1:
                active_cores = 1
            if active_cores != tables_for:
                ic_latency, dram_latency, _, exposure = contention_tables(
                    active_cores
                )
                l1_exposure = exposure[0]
                tables_for = active_cores

            level_data = core_level_data[core_id]
            l1_sets, l1_assoc, _l1_set_index, _l1_tag_index = level_data[0]
            outer_levels = level_data[1:]
            base = core_id * stride
            touched_add(core_id)

            l1_hits = l1_misses = l1_evictions = l1_writebacks = 0
            total_cycles = 0.0
            for l1_events, dispatch, repeat in record_blocks[index]:
                exposed_sum = 0.0
                exposed_max = 0.0
                exposed_count = 0
                for l1_set, tag, is_write, coherent, event in l1_events:
                    lines = l1_sets[l1_set]
                    if tag in lines:
                        l1_hits += 1
                        lines.move_to_end(tag)
                        if is_write:
                            lines[tag] = True
                            if coherent:
                                invalidate_remote(core_id, event)
                        if l1_exposure is not None:
                            exposed_count += 1
                            if l1_exposure > exposed_max:
                                exposed_max = l1_exposure
                            exposed_sum += l1_exposure
                        continue
                    l1_misses += 1
                    if len(lines) >= l1_assoc:
                        l1_evictions += 1
                        if lines.popitem(last=False)[1]:
                            l1_writebacks += 1
                    lines[tag] = is_write
                    if holders:
                        line_number = tag * l1_num_sets + l1_set
                        if line_number in holders:
                            holders[line_number] |= 1 << core_id
                    level = 1
                    off = base + 4
                    for sets, associativity, set_index, tag_index in outer_levels:
                        lines = sets[set_index[event]]
                        tag = tag_index[event]
                        if tag in lines:
                            acc[off] += 1
                            lines.move_to_end(tag)
                            if is_write:
                                lines[tag] = True
                            if level >= num_private:
                                ic_transfers += 1
                                ic_total += ic_latency
                            break
                        acc[off + 1] += 1
                        if len(lines) >= associativity:
                            acc[off + 2] += 1
                            if lines.popitem(last=False)[1]:
                                acc[off + 3] += 1
                        lines[tag] = is_write
                        level += 1
                        off += 4
                    else:
                        level = miss_level
                        dram_requests += 1
                        dram_total += dram_latency
                        ic_transfers += 1
                        ic_total += ic_latency
                    if coherent:
                        invalidate_remote(core_id, event)
                    exposed = exposure[level]
                    if exposed is not None:
                        exposed_count += 1
                        if exposed > exposed_max:
                            exposed_max = exposed
                        exposed_sum += exposed
                if exposed_sum <= 0.0:
                    total_cycles += dispatch
                    continue
                mlp = float(exposed_count) if exposed_count > 1 else 1.0
                if mlp > max_outstanding:
                    mlp = max_outstanding
                stall = exposed_sum / mlp
                if exposed_max > stall:
                    stall = exposed_max
                stall += repeat
                total_cycles += dispatch + stall

            if l1_hits or l1_misses:
                acc[base] += l1_hits
                acc[base + 1] += l1_misses
                acc[base + 2] += l1_evictions
                acc[base + 3] += l1_writebacks
            if total_cycles <= 0.0:
                total_cycles = 1.0
            if noise is not None and noise != 1.0:
                total_cycles *= noise
            if total_cycles <= 0.0:
                results.append((total_cycles, 0.0))
                continue
            results.append((total_cycles, instructions[index] / total_cycles))

        if ic_transfers:
            interconnect.stats.transfers += ic_transfers
            interconnect.stats.total_latency = ic_total
        if dram_requests:
            dram.stats.requests += dram_requests
            dram.stats.total_latency = dram_total
        # Per-group statistics writeback; the counter slots are re-zeroed as
        # they drain so the flat block is clean for the next group.
        num_shared = num_levels - num_private
        shared_totals = [0] * (4 * num_shared)
        for core_id in touched:
            levels = core_levels[core_id]
            cbase = core_id * stride
            for level in range(num_private):
                off = cbase + level * 4
                level_hits = acc[off]
                level_misses = acc[off + 1]
                if level_hits or level_misses:
                    stats = levels[level][1]
                    stats.hits += level_hits
                    stats.misses += level_misses
                    stats.evictions += acc[off + 2]
                    stats.writebacks += acc[off + 3]
                    acc[off] = 0
                    acc[off + 1] = 0
                    acc[off + 2] = 0
                    acc[off + 3] = 0
            sbase = cbase + num_private * 4
            for k in range(4 * num_shared):
                shared_totals[k] += acc[sbase + k]
                acc[sbase + k] = 0
        if num_shared and touched:
            shared_levels = core_levels[next(iter(touched))]
            for level in range(num_private, num_levels):
                k = (level - num_private) * 4
                stats = shared_levels[level][1]
                stats.hits += shared_totals[k]
                stats.misses += shared_totals[k + 1]
                stats.evictions += shared_totals[k + 2]
                stats.writebacks += shared_totals[k + 3]
        return results

    # ------------------------------------------------------------------
    def _invalidate_remote(self, writer_core: int, event: int) -> None:
        """Write-invalidate coherence for a shared-data write.

        Probes the private levels of the other cores the holder record
        names, then leaves only the writer's bit: the writer holds the line
        in its L1 now, and every other copy is gone.
        """
        holders = self.holders
        line_number = (
            self._l1_tag_list[event] * self._l1_num_sets + self._l1_set_list[event]
        )
        writer_bit = 1 << writer_core
        others = holders[line_number] & ~writer_bit
        holders[line_number] = writer_bit
        private_targets = self._private_targets
        while others:
            bit = others & -others
            others ^= bit
            for sets, stats, set_index, tag_index in private_targets[bit.bit_length() - 1]:
                lines = sets.get(set_index[event])
                if lines is None:
                    # The set has no working copy; the line can still live
                    # in the level store's planes if the kernel adopted the
                    # row.
                    if not sets.resident_count:
                        continue
                    lines = sets.peek(set_index[event])
                    if lines is None:
                        continue
                dirty = lines.pop(tag_index[event], None)
                if dirty is not None:
                    stats.invalidations += 1
                    if dirty:
                        stats.writebacks += 1
