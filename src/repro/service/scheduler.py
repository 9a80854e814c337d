"""Sharded work-stealing cell scheduler: the service's execution core.

Every sweep request decomposes into ``(benchmark, EngineConfig)`` cells,
and concurrent requests overlap heavily (the whole point of a shared
service).  The scheduler turns that overlap into saved work at three
levels, in order of cheapness:

1. **In-flight dedup** — cells are keyed by
   :func:`repro.runner.keys.cell_key`; a cell already queued or computing
   hands the same :class:`asyncio.Future` to every requester
   (``service.cell.dedup``), so N identical concurrent submissions cost
   one simulation.  A submit that asks for the mispredict mask shares
   only a future that computes one.
2. **Persistent cache short-circuit** — a cell whose record is already in
   the shared :class:`~repro.runner.cache.ResultCache` resolves at
   submit, with a future that is already done
   (``service.cell.cache_hit``): it never enters a shard queue, wakes a
   shard or gets stolen.  In front of the record read sits an LRU of the
   last :data:`RESULT_MEMO_SIZE` maskless results by cell key, filled by
   every record hit and every store; a maskless submit it answers costs
   a dictionary lookup (``service.cell.memo_hit``, also counted as a
   cache hit), any other costs the record read.  A result depends only on
   its cell key, so an entry never goes stale.  A miss queues, and its
   shard reads the cache once more before it claims the cell, because a
   sibling server may have stored it in the meantime.  Since a hit never
   sits in the in-flight map, a later submit of the same cell is another
   cache hit rather than a dedup: for the same request mix ``/stats``
   shows more ``cache_hit`` and fewer ``dedup`` and ``steals``, and the
   saved share (dedup plus cache hits) does not change.  Cells of a
   predictor kind that is not ``deterministic`` skip the memo, the cache
   and the claims.
3. **Cross-process claims** — before computing, a shard takes an atomic
   claim file in the cache directory
   (:meth:`~repro.runner.cache.ResultCache.claim`).  Losing the claim
   means another server instance sharing the cache directory is already
   computing the cell; the shard parks it and polls the cache instead of
   duplicating the work — which is how N servers split one sweep.

Cells are partitioned into **shards** by their key hash; each shard is an
asyncio task draining its own deque through the reentrant
:class:`~repro.runner.pool.SweepPool` (one in-flight pool submission per
shard, so the pool sees at most ``shards`` concurrent cells).  An idle
shard **steals** from the tail of the longest sibling queue
(``service.shard.steal``), so a burst that hashes unevenly still keeps
every shard busy.  Scheduling decides only *when and where* a cell runs —
the cell itself is a pure function of its spec, so results are
bit-identical to ``repro sweep`` no matter how the shards interleave.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import OrderedDict, deque
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.obs import get_sink
from repro.predictors import EngineConfig, PredictionStats
from repro.runner import DEFAULT_CLAIM_TTL_S, ResultCache, SweepPool, cell_key
from repro.runner.keys import cacheable
from repro.runner.pool import _service_cell

#: Maskless results a scheduler keeps in memory by cell key, in front of
#: the result cache: room for every cell of the paper's design-space
#: tables many times over, at about 1.4 KB an entry (under 6 MiB full).
RESULT_MEMO_SIZE = 4096


class _Cell(NamedTuple):
    key: str
    benchmark: str
    config: EngineConfig
    collect_mask: bool

    @property
    def slot(self) -> Tuple[str, bool]:
        """The cell's in-flight map key: a mask request is its own cell."""
        return self.key, self.collect_mask


class ShardScheduler:
    """Dedup + shard + steal scheduler over a :class:`SweepPool`."""

    def __init__(self, pool: SweepPool, *, shards: int = 4,
                 result_cache: Optional[ResultCache] = None,
                 claim_ttl_s: float = DEFAULT_CLAIM_TTL_S,
                 poll_interval_s: float = 0.05) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.pool = pool
        self.result_cache = result_cache
        self.claim_ttl_s = claim_ttl_s
        self.poll_interval_s = poll_interval_s
        self.n_shards = shards
        self._queues: List[Deque[_Cell]] = [deque() for _ in range(shards)]
        self._inflight: Dict[Tuple[str, bool],
                             "asyncio.Future[PredictionStats]"] = {}
        self._memo: "OrderedDict[str, PredictionStats]" = OrderedDict()
        self._wakeup = [asyncio.Event() for _ in range(shards)]
        self._loops: List["asyncio.Task[None]"] = []
        self._closed = False
        #: Monotonic counters mirrored to the obs sink; ``/stats`` reads
        #: these without needing a ledger.
        self.counters: Dict[str, int] = {
            "submitted": 0, "dedup": 0, "cache_hit": 0, "memo_hit": 0,
            "computed": 0, "steals": 0, "claims_lost": 0, "claims_won": 0,
            "foreign_waits": 0, "errors": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the shard loops on the running event loop (idempotent)."""
        if self._loops:
            return
        self._loops = [
            asyncio.get_running_loop().create_task(self._shard_loop(i))
            for i in range(self.n_shards)
        ]

    async def close(self) -> None:
        self._closed = True
        for task in self._loops:
            task.cancel()
        for task in self._loops:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._loops = []
        for future in self._inflight.values():
            if not future.done():
                future.cancel()
        self._inflight.clear()

    def queue_depths(self) -> List[int]:
        return [len(queue) for queue in self._queues]

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(self, benchmark: str, config: EngineConfig,
               collect_mask: bool = False
               ) -> "asyncio.Future[PredictionStats]":
        """Resolve or queue one cell; returns a future shared by duplicate
        submits.

        A maskless cell in the memo, or a cell whose record the result
        cache holds, gets a future that is already done.  A cell already
        in flight with the same ``collect_mask`` gets that cell's future;
        any other cell is queued on its shard.  The returned future must
        only be awaited (never cancelled by the caller: other requests may
        share it), and its stats only read: the memo hands the same object
        to every later submit of the cell.
        """
        self.start()
        self.counters["submitted"] += 1
        key = cell_key(benchmark, config, self.pool.trace_length,
                       self.pool.seed)
        cache = self.result_cache if cacheable(config) else None
        if cache is not None and not collect_mask:
            hit = self._memo.get(key)
            if hit is not None:
                self._memo.move_to_end(key)
                self.counters["memo_hit"] += 1
                get_sink().incr("service.cell.memo_hit")
                self._count_cache_hit()
                return self._done(hit)
        cell = _Cell(key, benchmark, config, collect_mask)
        existing = self._inflight.get(cell.slot)
        if existing is not None:
            self.counters["dedup"] += 1
            get_sink().incr("service.cell.dedup")
            return existing
        if cache is not None:
            hit = self._load(cache, key, collect_mask)
            if hit is not None:
                return self._done(hit)
        future: "asyncio.Future[PredictionStats]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[cell.slot] = future
        self._queues[self._shard_of(key)].append(cell)
        # Wake every shard, not just the owner: an idle sibling should
        # get the chance to steal immediately rather than on its next
        # scheduled pass.
        for event in self._wakeup:
            event.set()
        return future

    @staticmethod
    def _done(stats: PredictionStats) -> "asyncio.Future[PredictionStats]":
        future: "asyncio.Future[PredictionStats]" = (
            asyncio.get_running_loop().create_future()
        )
        future.set_result(stats)
        return future

    def _shard_of(self, key: str) -> int:
        # The key is a hex SHA-256 digest: its leading bits are already
        # uniform, so a modulus is a perfect shard hash.
        return int(key[:8], 16) % self.n_shards

    # ------------------------------------------------------------------
    # Shard loops.
    # ------------------------------------------------------------------
    def _take(self, shard: int) -> Optional[_Cell]:
        """Next cell for ``shard``: own queue first, else steal."""
        queue = self._queues[shard]
        if queue:
            return queue.popleft()
        victim = max(
            (i for i in range(self.n_shards) if i != shard),
            key=lambda i: len(self._queues[i]),
            default=None,
        )
        if victim is None or not self._queues[victim]:
            return None
        # Steal from the *tail*: the victim keeps draining its head, so
        # the two shards never contend for the same end of the deque.
        cell = self._queues[victim].pop()
        self.counters["steals"] += 1
        get_sink().incr("service.shard.steal")
        return cell

    async def _shard_loop(self, shard: int) -> None:
        wakeup = self._wakeup[shard]
        while not self._closed:
            cell = self._take(shard)
            if cell is None:
                wakeup.clear()
                # Re-check before sleeping: a submit between _take and
                # clear would otherwise be missed until the next one.
                if any(self._queues):
                    continue
                await wakeup.wait()
                continue
            await self._run_cell(cell)

    async def _run_cell(self, cell: _Cell) -> None:
        future = self._inflight[cell.slot]
        try:
            stats = await self._resolve(cell)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.counters["errors"] += 1
            get_sink().event("service.cell.error", key=cell.key[:12],
                             error=str(exc))
            if not future.done():
                future.set_exception(exc)
        else:
            if not future.done():
                future.set_result(stats)
        finally:
            # Resolved cells leave the dedup map: the persistent cache
            # serves later requests.  Without a cache the future is the
            # only memo, so it stays (bounded by the config space).
            if self.result_cache is not None:
                self._inflight.pop(cell.slot, None)

    async def _resolve(self, cell: _Cell) -> PredictionStats:
        # A kind that is not deterministic never loads, claims or stores.
        cache = self.result_cache if cacheable(cell.config) else None
        while True:
            if cache is not None:
                # Read again before claiming: a sibling server sharing the
                # cache directory may have stored the cell since submit.
                hit = self._load(cache, cell.key, cell.collect_mask)
                if hit is not None:
                    return hit
                if not cache.claim(cell.key, ttl_s=self.claim_ttl_s):
                    # Another server instance owns this cell: park and
                    # poll the shared cache until its store lands (or the
                    # claim goes stale and we take over on a later lap).
                    self.counters["claims_lost"] += 1
                    self.counters["foreign_waits"] += 1
                    get_sink().incr("service.cell.foreign_wait")
                    await asyncio.sleep(self.poll_interval_s)
                    continue
                self.counters["claims_won"] += 1
            try:
                stats = await self._compute(cell)
                if cache is not None:
                    cache.store(cell.key, stats)
                    self._remember(cell.key, stats)
                return stats
            finally:
                if cache is not None:
                    cache.release(cell.key)

    def _load(self, cache: ResultCache, key: str,
              collect_mask: bool) -> Optional[PredictionStats]:
        """The cell's cached stats, counted as a cache hit and remembered;
        ``None`` if the cache has no record (or none with a mask when one
        is needed).  A maskless request gets the memo's maskless entry."""
        hit = cache.load(key, need_mask=collect_mask)
        if hit is None:
            return None
        self._count_cache_hit()
        maskless = self._remember(key, hit)
        return hit if collect_mask else maskless

    def _count_cache_hit(self) -> None:
        self.counters["cache_hit"] += 1
        get_sink().incr("service.cell.cache_hit")

    def _remember(self, key: str, stats: PredictionStats) -> PredictionStats:
        """Put ``stats`` without its mask in the memo; return that entry."""
        if stats.mispredict_mask is not None:
            stats = dataclasses.replace(stats, mispredict_mask=None)
        self._memo[key] = stats
        self._memo.move_to_end(key)
        if len(self._memo) > RESULT_MEMO_SIZE:
            self._memo.popitem(last=False)
        return stats

    async def _compute(self, cell: _Cell) -> PredictionStats:
        loop = asyncio.get_running_loop()
        try:
            stats = await loop.run_in_executor(
                self.pool.executor, _service_cell,
                cell.benchmark, cell.config, cell.collect_mask,
            )
        except (BrokenProcessPool, OSError, PermissionError) as exc:
            # A worker died or the sandbox refused to fork: degrade the
            # pool to its single-thread mode and recompute — same memo
            # machinery, same bytes, no lost cells.
            get_sink().event("service.pool.degraded", error=str(exc))
            self.pool.degrade_to_thread()
            stats = await loop.run_in_executor(
                self.pool.executor, _service_cell,
                cell.benchmark, cell.config, cell.collect_mask,
            )
        self.counters["computed"] += 1
        get_sink().incr("service.cell.computed")
        return stats
