package exec

import (
	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/relation"
)

// batchMemoIter executes an algebra.Shared node block-at-a-time against the
// context memo. It follows memoIter's mode machine exactly — lazy acquire at
// the first NextBatch, building→complete|abandoned lifecycle, deterministic
// skip-prefix re-election — but spools, replays and consumes whole blocks:
// the producer appends one block per entry-lock acquisition (appendSpoolBlock)
// and consumers drain as many published tuples as fit a block per wait
// (consumeWaitBlock), so single-flight sharing costs one lock round-trip per
// block instead of per tuple. With a batchParallelJoinIter input, the
// elected producer streams partition outputs into the shared spool as each
// partition worker finishes — the partition workers fill the spool in
// parallel, in deterministic partition-index order.
type batchMemoIter struct {
	ctx *Context
	in  BatchIterator
	fp  uint64
	key string
	bs  int

	mode  memoMode
	gen   int64
	entry *memoEntry
	repl  []relation.Tuple
	// pos counts tuples already delivered downstream; across a producer
	// re-election or a private fallback it becomes the skip count, since
	// re-evaluation regenerates the same deterministic prefix.
	pos      int
	skip     int
	inOpened bool
	batch    Batch
}

func newBatchMemoIter(ctx *Context, in BatchIterator, n *algebra.Shared) *batchMemoIter {
	return &batchMemoIter{ctx: ctx, in: in, fp: n.FP, key: algebra.Canonical(n.Input), bs: ctx.blockSize()}
}

func (it *batchMemoIter) Open() {
	it.mode = modeUnstarted
	it.entry = nil
	it.repl = nil
	it.pos = 0
	it.skip = 0
	it.inOpened = false
}

func (it *batchMemoIter) NextBatch() (*Batch, bool) {
	// A panic below must not strand consumers on a building entry: abandon
	// first, then let the panic continue to the isolation boundary.
	defer func() {
		if r := recover(); r != nil {
			it.abandonProduce()
			panic(r)
		}
	}()
	if it.ctx.interruptedN(it.bs) {
		it.abandonProduce()
		return nil, false
	}
	if it.mode == modeUnstarted {
		it.start()
	}
	for {
		switch it.mode {
		case modeReplay:
			if it.pos >= len(it.repl) {
				return nil, false
			}
			end := it.pos + it.bs
			if end > len(it.repl) {
				end = len(it.repl)
			}
			ts := it.repl[it.pos:end:end]
			it.pos = end
			it.ctx.Stats.CacheTuplesReplayed += int64(len(ts))
			// Replay re-delivers blocks another evaluation produced; it is
			// not an emission, so BatchesEmitted stays deterministic under
			// concurrency (see noteBatch).
			it.batch.Tuples = ts
			return &it.batch, true
		case modeProduce:
			return it.produceNextBatch()
		case modePrivate:
			return it.privateNextBatch()
		default: // modeConsume
			b, ok, resolved := it.consumeNextBatch()
			if resolved {
				return b, ok
			}
			// Producer died or the entry state changed: mode was switched;
			// loop and continue under the new mode.
		}
	}
}

// start resolves the memo at the first NextBatch, mirroring memoIter.start.
func (it *batchMemoIter) start() {
	it.gen = it.ctx.Catalog.Generation()
	if it.ctx.Memo == nil {
		it.mode = modePrivate
		return
	}
	e, role := it.ctx.Memo.acquire(it.gen, it.fp, it.key, it.ctx.execID)
	switch role {
	case roleReplay:
		it.ctx.Stats.CacheHits++
		it.repl = e.tuples
		it.mode = modeReplay
	case roleConsume:
		it.ctx.Stats.CacheDuplicatesAvoided++
		it.entry = e
		it.mode = modeConsume
	case roleProduce:
		it.ctx.Stats.CacheMisses++
		it.entry = e
		it.mode = modeProduce
		it.ctx.fireFault(faultinject.PointMemoElect)
	default:
		it.ctx.Stats.CacheMisses++
		it.mode = modePrivate
	}
}

// produceNextBatch advances the producer by one input block: charge it,
// append it to the spool, yield it. The per-step ordering (charge →
// memo.append fault → cancel check → spool append) matches produceNext so
// chaos runs observe the same abandon points, just block-granular.
func (it *batchMemoIter) produceNextBatch() (*Batch, bool) {
	if it.ctx.interruptedN(it.bs) {
		it.abandonProduce()
		return nil, false
	}
	if !it.inOpened {
		it.in.Open()
		it.inOpened = true
	}
	for {
		b, ok := it.in.NextBatch()
		if !ok {
			// Complete drain: publish, unless cancellation may have
			// truncated the stream.
			if it.ctx.CancelErr() == nil {
				it.ctx.fireFault(faultinject.PointMemoPublish)
			}
			if it.ctx.CancelErr() == nil {
				it.ctx.Memo.complete(it.entry)
				it.entry = nil
				it.mode = modePrivate // input exhausted; stays empty
			} else {
				it.abandonProduce()
			}
			return nil, false
		}
		ts := b.Tuples
		// A failed governor charge abandons the spool but still yields the
		// block: the pinned *ResourceError surfaces at the root, so the
		// stream is never silently truncated relative to a cache-off run.
		if !it.ctx.chargeBatch("memo-spool", ts) {
			it.abandonProduce()
			return it.yieldProducedBlock(ts)
		}
		it.ctx.fireFault(faultinject.PointMemoAppend)
		if it.ctx.CancelErr() != nil {
			it.abandonProduce()
			return it.yieldProducedBlock(ts)
		}
		appended, ok := it.ctx.Memo.appendSpoolBlock(it.entry, ts)
		it.ctx.Stats.CacheTuplesSpooled += int64(appended)
		if !ok {
			// Overflow (the entry outgrew the memo budget, possibly after a
			// partial append) or a generation flush raced the build: the
			// spool is gone, keep streaming privately.
			it.entry = nil
			it.mode = modePrivate
			it.ctx.Stats.CacheSpoolsAbandoned++
			return it.yieldProducedBlock(ts)
		}
		if it.skip >= len(ts) {
			// Re-elected producer: this whole block was already delivered
			// downstream while consuming the abandoned entry.
			it.skip -= len(ts)
			continue
		}
		return it.yieldProducedBlock(ts)
	}
}

// yieldProducedBlock delivers one produced block downstream, honouring the
// re-election skip prefix (possibly trimming the block's head).
func (it *batchMemoIter) yieldProducedBlock(ts []relation.Tuple) (*Batch, bool) {
	if it.skip >= len(ts) {
		it.skip -= len(ts)
		return it.NextBatch()
	}
	if it.skip > 0 {
		ts = ts[it.skip:]
		it.skip = 0
	}
	it.pos += len(ts)
	it.ctx.noteBatch(len(ts))
	it.batch.Tuples = ts
	return &it.batch, true
}

// consumeNextBatch streams up to one block from another execution's
// building entry. resolved=false means the entry reached a terminal state
// and the iterator switched modes; the caller loops.
func (it *batchMemoIter) consumeNextBatch() (*Batch, bool, bool) {
	ts, st, blocked := it.ctx.Memo.consumeWaitBlock(it.entry, it.pos, it.bs, it.ctx.doneChan())
	if blocked {
		it.ctx.Stats.CacheSingleFlightWaits++
	}
	switch st {
	case consumeTuple:
		it.pos += len(ts)
		it.ctx.Stats.CacheTuplesReplayed += int64(len(ts))
		it.batch.Tuples = ts
		return &it.batch, true, true
	case consumeEOF:
		return nil, false, true
	case consumeCancelled:
		it.ctx.observeCancel()
		return nil, false, true
	case consumeOverflow:
		// The result does not fit the memo: nobody should produce into it.
		it.entry = nil
		it.mode = modePrivate
		it.skip = it.pos
		return nil, false, false
	default: // consumeAbandoned — the producer died; re-elect.
		e, role := it.ctx.Memo.acquire(it.gen, it.fp, it.key, it.ctx.execID)
		switch role {
		case roleReplay:
			// Another waiter was re-elected and already finished.
			it.repl = e.tuples
			it.mode = modeReplay
		case roleConsume:
			it.entry = e
			it.mode = modeConsume
		case roleProduce:
			it.ctx.Stats.CacheMisses++
			it.entry = e
			it.mode = modeProduce
			it.skip = it.pos
			it.ctx.fireFault(faultinject.PointMemoElect)
		default:
			it.entry = nil
			it.mode = modePrivate
			it.skip = it.pos
		}
		return nil, false, false
	}
}

// privateNextBatch evaluates the subtree transparently, discarding the
// deterministic prefix already delivered downstream from a dead spool.
func (it *batchMemoIter) privateNextBatch() (*Batch, bool) {
	if !it.inOpened {
		it.in.Open()
		it.inOpened = true
	}
	for {
		if it.ctx.interruptedN(it.bs) {
			return nil, false
		}
		b, ok := it.in.NextBatch()
		if !ok {
			return nil, false
		}
		ts := b.Tuples
		if it.skip >= len(ts) {
			it.skip -= len(ts)
			continue
		}
		if it.skip > 0 {
			ts = ts[it.skip:]
			it.skip = 0
		}
		it.pos += len(ts)
		it.ctx.noteBatch(len(ts))
		it.batch.Tuples = ts
		return &it.batch, true
	}
}

// abandonProduce abandons the building entry this iterator produces, if
// any, and drops to private mode. Safe to call in any mode.
func (it *batchMemoIter) abandonProduce() {
	if it.mode == modeProduce && it.entry != nil {
		it.ctx.Memo.abandon(it.entry, false)
		it.ctx.Stats.CacheSpoolsAbandoned++
	}
	if it.mode == modeProduce {
		it.entry = nil
		it.mode = modePrivate
	}
}

func (it *batchMemoIter) Close() {
	// An early close while producing abandons the spool so attached
	// consumers re-elect instead of waiting forever.
	it.abandonProduce()
	if it.inOpened {
		it.in.Close()
	}
	it.entry = nil
	it.repl = nil
}

// sizeHint bounds the output: exactly the entry length on a warm cache
// under the current catalog generation, otherwise whatever the input can
// promise.
func (it *batchMemoIter) sizeHint() int {
	if n := it.ctx.Memo.entryLen(it.ctx.Catalog.Generation(), it.fp, it.key); n >= 0 {
		return n
	}
	return hintOfBatch(it.in)
}
