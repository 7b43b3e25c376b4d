package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/relation"
)

// This file defines the columnar batch execution contract and the
// block-at-a-time versions of the streaming hot operators (scan, select,
// project, union) plus the adapter shims that let batch-aware and
// tuple-at-a-time operators compose freely. The join family lives in
// batch_join.go and the memo spool in batch_memo.go.
//
// Block ownership contract: a *Batch returned by NextBatch is valid only
// until the next NextBatch or Close call on the same iterator — producers
// reuse both the Batch struct and (for buffering operators) its backing
// tuple slice. The tuples themselves are immutable once emitted, exactly as
// in the tuple-at-a-time executor, so retaining a tuple pointer is always
// safe; retaining the slice is not. Zero-copy emitters (scan, the parallel
// join's partition outputs, memo replay) return stable views, but consumers
// must not rely on that: copy the slice (or the Batch) before the next call
// if the block must outlive it.
//
// Blocks are never empty: NextBatch either returns at least one tuple or
// reports exhaustion. Per-tuple bookkeeping — context polls, fireFault
// hooks, governor charges — is amortized to once per block. Cancellation
// polls stay tuple-denominated despite that: each per-block poll goes
// through Context.interruptedN weighted by the block's tuple count, so the
// CheckInterval latency bound ("fewer than CheckInterval tuples flow past a
// cancellation") holds unchanged under block execution.

// DefaultBatchSize is the block capacity used when the context does not
// choose one. 1024 tuples keeps a block of pointer-sized headers within a
// few cache pages while amortizing the per-block bookkeeping ~1000×.
const DefaultBatchSize = 1024

// Batch is one fixed-capacity block of tuples flowing between batch
// operators. Tuples is never empty on a successful NextBatch.
type Batch struct {
	Tuples []relation.Tuple
}

// BatchIterator is the block-at-a-time volcano interface. Open prepares the
// operator (blocking operators buffer here), NextBatch yields the next
// non-empty block or reports exhaustion, Close releases resources.
// Iterators are single-use. See the block ownership contract above.
type BatchIterator interface {
	Open()
	NextBatch() (*Batch, bool)
	Close()
}

// batchEnabled reports whether Run should drive the block-at-a-time
// executor. Batching is the default: BatchSize 0 selects DefaultBatchSize,
// positive values pick a block capacity, and negative values fall back to
// the classic tuple-at-a-time pipeline (parity tests and callers that need
// tuple-granular cancellation latency).
func (c *Context) batchEnabled() bool { return c.BatchSize >= 0 }

// blockSize returns the effective block capacity.
func (c *Context) blockSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// noteBatch records one emitted block of n tuples. Only producing operators
// call it — scan, select, project, union, the joins, adapters, and the memo
// producer/private paths. Memo replay and single-flight consumption do NOT:
// they re-deliver blocks another evaluation produced, and whether a
// concurrent run replays or consumes is scheduling-dependent, so counting
// only production keeps BatchesEmitted deterministic for a fixed workload.
func (c *Context) noteBatch(n int) {
	c.Stats.BatchesEmitted++
	c.Stats.BatchTuples += int64(n)
}

// blockCap bounds a block buffer's initial capacity by the operator's size
// hint: an operator that promises fewer than bs tuples allocates only that
// many slots, and a hint of 0 allocates no block at all.
func blockCap(hint, bs int) int {
	if hint >= 0 && hint < bs {
		return hint
	}
	return bs
}

// hintOfBatch is hintOf for batch iterators: an upper bound on the output
// cardinality in tuples (not blocks), or -1 when unbounded. Batch iterators
// share the sizeHinter interface with the tuple executor.
func hintOfBatch(b BatchIterator) int {
	if h, ok := b.(sizeHinter); ok {
		return h.sizeHint()
	}
	return -1
}

// batchScanIter streams a base relation in zero-copy blocks: each block is
// a view of the relation's backing slice, so a scan allocates nothing per
// block. One fault hook and one cancellation poll per block replace the
// tuple executor's per-tuple pair.
type batchScanIter struct {
	ctx   *Context
	rel   *relation.Relation
	bs    int
	pos   int
	batch Batch
}

func (it *batchScanIter) Open() {
	it.pos = 0
	it.ctx.fireFault(faultinject.PointIterOpen)
}

func (it *batchScanIter) NextBatch() (*Batch, bool) {
	it.ctx.fireFault(faultinject.PointIterNext)
	if it.pos >= it.rel.Len() {
		return nil, false
	}
	end := it.pos + it.bs
	if end > it.rel.Len() {
		end = it.rel.Len()
	}
	// Weight the poll by the block about to be read, BEFORE reading it: the
	// per-tuple path polls once per tuple, so weighting here keeps "fewer
	// than CheckInterval tuples read past cancellation" true at the source.
	if it.ctx.interruptedN(end - it.pos) {
		return nil, false
	}
	ts := it.rel.Tuples()[it.pos:end:end]
	it.pos = end
	it.ctx.Stats.BaseTuplesRead += int64(len(ts))
	it.ctx.noteBatch(len(ts))
	it.batch.Tuples = ts
	return &it.batch, true
}

func (it *batchScanIter) Close() {}

func (it *batchScanIter) sizeHint() int { return it.rel.Len() }

// batchSelectIter filters blocks by a predicate, densifying survivors into
// full output blocks so selective filters do not starve downstream
// operators with fragment blocks. The input block cannot be filtered in
// place: scans hand out views of the base relation.
type batchSelectIter struct {
	ctx  *Context
	in   BatchIterator
	pred algebra.Pred
	bs   int

	pending []relation.Tuple
	ppos    int
	out     []relation.Tuple
	batch   Batch
}

func (it *batchSelectIter) Open() {
	it.in.Open()
	it.out = make([]relation.Tuple, 0, blockCap(hintOfBatch(it.in), it.bs))
}

func (it *batchSelectIter) NextBatch() (*Batch, bool) {
	it.out = it.out[:0]
	for len(it.out) < it.bs {
		if it.ppos >= len(it.pending) {
			b, ok := it.in.NextBatch()
			if !ok {
				break
			}
			it.pending, it.ppos = b.Tuples, 0
		}
		t := it.pending[it.ppos]
		it.ppos++
		keep, c := it.pred.Eval(t)
		it.ctx.Stats.Comparisons += int64(c)
		if keep {
			//lint:ignore govcharge fixed-capacity streaming block bounded by the batch size, reused every NextBatch — not a materialization
			it.out = append(it.out, t)
		}
	}
	if len(it.out) == 0 {
		return nil, false
	}
	it.ctx.noteBatch(len(it.out))
	it.batch.Tuples = it.out
	return &it.batch, true
}

func (it *batchSelectIter) Close() { it.in.Close() }

func (it *batchSelectIter) sizeHint() int { return hintOfBatch(it.in) }

// batchProjectIter projects columns block-at-a-time, deduplicating through
// the same 64-bit-hash tupleSet as the tuple executor unless the planner
// proved the projection duplicate-free. Retained tuples are charged once
// per output block instead of once per tuple.
type batchProjectIter struct {
	ctx  *Context
	in   BatchIterator
	cols []int
	seen *tupleSet
	bs   int

	pending []relation.Tuple
	ppos    int
	out     []relation.Tuple
	batch   Batch
}

func newBatchProjectIter(ctx *Context, in BatchIterator, cols []int, dedup bool, bs int) *batchProjectIter {
	it := &batchProjectIter{ctx: ctx, in: in, cols: cols, bs: bs}
	if dedup {
		it.seen = newTupleSet()
	}
	return it
}

func (it *batchProjectIter) Open() {
	it.in.Open()
	it.out = make([]relation.Tuple, 0, blockCap(hintOfBatch(it.in), it.bs))
}

func (it *batchProjectIter) NextBatch() (*Batch, bool) {
	it.out = it.out[:0]
	for len(it.out) < it.bs {
		if it.ppos >= len(it.pending) {
			b, ok := it.in.NextBatch()
			if !ok {
				break
			}
			it.pending, it.ppos = b.Tuples, 0
		}
		t := it.pending[it.ppos].Project(it.cols)
		it.ppos++
		if it.seen != nil && !it.seen.add(t) {
			continue
		}
		it.out = append(it.out, t)
	}
	if len(it.out) == 0 {
		return nil, false
	}
	if it.seen != nil {
		// The dedup set retains every emitted tuple; one bulk charge per
		// block replaces the tuple executor's per-tuple charge.
		if !it.ctx.chargeBatch("project-dedup", it.out) {
			return nil, false
		}
		it.ctx.Stats.HashInserts += int64(len(it.out))
	}
	it.ctx.noteBatch(len(it.out))
	it.batch.Tuples = it.out
	return &it.batch, true
}

func (it *batchProjectIter) Close() { it.in.Close() }

func (it *batchProjectIter) sizeHint() int { return hintOfBatch(it.in) }

// batchUnionIter streams left then right in blocks, deduplicating across
// both sides, with the dedup buffering charged per block.
type batchUnionIter struct {
	ctx         *Context
	left, right BatchIterator
	bs          int

	seen    *tupleSet
	onRight bool
	pending []relation.Tuple
	ppos    int
	out     []relation.Tuple
	batch   Batch
}

func (it *batchUnionIter) Open() {
	it.left.Open()
	it.right.Open()
	it.seen = newTupleSet()
	it.onRight = false
	it.out = make([]relation.Tuple, 0, blockCap(it.sizeHint(), it.bs))
}

func (it *batchUnionIter) NextBatch() (*Batch, bool) {
	it.out = it.out[:0]
	for len(it.out) < it.bs {
		if it.ppos >= len(it.pending) {
			var b *Batch
			var ok bool
			if !it.onRight {
				b, ok = it.left.NextBatch()
				if !ok {
					it.onRight = true
					continue
				}
			} else {
				b, ok = it.right.NextBatch()
				if !ok {
					break
				}
			}
			it.pending, it.ppos = b.Tuples, 0
		}
		t := it.pending[it.ppos]
		it.ppos++
		if !it.seen.add(t) {
			continue
		}
		it.out = append(it.out, t)
	}
	if len(it.out) == 0 {
		return nil, false
	}
	if !it.ctx.chargeBatch("union", it.out) {
		return nil, false
	}
	it.ctx.Stats.HashInserts += int64(len(it.out))
	it.ctx.Stats.IntermediateTuples += int64(len(it.out))
	it.ctx.noteBatch(len(it.out))
	it.batch.Tuples = it.out
	return &it.batch, true
}

func (it *batchUnionIter) Close() { it.left.Close(); it.right.Close() }

func (it *batchUnionIter) sizeHint() int {
	l, r := hintOfBatch(it.left), hintOfBatch(it.right)
	if l < 0 || r < 0 {
		return -1
	}
	return l + r
}

// tupleBatchAdapter lifts a tuple-at-a-time iterator into the batch
// contract by accumulating its output into blocks. BuildBatch uses it to
// sandwich the non-hot blocking operators (product, difference, division,
// group-count, materialize) so hot subtrees below them stay batched.
type tupleBatchAdapter struct {
	ctx *Context
	in  Iterator
	bs  int

	out   []relation.Tuple
	batch Batch
}

// BatchFromTuples adapts a tuple-at-a-time iterator to the batch contract.
// The returned iterator owns in and closes it.
func BatchFromTuples(ctx *Context, in Iterator) BatchIterator {
	return &tupleBatchAdapter{ctx: ctx, in: in, bs: ctx.blockSize()}
}

func (it *tupleBatchAdapter) Open() {
	it.in.Open()
	it.out = make([]relation.Tuple, 0, blockCap(hintOf(it.in), it.bs))
}

func (it *tupleBatchAdapter) NextBatch() (*Batch, bool) {
	it.out = it.out[:0]
	for len(it.out) < it.bs {
		t, ok := it.in.Next()
		if !ok {
			break
		}
		//lint:ignore govcharge fixed-capacity streaming block bounded by the batch size, reused every NextBatch — the wrapped operator charged its own buffering
		it.out = append(it.out, t)
	}
	if len(it.out) == 0 {
		return nil, false
	}
	it.ctx.noteBatch(len(it.out))
	it.batch.Tuples = it.out
	return &it.batch, true
}

func (it *tupleBatchAdapter) Close() { it.in.Close() }

func (it *tupleBatchAdapter) sizeHint() int { return hintOf(it.in) }

// batchTupleAdapter flattens a batch iterator back into tuple-at-a-time
// delivery for tuple-only consumers (the non-hot operators' inputs).
type batchTupleAdapter struct {
	in  BatchIterator
	cur []relation.Tuple
	pos int
}

// TuplesFromBatch adapts a batch iterator to the tuple contract. The
// returned iterator owns in and closes it.
func TuplesFromBatch(in BatchIterator) Iterator {
	return &batchTupleAdapter{in: in}
}

func (it *batchTupleAdapter) Open() { it.in.Open() }

func (it *batchTupleAdapter) Next() (relation.Tuple, bool) {
	for it.pos >= len(it.cur) {
		b, ok := it.in.NextBatch()
		if !ok {
			return nil, false
		}
		it.cur, it.pos = b.Tuples, 0
	}
	t := it.cur[it.pos]
	it.pos++
	return t, true
}

func (it *batchTupleAdapter) Close() { it.in.Close() }

func (it *batchTupleAdapter) sizeHint() int { return hintOfBatch(it.in) }

// BuildBatch compiles a plan into a batch iterator tree. The hot operators
// — scan, select, project, union, the whole join family and the memo spool
// — are batch-native; the non-hot blocking operators run their existing
// tuple implementations between adapter shims, so a plan mixing both still
// moves blocks through every hot edge. Catalog resolution errors surface
// here, mirroring Build.
func BuildBatch(ctx *Context, p algebra.Plan) (BatchIterator, error) {
	bs := ctx.blockSize()
	switch n := p.(type) {
	case *algebra.Scan:
		r, err := ctx.Catalog.Relation(n.Name)
		if err != nil {
			return nil, err
		}
		if r.Arity() != n.Sch.Arity() {
			return nil, fmt.Errorf("exec: scan of %q expects arity %d, catalog has %d", n.Name, n.Sch.Arity(), r.Arity())
		}
		return &batchScanIter{ctx: ctx, rel: r, bs: bs}, nil
	case *algebra.Select:
		in, err := BuildBatch(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		return &batchSelectIter{ctx: ctx, in: in, pred: n.Pred, bs: bs}, nil
	case *algebra.Project:
		in, err := BuildBatch(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		return newBatchProjectIter(ctx, in, n.Cols, !n.NoDedup, bs), nil
	case *algebra.Join:
		return buildJoinLikeBatch(ctx, joinSpec{kind: kindJoin, left: n.Left, right: n.Right, on: n.On, residual: n.Residual})
	case *algebra.SemiJoin:
		return buildJoinLikeBatch(ctx, joinSpec{kind: kindSemiJoin, left: n.Left, right: n.Right, on: n.On})
	case *algebra.ComplementJoin:
		return buildJoinLikeBatch(ctx, joinSpec{kind: kindComplementJoin, left: n.Left, right: n.Right, on: n.On})
	case *algebra.OuterJoin:
		return buildJoinLikeBatch(ctx, joinSpec{kind: kindOuterJoin, left: n.Left, right: n.Right, on: n.On, rightArity: n.Right.Schema().Arity()})
	case *algebra.ConstrainedOuterJoin:
		return buildJoinLikeBatch(ctx, joinSpec{kind: kindConstrainedOuterJoin, left: n.Left, right: n.Right, on: n.On, coj: n})
	case *algebra.Union:
		l, r, err := buildBatchPair(ctx, n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return &batchUnionIter{ctx: ctx, left: l, right: r, bs: bs}, nil
	case *algebra.Product:
		l, r, err := buildBatchPair(ctx, n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return BatchFromTuples(ctx, &productIter{ctx: ctx, left: TuplesFromBatch(l), right: TuplesFromBatch(r)}), nil
	case *algebra.Diff:
		l, r, err := buildBatchPair(ctx, n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return BatchFromTuples(ctx, &diffIter{ctx: ctx, left: TuplesFromBatch(l), right: TuplesFromBatch(r), keep: false}), nil
	case *algebra.Intersect:
		l, r, err := buildBatchPair(ctx, n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return BatchFromTuples(ctx, &diffIter{ctx: ctx, left: TuplesFromBatch(l), right: TuplesFromBatch(r), keep: true}), nil
	case *algebra.Division:
		l, r, err := buildBatchPair(ctx, n.Dividend, n.Divisor)
		if err != nil {
			return nil, err
		}
		return BatchFromTuples(ctx, &divisionIter{ctx: ctx, dividend: TuplesFromBatch(l), divisor: TuplesFromBatch(r), keyCols: n.KeyCols, divCols: n.DivCols}), nil
	case *algebra.GroupCount:
		in, err := BuildBatch(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		return BatchFromTuples(ctx, &groupCountIter{ctx: ctx, in: TuplesFromBatch(in), groupCols: n.GroupCols}), nil
	case *algebra.Materialize:
		in, err := BuildBatch(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		return BatchFromTuples(ctx, &materializeIter{ctx: ctx, in: TuplesFromBatch(in), schema: n.Schema()}), nil
	case *algebra.Shared:
		// Built eagerly either way, so catalog errors surface at build time
		// even when the first NextBatch will hit the memo.
		in, err := BuildBatch(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		if ctx.Memo == nil {
			return in, nil
		}
		return newBatchMemoIter(ctx, in, n), nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", p)
	}
}

func buildBatchPair(ctx *Context, l, r algebra.Plan) (BatchIterator, BatchIterator, error) {
	li, err := BuildBatch(ctx, l)
	if err != nil {
		return nil, nil, err
	}
	ri, err := BuildBatch(ctx, r)
	if err != nil {
		return nil, nil, err
	}
	return li, ri, nil
}

// runBatched is Run's block-at-a-time drain: one cancellation poll and one
// bulk output charge per block.
func runBatched(ctx *Context, p algebra.Plan) (*relation.Relation, error) {
	it, err := BuildBatch(ctx, p)
	if err != nil {
		return nil, err
	}
	out := relation.NewUnnamed(p.Schema())
	it.Open()
	defer it.Close()
	for {
		b, ok := it.NextBatch()
		// The poll is weighted by the block just received so output-driven
		// cancellation latency (e.g. a high-fanout join under a slow sink)
		// stays bounded in tuples, matching the per-tuple root loop.
		if !ok || ctx.interruptedN(len(b.Tuples)) {
			break
		}
		if !ctx.chargeBatch("output", b.Tuples) {
			break
		}
		for _, t := range b.Tuples {
			out.Insert(t)
		}
		ctx.Stats.OutputTuples += int64(len(b.Tuples))
	}
	if err := ctx.CancelErr(); err != nil {
		return nil, err
	}
	return out, nil
}
