package exec

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// batchParityPlans extends the join family with composite shapes covering
// the batch-native streaming operators (select, project, union), the
// adapter sandwiches around the blocking operators (diff, division,
// group-count, materialize), and a Shared node feeding the memo spool.
func batchParityPlans(cat *storage.Catalog) map[string]algebra.Plan {
	plans := joinFamilyPlans(cat)
	plans["select-project"] = &algebra.Project{
		Input: &algebra.Select{Input: scan(cat, "R"),
			Pred: algebra.CmpCols{Left: 0, Op: relation.OpGt, Right: 1}},
		Cols: []int{1},
	}
	plans["union"] = &algebra.Union{Left: scan(cat, "R"), Right: scan(cat, "S")}
	plans["diff"] = &algebra.Diff{
		Left:  &algebra.Project{Input: scan(cat, "R"), Cols: []int{1}},
		Right: &algebra.Project{Input: scan(cat, "S"), Cols: []int{0}},
	}
	plans["division"] = &algebra.Division{
		Dividend: scan(cat, "S"),
		Divisor:  &algebra.Project{Input: scan(cat, "S"), Cols: []int{1}},
		KeyCols:  []int{0},
		DivCols:  []int{1},
	}
	plans["groupcount"] = &algebra.GroupCount{Input: scan(cat, "R"), GroupCols: []int{1}}
	plans["materialize"] = &algebra.Materialize{Input: scan(cat, "R"), Label: "tmp"}
	plans["shared-union"] = chaosPlan(cat)
	return plans
}

// normalizeBatchStats folds away the counters that legitimately differ
// between the tuple and block pipelines. Block counts are physical, not
// logical; and whether a second Shared reference attaches to an in-flight
// spool (duplicate avoided) or replays the published entry (hit) depends on
// when it opens relative to spool completion — a pipeline-shape detail. The
// sum is the invariant, exactly as in benchrepro's E15 fold.
func normalizeBatchStats(s Stats) Stats {
	s.BatchesEmitted, s.BatchTuples = 0, 0
	s.CacheHits += s.CacheDuplicatesAvoided
	s.CacheDuplicatesAvoided = 0
	return s
}

// TestBatchSizeParity is the cross-strategy property test of DESIGN.md §9:
// for every plan shape — join family, streaming composites, adapter
// sandwiches, a Shared memo spool — block sizes 1, 7 and 1024 must return
// exactly the tuple-at-a-time relation and charge identical logical stats,
// serial and partition-parallel, memo on and off.
func TestBatchSizeParity(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		cat := randomJoinCatalog(seed, 250)
		for name, plan := range batchParityPlans(cat) {
			for _, par := range []int{1, 4} {
				for _, withMemo := range []bool{false, true} {
					mkCtx := func(bs int) *Context {
						ctx := NewContext(cat)
						ctx.Parallelism = par
						ctx.BatchSize = bs
						if withMemo {
							ctx.Memo = NewMemo(0) // cold per run: spool counters stay comparable
						}
						return ctx
					}
					baseCtx := mkCtx(-1)
					want, err := Run(baseCtx, plan)
					if err != nil {
						t.Fatalf("seed %d %s p=%d memo=%v: tuple run: %v", seed, name, par, withMemo, err)
					}
					for _, bs := range []int{1, 7, 1024} {
						ctx := mkCtx(bs)
						got, err := Run(ctx, plan)
						if err != nil {
							t.Fatalf("seed %d %s p=%d memo=%v bs=%d: batch run: %v",
								seed, name, par, withMemo, bs, err)
						}
						if !got.Equal(want) {
							t.Errorf("seed %d %s p=%d memo=%v bs=%d: batch result differs\ngot %d tuples, want %d",
								seed, name, par, withMemo, bs, got.Len(), want.Len())
						}
						if want.Len() > 0 && ctx.Stats.BatchesEmitted == 0 {
							t.Errorf("seed %d %s p=%d memo=%v bs=%d: block executor did not run",
								seed, name, par, withMemo, bs)
						}
						gotStats := normalizeBatchStats(*ctx.Stats)
						wantStats := normalizeBatchStats(*baseCtx.Stats)
						if name == "division" {
							// divisionIter walks its group table in Go map
							// order and bails out of a group on the first
							// missing divisor tuple, so Comparisons is
							// iteration-order-dependent even between two
							// tuple-at-a-time runs of the same plan.
							gotStats.Comparisons, wantStats.Comparisons = 0, 0
						}
						if gotStats != wantStats {
							t.Errorf("seed %d %s p=%d memo=%v bs=%d: stats diverge\nbatch: %s\ntuple: %s",
								seed, name, par, withMemo, bs, gotStats.String(), wantStats.String())
						}
					}
				}
			}
		}
	}
}

// TestBatchHintZeroAllocatesNothing pins the sizeHint contract: a hint of 0
// (a provably empty input) must reserve no block anywhere. blockCap skips
// allocation, and an empty streaming pipeline emits no block and leaves its
// reusable output buffers at capacity zero.
func TestBatchHintZeroAllocatesNothing(t *testing.T) {
	capCases := []struct{ hint, bs, want int }{
		{0, DefaultBatchSize, 0}, // the regression: hint 0 must not allocate a full block
		{5, 8, 5},
		{8, 8, 8},
		{9, 8, 8},
		{-1, 8, 8}, // unbounded: a full block
	}
	for _, c := range capCases {
		if got := blockCap(c.hint, c.bs); got != c.want {
			t.Errorf("blockCap(%d, %d) = %d, want %d", c.hint, c.bs, got, c.want)
		}
	}

	// Behavioral half: a pipeline over an empty relation emits nothing and
	// its buffering operators take the scan's 0 hint instead of a block.
	cat := storage.NewCatalog()
	cat.MustDefine("Empty", relation.NewSchema("a", "b"))
	ctx := NewContext(cat)
	plan := &algebra.Project{
		Input: &algebra.Select{Input: scan(cat, "Empty"), Pred: algebra.True{}},
		Cols:  []int{0},
	}
	it, err := BuildBatch(ctx, plan)
	if err != nil {
		t.Fatalf("BuildBatch: %v", err)
	}
	it.Open()
	defer it.Close()
	if b, ok := it.NextBatch(); ok {
		t.Fatalf("empty pipeline emitted a block of %d tuples", len(b.Tuples))
	}
	pj, ok := it.(*batchProjectIter)
	if !ok {
		t.Fatalf("root iterator is %T, want *batchProjectIter", it)
	}
	if cap(pj.out) != 0 {
		t.Errorf("project allocated a %d-cap output block over an empty input", cap(pj.out))
	}
	sel, ok := pj.in.(*batchSelectIter)
	if !ok {
		t.Fatalf("project input is %T, want *batchSelectIter", pj.in)
	}
	if cap(sel.out) != 0 {
		t.Errorf("select allocated a %d-cap output block over an empty input", cap(sel.out))
	}
}

// TestMemoSpoolCapacityFollowsResult: a cached selective query over a
// large relation leaves a completed spool sized by what it holds, not by
// the relation it filtered — its capacity stays within one block of its
// length, so every warm entry retains memory in proportion to its answer.
func TestMemoSpoolCapacityFollowsResult(t *testing.T) {
	cat := storage.NewCatalog()
	big := cat.MustDefine("Big", relation.NewSchema("a", "b"))
	for i := 0; i < 20000; i++ {
		big.InsertValues(relation.Int(int64(i)), relation.Int(int64(i%7)))
	}
	memo := NewMemo(0)
	ctx := NewContext(cat)
	ctx.Memo = memo
	plan := algebra.NewShared(&algebra.Select{
		Input: scan(cat, "Big"),
		Pred:  algebra.CmpConst{Col: 0, Op: relation.OpLt, Const: relation.Int(30)},
	})
	res, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 30 {
		t.Fatalf("selective query returned %d rows, want 30", res.Len())
	}
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if len(memo.entries) != 1 {
		t.Fatalf("want one memo entry, got %d", len(memo.entries))
	}
	for _, e := range memo.entries {
		if e.state != spoolComplete {
			t.Fatalf("spool state = %d, want complete", e.state)
		}
		if slack := cap(e.tuples) - len(e.tuples); slack > ctx.blockSize() {
			t.Fatalf("completed spool holds %d tuples in %d slots: %d spare, more than one %d-tuple block",
				len(e.tuples), cap(e.tuples), slack, ctx.blockSize())
		}
	}
}

// TestChaosBatchParallelProducerDeath is TestChaosMemoProducerDeath for the
// block executor's parallel spool producers: the Shared subtree contains a
// partitioned join, the block size is tiny so the elected producer appends
// many blocks per spool, and faults strike the append path mid-spool with a
// concurrent consumer attached. The invariant is unchanged: both runs
// terminate, failures are the injected ones, survivors return the baseline,
// and the same memo afterwards serves a clean batched run — producer death
// abandons deterministically and re-elects, never publishing partial blocks.
func TestChaosBatchParallelProducerDeath(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := randomJoinCatalog(44, 150)
	plan := chaosPlan(cat)
	baseline, err := Run(NewContext(cat), plan)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	kinds := []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindDelay}
	for _, kind := range kinds {
		for _, after := range []int64{1, 3, 5} {
			name := fmt.Sprintf("%s/%s@%d", faultinject.PointMemoAppend, kind, after)
			t.Run(name, func(t *testing.T) {
				memo := NewMemo(0) // cold: the append point actually fires
				fplan := faultinject.New(faultinject.Arm{
					Point: faultinject.PointMemoAppend, Kind: kind, After: after})
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() {
							recover() // injected panics surface raw at this layer
						}()
						ctx := NewContext(cat)
						ctx.Memo = memo
						ctx.Faults = fplan
						ctx.Parallelism = 4
						ctx.BatchSize = 7 // several appendSpoolBlock calls per spool
						ctx.CheckInterval = GovernedCheckInterval
						out, err := Run(ctx, plan)
						if err != nil {
							if !errors.Is(err, faultinject.ErrInjected) {
								t.Errorf("non-injected error: %v", err)
							}
						} else if !out.Equal(baseline) {
							t.Error("surviving run returned a wrong result")
						}
					}()
				}
				wg.Wait()

				after := NewContext(cat)
				after.Memo = memo
				after.Parallelism = 4
				after.BatchSize = 7
				out, err := Run(after, plan)
				if err != nil {
					t.Fatalf("post-fault run: %v", err)
				}
				if !out.Equal(baseline) {
					t.Fatal("post-fault run differs from baseline")
				}
			})
		}
	}
}
