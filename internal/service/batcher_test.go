package service

import (
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// collectBatches returns a run func that records every flushed batch.
func collectBatches() (func([]*request), func() [][]*request) {
	var mu sync.Mutex
	var batches [][]*request
	run := func(b []*request) {
		mu.Lock()
		defer mu.Unlock()
		batches = append(batches, b)
	}
	get := func() [][]*request {
		mu.Lock()
		defer mu.Unlock()
		out := make([][]*request, len(batches))
		copy(out, batches)
		return out
	}
	return run, get
}

// testBatcher builds a batcher the way the unit tests need it: one
// execution slot, which a test can hold to make requests queue (batches
// form only while every slot is busy), and no shed callback, so tenant
// queues are unbounded.
func testBatcher(size, depth int, run func([]*request)) *batcher {
	return newBatcher(batcherConfig{
		size:  size,
		depth: depth,
		slots: make(chan struct{}, 1),
		run:   run,
	})
}

// waitAbsorbed waits until the collector has taken every submission off
// the channel; it enqueues each one before it next selects, so once the
// channel is empty a released slot sees the whole backlog.
func waitAbsorbed(t *testing.T, b *batcher) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(b.in) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("collector left %d submissions unread", len(b.in))
		}
		time.Sleep(time.Millisecond)
	}
}

// closeReleasingSlot closes b while the test still holds its only slot,
// then releases the slot so the drain can dispatch through it.
func closeReleasingSlot(b *batcher) {
	closed := make(chan struct{})
	go func() {
		b.close()
		close(closed)
	}()
	<-b.slots
	<-closed
}

// TestBatcherFlushesAtSize: while the only slot is busy the queue backs up,
// and once it frees the backlog dispatches in batches bounded by size.
func TestBatcherFlushesAtSize(t *testing.T) {
	testutil.CheckGoroutines(t)
	run, got := collectBatches()
	b := testBatcher(3, 16, run)
	b.slots <- struct{}{} // hold the slot: nothing can dispatch
	for i := 0; i < 6; i++ {
		b.in <- &request{}
	}
	waitAbsorbed(t, b)
	<-b.slots
	deadline := time.Now().Add(2 * time.Second)
	for {
		if bs := got(); len(bs) == 2 && len(bs[0]) == 3 && len(bs[1]) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want two batches of 3 once the slot frees, got %d", len(got()))
		}
		time.Sleep(time.Millisecond)
	}
	b.close()
}

// TestBatcherDispatchesLoneRequest: with a slot free, a lone request far
// below the size bound dispatches at once — nothing waits for a batch to
// fill.
func TestBatcherDispatchesLoneRequest(t *testing.T) {
	testutil.CheckGoroutines(t)
	run, got := collectBatches()
	b := testBatcher(100, 16, run)
	b.in <- &request{}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if bs := got(); len(bs) == 1 && len(bs[0]) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a lone request was never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	b.close()
}

// TestBatcherCloseDrains: close answers whatever is still queued — here
// held back by a busy slot — and waits for the dispatched run to finish
// before returning.
func TestBatcherCloseDrains(t *testing.T) {
	testutil.CheckGoroutines(t)
	var mu sync.Mutex
	var seen int
	var running bool
	b := testBatcher(100, 16, func(batch []*request) {
		mu.Lock()
		running = true
		mu.Unlock()
		time.Sleep(20 * time.Millisecond) // close must outwait this
		mu.Lock()
		seen += len(batch)
		running = false
		mu.Unlock()
	})
	b.slots <- struct{}{}
	for i := 0; i < 5; i++ {
		b.in <- &request{}
	}
	closeReleasingSlot(b)
	mu.Lock()
	defer mu.Unlock()
	if running {
		t.Fatal("close returned while a dispatched batch was still running")
	}
	if seen != 5 {
		t.Fatalf("drain lost requests: processed %d of 5", seen)
	}
}

// TestBatcherDrainChunks: a backlog bigger than one batch flushes as several
// size-bounded batches at close, never one unbounded batch (the shape the
// flight table never sees in steady state).
func TestBatcherDrainChunks(t *testing.T) {
	testutil.CheckGoroutines(t)
	run, got := collectBatches()
	b := testBatcher(4, 32, run)
	b.slots <- struct{}{}
	for i := 0; i < 10; i++ {
		b.in <- &request{}
	}
	closeReleasingSlot(b)
	total := 0
	for _, batch := range got() {
		if len(batch) > 4 {
			t.Fatalf("drain emitted a batch of %d, want ≤ size 4", len(batch))
		}
		total += len(batch)
	}
	if total != 10 {
		t.Fatalf("drain lost requests: flushed %d of 10", total)
	}
}

// TestBatcherShedsAtTenantCap: with a shed callback installed, a request
// arriving while its tenant's queue holds depth requests is shed instead of
// queued — the per-tenant cap, not a shared one.
func TestBatcherShedsAtTenantCap(t *testing.T) {
	testutil.CheckGoroutines(t)
	var mu sync.Mutex
	var shed int
	b := newBatcher(batcherConfig{
		size:  100,
		depth: 3,
		slots: make(chan struct{}, 1),
		shed: func(*request) {
			mu.Lock()
			shed++
			mu.Unlock()
		},
		run: func([]*request) {},
	})
	// Hold the only slot so nothing dispatches: the collector drains the
	// channel into the tenant FIFO, and pushes past depth must shed.
	b.slots <- struct{}{}
	for i := 0; i < 8; i++ {
		b.in <- &request{}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := shed
		mu.Unlock()
		if n == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want 5 sheds past the per-tenant cap of 3, got %d", n)
		}
		time.Sleep(time.Millisecond)
	}
	<-b.slots
	b.close()
}
