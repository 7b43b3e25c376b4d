package service

import "sync"

// batcher collects requests from a channel into per-tenant FIFO queues and
// dispatches them as single-tenant batches chosen by the deficit-round-robin
// scheduler (fairsched.go), so a flooding tenant lengthens only its own
// queue. Dispatch is work-conserving and slot-gated: whenever any tenant
// has a queued request the collector bids for an execution slot, and the
// tenant the scheduler picks at slot-grant time gets everything its queue
// holds, up to size. That is what makes the DRR order real — under
// overload the contended resource is the slot — and it is also the only
// way a batch grows past one request: requests pile up only while every
// slot is busy, so a burst under backlog still pays its planner and
// flight-table work once per distinct query. Each dispatched batch runs on
// its own goroutine and releases its slot when done. close drains: buffered
// requests are flushed in size-bounded, slot-gated batches (never one
// unbounded batch) and every dispatched batch finishes before close
// returns.
type batcher struct {
	in    chan *request
	slots chan struct{}
	run   func([]*request)
	// shed rejects a request whose tenant queue is at capacity (nil keeps
	// tenant queues unbounded — unit tests only; the server always sheds).
	shed func(*request)

	sched    *fairSched
	quit     chan struct{} // closed by close(): stop collecting, drain
	done     chan struct{} // closed by the collector after the drain
	dispatch sync.WaitGroup
}

// batcherConfig wires a batcher; the server fills every field.
type batcherConfig struct {
	size    int
	depth   int // submission channel buffer AND per-tenant pending cap
	slots   chan struct{}
	weights map[string]int // tenant name → DRR weight (missing = 1)
	shed    func(*request)
	run     func([]*request)
}

func newBatcher(cfg batcherConfig) *batcher {
	maxPending := cfg.depth
	if cfg.shed == nil {
		maxPending = 0 // no shed path: caps would silently drop requests
	}
	b := &batcher{
		in:    make(chan *request, cfg.depth),
		slots: cfg.slots,
		run:   cfg.run,
		shed:  cfg.shed,
		sched: newFairSched(cfg.size, maxPending, cfg.weights),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go b.loop()
	return b
}

// loop is the collector goroutine: the only reader of b.in and the only
// owner of the scheduler. Each iteration it either absorbs a submission or,
// while any request is queued, wins an execution slot for the next DRR
// batch.
func (b *batcher) loop() {
	defer close(b.done)
	for {
		var slotC chan struct{} // nil never fires: no bid while idle
		if b.sched.pending() > 0 {
			slotC = b.slots
		}
		select {
		case r := <-b.in:
			b.enqueue(r)
		case slotC <- struct{}{}:
			b.spawn(b.sched.nextBatch())
		case <-b.quit:
			b.drain()
			return
		}
	}
}

// enqueue routes one request into its tenant queue, shedding at the
// per-tenant cap so one tenant's backlog cannot consume the whole buffer.
func (b *batcher) enqueue(r *request) {
	if !b.sched.push(r) {
		b.shed(r)
	}
}

// spawn dispatches one batch on its own goroutine; the caller must hold an
// execution slot, which the goroutine releases when the batch finishes.
func (b *batcher) spawn(batch []*request) {
	b.dispatch.Add(1)
	go func() {
		defer b.dispatch.Done()
		defer func() { <-b.slots }()
		b.run(batch)
	}()
}

// drain answers everything still buffered: leftovers in the submission
// channel are routed to their tenant queues (everything there was accepted
// before the server flipped to closing, so it must be answered), then the
// queues are flushed through the same slot-gated, size-bounded DRR path as
// normal dispatch, so the flight table never sees a batch shape the steady
// state could not produce.
func (b *batcher) drain() {
	for {
		select {
		case r := <-b.in:
			b.enqueue(r)
			continue
		default:
		}
		break
	}
	for b.sched.pending() > 0 {
		b.slots <- struct{}{}
		b.spawn(b.sched.nextBatch())
	}
	b.dispatch.Wait()
}

// close stops the collector, flushes what was buffered, and waits until
// every dispatched batch has finished. The caller must have stopped
// submissions first (Server.submit checks closing under the lock); a
// submission racing close would otherwise strand a request in the buffer.
func (b *batcher) close() {
	close(b.quit)
	<-b.done
}
