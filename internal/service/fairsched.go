package service

// fairSched is the batcher's deficit-round-robin (DRR) scheduler: one FIFO
// per tenant instead of one shared pending list, so a tenant that floods
// the service lengthens only its own queue. Dispatch walks the ring of
// backlogged tenants; each visit tops the tenant's deficit up by
// weight×quantum requests and drains at most that many (in size-bounded
// batches), so over any busy window tenants receive service in proportion
// to their weights — the classic DRR guarantee, with every request costing
// one unit. Every backlogged tenant is dispatchable: a batch is whatever
// the visited tenant's queue holds, up to size, so batches only grow past
// one request while the execution slots are busy. The scheduler is owned by
// the batcher's collector goroutine and is deliberately lock-free: all
// methods must be called from that one goroutine.
type fairSched struct {
	// size is the batch bound: no dispatched batch exceeds it, including
	// the drain path.
	size int
	// maxPending caps each tenant's FIFO (0 or negative = unbounded);
	// push reports false at the cap so the caller can shed.
	maxPending int
	// weights maps tenant name → DRR weight (missing or < 1 means 1).
	weights map[string]int

	byName map[string]*tenantFIFO
	// ring holds the backlogged tenants in round-robin order; cur is the
	// next tenant to visit.
	ring  []*tenantFIFO
	cur   int
	total int
}

// tenantFIFO is one tenant's pending queue, a head-indexed slice so takes
// are O(1) without unbounded growth of the backing array.
type tenantFIFO struct {
	name    string
	weight  int
	deficit int
	q       []*request
	head    int
}

func (f *tenantFIFO) len() int { return len(f.q) - f.head }

// take removes and returns the first n requests.
func (f *tenantFIFO) take(n int) []*request {
	out := make([]*request, n)
	copy(out, f.q[f.head:f.head+n])
	for i := f.head; i < f.head+n; i++ {
		f.q[i] = nil // release for GC while the tail lives on
	}
	f.head += n
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	} else if f.head > 64 && f.head*2 > len(f.q) {
		f.q = append(f.q[:0], f.q[f.head:]...)
		f.head = 0
	}
	return out
}

func newFairSched(size, maxPending int, weights map[string]int) *fairSched {
	return &fairSched{
		size:       size,
		maxPending: maxPending,
		weights:    weights,
		byName:     make(map[string]*tenantFIFO),
	}
}

// tenantName keys a request's queue; batcher unit tests may carry no tenant.
func tenantName(r *request) string {
	if r.tenant == nil {
		return ""
	}
	return r.tenant.cfg.Name
}

// push appends r to its tenant's FIFO, activating the tenant in the ring if
// it was idle. It reports false — without queueing — when the tenant is at
// its pending cap; the caller sheds the request with a typed error.
func (s *fairSched) push(r *request) bool {
	name := tenantName(r)
	f := s.byName[name]
	if f == nil {
		w := s.weights[name]
		if w < 1 {
			w = 1
		}
		f = &tenantFIFO{name: name, weight: w}
		s.byName[name] = f
	}
	if s.maxPending > 0 && f.len() >= s.maxPending {
		return false
	}
	if f.len() == 0 {
		s.ring = append(s.ring, f)
	}
	f.q = append(f.q, r)
	s.total++
	return true
}

// pending is the total queued requests across all tenants.
func (s *fairSched) pending() int { return s.total }

// nextBatch dispatches the next size-bounded, single-tenant batch by DRR
// order; callers dispatch only while pending() > 0. The visited tenant's deficit is
// topped up by weight×size when spent, each batch consumes deficit one
// request per request, and the scheduler keeps serving the same tenant
// while deficit remains — so a weight-2 tenant drains two full batches per
// round to a weight-1 tenant's one. A tenant whose queue empties forfeits
// its remaining deficit: idleness is not credit.
func (s *fairSched) nextBatch() []*request {
	idx := s.cur
	f := s.ring[idx]
	if f.deficit < 1 {
		f.deficit += f.weight * s.size
	}
	take := min(s.size, f.len(), f.deficit)
	batch := f.take(take)
	f.deficit -= take
	s.total -= take
	switch {
	case f.len() == 0:
		f.deficit = 0
		s.ring = append(s.ring[:idx], s.ring[idx+1:]...)
		if len(s.ring) == 0 {
			s.cur = 0
		} else {
			s.cur = idx % len(s.ring)
		}
	case f.deficit < 1:
		s.cur = (idx + 1) % len(s.ring)
	}
	return batch
}
