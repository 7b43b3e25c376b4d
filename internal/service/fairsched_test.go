package service

import "testing"

// namedReq builds a request for tenant name.
func namedReq(name string) *request {
	return &request{tenant: &tenant{cfg: TenantConfig{Name: name}}}
}

// TestFairSchedWeightsHonored: over a busy window a weight-2 tenant drains
// twice the requests of a weight-1 tenant, in size-bounded single-tenant
// batches — the DRR guarantee, traced deterministically.
func TestFairSchedWeightsHonored(t *testing.T) {
	s := newFairSched(2, 0, map[string]int{"heavy": 2})
	for i := 0; i < 20; i++ {
		s.push(namedReq("light"))
		s.push(namedReq("heavy"))
	}
	served := map[string]int{}
	for i := 0; i < 9; i++ { // 9 batches of 2 = 18 requests, both stay backlogged
		batch := s.nextBatch()
		if len(batch) != 2 {
			t.Fatalf("batch %d: want size 2, got %d", i, len(batch))
		}
		name := tenantName(batch[0])
		for _, r := range batch[1:] {
			if tenantName(r) != name {
				t.Fatalf("batch %d mixes tenants %q and %q", i, name, tenantName(r))
			}
		}
		served[name] += len(batch)
	}
	// Per round: light's deficit tops up to 2 (one batch), heavy's to 4 (two
	// batches). 9 batches = 3 full rounds: light 6, heavy 12.
	if served["light"] != 6 || served["heavy"] != 12 {
		t.Fatalf("want light=6 heavy=12 after 9 batches, got light=%d heavy=%d", served["light"], served["heavy"])
	}
}

// TestFairSchedPerTenantCap: push refuses at the per-tenant cap — and only
// for the tenant at its cap; others keep queueing.
func TestFairSchedPerTenantCap(t *testing.T) {
	s := newFairSched(4, 2, nil)
	if !s.push(namedReq("a")) || !s.push(namedReq("a")) {
		t.Fatal("pushes under the cap must succeed")
	}
	if s.push(namedReq("a")) {
		t.Fatal("push at the cap must refuse")
	}
	if !s.push(namedReq("b")) {
		t.Fatal("another tenant must be unaffected by a's cap")
	}
	if s.pending() != 3 {
		t.Fatalf("pending = %d, want 3 (the refused push must not count)", s.pending())
	}
}

// TestFairSchedDeficitForfeitOnEmpty: a tenant whose queue empties mid-
// quantum forfeits its remaining deficit — idleness earns no credit, so a
// returning tenant starts from zero like everyone else.
func TestFairSchedDeficitForfeitOnEmpty(t *testing.T) {
	s := newFairSched(4, 0, map[string]int{"a": 3})
	s.push(namedReq("a"))
	if b := s.nextBatch(); len(b) != 1 {
		t.Fatalf("want a's single request, got %d", len(b))
	}
	// weight 3 × size 4 = 12 deficit minus 1 served would leave 11; the
	// empty queue must have zeroed it and deactivated the tenant.
	if f := s.byName["a"]; f.deficit != 0 {
		t.Fatalf("deficit = %d after queue emptied, want 0", f.deficit)
	}
	if len(s.ring) != 0 {
		t.Fatal("an empty tenant must leave the ring")
	}
}

// TestFairSchedDispatchesAtOnce: a single pushed request is dispatchable
// immediately — there is no linger — and a backlog drains in batches
// bounded by size, the contract both normal dispatch and the drain path
// rely on.
func TestFairSchedDispatchesAtOnce(t *testing.T) {
	s := newFairSched(4, 0, nil)
	s.push(namedReq("a"))
	if b := s.nextBatch(); len(b) != 1 {
		t.Fatalf("a lone request must dispatch at once, got a batch of %d", len(b))
	}
	if s.pending() != 0 {
		t.Fatalf("pending = %d after the only request dispatched", s.pending())
	}
	for i := 0; i < 6; i++ {
		s.push(namedReq("a"))
	}
	sizes := []int{}
	for s.pending() > 0 {
		sizes = append(sizes, len(s.nextBatch()))
	}
	if len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 2 {
		t.Fatalf("want batches [4 2], got %v", sizes)
	}
}
