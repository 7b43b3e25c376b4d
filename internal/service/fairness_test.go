package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/testutil"
)

// TestFairnessFloodAndTrickle is the isolation gate: one tenant floods a
// saturated server while another trickles polite sequential requests. With
// per-tenant queues, DRR dispatch and per-tenant CoDel, every shed lands on
// the flooder — the polite tenant's shed count stays zero and its latency
// stays bounded, because its queue never holds more than its own request.
func TestFairnessFloodAndTrickle(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(t, Config{
		Tenants: []TenantConfig{
			{Name: "abuser", APIKey: "k-abuser"},
			{Name: "polite", APIKey: "k-polite"},
		},
		BatchSize:     1,    // every request dispatches alone: pure DRR alternation
		QueueDepth:    4096, // above the flood size: sheds come from CoDel, not caps
		MaxConcurrent: 1,    // one slot: the scheduler fully decides service order
		ShedTarget:    10 * time.Millisecond,
		ShedInterval:  10 * time.Millisecond,
		// One injected 50ms stall on the first dispatched batch holds the
		// only slot while the flood lands, so the abuser builds a genuine
		// standing queue — sojourns far above target for many intervals —
		// instead of draining as fast as the test can submit.
		Faults: faultinject.New(faultinject.Arm{
			Point: faultinject.PointServiceBatcher,
			Kind:  faultinject.KindDelay,
			After: 1,
			Delay: 50 * time.Millisecond,
		}),
	})

	// The flood: enough concurrent requests that the abuser's queue stays a
	// standing backlog far above the shed target for many intervals. The
	// polite tenant's sojourn stays a couple of batch durations — far under
	// the target — so only the abuser's controller enters its episode.
	const flood = 2000
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Execute(context.Background(), "k-abuser", demoQuery)
		}()
	}
	// Let the stalled first batch pass and the backlog build before the
	// trickle starts, so every polite request runs against a full storm.
	time.Sleep(60 * time.Millisecond)

	// The trickle: sequential closed-loop requests while the flood drains.
	const trickle = 20
	var politeLat []time.Duration
	for i := 0; i < trickle; i++ {
		start := time.Now()
		out, err := s.Execute(context.Background(), "k-polite", demoQuery)
		if err != nil {
			t.Fatalf("polite request %d failed: %v", i, err)
		}
		if out.Result == nil || !out.Result.Open || out.Result.Rows.Len() != 1 {
			t.Fatalf("polite request %d: wrong answer", i)
		}
		politeLat = append(politeLat, time.Since(start))
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()

	stats := s.Stats()
	ab, pol := stats.PerTenant["abuser"], stats.PerTenant["polite"]
	if pol.Sheds != 0 {
		t.Fatalf("polite tenant absorbed %d sheds (sojourn %d, queue-full %d); isolation failed",
			pol.Sheds, pol.SojournSheds, pol.QueueFullSheds)
	}
	if ab.Sheds == 0 {
		t.Fatal("the flooding tenant saw no sheds: the server never defended itself")
	}
	if pol.Requests != trickle || pol.OK != trickle {
		t.Fatalf("polite ledger: requests=%d ok=%d, want %d/%d", pol.Requests, pol.OK, trickle, trickle)
	}
	if ab.Requests != flood {
		t.Fatalf("abuser ledger: requests=%d, want %d", ab.Requests, flood)
	}
	sort.Slice(politeLat, func(i, j int) bool { return politeLat[i] < politeLat[j] })
	p99 := politeLat[len(politeLat)*99/100]
	// The polite tenant waits at most one abuser quantum per request; 500ms
	// is an order of magnitude of headroom for race-detector CI.
	if p99 > 500*time.Millisecond {
		t.Fatalf("polite p99 = %v behind a %d-deep flood; fair scheduling failed", p99, flood)
	}
}

// TestRateLimitShedsAtEntry: a tenant with RatePerSec sheds its excess at
// submission with a typed *ShedError carrying the rate-limit reason and
// positive retry advice, and both ledgers (global and per-tenant) count it.
func TestRateLimitShedsAtEntry(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(t, Config{
		Tenants: []TenantConfig{
			{Name: "capped", APIKey: "k-capped", RatePerSec: 5},
		},
		BatchSize: 1,
	})
	var shed, ok int
	for i := 0; i < 10; i++ {
		_, err := s.Execute(context.Background(), "k-capped", demoQuery)
		if err == nil {
			ok++
			continue
		}
		var se *ShedError
		if !errors.As(err, &se) {
			t.Fatalf("request %d: want *ShedError, got %T: %v", i, err, err)
		}
		if se.Reason != ShedReasonRateLimit {
			t.Fatalf("request %d: reason = %q, want %q", i, se.Reason, ShedReasonRateLimit)
		}
		if se.RetryAfter <= 0 {
			t.Fatalf("request %d: rate-limit shed carries no retry advice", i)
		}
		shed++
	}
	// Burst = 5 tokens; 10 near-instant submissions admit 5 and shed 5 (the
	// microseconds between calls refill far less than one token).
	if ok != 5 || shed != 5 {
		t.Fatalf("ok=%d shed=%d, want 5/5 from a burst-5 bucket", ok, shed)
	}
	stats := s.Stats()
	if stats.Service.RateLimited != int64(shed) || stats.Service.Sheds != int64(shed) {
		t.Fatalf("service ledger: rate_limited=%d sheds=%d, want %d", stats.Service.RateLimited, stats.Service.Sheds, shed)
	}
	tc := stats.PerTenant["capped"]
	if tc.RateLimited != int64(shed) || tc.Sheds != int64(shed) {
		t.Fatalf("tenant ledger: rate_limited=%d sheds=%d, want %d", tc.RateLimited, tc.Sheds, shed)
	}
}

// TestSubSecondRetryAdviceRoundTrips pins the omitempty bugfix: when the
// controller's advice is under a millisecond, the body's retry_after_ms
// must still serialize (clamped to 1), so a client's parsed RetryAfter is
// millisecond-grain instead of falling back to the header's whole second.
func TestSubSecondRetryAdviceRoundTrips(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(t, Config{
		Tenants:       []TenantConfig{{Name: "acme", APIKey: "k-acme"}},
		BatchSize:     4,
		MaxConcurrent: 1,
		// A nanosecond target/interval makes every sojourn "too long", so
		// sheds flow immediately and their advice ≈ sojourn: microseconds.
		ShedTarget:   1,
		ShedInterval: 1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, APIKey: "k-acme", MaxRetries: -1}

	var mu sync.Mutex
	var sheds []*RemoteError
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Query(context.Background(), demoQuery)
			var re *RemoteError
			if errors.As(err, &re) && re.Detail.Kind == "shed" {
				mu.Lock()
				sheds = append(sheds, re)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(sheds) == 0 {
		t.Fatal("a nanosecond shed target produced no sheds across 40 concurrent requests")
	}
	for _, re := range sheds {
		if re.Detail.RetryAfterMS < 1 {
			t.Fatalf("shed body retry_after_ms = %d; positive advice was dropped by omitempty", re.Detail.RetryAfterMS)
		}
		if re.RetryAfter < time.Millisecond {
			t.Fatalf("client RetryAfter = %v, below the 1ms clamp", re.RetryAfter)
		}
		if re.Detail.Reason == "" {
			t.Fatal("shed detail carries no reason")
		}
	}
	// The point of the fix: at least one shed's advice stayed sub-second —
	// before it, every sub-millisecond advice inflated to the header's 1s.
	subSecond := false
	for _, re := range sheds {
		if re.RetryAfter < time.Second {
			subSecond = true
			break
		}
	}
	if !subSecond {
		t.Fatalf("all %d sheds advised ≥ 1s; the millisecond body field never round-tripped", len(sheds))
	}
}
