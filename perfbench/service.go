package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/service"
)

// serviceLimit is service-mix's latency limit: goodput counts responses
// within it, and a ladder step passes only if its p99 stays within it.
// NOTES.md explains why it is 100 ms and not 50 ms.
const serviceLimit = 100 * time.Millisecond

// serviceMissQuery is a closed ∃ that exits early, so it never publishes to
// the memo (NOTES.md, the early-exit gap): every request for it is a miss
// that reads about 60,000 tuples of University(1000). The closed loop sends
// it as every serviceMissEvery-th request, so the closed-loop p99 is the
// latency of a miss through the whole service path, not of a 2.5 ms hit
// that a stall of the host happened to catch.
const (
	serviceMissQuery = `exists x: student(x) and exists y: cs_lecture(y) and attends(x, y)`
	serviceMissEvery = 50
)

// serviceNominalRPS is the open-loop rate goodput is taken at.
const serviceNominalRPS = 300

// serviceStudentKeys and serviceLectureKeys bound the template constants.
// Every run first sends each tenant's whole key space once, so every seed
// measures with the same set of cached plans; each cached entry of these
// templates retains about 1.45 MB (NOTES.md, the spool-presizing gap), and
// these bounds keep that set near the 500 entries an unwarmed run reached.
const (
	serviceStudentKeys = 80
	serviceLectureKeys = 32
)

// serviceLadder is the fixed ascending rate ladder behind slo_rate_rps. A
// run measures at most len(serviceLadder) steps, each an equal share of the
// window left after the nominal and closed-loop phases.
var serviceLadder = []float64{600, 800, 1000, 1200, 1400, 1600}

// serviceTenants are the two tenants and their shares of every rate.
var serviceTenants = []struct {
	name, key string
	share     float64
}{{"alpha", "alpha-key", 2.0 / 3}, {"beta", "beta-key", 1.0 / 3}}

// template is a parameterised query: a format with one verb per
// constant, each drawn from its dimension in order.
type template struct {
	weight int
	format string
	dims   []dim
}

// dim is the domain a template constant is drawn from.
type dim int

const (
	dimStudent dim = iota // Zipf-skewed
	dimLecture            // Zipf-skewed
	dimLanguage
	dimDept
	dimTopic
)

// params draws skewed constants from the generated database.
type params struct {
	rng       *rand.Rand
	students  []string
	lectures  []string
	studentZ  *rand.Zipf
	lectureZ  *rand.Zipf
	languages []string
	depts     []string
	topics    []string
}

// serviceTemplates mixes open and closed queries. Student- and
// lecture-keyed templates draw Zipf-skewed constants, so a minority of keys
// repeats often while the rest come up rarely.
var serviceTemplates = []template{
	{30, `{ y | attends(%q, y) }`, []dim{dimStudent}},                                // lectures-of-student
	{20, `{ x | attends(x, %q) and speaks(x, %q) }`, []dim{dimLecture, dimLanguage}}, // speakers-in-lecture
	{20, `exists y: attends(%q, y) and cs_lecture(y)`, []dim{dimStudent}},            // attends-cs
	{15, `{ x | member(x, %q) and not skill(x, %q) }`, []dim{dimDept, dimTopic}},     // members-without-skill
	{15, `forall y: attends(%q, y) => exists d: lecture(y, d)`, []dim{dimStudent}},   // attends-only-lectures
}

// domain returns every value of d.
func (p *params) domain(d dim) []string {
	switch d {
	case dimStudent:
		return p.students
	case dimLecture:
		return p.lectures
	case dimLanguage:
		return p.languages
	case dimDept:
		return p.depts
	}
	return p.topics
}

// draw returns one value of d: Zipf-skewed for students and lectures,
// uniform otherwise.
func (p *params) draw(d dim) string {
	switch d {
	case dimStudent:
		return p.students[p.studentZ.Uint64()]
	case dimLecture:
		return p.lectures[p.lectureZ.Uint64()]
	}
	vs := p.domain(d)
	return vs[p.rng.Intn(len(vs))]
}

// fill draws t's constants.
func (t template) fill(p *params) string {
	args := make([]any, len(t.dims))
	for i, d := range t.dims {
		args[i] = p.draw(d)
	}
	return fmt.Sprintf(t.format, args...)
}

// all returns every query t can produce from p's key space.
func (t template) all(p *params) []string {
	combos := [][]any{nil}
	for _, d := range t.dims {
		var next [][]any
		for _, c := range combos {
			for _, v := range p.domain(d) {
				next = append(next, append(append([]any(nil), c...), v))
			}
		}
		combos = next
	}
	out := make([]string, len(combos))
	for i, c := range combos {
		out[i] = fmt.Sprintf(t.format, c...)
	}
	return out
}

func newParams(db *core.DB, rng *rand.Rand) (*params, error) {
	col := func(name string) ([]string, error) {
		r, err := db.Catalog().Relation(name)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, t := range r.Tuples() {
			out = append(out, t[0].String())
		}
		sort.Strings(out)
		return out, nil
	}
	students, err := col("student")
	if err != nil {
		return nil, err
	}
	lectures, err := col("lecture")
	if err != nil {
		return nil, err
	}
	// Shuffle so the popular keys differ from seed to seed, then keep a
	// bounded key space (see serviceStudentKeys).
	rng.Shuffle(len(students), func(i, j int) { students[i], students[j] = students[j], students[i] })
	rng.Shuffle(len(lectures), func(i, j int) { lectures[i], lectures[j] = lectures[j], lectures[i] })
	students = students[:min(len(students), serviceStudentKeys)]
	lectures = lectures[:min(len(lectures), serviceLectureKeys)]
	return &params{
		rng:       rng,
		students:  students,
		lectures:  lectures,
		studentZ:  rand.NewZipf(rng, 1.1, 16, uint64(len(students)-1)),
		lectureZ:  rand.NewZipf(rng, 1.1, 16, uint64(len(lectures)-1)),
		languages: []string{"french", "german", "english"},
		depts:     []string{"cs", "math", "bio"},
		topics:    []string{"db", "ai", "math"},
	}, nil
}

func (p *params) query() string {
	total := 0
	for _, t := range serviceTemplates {
		total += t.weight
	}
	x := p.rng.Intn(total)
	for _, t := range serviceTemplates {
		if x < t.weight {
			return t.fill(p)
		}
		x -= t.weight
	}
	panic("unreachable: template weights exhausted")
}

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration
	tenant int
	query  string
}

// schedule draws Poisson arrivals for every tenant over the window at its
// share of rate, merged in time order.
func schedule(seed int64, label string, rate float64, window time.Duration, ps []*params) []arrival {
	var out []arrival
	for ti, t := range serviceTenants {
		rng := newRand(seed, "arrivals/"+label, int64(ti))
		lambda := rate * t.share
		at := time.Duration(0)
		for {
			at += time.Duration(rng.ExpFloat64() / lambda * float64(time.Second))
			if at >= window {
				break
			}
			out = append(out, arrival{at: at, tenant: ti, query: ps[ti].query()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// exchange is one request's observed outcome.
type exchange struct {
	arrival
	lag     time.Duration // dispatch time minus intended send time
	latency time.Duration // completion minus intended send time
	handler time.Duration // ServeHTTP wall time
	start   time.Time     // when ServeHTTP began
	span    int64         // the handler span, when traced
	status  int
	body    []byte
}

func newServer(db *core.DB) (*service.Server, error) {
	tenants := make([]service.TenantConfig, len(serviceTenants))
	for i, t := range serviceTenants {
		tenants[i] = service.TenantConfig{Name: t.name, APIKey: t.key}
	}
	// queryd's defaults: serial engines with the plan cache on, the default
	// batcher, scheduler, CoDel and breakers, and the default deadline.
	return service.NewServer(db, service.Config{
		Tenants:         tenants,
		EngineOptions:   []core.Option{core.WithParallelism(1), core.WithPlanCache(0)},
		DefaultDeadline: service.DefaultDeadlineBudget,
	})
}

type serviceSetup struct {
	db  *core.DB
	srv *service.Server
}

func buildService(seed int64, n int) (serviceSetup, error) {
	p := dataset.DefaultUniversity(n)
	p.Seed = subSeed(seed, "university", 0)
	db := dbOf(dataset.University(p))
	srv, err := newServer(db)
	if err != nil {
		return serviceSetup{}, err
	}
	return serviceSetup{db: db, srv: srv}, nil
}

// drive plays a schedule against a handler open loop: one dispatcher
// goroutine sends each request at its intended time, and each request runs
// on its own goroutine, so a slow response never delays later sends.
func drive(h http.Handler, sched []arrival, tr *tracer, reqBase int) []exchange {
	out := make([]exchange, len(sched))
	var wg sync.WaitGroup
	begin := time.Now()
	for i := range sched {
		due := begin.Add(sched[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].arrival = sched[i]
		out[i].lag = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			ex := &out[i]
			req := queryRequest(ex.arrival)
			rec := httptest.NewRecorder()
			ex.start = time.Now()
			tr.do(int64(reqBase+i+1), 0, "service.handler", func(id int64) {
				ex.span = id
				h.ServeHTTP(rec, req)
			})
			end := time.Now()
			ex.handler = end.Sub(ex.start)
			ex.latency = end.Sub(due)
			ex.status = rec.Code
			ex.body = rec.Body.Bytes()
		}(i, due)
	}
	wg.Wait()
	return out
}

// queryRequest builds the POST /query request of one arrival.
func queryRequest(a arrival) *http.Request {
	body, _ := json.Marshal(map[string]string{"query": a.query}) // a map of strings always encodes
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	req.Header.Set("X-API-Key", serviceTenants[a.tenant].key)
	return req
}

// latencies returns the exchanges' latencies.
func latencies(ex []exchange) samples {
	out := make(samples, len(ex))
	for i, e := range ex {
		out[i] = e.latency
	}
	return out
}

// stats fetches /stats through the handler.
func stats(h http.Handler) (service.StatsReport, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var rep service.StatsReport
	if rec.Code != http.StatusOK {
		return rep, fmt.Errorf("/stats answered %d", rec.Code)
	}
	return rep, json.Unmarshal(rec.Body.Bytes(), &rep)
}

// openLoop drives one schedule against h and fetches /stats afterwards.
func openLoop(h http.Handler, seed int64, label string, rate float64, window time.Duration, ps []*params, tr *tracer, reqBase int) ([]exchange, service.StatsReport, error) {
	ex := drive(h, schedule(seed, label, rate, window, ps), tr, reqBase)
	st, err := stats(h)
	return ex, st, err
}

// shutdown drains a server.
func shutdown(srv *service.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server drain: %w", err)
	}
	return nil
}

// verifier checks response answers against the reference engine, caching
// one reference answer per distinct query text.
type verifier struct {
	ref  *core.Engine
	want map[string]answer
}

func newVerifier(db *core.DB) *verifier {
	return &verifier{ref: core.NewEngine(db, core.WithBatchSize(-1)), want: map[string]answer{}}
}

// check decodes every successful response and compares its answer.
func (v *verifier) check(out *outcome, ex []exchange) error {
	for i := range ex {
		e := &ex[i]
		if e.status != http.StatusOK {
			continue
		}
		got, _, err := decodeAnswer(e.body)
		if err != nil {
			return err
		}
		want, ok := v.want[e.query]
		if !ok {
			res, err := v.ref.Query(e.query)
			if err != nil {
				return fmt.Errorf("reference %q: %w", e.query, err)
			}
			want = answerOf(res)
			v.want[e.query] = want
		}
		if got != want {
			out.mismatch("%q: got %s, reference %s", e.query, got, want)
		}
	}
	return nil
}

func decodeAnswer(body []byte) (answer, service.Record, error) {
	var resp service.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return answer{}, service.Record{}, fmt.Errorf("decoding response: %w", err)
	}
	if !resp.Open {
		if resp.Truth == nil {
			return answer{}, resp.Timing, fmt.Errorf("closed answer without truth value")
		}
		return answer{Truth: *resp.Truth}, resp.Timing, nil
	}
	return answer{Open: true, Digest: digestRows(resp.Rows)}, resp.Timing, nil
}

// stepVerdict judges one ladder step: p99 within the limit, no shed or
// deadline failure, a generator that kept its schedule, and no backlog —
// the last response must land within the limit of the step's end.
func stepVerdict(ex []exchange, window time.Duration) (ok bool, why string) {
	var lat samples
	var last time.Duration
	for _, e := range ex {
		if e.status != http.StatusOK {
			return false, fmt.Sprintf("status %d", e.status)
		}
		if e.lag > serviceLimit {
			return false, "generator fell behind"
		}
		lat = append(lat, e.latency)
		last = max(last, e.at+e.latency)
	}
	if p99 := lat.quantile(0.99); p99 > ms(serviceLimit) {
		return false, fmt.Sprintf("p99 %.1f ms", p99)
	}
	if last > window+serviceLimit {
		return false, "backlog"
	}
	return true, ""
}

func runService(cfg config) (*outcome, error) {
	out := newOutcome()
	s, setupS, err := setupMedian(setupRepeats, func() (serviceSetup, error) { return buildService(cfg.seed, 1000) },
		func(s serviceSetup) error { return shutdown(s.srv) })
	if err != nil {
		return nil, err
	}
	defer shutdown(s.srv)
	ps := make([]*params, len(serviceTenants))
	for i := range ps {
		if ps[i], err = newParams(s.db, newRand(cfg.seed, "templates", int64(i))); err != nil {
			return nil, err
		}
	}
	ver := newVerifier(s.db)
	// check counts a phase's requests and verifies their answers.
	check := func(ex []exchange) error {
		for _, e := range ex {
			out.attempted++
			if e.status != http.StatusOK {
				out.failed++
			}
		}
		return ver.check(out, ex)
	}
	// One server serves every phase; the warm-up fills its memo. Filling
	// the caches is set-up, so setup_s is the median build plus the
	// warm-up: work moved from the measured phases into the warm-up shows.
	h := s.srv.Handler()
	start := time.Now()
	warm := warmUp(h, ps)
	out.endToEnd["setup_s"] = setupS + time.Since(start).Seconds()
	if err := check(warm); err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceService(cfg, out, s.db, h, ps, check)
	}

	// Open loop at the nominal rate: goodput, and the generator's lag.
	nominal := cfg.window() / 5
	nom, nst, err := openLoop(h, cfg.seed, "nominal", serviceNominalRPS, nominal, ps, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := check(nom); err != nil {
		return nil, err
	}
	var olat, lag samples
	good := 0
	for _, e := range nom {
		olat = append(olat, e.latency)
		lag = append(lag, e.lag)
		if e.status == http.StatusOK && e.latency <= serviceLimit {
			good++
		}
	}
	if maxLag := lag.quantile(1); maxLag > ms(serviceLimit) {
		out.mismatch("invalid run: the load generator fell %.1f ms behind its schedule at the nominal rate", maxLag)
	}
	out.endToEnd["goodput_rps"] = float64(good) / nominal.Seconds()
	out.info["open_loop_nominal"] = map[string]any{
		"rate_rps": serviceNominalRPS, "samples": len(olat),
		"latency_p50_ms": olat.quantile(0.5), "latency_p90_ms": olat.quantile(0.9), "latency_p99_ms": olat.quantile(0.99),
		"lag_ms_p99": lag.quantile(0.99), "lag_ms_max": lag.quantile(1), "memo": memoInfo(nom, nst),
	}

	// Closed loop on the warm server: per-request latency through the
	// whole service path without queueing behind other requests.
	// A collection first, so every run's closed loop starts from the same
	// point of the collector's cycle.
	closedWindow := cfg.window() / 2
	runtime.GC()
	cl, alloc := runClosed(h, ps, closedWindow, nil, 0)
	if err := check(cl); err != nil {
		return nil, err
	}
	lat := latencies(cl)
	out.endToEnd["throughput_ops_s"] = float64(len(cl)) / totalDur(lat).Seconds()
	out.endToEnd["latency_p50_ms"] = lat.quantile(0.50)
	out.endToEnd["latency_p90_ms"] = lat.quantile(0.90)
	out.endToEnd["latency_p99_ms"] = lat.quantile(0.99)
	out.endToEnd["alloc_bytes_per_op"], out.endToEnd["allocs_per_op"] = alloc[0], alloc[1]
	out.info["closed_loop_samples"] = len(lat)
	// success_rate covers the nominal and closed-loop phases; ladder steps
	// past the knee may shed by design.
	served := 0
	for _, e := range append(append([]exchange(nil), nom...), cl...) {
		if e.status == http.StatusOK {
			served++
		}
	}
	out.endToEnd["success_rate"] = float64(served) / float64(len(nom)+len(cl))

	// The ladder: a higher fixed rate per step; stop at the first step
	// that fails.
	step := (cfg.window() - nominal - closedWindow) / time.Duration(len(serviceLadder))
	best := 0.0
	var steps []string
	for i, rate := range serviceLadder {
		ex, _, err := openLoop(h, cfg.seed, fmt.Sprintf("step%d", i), rate, step, ps, nil, 0)
		if err != nil {
			return nil, err
		}
		if err := check(ex); err != nil {
			return nil, err
		}
		ok, why := stepVerdict(ex, step)
		var sl, slag samples
		for _, e := range ex {
			sl = append(sl, e.latency)
			slag = append(slag, e.lag)
		}
		steps = append(steps, fmt.Sprintf("%.0f rps: ok=%v %s n=%d p50=%.1fms p99=%.1fms lag_p99=%.1fms",
			rate, ok, why, len(sl), sl.quantile(0.5), sl.quantile(0.99), slag.quantile(0.99)))
		if !ok {
			break
		}
		best = rate
	}
	out.info["ladder"] = steps
	out.endToEnd["slo_rate_rps"] = best
	out.endToEnd["peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// warmUp sends every query of every tenant's key space once, one at a
// time, so every run starts its phases with the same plans cached.
func warmUp(h http.Handler, ps []*params) []exchange {
	var out []exchange
	for t := range serviceTenants {
		for _, tm := range serviceTemplates {
			for _, q := range tm.all(ps[t]) {
				a := arrival{tenant: t, query: q}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, queryRequest(a))
				out = append(out, exchange{arrival: a, status: rec.Code, body: rec.Body.Bytes()})
			}
		}
	}
	return out
}

// runClosed sends requests to h one at a time for the window, alternating
// tenants by their shares, with serviceMissQuery as every
// serviceMissEvery-th request and the tenant's template mix otherwise, and
// returns them with the benchmark process's bytes and allocations per
// request.
func runClosed(h http.Handler, ps []*params, window time.Duration, tr *tracer, reqBase int) ([]exchange, [2]float64) {
	var out []exchange
	mem := startMem()
	deadline := time.Now().Add(window)
	var credit [2]float64
	for time.Now().Before(deadline) {
		// Deficit round-robin over the tenant shares keeps the 2:1 mix
		// exact at every prefix of the run.
		t := 0
		for i := range serviceTenants {
			credit[i] += serviceTenants[i].share
			if credit[i] > credit[t] {
				t = i
			}
		}
		credit[t]--
		ex := exchange{arrival: arrival{tenant: t, query: serviceMissQuery}}
		if (len(out)+1)%serviceMissEvery != 0 {
			ex.query = ps[t].query()
		}
		req := queryRequest(ex.arrival)
		rec := httptest.NewRecorder()
		ex.start = time.Now()
		tr.do(int64(reqBase+len(out)+1), 0, "service.handler", func(id int64) {
			ex.span = id
			h.ServeHTTP(rec, req)
		})
		ex.latency = time.Since(ex.start)
		ex.handler = ex.latency
		ex.status = rec.Code
		ex.body = rec.Body.Bytes()
		out = append(out, ex)
	}
	var alloc [2]float64
	alloc[0], alloc[1] = mem.perOp(len(out))
	return out, alloc
}

// memoInfo summarizes the tenants' plan caches after a phase against their
// budget: the working set that fits in the cache.
func memoInfo(ex []exchange, st service.StatsReport) map[string]any {
	entries, tuples, budget := 0, 0, 0
	for _, snap := range st.Tenants {
		entries += snap.CacheEntries
		tuples += snap.CacheTuples
		budget += snap.CacheBudget
	}
	distinct := map[string]bool{}
	for _, e := range ex {
		distinct[e.query] = true
	}
	return map[string]any{"entries": entries, "cached_tuples": tuples, "budget_tuples": budget,
		"default_memo_budget": exec.DefaultMemoBudget, "distinct_keys": len(distinct), "requests": len(ex)}
}

// traceService measures the per-layer split. An untraced open-loop phase
// comes first and a traced one gives the service layer under load; the
// tracing overhead comes from two closed-loop halves on the warm server
// that differ only in the tracing.
func traceService(cfg config, out *outcome, db *core.DB, h http.Handler, ps []*params, check func([]exchange) error) (*outcome, error) {
	openWindow, closedWindow := cfg.window()*3/10, cfg.window()/5
	warm, wst, err := openLoop(h, cfg.seed, "nominal", serviceNominalRPS, openWindow, ps, nil, 0)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, tst, err := openLoop(h, cfg.seed, "traced", serviceNominalRPS, openWindow, ps, tr, 0)
	if err != nil {
		return nil, err
	}
	tst = diffStats(tst, wst)
	plainClosed, _ := runClosed(h, ps, closedWindow, nil, 0)
	tracedClosed, _ := runClosed(h, ps, closedWindow, tr, len(traced))
	out.spans = tr
	for _, ex := range [][]exchange{warm, traced, plainClosed, tracedClosed} {
		if err := check(ex); err != nil {
			return nil, err
		}
	}
	l := out.perLayer
	l["trace.overhead_pct"] = overheadPct(latencies(plainClosed), latencies(tracedClosed))

	var queue, plan, execT, elected, overhead, lag samples
	shares, hits, okN, batchSum := 0, 0, 0, 0
	distinct := map[string]bool{}
	for i, e := range traced {
		lag = append(lag, e.lag)
		distinct[e.query] = true
		if e.status != http.StatusOK {
			continue
		}
		_, rec, err := decodeAnswer(e.body)
		if err != nil {
			return nil, err
		}
		okN++
		req := int64(i + 1)
		q := time.Duration(rec.QueueNS)
		x := time.Duration(rec.ExecNS)
		pl := time.Duration(rec.PlanUS) * time.Microsecond
		queue = append(queue, q)
		plan = append(plan, pl)
		execT = append(execT, x)
		overhead = append(overhead, e.handler-time.Duration(rec.TotalUS)*time.Microsecond)
		// The record's stages, laid end to end from the handler's start,
		// become children of its span; the remainder is the handler's own
		// decode and encode time.
		tr.add(req, e.span, "service.queue", e.start, q)
		tr.add(req, e.span, "service.plan", e.start.Add(q), pl)
		tr.add(req, e.span, "service.exec", e.start.Add(q+pl), x)
		switch rec.Flight {
		case "share":
			shares++
		case "elect":
			elected = append(elected, x)
		}
		if rec.CacheHit {
			hits++
		}
		batchSum += rec.Batch
	}
	l["service.queue_wait_ms_p50"] = queue.quantile(0.5)
	l["service.queue_wait_ms_p99"] = queue.quantile(0.99)
	l["service.plan_ms_p50"] = plan.quantile(0.5)
	l["service.exec_ms_p50"] = execT.quantile(0.5)
	l["service.exec_ms_p99"] = execT.quantile(0.99)
	l["service.handler_overhead_us_p50"] = overhead.quantile(0.5) * 1000
	if okN > 0 {
		l["service.batch_size_mean"] = float64(batchSum) / float64(okN)
		l["service.flight_share_ratio"] = float64(shares) / float64(okN)
		l["service.request_cache_hit_ratio"] = float64(hits) / float64(okN)
	}
	l["service.sheds"] = float64(tst.Service.Sheds)
	l["service.deadline_exceeded"] = float64(tst.Service.DeadlineExceeded)
	l["loadgen.lag_ms_p99"] = lag.quantile(0.99)
	l["loadgen.distinct_keys"] = float64(len(distinct))
	l["core.run_ms_p50"] = elected.quantile(0.5)
	var st exec.Stats
	for _, snap := range tst.Tenants {
		st.Add(snapshotStats(snap))
		l["exec.memo_entries"] += float64(snap.CacheEntries)
		l["exec.memo_tuples_cached"] += float64(snap.CacheTuples)
	}
	execMetrics(out, st, len(traced))

	// Replay the front end of every traced request through an engine
	// configured like a tenant's, and execute the first occurrence of each
	// distinct query to check the replayed plan's answer.
	rep := &replayer{tr: tr, cat: db.Catalog(), shared: true}
	eng := core.NewEngine(db, core.WithParallelism(1), core.WithPlanCache(0))
	var prepare samples
	replayed := map[string]bool{}
	base := len(traced) + len(tracedClosed)
	for i, e := range traced {
		if e.status != http.StatusOK {
			continue
		}
		req := int64(base + i + 1)
		var p *core.Prepared
		var err error
		start := time.Now()
		tr.do(req, 0, "core.prepare", func(int64) { p, err = eng.Prepare(e.query) })
		prepare = append(prepare, time.Since(start))
		if err != nil {
			out.mismatch("replay prepare %q: %v", e.query, err)
			continue
		}
		var ans *answer
		if !replayed[e.query] {
			replayed[e.query] = true
			a, _, err := decodeAnswer(e.body)
			if err != nil {
				return nil, err
			}
			ans = &a
		}
		if err := rep.replay(req, 0, e.query, p, ans); err != nil {
			out.mismatch("%v", err)
		}
	}
	rep.frontEndMetrics(out)
	l["core.prepare_us_p50"] = prepare.quantile(0.5) * 1000
	if t := totalDur(plan) + totalDur(execT); t > 0 {
		l["core.frontend_share"] = totalDur(plan).Seconds() / t.Seconds()
	}
	out.info["self_ms_p50"] = selfSummary(tr)
	out.info["traced_memo"] = memoInfo(traced, tst)
	out.info["replay_exec_stats"] = rep.stats.String()
	return out, nil
}

// diffStats returns the counter movement between two /stats reports of one
// server: engine counters per tenant and the shed and deadline totals.
func diffStats(after, before service.StatsReport) service.StatsReport {
	d := after
	d.Service.Sheds -= before.Service.Sheds
	d.Service.DeadlineExceeded -= before.Service.DeadlineExceeded
	d.Tenants = make(map[string]core.Snapshot, len(after.Tenants))
	for name, snap := range after.Tenants {
		d.Tenants[name] = snap.Diff(before.Tenants[name])
	}
	return d
}

// snapshotStats converts a tenant snapshot's counters back into an
// exec.Stats for the shared per-op metric code. Block fill is a cumulative
// gauge in the snapshot, so BatchTuples is estimated from it.
func snapshotStats(s core.Snapshot) exec.Stats {
	st := exec.Stats{
		BaseTuplesRead:       s.BaseTuplesRead,
		Comparisons:          s.Comparisons,
		HashInserts:          s.HashInserts,
		IntermediateTuples:   s.IntermediateTuples,
		Materializations:     s.Materializations,
		OutputTuples:         s.OutputTuples,
		BatchesEmitted:       s.BatchesEmitted,
		CacheHits:            s.CacheHits,
		CacheMisses:          s.CacheMisses,
		CacheTuplesReplayed:  s.CacheTuplesReplayed,
		CacheTuplesSpooled:   s.CacheTuplesSpooled,
		CacheSpoolsAbandoned: s.CacheSpoolsAbandoned,
	}
	st.BatchTuples = int64(s.AvgBatchFill * float64(s.BatchesEmitted))
	return st
}
