package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/integrity"
	"repro/internal/relation"
)

// constraint is one integrity constraint of the workload. mentions lists
// the relations it reads, which decides the reference verdict of an insert
// the way the manager decides which constraints to recheck; witness is the
// hand-written open query whose answers are its violations.
type constraint struct {
	name, source string
	mentions     []string
	witness      string
}

// integrityConstraints covers the shapes the manager treats differently:
// specializable ∀-implications (checked on the inserted tuple only), a
// non-specializable ∀ and a closed ∃ over the 240k-tuple attends relation
// (full rechecks on every attends insert), a negated ∃, and one constraint
// violated in every generated database, so sweeps run its witness query.
var integrityConstraints = []constraint{
	{"attends-ref", `forall x, y: attends(x, y) => student(x) and exists d: lecture(y, d)`,
		[]string{"attends", "student", "lecture"}, `{ x, y | attends(x, y) and not (student(x) and exists d: lecture(y, d)) }`},
	{"enrolled-dept", `forall x, d: enrolled(x, d) => student(x) and (d = "cs" or d = "math" or d = "bio")`,
		[]string{"enrolled", "student"}, ""},
	{"makes-degree", `forall x, g: makes(x, g) => student(x) and (g = "PhD" or g = "MSc")`,
		[]string{"makes", "student"}, ""},
	{"student-attends", `forall x: student(x) => exists y: attends(x, y)`,
		[]string{"student", "attends"}, `{ x | student(x) and not exists y: attends(x, y) }`},
	{"no-prof-enrolled", `not exists x, d: prof(x) and enrolled(x, d)`,
		[]string{"prof", "enrolled"}, `{ x, d | prof(x) and enrolled(x, d) }`},
	{"cs-attendance", `exists x: student(x) and exists y: cs_lecture(y) and attends(x, y)`,
		[]string{"student", "cs_lecture", "attends"}, ""},
	{"prof-speaks", `forall x: prof(x) => exists l: speaks(x, l)`,
		[]string{"prof", "speaks"}, `{ x | prof(x) and not exists l: speaks(x, l) }`},
}

// opKind is one class of operation in the stream.
type opKind int

const (
	opAttendsOK opKind = iota
	opAttendsBad
	opEnrolledOK
	opEnrolledBad
	opMakesOK
	opMakesBad
	opSweep
)

var opKindNames = [...]string{"attends-ok", "attends-bad", "enrolled-ok", "enrolled-bad", "makes-ok", "makes-bad", "sweep"}

// opWeights is the share of each insert kind in the stream (sweeps come
// every sweepEvery ops instead).
var opWeights = [...]int{opAttendsOK: 12, opAttendsBad: 13, opEnrolledOK: 20, opEnrolledBad: 15, opMakesOK: 22, opMakesBad: 18}

const (
	sweepEvery = 40
	poolSize   = 12
)

// candidate is one tuple the stream may insert, with the verdict the
// reference derived for it.
type candidate struct {
	rel    string
	tuple  relation.Tuple
	accept bool
}

type integritySetup struct {
	db  *core.DB
	mgr *integrity.Manager
}

func integrityUniversity(seed int64, n int) *core.DB {
	p := dataset.DefaultUniversity(n)
	p.Seed = subSeed(seed, "university", 0)
	return dbOf(dataset.University(p))
}

func buildIntegrity(seed int64, n int) (integritySetup, error) {
	db := integrityUniversity(seed, n)
	mgr := integrity.NewManager(db)
	for _, c := range integrityConstraints {
		if _, err := mgr.Define(c.name, c.source); err != nil {
			return integritySetup{}, err
		}
	}
	return integritySetup{db: db, mgr: mgr}, nil
}

// candidatePools draws poolSize tuples per insert kind from the database.
// Accepted kinds are new tuples every constraint admits; rejected kinds
// break one specializable constraint.
func candidatePools(db *core.DB, rng *rand.Rand) (map[opKind][]candidate, error) {
	cat := db.Catalog()
	rel := func(name string) *relation.Relation { r, _ := cat.Relation(name); return r }
	students, profs, lectures := rel("student").Tuples(), rel("prof").Tuples(), rel("lecture").Tuples()
	if len(students) == 0 || len(profs) == 0 || len(lectures) == 0 {
		return nil, errors.New("dataset has no students, professors or lectures")
	}
	pick := func(ts []relation.Tuple) relation.Value { return ts[rng.Intn(len(ts))][0] }
	depts := []string{"cs", "math", "bio"}
	pools := map[opKind][]candidate{}
	fresh := func(kind opKind, name string, gen func() relation.Tuple) {
		for len(pools[kind]) < poolSize {
			t := gen()
			if rel(name).Contains(t) {
				continue
			}
			dup := false
			for _, c := range pools[kind] {
				if c.tuple.Key() == t.Key() {
					dup = true
				}
			}
			if !dup {
				pools[kind] = append(pools[kind], candidate{rel: name, tuple: t})
			}
		}
	}
	fresh(opAttendsOK, "attends", func() relation.Tuple { return relation.NewTuple(pick(students), pick(lectures)) })
	fresh(opAttendsBad, "attends", func() relation.Tuple {
		if rng.Intn(2) == 0 {
			return relation.NewTuple(pick(profs), pick(lectures))
		}
		return relation.NewTuple(pick(students), relation.Str(fmt.Sprintf("zz%03d", rng.Intn(1000))))
	})
	fresh(opEnrolledOK, "enrolled", func() relation.Tuple { return relation.NewTuple(pick(students), relation.Str(depts[rng.Intn(3)])) })
	fresh(opEnrolledBad, "enrolled", func() relation.Tuple {
		if rng.Intn(2) == 0 {
			return relation.NewTuple(pick(profs), relation.Str(depts[rng.Intn(3)]))
		}
		return relation.NewTuple(pick(students), relation.Str("law"))
	})
	fresh(opMakesOK, "makes", func() relation.Tuple { return relation.NewTuple(pick(students), relation.Str("MSc")) })
	fresh(opMakesBad, "makes", func() relation.Tuple {
		if rng.Intn(2) == 0 {
			return relation.NewTuple(pick(profs), relation.Str("PhD"))
		}
		return relation.NewTuple(pick(students), relation.Str("BSc"))
	})
	return pools, nil
}

// referenceVerdicts decides every candidate independently of the manager:
// insert the tuple, evaluate in full every constraint that reads the
// relation with a reference engine (tuple-at-a-time, no plan cache), and
// remove the tuple again. It also checks each kind got the verdict it was
// drawn for, so a dataset that defeats the design fails loudly.
func referenceVerdicts(db *core.DB, pools map[opKind][]candidate) error {
	ref := core.NewEngine(db, core.WithBatchSize(-1))
	for kind, pool := range pools {
		for i := range pool {
			c := &pool[i]
			r, _ := db.Catalog().Relation(c.rel)
			r.Insert(c.tuple)
			c.accept = true
			for _, con := range integrityConstraints {
				if !slices.Contains(con.mentions, c.rel) {
					continue
				}
				ok, err := ref.Check(con.source)
				if err != nil {
					r.Delete(c.tuple)
					return fmt.Errorf("reference check %s: %w", con.name, err)
				}
				if !ok {
					c.accept = false
					break
				}
			}
			r.Delete(c.tuple)
			wantAccept := kind == opAttendsOK || kind == opEnrolledOK || kind == opMakesOK
			if c.accept != wantAccept {
				return fmt.Errorf("candidate %s%s drawn as %s but the reference verdict is accept=%v",
					c.rel, c.tuple, opKindNames[kind], c.accept)
			}
		}
	}
	return nil
}

// sweepReport is the checked form of one CheckAll report.
type sweepReport struct {
	satisfied bool
	witnesses digest
}

// referenceSweep evaluates every constraint and the witnesses of the
// violated ones with the reference engine.
func referenceSweep(db *core.DB) ([]sweepReport, error) {
	ref := core.NewEngine(db, core.WithBatchSize(-1))
	out := make([]sweepReport, len(integrityConstraints))
	for i, c := range integrityConstraints {
		ok, err := ref.Check(c.source)
		if err != nil {
			return nil, fmt.Errorf("reference check %s: %w", c.name, err)
		}
		out[i].satisfied = ok
		if ok {
			continue
		}
		if c.witness == "" {
			return nil, fmt.Errorf("constraint %s is violated but has no witness query", c.name)
		}
		res, err := ref.Query(c.witness)
		if err != nil {
			return nil, fmt.Errorf("reference witnesses %s: %w", c.name, err)
		}
		out[i].witnesses = digestRelation(res.Rows)
	}
	return out, nil
}

// opStream is the seeded sequence of operations: a sweep every sweepEvery
// ops, and inserts dealt from shuffled decks holding each kind in exact
// proportion to its weight, so every run has the same mix.
type opStream struct {
	rng   *rand.Rand
	pools map[opKind][]candidate
	deck  []opKind
	n     int
}

type streamOp struct {
	kind opKind
	cand candidate
}

func (s *opStream) next() streamOp {
	s.n++
	if s.n%sweepEvery == 0 {
		return streamOp{kind: opSweep}
	}
	if len(s.deck) == 0 {
		for k, w := range opWeights {
			for i := 0; i < w; i++ {
				s.deck = append(s.deck, opKind(k))
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	kind := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	pool := s.pools[kind]
	return streamOp{kind: kind, cand: pool[s.rng.Intn(len(pool))]}
}

func runIntegrity(cfg config) (*outcome, error) {
	out := newOutcome()
	s, setupS, err := setupMedian(setupRepeats, func() (integritySetup, error) { return buildIntegrity(cfg.seed, 2000) }, nil)
	if err != nil {
		return nil, err
	}
	out.endToEnd["setup_s"] = setupS
	pools, err := candidatePools(s.db, newRand(cfg.seed, "integrity-pools", 0))
	if err != nil {
		return nil, err
	}
	if err := referenceVerdicts(s.db, pools); err != nil {
		return nil, err
	}
	wantSweep, err := referenceSweep(s.db)
	if err != nil {
		return nil, err
	}
	cat := s.db.Catalog()
	stream := &opStream{rng: newRand(cfg.seed, "integrity-ops", 0), pools: pools}
	var (
		deletes  samples
		writes   int64
		rep      *replayer
		repEng   *core.Engine
		prepare  samples
		coreRun  samples
		replayed int
	)

	// step runs one operation and returns its latency and whether it
	// succeeded; an expected rejection is a success, a wrong verdict a
	// mismatch.
	step := func(tr *tracer, n int) (time.Duration, bool, opKind) {
		op := stream.next()
		req := int64(n + 1)
		gen0 := cat.Generation()
		var d time.Duration
		ok := true
		tr.do(req, 0, "op", func(id int64) {
			if op.kind == opSweep {
				var reps []integrity.Report
				var err error
				start := time.Now()
				tr.do(req, id, "integrity.check_all", func(int64) { reps, err = s.mgr.CheckAll() })
				d = time.Since(start)
				if err != nil {
					out.failed++
					ok = false
					return
				}
				checkSweep(out, reps, wantSweep)
				if tr != nil {
					replayed += replaySweep(out, tr, req, id, rep, repEng, reps, &prepare, &coreRun)
				}
				return
			}
			var err error
			start := time.Now()
			tr.do(req, id, "integrity.insert_checked", func(int64) { err = s.mgr.InsertChecked(op.cand.rel, op.cand.tuple) })
			d = time.Since(start)
			// The manager reports a violation as an untyped error naming the
			// constraint; any other error is a failed operation.
			if err != nil && !strings.Contains(err.Error(), "violates constraint") {
				out.failed++
				ok = false
				return
			}
			if accepted := err == nil; accepted != op.cand.accept {
				out.mismatch("insert %s%s: accepted=%v, reference accepted=%v (%v)", op.cand.rel, op.cand.tuple, accepted, op.cand.accept, err)
			}
			if err == nil {
				// Restore the database so every op sees the same state.
				r, _ := cat.Relation(op.cand.rel)
				ws := time.Now()
				tr.do(req, id, "storage.delete", func(int64) { r.Delete(op.cand.tuple) })
				if tr != nil {
					deletes = append(deletes, time.Since(ws))
				}
			}
		})
		if tr != nil {
			writes += cat.Generation() - gen0
		}
		out.attempted++
		return d, ok, op.kind
	}

	// measure runs the stream for the window. With a tracer, every other
	// op is traced (sweeps replayed layer by layer), so traced and untraced
	// ops share the same conditions; plain and traced split the latencies
	// by op kind between the two.
	measure := func(tr *tracer, window time.Duration) (lat samples, ok []bool, plain, traced map[int]samples) {
		plain, traced = map[int]samples{}, map[int]samples{}
		mem := startMem()
		deadline := time.Now().Add(window)
		for n := 0; time.Now().Before(deadline); n++ {
			opTr := tr
			if n%2 == 0 {
				opTr = nil
			}
			d, good, kind := step(opTr, n)
			lat = append(lat, d)
			ok = append(ok, good)
			if opTr == nil {
				plain[int(kind)] = append(plain[int(kind)], d)
			} else {
				traced[int(kind)] = append(traced[int(kind)], d)
			}
		}
		if tr == nil {
			out.endToEnd["alloc_bytes_per_op"], out.endToEnd["allocs_per_op"] = mem.perOp(len(lat))
		}
		return lat, ok, plain, traced
	}

	if !cfg.trace {
		lat, ok, byKind, _ := measure(nil, cfg.window())
		closedLoopE2E(out, lat, ok, cfg.seed)
		out.endToEnd["peak_rss_mb"] = peakRSSMB()
		out.info["ops_by_kind"] = kindCounts(byKind)
		kindMS := map[string]float64{}
		for k, s := range byKind {
			kindMS[opKindNames[k]] = s.quantile(0.5)
		}
		out.info["op_ms_p50"] = kindMS
		return out, nil
	}
	tr := newTracer()
	rep = &replayer{tr: tr, cat: cat, shared: true}
	repEng = core.NewEngine(s.db, core.WithPlanCache(0))
	_, _, plain, traced := measure(tr, cfg.window())
	out.spans = tr
	rep.frontEndMetrics(out)
	execMetrics(out, rep.stats, rep.execs)
	var accepted, rejected samples
	tracedOps := 0
	for k, s := range traced {
		tracedOps += len(s)
		switch opKind(k) {
		case opAttendsOK, opEnrolledOK, opMakesOK:
			accepted = append(accepted, s...)
		case opAttendsBad, opEnrolledBad, opMakesBad:
			rejected = append(rejected, s...)
		}
	}
	out.perLayer["integrity.insert_accepted_ms_p50"] = accepted.quantile(0.5)
	out.perLayer["integrity.insert_rejected_ms_p50"] = rejected.quantile(0.5)
	out.perLayer["integrity.check_all_ms_p50"] = traced[int(opSweep)].quantile(0.5)
	if n := len(accepted) + len(rejected); n > 0 {
		out.perLayer["integrity.reject_ratio"] = float64(len(rejected)) / float64(n)
	}
	out.perLayer["storage.writes_per_op"] = float64(writes) / float64(max(tracedOps, 1))
	out.perLayer["storage.write_us_p50"] = deletes.quantile(0.5) * 1000
	out.perLayer["core.prepare_us_p50"] = prepare.quantile(0.5) * 1000
	out.perLayer["core.run_ms_p50"] = coreRun.quantile(0.5)
	if t := totalDur(prepare) + totalDur(coreRun); t > 0 {
		out.perLayer["core.frontend_share"] = totalDur(prepare).Seconds() / t.Seconds()
	}
	out.perLayer["trace.overhead_pct"] = mixOverhead(plain, traced)
	out.info["self_ms_p50"] = selfSummary(tr)
	out.info["replayed_constraint_checks"] = replayed
	out.info["ops_by_kind"] = kindCounts(traced)
	return out, nil
}

// checkSweep compares one CheckAll report with the reference.
func checkSweep(out *outcome, reps []integrity.Report, want []sweepReport) {
	if len(reps) != len(want) {
		out.mismatch("CheckAll returned %d reports, want %d", len(reps), len(want))
		return
	}
	for i, r := range reps {
		w := want[i]
		if r.Name != integrityConstraints[i].name || r.Satisfied != w.satisfied {
			out.mismatch("CheckAll %s: satisfied=%v, reference %v", r.Name, r.Satisfied, w.satisfied)
			continue
		}
		if !r.Satisfied && digestRelation(r.Witnesses) != w.witnesses {
			out.mismatch("CheckAll %s: witnesses %+v, reference %+v", r.Name, digestRelation(r.Witnesses), w.witnesses)
		}
	}
}

// replaySweep replays every constraint of a sweep through an engine
// configured like the manager's (plan cache on), timing Prepare and Run,
// and through the layer-by-layer decomposition, checking both against the
// sweep's verdicts. It returns the number of constraints replayed.
func replaySweep(out *outcome, tr *tracer, req, parent int64, rep *replayer, eng *core.Engine, reps []integrity.Report, prepare, run *samples) int {
	n := 0
	for i, c := range integrityConstraints {
		if i >= len(reps) {
			break
		}
		var p *core.Prepared
		var res *core.Result
		var err error
		start := time.Now()
		tr.do(req, parent, "core.prepare", func(int64) { p, err = eng.Prepare(c.source) })
		*prepare = append(*prepare, time.Since(start))
		if err != nil {
			out.mismatch("replay prepare %s: %v", c.name, err)
			continue
		}
		start = time.Now()
		tr.do(req, parent, "core.run", func(int64) { res, err = eng.Run(p) })
		*run = append(*run, time.Since(start))
		if err != nil {
			out.mismatch("replay run %s: %v", c.name, err)
			continue
		}
		want := answer{Truth: reps[i].Satisfied}
		if got := answerOf(res); got != want {
			out.mismatch("replay %s: engine answered %s, sweep reported %s", c.name, got, want)
		}
		if err := rep.replay(req, parent, c.source, p, &want); err != nil {
			out.mismatch("%v", err)
		}
		n++
	}
	return n
}

func kindCounts(byKind map[int]samples) map[string]int {
	out := map[string]int{}
	for k, s := range byKind {
		out[opKindNames[k]] = len(s)
	}
	return out
}
