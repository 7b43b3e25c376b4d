package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/translate"
)

// analyticQuery is one member of the analytic-open mix: a query text and
// the engine (dataset plus translation options) that evaluates it.
type analyticQuery struct {
	name   string
	db     string // "university", "ptu" or "rstg"
	topts  translate.Options
	source string
}

// analyticMix is the fixed round-robin mix: the shapes the paper's method
// exists for, sized so execution dominates (NOTES.md lists their costs).
var analyticMix = []analyticQuery{
	{"division", "university", translate.Options{}, `{ x | student(x) and forall y: cs_lecture(y) and y < "cs010" => attends(x, y) }`},
	{"e12-join", "university", translate.Options{}, `{ x, z, t | member(x, z) and skill(x, t) }`},
	{"e12-complement-join", "university", translate.Options{}, `{ x, z | member(x, z) and not skill(x, "db") }`},
	{"negated-exists-filter", "university", translate.Options{}, `{ x | student(x) and not exists y: attends(x, y) and lecture(y, "cs") and y < "cs010" }`},
	{"disjunctive-positive", "university", translate.Options{}, `{ x | student(x) and (makes(x, "PhD") or speaks(x, "french")) }`},
	{"disjunctive-negated", "university", translate.Options{}, `{ x | student(x) and (not makes(x, "PhD") or speaks(x, "french")) }`},
	{"ptu-3way", "ptu", translate.Options{}, `{ x | P(x) and (T(x) or U(x) or T2(x)) }`},
	{"ptu-negated", "ptu", translate.Options{}, `{ x | P(x) and (not T(x) or U(x)) }`},
	{"ptu-width4", "ptu", translate.Options{}, `{ x | P(x) and T(x) and (U(x) or T2(x) or T3(x) or T4(x)) }`},
	{"ptu-width4-union", "ptu", translate.Options{DisjunctiveFilters: translate.StrategyUnion}, `{ x | P(x) and T(x) and (U(x) or T2(x) or T3(x) or T4(x)) }`},
	{"prop4-case3", "rstg", translate.Options{}, `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and G(x, y, z) }`},
	{"prop4-case4", "rstg", translate.Options{}, `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and not G(x, y, z) }`},
	{"prop4-case5", "rstg", translate.Options{}, `{ x | exists y: R(x, y) and not exists z: T(y, z) and not G(x, y, z) }`},
}

// analyticCatalogs builds the three seeded datasets of the mix at the given
// scale (1 is the benchmark's size; the oracle test uses smaller ones).
func analyticCatalogs(seed int64, university, ptu, rstg int) map[string]*storage.Catalog {
	up := dataset.DefaultUniversity(university)
	up.Seed = subSeed(seed, "university", 0)
	rp := dataset.DefaultRSTG(rstg)
	rp.Seed = subSeed(seed, "rstg", 0)
	return map[string]*storage.Catalog{
		"university": dataset.University(up),
		"ptu": dataset.PTU(dataset.PTUParams{N: ptu, TProb: 0.3, UProb: 0.1, ExtraShare: 0.05, Branches: 5,
			Seed: subSeed(seed, "ptu", 0)}),
		"rstg": dataset.RSTG(rp),
	}
}

// dbOf wraps a generated catalog in a core.DB.
func dbOf(cat *storage.Catalog) *core.DB {
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	return db
}

// analyticSetup is one built instance of the workload: an engine per query
// (library defaults plus the query's translation options) over shared DBs.
type analyticSetup struct {
	dbs     map[string]*core.DB
	engines []*core.Engine
}

func buildAnalytic(seed int64, university, ptu, rstg int) analyticSetup {
	s := analyticSetup{dbs: map[string]*core.DB{}}
	for name, cat := range analyticCatalogs(seed, university, ptu, rstg) {
		s.dbs[name] = dbOf(cat)
	}
	for _, q := range analyticMix {
		s.engines = append(s.engines, core.NewEngine(s.dbs[q.db], core.WithTranslateOptions(q.topts)))
	}
	return s
}

// referenceAnswers evaluates every query of the mix with the reference
// configuration: the tuple-at-a-time executor, so the measured block
// executor is checked against the other pipeline.
func referenceAnswers(s analyticSetup) ([]answer, error) {
	out := make([]answer, len(analyticMix))
	for i, q := range analyticMix {
		ref := core.NewEngine(s.dbs[q.db], core.WithTranslateOptions(q.topts), core.WithBatchSize(-1))
		res, err := ref.Query(q.source)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		out[i] = answerOf(res)
	}
	return out, nil
}

func answerOf(res *core.Result) answer {
	if res.Open {
		return answer{Open: true, Digest: digestRelation(res.Rows)}
	}
	return answer{Truth: res.Truth}
}

func runAnalytic(cfg config) (*outcome, error) {
	out := newOutcome()
	s, setupS, err := setupMedian(setupRepeats, func() (analyticSetup, error) { return buildAnalytic(cfg.seed, 2000, 50000, 120), nil }, nil)
	if err != nil {
		return nil, err
	}
	out.endToEnd["setup_s"] = setupS
	want, err := referenceAnswers(s)
	if err != nil {
		return nil, err
	}

	// op runs query i through Prepare and Run, timing the pair; the answer
	// check happens after the timed call.
	var total exec.Stats
	var prepare, run samples
	op := func(tr *tracer, req int64, i int) (time.Duration, *core.Prepared, answer, error) {
		q := analyticMix[i]
		var p *core.Prepared
		var res *core.Result
		var err error
		start := time.Now()
		tr.do(req, 0, "op", func(id int64) {
			tr.do(req, id, "core.prepare", func(int64) { p, err = s.engines[i].Prepare(q.source) })
			if err != nil {
				return
			}
			mid := time.Now()
			tr.do(req, id, "core.run", func(int64) { res, err = s.engines[i].Run(p) })
			if tr != nil && err == nil {
				prepare = append(prepare, mid.Sub(start))
				run = append(run, time.Since(mid))
			}
		})
		d := time.Since(start)
		if err != nil {
			return d, nil, answer{}, err
		}
		if tr != nil {
			total.Add(res.Stats)
		}
		return d, p, answerOf(res), nil
	}

	// measure runs the mix round-robin for the window. With a tracer,
	// alternate passes are traced and replayed layer by layer, so traced
	// and untraced passes share the same conditions; plain and traced
	// return each query's latencies in the two kinds of pass.
	measure := func(tr *tracer, window time.Duration) (lat samples, ok []bool, plain, traced map[int]samples) {
		plain, traced = map[int]samples{}, map[int]samples{}
		var rep *replayer
		if tr != nil {
			rep = &replayer{tr: tr}
		}
		mem := startMem()
		deadline := time.Now().Add(window)
		for n := 0; time.Now().Before(deadline); n++ {
			i := n % len(analyticMix)
			req := int64(n + 1)
			opTr := tr
			if (n/len(analyticMix))%2 == 0 {
				opTr = nil
			}
			d, p, got, err := op(opTr, req, i)
			out.attempted++
			lat = append(lat, d)
			ok = append(ok, err == nil)
			if err != nil {
				out.failed++
				continue
			}
			if opTr == nil {
				plain[i] = append(plain[i], d)
			} else {
				traced[i] = append(traced[i], d)
			}
			if got != want[i] {
				out.mismatch("%s: got %s, reference %s", analyticMix[i].name, got, want[i])
			}
			if opTr != nil {
				rep.topts = analyticMix[i].topts
				rep.cat = s.dbs[analyticMix[i].db].Catalog()
				if err := rep.replay(req, 0, analyticMix[i].source, p, &got); err != nil {
					out.mismatch("%v", err)
				}
			}
		}
		if tr == nil {
			out.endToEnd["alloc_bytes_per_op"], out.endToEnd["allocs_per_op"] = mem.perOp(len(lat))
		} else {
			rep.frontEndMetrics(out)
			out.info["replay_exec_stats"] = rep.stats.String()
		}
		return lat, ok, plain, traced
	}

	if !cfg.trace {
		lat, ok, perQuery, _ := measure(nil, cfg.window())
		closedLoopE2E(out, lat, ok, cfg.seed)
		queryMS := map[string]float64{}
		for i, s := range perQuery {
			queryMS[analyticMix[i].name] = s.quantile(0.5)
		}
		out.info["query_ms_p50"] = queryMS
		out.endToEnd["peak_rss_mb"] = peakRSSMB()
		return out, nil
	}
	tr := newTracer()
	_, _, plain, traced := measure(tr, cfg.window())
	out.spans = tr
	execMetrics(out, total, len(prepare))
	out.perLayer["core.prepare_us_p50"] = prepare.quantile(0.5) * 1000
	out.perLayer["core.run_ms_p50"] = run.quantile(0.5)
	out.perLayer["core.frontend_share"] = totalDur(prepare).Seconds() / (totalDur(prepare) + totalDur(run)).Seconds()
	out.perLayer["trace.overhead_pct"] = mixOverhead(plain, traced)
	out.info["self_ms_p50"] = selfSummary(tr)
	return out, nil
}

// mixOverhead averages, over the classes of operations in a mix, the
// relative change of each class's median latency from untraced to traced
// operations.
func mixOverhead(plain, traced map[int]samples) float64 {
	sum, n := 0.0, 0
	for i, p := range plain {
		t, ok := traced[i]
		if !ok || p.quantile(0.5) == 0 {
			continue
		}
		sum += overheadPct(p, t)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func totalDur(s samples) time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}
