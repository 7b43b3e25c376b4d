package main

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/planopt"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/translate"
)

// replayer breaks Engine.Prepare into its stages by calling each layer's
// public function in turn — parser.Parse, rewrite.Normalize, the Bry
// translator, planopt.Share — and optionally executes the result with
// exec.Run/exec.EvalBool. It checks that the stages reproduce the engine's
// canonical form and plan, and that execution reproduces its answer.
type replayer struct {
	tr    *tracer
	cat   *storage.Catalog
	topts translate.Options
	// shared mirrors an engine with the plan cache on, whose Prepare runs
	// the share pass; without it the pass is timed but its output unused.
	shared bool

	stats       exec.Stats
	execs       int
	translated  int
	planNodes   int
	divisions   int
	sharedNodes int
}

// replay decomposes input. want is the engine's prepared form of the same
// text; answer, when non-nil, is the engine's answer to compare against.
func (r *replayer) replay(req, parent int64, input string, want *core.Prepared, ans *answer) error {
	var (
		q    parser.Query
		nq   parser.Query
		plan algebra.Plan
		bp   algebra.BoolPlan
		err  error
	)
	r.tr.do(req, parent, "parser.parse", func(int64) { q, err = parser.Parse(input) })
	if err != nil {
		return fmt.Errorf("replay parse %q: %w", input, err)
	}
	r.tr.do(req, parent, "rewrite.normalize", func(int64) { nq, err = rewrite.Normalize(q) })
	if err != nil {
		return fmt.Errorf("replay normalize %q: %w", input, err)
	}
	r.tr.do(req, parent, "translate.translate", func(int64) {
		plan, bp, err = translate.NewBryWithOptions(r.cat, r.topts).Translate(nq)
	})
	if err != nil {
		return fmt.Errorf("replay translate %q: %w", input, err)
	}
	all := func(algebra.Plan) bool { return true }
	isDiv := func(p algebra.Plan) bool { _, ok := p.(*algebra.Division); return ok }
	isShared := func(p algebra.Plan) bool { _, ok := p.(*algebra.Shared); return ok }
	var sp algebra.Plan
	var sbp algebra.BoolPlan
	r.tr.do(req, parent, "planopt.share", func(int64) {
		if plan != nil {
			sp = planopt.Share(plan)
		} else {
			sbp = planopt.ShareBool(bp)
		}
	})
	r.translated++
	if plan != nil {
		r.planNodes += algebra.CountOperators(plan, all)
		r.divisions += algebra.CountOperators(plan, isDiv)
		r.sharedNodes += algebra.CountOperators(sp, isShared)
	} else {
		r.planNodes += algebra.CountBoolOperators(bp, all)
		r.divisions += algebra.CountBoolOperators(bp, isDiv)
		r.sharedNodes += algebra.CountBoolOperators(sbp, isShared)
	}
	if r.shared {
		plan, bp = sp, sbp
	}
	if nq.String() != want.Canonical.String() {
		return fmt.Errorf("replay of %q: canonical form %q, engine has %q", input, nq.String(), want.Canonical.String())
	}
	got := (&core.Prepared{Canonical: nq, Plan: plan, BoolPlan: bp}).Explain()
	if got != want.Explain() {
		return fmt.Errorf("replay of %q: plan differs from Engine.Prepare:\n%s\nengine:\n%s", input, got, want.Explain())
	}
	if ans == nil {
		return nil
	}
	ctx := exec.NewContext(r.cat)
	var res answer
	r.tr.do(req, parent, "exec.run", func(int64) {
		if plan != nil {
			rows, e := exec.Run(ctx, plan)
			res, err = answer{Open: true, Digest: digestRelation(rows)}, e
		} else {
			ok, e := exec.EvalBool(ctx, bp)
			res, err = answer{Truth: ok}, e
		}
	})
	if err != nil {
		return fmt.Errorf("replay exec %q: %w", input, err)
	}
	r.stats.Add(*ctx.Stats)
	r.execs++
	if res != *ans {
		return fmt.Errorf("replay of %q answered %s, engine answered %s", input, res, *ans)
	}
	return nil
}

// frontEndMetrics fills the front-end and plan-shape per-layer metrics from
// the replay spans.
func (r *replayer) frontEndMetrics(out *outcome) {
	d := r.tr.durations()
	out.perLayer["parser.parse_us_p50"] = d["parser.parse"].quantile(0.5) * 1000
	out.perLayer["rewrite.normalize_us_p50"] = d["rewrite.normalize"].quantile(0.5) * 1000
	out.perLayer["translate.translate_us_p50"] = d["translate.translate"].quantile(0.5) * 1000
	out.perLayer["planopt.share_us_p50"] = d["planopt.share"].quantile(0.5) * 1000
	if r.translated > 0 {
		n := float64(r.translated)
		out.perLayer["translate.plan_nodes"] = float64(r.planNodes) / n
		out.perLayer["translate.division_nodes"] = float64(r.divisions) / n
		out.perLayer["planopt.shared_nodes"] = float64(r.sharedNodes) / n
	}
	out.perLayer["exec.self_ms_p50"] = r.tr.selfTimes()["exec.run"].quantile(0.5)
}

// execMetrics fills the executor counters per operation from st over ops.
func execMetrics(out *outcome, st exec.Stats, ops int) {
	if ops < 1 {
		return
	}
	n := float64(ops)
	out.perLayer["exec.base_tuples_read_per_op"] = float64(st.BaseTuplesRead) / n
	out.perLayer["exec.comparisons_per_op"] = float64(st.Comparisons) / n
	out.perLayer["exec.hash_inserts_per_op"] = float64(st.HashInserts) / n
	out.perLayer["exec.intermediate_tuples_per_op"] = float64(st.IntermediateTuples) / n
	out.perLayer["exec.materializations_per_op"] = float64(st.Materializations) / n
	out.perLayer["exec.output_tuples_per_op"] = float64(st.OutputTuples) / n
	if st.OutputTuples > 0 {
		out.perLayer["exec.reads_per_output_row"] = float64(st.BaseTuplesRead) / float64(st.OutputTuples)
	}
	out.perLayer["exec.batches_emitted_per_op"] = float64(st.BatchesEmitted) / n
	if st.BatchesEmitted > 0 {
		out.perLayer["exec.avg_batch_fill"] = float64(st.BatchTuples) / float64(st.BatchesEmitted)
	}
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		out.perLayer["exec.memo_hit_ratio"] = float64(st.CacheHits) / float64(lookups)
	}
	out.perLayer["exec.memo_tuples_replayed_per_op"] = float64(st.CacheTuplesReplayed) / n
	out.perLayer["exec.memo_tuples_spooled_per_op"] = float64(st.CacheTuplesSpooled) / n
	out.perLayer["exec.memo_spools_abandoned"] = float64(st.CacheSpoolsAbandoned)
}

// overheadPct compares the traced half-window's op latency with the
// untraced half's, on the same operations.
func overheadPct(untraced, traced samples) float64 {
	u, t := untraced.quantile(0.5), traced.quantile(0.5)
	if u == 0 {
		return 0
	}
	return (t - u) / u * 100
}

func msDur(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
