package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/expect.json from the loopeval oracle")

// Scaled-down sizes at which the loopeval oracle (core.StrategyLoop) is
// affordable for every query of the benchmark.
const (
	smallUniversity = 200
	smallPTU        = 2000
	smallRSTG       = 24
	smallTemplates  = 40
)

// oracleSeeds are the seeds the test re-derives answers for; the first
// one's answers are the committed expectations.
var oracleSeeds = []int64{1, 2, 3}

// TestExpectations re-derives every answer the benchmark checks — the
// analytic mix, the integrity verdicts and sweep reports, and a sample of
// service templates — with the loopeval oracle on scaled-down instances.
// The measured configuration and the reference configuration the runs
// check against must both agree with the oracle, so a run's reference can
// never enshrine a wrong answer. Seed 1's answers are committed in
// testdata/expect.json; -update rewrites them.
func TestExpectations(t *testing.T) {
	var got map[string]any
	for _, seed := range oracleSeeds {
		answers := oracleAnswers(t, seed)
		if seed == oracleSeeds[0] {
			got = answers
		}
	}
	path := filepath.Join("testdata", "expect.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	var want map[string]any
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	// Round-trip got through JSON so both sides have the same types.
	gb, _ := json.Marshal(got)
	var gotJSON map[string]any
	if err := json.Unmarshal(gb, &gotJSON); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if fmt.Sprint(gotJSON[k]) != fmt.Sprint(w) {
			t.Errorf("%s: oracle now answers %v, committed %v", k, gotJSON[k], w)
		}
	}
	for k := range gotJSON {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: no committed expectation (run go test -update)", k)
		}
	}
}

// oracleAnswers derives the answers for one seed, failing the test where
// the measured or reference configuration disagrees with the oracle.
func oracleAnswers(t *testing.T, seed int64) map[string]any {
	t.Helper()
	out := map[string]any{}
	agree := func(key string, db *core.DB, src string, configs ...*core.Engine) {
		t.Helper()
		oracle := core.NewEngine(db, core.WithStrategy(core.StrategyLoop))
		res, err := oracle.Query(src)
		if err != nil {
			t.Fatalf("seed %d %s: oracle: %v", seed, key, err)
		}
		want := answerOf(res)
		for _, eng := range configs {
			res, err := eng.Query(src)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, key, err)
			}
			if got := answerOf(res); got != want {
				t.Errorf("seed %d %s: engine answers %s, oracle %s", seed, key, got, want)
			}
		}
		out[key] = want
	}

	// analytic-open: library defaults (measured) and tuple-at-a-time
	// (reference).
	s := buildAnalytic(seed, smallUniversity, smallPTU, smallRSTG)
	for i, q := range analyticMix {
		db := s.dbs[q.db]
		ref := core.NewEngine(db, core.WithTranslateOptions(q.topts), core.WithBatchSize(-1))
		agree("analytic/"+q.name, db, q.source, s.engines[i], ref)
	}

	// integrity-updates: sweep truth values and witnesses, then every
	// candidate's verdict, each against the oracle.
	is, err := buildIntegrity(seed, smallUniversity)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := is.mgr.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewEngine(is.db, core.WithBatchSize(-1))
	for i, c := range integrityConstraints {
		agree("integrity/check/"+c.name, is.db, c.source, ref)
		if out["integrity/check/"+c.name].(answer).Truth != reps[i].Satisfied {
			t.Errorf("seed %d: CheckAll says %s satisfied=%v, oracle disagrees", seed, c.name, reps[i].Satisfied)
		}
		if c.witness != "" {
			agree("integrity/witness/"+c.name, is.db, c.witness, ref)
			if !reps[i].Satisfied && digestRelation(reps[i].Witnesses) != out["integrity/witness/"+c.name].(answer).Digest {
				t.Errorf("seed %d: CheckAll witnesses of %s differ from the oracle's", seed, c.name)
			}
		}
	}
	pools, err := candidatePools(is.db, newRand(seed, "integrity-pools", 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := referenceVerdicts(is.db, pools); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	oracle := core.NewEngine(is.db, core.WithStrategy(core.StrategyLoop))
	for kind := opKind(0); kind < opSweep; kind++ {
		for _, c := range pools[kind] {
			r, _ := is.db.Catalog().Relation(c.rel)
			r.Insert(c.tuple)
			accept := true
			for _, con := range integrityConstraints {
				if slices.Contains(con.mentions, c.rel) {
					ok, err := oracle.Check(con.source)
					if err != nil {
						t.Fatal(err)
					}
					accept = accept && ok
				}
			}
			r.Delete(c.tuple)
			if accept != c.accept {
				t.Errorf("seed %d: %s%s reference accept=%v, oracle %v", seed, c.rel, c.tuple, c.accept, accept)
			}
			err := is.mgr.InsertChecked(c.rel, c.tuple)
			if (err == nil) != accept {
				t.Errorf("seed %d: manager on %s%s: %v, oracle accept=%v", seed, c.rel, c.tuple, err, accept)
			}
			if err == nil {
				r.Delete(c.tuple)
			}
			out[fmt.Sprintf("integrity/verdict/%s/%s%s", opKindNames[kind], c.rel, c.tuple)] = accept
		}
	}

	// service-mix: a sample of template instances and the closed loop's
	// miss query, through an engine configured like a tenant's (plan cache
	// on) and the reference.
	ss, err := buildService(seed, smallUniversity)
	if err != nil {
		t.Fatal(err)
	}
	if err := shutdown(ss.srv); err != nil {
		t.Fatal(err)
	}
	p, err := newParams(ss.db, newRand(seed, "templates", 0))
	if err != nil {
		t.Fatal(err)
	}
	tenant := core.NewEngine(ss.db, core.WithParallelism(1), core.WithPlanCache(0))
	sref := core.NewEngine(ss.db, core.WithBatchSize(-1))
	for i := 0; i < smallTemplates; i++ {
		q := p.query()
		agree("service/"+q, ss.db, q, tenant, sref)
	}
	agree("service/"+serviceMissQuery, ss.db, serviceMissQuery, tenant, sref)
	return out
}
