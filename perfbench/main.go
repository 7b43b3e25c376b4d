// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one seeded workload against the engine's public packages from a
// single process, checks every answer, and prints one JSON result line:
//
//	perfbench --workload integrity-updates --seed 1 --seconds 30 --trace 0
//	perfbench report .bench_build/perfbench/results/*.json
//
// Workloads (NOTES.md explains why each exists and defines every metric):
//
//   - integrity-updates: checked inserts and CheckAll sweeps through
//     integrity.Manager on University(2000), one closed-loop client;
//   - analytic-open: cold open queries through core.Engine with library
//     defaults over University(2000), PTU(50k) and RSTG(120), one
//     closed-loop client;
//   - service-mix: queryd's service.Server in process on University(1000),
//     two tenants of parameterised templates: open-loop Poisson arrivals at
//     a nominal rate, a closed-loop client, and an open-loop rate ladder.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, from spans the benchmark records around
// its calls into each layer, and the tracing overhead against untraced
// operations of the same run. Each run also writes a result file recording
// its seed, and a traced run its spans, under .bench_build/perfbench.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// outDir holds result files and traces, relative to the checkout root.
const outDir = ".bench_build/perfbench"

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// window is the measured duration of the run.
func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// outcome is what a workload reports back to main.
type outcome struct {
	attempted  int
	failed     int
	mismatches []string
	endToEnd   map[string]float64
	perLayer   map[string]float64
	spans      *tracer
	// info is free-form context recorded in the result file only (sample
	// counts, the working set against the memo budget, ...).
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]float64{}, perLayer: map[string]float64{}, info: map[string]any{}}
}

// mismatch records a wrong answer; any mismatch fails the run.
func (o *outcome) mismatch(format string, args ...any) {
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	} else if len(o.mismatches) == 20 {
		o.mismatches = append(o.mismatches, "further mismatches omitted")
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"integrity-updates": runIntegrity,
	"analytic-open":     runAnalytic,
	"service-mix":       runService,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		if err := report(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench report:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "integrity-updates, analytic-open or service-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input (datasets, op streams, parameters, arrivals)")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	cfg.trace = trace == 1
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", p, n)
	}
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	return emit(cfg, out)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what a run records under outDir/results: the printed result
// plus its seed and context, the input of the report mode.
type resultFile struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Started  string         `json:"started"`
	Result   result         `json:"result"`
	Info     map[string]any `json:"info"`
	Errors   []string       `json:"mismatches,omitempty"`
}

func emit(cfg config, out *outcome) error {
	defs, values := endToEndMetrics, out.endToEnd
	if cfg.trace {
		defs, values = perLayerMetrics, out.perLayer
	}
	res := result{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, m := range out.mismatches {
		fmt.Fprintln(os.Stderr, "MISMATCH:", m)
	}
	rf := resultFile{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Started: time.Now().UTC().Format(time.RFC3339), Result: res, Info: out.info, Errors: out.mismatches,
	}
	stamp := cfg.workload + "-seed" + strconv.FormatInt(cfg.seed, 10) + "-trace" + strconv.FormatBool(cfg.trace) +
		"-" + strconv.FormatInt(time.Now().UnixNano(), 10)
	if err := writeJSON(filepath.Join(outDir, "results", stamp+".json"), rf); err != nil {
		return err
	}
	if out.spans != nil {
		if err := out.spans.write(filepath.Join(outDir, "traces", stamp+".jsonl")); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// newRand derives an independent generator from the run seed and a label,
// so each consumer of randomness (a dataset, the op stream, the arrival
// schedule) draws its own stream and adding one never shifts another.
func newRand(seed int64, label string, extra int64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, label, extra)))
}

func subSeed(seed int64, label string, extra int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, extra)
	return int64(h.Sum64() >> 1)
}

// setupRepeats is how many times a run builds its workload to take the
// median set-up time.
const setupRepeats = 5

// setupMedian runs build n times and returns the last instance and the
// median wall time. Earlier instances go to discard (nil: nothing to
// release), and a GC between builds keeps them from inflating the next
// one's time.
func setupMedian[T any](n int, build func() (T, error), discard func(T) error) (T, float64, error) {
	var inst T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			if err := discard(inst); err != nil {
				return inst, 0, err
			}
		}
		var zero T
		inst = zero
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		inst = v
	}
	runtime.GC()
	return inst, median(times), nil
}

// sortedKeys returns a map's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
