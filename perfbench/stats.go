package main

import (
	"bufio"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/relation"
)

// samples collects durations and answers percentile queries over them.
type samples []time.Duration

// quantile returns the q-quantile (0..1) by the nearest-rank rule, in
// milliseconds; 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return ms(c[i])
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of float values; 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// digest is an order-independent fingerprint of an answer set: the row
// count plus the wrapping sum of per-row FNV-64a hashes over the rows'
// textual values. The engine's relation values and queryd's JSON rows
// render identically, so both sides digest the same way.
type digest struct {
	Rows int    `json:"rows"`
	Sum  uint64 `json:"sum,string"`
}

func rowHash(vals []string) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func digestRelation(r *relation.Relation) digest {
	d := digest{}
	if r == nil {
		return d
	}
	vals := make([]string, 0, r.Arity())
	for _, t := range r.Tuples() {
		vals = vals[:0]
		for _, v := range t {
			vals = append(vals, v.String())
		}
		d.Rows++
		d.Sum += rowHash(vals)
	}
	return d
}

func digestRows(rows [][]string) digest {
	d := digest{}
	for _, r := range rows {
		d.Rows++
		d.Sum += rowHash(r)
	}
	return d
}

// answer is the checked outcome of one query: a truth value for closed
// queries, a digest for open ones.
type answer struct {
	Open   bool   `json:"open"`
	Truth  bool   `json:"truth,omitempty"`
	Digest digest `json:"digest"`
}

func (a answer) String() string {
	if !a.Open {
		return "truth=" + strconv.FormatBool(a.Truth)
	}
	return "rows=" + strconv.Itoa(a.Digest.Rows) + " sum=" + strconv.FormatUint(a.Digest.Sum, 16)
}

// memWindow measures allocation deltas over a window (runtime.MemStats).
type memWindow struct{ start runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// perOp returns the bytes and allocations per op since the window began.
func (w *memWindow) perOp(ops int) (bytes, allocs float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if ops < 1 {
		ops = 1
	}
	return float64(end.TotalAlloc-w.start.TotalAlloc) / float64(ops),
		float64(end.Mallocs-w.start.Mallocs) / float64(ops)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; it falls
// back to the Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// sloRate replays measured service times through one FIFO server fed by
// Poisson arrivals at each ladder rate (Lindley's recursion) and returns
// the highest rate, stopping at the first failure, at which the server is
// not saturated and the median over sloReplicas arrival draws of the p99
// latency from arrival stays within limit. It is how the closed-loop
// workloads, whose single client serializes every operation, answer the
// question service-mix answers with real open-loop steps.
func sloRate(service []time.Duration, ladder []float64, limit time.Duration, seed int64) float64 {
	if len(service) == 0 {
		return 0
	}
	var busy time.Duration
	for _, s := range service {
		busy += s
	}
	best := 0.0
	for _, rate := range ladder {
		span := time.Duration(float64(len(service)) / rate * float64(time.Second))
		if busy >= span {
			break
		}
		p99s := make([]float64, sloReplicas)
		for r := range p99s {
			rng := newRand(seed, "slo", int64(rate*1000)*sloReplicas+int64(r))
			var wait time.Duration
			lat := make(samples, 0, len(service))
			for _, s := range service {
				lat = append(lat, wait+s)
				gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
				wait = max(0, wait+s-gap)
			}
			p99s[r] = lat.quantile(0.99)
		}
		if median(p99s) > ms(limit) {
			break
		}
		best = rate
	}
	return best
}

// sloReplicas is how many arrival draws sloRate judges each rate by.
const sloReplicas = 15

// geometricLadder returns n rates starting at lo, each step times f.
func geometricLadder(lo, f float64, n int) []float64 {
	out := make([]float64, n)
	r := lo
	for i := range out {
		out[i] = math.Round(r*10) / 10
		r *= f
	}
	return out
}
