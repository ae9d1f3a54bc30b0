package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkDef mirrors BENCHMARK.json.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkDef(t *testing.T) benchmarkDef {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestBenchmarkJSON keeps BENCHMARK.json inside the contract's limits and in
// step with the lists in spec.go.
func TestBenchmarkJSON(t *testing.T) {
	def := readBenchmarkDef(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(def.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if len(def.EndToEnd) > 16 || len(def.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(def.EndToEnd), len(def.PerLayer))
	}
	if def.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", def.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	for i, w := range def.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the harness has %v", i, w.Name, workloadNames)
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	check := func(kind string, defs []metricDef, specs []spec, bounded bool) {
		if len(defs) != len(specs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(defs), len(specs))
			return
		}
		for i, m := range defs {
			if m.Name != specs[i].name || m.Unit != specs[i].unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in spec.go",
					kind, i, m.Name, m.Unit, specs[i].name, specs[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q [%s]: bad or repeated name, or bad unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %q: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd, true)
	check("per_layer", def.PerLayer, perLayer, false)
}

// TestOpStreamRepeats checks that the inputs are a function of the seed.
func TestOpStreamRepeats(t *testing.T) {
	mixes := map[string][]share{wlRoute: networkedMix[wlRoute], wlUpdateMix: networkedMix[wlUpdateMix],
		wlChurn: networkedMix[wlChurn], wlSim: simMix}
	hashes := map[uint64]string{}
	for _, w := range workloadNames {
		a := newOpGen(7, w, mixes[w], 16384, 256).streamHash(10000)
		b := newOpGen(7, w, mixes[w], 16384, 256).streamHash(10000)
		if a != b {
			t.Errorf("%s: two generators on one seed disagree: %x %x", w, a, b)
		}
		if other := newOpGen(8, w, mixes[w], 16384, 256).streamHash(10000); other == a {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
		if prev, dup := hashes[a]; dup {
			t.Errorf("%s and %s share a stream", w, prev)
		}
		hashes[a] = w
	}
	g := newOpGen(7, wlUpdateMix, mixes[wlUpdateMix], 16384, 256)
	counts := map[opKind]int{}
	for k := int64(0); k < 10000; k++ {
		o := g.at(k)
		counts[o.kind]++
		if o.kind == opPublish && !g.wrote(o.version, o.item, k+1) {
			t.Fatalf("op %d: its own version %d is not recognised", k, o.version)
		}
	}
	for _, m := range mixes[wlUpdateMix] {
		if got := float64(counts[m.kind]) / 10000; math.Abs(got-m.frac) > 0.02 {
			t.Errorf("%s: share %.3f, want %.2f", opKindNames[m.kind], got, m.frac)
		}
	}
}

// shrink scales every workload down so that the whole suite runs in
// seconds; the command line has no such switch.
func shrink(t *testing.T) {
	t.Helper()
	old := struct {
		peers, items, simPeers, simMaxL, simEntries, probe int
		churn                                              time.Duration
		warm                                               map[string]int64
	}{communityPeers, catalogItems, simPeers, simMaxL, simEntries, probeCalls, churnEvery, warmupOps}
	communityPeers, catalogItems = 32, 1024
	simPeers, simMaxL, simEntries = 512, 5, 200
	probeCalls, churnEvery = 2000, 50*time.Millisecond
	warmupOps = map[string]int64{wlRoute: 300, wlChurn: 300, wlUpdateMix: 100, wlSim: 500}
	t.Cleanup(func() {
		communityPeers, catalogItems = old.peers, old.items
		simPeers, simMaxL, simEntries = old.simPeers, old.simMaxL, old.simEntries
		probeCalls, churnEvery, warmupOps = old.probe, old.churn, old.warm
	})
}

// TestSmoke runs every workload small, untraced and traced, and checks that
// each metric named in BENCHMARK.json comes out, finite and with its unit,
// and that the runs pass their own correctness checks.
func TestSmoke(t *testing.T) {
	shrink(t)
	def := readBenchmarkDef(t)
	const window = 300 * time.Millisecond
	for _, w := range workloadNames {
		for trace, defs := range [][]metricDef{def.EndToEnd, def.PerLayer} {
			var r *result
			var err error
			if w == wlSim {
				r, err = runSim(3, window, 0, trace == 1)
			} else {
				r, err = runNetworked(w, 3, window, trace == 1, "")
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			if !r.Correct || r.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d problems=%v", w, trace, r.Correct, r.Attempted, r.Problems)
			}
			line := r.line()
			if len(line) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics on the result line, BENCHMARK.json names %d", w, trace, len(line), len(defs))
			}
			for _, m := range defs {
				got, ok := line[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want a finite value in %s", w, trace, m.Name, got, ok, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w, m.Name, got.Value)
				}
			}
			// Both kinds of run carry the timings.
			for _, s := range timings {
				if got := r.Metrics[s.name]; got.Unit != s.unit || !(got.Value > 0) {
					t.Errorf("%s trace=%d: timing %s = %+v, want a positive value in %s", w, trace, s.name, got, s.unit)
				}
			}
		}
	}
}

// TestSimRepeats checks that the single-threaded workload, cut off by op
// count, gives the same counts twice.
func TestSimRepeats(t *testing.T) {
	shrink(t)
	for trace, names := range [][]string{{"msgs_per_op", "availability"}, {"sim.build_exchanges_per_peer", "core.query_msgs"}} {
		a, err := runSim(5, time.Minute, 4000, trace == 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runSim(5, time.Minute, 4000, trace == 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Attempted != b.Attempted || a.Attempted == 0 {
			t.Errorf("trace=%d: attempted %d and %d", trace, a.Attempted, b.Attempted)
		}
		for _, n := range names {
			if a.Metrics[n] != b.Metrics[n] || a.Metrics[n].Value == 0 {
				t.Errorf("trace=%d: %s differs or is zero: %v and %v", trace, n, a.Metrics[n], b.Metrics[n])
			}
		}
	}
}

// streamHash fingerprints the first n ops of the stream.
func (g *opGen) streamHash(n int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for k := int64(0); k < n; k++ {
		o := g.at(k)
		put(uint64(o.kind))
		put(uint64(o.item))
		put(o.version)
		for _, e := range o.entries {
			put(uint64(e))
		}
	}
	return h.Sum64()
}
