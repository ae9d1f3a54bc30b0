// Command compare sets two groups of benchmark results side by side:
//
//	go run ./benchmark/compare [-claim workload/metric] A/*.json B/*.json
//
// The files are what `go run ./benchmark -json FILE` writes; the group of a
// file is its directory, the first directory named being the parent (A) and
// the second the change (B). For every workload and metric it prints both
// medians and quartiles and the relative difference, signed so that positive
// is worse, and for a gated metric the verdict against its bound in
// BENCHMARK.json:
//
//	ok          B's median is within the bound of A's
//	WORSE       it is not
//	unresolved  a group's own inter-quartile range exceeds the bound, so the
//	            runs cannot tell (unless every run of B beats every run of A)
//
// A -claim is accepted by the rule of the choosing-metrics guide, section 8:
// B wins at least nine tenths of the pairs (ties count for neither side) and
// the medians differ by more than the distance between A's quartiles. The
// exit code is 1 if any row is WORSE or the claim is not met.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type reportFile struct {
	Results []struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"results"`
}

// series holds one group's values: series[trace][workload][metric], one
// value per file, in file order.
type series [2]map[string]map[string][]float64

func main() {
	defPath := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	claim := flag.String("claim", "", "workload/metric that B is claimed to improve")
	flag.Parse()

	var def benchmarkDef
	if b, err := os.ReadFile(*defPath); err != nil {
		fatal(err)
	} else if err := json.Unmarshal(b, &def); err != nil {
		fatal(fmt.Errorf("%s: %w", *defPath, err))
	}

	var dirs []string
	groups := map[string]*series{}
	for _, f := range flag.Args() {
		d := filepath.Dir(f)
		if groups[d] == nil {
			dirs = append(dirs, d)
			groups[d] = &series{{}, {}}
		}
		if err := groups[d].add(f); err != nil {
			fatal(err)
		}
	}
	if len(dirs) != 2 {
		fatal(fmt.Errorf("need result files from exactly two directories, got %d", len(dirs)))
	}
	a, b := groups[dirs[0]], groups[dirs[1]]
	fmt.Printf("A = %s, B = %s; difference is (B-A)/A, positive = worse\n", dirs[0], dirs[1])

	// A metric is read from the untraced results when they carry it: the
	// gated ones, and the timings, which both kinds of run report.
	values := func(g *series, workload, metric string) []float64 {
		if v := g[0][workload][metric]; len(v) > 0 {
			return v
		}
		return g[1][workload][metric]
	}
	worse := false
	for _, w := range def.Workloads {
		for list, defs := range [][]metricDef{def.EndToEnd, def.PerLayer} {
			for _, m := range defs {
				va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				row := judge(va, vb, m, list == 0)
				worse = worse || row.verdict == "WORSE"
				fmt.Printf("%-10s %-36s A %s  B %s  %+7.2f%%  bound %s  %s\n", w.Name, m.Name,
					row.a, row.b, 100*row.diff, row.bound, row.verdict)
			}
		}
	}

	claimMet := true
	if *claim != "" {
		w, name, ok := strings.Cut(*claim, "/")
		var m *metricDef
		for _, defs := range [][]metricDef{def.EndToEnd, def.PerLayer} {
			for i := range defs {
				if defs[i].Name == name {
					m = &defs[i]
				}
			}
		}
		if !ok || m == nil || len(values(a, w, name)) == 0 {
			fatal(fmt.Errorf("claim %q names no workload/metric with results", *claim))
		}
		claimMet = judgeClaim(values(a, w, name), values(b, w, name), *m)
	}
	if worse || !claimMet {
		os.Exit(1)
	}
}

func (s *series) add(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep reportFile
	if err := json.Unmarshal(b, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range rep.Results {
		if r.Trace != 0 && r.Trace != 1 {
			return fmt.Errorf("%s: trace %d", path, r.Trace)
		}
		byMetric := s[r.Trace][r.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			s[r.Trace][r.Workload] = byMetric
		}
		for name, m := range r.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns, so
// the spreads printed here are the ones the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

type row struct {
	a, b    string
	diff    float64
	bound   string
	verdict string
}

// judge compares B with A on one metric. Only gated metrics get a verdict.
func judge(va, vb []float64, m metricDef, gated bool) row {
	a1, a2, a3 := quartiles(va)
	b1, b2, b3 := quartiles(vb)
	r := row{
		a:     fmt.Sprintf("%10.5g [%10.5g %10.5g] n=%d", a2, a1, a3, len(va)),
		b:     fmt.Sprintf("%10.5g [%10.5g %10.5g] n=%d", b2, b1, b3, len(vb)),
		bound: "    -",
	}
	if a2 != 0 {
		r.diff = (b2 - a2) / math.Abs(a2)
		if m.Better == "higher" {
			r.diff = -r.diff
		}
	}
	if !gated {
		return r
	}
	r.bound = fmt.Sprintf("%5.3f", m.Bound)
	spread := func(q1, q2, q3 float64) float64 {
		if q2 == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(q2)
	}
	switch {
	case max(spread(a1, a2, a3), spread(b1, b2, b3)) > m.Bound && !allBetter(va, vb, m):
		r.verdict = "unresolved"
	case r.diff > m.Bound:
		r.verdict = "WORSE"
	default:
		r.verdict = "ok"
	}
	return r
}

// better reports whether x reads better than y on m.
func better(x, y float64, m metricDef) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// allBetter reports whether every run of B reads better than every run of A.
func allBetter(va, vb []float64, m metricDef) bool {
	for _, x := range vb {
		for _, y := range va {
			if !better(x, y, m) {
				return false
			}
		}
	}
	return true
}

// judgeClaim applies the section 8 rule to the pairs (A[i], B[i]).
func judgeClaim(va, vb []float64, m metricDef) bool {
	pairs := min(len(va), len(vb))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(vb[i], va[i], m) {
			wins++
		}
	}
	a1, a2, a3 := quartiles(va)
	_, b2, _ := quartiles(vb)
	apart := math.Abs(b2-a2) > a3-a1 && better(b2, a2, m)
	met := pairs >= 10 && 10*wins >= 9*pairs && apart
	fmt.Printf("claim %s: B wins %d of %d pairs (need 9/10 of at least 10), medians %.5g → %.5g, A's IQR %.5g: ",
		m.Name, wins, pairs, a2, b2, a3-a1)
	if met {
		fmt.Println("met")
	} else {
		fmt.Println("NOT met")
	}
	return met
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}
