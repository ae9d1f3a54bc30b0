// pgridbench regenerates every table and figure of the paper's evaluation.
//
// By default it runs everything at the paper's parameters (the fig4/search/
// fig5/table6 group builds the 20 000-peer grid — takes a few seconds with
// the concurrent engine where the paper's Mathematica run took 10 hours).
// Select subsets with -run.
//
//	pgridbench                 # everything, paper scale
//	pgridbench -run table1,table3
//	pgridbench -run fig4 -scale 0.1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pgrid/internal/core"
	"pgrid/internal/experiments"
	"pgrid/internal/sim"
	"pgrid/internal/telemetry"
	"pgrid/internal/trie"
)

// jsonReport is the machine-readable output of -json: per-experiment
// wall-clock and rows, so the perf trajectory of the simulator is tracked
// across PRs (BENCH_construction.json at the repository root is regenerated
// with `go run ./cmd/pgridbench -run table1,table2,table3,table4,table5,engine,telemetry
// -json BENCH_construction.json`).
type jsonReport struct {
	Schema      string           `json:"schema"`
	GoVersion   string           `json:"go_version"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	Seed        int64            `json:"seed"`
	Scale       float64          `json:"scale"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Rows    any     `json:"rows,omitempty"`
}

// engineRow reports the raw simulator throughput of one engine — the
// headline metric of the construction hot path.
type engineRow struct {
	Engine         string  `json:"engine"`
	N              int     `json:"n"`
	Workers        int     `json:"workers"`
	Meetings       int64   `json:"meetings"`
	Exchanges      int64   `json:"exchanges"`
	Seconds        float64 `json:"seconds"`
	MeetingsPerSec float64 `json:"meetings_per_sec"`
	Converged      bool    `json:"converged"`
}

// telemetryRow reports the A/B cost of instrumentation on the sequential
// engine: the same build with telemetry off (nil), counters only, and
// counters + the JSONL event sink writing to io.Discard (the pgridsim and
// pgridnode -events configuration: one exchange event per meeting).
// OverheadPct is relative to the off row.
type telemetryRow struct {
	Mode           string  `json:"mode"`
	N              int     `json:"n"`
	Meetings       int64   `json:"meetings"`
	Seconds        float64 `json:"seconds"`
	MeetingsPerSec float64 `json:"meetings_per_sec"`
	OverheadPct    float64 `json:"overhead_pct"`
}

// experimentNames are the -run selectors: "all", the sections it runs, and
// the opt-in scale experiment.
var experimentNames = []string{"all", "table1", "table2", "table3", "table4", "table5",
	"fig4", "search", "fig5", "table6", "sec6", "eq3", "skew", "maintain", "join",
	"convergence", "churnbuild", "load", "antientropy", "engine", "telemetry",
	"scale"}

// parseRun splits a -run list into the set of selected experiments. A name
// that selects nothing is an error, not a silent no-op.
func parseRun(list string) (map[string]bool, error) {
	known := make(map[string]bool, len(experimentNames))
	for _, name := range experimentNames {
		known[name] = true
	}
	want := map[string]bool{}
	for _, s := range strings.Split(list, ",") {
		name := strings.TrimSpace(s)
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q in -run (known: %s)", name, strings.Join(experimentNames, ","))
		}
		want[name] = true
	}
	return want, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgridbench: ")

	var (
		run      = flag.String("run", "all", "comma-separated experiments: "+strings.Join(experimentNames, ","))
		seed     = flag.Int64("seed", 1, "random seed")
		scale    = flag.Float64("scale", 1.0, "scale factor for the 20000-peer experiments (0 < scale ≤ 1)")
		csvDir   = flag.String("csv", "", "also write each experiment as CSV into this directory")
		jsonPath = flag.String("json", "", "write a machine-readable report (per-experiment wall-clock + rows) to this file")
	)
	flag.Parse()
	if *scale <= 0 || *scale > 1 {
		log.Fatalf("-scale %v out of range (0,1]", *scale)
	}

	want, err := parseRun(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgridbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	sel := func(name string) bool { return want["all"] || want[name] }
	out := os.Stdout
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	// csvOut opens <dir>/<name>.csv and hands it to write; no-op without -csv.
	csvOut := func(name string, write func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		check(err)
		check(write(f))
		check(f.Close())
	}
	report := jsonReport{
		Schema:     "pgridbench/v1",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Scale:      *scale,
	}
	// record captures one experiment's wall-clock (and, for table-shaped
	// experiments, its rows) in the -json report.
	record := func(name string, start time.Time, rows any) {
		report.Experiments = append(report.Experiments, jsonExperiment{
			Name: name, Seconds: time.Since(start).Seconds(), Rows: rows,
		})
	}

	if sel("table1") {
		start := time.Now()
		rows, err := experiments.Table1(*seed)
		check(err)
		record("table1", start, rows)
		experiments.RenderConstruction(out, "Table 1 — construction cost vs community size (maxl=6, refmax=1)", rows)
		csvOut("table1", func(w *os.File) error { return experiments.ConstructionCSV(w, rows) })
	}
	if sel("table2") {
		start := time.Now()
		rows, err := experiments.Table2(*seed)
		check(err)
		record("table2", start, rows)
		experiments.RenderTable2(out, rows)
		csvOut("table2", func(w *os.File) error { return experiments.Table2CSV(w, rows) })
	}
	if sel("table3") {
		start := time.Now()
		rows, err := experiments.Table3(*seed)
		check(err)
		record("table3", start, rows)
		experiments.RenderConstruction(out, "Table 3 — construction cost vs recursion bound (N=500, maxl=6)", rows)
		csvOut("table3", func(w *os.File) error { return experiments.ConstructionCSV(w, rows) })
	}
	if sel("table4") {
		start := time.Now()
		rows, err := experiments.RefmaxSweep(*seed, 0)
		check(err)
		record("table4", start, rows)
		experiments.RenderConstruction(out, "Table 4 — refmax sweep, UNBOUNDED recursion fan-out (N=1000)", rows)
		csvOut("table4", func(w *os.File) error { return experiments.ConstructionCSV(w, rows) })
	}
	if sel("table5") {
		start := time.Now()
		rows, err := experiments.RefmaxSweep(*seed, 2)
		check(err)
		record("table5", start, rows)
		experiments.RenderConstruction(out, "Table 5 — refmax sweep, fan-out limited to 2 (N=1000)", rows)
		csvOut("table5", func(w *os.File) error { return experiments.ConstructionCSV(w, rows) })
	}
	if sel("engine") {
		// Raw simulator throughput at N=5000 (scaled): one sequential and
		// one concurrent build to convergence, meetings/sec each — the
		// numbers the tentpole optimizations move.
		n := int(5000 * *scale)
		if n < 64 {
			n = 64
		}
		cfg := core.Config{MaxL: 8, RefMax: 5, RecMax: 2, RecFanout: 2}
		start := time.Now()
		rows := make([]engineRow, 0, 2)
		seq, err := sim.Build(sim.Options{N: n, Config: cfg, Seed: *seed})
		check(err)
		rows = append(rows, engineRow{
			Engine: "sequential", N: n, Workers: 1,
			Meetings: seq.Meetings, Exchanges: seq.Exchanges,
			Seconds:        seq.Elapsed.Seconds(),
			MeetingsPerSec: float64(seq.Meetings) / seq.Elapsed.Seconds(),
			Converged:      seq.Converged,
		})
		conc, err := sim.BuildConcurrent(sim.Options{N: n, Config: cfg, Seed: *seed})
		check(err)
		rows = append(rows, engineRow{
			Engine: "concurrent", N: n, Workers: runtime.GOMAXPROCS(0),
			Meetings: conc.Meetings, Exchanges: conc.Exchanges,
			Seconds:        conc.Elapsed.Seconds(),
			MeetingsPerSec: float64(conc.Meetings) / conc.Elapsed.Seconds(),
			Converged:      conc.Converged,
		})
		record("engine", start, rows)
		fmt.Fprintf(out, "Engine throughput — construction to convergence at N=%d (maxl=%d, refmax=%d)\n", n, cfg.MaxL, cfg.RefMax)
		fmt.Fprintf(out, "%12s %8s %12s %12s %12s %14s\n", "engine", "workers", "meetings", "exchanges", "seconds", "meetings/sec")
		for _, r := range rows {
			fmt.Fprintf(out, "%12s %8d %12d %12d %12.3f %14.0f\n",
				r.Engine, r.Workers, r.Meetings, r.Exchanges, r.Seconds, r.MeetingsPerSec)
		}
		fmt.Fprintln(out)
	}

	if sel("telemetry") {
		// A/B instrumentation overhead on the sequential engine: identical
		// builds (same seed, deterministic engine) with telemetry disabled,
		// with counters attached, and with counters + an event sink. At
		// N=20000 a build takes about a second, long enough that one
		// scheduler hiccup does not decide a round.
		n := int(20000 * *scale)
		if n < 64 {
			n = 64
		}
		cfg := core.Config{MaxL: 8, RefMax: 5, RecMax: 2, RecFanout: 2}
		build := func(mode string) sim.Result {
			o := sim.Options{N: n, Config: cfg, Seed: *seed}
			var sink *telemetry.JSONLSink
			if mode != "off" {
				o.Telemetry = telemetry.New(-1)
			}
			if mode == "events" {
				sink = telemetry.NewJSONLSink(io.Discard)
				o.Telemetry.SetSink(sink)
			}
			res, err := sim.Build(o)
			check(err)
			if sink != nil {
				check(sink.Flush())
			}
			return res
		}
		start := time.Now()
		modes := []string{"off", "counters", "events"}
		// Interleave the modes round-robin and keep each mode's fastest
		// round. Noise on a shared box comes in multi-second episodes that
		// only ever slow a run down; running the modes back-to-back within
		// each round gives every mode a shot at the quiet episodes, where
		// mode-at-a-time repetition lets one mode soak up a whole bad
		// stretch and skew the ratio.
		best := make(map[string]telemetryRow, len(modes))
		for round := 0; round < 3; round++ {
			for _, mode := range modes {
				res := build(mode)
				mps := float64(res.Meetings) / res.Elapsed.Seconds()
				if b, ok := best[mode]; !ok || mps > b.MeetingsPerSec {
					best[mode] = telemetryRow{
						Mode: mode, N: n, Meetings: res.Meetings,
						Seconds:        res.Elapsed.Seconds(),
						MeetingsPerSec: mps,
					}
				}
			}
		}
		rows := make([]telemetryRow, 0, len(modes))
		base := best["off"].MeetingsPerSec
		for _, mode := range modes {
			r := best[mode]
			r.OverheadPct = 100 * (base - r.MeetingsPerSec) / base
			rows = append(rows, r)
		}
		record("telemetry", start, rows)
		fmt.Fprintf(out, "Telemetry overhead — sequential construction at N=%d\n", n)
		fmt.Fprintf(out, "%12s %12s %12s %14s %10s\n", "mode", "meetings", "seconds", "meetings/sec", "overhead")
		for _, r := range rows {
			fmt.Fprintf(out, "%12s %12d %12.3f %14.0f %9.1f%%\n",
				r.Mode, r.Meetings, r.Seconds, r.MeetingsPerSec, r.OverheadPct)
		}
		fmt.Fprintln(out)
	}

	// The Section 5.2 experiments share one big grid.
	if sel("fig4") || sel("search") || sel("fig5") || sel("table6") {
		p := experiments.PaperFig4Params()
		p.Seed = *seed
		p.N = int(float64(p.N) * *scale)
		if p.N < 1<<uint(p.MaxL) {
			log.Fatalf("-scale %v leaves too few peers (%d) for depth %d", *scale, p.N, p.MaxL)
		}
		fmt.Fprintf(out, "building the Section 5.2 grid (N=%d, maxl=%d, refmax=%d)...\n", p.N, p.MaxL, p.RefMax)
		start := time.Now()
		f4, err := experiments.Fig4(p)
		check(err)
		record("fig4-build", start, nil)
		if sel("fig4") {
			experiments.RenderFig4(out, f4)
			csvOut("fig4", func(w *os.File) error { return experiments.Fig4CSV(w, f4) })
		}
		if sel("search") {
			sr := experiments.SearchReliability(f4.Dir, 0.3, 10000, p.MaxL-1, p.RefMax, *seed+7)
			experiments.RenderSearchReliability(out, sr)
		}
		if sel("fig5") {
			// 30% online, as in the paper; curves up to 2000 messages.
			f4.Dir.SampleOnline(rand.New(rand.NewSource(*seed+8)), 0.3)
			curves := experiments.Fig5(f4.Dir, p.MaxL-1, 3, 20, 2000, *seed+8)
			f4.Dir.SetAllOnline(true)
			experiments.RenderFig5(out, curves)
			csvOut("fig5", func(w *os.File) error { return experiments.Fig5CSV(w, curves) })
		}
		if sel("table6") {
			t6 := experiments.PaperTable6Params()
			t6.Seed = *seed + 9
			t6.KeyLen = p.MaxL - 1
			rows := experiments.Table6(f4.Dir, t6)
			experiments.RenderTable6(out, rows)
			csvOut("table6", func(w *os.File) error { return experiments.Table6CSV(w, rows) })
		}
	}

	if sel("sec6") {
		rows, err := experiments.Sec6(experiments.PaperSec6Params())
		check(err)
		experiments.RenderSec6(out, rows)
		csvOut("sec6", func(w *os.File) error { return experiments.Sec6CSV(w, rows) })
	}
	if sel("eq3") {
		rows := experiments.Eq3ModelVsSim(6, 2000, *seed+10)
		experiments.RenderEq3(out, rows)
		csvOut("eq3", func(w *os.File) error { return experiments.Eq3CSV(w, rows) })
	}

	// Extensions (the paper's Section 6 future-work list); included in
	// "all" so the ablations regenerate alongside the paper results.
	if sel("skew") {
		p := experiments.DefaultSkewParams()
		p.Seed = *seed + 11
		rows := experiments.Skew(p)
		experiments.RenderSkew(out, rows)
		csvOut("skew", func(w *os.File) error { return experiments.SkewCSV(w, rows) })
	}
	if sel("maintain") {
		without := experiments.Maintenance(960, 5, 6, 6, 0.12, false, *seed+12)
		with := experiments.Maintenance(960, 5, 6, 6, 0.12, true, *seed+12)
		experiments.RenderMaintenance(out, with, without)
		csvOut("maintenance", func(w *os.File) error {
			return experiments.MaintenanceCSV(w, append(append([]experiments.MaintenanceRow{}, without...), with...))
		})
	}
	if sel("join") {
		rows := experiments.JoinGrowth(512, 5, 128, 6, 5, *seed+13)
		experiments.RenderJoin(out, rows)
		csvOut("join", func(w *os.File) error { return experiments.JoinCSV(w, rows) })
	}
	if sel("convergence") {
		start := time.Now()
		curves := experiments.Convergence(500, 6, []int{0, 1, 2, 4}, 100, 1_000_000, *seed+14)
		record("convergence", start, nil)
		experiments.RenderConvergence(out, curves)
		csvOut("convergence", func(w *os.File) error { return experiments.ConvergenceCSV(w, curves) })
	}
	if sel("load") {
		rng := rand.New(rand.NewSource(*seed + 16))
		d := trie.BuildIdeal(2048, 7, 5, rng)
		r := experiments.RoutingLoad(d, 7, 20000, *seed+16)
		experiments.RenderRoutingLoad(out, r)
	}
	if sel("antientropy") {
		rows, err := experiments.AntiEntropy(400, 6, 30, 10, *seed+18)
		check(err)
		experiments.RenderAntiEntropy(out, rows)
		csvOut("antientropy", func(w *os.File) error { return experiments.AntiEntropyCSV(w, rows) })
	}
	// "scale" is opt-in (not part of "all"): the 80k build takes minutes.
	if want["scale"] {
		start := time.Now()
		rows, err := experiments.Scale([]int{5000, 20000, 80000}, 10, *seed+17)
		check(err)
		record("scale", start, rows)
		experiments.RenderScale(out, rows)
		csvOut("scale", func(w *os.File) error { return experiments.ScaleCSV(w, rows) })
	}
	if sel("churnbuild") {
		start := time.Now()
		rows, err := experiments.ChurnBuild(400, 6, []float64{1.0, 0.7, 0.5, 0.3}, *seed+15)
		check(err)
		record("churnbuild", start, rows)
		experiments.RenderChurnBuild(out, rows)
		csvOut("churnbuild", func(w *os.File) error { return experiments.ChurnBuildCSV(w, rows) })
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		check(err)
		buf = append(buf, '\n')
		check(os.WriteFile(*jsonPath, buf, 0o644))
		fmt.Fprintf(out, "wrote %s (%d experiments)\n", *jsonPath, len(report.Experiments))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
