// pgridbench regenerates every table and figure of the paper's evaluation.
//
// By default it runs every experiment at the paper's parameters and prints
// paper_results.txt, byte for byte and at any core count (TestPaperArchive
// holds it there). The fig4/search/fig5/table6 group measures one
// 20 000-peer Section 5.2 grid, which the sequential engine builds in a few
// seconds where the paper's Mathematica run took 10 hours. Select subsets
// with -run; the perf rows (engine, telemetry) and the scale sweep run only
// when named.
//
//	pgridbench                 # the archive, paper scale
//	pgridbench -run table1,table3
//	pgridbench -run fig4 -scale 0.1
//	pgridbench -run engine,telemetry -json out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime"
	"slices"
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

// jsonExperiment is one experiment's entry: what its run returned, and its
// wall-clock (the first of the Section 5.2 group to run includes building
// the grid).
type jsonExperiment struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Rows    any     `json:"rows"`
}

// experiment is one -run selector. run prints the experiment's section of
// the report and returns the rows -json records for it.
type experiment struct {
	name string
	// all puts the experiment in -run all, the default and the archive. The
	// perf rows, whose workers, seconds and rates vary by machine, and the
	// minutes-long scale sweep are left out.
	all bool
	run func(s *session) (any, error)
}

// session is what the experiments of one invocation share.
type session struct {
	out  io.Writer
	seed int64
	// scale shrinks the 5000- and 20000-peer experiments.
	scale float64
	// sec52 is the Section 5.2 grid, built by the first experiment of the
	// group that runs.
	sec52 *experiments.Fig4Result
}

// registry lists every experiment in report order.
var registry = []experiment{
	{"table1", true, construction("Table 1 — construction cost vs community size (maxl=6, refmax=1)", experiments.Table1)},
	{"table2", true, func(s *session) (any, error) {
		rows, err := experiments.Table2(s.seed)
		if err != nil {
			return nil, err
		}
		experiments.RenderTable2(s.out, rows)
		return rows, nil
	}},
	{"table3", true, construction("Table 3 — construction cost vs recursion bound (N=500, maxl=6)", experiments.Table3)},
	{"table4", true, construction("Table 4 — refmax sweep, UNBOUNDED recursion fan-out (N=1000)",
		func(seed int64) ([]experiments.ConstructionRow, error) { return experiments.RefmaxSweep(seed, 0) })},
	{"table5", true, construction("Table 5 — refmax sweep, fan-out limited to 2 (N=1000)",
		func(seed int64) ([]experiments.ConstructionRow, error) { return experiments.RefmaxSweep(seed, 2) })},
	{"engine", false, runEngine},
	{"telemetry", false, runTelemetry},
	{"fig4", true, func(s *session) (any, error) {
		f4, err := s.grid()
		if err != nil {
			return nil, err
		}
		experiments.RenderFig4(s.out, *f4)
		return f4, nil
	}},
	{"search", true, func(s *session) (any, error) {
		f4, err := s.grid()
		if err != nil {
			return nil, err
		}
		p := experiments.PaperFig4Params()
		sr := experiments.SearchReliability(f4.Dir, 0.3, 10000, p.MaxL-1, p.RefMax, s.seed+7)
		experiments.RenderSearchReliability(s.out, sr)
		return sr, nil
	}},
	{"fig5", true, func(s *session) (any, error) {
		f4, err := s.grid()
		if err != nil {
			return nil, err
		}
		// 30% online, as in the paper; curves up to 2000 messages.
		f4.Dir.SampleOnline(rand.New(rand.NewSource(s.seed+8)), 0.3)
		curves := experiments.Fig5(f4.Dir, experiments.PaperFig4Params().MaxL-1, 3, 20, 2000, s.seed+8)
		f4.Dir.SetAllOnline(true)
		experiments.RenderFig5(s.out, curves)
		return curves, nil
	}},
	{"table6", true, func(s *session) (any, error) {
		f4, err := s.grid()
		if err != nil {
			return nil, err
		}
		p := experiments.PaperTable6Params()
		p.Seed = s.seed + 9
		p.KeyLen = experiments.PaperFig4Params().MaxL - 1
		rows := experiments.Table6(f4.Dir, p)
		experiments.RenderTable6(s.out, rows)
		return rows, nil
	}},
	{"sec6", true, func(s *session) (any, error) {
		rows, err := experiments.Sec6(experiments.PaperSec6Params())
		if err != nil {
			return nil, err
		}
		experiments.RenderSec6(s.out, rows)
		return rows, nil
	}},
	{"eq3", true, func(s *session) (any, error) {
		rows := experiments.Eq3ModelVsSim(6, 2000, s.seed+10)
		experiments.RenderEq3(s.out, rows)
		return rows, nil
	}},
	// Extensions (the paper's Section 6 future-work list), in "all" so the
	// ablations regenerate alongside the paper results.
	{"skew", true, func(s *session) (any, error) {
		p := experiments.DefaultSkewParams()
		p.Seed = s.seed + 11
		rows := experiments.Skew(p)
		experiments.RenderSkew(s.out, rows)
		return rows, nil
	}},
	{"maintain", true, func(s *session) (any, error) {
		without := experiments.Maintenance(960, 5, 6, 6, 0.12, false, s.seed+12)
		with := experiments.Maintenance(960, 5, 6, 6, 0.12, true, s.seed+12)
		experiments.RenderMaintenance(s.out, with, without)
		return append(without, with...), nil
	}},
	{"join", true, func(s *session) (any, error) {
		rows := experiments.JoinGrowth(512, 5, 128, 6, 5, s.seed+13)
		experiments.RenderJoin(s.out, rows)
		return rows, nil
	}},
	{"convergence", true, func(s *session) (any, error) {
		curves := experiments.Convergence(500, 6, []int{0, 1, 2, 4}, 100, 1_000_000, s.seed+14)
		experiments.RenderConvergence(s.out, curves)
		return curves, nil
	}},
	{"load", true, func(s *session) (any, error) {
		d := trie.BuildIdeal(2048, 7, 5, rand.New(rand.NewSource(s.seed+16)))
		r := experiments.RoutingLoad(d, 7, 20000, s.seed+16)
		experiments.RenderRoutingLoad(s.out, r)
		return r, nil
	}},
	{"antientropy", true, func(s *session) (any, error) {
		rows, err := experiments.AntiEntropy(400, 6, 30, 10, s.seed+18)
		if err != nil {
			return nil, err
		}
		experiments.RenderAntiEntropy(s.out, rows)
		return rows, nil
	}},
	{"scale", false, func(s *session) (any, error) {
		rows, err := experiments.Scale([]int{5000, 20000, 80000}, 10, s.seed+17)
		if err != nil {
			return nil, err
		}
		experiments.RenderScale(s.out, rows)
		return rows, nil
	}},
	{"churnbuild", true, func(s *session) (any, error) {
		rows, err := experiments.ChurnBuild(400, 6, []float64{1.0, 0.7, 0.5, 0.3}, s.seed+15)
		if err != nil {
			return nil, err
		}
		experiments.RenderChurnBuild(s.out, rows)
		return rows, nil
	}},
}

// construction runs one of the Section 5.1 construction-cost tables.
func construction(title string, table func(seed int64) ([]experiments.ConstructionRow, error)) func(*session) (any, error) {
	return func(s *session) (any, error) {
		rows, err := table(s.seed)
		if err != nil {
			return nil, err
		}
		experiments.RenderConstruction(s.out, title, rows)
		return rows, nil
	}
}

// grid returns the Section 5.2 grid, building it on the first call.
func (s *session) grid() (*experiments.Fig4Result, error) {
	if s.sec52 != nil {
		return s.sec52, nil
	}
	p := experiments.PaperFig4Params()
	p.Seed = s.seed
	p.N = int(float64(p.N) * s.scale)
	if p.N < 1<<uint(p.MaxL) {
		return nil, fmt.Errorf("-scale %v leaves too few peers (%d) for depth %d", s.scale, p.N, p.MaxL)
	}
	fmt.Fprintf(s.out, "building the Section 5.2 grid (N=%d, maxl=%d, refmax=%d)...\n", p.N, p.MaxL, p.RefMax)
	f4, err := experiments.Fig4(p)
	if err != nil {
		return nil, err
	}
	s.sec52 = &f4
	return s.sec52, nil
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

// runEngine measures raw simulator throughput at N=5000 (scaled): one
// sequential and one concurrent build to convergence, meetings/sec each.
func runEngine(s *session) (any, error) {
	n := max(int(5000*s.scale), 64)
	cfg := core.Config{MaxL: 8, RefMax: 5, RecMax: 2, RecFanout: 2}
	opts := sim.Options{N: n, Config: cfg, Seed: s.seed}
	seq, err := sim.Build(opts)
	if err != nil {
		return nil, err
	}
	conc, err := sim.BuildConcurrent(opts)
	if err != nil {
		return nil, err
	}
	row := func(engine string, workers int, res sim.Result) engineRow {
		return engineRow{
			Engine: engine, N: n, Workers: workers,
			Meetings: res.Meetings, Exchanges: res.Exchanges,
			Seconds:        res.Elapsed.Seconds(),
			MeetingsPerSec: float64(res.Meetings) / res.Elapsed.Seconds(),
			Converged:      res.Converged,
		}
	}
	rows := []engineRow{row("sequential", 1, seq), row("concurrent", runtime.GOMAXPROCS(0), conc)}
	fmt.Fprintf(s.out, "Engine throughput — construction to convergence at N=%d (maxl=%d, refmax=%d)\n", n, cfg.MaxL, cfg.RefMax)
	fmt.Fprintf(s.out, "%12s %8s %12s %12s %12s %14s\n", "engine", "workers", "meetings", "exchanges", "seconds", "meetings/sec")
	for _, r := range rows {
		fmt.Fprintf(s.out, "%12s %8d %12d %12d %12.3f %14.0f\n",
			r.Engine, r.Workers, r.Meetings, r.Exchanges, r.Seconds, r.MeetingsPerSec)
	}
	fmt.Fprintln(s.out)
	return rows, nil
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

// runTelemetry measures instrumentation overhead on the sequential engine:
// identical builds (same seed, deterministic engine) with telemetry
// disabled, with counters attached, and with counters + an event sink. At
// N=20000 a build takes about a second, long enough that one scheduler
// hiccup does not decide a round.
func runTelemetry(s *session) (any, error) {
	n := max(int(20000*s.scale), 64)
	cfg := core.Config{MaxL: 8, RefMax: 5, RecMax: 2, RecFanout: 2}
	build := func(mode string) (sim.Result, error) {
		o := sim.Options{N: n, Config: cfg, Seed: s.seed}
		var sink *telemetry.JSONLSink
		if mode != "off" {
			o.Telemetry = telemetry.New(-1)
		}
		if mode == "events" {
			sink = telemetry.NewJSONLSink(io.Discard)
			o.Telemetry.SetSink(sink)
		}
		res, err := sim.Build(o)
		if err == nil && sink != nil {
			err = sink.Flush()
		}
		return res, err
	}
	modes := []string{"off", "counters", "events"}
	// Interleave the modes round-robin and keep each mode's fastest round.
	// Noise on a shared box comes in multi-second episodes that only ever
	// slow a run down; running the modes back-to-back within each round
	// gives every mode a shot at the quiet episodes, where mode-at-a-time
	// repetition lets one mode soak up a whole bad stretch and skew the
	// ratio.
	best := make(map[string]telemetryRow, len(modes))
	for round := 0; round < 3; round++ {
		for _, mode := range modes {
			res, err := build(mode)
			if err != nil {
				return nil, err
			}
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
	fmt.Fprintf(s.out, "Telemetry overhead — sequential construction at N=%d\n", n)
	fmt.Fprintf(s.out, "%12s %12s %12s %14s %10s\n", "mode", "meetings", "seconds", "meetings/sec", "overhead")
	for _, mode := range modes {
		r := best[mode]
		r.OverheadPct = 100 * (base - r.MeetingsPerSec) / base
		rows = append(rows, r)
		fmt.Fprintf(s.out, "%12s %12d %12.3f %14.0f %9.1f%%\n",
			r.Mode, r.Meetings, r.Seconds, r.MeetingsPerSec, r.OverheadPct)
	}
	fmt.Fprintln(s.out)
	return rows, nil
}

// names lists the -run selectors: "all", then every experiment.
func names() string {
	out := []string{"all"}
	for _, e := range registry {
		out = append(out, e.name)
	}
	return strings.Join(out, ",")
}

// parseRun resolves a -run list to the experiments it selects, in report
// order. A name that selects nothing is an error, not a silent no-op.
func parseRun(list string) ([]experiment, error) {
	want := map[string]bool{}
	for _, s := range strings.Split(list, ",") {
		name := strings.TrimSpace(s)
		if name != "all" && !slices.ContainsFunc(registry, func(e experiment) bool { return e.name == name }) {
			return nil, fmt.Errorf("unknown experiment %q in -run (known: %s)", name, names())
		}
		want[name] = true
	}
	var sel []experiment
	for _, e := range registry {
		if want[e.name] || want["all"] && e.all {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// bench runs exps in order, printing the report to out, and writes the -json
// report to jsonPath unless it is empty.
func bench(out io.Writer, exps []experiment, seed int64, scale float64, jsonPath string) error {
	s := &session{out: out, seed: seed, scale: scale}
	report := jsonReport{
		Schema:     "pgridbench/v1",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Scale:      scale,
	}
	for _, e := range exps {
		start := time.Now()
		rows, err := e.run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		report.Experiments = append(report.Experiments, jsonExperiment{
			Name: e.name, Seconds: time.Since(start).Seconds(), Rows: rows,
		})
	}
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d experiments)\n", jsonPath, len(report.Experiments))
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgridbench: ")

	var (
		run      = flag.String("run", "all", "comma-separated experiments: "+names()+" (all leaves out engine, telemetry and scale)")
		seed     = flag.Int64("seed", 1, "random seed")
		scale    = flag.Float64("scale", 1.0, "scale factor for the 5000- and 20000-peer experiments (0 < scale ≤ 1)")
		jsonPath = flag.String("json", "", "write a machine-readable report (per-experiment wall-clock + rows) to this file")
	)
	flag.Parse()
	if *scale <= 0 || *scale > 1 {
		log.Fatalf("-scale %v out of range (0,1]", *scale)
	}
	exps, err := parseRun(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgridbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := bench(os.Stdout, exps, *seed, *scale, *jsonPath); err != nil {
		log.Fatal(err)
	}
}
