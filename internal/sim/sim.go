// Package sim drives P-Grid construction and churn the way the paper's
// Mathematica simulations did: peers meet randomly pairwise and execute the
// exchange function until the grid converges (the average path length
// reaches a threshold fraction of maxl, Section 5.1).
//
// Two engines are provided: a sequential engine that is deterministic for a
// given seed and reproduces the paper's tables bit-for-bit across runs, and
// a concurrent engine that runs meetings on many goroutines to validate the
// algorithm under real interleaving and to build large grids fast.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/telemetry"
	"pgrid/internal/workload"
)

// Options configures a construction run.
type Options struct {
	// N is the community size.
	N int
	// Config carries the P-Grid parameters (maxl, refmax, recmax, fanout).
	Config core.Config
	// Threshold is the convergence threshold t as a fraction of MaxL: the
	// run stops when the average path length reaches Threshold·MaxL.
	// The paper uses 0.99. Default 0.99.
	Threshold float64
	// MaxMeetings aborts the run after this many initiated meetings
	// (recursive exchanges not counted), guarding against non-convergence.
	// Default 10_000 × N.
	MaxMeetings int64
	// Seed seeds the run's random source.
	Seed int64
	// Workers sets the parallelism of the concurrent engine; ignored by
	// the sequential engine. Default GOMAXPROCS.
	Workers int
	// CheckEvery, if > 0, makes the sequential engine verify the directory
	// invariants every CheckEvery meetings (tests use this; it is O(N·maxl)
	// per check).
	CheckEvery int64
	// Churn, when non-nil, runs construction under session churn: every
	// ChurnEvery meetings all peers take one step of the Markov session
	// model, and meetings only happen between online peers. The paper
	// builds with everyone online; this option measures how robust the
	// construction process is when they are not (offline peers simply
	// miss meetings and catch up when they return).
	Churn      *workload.Churn
	ChurnEvery int64
	// Telemetry, when non-nil, receives fine-grained instrumentation:
	// exchange case counters flow through core for every exchange,
	// recursive ones included, and (when an event sink is attached) both
	// engines emit one "exchange" event per meeting, one "round" sample
	// every SampleEvery meetings, and one final "build" summary. The sink
	// writes synchronously; the concurrent engine's workers take its mutex
	// once per meeting. Nil keeps the engines on the uninstrumented fast
	// path.
	Telemetry *telemetry.Instruments
	// SampleEvery is the meeting interval between "round" samples.
	// Default N; < 0 disables sampling.
	SampleEvery int64
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = 0.99
	}
	if o.MaxMeetings == 0 {
		o.MaxMeetings = 10_000 * int64(o.N)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Churn != nil && o.ChurnEvery == 0 {
		o.ChurnEvery = int64(o.N)
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = int64(o.N)
	}
	return o
}

// emitRound sends one periodic convergence/throughput sample.
func emitRound(o Options, m *core.Metrics, d *directory.Directory, meetings int64, target float64) {
	o.Telemetry.Emit(telemetry.KindRound, map[string]any{
		"meetings":     meetings,
		"exchanges":    m.Exchanges.Load(),
		"avg_path_len": d.AvgPathLen(),
		"target":       target,
	})
}

// emitBuild sends the end-of-construction summary.
func emitBuild(o Options, res Result) {
	if !o.Telemetry.EventsOn() {
		return
	}
	o.Telemetry.Emit(telemetry.KindBuild, map[string]any{
		"n":            o.N,
		"meetings":     res.Meetings,
		"exchanges":    res.Exchanges,
		"avg_path_len": res.AvgPathLen,
		"converged":    res.Converged,
		"seconds":      res.Elapsed.Seconds(),
	})
}

// Result reports a construction run.
type Result struct {
	// Dir is the constructed community.
	Dir *directory.Directory
	// Exchanges is the total number of exchange calls (e of Section 5.1),
	// including recursive ones.
	Exchanges int64
	// Meetings is the number of initiated random meetings.
	Meetings int64
	// Converged reports whether the threshold was reached before
	// MaxMeetings.
	Converged bool
	// AvgPathLen is the final average path length.
	AvgPathLen float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// ErrBadOptions reports invalid options.
var ErrBadOptions = errors.New("sim: invalid options")

func (o Options) validate() error {
	if o.N < 2 {
		return fmt.Errorf("%w: N = %d, need at least 2 peers", ErrBadOptions, o.N)
	}
	if err := o.Config.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	if o.Threshold < 0 || o.Threshold > 1 {
		return fmt.Errorf("%w: Threshold = %v", ErrBadOptions, o.Threshold)
	}
	return nil
}

// Build runs the sequential construction: random pairwise meetings until
// the average path length reaches Threshold·MaxL. Deterministic for a
// given Options.Seed.
func Build(opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	d := directory.New(opts.N)
	var m core.Metrics
	m.Tel = opts.Telemetry
	sc := core.NewExchangeScratch(opts.Config, opts.N) // the engine's: one for every meeting of the run
	target := opts.Threshold * float64(opts.Config.MaxL)
	sampling := opts.Telemetry.EventsOn() && opts.SampleEvery > 0

	var res Result
	// The directory maintains the path-length sum incrementally, so the
	// average path length is a single atomic load and convergence is checked
	// after every meeting — detection is exact, not rationed the way it had
	// to be when AvgPathLen was an O(N) scan.
	for res.Meetings < opts.MaxMeetings {
		if opts.Churn != nil && res.Meetings%opts.ChurnEvery == 0 {
			ChurnStep(d, *opts.Churn, rng)
		}
		a1, a2 := d.RandomPair(rng)
		if opts.Churn != nil && (!a1.Online() || !a2.Online()) {
			res.Meetings++ // a missed meeting still consumes wall-clock
			continue
		}
		core.Exchange(d, opts.Config, &m, sc, a1, a2, rng)
		res.Meetings++
		if sampling && res.Meetings%opts.SampleEvery == 0 {
			emitRound(opts, &m, d, res.Meetings, target)
		}
		if opts.CheckEvery > 0 && res.Meetings%opts.CheckEvery == 0 {
			if err := d.CheckInvariants(); err != nil {
				return Result{}, fmt.Errorf("sim: invariant violated after %d meetings: %v", res.Meetings, err)
			}
		}
		if d.AvgPathLen() >= target {
			res.Converged = true
			break
		}
	}
	if !res.Converged && d.AvgPathLen() >= target {
		res.Converged = true
	}
	res.Dir = d
	res.Exchanges = m.Exchanges.Load()
	res.AvgPathLen = d.AvgPathLen()
	res.Elapsed = time.Since(start)
	emitBuild(opts, res)
	return res, nil
}

// BuildConcurrent runs the same process with opts.Workers goroutines
// performing meetings in parallel. The result is not deterministic across
// runs (scheduling interleaves), but every safety invariant holds; tests
// verify this. Use for large grids (the paper's 20 000-peer experiment).
//
// The engine is contention-free: workers share nothing but three atomics
// (the meeting claim counter, the performed-meeting counter, and the stop
// flag) plus the peers' own fine-grained locks. Each worker draws from its
// own seeded RNG. Meetings never overshoot opts.MaxMeetings: a worker
// claims exactly one meeting at a time and reports every meeting it
// performed, so Result.Meetings is exact even when workers stop mid-stride.
//
// Churn is supported like in the sequential engine: every ChurnEvery
// performed meetings, whichever worker crosses the boundary first wins a
// CAS and advances the whole community's session model; meetings between
// peers that are not both online are counted but perform no exchange.
func BuildConcurrent(opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	d := directory.New(opts.N)
	var m core.Metrics
	m.Tel = opts.Telemetry
	target := opts.Threshold * float64(opts.Config.MaxL)
	sampling := opts.Telemetry.EventsOn() && opts.SampleEvery > 0

	var (
		claimed    atomic.Int64 // meetings handed out to workers
		performed  atomic.Int64 // meetings actually carried out
		stop       atomic.Bool  // convergence reached
		nextChurn  atomic.Int64 // performed-meeting count of the next churn step
		nextSample atomic.Int64 // performed-meeting count of the next round sample
	)
	nextSample.Store(opts.SampleEvery)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*1_000_003))
			sc := core.NewExchangeScratch(opts.Config, opts.N) // the worker's own, like its rng
			for !stop.Load() {
				if claimed.Add(1) > opts.MaxMeetings {
					return
				}
				if opts.Churn != nil {
					gate := nextChurn.Load()
					if performed.Load() >= gate && nextChurn.CompareAndSwap(gate, gate+opts.ChurnEvery) {
						ChurnStep(d, *opts.Churn, rng)
					}
				}
				a1, a2 := d.RandomPair(rng)
				if opts.Churn == nil || (a1.Online() && a2.Online()) {
					core.Exchange(d, opts.Config, &m, sc, a1, a2, rng)
				}
				done := performed.Add(1)
				// Like churn, sampling is a CAS race: whichever worker
				// crosses the boundary first emits the round sample.
				if sampling {
					gate := nextSample.Load()
					if done >= gate && nextSample.CompareAndSwap(gate, gate+opts.SampleEvery) {
						emitRound(opts, &m, d, done, target)
					}
				}
				// AvgPathLen is one atomic load, so convergence is polled
				// after every meeting — no batch-granularity overshoot.
				if d.AvgPathLen() >= target {
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	res := Result{
		Dir:        d,
		Exchanges:  m.Exchanges.Load(),
		Meetings:   performed.Load(),
		AvgPathLen: d.AvgPathLen(),
		Converged:  d.AvgPathLen() >= target,
		Elapsed:    time.Since(start),
	}
	emitBuild(opts, res)
	return res, nil
}
