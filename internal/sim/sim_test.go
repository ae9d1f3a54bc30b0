package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/telemetry"
	"pgrid/internal/trie"
	"pgrid/internal/workload"
)

func TestBuildConvergesAndHoldsInvariants(t *testing.T) {
	res, err := Build(Options{
		N:          100,
		Config:     core.Config{MaxL: 4, RefMax: 2, RecMax: 2, RecFanout: 2},
		Seed:       1,
		CheckEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.AvgPathLen < 0.99*4 {
		t.Errorf("avg path length = %v", res.AvgPathLen)
	}
	if err := res.Dir.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.Exchanges <= 0 || res.Meetings <= 0 {
		t.Errorf("counters: %+v", res)
	}
	// A converged grid must cover the whole key space.
	for v := uint64(0); v < 1<<4; v++ {
		key := bitpath.FromUint(v, 4)
		if len(res.Dir.Covering(key)) == 0 {
			t.Errorf("key %s has no covering peer", key)
		}
	}
}

func TestBuildDeterministicForSeed(t *testing.T) {
	opts := Options{N: 60, Config: core.DefaultConfig(), Seed: 42}
	r1, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Exchanges != r2.Exchanges || r1.Meetings != r2.Meetings {
		t.Errorf("same seed diverged: %d/%d vs %d/%d",
			r1.Exchanges, r1.Meetings, r2.Exchanges, r2.Meetings)
	}
	for i, p := range r1.Dir.All() {
		if q := r2.Dir.All()[i]; p.Path() != q.Path() {
			t.Fatalf("peer %d path %q vs %q", i, p.Path(), q.Path())
		}
	}
}

func TestBuildDifferentSeedsDiffer(t *testing.T) {
	r1, _ := Build(Options{N: 60, Config: core.DefaultConfig(), Seed: 1})
	r2, _ := Build(Options{N: 60, Config: core.DefaultConfig(), Seed: 2})
	same := true
	for i, p := range r1.Dir.All() {
		if r2.Dir.All()[i].Path() != p.Path() {
			same = false
			break
		}
	}
	if same && r1.Exchanges == r2.Exchanges {
		t.Error("different seeds produced identical runs")
	}
}

func TestBuildRecursionSpeedsConvergence(t *testing.T) {
	// The paper's central Section 5.1 finding: recmax=2 needs far fewer
	// exchanges than recmax=0.
	slow, err := Build(Options{N: 200, Config: core.Config{MaxL: 6, RefMax: 1, RecMax: 0}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Build(Options{N: 200, Config: core.Config{MaxL: 6, RefMax: 1, RecMax: 2, RecFanout: 2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Exchanges >= slow.Exchanges {
		t.Errorf("recursion did not help: %d vs %d", fast.Exchanges, slow.Exchanges)
	}
}

func TestBuildValidatesOptions(t *testing.T) {
	if _, err := Build(Options{N: 1, Config: core.DefaultConfig()}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := Build(Options{N: 10, Config: core.Config{MaxL: 0, RefMax: 1}}); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := Build(Options{N: 10, Config: core.DefaultConfig(), Threshold: 1.5}); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestBuildAbortsAtMaxMeetings(t *testing.T) {
	res, err := Build(Options{
		N:           50,
		Config:      core.Config{MaxL: 10, RefMax: 1, RecMax: 0},
		MaxMeetings: 100, // far too few to converge to depth 10
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("claimed convergence after 100 meetings")
	}
	if res.Meetings != 100 {
		t.Errorf("meetings = %d", res.Meetings)
	}
}

func TestBuildConcurrentConvergesAndHoldsInvariants(t *testing.T) {
	res, err := BuildConcurrent(Options{
		N:       400,
		Config:  core.Config{MaxL: 5, RefMax: 3, RecMax: 2, RecFanout: 2},
		Seed:    5,
		Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("concurrent build did not converge: %+v", res)
	}
	if err := res.Dir.CheckInvariants(); err != nil {
		t.Fatalf("concurrent build broke invariants: %v", err)
	}
	for _, p := range res.Dir.All() {
		if p.PathLen() > 5 {
			t.Errorf("maxl exceeded under concurrency: %q", p.Path())
		}
		for _, rs := range p.Snapshot().Refs {
			if rs.Len() > 3 {
				t.Errorf("refmax exceeded under concurrency: %q holds %d", p.Path(), rs.Len())
			}
		}
	}
}

func TestBuildConcurrentRespectsMaxMeetings(t *testing.T) {
	// The seed engine handed out whole batches and could overshoot
	// MaxMeetings by Workers×batch; the atomic engine claims one meeting at
	// a time, so a non-converging run stops at exactly MaxMeetings.
	res, err := BuildConcurrent(Options{
		N:           50,
		Config:      core.Config{MaxL: 10, RefMax: 1, RecMax: 0},
		MaxMeetings: 100, // far too few to converge to depth 10
		Seed:        4,
		Workers:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("claimed convergence after 100 meetings")
	}
	if res.Meetings != 100 {
		t.Errorf("meetings = %d, want exactly 100", res.Meetings)
	}
}

func TestBuildConcurrentWithChurn(t *testing.T) {
	// Construction under session churn on the concurrent engine: offline
	// peers miss meetings, workers advance the session model via a CAS
	// gate, and the structure must still converge without breaking any
	// invariant. Run under -race this exercises the engine's atomics.
	c := workload.ChurnForOnlineFraction(0.7, 50)
	res, err := BuildConcurrent(Options{
		N:           300,
		Config:      core.Config{MaxL: 5, RefMax: 3, RecMax: 2, RecFanout: 2},
		Threshold:   0.9,
		Seed:        7,
		Workers:     8,
		Churn:       &c,
		ChurnEvery:  75,
		MaxMeetings: 3000 * 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("churned concurrent build did not converge: %+v", res)
	}
	if err := res.Dir.CheckInvariants(); err != nil {
		t.Fatalf("churned concurrent build broke invariants: %v", err)
	}
	if res.Meetings <= 0 || res.Exchanges <= 0 {
		t.Errorf("implausible counters: %+v", res)
	}
}

func TestBuildConcurrentValidatesOptions(t *testing.T) {
	if _, err := BuildConcurrent(Options{N: 0, Config: core.DefaultConfig()}); err == nil {
		t.Error("bad options accepted")
	}
}

func TestChurnStepApproachesStationaryFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := trie.BuildIdeal(512, 3, 4, rng)
	c := workload.ChurnForOnlineFraction(0.3, 40)
	var last int
	for i := 0; i < 400; i++ {
		last = ChurnStep(d, c, rng)
	}
	got := float64(last) / 512
	if math.Abs(got-0.3) > 0.12 {
		t.Errorf("online fraction after churn = %v, want ≈ 0.3", got)
	}
	if got2 := d.OnlineCount(); got2 != last {
		t.Errorf("ChurnStep return %d != OnlineCount %d", last, got2)
	}
}

// TestBuildEmitsOneExchangeEventPerMeeting runs both engines with a JSONL
// sink attached — under -race, the concurrent engine's workers emit into
// the one sink at once — and decodes what it wrote: one "exchange" event
// per meeting, at depth 0, while pgrid_exchange_total still counts the
// recursive exchanges. The sequential run with events on takes the same
// trajectory as with them off: emission draws no random number.
func TestBuildEmitsOneExchangeEventPerMeeting(t *testing.T) {
	opts := Options{
		N:      120,
		Config: core.Config{MaxL: 4, RefMax: 2, RecMax: 2, RecFanout: 2},
		Seed:   7,
	}
	bare, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(Options) (Result, error){"sequential": Build, "concurrent": BuildConcurrent} {
		var buf bytes.Buffer
		sink := telemetry.NewJSONLSink(&buf)
		o := opts
		o.Telemetry = telemetry.New(-1)
		o.Telemetry.SetSink(sink)
		res, err := build(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		var meetings int64
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			var e telemetry.Event
			if err := json.Unmarshal(line, &e); err != nil || e.V != telemetry.SchemaVersion {
				t.Fatalf("%s: line %q: %v", name, line, err)
			}
			if e.Kind == telemetry.KindExchange {
				meetings++
				if depth := e.Attrs["depth"].(float64); depth != 0 {
					t.Fatalf("%s: exchange event at depth %v", name, depth)
				}
			}
		}
		if meetings != res.Meetings {
			t.Errorf("%s: %d exchange events, %d meetings", name, meetings, res.Meetings)
		}
		if ex, _, _ := o.Telemetry.Totals(); ex != res.Exchanges || ex <= res.Meetings {
			t.Errorf("%s: pgrid_exchange_total %d, engine counted %d exchanges in %d meetings",
				name, ex, res.Exchanges, res.Meetings)
		}
		if name == "sequential" && (res.Meetings != bare.Meetings || res.Exchanges != bare.Exchanges) {
			t.Errorf("events moved the trajectory: %d meetings / %d exchanges, %d / %d without",
				res.Meetings, res.Exchanges, bare.Meetings, bare.Exchanges)
		}
	}
}
