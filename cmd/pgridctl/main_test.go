package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"pgrid/internal/analysis"
	"pgrid/internal/core"
	"pgrid/internal/node"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// TestMain lets a test run this binary as pgridctl: arguments after
// "as-pgridctl" are pgridctl's command line.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.NArg() > 0 && flag.Arg(0) == "as-pgridctl" {
		os.Args = append([]string{"pgridctl"}, flag.Args()[1:]...)
		flag.CommandLine = flag.NewFlagSet("pgridctl", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pgridctl runs the test binary as pgridctl with args and returns its
// standard output, its standard error and its exit code.
func pgridctl(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "as-pgridctl"}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// liveNode serves one peer on a loopback port with telemetry on and a
// history ring of three samples a second apart: one, two, then three client
// queries per interval, and before the i-th sample whatever serve(i, tel)
// records (nil records nothing more). It returns the -peers value naming it.
func liveNode(t *testing.T, serve func(i int, tel *telemetry.Instruments)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := node.New(0, core.Config{MaxL: 4, RefMax: 3, RecMax: 2, RecFanout: 2}, node.NewLocalTransport(), 1)
	tel := telemetry.New(0)
	n.SetTelemetry(tel)
	hist := telemetry.NewHistory(time.Second, time.Minute)
	clock := time.Now().Add(-3 * time.Second)
	hist.SetNow(func() time.Time { return clock })
	for i := 0; i < 3; i++ {
		for j := 0; j <= i; j++ {
			tel.ClientRPC("query", 2*time.Millisecond, nil)
		}
		if serve != nil {
			serve(i, tel)
		}
		hist.Record(tel.MetricsSnapshot())
		clock = clock.Add(time.Second)
	}
	n.EnableHistory(hist)
	srv := node.NewServer(n, ln)
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Serve(ctx)
	t.Cleanup(func() {
		cancel()
		srv.Close()
	})
	return "0=" + ln.Addr().String()
}

// TestTopClusterRefused: top and watch are retired — observe <id>
// ask=history reads one peer's trends, cluster <id> walks the community over
// the history window — so each is refused as a usage error, before any peer
// is asked.
func TestTopClusterRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"top", "0"}, `unknown command "top"`},
		{[]string{"top", "-cluster", "0"}, `unknown command "top"`},
		{[]string{"watch", "0"}, `unknown command "watch"`},
		{[]string{"watch", "-cluster", "0"}, `unknown command "watch"`},
	} {
		_, stderr, code := pgridctl(t, append([]string{"-peers", "0=127.0.0.1:1"}, tc.args...)...)
		if code != 2 || !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "usage: pgridctl") {
			t.Errorf("%v: exit %d, want 2 with %q and the usage:\n%s", tc.args, code, tc.want, stderr)
		}
	}
}

// TestPeersTable: -peers is read by node.ParseEndpoints, the parser
// pgridnode reads its table with — blanks around '=' and a trailing comma
// are accepted, and a negative id (addr.Nil is no peer) is a usage error
// before any peer is asked.
func TestPeersTable(t *testing.T) {
	ep := strings.TrimPrefix(liveNode(t, nil), "0=")
	for _, tc := range []struct {
		name, peers string
		code        int
	}{
		{"blanks around the equals sign", "0 = " + ep, 0},
		{"trailing comma", "0=" + ep + ",", 0},
		{"negative id", "-1=" + ep, 2},
	} {
		_, stderr, code := pgridctl(t, "-peers", tc.peers, "observe", "0", "ask=history")
		if code != tc.code || (code == 2 && !strings.Contains(stderr, "bad -peers")) {
			t.Errorf("%s (-peers %q): exit %d, want %d\n%s", tc.name, tc.peers, code, tc.code, stderr)
		}
	}
}

// TestObserveHistoryKindRows: `observe <id> ask=history 1s 1` prints one
// plain frame of the peer's trends — the rates, the per-kind rows (calls,
// rate over the newest interval, windowed quantiles) and the -slo verdicts —
// and exits 0; its -json frame is the observe answer itself.
func TestObserveHistoryKindRows(t *testing.T) {
	peers := liveNode(t, nil)
	out, stderr, code := pgridctl(t, "-peers", peers, "-slo", "query:p99:5ms", "observe", "0", "ask=history", "1s", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out, stderr)
	}
	for _, want := range []string{"trends         1 peers", "rpc rate", "rate/s",
		"client  query             5      3.0     2.0ms", "slo            query:p99:5ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("observe ask=history lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Errorf("a one-frame run cleared the screen:\n%q", out)
	}

	out, stderr, code = pgridctl(t, "-peers", peers, "-json", "observe", "0", "ask=history")
	var o wire.ObserveResp
	if err := json.Unmarshal([]byte(out), &o); code != 0 || err != nil || o.History == nil || len(o.History.Points) != 3 {
		t.Fatalf("observe -json: exit %d, %v, answer %+v\n%s", code, err, o, stderr)
	}
}

// TestClusterJSON: cluster emits one JSON object a frame, which decodes
// back into the frame the text view prints: the one peer, and its client
// query row from the history window.
func TestClusterJSON(t *testing.T) {
	peers := liveNode(t, nil)
	out, stderr, code := pgridctl(t, "-peers", peers, "-json", "cluster", "0", "1ms", "2")
	if code != 0 {
		t.Fatalf("cluster: exit %d\n%s", code, stderr)
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	frames := 0
	for ; sc.Scan(); frames++ {
		var f clusterFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("cluster frame %d: %v\n%s", frames, err, sc.Text())
		}
		k := f.Report.Trends.Kinds
		if f.Reached != 1 || f.Report.Peers != 1 || f.Messages != 1 || len(k) != 1 || k[0].Kind != "query" || k[0].Count != 5 {
			t.Errorf("cluster frame %d = %+v, want one peer and its client query row", frames, f)
		}
	}
	if frames != 2 {
		t.Errorf("cluster ... 1ms 2 printed %d frames, want 2", frames)
	}
}

// serveQueries records n served queries that each took d.
func serveQueries(tel *telemetry.Instruments, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		tel.ServedRPC("query")
		tel.ServedRPCTraced("query", d, false, 0)
	}
}

// TestClusterJudgesTheWindow: cluster's verdict is the history window's.
// 100 slow served queries before the ring's first point and 200 fast ones
// after it breach query:p99:5ms over cumulative counts (a third slow), but
// the window holds only the fast ones: cluster exits 0 and prints the
// windowed burn observe ask=history prints. The same 100 slow queries inside
// the window breach it, and cluster exits 1.
func TestClusterJudgesTheWindow(t *testing.T) {
	lineOf := func(out, prefix string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	sloLine := func(out string) string { return lineOf(out, "slo            query:p99:5ms") }
	// The served query row counts the window's calls: the calls its SLO
	// line judges.
	sameCount := func(out string) {
		t.Helper()
		row, slo := strings.Fields(lineOf(out, "               served  query ")), sloLine(out)
		var slow, total int
		_, err := fmt.Sscanf(slo[strings.Index(slo, "(")+1:], "%d of %d slow)", &slow, &total)
		if err != nil || len(row) < 3 || row[2] != strconv.Itoa(total) {
			t.Errorf("served query row %q beside slo %q (%v):\n%s", row, slo, err, out)
		}
	}
	before := liveNode(t, func(i int, tel *telemetry.Instruments) {
		if i == 0 {
			serveQueries(tel, 100, 50*time.Millisecond)
		} else {
			serveQueries(tel, 100, time.Millisecond)
		}
	})
	out, stderr, code := pgridctl(t, "-peers", before, "-slo", "query:p99:5ms", "cluster", "0")
	observed, _, _ := pgridctl(t, "-peers", before, "-slo", "query:p99:5ms", "observe", "0", "ask=history")
	line := sloLine(out)
	if code != 0 || !strings.Contains(line, "windowed burn 0.00 (0 of 200 slow)  ok") || line != sloLine(observed) {
		t.Errorf("slow queries before the window: exit %d, slo %q, observe's %q\n%s%s", code, line, sloLine(observed), out, stderr)
	}
	if !strings.Contains(out, "               served  query           200 ") {
		t.Errorf("cluster counts more than the window's 200 served queries:\n%s", out)
	}
	sameCount(out)
	sameCount(observed)

	inside := liveNode(t, func(i int, tel *telemetry.Instruments) {
		if i == 2 {
			serveQueries(tel, 100, 50*time.Millisecond)
		} else {
			serveQueries(tel, 100, time.Millisecond)
		}
	})
	out, stderr, code = pgridctl(t, "-peers", inside, "-slo", "query:p99:5ms", "cluster", "0")
	if line := sloLine(out); code != 1 || !strings.Contains(line, "(100 of 200 slow)  BREACHED") {
		t.Errorf("slow queries inside the window: exit %d, slo %q\n%s%s", code, line, out, stderr)
	}
	sameCount(out)
}

// TestRefresh pins the loop observe and cluster share: count frames,
// each collected anew; a refreshing run clears the screen and titles each
// frame, one frame (count 1) is printed plain, the JSON stream is one object
// a line and never clears; the run exits with the last frame's code.
func TestRefresh(t *testing.T) {
	run := func(count int, jsonOut bool, codes ...int) (string, int, int) {
		var b strings.Builder
		calls := 0
		code := refresh(&b, "observe node 0", time.Millisecond, count, jsonOut, func() (any, func(io.Writer), int) {
			calls++
			n := calls
			return map[string]int{"frame": n}, func(w io.Writer) { fmt.Fprintf(w, "frame %d\n", n) }, codes[n-1]
		})
		return b.String(), calls, code
	}
	out, calls, code := run(3, false, 0, 0, 1)
	if calls != 3 || code != 1 || strings.Count(out, "\x1b[H\x1b[2Jobserve node 0 · ") != 3 || !strings.HasSuffix(out, "frame 3\n") {
		t.Errorf("3 frames: %d collected, exit %d, output %q", calls, code, out)
	}
	out, calls, code = run(1, false, 3)
	if calls != 1 || code != 3 || out != "frame 1\n" {
		t.Errorf("one frame: %d collected, exit %d, output %q", calls, code, out)
	}
	out, calls, code = run(2, true, 0, 0)
	if calls != 2 || code != 0 || out != "{\"frame\":1}\n{\"frame\":2}\n" {
		t.Errorf("JSON: %d collected, exit %d, output %q", calls, code, out)
	}
}

// TestRenderKindTableOmitsIdleKinds: the per-kind rows observe prints name
// only kinds with calls; a kind the node counts at zero is left out.
func TestRenderKindTableOmitsIdleKinds(t *testing.T) {
	tel := telemetry.New(0)
	d := telemetry.HistoryDump{IntervalNS: int64(time.Second)}
	d.Points = append(d.Points, telemetry.HistoryPoint{AtNS: 1e9, Snap: tel.MetricsSnapshot()})
	for i := 0; i < 7; i++ {
		tel.ClientRPC("exchange", time.Millisecond, nil)
	}
	snap := tel.MetricsSnapshot()
	snap.Stats = append(snap.Stats, telemetry.Stat{Name: `pgrid_rpc_client_kind_total{kind="query"}`})
	d.Points = append(d.Points, telemetry.HistoryPoint{AtNS: 2e9, Snap: snap})
	var b strings.Builder
	analysis.RenderObserve(&b, 0, &wire.ObserveResp{History: &d}, 1, nil)
	out := b.String()
	if !strings.Contains(out, "client  exchange          7      7.0") {
		t.Errorf("active kind missing:\n%s", out)
	}
	if strings.Contains(out, "query") || strings.Contains(out, "kind(") {
		t.Errorf("idle kinds rendered:\n%s", out)
	}
}

// TestWithQuantile: a flattened histogram comes back under the series names
// /metrics uses, the quantile label appended to a labeled or a bare name.
func TestWithQuantile(t *testing.T) {
	reg := telemetry.NewRegistry()
	var snap telemetry.MetricsSnapshot
	for _, name := range []string{`pgrid_rpc_kind_latency_ns{kind="query"}`, "pgrid_pool_acquire_wait_ns"} {
		q := reg.Quantile(name, "")
		q.Observe(1_500_000)
		snap.Hists = append(snap.Hists, q.Snapshot())
	}
	got := analysis.FlattenSnapshot(snap)
	for _, want := range []string{`pgrid_rpc_kind_latency_ns{kind="query",quantile="0.5"}`, `pgrid_pool_acquire_wait_ns{quantile="0.5"}`} {
		if _, ok := got[want]; !ok {
			t.Errorf("flattened stats lack %s: %v", want, got)
		}
	}
}
