// Command benchmark measures routed P-Grid operations end to end and layer
// by layer. See README.md in this directory.
//
//	go run ./benchmark -seed 1                 every workload, end-to-end metrics
//	go run ./benchmark -seed 1 -trace 1        the same, then the traced runs
//	go run ./benchmark -workload route -seed 1 -seconds 20 -trace 0
//
// With -workload the process runs that workload alone and ends its standard
// output with one JSON object {correct, attempted, failed, metrics}: the
// gated end-to-end metrics at -trace 0, the per-layer metrics (the timings
// first) at -trace 1. Without
// it the process re-executes itself once per workload, so peak RSS, heap,
// descriptors and breaker state never leak from one workload into the next.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is the measured time of one run; BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 20

// report is what -json writes.
type report struct {
	Machine machineInfo `json:"machine"`
	Results []*result   `json:"results"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this workload alone: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", defaultSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes the spans")
		jsonOut  = flag.String("json", "", "also write the results to this file")
		traceDir = flag.String("trace-dir", ".bench_out", "directory a traced run writes trace-<workload>.json to")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var results []*result
	ok := true
	if *workload == "" {
		results, ok = runAll(*seed, *seconds, *trace == 1, *traceDir)
	} else {
		r, err := runOne(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		results, ok = []*result{r}, r.Correct
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, report{Machine: machine(), Results: results}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	if *workload != "" {
		// The result line goes last.
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{results[0].Correct, results[0].Attempted, results[0].Failed, results[0].line()})
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics.
func runOne(name string, seed int64, seconds time.Duration, traced bool, traceDir string) (*result, error) {
	// Two threads whatever the machine has: the load generator and the 256
	// nodes share them, as they would share the 2-core box this is gated on.
	runtime.GOMAXPROCS(2)
	fmt.Printf("# %s seed=%d seconds=%v trace=%d %s\n", name, seed, seconds.Seconds(), btoi(traced), machine())
	var r *result
	var err error
	switch name {
	case wlRoute, wlUpdateMix, wlChurn:
		out := ""
		if traced {
			out = filepath.Join(traceDir, "trace-"+name+".json")
		}
		r, err = runNetworked(name, seed, seconds, traced, out)
	case wlSim:
		r, err = runSim(seed, seconds, 0, traced)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	printResult(os.Stdout, r)
	return r, nil
}

// runAll re-executes this binary once per workload, and once more per
// workload traced when asked, and collects what each child wrote with -json
// (its result line leaves the ungated timings out).
func runAll(seed int64, seconds int, traced bool, traceDir string) ([]*result, bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	// Next to the span files, so that nothing is written outside the
	// directory the command runs in.
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	tmp, err := os.CreateTemp(traceDir, "result-*.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	tmp.Close()
	defer os.Remove(tmp.Name())

	modes := []int{0}
	if traced {
		modes = append(modes, 1)
	}
	var results []*result
	ok := true
	for _, mode := range modes {
		for _, name := range workloadNames {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(mode), "-trace-dir", traceDir,
				"-json", tmp.Name())
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", name, mode, err)
				ok = false
			}
			var rep report
			if b, err := os.ReadFile(tmp.Name()); err != nil || json.Unmarshal(b, &rep) != nil || len(rep.Results) != 1 {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d) wrote no result\n", name, mode)
				ok = false
				continue
			}
			results = append(results, rep.Results[0])
			if err := os.Truncate(tmp.Name(), 0); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return results, false
			}
		}
	}
	return results, ok
}

// printResult prints every metric as "workload/metric value unit", in the
// order of the lists in spec.go, with the sample count beside a percentile.
func printResult(w io.Writer, r *result) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, s := range r.specs() {
		m := r.Metrics[s.name]
		fmt.Fprintf(bw, "%s/%s %.6g %s", r.Workload, s.name, m.Value, m.Unit)
		if n, ok := r.Samples[s.name]; ok {
			fmt.Fprintf(bw, " (n=%d)", n)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "%s/attempted %d count\n%s/failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(bw, "%s: FAILED CHECK: %s\n", r.Workload, p)
	}
}

// machineInfo is the context a number is meaningless without.
type machineInfo struct {
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Go              string `json:"go"`
	Kernel          string `json:"kernel"`
	BackgroundLoops string `json:"background_loops"`
}

func machine() machineInfo {
	return machineInfo{runtime.NumCPU(), 2, runtime.Version(), kernel(),
		"off (gossip, prober, maintain, repair, history sampler)"}
}

func (m machineInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s kernel=%s background_loops=off", m.NProc, m.GOMAXPROCS, m.Go, m.Kernel)
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
