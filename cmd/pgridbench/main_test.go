package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func selected(exps []experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.name)
	}
	return out
}

func TestParseRun(t *testing.T) {
	got, err := parseRun("table1, engine,scale")
	if err != nil || strings.Join(selected(got), ",") != "table1,engine,scale" {
		t.Errorf("parseRun = %v, %v", selected(got), err)
	}
	for _, bad := range []string{"nosuch", "table1,nosuch", "", "table1,", "wire"} {
		if got, err := parseRun(bad); err == nil {
			t.Errorf("parseRun(%q) = %v, want an unknown-experiment error", bad, selected(got))
		}
	}
	// Every registry name parses, alone, to itself.
	for _, e := range registry {
		if got, err := parseRun(e.name); err != nil || len(got) != 1 || got[0].name != e.name {
			t.Errorf("parseRun(%q) = %v, %v", e.name, selected(got), err)
		}
	}
	// all is the archive: the perf rows and the scale sweep only run when
	// named, and naming one beside all adds it in report order.
	all, err := parseRun("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range selected(all) {
		if name == "engine" || name == "telemetry" || name == "scale" {
			t.Errorf("all selects %s", name)
		}
	}
	if len(all) != len(registry)-3 {
		t.Errorf("all selects %d of %d experiments: %v", len(all), len(registry), selected(all))
	}
	withEngine, err := parseRun("engine,all")
	if err != nil || len(withEngine) != len(all)+1 || withEngine[5].name != "engine" {
		t.Errorf("parseRun(engine,all) = %v, %v", selected(withEngine), err)
	}
}

// TestUnknownExperimentIsUsageError re-executes the test binary as
// pgridbench with an unknown -run name: it must exit 2 with a usage
// message and run nothing, not exit 0 silently.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	if flag.NArg() == 1 && flag.Arg(0) == "as-pgridbench" {
		os.Args = []string{"pgridbench", "-run", "table3,nosuch"}
		main()
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentIsUsageError$", "as-pgridbench").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown experiment "nosuch"`) || !strings.Contains(string(out), "Usage") {
		t.Errorf("no usage error in output:\n%s", out)
	}
	if strings.Contains(string(out), "Table 3") {
		t.Errorf("experiments ran despite the usage error:\n%s", out)
	}
}

// TestPaperArchive regenerates the archive: the default selection at seed 1
// and scale 1 must print ../../paper_results.txt byte for byte, at any
// GOMAXPROCS. When a change moves a number on purpose, regenerate the file
// with `go run ./cmd/pgridbench -seed 1 > paper_results.txt`.
func TestPaperArchive(t *testing.T) {
	want, err := os.ReadFile("../../paper_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	exps, err := parseRun("all")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := bench(&got, exps, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("paper_results.txt:%d differs\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestJSONReportCoversEveryExperiment: -json records every experiment it
// ran, once, with its rows, under the field names BENCH_construction.json
// already has.
func TestJSONReportCoversEveryExperiment(t *testing.T) {
	sel := []string{"table3", "eq3", "join", "convergence", "churnbuild"}
	exps, err := parseRun(strings.Join(sel, ","))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := bench(&out, exps, 1, 1, path); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "wrote "+path+" (5 experiments)\n") {
		t.Errorf("report not announced:\n%s", out.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Schema      string `json:"schema"`
		Experiments []struct {
			Name string            `json:"name"`
			Rows []json.RawMessage `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != "pgridbench/v1" {
		t.Errorf("schema = %q", report.Schema)
	}
	if len(report.Experiments) != len(sel) {
		t.Fatalf("%d experiments recorded, want %d", len(report.Experiments), len(sel))
	}
	for i, e := range report.Experiments {
		if e.Name != sel[i] || len(e.Rows) == 0 {
			t.Errorf("experiment %d = %s with %d rows, want %s with rows", i, e.Name, len(e.Rows), sel[i])
		}
	}
	var row map[string]any
	if err := json.Unmarshal(report.Experiments[0].Rows[0], &row); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"N", "MaxL", "RefMax", "RecMax", "RecFanout", "Exchanges", "EPerN", "Converged"} {
		if _, ok := row[field]; !ok {
			t.Errorf("table3 row %v lacks %s", row, field)
		}
	}
}
