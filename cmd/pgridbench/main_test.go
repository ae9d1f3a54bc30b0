package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestParseRun(t *testing.T) {
	want, err := parseRun("table1, engine,scale")
	if err != nil || !want["table1"] || !want["engine"] || !want["scale"] || len(want) != 3 {
		t.Errorf("parseRun = %v, %v", want, err)
	}
	for _, bad := range []string{"nosuch", "table1,nosuch", "", "table1,", "wire"} {
		if want, err := parseRun(bad); err == nil {
			t.Errorf("parseRun(%q) = %v, want an unknown-experiment error", bad, want)
		}
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
