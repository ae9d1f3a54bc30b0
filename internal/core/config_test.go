package core

import (
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := GnutellaConfig().Validate(); err != nil {
		t.Errorf("gnutella config invalid: %v", err)
	}
	bads := []Config{
		{MaxL: 0, RefMax: 1},
		{MaxL: 1, RefMax: 0},
		{MaxL: 1, RefMax: 1, RecMax: -1},
		{MaxL: 1, RefMax: 1, RecFanout: -1},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	// Multiple faults are all reported.
	err := Config{MaxL: 0, RefMax: 0}.Validate()
	if err == nil || !strings.Contains(err.Error(), "MaxL") || !strings.Contains(err.Error(), "RefMax") {
		t.Errorf("joined errors = %v", err)
	}
}

func TestPaperConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.MaxL != 6 || d.RefMax != 1 || d.RecMax != 2 || d.RecFanout != 2 {
		t.Errorf("DefaultConfig = %+v", d)
	}
	g := GnutellaConfig()
	if g.MaxL != 10 || g.RefMax != 20 {
		t.Errorf("GnutellaConfig = %+v", g)
	}
}

func TestMetrics(t *testing.T) {
	var m Metrics
	m.Exchanges.Add(3)
	m.Messages.Add(5)
	e, msgs := m.Snapshot()
	if e != 3 || msgs != 5 {
		t.Errorf("snapshot = %d, %d", e, msgs)
	}
	if got := m.String(); !strings.Contains(got, "exchanges=3") || !strings.Contains(got, "messages=5") {
		t.Errorf("String = %q", got)
	}
}
