package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunCellsCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prev := maxParallelCells.Swap(int32(workers))
		hits := make([]atomic.Int32, 100)
		err := runCells(len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		})
		maxParallelCells.Store(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: cell %d evaluated %d times", workers, i, got)
			}
		}
	}
}

func TestRunCellsReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	prev := maxParallelCells.Swap(8)
	defer maxParallelCells.Store(prev)
	err := runCells(50, func(i int) error {
		switch i {
		case 7:
			return errLow
		case 31:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Errorf("runCells error = %v, want the lowest-index error", err)
	}
}

// TestParallelHarnessMatchesSequential is the determinism regression the
// parallel harness must hold forever: every cell derives its seed from its
// own parameters, so running the sweep on one worker or many must produce
// byte-identical rows.
func TestParallelHarnessMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table1/Table2 runs; skipped in -short mode")
	}
	const seed = 1
	encode := func(v any) []byte {
		t.Helper()
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	prev := maxParallelCells.Swap(1)
	t1seq, err := Table1(seed)
	if err != nil {
		t.Fatal(err)
	}
	t2seq, err := Table2(seed)
	if err != nil {
		t.Fatal(err)
	}
	maxParallelCells.Store(8)
	t1par, err := Table1(seed)
	if err != nil {
		t.Fatal(err)
	}
	t2par, err := Table2(seed)
	if err != nil {
		t.Fatal(err)
	}
	maxParallelCells.Store(prev)

	if seq, par := encode(t1seq), encode(t1par); !bytes.Equal(seq, par) {
		t.Errorf("Table1 parallel differs from sequential:\nseq %s\npar %s", seq, par)
	}
	if seq, par := encode(t2seq), encode(t2par); !bytes.Equal(seq, par) {
		t.Errorf("Table2 parallel differs from sequential:\nseq %s\npar %s", seq, par)
	}
}
