package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pgrid/internal/bitpath"
)

func TestUniformKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := UniformKeys(rng, 4000, 10)
	if len(keys) != 4000 {
		t.Fatalf("len = %d", len(keys))
	}
	for _, k := range keys {
		if k.Len() != 10 || !k.Valid() {
			t.Fatalf("bad key %q", k)
		}
	}
	if skew := SkewMetric(keys, 3); skew > 0.1 {
		t.Errorf("uniform keys look skewed: tv = %v", skew)
	}
}

func TestZipfKeysAreSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := ZipfKeys(rng, 4000, 10, 1.3)
	for _, k := range keys {
		if k.Len() != 10 {
			t.Fatalf("bad key %q", k)
		}
	}
	skewZ := SkewMetric(keys, 3)
	skewU := SkewMetric(UniformKeys(rng, 4000, 10), 3)
	if skewZ <= skewU+0.1 {
		t.Errorf("zipf skew %v not clearly above uniform %v", skewZ, skewU)
	}
}

func TestZipfKeysPanicsOnBadBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bits := range []int{0, 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bits=%d did not panic", bits)
				}
			}()
			ZipfKeys(rng, 1, bits, 1.2)
		}()
	}
}

func TestFileCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := FileCatalog(rng, 500, 100, 12)
	if len(c.Entries) != 500 {
		t.Fatalf("len = %d", len(c.Entries))
	}
	names := map[string]bool{}
	for _, e := range c.Entries {
		if e.Key.Len() != 12 {
			t.Fatalf("key length %d", e.Key.Len())
		}
		if int(e.Holder) < 0 || int(e.Holder) >= 100 {
			t.Fatalf("holder %v out of range", e.Holder)
		}
		if e.Key != bitpath.HashKey(e.Name, 12) {
			t.Fatalf("key not derived from name: %v", e)
		}
		names[e.Name] = true
	}
	if len(names) < 400 {
		t.Errorf("only %d distinct names in 500 entries", len(names))
	}
}

func TestChurnStationaryFraction(t *testing.T) {
	c := ChurnForOnlineFraction(0.3, 50)
	if got := c.POnline / (c.POnline + c.POffline); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("stationary = %v", got)
	}
	// Simulate one peer for a long time; the empirical online fraction
	// must approach 0.3.
	rng := rand.New(rand.NewSource(5))
	online, onSteps := true, 0
	steps := 200000
	for i := 0; i < steps; i++ {
		online = c.Step(rng, online)
		if online {
			onSteps++
		}
	}
	got := float64(onSteps) / float64(steps)
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("empirical online fraction = %v, want ≈ 0.3", got)
	}
}

func TestChurnMeanSessionLength(t *testing.T) {
	c := ChurnForOnlineFraction(0.5, 20)
	rng := rand.New(rand.NewSource(6))
	// Measure mean online-session length.
	sessions, total := 0, 0
	online, cur := false, 0
	for i := 0; i < 400000; i++ {
		next := c.Step(rng, online)
		if next {
			cur++
		}
		if online && !next {
			sessions++
			total += cur
			cur = 0
		}
		online = next
	}
	if sessions == 0 {
		t.Fatal("no sessions observed")
	}
	mean := float64(total) / float64(sessions)
	if math.Abs(mean-20) > 2 {
		t.Errorf("mean session length = %v, want ≈ 20", mean)
	}
}

func TestChurnEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if !(Churn{}).Step(rng, true) || (Churn{}).Step(rng, false) {
		t.Error("zero churn changed a peer's state")
	}
	for _, f := range []func(){
		func() { ChurnForOnlineFraction(0, 10) },
		func() { ChurnForOnlineFraction(1, 10) },
		func() { ChurnForOnlineFraction(0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSkewMetricBounds(t *testing.T) {
	// Fully concentrated sample: all keys share the same 3-bit prefix.
	keys := make([]bitpath.Path, 100)
	for i := range keys {
		keys[i] = bitpath.MustParse("000") + bitpath.Path("0101")
	}
	skew := SkewMetric(keys, 3)
	if skew < 0.8 {
		t.Errorf("concentrated skew = %v, want near 1", skew)
	}
	if got := SkewMetric(nil, 3); got != 0 {
		t.Errorf("empty skew = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("short key must panic")
		}
	}()
	SkewMetric([]bitpath.Path{bitpath.MustParse("01")}, 3)
}

func TestFileNameDeterministicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := FileName(rng, 3)
	if len(n) == 0 || n[len(n)-4:] != ".mp3" {
		t.Errorf("name = %q", n)
	}
}

// SkewMetric quantifies how imbalanced a key sample is: the total-variation
// distance between the empirical distribution of the first `prefixBits`
// bits and the uniform distribution (0 = perfectly uniform, →1 = fully
// concentrated). It is the oracle the key generators' tests measure skew
// with; the skew experiment itself reports the load Gini.
func SkewMetric(keys []bitpath.Path, prefixBits int) float64 {
	if len(keys) == 0 {
		return 0
	}
	buckets := 1 << uint(prefixBits)
	counts := make([]int, buckets)
	for _, k := range keys {
		if k.Len() < prefixBits {
			panic(fmt.Sprintf("workload: key %s shorter than %d bits", k, prefixBits))
		}
		counts[k.Prefix(prefixBits).Uint()]++
	}
	tv := 0.0
	uniform := 1 / float64(buckets)
	for _, c := range counts {
		tv += math.Abs(float64(c)/float64(len(keys)) - uniform)
	}
	return tv / 2
}
