package node

import (
	"math/rand"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
)

// flakyCluster builds a cluster whose nodes talk through a lossy wrapper:
// a ChaosTransport that only drops.
func flakyCluster(n int, drop float64, seed int64) (*Cluster, *ChaosTransport) {
	base := NewLocalTransport()
	flaky := NewChaosTransport(base, ChaosConfig{Drop: drop, Seed: seed})
	c := &Cluster{Transport: base, Nodes: make([]*Node, n)}
	for i := range c.Nodes {
		c.Nodes[i] = New(addr.Addr(i), smallCfg(), flaky, seed+int64(i))
		base.Register(c.Nodes[i])
	}
	return c, flaky
}

func TestConstructionSurvivesMessageLoss(t *testing.T) {
	c, flaky := flakyCluster(64, 0.25, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 120000 && c.AvgPathLen() < 0.95*4; i++ {
		a := rng.Intn(64)
		b := rng.Intn(63)
		if b >= a {
			b++
		}
		c.Nodes[a].Exchange(addr.Addr(b))
	}
	if avg := c.AvgPathLen(); avg < 0.95*4 {
		t.Fatalf("construction stalled under 25%% loss: avg %.2f", avg)
	}
	st := flaky.Stats()
	dropped, total := st.Dropped, st.Total
	if dropped == 0 || total == 0 {
		t.Fatalf("loss never injected: %d/%d", dropped, total)
	}
	frac := float64(dropped) / float64(total)
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("observed drop rate %.3f, configured 0.25", frac)
	}
	// Whatever survived must be structurally sound.
	refs := 0
	for _, n := range c.Nodes {
		s := n.Peer().Snapshot()
		for _, rs := range s.Refs {
			refs += rs.Len()
		}
	}
	if v := c.CountInvariantViolations(); v > refs/20 {
		t.Errorf("%d/%d references invalid after lossy construction", v, refs)
	}
}

func TestQueriesSurviveMessageLoss(t *testing.T) {
	// Build reliably, then query over a 20%-lossy transport: individual
	// attempts may fail, but retrying from fresh entry points converges.
	c, _ := flakyCluster(64, 0, 2) // build loss-free (drop=0 wrapper)
	rng := rand.New(rand.NewSource(2))
	buildCluster(t, c, 0.99*4, 80000, rng)

	lossy := NewChaosTransport(c.Transport, ChaosConfig{Drop: 0.2, Seed: 3})
	for _, n := range c.Nodes {
		n.tr = lossy
	}
	succ := 0
	const attempts = 200
	for i := 0; i < attempts; i++ {
		key := bitpath.Random(rng, 4)
		// Up to 3 tries from different entry points.
		for try := 0; try < 3; try++ {
			if c.Nodes[rng.Intn(64)].Query(key).Found {
				succ++
				break
			}
		}
	}
	if succ < attempts*9/10 {
		t.Fatalf("only %d/%d queries succeeded with retries under 20%% loss", succ, attempts)
	}
}

func TestMajorityReadSurvivesMessageLoss(t *testing.T) {
	c, _ := flakyCluster(64, 0, 4)
	rng := rand.New(rand.NewSource(4))
	buildCluster(t, c, 0.99*4, 80000, rng)

	lossy := NewChaosTransport(c.Transport, ChaosConfig{Drop: 0.2, Seed: 5})
	cl := NewClient(lossy, 6)
	all := make([]addr.Addr, len(c.Nodes))
	for i, n := range c.Nodes {
		all[i] = n.Addr()
	}
	e := store.Entry{Key: bitpath.MustParse("0110"), Name: "f", Holder: 9, Version: 1}
	replicas, _ := cl.Publish(all[:8], e, 3, 3)
	if replicas == 0 {
		t.Fatal("publish reached nobody under loss")
	}
	res := cl.MajorityRead(all, e.Key, "f", 1, 64)
	if !res.Found || res.Entry.Holder != 9 {
		t.Fatalf("majority read under loss = %+v", res)
	}
}

func TestNewFlakyTransportValidation(t *testing.T) {
	base := NewLocalTransport()
	for _, bad := range []float64{-0.1, 1.0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("drop=%v accepted", bad)
				}
			}()
			NewChaosTransport(base, ChaosConfig{Drop: bad, Seed: 1})
		}()
	}
}
