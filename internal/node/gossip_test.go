package node

import (
	"context"
	"testing"
	"time"

	"pgrid/internal/addr"
)

func TestGossiperTicksConvergeCluster(t *testing.T) {
	cfg := smallCfg()
	c := NewCluster(32, cfg, 1)
	gossipers := make([]*Gossiper, len(c.Nodes))
	for i, n := range c.Nodes {
		others := make([]addr.Addr, 0, len(c.Nodes)-1)
		for j := range c.Nodes {
			if j != i {
				others = append(others, addr.Addr(j))
			}
		}
		gossipers[i] = NewGossiper(n, others, time.Millisecond, int64(i))
	}
	for round := 0; round < 2000 && c.AvgPathLen() < 3.5; round++ {
		for _, g := range gossipers {
			g.Tick()
		}
	}
	if c.AvgPathLen() < 3.5 {
		t.Fatalf("gossip did not converge: avg %.2f", c.AvgPathLen())
	}
	if c.Transport.Messages() == 0 {
		t.Error("the community converged without a message")
	}
}

func TestGossiperOfflineNodeSkipsTurns(t *testing.T) {
	c := NewCluster(2, smallCfg(), 2)
	g := NewGossiper(c.Nodes[0], []addr.Addr{1}, time.Millisecond, 3)
	c.Nodes[0].SetOnline(false)
	for i := 0; i < 10; i++ {
		g.Tick()
	}
	if m := c.Transport.Messages(); m != 0 {
		t.Errorf("offline node sent %d messages", m)
	}
	if c.Nodes[0].Path().Len() != 0 {
		t.Error("offline node mutated state")
	}
}

func TestGossiperRunStopsWithContext(t *testing.T) {
	c := NewCluster(2, smallCfg(), 4)
	g := NewGossiper(c.Nodes[0], []addr.Addr{1}, time.Millisecond, 5)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		g.Run(ctx)
		close(done)
	}()
	// Let it gossip briefly, then stop.
	deadline := time.After(2 * time.Second)
	for {
		if c.Transport.Messages() > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("gossiper never ticked")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on context cancellation")
	}
}

func TestGossiperConstructorValidation(t *testing.T) {
	c := NewCluster(2, smallCfg(), 6)
	for _, f := range []func(){
		func() { NewGossiper(c.Nodes[0], nil, time.Second, 1) },
		func() { NewGossiper(c.Nodes[0], []addr.Addr{1}, 0, 1) },
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
