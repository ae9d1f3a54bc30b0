package experiments

import (
	"fmt"
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/stats"
	"pgrid/internal/store"
)

// Fig5Curve is the find-all-replicas curve for one strategy: fraction of
// the true replica group found (y) as a function of messages spent (x),
// averaged over trials.
type Fig5Curve struct {
	Strategy core.Strategy
	Curve    stats.Curve
}

// Fig5 reproduces the Fig. 5 experiment: for `trials` random keys of length
// keyLen, repeatedly run each replica-location strategy from fresh random
// online entry points and record the cumulative fraction of the key's true
// covering set identified versus cumulative messages, until either the
// whole group is found or maxMessages is exhausted. recbreadth applies to
// the breadth-first strategy. Curves are averaged over trials on a fixed
// message grid.
func Fig5(d *directory.Directory, keyLen, recbreadth, trials, maxMessages int, seed int64) []Fig5Curve {
	rng := rand.New(rand.NewSource(seed))
	grid := messageGrid(maxMessages)
	var out []Fig5Curve
	for _, s := range []core.Strategy{core.RepeatedDFS, core.RepeatedDFSBuddies, core.BreadthFirst} {
		sums := make([]float64, len(grid))
		for trial := 0; trial < trials; trial++ {
			key := bitpath.Random(rng, keyLen)
			group := onlineCovering(d, key)
			if len(group) == 0 {
				continue
			}
			var c stats.Curve
			var found []addr.Addr
			msgs := 0
			for msgs < maxMessages && len(found) < len(group) {
				var m int
				found, m = core.FindRound(d, s, key, recbreadth, found, rng)
				if m == 0 && len(found) == 0 {
					break // nothing reachable
				}
				msgs += m
				c.Add(float64(msgs), float64(len(found))/float64(len(group)))
			}
			for i, x := range grid {
				sums[i] += c.At(x)
			}
		}
		var avg stats.Curve
		for i, x := range grid {
			avg.Add(x, sums[i]/float64(trials))
		}
		out = append(out, Fig5Curve{Strategy: s, Curve: avg})
	}
	return out
}

// onlineCovering returns the currently reachable covering set of key: the
// denominator of the Fig. 5 fraction (offline replicas cannot be found by
// any strategy, and the paper samples 30 % online).
func onlineCovering(d *directory.Directory, key bitpath.Path) []addr.Addr {
	var out []addr.Addr
	for _, a := range d.Covering(key) {
		if d.Online(a) {
			out = append(out, a)
		}
	}
	return out
}

func messageGrid(maxMessages int) []float64 {
	step := maxMessages / 100
	if step < 5 {
		step = 5
	}
	var grid []float64
	for x := step; x <= maxMessages; x += step {
		grid = append(grid, float64(x))
	}
	return grid
}

// Table6Row is one configuration of the Section 5.2 update/query tradeoff.
type Table6Row struct {
	Repetitive    bool    // repetitive (majority) search vs single search
	RecBreadth    int     // BFS breadth used by the update
	Repetition    int     // number of BFS passes per update
	SuccessRate   float64 // fraction of post-update reads returning the new version
	QueryCost     float64 // mean messages per read
	InsertionCost float64 // mean messages per update
}

// Table6Params configures the tradeoff experiment. Paper values: 100
// updates, 10 queries per update, online probability 30 %.
type Table6Params struct {
	Updates        int
	QueriesPerKey  int
	OnlineProb     float64
	KeyLen         int
	MajorityMargin int
	MajorityBudget int
	Seed           int64
}

// PaperTable6Params returns the Section 5.2 configuration (key length 9 on
// the depth-10 grid).
func PaperTable6Params() Table6Params {
	return Table6Params{
		Updates:        100,
		QueriesPerKey:  10,
		OnlineProb:     0.3,
		KeyLen:         9,
		MajorityMargin: 3,
		MajorityBudget: 64,
		Seed:           1,
	}
}

// Table6 reproduces the final Section 5.2 table on a built grid d: for each
// (recbreadth, repetition) ∈ {2,3}×{1,2,3} and for both read protocols, it
// performs p.Updates updates of random keys followed by p.QueriesPerKey
// reads each, reporting success rate, mean query cost and mean insertion
// cost.
//
// Reads succeed when they return the updated version. The repetitive
// protocol is core.MajorityRead; the non-repetitive one is core.ReadOnce.
func Table6(d *directory.Directory, p Table6Params) []Table6Row {
	var rows []Table6Row
	for _, repetitive := range []bool{true, false} {
		for _, recbreadth := range []int{2, 3} {
			for _, repetition := range []int{1, 2, 3} {
				rows = append(rows, table6Cell(d, p, repetitive, recbreadth, repetition))
			}
		}
	}
	return rows
}

func table6Cell(d *directory.Directory, p Table6Params, repetitive bool, recbreadth, repetition int) Table6Row {
	rng := rand.New(rand.NewSource(p.Seed + int64(recbreadth)*1000 + int64(repetition)*100 + int64(boolToInt(repetitive))))
	d.SampleOnline(rng, p.OnlineProb)
	defer d.SetAllOnline(true)

	row := Table6Row{Repetitive: repetitive, RecBreadth: recbreadth, Repetition: repetition}
	var insertMsgs, queryMsgs, successes, reads int
	for u := 0; u < p.Updates; u++ {
		key := bitpath.Random(rng, p.KeyLen)
		name := fmt.Sprintf("item-%d", u)
		// Baseline version present everywhere (the pre-update state).
		core.PopulateIndex(d, store.Entry{Key: key, Name: name, Holder: 1, Version: 1})
		// The update writes version 2 via breadth-first propagation.
		upd := core.Update(d, store.Entry{Key: key, Name: name, Holder: 2, Version: 2}, recbreadth, repetition, rng)
		insertMsgs += upd.Messages

		for q := 0; q < p.QueriesPerKey; q++ {
			reads++
			var res core.ReadResult
			if repetitive {
				res = core.MajorityRead(d, key, name, core.MajorityOptions{
					Margin: p.MajorityMargin, MaxQueries: p.MajorityBudget,
				}, rng)
			} else {
				start := d.RandomOnlinePeer(rng)
				if start == nil {
					continue
				}
				res = core.ReadOnce(d, start, key, name, rng)
			}
			queryMsgs += res.Messages
			if res.Found && res.Entry.Version == 2 {
				successes++
			}
		}
	}
	row.SuccessRate = float64(successes) / float64(reads)
	row.QueryCost = float64(queryMsgs) / float64(reads)
	row.InsertionCost = float64(insertMsgs) / float64(p.Updates)
	return row
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
