// Package analysis holds equation (3) of the P-Grid paper's Section 4
// model, the search success probability the simulator and the networked
// community are measured against, and the readers that fold what peers
// report into operator views: the cluster report, the trend report, the
// structural census and the route analysis. The sizing equations (1)–(2),
// the Gnutella sizing example and the Section 6 cost comparison are worked
// in this package's tests, beside the checks that pin them.
package analysis

import "math"

// SuccessProbability returns equation (3): the probability that a search
// over a depth-k grid succeeds when every peer is online with probability
// p and refmax alternative references exist per level,
//
//	(1 - (1-p)^refmax)^k.
func SuccessProbability(onlineProb float64, refmax, k int) float64 {
	perLevel := 1 - math.Pow(1-onlineProb, float64(refmax))
	return math.Pow(perLevel, float64(k))
}
