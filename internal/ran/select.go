package ran

import "sort"

// This file implements the UE-driven, network-assisted cell selection the
// paper sketches for host-driven mobility (§4.2): with every tower
// potentially a different bTelco, the UE is free to pick its next cell by
// more than signal strength — price and the broker's reputation view are
// first-class inputs ("this choice can be exerted in a fine-grained
// manner allowing for a range of policies (e.g., selecting bTelcos based
// on their historical performance)").

// Candidate is one selectable cell with the commercial context the UE
// (or its broker, consulted out of band) knows about it.
type Candidate struct {
	Cell       Cell
	RSSI       float64 // dBm at the UE's position
	PricePerGB float64 // advertised in the bTelco's terms
	Reputation float64 // broker's score in [0,1]
	// Quarantined marks cells whose bTelco the broker has quarantined;
	// they are disqualified outright regardless of weights — the UE-side
	// half of the closed trust loop.
	Quarantined bool
}

// SelectionPolicy weighs the normalized candidate features. Zero weights
// ignore a feature; the default is signal-only (today's behaviour).
type SelectionPolicy struct {
	WSignal     float64
	WPrice      float64 // rewards cheaper cells
	WReputation float64
	// MinRSSI disqualifies cells below the usability floor (dBm).
	MinRSSI float64
	// MinReputation disqualifies cells the broker distrusts.
	MinReputation float64
}

// SignalOnly is classic strongest-cell selection.
func SignalOnly() SelectionPolicy {
	return SelectionPolicy{WSignal: 1, MinRSSI: -120}
}

// ValueAware trades a little signal for price and reputation.
func ValueAware() SelectionPolicy {
	return SelectionPolicy{WSignal: 0.5, WPrice: 0.3, WReputation: 0.2, MinRSSI: -110, MinReputation: 0.5}
}

// Select ranks candidates under the policy and returns them best-first
// (disqualified cells are dropped). Features are min-max normalized over
// the candidate set so weights are comparable.
func Select(cands []Candidate, p SelectionPolicy) []Candidate {
	var ok []Candidate
	for _, c := range cands {
		if c.Quarantined {
			continue
		}
		if c.RSSI < p.MinRSSI {
			continue
		}
		if p.MinReputation > 0 && c.Reputation < p.MinReputation {
			continue
		}
		ok = append(ok, c)
	}
	if len(ok) <= 1 {
		return ok
	}
	minR, maxR := ok[0].RSSI, ok[0].RSSI
	minP, maxP := ok[0].PricePerGB, ok[0].PricePerGB
	for _, c := range ok[1:] {
		minR, maxR = minF(minR, c.RSSI), maxF(maxR, c.RSSI)
		minP, maxP = minF(minP, c.PricePerGB), maxF(maxP, c.PricePerGB)
	}
	norm := func(v, lo, hi float64) float64 {
		if hi <= lo {
			return 1
		}
		return (v - lo) / (hi - lo)
	}
	score := func(c Candidate) float64 {
		s := p.WSignal * norm(c.RSSI, minR, maxR)
		s += p.WPrice * (1 - norm(c.PricePerGB, minP, maxP))
		s += p.WReputation * c.Reputation
		return s
	}
	sort.SliceStable(ok, func(i, j int) bool { return score(ok[i]) > score(ok[j]) })
	return ok
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
