// Package ran models the radio access network layer CellBricks leaves
// unmodified: cells (towers) with positions and transmit power, a
// log-distance path-loss signal model, the eNodeB's RRC front-end, and a
// mobile terminal that generates handover decisions with hysteresis as it
// moves — each handover being, in CellBricks, a full detach + SAP
// re-attach, possibly to a different bTelco.
package ran

import (
	"math"
	"time"
)

// Cell is one tower sector.
type Cell struct {
	ID      string
	TelcoID string  // owning bTelco
	PosM    float64 // position along the (1-D) route
	TxDBm   float64 // transmit power
	// RRCSetupDelay is the radio-layer connection setup cost, excluded
	// from Fig. 7 (hardware-dependent) but part of total outage time in
	// the mobility emulation.
	RRCSetupDelay time.Duration
}

// pathLossExponent for an urban macro environment.
const pathLossExponent = 3.5

// RSSI returns received power (dBm) at a position.
func (c Cell) RSSI(posM float64) float64 {
	d := math.Abs(posM - c.PosM)
	if d < 1 {
		d = 1
	}
	return c.TxDBm - 10*pathLossExponent*math.Log10(d)
}

// RAN is a deployment of cells along a route.
type RAN struct {
	Cells []Cell
}

// LinearDeployment places n cells spacing metres apart, assigning each to
// a bTelco via owner(i) — the paper's extreme scenario gives every tower
// its own single-tower bTelco.
func LinearDeployment(n int, spacingM float64, owner func(i int) string) *RAN {
	r := &RAN{}
	for i := 0; i < n; i++ {
		r.Cells = append(r.Cells, Cell{
			ID:            cellID(i),
			TelcoID:       owner(i),
			PosM:          float64(i) * spacingM,
			TxDBm:         43, // typical macro cell
			RRCSetupDelay: 130 * time.Millisecond,
		})
	}
	return r
}

func cellID(i int) string {
	return "cell-" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i%10))
}

// StrongestAt returns the best cell at a position (nil for an empty RAN).
func (r *RAN) StrongestAt(posM float64) *Cell {
	var best *Cell
	bestRSSI := math.Inf(-1)
	for i := range r.Cells {
		if rssi := r.Cells[i].RSSI(posM); rssi > bestRSSI {
			bestRSSI = rssi
			best = &r.Cells[i]
		}
	}
	return best
}

// HandoverHysteresisDB prevents ping-ponging at cell edges.
const HandoverHysteresisDB = 3.0

// Mobile is a terminal moving along the route at a constant speed.
type Mobile struct {
	RAN      *RAN
	SpeedMps float64

	posM    float64
	serving *Cell
}

// NewMobile starts a terminal at position 0, attached to the strongest
// cell.
func NewMobile(r *RAN, speed float64) *Mobile {
	m := &Mobile{RAN: r, SpeedMps: speed}
	m.serving = r.StrongestAt(0)
	return m
}

// Serving returns the current cell.
func (m *Mobile) Serving() *Cell { return m.serving }

// HandoverEvent describes one UE-driven cell switch.
type HandoverEvent struct {
	At           time.Duration
	From, To     *Cell
	CrossesTelco bool
}

// Advance moves the terminal by dt and reports a handover event if the
// hysteresis-filtered strongest cell changed. now is the absolute virtual
// time used to stamp events.
func (m *Mobile) Advance(now, dt time.Duration) *HandoverEvent {
	m.posM += m.SpeedMps * dt.Seconds()
	best := m.RAN.StrongestAt(m.posM)
	if best == nil || m.serving == nil || best.ID == m.serving.ID {
		return nil
	}
	if best.RSSI(m.posM) < m.serving.RSSI(m.posM)+HandoverHysteresisDB {
		return nil
	}
	ev := &HandoverEvent{
		At:           now,
		From:         m.serving,
		To:           best,
		CrossesTelco: best.TelcoID != m.serving.TelcoID,
	}
	m.serving = best
	return ev
}
