package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// renderSHA hashes an experiment's rendered output, the same bytes cbbench
// prints for it.
func renderSHA(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// fig8Pins are the Fig. 8 (15 s) hashes the timing wheel and the reference
// heap both rendered, seed by seed, before the heap left the Sim. Fig. 8
// exercises the whole stack — mobility, handover, MPTCP, iperf — while
// being fully virtual-time deterministic. (Fig. 7 is deliberately not
// hashed here: its attach breakdown charges real wall-clock crypto time
// into the virtual clock, so even two runs differ in the low digits.)
var fig8Pins = map[int64]string{
	1:  "69fa61ce6b365c676f6d4eff2d570a08d017604ad86c0c99a8849f76b6960ec8",
	7:  "1e568c99c42345febe7fd1f1aa1bea10dff01e4ff491e589353be55bef345bde",
	42: "c066a8290cef002b5b4d12239049d8583076939caebe408ada17a69ac3552a2d",
	99: "8c6e0597940cca199839f98ca45f6df78054934c6b6630fd7fb2ae336b75e6b0",
}

// TestSchedulerABExperimentSHA256 is the end-to-end scheduler golden
// check: a full experiment run must hash to what both scheduler kinds
// rendered, for several seeds.
func TestSchedulerABExperimentSHA256(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		if got := renderSHA(RunFig8(seed, 15*time.Second).Render()); got != fig8Pins[seed] {
			t.Fatalf("seed %d: output %s, both schedulers rendered %s", seed, got, fig8Pins[seed])
		}
	}
}

// TestSchedulerSameKindStableSHA256 pins plain run-to-run determinism: the
// same seed reproduces the same bytes, and they are the pinned ones.
func TestSchedulerSameKindStableSHA256(t *testing.T) {
	a := renderSHA(RunFig8(99, 15*time.Second).Render())
	b := renderSHA(RunFig8(99, 15*time.Second).Render())
	if a != b || a != fig8Pins[99] {
		t.Fatalf("same-seed runs hash %s vs %s, pinned %s", a, b, fig8Pins[99])
	}
}
