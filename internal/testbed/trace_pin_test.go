package testbed

import (
	"bytes"
	"testing"
	"time"

	"cellbricks/internal/chaos"
	"cellbricks/internal/obs"
)

// TestTracePins holds literal SHA-256s of traced runs' bytes: the failover
// run of TestFailoverSpanTreeAndTimelines (its JSONL trace and rendered
// timelines) and a small K=1 Byzantine soak's JSONL. The other trace tests
// compare a run with itself, which a change that reorders span-ID minting
// would pass; these move with every span ID, timestamp and argument.
func TestTracePins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	check := func(name string, got []byte, want string) {
		t.Helper()
		if sha := renderSHA(string(got)); sha != want {
			t.Errorf("%s: sha256 %s, want %s", name, sha, want)
		}
	}

	spec, err := chaos.ParseSpec("flap=1x3s,broker=1x10s,crash=1x6s")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	if _, err := RunFailover(FailoverConfig{Seed: 7, Duration: 75 * time.Second, Spec: spec, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var jl, tl bytes.Buffer
	if err := obs.WriteJSONLEvents(&jl, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.RenderTimelines(&tl, obs.BuildTimelines(tr.Events())); err != nil {
		t.Fatal(err)
	}
	check("failover trace JSONL", jl.Bytes(), "b75bc910aa669b21fcf0f14f3662d80e892f0beac64221d3c39c995748bde1e7")
	check("failover timelines", tl.Bytes(), "0b0bc3e032de054112e993bf2f9be64aa1dc2d7e595d57ecc79b07eaf9f9368e")

	cfg := byzTestConfig(7)
	cfg.Shards = 1
	cfg.Tracer = newTracer()
	if _, err := RunByzantine(cfg); err != nil {
		t.Fatal(err)
	}
	jl.Reset()
	if err := obs.WriteJSONLEvents(&jl, cfg.Tracer.Events()); err != nil {
		t.Fatal(err)
	}
	check("byzantine K=1 trace JSONL", jl.Bytes(), "f547a27e6b3cc6fef344089f6dce4644e106789334d3501fe1a16c37e986ff8c")
}
