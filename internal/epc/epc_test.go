package epc

import (
	"bytes"
	"testing"
	"time"

	"cellbricks/internal/aka"
	"cellbricks/internal/nas"
	"cellbricks/internal/qos"
)

func TestIPAllocatorUnique(t *testing.T) {
	a := NewIPAllocator("10.45")
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		ip, err := a.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if seen[ip] {
			t.Fatalf("duplicate IP %s", ip)
		}
		seen[ip] = true
	}
	if len(a.inUse) != 1000 {
		t.Fatalf("in use = %d", len(a.inUse))
	}
}

// Slot n of a pool is prefix.(n/250).(n%250+1): the first, the last of the
// first 250, the first of the next 250 and the last slot before exhaustion.
// The string is format's one allocation.
func TestIPAllocatorFormat(t *testing.T) {
	a := NewIPAllocator("10.45")
	for n, want := range map[int]string{1: "10.45.0.2", 249: "10.45.0.250", 250: "10.45.1.1", 62_499: "10.45.249.250"} {
		if got := a.format(n); got != want {
			t.Errorf("format(%d) = %q, want %q", n, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = a.format(62_499) }); allocs != 1 {
		t.Errorf("format allocates %v objects, want 1", allocs)
	}
}

func TestIPAllocatorReuseAfterRelease(t *testing.T) {
	a := NewIPAllocator("10.45")
	ip1, _ := a.Allocate()
	a.Release(ip1)
	// Releasing an already-freed or unknown address is harmless.
	a.Release(ip1)
	a.Release("1.2.3.4")
	if len(a.inUse) != 0 {
		t.Fatalf("in use = %d, want 0", len(a.inUse))
	}
	ip2, _ := a.Allocate()
	if ip1 != ip2 {
		t.Fatalf("freed IP not reused: %s then %s", ip1, ip2)
	}
	if len(a.inUse) != 1 {
		t.Fatalf("in use = %d, want 1", len(a.inUse))
	}
}

func TestIPAllocatorExhaustion(t *testing.T) {
	a := NewIPAllocator("10.99")
	a.next = 250*250 - 1
	if _, err := a.Allocate(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(); err != ErrPoolExhausted {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
}

func TestBearerCountsAndPolices(t *testing.T) {
	up := NewUserPlane()
	b := up.CreateBearer(1, "10.45.0.1", qos.Params{QCI: 9, DLAmbrBps: 8000, ULAmbrBps: 0})
	// 8000 bps = 1000 B/s. Send 10x 500B packets in one instant: burst
	// allowance is 200B (0.2s) -> nothing passes until time advances.
	passed := 0
	for i := 0; i < 10; i++ {
		if b.Process(0, Downlink, 500) {
			passed++
		}
	}
	// Burst allowance is 200B at this rate: no 500B packet fits.
	if passed != 0 {
		t.Fatalf("burst allowed %d oversized packets instantly", passed)
	}
	// After 10 seconds, 10k tokens accumulated but capped at burst 200B.
	if b.Process(10*time.Second, Downlink, 500) {
		t.Fatal("packet above burst cap passed")
	}
	// Small packets pass.
	if !b.Process(11*time.Second, Downlink, 100) {
		t.Fatal("conforming packet dropped")
	}
	u := b.Usage()
	if u.DLBytes == 0 || u.DLDropped == 0 {
		t.Fatalf("usage = %+v", u)
	}
	// Uplink is unlimited (0 rate).
	for i := 0; i < 100; i++ {
		if !b.Process(0, Uplink, 1500) {
			t.Fatal("unlimited uplink dropped")
		}
	}
	if got := b.Usage().ULBytes; got != 150000 {
		t.Fatalf("UL bytes = %d", got)
	}
}

func TestBearerSustainedRate(t *testing.T) {
	up := NewUserPlane()
	b := up.CreateBearer(1, "ip", qos.Params{QCI: 9, DLAmbrBps: 1_000_000}) // 125 kB/s
	var passedBytes uint64
	// Offer 2x the rate for 10 seconds: 250 kB/s in 1250B packets.
	for ms := 0; ms < 10_000; ms += 5 {
		if b.Process(time.Duration(ms)*time.Millisecond, Downlink, 1250) {
			passedBytes += 1250
		}
	}
	rate := float64(passedBytes) * 8 / 10
	if rate < 0.9e6 || rate > 1.15e6 {
		t.Fatalf("sustained rate %.0f bps, want ~1e6", rate)
	}
}

func TestUserPlaneLifecycle(t *testing.T) {
	up := NewUserPlane()
	b := up.CreateBearer(7, "10.45.0.9", qos.DefaultParams())
	if up.Lookup("10.45.0.9") != b {
		t.Fatal("lookup failed")
	}
	b.Process(0, Uplink, 100)
	u, ok := up.DeleteBearer("10.45.0.9")
	if !ok || u.ULBytes != 100 {
		t.Fatalf("delete: ok=%v usage=%+v", ok, u)
	}
	if up.Lookup("10.45.0.9") != nil {
		t.Fatal("bearer survived delete")
	}
	if _, ok := up.DeleteBearer("10.45.0.9"); ok {
		t.Fatal("double delete reported ok")
	}
}

func TestSubscriberDB(t *testing.T) {
	db := NewSubscriberDB()
	k, err := aka.NewK()
	if err != nil {
		t.Fatal(err)
	}
	db.Provision("001010000000001", k, SubscriberProfile{QoS: qos.DefaultParams(), APN: "internet"})

	v1, err := db.AuthInfo("001010000000001")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.AuthInfo("001010000000001")
	if err != nil {
		t.Fatal(err)
	}
	if v1.RAND == v2.RAND {
		t.Fatal("two vectors share RAND")
	}
	// The SIM accepts them in order (SQN increments).
	sim := &aka.SIM{K: k}
	if _, _, err := sim.Answer(v1.RAND, v1.AUTN); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Answer(v2.RAND, v2.AUTN); err != nil {
		t.Fatal(err)
	}

	p, err := db.UpdateLocation("001010000000001")
	if err != nil {
		t.Fatal(err)
	}
	if p.IMSI != "001010000000001" || p.APN != "internet" {
		t.Fatalf("profile = %+v", p)
	}
	if _, err := db.AuthInfo("unknown"); err == nil {
		t.Fatal("unknown IMSI accepted")
	}
	if _, err := db.UpdateLocation("unknown"); err == nil {
		t.Fatal("unknown IMSI accepted")
	}
}

func TestVectorProfileCodecs(t *testing.T) {
	k, _ := aka.NewK()
	v, err := aka.GenerateVector(k, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalVector(MarshalVector(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.RAND != v.RAND || got.KASME != v.KASME || string(got.XRES) != string(v.XRES) || string(got.AUTN) != string(v.AUTN) {
		t.Fatal("vector codec mismatch")
	}
	p := SubscriberProfile{IMSI: "00101", APN: "internet", QoS: qos.Params{QCI: 9, DLAmbrBps: 1, ULAmbrBps: 2}}
	gotP, err := UnmarshalProfile(MarshalProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	if gotP != p {
		t.Fatalf("profile codec mismatch: %+v", gotP)
	}
}

// plain frames a reply in one buffer of exactly its size: the accept that
// carries a sealed authRespU of ~300 bytes as much as a short reject. A
// fixed 96-byte buffer regrew under the first.
func TestPlainOneAllocation(t *testing.T) {
	for _, m := range []nas.Message{
		&nas.AttachAccept{SessionID: 1, IP: "10.45.0.2", AuthRespU: bytes.Repeat([]byte{7}, 300)},
		&nas.AttachReject{Cause: "authorization denied", RetryAfterMS: 5},
	} {
		var env []byte
		if n := testing.AllocsPerRun(100, func() { env = plain(m) }); n != 1 {
			t.Errorf("%T: %v allocations, want 1", m, n)
		}
		if env[0] != 0 || !bytes.Equal(env[1:], nas.Encode(m)) || cap(env) != len(env) {
			t.Errorf("%T: %d-byte envelope in a buffer of %d, or not flag ‖ encoding", m, len(env), cap(env))
		}
	}
}
