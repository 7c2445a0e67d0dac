package ran

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func testENB(relay NASRelay) *ENB {
	cell := Cell{ID: "c1", TelcoID: "t1", RRCSetupDelay: 130 * time.Millisecond}
	return NewENB(cell, relay)
}

func TestRRCLifecycle(t *testing.T) {
	e := testENB(func(_ string, env []byte) ([]byte, error) { return env, nil })
	if e.state("ue1") != RRCIdle {
		t.Fatal("fresh UE not idle")
	}
	d, err := e.Connect("ue1")
	if err != nil {
		t.Fatal(err)
	}
	if d != 130*time.Millisecond {
		t.Fatalf("setup delay = %v", d)
	}
	if e.state("ue1") != RRCConnected || e.Connected() != 1 {
		t.Fatal("UE not connected")
	}
	if _, err := e.Connect("ue1"); !errors.Is(err, ErrAlreadyActive) {
		t.Fatalf("double connect err = %v", err)
	}
	e.Release("ue1")
	if e.state("ue1") != RRCIdle {
		t.Fatal("release did not idle the UE")
	}
}

func TestForwardNASRequiresConnection(t *testing.T) {
	e := testENB(func(_ string, env []byte) ([]byte, error) {
		return append([]byte("reply:"), env...), nil
	})
	if _, err := e.ForwardNAS("ue1", []byte("x")); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v", err)
	}
	e.Connect("ue1")
	got, err := e.ForwardNAS("ue1", []byte("attach"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("reply:attach")) {
		t.Fatalf("reply = %q", got)
	}
}

func TestNASOpaqueToENB(t *testing.T) {
	// The eNB must relay unknown (CellBricks SAP) payloads byte-exactly:
	// the property that lets commercial base stations carry SAP.
	var relayed []byte
	e := testENB(func(_ string, env []byte) ([]byte, error) {
		relayed = append([]byte(nil), env...)
		return []byte("ok"), nil
	})
	e.Connect("ue1")
	weird := []byte{0x00, 0xFF, 0x06, 'S', 'A', 'P', 0x00, 0x01}
	if _, err := e.ForwardNAS("ue1", weird); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(relayed, weird) {
		t.Fatal("eNB altered the NAS payload")
	}
}

func TestAdmissionControl(t *testing.T) {
	e := testENB(func(_ string, env []byte) ([]byte, error) { return env, nil })
	e.MaxConnected = 2
	e.Connect("a")
	e.Connect("b")
	if _, err := e.Connect("c"); !errors.Is(err, ErrAdmissionFull) {
		t.Fatalf("err = %v", err)
	}
	e.Release("a")
	if _, err := e.Connect("c"); err != nil {
		t.Fatalf("connect after release: %v", err)
	}
}

func TestExpireIdle(t *testing.T) {
	now := time.Duration(0)
	e := testENB(func(_ string, env []byte) ([]byte, error) { return env, nil })
	e.Clock = func() time.Duration { return now }
	e.Connect("a")
	e.Connect("b")
	now = 5 * time.Second
	e.ForwardNAS("b", []byte("keepalive"))
	now = 12 * time.Second
	if n := e.expireIdle(now, 10*time.Second); n != 1 {
		t.Fatalf("expired %d, want 1 (only the silent UE)", n)
	}
	if e.state("a") != RRCIdle || e.state("b") != RRCConnected {
		t.Fatal("wrong UE expired")
	}
}

func TestRelayUnset(t *testing.T) {
	e := NewENB(Cell{ID: "c"}, nil)
	e.Connect("u")
	if _, err := e.ForwardNAS("u", nil); !errors.Is(err, ErrRelayUnset) {
		t.Fatalf("err = %v", err)
	}
}

func TestRRCStateString(t *testing.T) {
	if RRCIdle.String() != "idle" || RRCConnected.String() != "connected" || RRCConnecting.String() != "connecting" {
		t.Fatal("state strings wrong")
	}
}
