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
	if _, err := e.ForwardNAS("ue1", nil); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("fresh UE relayed: %v", err)
	}
	d, err := e.Connect("ue1")
	if err != nil {
		t.Fatal(err)
	}
	if d != 130*time.Millisecond {
		t.Fatalf("setup delay = %v", d)
	}
	if _, err := e.ForwardNAS("ue1", nil); err != nil {
		t.Fatalf("connected UE not relayed: %v", err)
	}
	if _, err := e.Connect("ue1"); !errors.Is(err, ErrAlreadyActive) {
		t.Fatalf("double connect err = %v", err)
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

func TestRelayUnset(t *testing.T) {
	e := NewENB(Cell{ID: "c"}, nil)
	e.Connect("u")
	if _, err := e.ForwardNAS("u", nil); !errors.Is(err, ErrRelayUnset) {
		t.Fatalf("err = %v", err)
	}
}
