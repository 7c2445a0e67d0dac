package epc

import (
	"fmt"
	"slices"
	"testing"

	"cellbricks/internal/ue"
	"cellbricks/internal/wire"
)

// The wire server reads every request of a connection into one buffer, so a
// payload is valid only for its handler's call (wire.Handler). The AGW's NAS
// handler keeps nothing of it: overwriting each payload with 0xEE once its
// call returns leaves the session table as it was, the sessions still serve
// their protected detaches, and the table reads as in a run that left the
// payloads alone. The run is a SAP attach at first contact, a legacy
// attach, a ticketed SAP re-attach and both detaches.
func TestNASHandlerKeepsNoRequestBytes(t *testing.T) {
	run := func(t *testing.T, clobber bool) [][]string {
		w := buildWorld(t)
		s := &NASServer{G: w.agw}
		var tables [][]string
		transport := func(ranID string) ue.NASTransport {
			return func(env []byte) ([]byte, error) {
				payload := EncodeNASCall(ranID, env)
				_, reply, err := s.handle(wire.TypeNAS, payload)
				before := sessionTable(w.agw)
				if clobber {
					for i := range payload {
						payload[i] = 0xEE
					}
				}
				if after := sessionTable(w.agw); !slices.Equal(before, after) {
					t.Fatalf("the session table changed with the request's bytes:\n%q\n%q", before, after)
				}
				tables = append(tables, before)
				return reply, err
			}
		}
		cb, legacy := transport("ran-ue-1"), transport("ran-ue-2")
		if _, err := w.dev.AttachSAP(cb, "btelco-1"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.legacy.AttachLegacy(legacy); err != nil {
			t.Fatal(err)
		}
		if err := w.dev.Detach(cb); err != nil {
			t.Fatal(err)
		}
		if _, err := w.dev.AttachSAP(cb, "btelco-1"); err != nil {
			t.Fatal(err)
		}
		for _, d := range []struct {
			dev *ue.Device
			tx  ue.NASTransport
		}{{w.dev, cb}, {w.legacy, legacy}} {
			if err := d.dev.Detach(d.tx); err != nil {
				t.Fatal(err)
			}
		}
		if n := w.agw.ActiveSessions(); n != 0 {
			t.Fatalf("%d sessions survived their detach", n)
		}
		return tables
	}
	want := run(t, false)
	if got := run(t, true); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("with each payload overwritten the tables read\n%q\nleft alone\n%q", got, want)
	}
}

// sessionTable renders what the AGW holds per session and per RAN binding,
// sorted. A session's URef is drawn at random, so it shows only whether the
// session has one.
func sessionTable(g *AGW) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var rows []string
	for id, s := range g.sessions {
		rows = append(rows, fmt.Sprintf("session %d: id %d kind %d ran %q imsi %q uref %t idb %q ip %q state %d",
			id, s.ID, s.Kind, s.RANID, s.IMSI, s.URef != "", s.IDB, s.IP, s.state))
	}
	for ran, s := range g.byRAN {
		rows = append(rows, fmt.Sprintf("ran %q: session %d", ran, s.ID))
	}
	slices.Sort(rows)
	return rows
}
