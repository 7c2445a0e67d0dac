package broker

import (
	"bytes"
	"testing"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/obs"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// The wire server reads every request of a connection into one buffer, so a
// payload is valid only for its handler's call (wire.Handler). The broker's
// handler keeps nothing of it: overwriting each payload with 0xEE once its
// call returns leaves the broker's durable state as it was and the session
// settling as in a run that left the payloads alone. The run is first
// contact, a ticketed attach under the bTelco's pass, and three report
// pairs on that session — signed, then MAC'd, on the bTelco's resident
// exchange and the UE's ticket.
func TestHandlerKeepsNoRequestBytes(t *testing.T) {
	run := func(t *testing.T, clobber bool) (billing.Settlement, float64) {
		h := newHarness(t)
		srv := &Server{B: h.brk}
		call := func(typ byte, payload []byte) (byte, []byte) {
			t.Helper()
			rt, reply, err := srv.handle(obs.SpanContext{}, typ, payload)
			if err != nil {
				t.Fatal(err)
			}
			if clobber {
				before := h.brk.Snapshot()
				for i := range payload {
					payload[i] = 0xEE
				}
				if after := h.brk.Snapshot(); !bytes.Equal(before, after) {
					t.Fatalf("type %d: the broker's state changed with the request's bytes:\n%x\n%x", typ, before, after)
				}
			}
			return rt, reply
		}
		var ref string
		for i := 0; i < 2; i++ {
			reqU, pending, err := h.ue.NewAttachRequest(h.telco.IDT)
			if err != nil {
				t.Fatal(err)
			}
			reqT, err := h.telco.ForwardRequest(reqU)
			if err != nil {
				t.Fatal(err)
			}
			_, reply := call(wire.TypeSAPAuthRequest, reqT.Marshal())
			resp, err := sap.UnmarshalAuthResp(reply)
			if err != nil {
				t.Fatal(err)
			}
			grant, respU, err := h.telco.HandleResponse(h.brk.Public(), resp)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := h.ue.HandleResponse(pending, respU); err != nil {
				t.Fatal(err)
			}
			ref, h.ueSealer = grant.URef, pending.Sealer
		}
		mac, ticketed := h.ueSealer.MACKey()
		if !ticketed {
			t.Fatal("the second attach is not ticketed")
		}
		var ueStream billing.Stream
		for seq := uint32(1); seq <= 3; seq++ {
			r := billing.Report{SessionRef: ref, Reporter: billing.ReporterUE, Seq: seq,
				Rel: time.Duration(seq) * 30 * time.Second, DLBytes: 1000 * uint64(seq)}
			ue, err := ueStream.Seal(&r, h.ueKey, h.ueSealer, &mac)
			if err != nil {
				t.Fatal(err)
			}
			r.Reporter, r.DLBytes = billing.ReporterTelco, r.DLBytes+10
			telco, err := h.telco.SealReport(h.brk.Public(), &r)
			if err != nil {
				t.Fatal(err)
			}
			for _, env := range []*billing.SealedReport{ue, telco} {
				if rt, _ := call(wire.TypeReportUpload, env.Marshal()); rt != wire.TypeReportAck {
					t.Fatalf("report %d: reply type %d", seq, rt)
				}
			}
			if seq > 1 && (len(ue.Sig) != 32 || len(telco.Sig) != 32) {
				t.Fatalf("report pair %d is not MAC'd", seq)
			}
		}
		st, err := h.brk.SettleSession(ref)
		if err != nil {
			t.Fatal(err)
		}
		st.SessionRef = "" // drawn at random on each run
		return st, h.brk.TelcoScore(h.telco.IDT)
	}
	want, wantScore := run(t, false)
	if want.VerifiedBytes == 0 || want.Unpaired != 0 {
		t.Fatalf("control run settled %+v", want)
	}
	if got, score := run(t, true); got != want || score != wantScore {
		t.Fatalf("with each payload overwritten: %+v, score %v; left alone: %+v, score %v", got, score, want, wantScore)
	}
}
