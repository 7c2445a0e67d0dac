package sap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
)

// Known answers, recorded before the messages declared their fields once
// (DESIGN.md §2.4): the SHA-256 of one fixed instance of every SAP message,
// its signed spans and the certificate it carries. A layout change on both
// sides at once would still verify every signature and MAC; it does not
// pass here.
func TestKnownAnswers(t *testing.T) {
	ca, err := pki.NewCAFromSeed("ca", bytes.Repeat([]byte{1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	telcoKey, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{2}, 32))
	if err != nil {
		t.Fatal(err)
	}
	cert := ca.Issue("t1", "btelco", telcoKey.Public(), time.Unix(1_700_000_000, 0), time.Unix(1_800_000_000, 0))
	reqU := AuthReqU{IDB: "b1", SealedVec: []byte("a sealed vector"), Sig: bytes.Repeat([]byte{3}, 64)}
	terms := ServiceTerms{
		Cap:             qos.Capability{QCIs: []qos.QCI{9, 8, 1}, MaxDLAmbrBps: 100e6, MaxULAmbrBps: 50e6, GBRSupported: true},
		LawfulIntercept: true,
		PricePerGB:      1.5,
	}
	reqT := &AuthReqT{ReqU: reqU, IDT: "t1", Cert: cert, Terms: terms, Sig: bytes.Repeat([]byte{4}, 64)}
	bare := &AuthReqT{ReqU: AuthReqU{IDB: "b1"}, IDT: "t1", Sig: bytes.Repeat([]byte{5}, telcoMACSize)}
	params := qos.Params{QCI: 9, DLAmbrBps: 20e6, ULAmbrBps: 10e6}
	var ss [32]byte
	var ticket pki.Ticket
	for i := range ss {
		ss[i], ticket.Locator[i], ticket.Key[i] = byte(i), byte(i+64), byte(i+128)
	}
	nonce := [NonceSize]byte{6, 7, 8}
	urefs := []string{"0123456789abcdef01234567", "fedcba9876543210fedcba98"}
	receipt := Receipt{IDB: "b1", IDT: "t1", URefs: urefs, Sig: bytes.Repeat([]byte{9}, 64)}
	receiptReq := &ReceiptReq{IDB: "b1", IDT: "t1", Cert: cert, URefs: urefs, Sig: bytes.Repeat([]byte{10}, telcoMACSize)}
	for _, k := range []struct {
		name string
		got  []byte
		want string
	}{
		{"authVec", (&AuthVec{IDU: "u1", IDB: "b1", IDT: "t1", Nonce: nonce}).marshal(), "f8103ba618b9aa090d744030cfef6baa2136dbdd341465eca485f06849441fff"},
		{"authReqU", reqU.Marshal(), "00fddd9dc4bf5c45b3c7fff9db69c0a2b81e6e48aeef43c87acb0a7222689736"},
		{"authReqU, ticketed", (&AuthReqU{IDB: "b1", SealedVec: []byte("v")}).Marshal(), "d57fa61ab578c64e7a5b1a3091c3a898ad833bf42a273cf980aa76ec019eef1d"},
		{"authReqT signed span", reqT.signedBytes(), "8680b7d607d991e798d76cc7317f9020e78cc3e2f0634ebac7f7364182b85075"},
		{"authReqT", reqT.Marshal(), "8e778b0276f1f07322f951a531588f2094d47591c27f765c09e88f5be635e7a2"},
		{"authReqT, no certificate, no QCIs", bare.Marshal(), "2a170ed2f5b68e0e13be5ea0334282446bd99d43c616963aab9e475f87c902d4"},
		{"innerRespT", (&innerRespT{URef: urefs[0], IDT: "t1", SS: ss, Params: params, LI: true, IDB: []byte("b1"), Pass: ss[:]}).marshal(), "20062cb88774ceced4b551a2775a9b43bc1fc8d613a0a7e12d9ca38ff563705a"},
		{"innerRespT, MAC'd", (&innerRespT{URef: urefs[0], IDT: "t1", SS: ss, Params: params}).marshal(), "f7785ab7a292414cbd3abaccba9e2cf5a1c470935399ac88630d4806f65986a9"},
		{"innerRespU", (&innerRespU{IDU: "u1", IDT: "t1", URef: urefs[0], SS: ss, Nonce: nonce, Ticket: ticket}).marshal(), "b359ffbc13d999d7609f082115ecd420db1a35d1ec28828f4df27e97cdee2021"},
		{"authRespU", (&AuthRespU{Sealed: []byte("sealed for the UE")}).Marshal(), "644b57551c50ac4b10bd53934926f12f8f91dc4bea2079053c89077ed16de048"},
		{"authResp, granted", (&AuthResp{Granted: true, TelcoScore: 0.75, T: AuthRespT{Sealed: []byte("for T"), Sig: bytes.Repeat([]byte{11}, 64)}, U: AuthRespU{Sealed: []byte("for U")}}).Marshal(), "2e13c295875c55ffdce038f2dfd32c03788a8c2ae19922a52690da370c996fa7"},
		{"authResp, denied", (&AuthResp{Cause: "unknown user", TelcoScore: 1}).Marshal(), "e653c5ddc706807e26f1b91a827ceebf2ecbd231b34d83a7f6bcab1cfce8d160"},
		{"receipt signed bytes", receipt.signedBytes(), "410aa2436354fbe1b8e164e23dfd3929064442c12ab5f27f8eae89ed096da8a7"},
		{"receiptReq signed bytes", receiptReq.signedBytes(), "27421cdcecd256c1a4aa47b73f6e6653726a74ced68e1a1d633fee83294ff952"},
		{"receiptReq", receiptReq.Marshal(), "27568eaf452d63cbc3902ff01dc81eadb7ece7b97d43b4be8909b6efb88ed530"},
		{"receiptReq, no certificate", (&ReceiptReq{IDB: "b1", IDT: "t1", URefs: urefs[:1]}).Marshal(), "8238c7d80434414546b13e14c2c1c59333f86edc784e05608231f287157a08ab"},
		{"receiptResp, granted", (&ReceiptResp{Granted: true, Receipt: receipt}).Marshal(), "143cad99306fa9648288d20fe907474931f246ee6b23117d76237b423a4e2eb3"},
		{"receiptResp, refused", (&ReceiptResp{Cause: "no such grant", Disowned: urefs[1]}).Marshal(), "0c8a075745ebdd79061bc2a1600c6d6971a96f21e8b4d611450b70748eb91f05"},
	} {
		sum := sha256.Sum256(k.got)
		if got := hex.EncodeToString(sum[:]); got != k.want {
			t.Errorf("%s: sha256 %s, want %s", k.name, got, k.want)
		}
	}
}
