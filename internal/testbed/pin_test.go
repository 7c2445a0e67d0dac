package testbed

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/chaos"
	"cellbricks/internal/mobility"
)

// TestParentOutputPins holds literal SHA-256s of what the commit before the
// scenario kit (PR 16) rendered. The other determinism tests compare a run
// with itself (K=1 vs K=4, traced vs not), which a refactor that shifts
// every run equally would pass; these do not move unless an instant, an
// rng draw, an endpoint name or a key seed moved.
func TestParentOutputPins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	check := func(name, rendered, want string) {
		t.Helper()
		if got := renderSHA(rendered); got != want {
			t.Errorf("%s: sha256 %s, parent rendered %s\n%s", name, got, want, rendered)
		}
	}

	for seed, want := range map[int64]string{
		1: "a9d70123ae785da7e1ba86d104d5551e19eea2a06608de59b2380fde1c33f1f2",
		3: "0297f0434978fedbc6ea4e0ee1641e55308d9da1b2fe6c1ea838f057156751af",
		7: "9fb8aca3bd2171fc09e60edb475615de859465b717ecf5ea4b7a1d9defa5467c",
	} {
		for _, k := range []int{1, 4} {
			cfg := byzTestConfig(seed)
			cfg.Shards = k
			res, err := RunByzantine(cfg)
			if err != nil {
				t.Fatalf("byzantine seed=%d K=%d: %v", seed, k, err)
			}
			check(fmt.Sprintf("byzantine seed=%d K=%d", seed, k), res.Render(), want)
		}
	}

	fo, err := RunFailover(FailoverConfig{Seed: 9, Duration: 45 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	check("failover seed=9 no faults", fo.Render(), "10247a2b589cc774dcac165d0191cc6d7f0833ace815c9b27f44c825cd5fe050")
	spec, err := chaos.ParseSpec("flap=1x3s,pause=1x800ms,broker=1x10s,crash=1x6s,corrupt=1x5s@0.05")
	if err != nil {
		t.Fatal(err)
	}
	fo, err = RunFailover(FailoverConfig{Seed: 7, Duration: 75 * time.Second, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	check("failover seed=7 every fault class", fo.Render(), "778a8880ec174b2174a18e7d9280a6f3ca84b4cbd28ad5b4797d380d4dcb73d5")

	check("scale", RenderScale([]ScaleResult{RunScale(ScaleConfig{
		Seed: 17, N: 130, UEsPerCell: 48, CellBps: 20e6, Duration: 3 * time.Second, Shards: 1,
	})}), "5695c872f9aeb9288c23a5e13c19a55f69b7fb7ba6d0fb22e7d1740799ed0d08")

	// The billed drive mints random bTelco keys, so session references and
	// settlements' URefs differ run to run; everything counted does not.
	// Each settlement is rendered, so bytes moved from one session to the
	// next show even where the totals hold.
	for _, d := range []struct {
		seed  int64
		night bool
		cycle time.Duration
		want  string
	}{
		{31, true, 30 * time.Second, "5d6424dedc387e5e5fefb6a3eed4504c6cbbec06b2c97e92c32d5b3538bedd15"},
		{32, true, 30 * time.Second, "c9ceb3056e010ea3a1fedcbcb23764e0775da167ab2b6052607b382aa3337f87"},
		{31, false, 30 * time.Second, "bda1c0265436c35f6ebb2ed28dce555d926eae82e3fc59c29d43b86262798c59"},
		{33, true, 5 * time.Second, "27ff47d77128ff7e91a6f4ccd609b3ac47857e64a9094d8451f05ce4f9e07b32"},
	} {
		sc := Scenario{Route: mobility.Downtown, Night: d.night, Arch: ArchCellBricks, Seed: d.seed, Duration: 4 * time.Minute}
		res, err := RunBilledDrive(sc, d.cycle)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d %d %d %d %d %.9f\n", res.Sessions, res.Cycles, res.Mismatches, res.UEBytes, res.TelcoBytes, res.TotalOwed)
		for _, st := range res.Settlements {
			fmt.Fprintf(&b, "%s %d %.9f\n", st.IDT, st.VerifiedBytes, st.Amount)
		}
		check(fmt.Sprintf("billed drive seed=%d night=%v cycle=%v", d.seed, d.night, d.cycle), b.String(), d.want)
	}

	cell := runTable1Cell(mobility.Downtown, true, Table1Config{Duration: 90 * time.Second, Seed: 5})
	check("table1 downtown night", Table1Result{Cells: []Table1Cell{cell}}.Render(), "d2fdaf742ca30c618e3f29e3c623b60b8ad651ca154f245e3b007d4604048a9d")

	var tr strings.Builder
	for _, c := range RunTransportComparisonAll(5, 3*time.Minute, Runner{}) {
		fmt.Fprintf(&tr, "%s %v %d\n", c.Label, c.WebLoad, c.Pages)
	}
	check("transports", tr.String(), "4e148c071ba9e9f41c0f31df5535a9e8a11e4b84ec890a30c2959dfe6e137c7a")

	// The handover variant NewWorld carries beyond the plain drive.
	outage := Scenario{Route: mobility.Highway, Night: true, Arch: ArchCellBricks, Seed: 13, Duration: 2 * time.Minute}
	outage.BrokerDownAt, outage.BrokerDownFor = 20*time.Second, 20*time.Second
	check("broker outage iperf", fmt.Sprint(RunIperf(outage).Series), "3fab293c64479f8e8cd9b052e8f6b3eec1b1ebd82693e9043ba27be46d60eca9")

	geo, events := newGeoWorld(Scenario{Route: mobility.Highway, Night: true, Arch: ArchCellBricks, Seed: 43, Duration: 4 * time.Minute}, 64)
	var gd strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&gd, "%v %s>%s %v\n", ev.At, ev.From.TelcoID, ev.To.TelcoID, ev.CrossesTelco)
	}
	fmt.Fprint(&gd, geo.Handovers, apps.NewIperf(geo.Sim, geo.Conn, time.Second).Run(geo.Scenario.Duration).Series)
	check("geo drive", gd.String(), "4bb45fd8bce5132ad3aaf88b47fc4033d519b6b7bfc844e65756b0dc88b1ee8d")

	// The rows below were recorded at the commit before accessPath.handover
	// became the package's one handover routine. First the apps that manage
	// their own address, by day (the Table 1 pin is a night cell), under
	// both architectures.
	for _, d := range []struct {
		arch       Arch
		ping, voip string
	}{
		{ArchCellBricks, "547f4ec68e60ff7f94f7c3d92cbfc28770dc143ebe90527c6c153bfcd64f2aac", "8878e6f000165689771e35f3b6d2289539f6cd7718802b067a24ba9213abbc7a"},
		{ArchBaseline, "ffbba3e789d7e4f25fd0188230804c72ee3e33d23768091bc0cdf9d877ca52ae", "f7a87b6846460c1442a98388fe85b7308b58bdcdd4aa3242fec599da6ba3635e"},
	} {
		sc := Scenario{Route: mobility.Suburb, Night: false, Arch: d.arch, Seed: 21, Duration: 4 * time.Minute}
		p50, loss := RunPing(sc)
		check(fmt.Sprintf("ping day %s", d.arch), fmt.Sprint(p50, loss), d.ping)
		check(fmt.Sprintf("voip day %s", d.arch), fmt.Sprintf("%+v", RunVoIP(sc)), d.voip)
	}

	fb := RunWebFallback(Scenario{Route: mobility.Highway, Night: true, Arch: ArchCellBricks, Seed: 11, Duration: 3 * time.Minute})
	check("web fallback highway", fmt.Sprint(fb.LoadTimes), "2e2b9d8a08fde1a98ee894c49d1afb0de0297a2d55094e9dfa69ad4a08c5f5e4")

	// Fig. 9 is the one caller that sets a non-default d.
	check("fig9", runFig9(3, 1, 2*time.Minute, Runner{}).Render(), "8425ee068cad50699e3ed28cda6128ee819716f188397ad1ec647e9e4b1f196e")
}

// runTable1Cell runs all four applications under both architectures for
// one route and time of day.
func runTable1Cell(route mobility.Route, night bool, cfg Table1Config) Table1Cell {
	if cfg.Duration == 0 {
		cfg.Duration = 10 * time.Minute
	}
	cell := Table1Cell{Route: route.Name, Night: night}
	cfg.Runner.ForEach(table1Jobs, func(j int) {
		runTable1Job(j, route, night, cfg, &cell)
	})
	return cell
}
