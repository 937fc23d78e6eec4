package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Expectation == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely defined", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Get("fig8"); !ok {
		t.Error("Get(fig8) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) should fail")
	}
	if len(IDs()) != len(all) {
		t.Error("IDs() length mismatch")
	}
}

func TestAllExperimentsRender(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && (e.ID == "burst" || e.ID == "sigloss") {
				t.Skip("short mode")
			}
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("run: %v", err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Error("output missing banner")
			}
			if len(strings.Split(out, "\n")) < 5 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
		})
	}
}

func TestFig3Shape(t *testing.T) {
	rows, err := fig3Series()
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[[2]float64]float64, len(rows))
	for _, r := range rows {
		byKey[[2]float64{r.Sigma, r.Alpha}] = r.QMin
	}
	// q_min decreases in alpha at fixed sigma...
	if byKey[[2]float64{0.2, 0.9}] > byKey[[2]float64{0.2, 0.1}] {
		t.Error("q_min should fall as mean delay rises")
	}
	// ...and decreases in sigma at fixed large alpha.
	if byKey[[2]float64{0.5, 0.8}] > byKey[[2]float64{0.05, 0.8}] {
		t.Error("q_min should fall as jitter rises")
	}
}

func TestFig4Shape(t *testing.T) {
	rows, err := fig4Series()
	if err != nil {
		t.Fatal(err)
	}
	// With generous T_disc/sigma = 16 and small mu, q_min ≈ 1-p.
	for _, r := range rows {
		if r.Mu == 0.2 && r.Ratio == 16 {
			if math.Abs(r.QMin-(1-r.P)) > 0.01 {
				t.Errorf("p=%v: q_min %v, want ~%v", r.P, r.QMin, 1-r.P)
			}
		}
		// T_disc = sigma = 0.1 < mu: collapse.
		if r.Mu == 0.8 && r.Ratio == 1 && r.QMin > 0.01 {
			t.Errorf("q_min %v with T_disc far below mu, want ~0", r.QMin)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rows, err := fig5Series()
	if err != nil {
		t.Fatal(err)
	}
	get := func(p float64, a, b int) float64 {
		for _, r := range rows {
			if r.P == p && r.A == a && r.B == b {
				return r.QMin
			}
		}
		t.Fatalf("missing row p=%v a=%d b=%d", p, a, b)
		return 0
	}
	// q_min rises with a and with b at fixed n.
	if get(0.3, 8, 3) < get(0.3, 1, 3) {
		t.Error("q_min should rise with a")
	}
	if get(0.3, 3, 8) < get(0.3, 3, 1) {
		t.Error("q_min should rise with b at fixed n")
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := fig6Series()
	if err != nil {
		t.Fatal(err)
	}
	// At fixed first-level length, q_min varies little with b.
	var p3 []float64
	for _, r := range rows {
		if r.P == 0.3 {
			p3 = append(p3, r.QMin)
		}
	}
	for _, q := range p3 {
		if math.Abs(q-p3[0]) > 0.03 {
			t.Errorf("fig6 q_min spread too wide: %v", p3)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := fig7Series()
	if err != nil {
		t.Fatal(err)
	}
	get := func(p float64, m, d int) float64 {
		for _, r := range rows {
			if r.P == p && r.M == m && r.D == d {
				return r.QMin
			}
		}
		t.Fatalf("missing row p=%v m=%d d=%d", p, m, d)
		return 0
	}
	// Leveling off in m at p=0.3: the m=2→4 gain dwarfs the m=4→6 gain.
	gain24 := get(0.3, 4, 1) - get(0.3, 2, 1)
	gain46 := get(0.3, 6, 1) - get(0.3, 4, 1)
	if gain46 > gain24+1e-9 {
		t.Errorf("no leveling off: gain24=%v gain46=%v", gain24, gain46)
	}
	// Insensitive to moderate d.
	if math.Abs(get(0.3, 2, 10)-get(0.3, 2, 1)) > 0.05 {
		t.Error("q_min too sensitive to d")
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := fig8aSeries()
	if err != nil {
		t.Fatal(err)
	}
	get := func(scheme string, p float64) float64 {
		for _, r := range rows {
			if r.Scheme == scheme && r.P == p {
				return r.QMin
			}
		}
		t.Fatalf("missing %s p=%v", scheme, p)
		return 0
	}
	// AuthTree pinned at 1; Rohatgi collapsed; TESLA >> EMSS at p=0.5;
	// EMSS ≈ AC.
	if get("authtree", 0.5) != 1 {
		t.Error("authtree q_min must be 1")
	}
	if get("rohatgi", 0.1) > 1e-6 {
		t.Error("rohatgi should collapse at n=1000")
	}
	if get("tesla", 0.5) < 2*get("emss(E21)", 0.5) {
		t.Errorf("tesla %v should dominate emss %v at p=0.5",
			get("tesla", 0.5), get("emss(E21)", 0.5))
	}
	if math.Abs(get("emss(E21)", 0.3)-get("ac(C33)", 0.3)) > 0.15 {
		t.Error("EMSS and AC should be close")
	}
	// EMSS beats TESLA at small p (TESLA pays its timing factor).
	if get("emss(E21)", 0.05) <= get("tesla", 0.05) {
		t.Error("EMSS should edge out TESLA at p=0.05")
	}
}

func TestFig9Shape(t *testing.T) {
	rows, err := fig9Series()
	if err != nil {
		t.Fatal(err)
	}
	// TESLA flat in n.
	var teslaVals []float64
	for _, r := range rows {
		if r.Scheme == "tesla" && r.P == 0.1 {
			teslaVals = append(teslaVals, r.QMin)
		}
	}
	for _, v := range teslaVals {
		if math.Abs(v-teslaVals[0]) > 1e-9 {
			t.Error("TESLA q_min should not depend on n")
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rows, err := fig10Series()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]fig10Row, len(rows))
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	if r := byName["rohatgi"]; r.DelaySlots != 0 || r.HashesPerPkt > 1 {
		t.Errorf("rohatgi row %+v", r)
	}
	if r := byName["authtree"]; r.HashesPerPkt != 7 { // log2(128)
		t.Errorf("authtree hashes/pkt = %v, want 7", r.HashesPerPkt)
	}
	// With paper-era primitive sizes (128-byte RSA vs 16-byte hashes),
	// sign-each costs far more than the chained schemes — the paper's
	// headline motivation. (With modern Ed25519 the gap inverts in
	// bytes, though not in signing CPU; see the benchmark harness.)
	if byName["signeach"].PaperEraBytes <= 3*byName["emss(E21)"].PaperEraBytes {
		t.Errorf("paper-era: signeach %v should dwarf EMSS %v",
			byName["signeach"].PaperEraBytes, byName["emss(E21)"].PaperEraBytes)
	}
	if byName["signeach"].OverheadBytes <= byName["rohatgi"].OverheadBytes {
		t.Error("signeach should cost more than a one-hash chain even with modern sizes")
	}
	if byName["emss(E21)"].DelaySlots == 0 {
		t.Error("signature-last EMSS must have positive delay")
	}
	if byName["tesla"].QMin <= 0 {
		t.Error("tesla q_min missing")
	}
	// The C_{3,3} row reads q_min off the 128-packet block it measures,
	// whose last segment dangles, not off Figure 8's aligned 129-packet
	// chain.
	ac, err := catalog.Build(catalog.Spec{ID: "augchain", N: fig10N, A: 3, B: 3},
		crypto.NewSignerFromString("fig10"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ac.Scheme.Graph()
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Recurrence(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := byName["ac(C33)"].QMin; got != want.QMin {
		t.Errorf("ac(C33) q_min = %v, want %v from its own %d-packet graph", got, want.QMin, fig10N)
	}
}

func TestBurstSeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := burstSeries()
	if err != nil {
		t.Fatal(err)
	}
	// At fixed loss rate, lengthening bursts must hurt E_{2,1}: a burst
	// of >= 2 kills both carriers of a hash.
	var emss1, emss10 float64
	for _, r := range rows {
		if r.Scheme == "emss(E21)" {
			switch r.BurstLen {
			case 1:
				emss1 = r.QMinMC
			case 10:
				emss10 = r.QMinMC
			}
		}
	}
	if emss10 >= emss1 {
		t.Errorf("EMSS should degrade with burstiness: burst1=%v burst10=%v", emss1, emss10)
	}
}

// TestBurstConformance: the two bursty columns of the burst table measure
// the same quantity, q_min given that the signature packet arrived. Every
// row's conditioned Monte-Carlo estimate must sit within 4σ (binomial at the
// exact value, over the trials in which a packet arrives) of the exact one.
func TestBurstConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := burstSeries()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 3 schemes x 4 burst lengths", len(rows))
	}
	for _, r := range rows {
		sigma := math.Sqrt(r.QMinExact * (1 - r.QMinExact) / (burstTrials * (1 - burstRate)))
		if d := math.Abs(r.QMinMC - r.QMinExact); d > 4*sigma {
			t.Errorf("%s burst %v: Monte-Carlo %.4f vs exact %.4f (%.1fσ)", r.Scheme, r.BurstLen, r.QMinMC, r.QMinExact, d/sigma)
		}
	}
}

func TestBoundsSeriesShape(t *testing.T) {
	rows, err := boundsSeries()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Exact < r.Lower-1e-9 || r.Exact > r.Upper+1e-9 {
			t.Errorf("packet %d: exact %v outside [%v, %v]", r.Packet, r.Exact, r.Lower, r.Upper)
		}
	}
	// The bracket widens away from the signature.
	first, last := rows[2], rows[len(rows)-1]
	if last.Upper-last.Lower <= first.Upper-first.Lower {
		t.Errorf("bracket should widen: near %v vs far %v",
			first.Upper-first.Lower, last.Upper-last.Lower)
	}
}

func TestLateJoinSeriesShape(t *testing.T) {
	rows, err := lateJoinSeries()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]float64, len(rows))
	for _, r := range rows {
		byName[r.Scheme] = r.VerifiedOfDelivered
	}
	if byName["rohatgi (sig first)"] != 0 {
		t.Errorf("signature-first joiners verified %v, want 0", byName["rohatgi (sig first)"])
	}
	for _, name := range []string{"emss (sig last)", "authtree (per-packet)", "signeach (per-packet)"} {
		if byName[name] != 1 {
			t.Errorf("%s joiners verified %v, want 1", name, byName[name])
		}
	}
}

func TestSigLossSeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := sigLossSeries()
	if err != nil {
		t.Fatal(err)
	}
	get := func(p float64, copies int) sigLossRow {
		for _, r := range rows {
			if r.P == p && r.Copies == copies {
				return r
			}
		}
		t.Fatalf("missing row p=%v copies=%d", p, copies)
		return sigLossRow{}
	}
	for _, p := range []float64{0.1, 0.3} {
		one, three := get(p, 1), get(p, 3)
		// A single unprotected signature copy costs roughly p of the
		// assumed q_min.
		if one.Measured > one.Assumed*(1-p/2) {
			t.Errorf("p=%v: single copy too good: %v vs assumed %v", p, one.Measured, one.Assumed)
		}
		// Replication must recover most of the gap.
		if three.Measured < one.Measured {
			t.Errorf("p=%v: replication made things worse: %v < %v", p, three.Measured, one.Measured)
		}
		if three.Assumed-three.Measured > (one.Assumed-one.Measured)/2 {
			t.Errorf("p=%v: three copies left gap %v vs one-copy gap %v",
				p, three.Assumed-three.Measured, one.Assumed-one.Measured)
		}
	}
}

func TestConstructSeriesShape(t *testing.T) {
	rows, err := constructSeries()
	if err != nil {
		t.Fatal(err)
	}
	// Every builder must meet every target in this range.
	for _, r := range rows {
		if !r.Met {
			t.Errorf("builder %s missed target %v (qmin %v)", r.Builder, r.Target, r.QMin)
		}
	}
	// Greedy cost grows with the target.
	var greedy []constructRow
	for _, r := range rows {
		if strings.HasPrefix(r.Builder, "greedy") {
			greedy = append(greedy, r)
		}
	}
	for i := 1; i < len(greedy); i++ {
		if greedy[i].EdgesPkt < greedy[i-1].EdgesPkt-1e-9 {
			t.Errorf("greedy cost fell as target rose: %+v", greedy)
		}
	}
}

func TestMarkovGapSeriesShape(t *testing.T) {
	rows, err := markovGapSeries()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Exact > r.Recurrence+1e-9 {
			t.Errorf("exact %v exceeds recurrence %v at n=%d p=%v",
				r.Exact, r.Recurrence, r.N, r.P)
		}
	}
	// Gap must widen with n at p=0.3.
	var gap50, gap1000 float64
	for _, r := range rows {
		if r.Scheme != "emss(E21)" {
			continue
		}
		if r.P == 0.3 && r.N == 50 {
			gap50 = r.Recurrence - r.Exact
		}
		if r.P == 0.3 && r.N == 1000 {
			gap1000 = r.Recurrence - r.Exact
		}
	}
	if gap1000 <= gap50 {
		t.Errorf("gap should widen with n: %v vs %v", gap50, gap1000)
	}
}

// TestWorkersDeterminism pins the engine contract: rendered experiment
// output is byte-identical regardless of the Workers setting.
func TestWorkersDeterminism(t *testing.T) {
	defer func(old int) { Workers = old }(Workers)
	render := func(id string, workers int) []byte {
		t.Helper()
		Workers = workers
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Fatalf("%s with %d workers: %v", id, workers, err)
		}
		return buf.Bytes()
	}
	for _, id := range []string{"fig8", "markovgap"} {
		base := render(id, 1)
		for _, workers := range []int{2, 8} {
			if got := render(id, workers); !bytes.Equal(got, base) {
				t.Errorf("%s: output with %d workers differs from sequential run", id, workers)
			}
		}
	}
}
