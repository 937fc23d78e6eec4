package catalog

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/schemetest"
)

// wireCases is every ID at a few block sizes, including a ragged
// authentication tree and, for each chained topology, parameter sets the
// exact evaluator carries (among them the two the evaluators it replaced
// refused: an EMSS window of 18, an augmented chain that ends mid-segment)
// and one whose frontier is a bit past its cap.
var wireCases = []Spec{
	{ID: "rohatgi", N: 6},
	{ID: "rohatgi", N: 12},
	{ID: "emss", N: 12, M: 2, D: 1},
	{ID: "emss", N: 40, M: 2, D: 9},
	{ID: "emss", N: 40, M: 3, D: 7},
	{ID: "augchain", N: 13, A: 3, B: 3},
	{ID: "augchain", N: 27, A: 3, B: 3},
	{ID: "augchain", N: 265, A: 11, B: 10},
	{ID: "authtree", N: 16},
	{ID: "authtree", N: 13},
	{ID: "signeach", N: 8},
	{ID: "tesla", N: 8, Lag: 2},
	{ID: "tesla", N: 5, Lag: 3},
}

func build(t *testing.T, spec Spec) Entry {
	t.Helper()
	if spec.Interval == 0 {
		spec.Interval = 10 * time.Millisecond
	}
	spec.Seed = []byte("catalog")
	e, err := Build(spec, crypto.NewSignerFromString("catalog"))
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	return e
}

// TestCatalogMatchesWire checks every row against what the scheme's own
// Authenticate emits, so the wire conventions are observed, not asserted:
// Data is where the caller's payloads ride, Signature is where a signature
// rides when only some packets carry one.
func TestCatalogMatchesWire(t *testing.T) {
	covered := make(map[string]bool)
	for _, spec := range wireCases {
		covered[spec.ID] = true
		e := build(t, spec)
		name := e.Scheme.Name()
		payloads := schemetest.Payloads(e.Scheme.BlockSize())
		isPayload := make(map[string]bool, len(payloads))
		for _, p := range payloads {
			isPayload[string(p)] = true
		}
		pkts, err := e.Scheme.Authenticate(1, payloads)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pkts) != e.Scheme.WireCount() {
			t.Errorf("%s: %d wire packets, WireCount says %d", name, len(pkts), e.Scheme.WireCount())
		}
		var data, signed []uint32
		for _, p := range pkts {
			if isPayload[string(p.Payload)] {
				data = append(data, p.Index)
			}
			if len(p.Signature) > 0 {
				signed = append(signed, p.Index)
			}
		}
		if !reflect.DeepEqual(e.Data, data) {
			t.Errorf("%s: Data = %v, payloads ride at %v", name, e.Data, data)
		}
		if len(signed) == len(pkts) {
			// Every packet carries its own proof: no wire is P_sign.
			signed = nil
		}
		if !reflect.DeepEqual(e.Signature, signed) {
			t.Errorf("%s: Signature = %v, signatures ride at %v", name, e.Signature, signed)
		}
		if q, _, err := e.QMin(loss.Spec{P: 0}, time.Millisecond, 0); err != nil || q != 1 {
			t.Errorf("%s: QMin(0) = %v, %v; want 1", name, q, err)
		}
	}
	for _, id := range IDs() {
		if !covered[id] {
			t.Errorf("scheme %q has no wire case", id)
		}
	}
}

// TestQMinExactWhenValid pins the graph rule on the chained topologies: the
// exact evaluator whenever it can sweep the scheme's graph, the recurrence —
// labelled as such — otherwise. Both branches must be exercised per scheme,
// and the two evaluators must differ at the probe point for the check to
// bite.
func TestQMinExactWhenValid(t *testing.T) {
	const p = 0.2
	branches := make(map[string]bool)
	for _, spec := range wireCases {
		if spec.ID != "emss" && spec.ID != "augchain" {
			continue
		}
		e := build(t, spec)
		g, err := e.Scheme.Graph()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := g.Recurrence(p)
		if err != nil {
			t.Fatal(err)
		}
		recurQ := rec.QMin
		want, branch := recurQ, recurrence
		if res, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: p}.Channel(), Root: depgraph.Conditioned}); err == nil {
			want, branch = res.QMin, exact
			if res.QMin == recurQ {
				t.Fatalf("%+v: exact and recurrence agree at p=%v; the probe cannot tell them apart", spec, p)
			}
		} else if !errors.Is(err, depgraph.ErrFrontier) {
			t.Fatal(err)
		}
		branches[spec.ID+"/"+branch] = true
		got, by, err := e.QMin(loss.Spec{P: p}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got <= 0 || by != branch {
			t.Errorf("%+v: QMin = %v (%s), want the %s evaluator's %v", spec, got, by, branch, want)
		}
	}
	for _, b := range []string{"emss/exact", "emss/recurrence", "augchain/exact", "augchain/recurrence"} {
		if !branches[b] {
			t.Errorf("no wire case exercises %s", b)
		}
	}
}

// TestQMinNamesClosedForms: TESLA's Equation 7 is the one closed form. The
// path and the stars answer exactly at any block size, and agree with their
// closed forms, (1-p)^(n-2) and 1.
func TestQMinNamesClosedForms(t *testing.T) {
	const p = 0.2
	large := []Spec{{ID: "rohatgi", N: 5000}, {ID: "authtree", N: 5000}, {ID: "signeach", N: 5000}}
	for _, spec := range slices.Concat(wireCases, large) {
		if spec.ID == "emss" || spec.ID == "augchain" {
			continue
		}
		want, wantBy := 1.0, exact
		switch spec.ID {
		case "rohatgi":
			want = math.Pow(1-p, float64(spec.N-2))
		case "tesla":
			want, wantBy = 1-p, closedForm // a constant delay inside the lag: ξ = 1
		}
		q, by, err := build(t, spec).QMin(loss.Spec{P: p}, time.Millisecond, 0)
		if err != nil || by != wantBy || math.Abs(q-want) > 1e-12 {
			t.Errorf("%+v: QMin = %v by %q, %v; want %v by %q", spec, q, by, err, want, wantBy)
		}
	}
}

// TestQMinTakesTheRunsChannel: under bursty loss a graph row answers the
// exact forced value of that channel, labelled with the rule and the
// channel, and a row whose evaluator takes i.i.d. loss only refuses with
// ErrIIDOnly instead of answering for another channel.
func TestQMinTakesTheRunsChannel(t *testing.T) {
	bursty := loss.Spec{P: 0.1, Burst: 5}
	q, by, err := build(t, Spec{ID: "emss", N: 60, M: 2, D: 1}).QMin(bursty, time.Millisecond, 0)
	if err != nil || by != "exact, forced, gilbert(pi_bad=0.1, burst=5)" || math.Abs(q-0.3614) > 5e-5 {
		t.Errorf("E_{2,1} at burst 5: QMin = %v by %q, %v; want 0.3614 by the forced exact sweep", q, by, err)
	}
	for _, spec := range []Spec{{ID: "tesla", N: 8, Lag: 2}, {ID: "emss", N: 60, M: 3, D: 7}} {
		if q, by, err := build(t, spec).QMin(bursty, time.Millisecond, 0); !errors.Is(err, ErrIIDOnly) {
			t.Errorf("%+v at burst 5: QMin = %v by %q, %v; want ErrIIDOnly", spec, q, by, err)
		}
	}
}

// TestQMinEdgeInputs: every row rejects a loss rate that is NaN or outside
// [0,1], and TESLA a negative delay (Entry.QMin takes durations, so a NaN
// delay cannot reach it; tesla.QMin's own tests reject NaN). At p = 1 every
// row answers 0 by the evaluator it answers with at p = 0.2: the exact
// evaluator forces the signature packet, so only the never-received data
// packets' q_i are undefined, 0 by convention; the recurrence and TESLA's
// Equation 7 answer 0 outright.
func TestQMinEdgeInputs(t *testing.T) {
	for _, spec := range wireCases {
		e := build(t, spec)
		for _, p := range []float64{math.NaN(), -0.1, 1.5} {
			if q, by, err := e.QMin(loss.Spec{P: p}, time.Millisecond, 0); err == nil {
				t.Errorf("%+v: QMin(p=%v) = %v by %q, want an error", spec, p, q, by)
			}
		}
		_, byAtP, err := e.QMin(loss.Spec{P: 0.2}, time.Millisecond, 0)
		if err != nil {
			t.Fatal(err)
		}
		if q, by, err := e.QMin(loss.Spec{P: 1}, time.Millisecond, 0); err != nil || q != 0 || by != byAtP {
			t.Errorf("%+v: QMin(p=1) = %v by %q, %v; want 0 by %q", spec, q, by, err, byAtP)
		}
	}
	e := build(t, Spec{ID: "tesla", N: 8, Lag: 2})
	for _, d := range [][2]time.Duration{{-time.Millisecond, 0}, {time.Millisecond, -time.Millisecond}} {
		if q, _, err := e.QMin(loss.Spec{P: 0.1}, d[0], d[1]); err == nil {
			t.Errorf("TESLA QMin(mu=%v, sigma=%v) = %v, want an error", d[0], d[1], q)
		}
	}
}

// TestTESLAQMinReadsDelay: TESLA is the one row whose q_min depends on the
// caller's delay; a constant delay inside the disclosure lag is ξ = 1.
func TestTESLAQMinReadsDelay(t *testing.T) {
	e := build(t, Spec{ID: "tesla", N: 8, Lag: 2, Interval: 100 * time.Millisecond})
	if q, _, err := e.QMin(loss.Spec{P: 0.25}, time.Millisecond, 0); err != nil || q != 0.75 {
		t.Errorf("ξ = 1 case: QMin = %v, %v; want 1-p = 0.75", q, err)
	}
	late, _, err := e.QMin(loss.Spec{P: 0.25}, 200*time.Millisecond, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if late < 0.37 || late > 0.38 {
		t.Errorf("delay mean at the disclosure deadline: QMin = %v, want (1-p)/2", late)
	}
}

func TestIDsOrder(t *testing.T) {
	want := []string{"rohatgi", "emss", "augchain", "authtree", "signeach", "tesla"}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
}

func TestBuildErrors(t *testing.T) {
	signer := crypto.NewSignerFromString("catalog")
	if _, err := Build(Spec{ID: "nope", N: 8}, signer); err == nil || err.Error() != `unknown scheme "nope"` {
		t.Errorf("unknown ID: %v", err)
	}
	// Parameter errors are the constructor's own.
	if _, err := Build(Spec{ID: "emss", N: 2, M: 5, D: 1}, signer); err == nil || !strings.HasPrefix(err.Error(), "emss:") {
		t.Errorf("invalid EMSS parameters: %v", err)
	}
	if _, err := Build(Spec{ID: "tesla", N: 8, Lag: 2, Seed: []byte("s")}, signer); err == nil {
		t.Error("TESLA without an interval accepted")
	}
}

func TestScheduleAndDiagnoseOptions(t *testing.T) {
	e := build(t, Spec{ID: "emss", N: 12, M: 2, D: 1})
	if !e.Start.Equal(time.Unix(0, 0)) || e.SendInterval != 10*time.Millisecond {
		t.Errorf("default schedule = %v every %v, want the epoch every 10ms", e.Start, e.SendInterval)
	}
	opts, err := e.DiagnoseOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.RootIndex != 12 || opts.Graph == nil || opts.VertexOf == nil || !reflect.DeepEqual(opts.DataIndices, e.Data) {
		t.Errorf("emss join = %+v", opts)
	}

	at := time.Unix(9000, 0)
	ts := build(t, Spec{ID: "tesla", N: 8, Lag: 2, Start: at})
	if !ts.Start.Equal(at) {
		t.Errorf("Start = %v, want %v", ts.Start, at)
	}
	opts, err = ts.DiagnoseOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.RootIndex != 1 || opts.Graph != nil || opts.VertexOf != nil {
		t.Errorf("tesla join = %+v, want scope and root only", opts)
	}

	opts, err = build(t, Spec{ID: "authtree", N: 8}).DiagnoseOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.RootIndex != 0 || opts.Graph == nil {
		t.Errorf("authtree join = %+v, want a graph and no root wire", opts)
	}
}

// TestParseNameRoundTrip: over a small parameter grid of every row,
// parsing the name a built scheme prints gives back a spec that builds the
// same graph, data indices and signature wires — what mcreport rebuilds
// from a trace's run_meta record.
func TestParseNameRoundTrip(t *testing.T) {
	for _, id := range IDs() {
		for _, n := range []int{16, 31, 40} {
			for _, k := range []int{1, 2, 3} {
				spec := Spec{ID: id, N: n, M: k + 1, D: k, A: k + 1, B: k + 1, Lag: k}
				e := build(t, spec)
				parsed, err := ParseName(e.Scheme.Name())
				if err != nil {
					t.Fatalf("%+v: %v", spec, err)
				}
				back := build(t, parsed)
				if back.Scheme.Name() != e.Scheme.Name() ||
					!slices.Equal(back.Data, e.Data) || !slices.Equal(back.Signature, e.Signature) {
					t.Errorf("%s: parsed back as %s, data %v / %v, signature %v / %v", e.Scheme.Name(),
						back.Scheme.Name(), back.Data, e.Data, back.Signature, e.Signature)
				}
				g, err := e.Scheme.Graph()
				if err != nil {
					t.Fatal(err)
				}
				gBack, err := back.Scheme.Graph()
				if err != nil {
					t.Fatal(err)
				}
				if g.N() != gBack.N() || g.Root() != gBack.Root() || !reflect.DeepEqual(g.Edges(), gBack.Edges()) {
					t.Errorf("%s: parsed spec builds a different graph", e.Scheme.Name())
				}
			}
		}
	}
	for _, name := range []string{"", "emss", "emss(E_{2,1}, n=20) ", "emss(E_{2,1},n=20)", "rohatgi(n=+5)", "tesla(n=5)", "custom(n=20)"} {
		if spec, err := ParseName(name); err == nil {
			t.Errorf("ParseName(%q) = %+v, want an error", name, spec)
		}
	}
}
