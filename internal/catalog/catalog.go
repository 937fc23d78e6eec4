// Package catalog is the one place a scheme name and its parameters turn
// into a runnable instance plus the per-scheme facts every evaluation path
// needs: which wire indices are data, which wire carries the signature,
// the send spacing, and which evaluator gives q_min at loss rate p.
//
// The paper's claim is that Rohatgi, Wong-Lam, EMSS, the augmented chain
// and TESLA are instances of one framework: a dependence graph rooted at
// P_sign, analysed under the standing assumption that P_sign arrives, and
// scored by q_min over the data packets. Per scheme that is one row of
// facts, stated here once (rows, below) and checked against what each
// scheme's Authenticate actually emits by TestCatalogMatchesWire.
//
// The catalogue is a leaf consumer of the scheme packages: commands, the
// lab, the conformance suite, the experiments, the run builder
// (internal/scenario) and tests import it; netsim, serve, stream and
// server never do — they keep taking a scheme.Scheme or an injected
// factory.
package catalog

import (
	"errors"
	"fmt"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/diagnose"
	"mcauth/internal/loss"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/rohatgi"
	"mcauth/internal/scheme/signeach"
	"mcauth/internal/scheme/tesla"
)

// Spec names a scheme and carries the union of the parameters the tools
// take; a row reads the fields it needs and ignores the rest.
type Spec struct {
	// ID is one of IDs().
	ID string
	// N is the block size (payloads per block).
	N int
	// M and D are the EMSS E_{m,d} parameters.
	M, D int
	// A and B are the augmented chain C_{a,b} parameters. Aligning N to a
	// segment boundary (augchain.AlignN) is the caller's decision.
	A, B int
	// Lag is the TESLA disclosure lag in intervals.
	Lag int
	// Interval is the sender's per-packet spacing, which for TESLA is also
	// the key interval.
	Interval time.Duration
	// Start is the send time of the first wire packet (TESLA's T0); the
	// zero value is the Unix epoch, the simulators' virtual T0.
	Start time.Time
	// Seed derives the TESLA key chain.
	Seed []byte
}

// Entry is a built scheme with its wire conventions.
type Entry struct {
	Scheme scheme.Scheme
	// Data lists the wire authentication indices of the payload-bearing
	// packets, the set q_min is taken over.
	Data []uint32
	// Signature lists the wire indices carrying a signed root distinct
	// from the packets it vouches for — the paper's P_sign, which the
	// analysis assumes arrives (netsim.Config.ReliableIndices, the
	// overlay's repair class, diagnose's root). Empty for the per-packet
	// schemes, where every packet carries its own proof and no wire is
	// privileged.
	Signature []uint32
	// SendInterval and Start are the sender's schedule, as given in the
	// Spec.
	SendInterval time.Duration
	Start        time.Time

	spec Spec
	qmin func(e Entry, l loss.Spec, mu, sigma float64) (float64, string, error)
}

// The evaluators a QMin can come from.
const (
	exact      = "exact"       // depgraph.ExactAuthProbDelivery on the scheme's own graph
	recurrence = "recurrence"  // the paper's independence recurrence: an optimistic bound
	closedForm = "closed-form" // TESLA's Equation 7
)

// row is one scheme's line in the catalogue.
type row struct {
	id    string
	build func(Spec, crypto.Signer) (scheme.Scheme, error)
	// name is the format of the built scheme's Name(), and params the
	// Spec fields its verbs print, in order; ParseName inverts the two.
	name   string
	params func(*Spec) []*int
	// data overrides the default data indices 1..N.
	data func(Spec) []uint32
	// signature is nil for schemes without a distinct signature packet.
	signature func(Spec) []uint32
	// qmin overrides the default rule, graph: the analytic q_min under
	// loss l, with Gaussian end-to-end delay (mu, sigma, in seconds) where
	// timing matters, and the evaluator it came from.
	qmin func(e Entry, l loss.Spec, mu, sigma float64) (float64, string, error)
}

func firstWire(Spec) []uint32  { return []uint32{1} }
func lastWire(s Spec) []uint32 { return []uint32{uint32(s.N)} }
func onlyN(s *Spec) []*int     { return []*int{&s.N} }

// ErrIIDOnly reports an evaluator that takes i.i.d. loss only, asked for
// another channel: TESLA's closed form, and the recurrence past the exact
// evaluator's frontier.
var ErrIIDOnly = errors.New("catalog: no analytic q_min for this channel")

// graph is the one rule for every scheme whose graph carries its q_min:
// exact on the graph the scheme emits, under l with the root forced (what
// netsim realizes), when its frontier fits the evaluator; the paper's
// recurrence on the same graph when it does not and l is i.i.d. A path
// (Rohatgi) or a star (the per-packet schemes) has a one-bit frontier, so
// it answers exactly at any block size.
func graph(e Entry, l loss.Spec, _, _ float64) (float64, string, error) {
	g, err := e.Scheme.Graph()
	if err != nil {
		return 0, "", err
	}
	ch, err := l.Channel()
	if err != nil {
		return 0, "", err
	}
	res, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: ch, Root: depgraph.Forced})
	if err == nil {
		if l.Burst > 1 {
			model, err := l.Model()
			return res.QMin, exact + ", forced, " + model.Name(), err
		}
		return res.QMin, exact, nil
	}
	if !errors.Is(err, depgraph.ErrFrontier) {
		return 0, "", err
	}
	if l.Burst > 1 {
		return 0, "", fmt.Errorf("%w: %v", ErrIIDOnly, err)
	}
	res, err = g.Recurrence(l.P)
	return res.QMin, recurrence, err
}

var rows = []row{
	{
		id:     "rohatgi",
		name:   "rohatgi(n=%d)",
		params: onlyN,
		build: func(s Spec, k crypto.Signer) (scheme.Scheme, error) {
			return rohatgi.New(s.N, k)
		},
		signature: firstWire,
	},
	{
		id:     "emss",
		name:   "emss(E_{%d,%d}, n=%d)",
		params: func(s *Spec) []*int { return []*int{&s.M, &s.D, &s.N} },
		build: func(s Spec, k crypto.Signer) (scheme.Scheme, error) {
			return emss.New(emss.Config{N: s.N, M: s.M, D: s.D}, k)
		},
		signature: lastWire,
	},
	{
		id:     "augchain",
		name:   "augchain(C_{%d,%d}, n=%d)",
		params: func(s *Spec) []*int { return []*int{&s.A, &s.B, &s.N} },
		build: func(s Spec, k crypto.Signer) (scheme.Scheme, error) {
			return augchain.New(augchain.Config{N: s.N, A: s.A, B: s.B}, k)
		},
		signature: lastWire,
	},
	{
		id:     "authtree",
		name:   "authtree(n=%d)",
		params: onlyN,
		build: func(s Spec, k crypto.Signer) (scheme.Scheme, error) {
			return authtree.New(s.N, k)
		},
	},
	{
		id:     "signeach",
		name:   "signeach(n=%d)",
		params: onlyN,
		build: func(s Spec, k crypto.Signer) (scheme.Scheme, error) {
			return signeach.New(s.N, k)
		},
	},
	{
		id:     "tesla",
		name:   "tesla(n=%d, lag=%d)",
		params: func(s *Spec) []*int { return []*int{&s.N, &s.Lag} },
		build: func(s Spec, k crypto.Signer) (scheme.Scheme, error) {
			return tesla.New(teslaConfig(s), k)
		},
		data: func(s Spec) []uint32 {
			out := make([]uint32, s.N)
			for i := range out {
				out[i] = tesla.DataWireIndex(i + 1)
			}
			return out
		},
		signature: firstWire, // the signed bootstrap
		qmin: func(e Entry, l loss.Spec, mu, sigma float64) (float64, string, error) {
			if l.Burst > 1 {
				return 0, "", fmt.Errorf("%w: TESLA's Equation 7 takes i.i.d. loss", ErrIIDOnly)
			}
			q, err := tesla.QMin(l.P, teslaConfig(e.spec).TDisclose().Seconds(), mu, sigma)
			return q, closedForm, err
		},
	},
}

func teslaConfig(s Spec) tesla.Config {
	return tesla.Config{N: s.N, Lag: s.Lag, Interval: s.Interval, Start: s.Start, Seed: s.Seed}
}

// IDs lists the scheme names in the order every tool prints them.
func IDs() []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.id
	}
	return out
}

// Build constructs the scheme spec names, signing with signer, and binds
// it to its row's wire conventions. Parameter errors are the scheme
// constructor's own.
func Build(spec Spec, signer crypto.Signer) (Entry, error) {
	for _, r := range rows {
		if r.id != spec.ID {
			continue
		}
		if spec.Start.IsZero() {
			spec.Start = time.Unix(0, 0)
		}
		s, err := r.build(spec, signer)
		if err != nil {
			return Entry{}, err
		}
		e := Entry{
			Scheme:       s,
			SendInterval: spec.Interval,
			Start:        spec.Start,
			spec:         spec,
			qmin:         r.qmin,
		}
		if e.qmin == nil {
			e.qmin = graph
		}
		if r.data != nil {
			e.Data = r.data(spec)
		} else {
			e.Data = make([]uint32, spec.N)
			for i := range e.Data {
				e.Data[i] = uint32(i + 1)
			}
		}
		if r.signature != nil {
			e.Signature = r.signature(spec)
		}
		return e, nil
	}
	return Entry{}, fmt.Errorf("unknown scheme %q", spec.ID)
}

// ParseName inverts the name a catalogue scheme prints (Scheme.Name(),
// which a trace's run_meta record carries): it returns the spec whose
// Build prints exactly name. The sender's schedule and key seed are not in
// the name, so Interval, Start and Seed are left for the caller.
func ParseName(name string) (Spec, error) {
	for _, r := range rows {
		s := Spec{ID: r.id}
		params := r.params(&s)
		scan := make([]any, len(params))
		for i, p := range params {
			scan[i] = p
		}
		if _, err := fmt.Sscanf(name, r.name, scan...); err != nil {
			continue
		}
		for i, p := range params {
			scan[i] = *p
		}
		if fmt.Sprintf(r.name, scan...) == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("catalog: %q names no catalogue scheme", name)
}

// QMin is the analytic minimum authentication probability over the data
// packets under the run's loss l, with the signature packet forced to
// arrive as netsim delivers it. mu and sigma are the mean and standard
// deviation of the Gaussian end-to-end delay, which only TESLA's safety
// condition reads; a constant delay below the disclosure lag (sigma = 0)
// is the paper's ξ = 1 case. by names the evaluator that answered
// ("exact", "recurrence" or "closed-form"), so a fallback to the
// recurrence's upper bound is never silent; under bursty loss it also
// names the root rule and the channel ("exact, forced, gilbert(...)"),
// which under i.i.d. loss agree with every other reading. A channel the
// evaluator cannot take fails with ErrIIDOnly. Evaluated on demand, so
// Build costs no more than the constructor it wraps.
func (e Entry) QMin(l loss.Spec, mu, sigma time.Duration) (q float64, by string, err error) {
	return e.qmin(e, l, mu.Seconds(), sigma.Seconds())
}

// DiagnoseOptions is the graph-side half of the trace→graph join: the
// data scope, the root wire, and — for schemes whose wire indices map onto
// graph vertices — the dependence graph for culprit attribution. TESLA's
// split vertex encoding has no sound wire-index mapping, so it gets the
// scope and root only.
func (e Entry) DiagnoseOptions() (diagnose.Options, error) {
	opts := diagnose.Options{DataIndices: e.Data}
	if len(e.Signature) > 0 {
		opts.RootIndex = e.Signature[0]
	}
	if vm, ok := e.Scheme.(scheme.VertexMapper); ok {
		g, err := e.Scheme.Graph()
		if err != nil {
			return diagnose.Options{}, err
		}
		opts.Graph = g
		opts.VertexOf = vm.VertexOf
	}
	return opts, nil
}
