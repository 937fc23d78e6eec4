package mcauth

import (
	"math"
	"testing"
	"time"

	"mcauth/internal/delay"
	"mcauth/internal/loss"
)

func TestFacadeEndToEnd(t *testing.T) {
	signer := NewSigner("facade-sender")
	schemes := map[string]func() (Scheme, error){
		"rohatgi":   func() (Scheme, error) { return NewRohatgi(10, signer) },
		"emss":      func() (Scheme, error) { return NewEMSS(EMSSConfig{N: 10, M: 2, D: 1}, signer) },
		"augchain":  func() (Scheme, error) { return NewAugChain(AugChainConfig{N: 13, A: 2, B: 3}, signer) },
		"authtree":  func() (Scheme, error) { return NewAuthTree(10, signer) },
		"authtree4": func() (Scheme, error) { return NewAuthTreeArity(10, 4, signer) },
		"signeach":  func() (Scheme, error) { return NewSignEach(10, signer) },
		"tesla": func() (Scheme, error) {
			return NewTESLA(TESLAAt(10, 2, 50*time.Millisecond, time.Unix(0, 0), []byte("k")), signer)
		},
	}
	model, err := loss.NewBernoulli(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range schemes {
		t.Run(name, func(t *testing.T) {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			payloads := make([][]byte, s.BlockSize())
			for i := range payloads {
				payloads[i] = []byte{byte(i)}
			}
			res, err := Simulate(s, SimConfig{
				Receivers:    20,
				Loss:         model,
				Delay:        delay.Constant{D: time.Millisecond},
				SendInterval: 50 * time.Millisecond,
				Start:        time.Unix(0, 0),
				Seed:         1,
			}, 1, payloads)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalAuthenticated() == 0 {
				t.Error("nothing authenticated")
			}
			g, err := s.Graph()
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestFacadeAnalytics(t *testing.T) {
	chain, err := NewRohatgi(100, NewSigner("facade"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyticMarkovExact(chain, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(0.9, 98); math.Abs(res.QMin-want) > 1e-12 {
		t.Errorf("Rohatgi QMin = %v, want (1-p)^(n-2) = %v", res.QMin, want)
	}
	if q, err := AnalyticTESLA(0.1, 1, 0.5, 0.2); err != nil || q <= 0.89 || q >= 0.9 {
		t.Errorf("AnalyticTESLA = %v, %v; want just under 1-p", q, err)
	}
	s, err := NewEMSS(EMSSConfig{N: 1000, M: 2, D: 1}, NewSigner("facade"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := AnalyticRecurrence(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := AnalyticMarkovExact(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if exact.QMin > rec.QMin {
		t.Errorf("exact %v exceeds recurrence %v", exact.QMin, rec.QMin)
	}
}
