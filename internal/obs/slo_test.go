package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sloClock is a settable fake clock.
type sloClock struct{ now time.Time }

func (c *sloClock) Now() time.Time          { return c.now }
func (c *sloClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newSLOClock() *sloClock                { return &sloClock{now: time.Unix(1_700_000_000, 0)} }
func ttaSample(vals ...int64) (h HistogramData) {
	for _, v := range vals {
		h.Observe(v)
	}
	return h
}

func newTestTracker(clk *sloClock) *SLOTracker {
	return NewSLOTracker(SLOConfig{
		Window:          time.Minute,
		Slots:           6,
		TimeToAuthP99:   10 * time.Millisecond,
		MinAuthFraction: 0.9,
		MinSample:       20,
		Clock:           clk.Now,
	})
}

func streamStatus(t *testing.T, tr *SLOTracker, id uint64) StreamSLO {
	t.Helper()
	st := tr.status()
	for _, s := range st.Streams {
		if s.Stream == id {
			return s
		}
	}
	t.Fatalf("stream %d not in status: %+v", id, st)
	return StreamSLO{}
}

func objective(t *testing.T, s StreamSLO, name string) ObjectiveStatus {
	t.Helper()
	for _, o := range s.Objectives {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("objective %q not in %+v", name, s)
	return ObjectiveStatus{}
}

func TestSLOIdleBelowMinSample(t *testing.T) {
	clk := newSLOClock()
	tr := newTestTracker(clk)
	tr.Observe(1, SLOSample{Authenticated: 5, TimeToAuth: ttaSample(1000)})
	s := streamStatus(t, tr, 1)
	if s.State != sloIdle {
		t.Fatalf("state = %q, want idle below MinSample", s.State)
	}
}

func TestSLOHealthyStreamOk(t *testing.T) {
	clk := newSLOClock()
	tr := newTestTracker(clk)
	fast := make([]int64, 100)
	for i := range fast {
		fast[i] = int64(time.Millisecond)
	}
	tr.Observe(1, SLOSample{Authenticated: 100, TimeToAuth: ttaSample(fast...)})
	s := streamStatus(t, tr, 1)
	if s.State != sloOk {
		t.Fatalf("state = %q, want ok: %+v", s.State, s)
	}
	if s.AuthFraction != 1 {
		t.Fatalf("auth fraction = %v, want 1", s.AuthFraction)
	}
	if tr.Red() {
		t.Fatal("healthy tracker reports red")
	}
}

// TestSLOAuthFractionRedUnderLoss is the acceptance property: injected
// loss pushes the authenticated fraction below q_min and the budget goes
// red.
func TestSLOAuthFractionRedUnderLoss(t *testing.T) {
	clk := newSLOClock()
	tr := newTestTracker(clk)
	// 70% authenticated against a 90% objective: fail fraction 0.3 vs
	// allowance 0.1 — burn rate 3.
	tr.Observe(1, SLOSample{Authenticated: 70, Failed: 30, TimeToAuth: ttaSample(1000)})
	s := streamStatus(t, tr, 1)
	o := objective(t, s, "auth_fraction")
	if o.State != sloRed || s.State != sloRed {
		t.Fatalf("want red, got objective=%q stream=%q (%+v)", o.State, s.State, o)
	}
	if o.BurnRate < 2.5 || o.BurnRate > 3.5 {
		t.Fatalf("burn rate = %v, want ~3", o.BurnRate)
	}
	if o.BudgetRemaining >= 0 {
		t.Fatalf("budget remaining = %v, want < 0", o.BudgetRemaining)
	}
	if !tr.Red() {
		t.Fatal("tracker must report red")
	}
	if st := tr.status(); st.State != sloRed {
		t.Fatalf("document state = %q, want red", st.State)
	}
}

func TestSLOLatencyObjectiveRed(t *testing.T) {
	clk := newSLOClock()
	tr := newTestTracker(clk)
	// All authentications succeed but 20% are slower than the 10ms p99
	// target: slow fraction 0.2 vs allowance 0.01.
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(time.Millisecond)
		if i < 20 {
			vals[i] = int64(100 * time.Millisecond)
		}
	}
	tr.Observe(2, SLOSample{Authenticated: 100, TimeToAuth: ttaSample(vals...)})
	s := streamStatus(t, tr, 2)
	if o := objective(t, s, "auth_fraction"); o.State != sloOk {
		t.Fatalf("auth_fraction = %q, want ok", o.State)
	}
	o := objective(t, s, "tta_p99")
	if o.State != sloRed {
		t.Fatalf("tta_p99 state = %q, want red (%+v)", o.State, o)
	}
	if s.State != sloRed {
		t.Fatalf("stream state = %q, want red", s.State)
	}
}

func TestSLOWindowExpiryRecovers(t *testing.T) {
	clk := newSLOClock()
	tr := newTestTracker(clk)
	tr.Observe(1, SLOSample{Authenticated: 10, Failed: 90, TimeToAuth: ttaSample(1000)})
	if !tr.Red() {
		t.Fatal("want red after heavy loss")
	}
	// Slide past the window; the bad slot expires and (with fresh healthy
	// traffic) the stream recovers.
	clk.Advance(2 * time.Minute)
	tr.Observe(1, SLOSample{Authenticated: 50, TimeToAuth: ttaSample(1000)})
	s := streamStatus(t, tr, 1)
	if s.State != sloOk {
		t.Fatalf("state after window expiry = %q, want ok (%+v)", s.State, s)
	}
	if s.Attempts != 50 {
		t.Fatalf("attempts = %d, want only the fresh 50", s.Attempts)
	}
}

func TestSLOServeHTTPAndExport(t *testing.T) {
	clk := newSLOClock()
	tr := newTestTracker(clk)
	tr.Observe(7, SLOSample{Authenticated: 40, Failed: 60, TimeToAuth: ttaSample(1000)})
	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var st SLOStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/slo not JSON: %v\n%s", err, rec.Body.String())
	}
	if st.State != sloRed || len(st.Streams) != 1 || st.Streams[0].Stream != 7 {
		t.Fatalf("unexpected /slo document: %+v", st)
	}

	reg := NewRegistry()
	tr.Export(reg)
	snap := reg.Snapshot()
	if got := snap.Gauges["slo.red_streams"]; got != 1 {
		t.Fatalf("slo.red_streams = %d, want 1", got)
	}
	if got := snap.Gauges["slo.stream.7.auth_fraction_milli"]; got != 400 {
		t.Fatalf("auth_fraction_milli = %d, want 400", got)
	}
	if got := snap.Gauges["slo.stream.7.auth_fraction_burn_milli"]; got != 6000 {
		t.Fatalf("auth_fraction_burn_milli = %d, want 6000", got)
	}

	var sb strings.Builder
	if err := tr.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "auth_fraction") || !strings.Contains(sb.String(), "red") {
		t.Fatalf("WriteText missing objective rows:\n%s", sb.String())
	}
}

func TestSLONilTrackerInert(t *testing.T) {
	var tr *SLOTracker
	tr.Observe(1, SLOSample{Authenticated: 1})
	if tr.Red() {
		t.Fatal("nil tracker red")
	}
	if st := tr.status(); st.State != sloIdle || len(st.Streams) != 0 {
		t.Fatalf("nil tracker status = %+v", st)
	}
	tr.Export(NewRegistry())
}
