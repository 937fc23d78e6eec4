package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	promHelpOrType = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*$`)
	promSample     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="(\+Inf|[0-9]+)"\})? (-?[0-9]+(\.[0-9]+)?|\+Inf|NaN)$`)
)

// validatePrometheus is a strict checker for the subset of the text
// exposition format WritePrometheus emits: every line is a comment or a
// sample, every sample's metric was TYPE-declared, histogram buckets are
// cumulative and end at +Inf == _count.
func validatePrometheus(t *testing.T, text string) {
	t.Helper()
	declared := map[string]string{}
	bucketCum := map[string]int64{}
	bucketLast := map[string]int64{}
	counts := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !promHelpOrType.MatchString(line) {
				t.Fatalf("malformed comment line: %q", line)
			}
			f := strings.Fields(line)
			if f[1] == "TYPE" {
				declared[f[2]] = f[3]
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, le, val := m[1], m[3], m[4]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && declared[b] == "histogram" {
				base = b
			}
		}
		if _, ok := declared[base]; !ok {
			t.Fatalf("sample %q has no TYPE declaration", line)
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("non-integer sample value in %q", line)
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && declared[base] == "histogram":
			if le == "" {
				t.Fatalf("bucket sample without le label: %q", line)
			}
			if v < bucketCum[base] {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			bucketCum[base] = v
			if le == "+Inf" {
				bucketLast[base] = v
			}
		case strings.HasSuffix(name, "_count") && declared[base] == "histogram":
			counts[base] = v
		}
	}
	for base, count := range counts {
		if bucketLast[base] != count {
			t.Errorf("histogram %s: +Inf bucket %d != count %d", base, bucketLast[base], count)
		}
	}
}

func TestWritePrometheusParses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("netsim.sent").Add(120)
	reg.Counter("verifier.authenticated").Add(88)
	reg.Gauge("stream.active_blocks").Set(3)
	h := reg.Histogram("verifier.time_to_auth_ns")
	for _, v := range []int64{0, 1, 2, 500, 1 << 20, 1 << 40} {
		h.Observe(v)
	}
	reg.Histogram("verifier.empty") // registered but never observed
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	validatePrometheus(t, out)
	for _, want := range []string{
		"netsim_sent 120",
		"verifier_authenticated 88",
		"stream_active_blocks 3",
		`verifier_time_to_auth_ns_bucket{le="+Inf"} 6`,
		"verifier_time_to_auth_ns_count 6",
		`verifier_empty_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusName(t *testing.T) {
	cases := map[string]string{
		"netsim.sent":              "netsim_sent",
		"verifier.time_to_auth_ns": "verifier_time_to_auth_ns",
		"0weird":                   "_0weird",
		"a-b c":                    "a_b_c",
	}
	for in, want := range cases {
		if got := prometheusName(in); got != want {
			t.Errorf("PrometheusName(%q) = %q, want %q", in, got, want)
		}
	}
}

func mustMux(e *Exposer) *http.ServeMux {
	mux := http.NewServeMux()
	e.Register(mux)
	return mux
}

func mustGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestExposerServesMetricsAndStatusz(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("netsim.sent").Add(42)
	e := NewExposer(reg, time.Hour) // cadence irrelevant: initial snapshot serves
	defer e.Close()
	e.SetStatus(func(w io.Writer) { fmt.Fprintln(w, "scheme: emss(test)") })

	srv := httptest.NewServer(mustMux(e))
	defer srv.Close()

	body := mustGet(t, srv.URL+"/metrics")
	validatePrometheus(t, body)
	if !strings.Contains(body, "netsim_sent 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	reg.Counter("netsim.sent").Add(8)
	e.Refresh()
	if body = mustGet(t, srv.URL+"/metrics"); !strings.Contains(body, "netsim_sent 50") {
		t.Errorf("/metrics not refreshed:\n%s", body)
	}

	status := mustGet(t, srv.URL+"/statusz")
	for _, want := range []string{"scheme: emss(test)", "snapshot age", "netsim.sent"} {
		if !strings.Contains(status, want) {
			t.Errorf("/statusz missing %q:\n%s", want, status)
		}
	}
}
