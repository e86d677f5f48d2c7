package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fixed serves one unchanging set of sources.
func fixed(src Sources) func() Sources { return func() Sources { return src } }

func get(t *testing.T, h http.Handler, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	return res.StatusCode, string(body), res.Header.Get("Content-Type")
}

func TestHTTPHandlerEndpoints(t *testing.T) {
	h := NewHTTPHandler(fixed(Sources{Observer: goldenObserver(), Graph: stubGraph{}, Audit: stubAudit{}}))

	code, body, _ := get(t, h, "/healthz")
	if code != 200 || !strings.HasPrefix(body, "ok events=") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, ctype := get(t, h, "/metrics")
	if code != 200 || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics = %d content-type %q", code, ctype)
	}
	if !strings.Contains(body, `smdb_events_total{kind="crash"} 1`) {
		t.Errorf("/metrics body missing counter:\n%s", body)
	}

	code, body, ctype = get(t, h, "/trace")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("/trace = %d %q %q", code, ctype, body[:min(len(body), 80)])
	}

	code, body, ctype = get(t, h, "/deps")
	if code != 200 || !strings.Contains(ctype, "graphviz") || !strings.Contains(body, "digraph recovery_deps") {
		t.Errorf("/deps = %d %q %q", code, ctype, body)
	}
	code, body, ctype = get(t, h, "/deps?format=json")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"txns"`) {
		t.Errorf("/deps?format=json = %d %q %q", code, ctype, body)
	}

	code, body, ctype = get(t, h, "/audit/txn")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"id":""`) {
		t.Errorf("/audit/txn = %d %q %q", code, ctype, body)
	}
	code, body, _ = get(t, h, "/audit/txn/t0.3")
	if code != 200 || !strings.Contains(body, `"id":"t0.3"`) {
		t.Errorf("/audit/txn/t0.3 = %d %q", code, body)
	}
	code, body, ctype = get(t, h, "/audit/violations")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"violations"`) {
		t.Errorf("/audit/violations = %d %q %q", code, ctype, body)
	}
	code, body, ctype = get(t, h, "/timeseries")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"windows"`) {
		t.Errorf("/timeseries = %d %q %q", code, ctype, body)
	}

	code, _, _ = get(t, h, "/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	// The runtime's contention profiles, which -prof arms, are served by name.
	for _, path := range []string{"/debug/pprof/mutex?debug=1", "/debug/pprof/block?debug=1"} {
		if code, body, _ := get(t, h, path); code != 200 || !strings.Contains(body, "cycles/second=") {
			t.Errorf("%s = %d %q", path, code, body[:min(len(body), 80)])
		}
	}

	code, body, _ = get(t, h, "/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	code, _, _ = get(t, h, "/nope")
	if code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestHTTPHandlerNilSources(t *testing.T) {
	h := NewHTTPHandler(nil)
	code, body, _ := get(t, h, "/deps")
	if code != 200 || !strings.Contains(body, "no dependency tracker attached") {
		t.Errorf("/deps with nil graph = %d %q", code, body)
	}
	code, _, _ = get(t, h, "/healthz")
	if code != 200 {
		t.Errorf("/healthz with nil observer = %d", code)
	}
	code, _, _ = get(t, h, "/metrics")
	if code != 200 {
		t.Errorf("/metrics with nil observer = %d", code)
	}
	for _, path := range []string{"/audit/txn", "/audit/txn/t0.1", "/audit/violations", "/timeseries", "/recovery/debt"} {
		code, body, _ := get(t, h, path)
		if code != 200 || !strings.Contains(body, `"enabled": false`) {
			t.Errorf("%s with nil source = %d %q", path, code, body)
		}
	}
}

func TestServeHTTPLive(t *testing.T) {
	s, err := ServeHTTP("127.0.0.1:0", fixed(Sources{Observer: goldenObserver()}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	resp, err := http.Get("http://" + s.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "ok events=") {
		t.Errorf("live /healthz = %d %q", resp.StatusCode, body)
	}
	s.Shutdown()
	s.Shutdown() // idempotent
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// stubWf is a WaterfallSource standing in for the waterfall recorder (same
// import constraint as stubGraph: obs cannot import its own subpackage).
type stubWf struct{}

func (stubWf) WriteSlowJSON(w io.Writer, max int) error {
	_, err := fmt.Fprintf(w, "{\"enabled\":true,\"slow\":[],\"max\":%d}\n", max)
	return err
}
func (stubWf) WriteTxnJSON(w io.Writer, txn int64) error {
	_, err := fmt.Fprintf(w, "{\"enabled\":true,\"txn\":%d}\n", txn)
	return err
}
func (stubWf) WriteWaterfallChrome(w io.Writer) error {
	_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
	return err
}
func (stubWf) WriteWaterfallProm(w io.Writer) error {
	_, err := io.WriteString(w, "# TYPE smdb_txn_wait_ns counter\nsmdb_txn_wait_ns{cause=\"compute\"} 0\n")
	return err
}
func (stubWf) WriteWaterfallJSON(w io.Writer) error {
	_, err := io.WriteString(w, "{\"enabled\":true}\n")
	return err
}
func (stubWf) WriteRecoveryProgress(w io.Writer) error {
	_, err := io.WriteString(w, "{\"enabled\":true,\"phases\":[]}\n")
	return err
}

// stubDebt is a DebtSource standing in for the recovery-debt tracker (same
// import constraint as stubGraph: obs cannot import its own subpackage).
type stubDebt struct{}

func (stubDebt) WriteDebtJSON(w io.Writer) error {
	_, err := io.WriteString(w, "{\"enabled\":true,\"debt_records\":7}\n")
	return err
}
func (stubDebt) WriteDebtProm(w io.Writer) error {
	_, err := io.WriteString(w, "# TYPE smdb_recovery_debt_records gauge\nsmdb_recovery_debt_records 7\n")
	return err
}

// TestEndpointIndexComplete pins the generated index to the registrations:
// every endpoint the mux registers must appear in the "/" body and must not
// 404 — the drift the hand-maintained index used to accumulate.
func TestEndpointIndexComplete(t *testing.T) {
	h := NewHTTPHandler(fixed(Sources{Observer: goldenObserver(), Graph: stubGraph{}, Audit: stubAudit{}, Waterfall: stubWf{}, Debt: stubDebt{}}))
	code, body, _ := get(t, h, "/")
	if code != 200 {
		t.Fatalf("index = %d", code)
	}
	eps := Endpoints()
	if len(eps) < 15 {
		t.Fatalf("only %d registered endpoints — registration enumeration broken: %v", len(eps), eps)
	}
	for _, pat := range eps {
		if !strings.Contains(body, strings.TrimSuffix(pat, "/")) {
			t.Errorf("index body missing registered endpoint %s:\n%s", pat, body)
		}
		switch pat {
		case "/debug/pprof/profile", "/debug/pprof/trace":
			// These block sampling for seconds; presence in the index plus the
			// shared registration path is the guarantee.
			continue
		}
		if code, _, _ := get(t, h, pat); code == 404 {
			t.Errorf("registered endpoint %s returns 404", pat)
		}
	}
}

func TestWaterfallEndpoints(t *testing.T) {
	h := NewHTTPHandler(fixed(Sources{Observer: goldenObserver(), Waterfall: stubWf{}}))

	code, body, ctype := get(t, h, "/slow?max=5")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"max":5`) {
		t.Errorf("/slow?max=5 = %d %q %q", code, ctype, body)
	}
	code, body, _ = get(t, h, "/slow/trace")
	if code != 200 || !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("/slow/trace = %d %q", code, body)
	}
	// Both txn id spellings resolve to the packed integer.
	code, body, _ = get(t, h, "/slow/t0.3")
	if code != 200 || !strings.Contains(body, `"txn":3`) {
		t.Errorf("/slow/t0.3 = %d %q", code, body)
	}
	code, body, _ = get(t, h, "/slow/281474976710660")
	if code != 200 || !strings.Contains(body, `"txn":281474976710660`) {
		t.Errorf("/slow/<packed> = %d %q", code, body)
	}
	code, _, _ = get(t, h, "/slow/bogus")
	if code != 400 {
		t.Errorf("/slow/bogus = %d, want 400", code)
	}
	code, body, _ = get(t, h, "/recovery/progress")
	if code != 200 || !strings.Contains(body, `"phases"`) {
		t.Errorf("/recovery/progress = %d %q", code, body)
	}
	code, body, _ = get(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, "smdb_txn_wait_ns") {
		t.Errorf("/metrics does not append waterfall lines: %d\n%s", code, body)
	}

	// Without a recorder the waterfall endpoints degrade, not 404.
	h = NewHTTPHandler(nil)
	for _, path := range []string{"/slow", "/slow/trace", "/slow/t0.1", "/recovery/progress"} {
		code, body, _ := get(t, h, path)
		if code != 200 || !strings.Contains(body, `"enabled": false`) {
			t.Errorf("%s with nil recorder = %d %q", path, code, body)
		}
	}
}

func TestDebtEndpoint(t *testing.T) {
	h := NewHTTPHandler(fixed(Sources{Observer: goldenObserver(), Debt: stubDebt{}}))

	code, body, ctype := get(t, h, "/recovery/debt")
	if code != 200 || !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"debt_records":7`) {
		t.Errorf("/recovery/debt = %d %q %q", code, ctype, body)
	}
	code, body, _ = get(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, "smdb_recovery_debt_records") {
		t.Errorf("/metrics does not append debt lines: %d\n%s", code, body)
	}

	// Without a tracker the endpoint degrades, not 404.
	h = NewHTTPHandler(nil)
	code, body, _ = get(t, h, "/recovery/debt")
	if code != 200 || !strings.Contains(body, `"enabled": false`) {
		t.Errorf("/recovery/debt with nil tracker = %d %q", code, body)
	}
}
