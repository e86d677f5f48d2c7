package obscli

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"smdb/internal/machine"
	"smdb/internal/obs/hooks"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlagSetRegistersSharedNames(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddFlags(fs)
	for _, name := range []string{"trace", "metrics", "http", "httphold", "flightdir", "flightn", "audit", "window"} {
		if fs.Lookup(name) == nil {
			t.Errorf("shared flag -%s not registered", name)
		}
	}
	if fs.Lookup("recoverworkers") != nil {
		t.Error("-recoverworkers is registered; restart recovery has no worker count")
	}
}

// TestProfWritesContentionProfiles: -prof arms the runtime's mutex profile
// at every contended unlock and the block profile beside it at a sampling
// rate (the runtime reads no rate back, so the constant is checked) at Build,
// and Finish writes both to the working directory.
func TestProfWritesContentionProfiles(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(-1))
	defer runtime.SetBlockProfileRate(0)
	s, err := parseFlags(t, "-prof").Build()
	if err != nil {
		t.Fatal(err)
	}
	if rate := runtime.SetMutexProfileFraction(-1); rate != 1 {
		t.Errorf("-prof left the mutex profile fraction at %d, want 1", rate)
	}
	if BlockProfileRate <= 1 {
		t.Errorf("-prof arms the block profile at rate %d, recording every blocking event; want a sampling rate", BlockProfileRate)
	}
	if err := s.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mutex.pprof", "block.pprof"} {
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Errorf("-prof wrote no %s: %v", name, err)
		}
	}
}

func TestDisabledStackIsInert(t *testing.T) {
	f := parseFlags(t)
	if f.Enabled() {
		t.Fatal("empty flags report enabled")
	}
	s, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.Obs != nil || s.Flight != nil || s.HTTP != nil {
		t.Errorf("disabled stack built surfaces: %+v", s)
	}
	db := newDB(t, recovery.StableEager)
	if tr := s.Attach(db); tr != nil {
		t.Errorf("disabled Attach returned a tracker")
	}
	if *db.Hooks() != (hooks.Set{}) {
		t.Error("disabled Attach wired the DB")
	}
	if err := s.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func newDB(t *testing.T, proto recovery.Protocol) *recovery.DB {
	t.Helper()
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: 4, Lines: 4096},
		Protocol:       proto,
		LinesPerPage:   4,
		RecsPerLine:    4,
		Pages:          16,
		LockTableLines: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// crashedRun drives one crash/recover episode on an attached DB: seed, run
// to mid-flight, crash node 3, recover. This is the CI smoke scenario — the
// same shape the smdb-sim command executes.
func crashedRun(t *testing.T, db *recovery.DB) {
	t.Helper()
	if err := workload.Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	r := workload.NewRunner(db, workload.Spec{
		TxnsPerNode: 4, OpsPerTxn: 6,
		ReadFraction: 0.4, SharingFraction: 0.6, Seed: 7,
	})
	if _, err := r.RunUntilMidFlight(12); err != nil {
		t.Fatal(err)
	}
	db.Crash(3)
	if _, err := db.Recover([]machine.NodeID{3}); err != nil {
		t.Fatal(err)
	}
}

// promLine matches one Prometheus text-exposition sample:
// metric{optional="labels"} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.e+-]+(Inf)?$`)

// TestStackSmoke is the in-process half of the CI observability smoke: build
// the full stack from flags, run a crash episode, scrape every introspection
// endpoint of the live server, validate the Prometheus exposition format,
// and assert the crash left a well-formed flight dump.
func TestStackSmoke(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	flightDir := filepath.Join(dir, "dumps")
	f := parseFlags(t,
		"-trace", tracePath, "-metrics",
		"-http", "127.0.0.1:0",
		"-flightdir", flightDir, "-flightn", "64")
	if !f.Enabled() {
		t.Fatal("flags not enabled")
	}
	s, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer s.HTTP.Shutdown()

	db := newDB(t, recovery.VolatileSelectiveRedo)
	tr := s.Attach(db)
	if tr == nil || db.Hooks().Observer != s.Obs || db.Hooks().Deps != tr || s.Hooks() != db.Hooks() {
		t.Fatal("Attach did not wire the DB")
	}
	crashedRun(t, db)

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.HTTP.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, _ := get("/healthz")
	if code != 200 || !strings.HasPrefix(body, "ok events=") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, ctype := get("/metrics")
	if code != 200 || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics = %d content-type %q", code, ctype)
	}
	samples := 0
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		samples++
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	if samples == 0 {
		t.Error("/metrics served no samples")
	}
	if !strings.Contains(body, `smdb_events_total{kind="crash"} 1`) {
		t.Error("/metrics missing the crash counter")
	}

	code, body, _ = get("/trace")
	if code != 200 || !json.Valid([]byte(body)) {
		t.Errorf("/trace = %d, valid JSON = %v", code, json.Valid([]byte(body)))
	}

	code, body, _ = get("/deps")
	if code != 200 || !strings.Contains(body, "digraph recovery_deps") {
		t.Errorf("/deps = %d %q", code, body[:minInt(len(body), 80)])
	}
	code, body, _ = get("/deps?format=json")
	if code != 200 || !json.Valid([]byte(body)) || !strings.Contains(body, `"txns"`) {
		t.Errorf("/deps?format=json = %d %q", code, body[:minInt(len(body), 80)])
	}

	// The crash must have produced a well-formed flight dump.
	dumps := s.Flight.Dumps()
	if len(dumps) == 0 {
		t.Fatal("crash episode left no flight dump")
	}
	for _, file := range []string{"MANIFEST.txt", "events.json", "deps.dot", "deps.json", "stats.txt"} {
		if _, err := os.Stat(filepath.Join(dumps[0], file)); err != nil {
			t.Errorf("flight dump missing %s: %v", file, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dumps[0], "events.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("flight events.json invalid: %v", err)
	}
	if doc.Reason != "crash" {
		t.Errorf("flight dump reason = %q, want crash", doc.Reason)
	}

	// Finish writes the trace file and prints the metrics table.
	var out strings.Builder
	if err := s.Finish(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "line_lock_latency") {
		t.Errorf("-metrics table missing from Finish output:\n%s", out.String())
	}
	traced, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(traced) || !strings.Contains(string(traced), `"traceEvents"`) {
		t.Error("-trace output is not a Chrome trace")
	}
}

// TestStackTrackerSwap models the chaos sweep: each per-seed DB gets a fresh
// tracker, and the stack's sources (what /deps serves) follow the swap.
func TestStackTrackerSwap(t *testing.T) {
	f := parseFlags(t, "-metrics")
	s, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	db1 := newDB(t, recovery.StableEager)
	tr1 := s.Attach(db1)
	db2 := newDB(t, recovery.StableEager)
	tr2 := s.Attach(db2)
	if tr1 == nil || tr2 == nil || tr1 == tr2 {
		t.Fatalf("expected two distinct trackers, got %p %p", tr1, tr2)
	}
	if s.Hooks().Deps != tr2 {
		t.Error("stack did not swap to the newest tracker")
	}
	graph := s.Hooks().Sources().Graph
	var dot strings.Builder
	if err := graph.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph recovery_deps") {
		t.Errorf("stack DOT = %q", dot.String())
	}
	var js strings.Builder
	if err := graph.WriteGraphJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(js.String())) {
		t.Errorf("stack graph JSON invalid: %q", js.String())
	}
	if err := s.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestStackGraphWriterBeforeAttach: the HTTP server is built before any DB
// exists; /deps must degrade to the empty graph, not panic.
func TestStackGraphWriterBeforeAttach(t *testing.T) {
	f := parseFlags(t, "-http", "127.0.0.1:0")
	s, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer s.HTTP.Shutdown()
	resp, err := http.Get("http://" + s.HTTP.Addr + "/deps")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "digraph recovery_deps") {
		t.Errorf("/deps before Attach = %d %q", resp.StatusCode, body)
	}
	if err := s.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsBadAddr(t *testing.T) {
	f := parseFlags(t, "-http", "256.256.256.256:99999")
	if _, err := f.Build(); err == nil {
		t.Error("Build accepted an unusable -http address")
	}
}

func TestHTTPHoldDelaysShutdown(t *testing.T) {
	f := parseFlags(t, "-http", "127.0.0.1:0", "-httphold", "50ms")
	s, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("Finish returned after %s, want >= httphold", d)
	}
	if _, err := http.Get("http://" + s.HTTP.Addr + "/healthz"); err == nil {
		t.Error("server still serving after Finish")
	}
}

// TestHTTPHoldInterruptedBySignal is the -httphold shutdown contract: a held
// introspection server must end the hold and shut down cleanly on SIGTERM
// instead of blocking for the full duration.
func TestHTTPHoldInterruptedBySignal(t *testing.T) {
	f := parseFlags(t, "-http", "127.0.0.1:0", "-httphold", "30s")
	s, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Finish(io.Discard) }()
	// Wait until the hold is live — Holding flips true only after the signal
	// handler is armed, so the SIGTERM below cannot race it and kill the test.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Holding() {
		if time.Now().After(deadline) {
			t.Fatal("Finish never entered the httphold grace period")
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not end the httphold")
	}
	if _, err := http.Get("http://" + s.HTTP.Addr + "/healthz"); err == nil {
		t.Error("server still serving after interrupted hold")
	}
}

// TestStopHoldEndsHoldEarly is the embedded-host half of the same contract.
func TestStopHoldEndsHoldEarly(t *testing.T) {
	f := parseFlags(t, "-http", "127.0.0.1:0", "-httphold", "30s")
	s, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Finish(io.Discard) }()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Holding() {
		if time.Now().After(deadline) {
			t.Fatal("Finish never entered the httphold grace period")
		}
		time.Sleep(time.Millisecond)
	}
	s.StopHold()
	s.StopHold() // idempotent
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StopHold did not end the httphold")
	}
}

// TestStackAuditWiring: -audit attaches a per-DB auditor, the HTTP audit
// endpoints follow the swap, a clean crash episode on a real protocol yields
// zero violations, and Finish prints the audit summary.
func TestStackAuditWiring(t *testing.T) {
	f := parseFlags(t, "-audit", "-http", "127.0.0.1:0")
	s, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer s.HTTP.Shutdown()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + s.HTTP.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return string(body)
	}

	// Before the first Attach the audit surfaces exist but report disabled.
	if body := get("/audit/violations"); !strings.Contains(body, `"enabled": false`) {
		t.Errorf("/audit/violations before Attach = %q", body)
	}

	db := newDB(t, recovery.StableEager)
	s.Attach(db)
	a1 := s.Hooks().Audit
	if a1 == nil {
		t.Fatal("-audit Attach left no auditor")
	}
	if db.Hooks().Audit != a1 {
		t.Error("DB and stack disagree on the auditor")
	}
	crashedRun(t, db)

	if n := a1.ViolationCount(); n != 0 {
		t.Errorf("clean StableEager episode raised %d violations: %+v", n, a1.Violations())
	}
	body := get("/audit/txn")
	if !strings.Contains(body, `"enabled": true`) || !strings.Contains(body, `"summary"`) {
		t.Errorf("/audit/txn = %q", body[:minInt(len(body), 120)])
	}
	if !json.Valid([]byte(body)) {
		t.Error("/audit/txn is not valid JSON")
	}
	body = get("/audit/violations")
	if !strings.Contains(body, `"total": 0`) {
		t.Errorf("/audit/violations = %q", body[:minInt(len(body), 120)])
	}
	body = get("/timeseries")
	if !json.Valid([]byte(body)) || !strings.Contains(body, `"windows"`) {
		t.Errorf("/timeseries = %q", body[:minInt(len(body), 120)])
	}

	// A second Attach swaps in a fresh auditor (the sweep shape).
	db2 := newDB(t, recovery.VolatileSelectiveRedo)
	s.Attach(db2)
	if s.Hooks().Audit == a1 {
		t.Error("Attach did not swap the auditor")
	}

	var out strings.Builder
	if err := s.Finish(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "audit:") {
		t.Errorf("Finish output missing the audit summary:\n%s", out.String())
	}
}

func TestPrintVerdicts(t *testing.T) {
	f := parseFlags(t, "-metrics")
	s, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := newDB(t, recovery.VolatileSelectiveRedo)
	s.Attach(db)
	crashedRun(t, db)
	var out strings.Builder
	s.PrintVerdicts(&out)
	if !strings.Contains(out.String(), "dependency explainer") {
		t.Errorf("no verdicts printed after a crash:\n%s", out.String())
	}
	if err := s.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	// A disabled stack prints nothing.
	var s2 Stack
	var empty strings.Builder
	s2.PrintVerdicts(&empty)
	if empty.Len() != 0 {
		t.Errorf("disabled stack printed %q", empty.String())
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
