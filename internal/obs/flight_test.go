package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stubGraph is a GraphWriter standing in for the deps tracker (obs cannot
// import its own subpackage; the real wiring is exercised in obscli).
type stubGraph struct{}

func (stubGraph) WriteDOT(w io.Writer) error {
	_, err := io.WriteString(w, "digraph recovery_deps {}\n")
	return err
}
func (stubGraph) WriteGraphJSON(w io.Writer) error {
	_, err := io.WriteString(w, "{\"txns\":null}\n")
	return err
}

// stubAudit is an AuditSource standing in for the online auditor (same
// import constraint as stubGraph).
type stubAudit struct{}

func (stubAudit) WriteAuditTxn(w io.Writer, id string) error {
	_, err := fmt.Fprintf(w, "{\"enabled\":true,\"id\":%q}\n", id)
	return err
}
func (stubAudit) WriteAuditViolations(w io.Writer) error {
	_, err := io.WriteString(w, "{\"enabled\":true,\"total\":0,\"violations\":[]}\n")
	return err
}
func (stubAudit) WriteTimeSeries(w io.Writer) error {
	_, err := io.WriteString(w, "{\"enabled\":true,\"windows\":[]}\n")
	return err
}

func TestFlightRecorderDump(t *testing.T) {
	o := NewWithCapacity(64)
	o.Instant(KindMigrate, 0, 100, 12, 1)
	o.Instant(KindCrash, 1, 200, 4, 2)
	o.Instant(KindRecovery, SystemNode, 300, 0, 0)

	r := NewFlightRecorder(t.TempDir(), 16)
	r.SetSources(Sources{Observer: o, Graph: stubGraph{}, Stats: func(w io.Writer) error {
		_, err := io.WriteString(w, "stats delta: {}\n")
		return err
	}})
	dir, err := r.Dump("ifa violation #1")
	if err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(dir); !strings.HasPrefix(base, "001-ifa-violation--1-") {
		t.Errorf("dump dir name = %q (reason not sanitized?)", base)
	}
	for _, f := range []string{"MANIFEST.txt", "events.json", "events.txt", "deps.dot", "deps.json", "stats.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("dump missing %s: %v", f, err)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "events.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason string `json:"reason"`
		Nodes  map[string][]struct {
			Kind string `json:"kind"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("events.json invalid: %v", err)
	}
	if doc.Reason != "ifa violation #1" {
		t.Errorf("reason = %q", doc.Reason)
	}
	if len(doc.Nodes["node0"]) != 1 || doc.Nodes["node0"][0].Kind != "migrate" {
		t.Errorf("node0 events = %+v", doc.Nodes["node0"])
	}
	if len(doc.Nodes["system"]) != 1 || doc.Nodes["system"][0].Kind != "recovery" {
		t.Errorf("system events = %+v", doc.Nodes["system"])
	}

	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reason: ifa violation #1", "deps.dot", "stats.txt", "migrate"} {
		if !strings.Contains(string(manifest), want) {
			t.Errorf("MANIFEST missing %q:\n%s", want, manifest)
		}
	}
	if got := r.Dumps(); len(got) != 1 || got[0] != dir {
		t.Errorf("Dumps() = %v", got)
	}
}

func TestFlightRecorderLastNTail(t *testing.T) {
	o := NewWithCapacity(64)
	for i := 0; i < 40; i++ {
		o.Instant(KindMigrate, 0, int64(i), int64(i), 0)
	}
	r := NewFlightRecorder(t.TempDir(), 8)
	r.SetSources(Sources{Observer: o})
	dir, err := r.Dump("crash")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "events.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Nodes map[string][]struct {
			A int64 `json:"a"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	evs := doc.Nodes["node0"]
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want the last 8", len(evs))
	}
	if evs[0].A != 32 || evs[7].A != 39 {
		t.Errorf("tail = %d..%d, want 32..39", evs[0].A, evs[7].A)
	}
	// No graph, no stats: those files must be absent and unlisted.
	if _, err := os.Stat(filepath.Join(dir, "deps.dot")); !os.IsNotExist(err) {
		t.Error("deps.dot written without a graph source")
	}
}

func TestFlightRecorderBudget(t *testing.T) {
	o := NewWithCapacity(8)
	root := t.TempDir()
	r := NewFlightRecorder(root, 4)
	r.SetSources(Sources{Observer: o})
	for i := 0; i < maxDumps+3; i++ {
		if _, err := r.Dump(fmt.Sprintf("crash-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != maxDumps {
		t.Errorf("wrote %d dumps, budget is %d", len(entries), maxDumps)
	}
	if got := len(r.Dumps()); got != maxDumps {
		t.Errorf("Dumps() = %d entries, want %d", got, maxDumps)
	}
}

func TestFlightRecorderAuditFiles(t *testing.T) {
	o := NewWithCapacity(8)
	o.Instant(KindCrash, 0, 100, 4, 2)
	r := NewFlightRecorder(t.TempDir(), 8)
	r.SetSources(Sources{Observer: o, Audit: stubAudit{}})
	dir, err := r.Dump("crash")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"violations.json", "audit_trails.json", "timeseries.json"} {
		raw, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("dump missing %s: %v", f, err)
			continue
		}
		if !strings.Contains(string(raw), `"enabled":true`) {
			t.Errorf("%s = %q", f, raw)
		}
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), "violations.json audit_trails.json timeseries.json") {
		t.Errorf("MANIFEST does not list the audit files:\n%s", manifest)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var r *FlightRecorder
	r.SetSources(Sources{})
	dir, err := r.Dump("crash")
	if err != nil || dir != "" {
		t.Errorf("nil recorder Dump = %q, %v", dir, err)
	}
	if r.Dumps() != nil {
		t.Error("nil recorder has dumps")
	}
}
