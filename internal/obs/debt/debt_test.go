package debt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"smdb/internal/obs"
)

// The tracker's inputs, fed as the engine's events carry them.

// feedAppend is a WAL append of a record of type typ and encoded size bytes,
// owned by txn (0 for none), at simulated time sim.
func feedAppend(t *Tracker, node int32, lsn int64, typ uint8, txn uint64, bytes int, sim int64) {
	t.OnEvent(obs.Event{Kind: obs.KindWALAppend, Node: node, Sim: sim, A: lsn, B: int64(typ), C: int64(txn), Dur: int64(bytes)})
}

// feedForce is a physical log force making records records stable through
// LSN forced.
func feedForce(t *Tracker, node int32, forced int64, records int, sim int64) {
	t.OnEvent(obs.Event{Kind: obs.KindWALForce, Node: node, Sim: sim, A: int64(records), B: forced})
}

// feedCrash is node's crash.
func feedCrash(t *Tracker, node int32) {
	t.OnEvent(obs.Event{Kind: obs.KindCrash, Node: node})
}

// feedDiscard is log truncation: every record below newFirst discarded.
func feedDiscard(t *Tracker, node int32, newFirst int64) {
	t.OnEvent(obs.Event{Kind: obs.KindWALDiscard, Node: node, A: newFirst})
}

// feedDirty and feedClean are page p turning dirty and being flushed.
func feedDirty(t *Tracker, p int64) {
	t.OnEvent(obs.Event{Kind: obs.KindPageDirty, Node: obs.SystemNode, A: p})
}

func feedClean(t *Tracker, p int64) {
	t.OnEvent(obs.Event{Kind: obs.KindPageFlush, A: p})
}

// feedRecovery is one restart recovery over down nodes: its opening progress
// event, then its closing span with what it replayed and the simulated
// duration.
func feedRecovery(t *Tracker, down int, ok bool, replayed, simNS int64) {
	t.OnEvent(obs.Event{Kind: obs.KindProgress, Node: obs.SystemNode, B: int64(down)})
	var c int64
	if ok {
		c = 1
	}
	t.OnEvent(obs.Event{Kind: obs.KindRecovery, Node: obs.SystemNode, Dur: simNS, A: replayed, C: c})
}

// appendN feeds n update appends for txn on node, starting at the node's
// next LSN, each sized bytes, at simulated time sim.
func appendN(t *Tracker, node int32, startLSN int64, n int, txn uint64, size int, sim int64) int64 {
	lsn := startLSN
	for i := 0; i < n; i++ {
		feedAppend(t, node, lsn, 1 /* update */, txn, size, sim)
		lsn++
	}
	return lsn
}

func TestDebtAccumulatesAndAnchors(t *testing.T) {
	tr := New(Config{})
	// Node 0: txn 7 writes 5 updates then commits; txn 8 writes 3 and stays
	// in flight.
	next := appendN(tr, 0, 1, 5, 7, 100, 0)
	feedAppend(tr, 0, next, typeCommit, 7, 60, 0)
	next++
	next = appendN(tr, 0, next, 3, 8, 100, 0)
	s := tr.Snapshot()
	n0 := s.Nodes[0]
	if n0.LastLSN != 9 || n0.Appends != 9 {
		t.Fatalf("node0 lastLSN=%d appends=%d, want 9/9", n0.LastLSN, n0.Appends)
	}
	// No checkpoint yet: safe point is 0, everything is debt.
	if n0.SafeLSN != 0 || n0.DebtRecords != 9 {
		t.Fatalf("node0 safe=%d debt=%d, want 0/9", n0.SafeLSN, n0.DebtRecords)
	}
	if n0.OldestActive != 7 {
		t.Fatalf("oldest active = %d, want 7 (txn 8's first record)", n0.OldestActive)
	}
	if n0.ActiveTxns != 1 {
		t.Fatalf("active txns = %d, want 1", n0.ActiveTxns)
	}
	wantBytes := int64(5*100 + 60 + 3*100)
	if n0.DebtBytes != wantBytes {
		t.Fatalf("debt bytes = %d, want %d", n0.DebtBytes, wantBytes)
	}
	if s.DebtRecords != 9 {
		t.Fatalf("global debt = %d, want 9", s.DebtRecords)
	}
}

func TestCheckpointBoundsSafePointByOldestActive(t *testing.T) {
	tr := New(Config{})
	next := appendN(tr, 0, 1, 4, 5, 100, 0) // txn 5 in flight from LSN 1
	feedAppend(tr, 0, next, typeCheckpoint, 0, 60, 0)
	next++
	appendN(tr, 0, next, 2, 6, 100, 0)
	s := tr.Snapshot()
	n := s.Nodes[0]
	// Checkpoint at 5, but txn 5 is active since LSN 1: safe = min(5, 0) = 0.
	if n.CkptLSN != 5 {
		t.Fatalf("ckpt = %d, want 5", n.CkptLSN)
	}
	if n.SafeLSN != 0 {
		t.Fatalf("safe = %d, want 0 (oldest active txn anchors below the checkpoint)", n.SafeLSN)
	}
	// Commit txn 5: safe point advances to the checkpoint.
	feedAppend(tr, 0, 8, typeCommit, 5, 60, 0)
	n = tr.Snapshot().Nodes[0]
	if n.SafeLSN != 5 {
		t.Fatalf("safe after commit = %d, want 5", n.SafeLSN)
	}
	if n.DebtRecords != 3 {
		t.Fatalf("debt after commit = %d, want 3 (LSNs 6..8)", n.DebtRecords)
	}
}

func TestCrashTruncatesToStablePrefix(t *testing.T) {
	tr := New(Config{})
	next := appendN(tr, 0, 1, 6, 3, 100, 0)
	feedForce(tr, 0, 4, 4, 0)
	feedCrash(tr, 0)
	s := tr.Snapshot().Nodes[0]
	if s.LastLSN != 4 {
		t.Fatalf("last after crash = %d, want 4", s.LastLSN)
	}
	if s.DebtBytes != 400 {
		t.Fatalf("debt bytes after crash = %d, want 400", s.DebtBytes)
	}
	// The restarted incarnation appends from LSN 5 again.
	appendN(tr, 0, next-2, 2, 9, 100, 0)
	s = tr.Snapshot().Nodes[0]
	if s.LastLSN != 6 || s.DebtRecords != 6 {
		t.Fatalf("after reappend last=%d debt=%d, want 6/6", s.LastLSN, s.DebtRecords)
	}
}

func TestDiscardRebasesBytes(t *testing.T) {
	tr := New(Config{})
	appendN(tr, 0, 1, 10, 3, 100, 0)
	feedForce(tr, 0, 10, 10, 0)
	feedDiscard(tr, 0, 6) // records 1..5 reclaimed
	s := tr.Snapshot().Nodes[0]
	if s.FirstLSN != 6 || s.Discarded != 5 {
		t.Fatalf("first=%d discarded=%d, want 6/5", s.FirstLSN, s.Discarded)
	}
	// All bytes above the (now clamped) safe point are the retained 5 records.
	if s.DebtBytes != 500 {
		t.Fatalf("debt bytes after discard = %d, want 500", s.DebtBytes)
	}
}

// TestRecoveryResetsDebt: debt drops to zero immediately after a completed
// recovery, which records its simulated MTTR, and re-accumulates from there.
func TestRecoveryResetsDebt(t *testing.T) {
	tr := New(Config{})
	appendN(tr, 0, 1, 50, 3, 100, 0)
	appendN(tr, 1, 1, 30, 1<<48|9, 100, 0)
	if s := tr.Snapshot(); s.DebtRecords != 80 {
		t.Fatalf("pre-recovery debt = %d, want 80", s.DebtRecords)
	}
	feedRecovery(tr, 1, true, 60, 5_000_000)
	s := tr.Snapshot()
	if s.DebtRecords != 0 || s.DebtBytes != 0 {
		t.Fatalf("post-recovery debt = %d records / %d bytes, want 0/0", s.DebtRecords, s.DebtBytes)
	}
	if s.Recoveries != 1 || s.LastSimNS != 5_000_000 {
		t.Fatalf("recoveries = %d, last sim MTTR = %d, want 1 and 5ms", s.Recoveries, s.LastSimNS)
	}
	appendN(tr, 0, 51, 40, 4, 100, 0)
	if s := tr.Snapshot(); s.DebtRecords != 40 {
		t.Fatalf("re-accumulated debt = %d, want 40", s.DebtRecords)
	}
}

// TestEstimateIsSimulatedRecoveryTime: with no recovery ever seen, each
// node's estimate is the dirty pages' reads plus one log force exactly when
// another node holds unforced records, the global estimate is the largest,
// and two folds of one stream give identical snapshots.
func TestEstimateIsSimulatedRecoveryTime(t *testing.T) {
	const read, force = 10_000_000, 8_000_000
	cfg := Config{DiskReadNS: read, LogForceNS: force}
	// Nodes 0 and 2 force what they log, node 1 does not; pages 4 and 5
	// stay dirty.
	stream := func(tr *Tracker) {
		appendN(tr, 0, 1, 3, 7, 100, 10)
		feedForce(tr, 0, 3, 3, 20)
		appendN(tr, 1, 1, 2, 1<<48|8, 100, 30)
		appendN(tr, 2, 1, 1, 2<<48|9, 100, 40)
		feedForce(tr, 2, 1, 1, 50)
		feedDirty(tr, 4)
		feedDirty(tr, 5)
		feedDirty(tr, 6)
		feedClean(tr, 6)
	}
	check := func(when string, s Snapshot, want ...int64) {
		t.Helper()
		if len(s.Nodes) != len(want) {
			t.Fatalf("%s: %d nodes, want %d", when, len(s.Nodes), len(want))
		}
		var global int64
		for i, n := range s.Nodes {
			if n.EstNS != want[i] {
				t.Errorf("%s: node %d estimate %d, want %d", when, i, n.EstNS, want[i])
			}
			global = max(global, want[i])
		}
		if s.EstNS != global {
			t.Errorf("%s: global estimate %d, want %d", when, s.EstNS, global)
		}
	}
	a, b := New(cfg), New(cfg)
	stream(a)
	stream(b)
	s := a.Snapshot()
	if s.Recoveries != 0 || s.DirtyPages != 2 {
		t.Fatalf("recoveries %d, dirty pages %d, want 0 and 2", s.Recoveries, s.DirtyPages)
	}
	// Only node 1 holds unforced records: its own crash loses them, any
	// other node's crash leaves them for recovery to force.
	check("node 1 unforced", s, 2*read+force, 2*read, 2*read+force)
	if sb := b.Snapshot(); !reflect.DeepEqual(s, sb) {
		t.Errorf("two folds of one stream differ:\n%+v\n%+v", s, sb)
	}

	feedForce(a, 1, 2, 2, 60)
	check("all forced", a.Snapshot(), 2*read, 2*read, 2*read)

	appendN(a, 0, 4, 1, 7, 100, 70)
	appendN(a, 2, 2, 1, 2<<48|9, 100, 80)
	check("nodes 0 and 2 unforced", a.Snapshot(), 2*read+force, 2*read+force, 2*read+force)

	feedClean(a, 4)
	feedClean(a, 5)
	feedForce(a, 0, 4, 1, 90)
	check("clean, node 2 unforced", a.Snapshot(), force, force, 0)
}

func TestFailedRecoveryDoesNotReset(t *testing.T) {
	tr := New(Config{})
	appendN(tr, 0, 1, 20, 3, 100, 0)
	feedRecovery(tr, 1, false, 0, 0)
	s := tr.Snapshot()
	if s.DebtRecords != 20 {
		t.Fatalf("debt after failed recovery = %d, want 20 (no reset)", s.DebtRecords)
	}
	if s.Failures != 1 || s.Recoveries != 0 {
		t.Fatalf("failure accounting wrong: %+v", s)
	}
}

func TestGrowthWatchdogFires(t *testing.T) {
	tr := New(Config{})
	lsn := int64(1)
	// Seed enough debt to clear the floor, then keep growing across windows
	// with no force/checkpoint/discard.
	for w := int64(0); w < growthWindows+3; w++ {
		for i := 0; i < growthFloor; i++ {
			feedAppend(tr, 0, lsn, 1, 3, 60, w*windowNS)
			lsn++
		}
	}
	an := tr.Anomalies()
	if len(an) != 1 {
		t.Fatalf("anomalies = %d, want exactly 1 (streak fires once)", len(an))
	}
	if an[0].Kind != "unbounded-debt-growth" {
		t.Fatalf("anomaly kind = %q", an[0].Kind)
	}
}

func TestGrowthWatchdogQuietWhenSafePointAdvances(t *testing.T) {
	tr := New(Config{})
	lsn := int64(1)
	for w := int64(0); w < growthWindows+4; w++ {
		for i := 0; i < growthFloor; i++ {
			feedAppend(tr, 0, lsn, 1, 3, 60, w*windowNS)
			lsn++
		}
		// A checkpoint in every window keeps the safe point moving.
		feedAppend(tr, 0, lsn, typeCheckpoint, 0, 60, w*windowNS)
		lsn++
	}
	if an := tr.Anomalies(); len(an) != 0 {
		t.Fatalf("anomalies = %v, want none while checkpoints advance the safe point", an)
	}
}

func TestWriteDebtJSONShape(t *testing.T) {
	tr := New(Config{})
	appendN(tr, 0, 1, 3, 7, 100, 0)
	feedCrash(tr, 1) // node 1 logged nothing
	feedDirty(tr, 4)
	feedDirty(tr, 5)
	feedClean(tr, 5)
	var buf bytes.Buffer
	if err := tr.WriteDebtJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc["enabled"] != true {
		t.Fatalf("enabled = %v", doc["enabled"])
	}
	if doc["debt_records"].(float64) != 3 {
		t.Fatalf("debt_records = %v", doc["debt_records"])
	}
	if doc["dirty_pages"].(float64) != 1 {
		t.Fatalf("dirty_pages = %v", doc["dirty_pages"])
	}
	nodes := doc["nodes"].([]any)
	if len(nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(nodes))
	}

	// The nil tracker degrades like every obs surface.
	buf.Reset()
	var nilTr *Tracker
	if err := nilTr.WriteDebtJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"enabled\": false}\n" {
		t.Fatalf("nil tracker JSON = %q", got)
	}
}

func TestWriteDebtProm(t *testing.T) {
	tr := New(Config{})
	appendN(tr, 0, 1, 3, 7, 100, 0)
	feedCrash(tr, 1) // node 1 logged nothing
	var buf bytes.Buffer
	if err := tr.WriteDebtProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"smdb_recovery_debt_records{node=\"0\"} 3",
		"smdb_recovery_debt_records{node=\"1\"} 0",
		"smdb_recovery_debt_bytes{node=\"0\"} 300",
		"smdb_recovery_debt_estimate_ns 0",
		"smdb_recovery_debt_dirty_pages 0",
		"smdb_recovery_debt_recoveries_total 0",
		"# TYPE smdb_recovery_debt_records gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	var nilTr *Tracker
	buf.Reset()
	if err := nilTr.WriteDebtProm(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil tracker prom output = %q, want empty", buf.String())
	}
}

func TestTypeAttributionAndCoverage(t *testing.T) {
	tr := New(Config{})
	appendN(tr, 0, 1, 4, 3, 100, 0)
	feedAppend(tr, 0, 5, typeCommit, 3, 60, 0)
	feedAppend(tr, 0, 6, typeCheckpoint, 0, 60, 0)
	feedAppend(tr, 0, 7, 5 /* lock-acquire */, 0, 60, 0) // txn 0: unattributed
	tc := tr.TypeAttribution()
	var updates, commits int64
	for _, c := range tc {
		switch c.Type {
		case 1:
			updates = c.Records
		case typeCommit:
			commits = c.Records
		}
	}
	if updates != 4 || commits != 1 {
		t.Fatalf("type attribution updates=%d commits=%d, want 4/1", updates, commits)
	}
	s := tr.Snapshot()
	want := float64(6) / float64(7)
	if s.Coverage < want-1e-9 || s.Coverage > want+1e-9 {
		t.Fatalf("coverage = %v, want %v", s.Coverage, want)
	}
}

func TestSummaryLines(t *testing.T) {
	var nilTr *Tracker
	if got := nilTr.Summary(); got != "debt: disabled" {
		t.Fatalf("nil summary = %q", got)
	}
	tr := New(Config{})
	appendN(tr, 0, 1, 2, 3, 100, 0)
	if got := tr.Summary(); !strings.Contains(got, "2 record(s)") || !strings.Contains(got, "est recovery 0") {
		t.Fatalf("summary = %q", got)
	}
}

func TestMidRunAttachResyncs(t *testing.T) {
	tr := New(Config{})
	// First observed append is LSN 100 (the tracker attached mid-run).
	feedAppend(tr, 0, 100, 1, 3, 100, 0)
	feedAppend(tr, 0, 101, 1, 3, 100, 0)
	s := tr.Snapshot().Nodes[0]
	if s.FirstLSN != 100 || s.LastLSN != 101 || s.DebtRecords != 2 {
		t.Fatalf("resync wrong: %+v", s)
	}
}

// Debt windows only move forward: a sim behind the live window counts in
// it, and a sim past it closes it with the debt at that moment, however far
// past it lies.
func TestDebtWindowsMoveForward(t *testing.T) {
	tr := New(Config{})
	feedAppend(tr, 0, 1, 1, 3, 60, 5*windowNS)
	feedAppend(tr, 0, 2, 1, 3, 60, 2*windowNS) // behind: counts in window 5
	feedAppend(tr, 0, 3, 1, 3, 60, 900*windowNS)
	var buf bytes.Buffer
	if err := tr.WriteDebtJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Windows []window `json:"windows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := []window{
		{ID: 5, Appends: 2, Bytes: 120, EndDebt: 3}, // closed by the third append, counted in its debt
		{ID: 900, Appends: 1, Bytes: 60, EndDebt: 3},
	}
	if !reflect.DeepEqual(doc.Windows, want) {
		t.Fatalf("windows = %+v, want %+v", doc.Windows, want)
	}
}
