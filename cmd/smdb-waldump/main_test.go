package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smdb/internal/storage"
	"smdb/internal/wal"
)

// goldenLog builds a small deterministic node-0 log: a checkpoint, one
// committed transaction, one aborted, and one left active (the truncation
// anchor), plus a torn tail.
func goldenLog() []byte {
	t1 := wal.MakeTxnID(0, 1)
	t2 := wal.MakeTxnID(0, 2)
	t3 := wal.MakeTxnID(0, 3)
	recs := []wal.Record{
		{Type: wal.TypeCheckpoint}, // 1
		{Type: wal.TypeUpdate, Txn: t1, Page: 4, Slot: 2, Before: []byte("aa"), After: []byte("bb")},   // 2
		{Type: wal.TypeUpdate, Txn: t2, Page: 5, Slot: 0, Before: []byte("cc"), After: []byte("dddd")}, // 3
		{Type: wal.TypeCommit, Txn: t1, PrevLSN: 2},                                                    // 4
		{Type: wal.TypeUpdate, Txn: t3, Page: 4, Slot: 3, Before: []byte("x"), After: []byte("y")},     // 5
		{Type: wal.TypeAbort, Txn: t2, PrevLSN: 3},                                                     // 6
	}
	var buf []byte
	for i := range recs {
		buf = append(buf, wal.Marshal(&recs[i])...)
	}
	return append(buf, 0xde, 0xad, 0xbe) // torn tail
}

// TestByteAccountingMatchesDevice: analyze sizes records with
// wal.EncodedSize, apart from the encoder that wrote them, so on a device
// written by real forces — private commits of the engine's record shapes,
// then a force torn by a crash — the bytes it attributes to records plus the
// torn tail must be the device's length, and its per-type table must show
// each type's frame size.
func TestByteAccountingMatchesDevice(t *testing.T) {
	dev := storage.NewLogDevice()
	l, err := wal.NewLog(2, dev)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0x5a}, 33)
	l.Append(wal.Record{Type: wal.TypeCheckpoint})
	const commits = 6
	for c := 1; c <= commits+1; c++ {
		txn := wal.MakeTxnID(2, uint64(c))
		var prev wal.LSN
		for i := 0; i < 3; i++ {
			l.Append(wal.Record{Type: wal.TypeLockAcquire, Txn: txn, Lock: uint64(100*c + i), Mode: uint8(1 + i%2)})
			prev = l.Append(wal.Record{Type: wal.TypeUpdate, Txn: txn, PrevLSN: prev, Page: 3, Slot: uint16(i),
				Version: uint64(10*c + i), Before: img[:i], After: img})
		}
		commit := l.Append(wal.Record{Type: wal.TypeCommit, Txn: txn})
		for i := 0; i < 3; i++ {
			l.Append(wal.Record{Type: wal.TypeLockRelease, Txn: txn, Lock: uint64(100*c + i), Mode: uint8(1 + i%2)})
		}
		if c <= commits {
			l.Force(commit)
		}
	}
	if _, torn := l.ForceTorn(l.NextLSN()-1, 0.6); torn == 0 {
		t.Fatal("the torn force left no torn bytes; the case tests nothing")
	}
	buf := dev.Contents()
	rep := analyze("wal-node2.wal", buf)
	if rep.TornBytes == 0 || rep.Bytes+int64(rep.TornBytes) != int64(len(buf)) {
		t.Errorf("%d record bytes + %d torn bytes, device holds %d", rep.Bytes, rep.TornBytes, len(buf))
	}
	var typed int64
	frame := map[string]int64{"lock-acquire": 28, "lock-release": 28, "commit": 19, "checkpoint": 11}
	for _, tr := range rep.Types {
		typed += tr.Bytes
		if want, ok := frame[tr.Type]; ok && tr.Bytes != want*int64(tr.Records) {
			t.Errorf("%s: %d records in %d bytes, want %d each", tr.Type, tr.Records, tr.Bytes, want)
		}
	}
	if typed != rep.Bytes {
		t.Errorf("per-type bytes sum to %d, records hold %d", typed, rep.Bytes)
	}
}

func TestAnalyzeGoldenText(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-node0.wal")
	if err := os.WriteFile(path, goldenLog(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errW bytes.Buffer
	if code := run([]string{"-records", path}, &out, &errW); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errW.String())
	}
	got := out.String()
	for _, want := range []string{
		"== " + path + " (node 0)",
		"records: 6 (", "torn tail: 3 bytes",
		"last checkpoint: LSN 1, oldest active txn: t0.3 @ LSN 5",
		// safe = min(ckpt=1, oldestActive-1=4) = 1: only the checkpoint goes.
		"safe point: LSN 1 — truncatable: 1 records",
		"type attribution:",
		"update", "commit", "abort", "checkpoint",
		"transaction attribution:",
		"t0.1", "committed",
		"t0.2", "aborted",
		"t0.3", "active",
		"per-node attribution:",
		"node 0",
		"undo-span histogram",
		"redo-span histogram",
		"records:",
		"lsn=1", "lsn=6",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("text output missing %q:\n%s", want, got)
		}
	}
	// The checkpoint record is attributed to the log's node, not dropped.
	if strings.Contains(got, "unattributed") {
		t.Errorf("all records should be attributed:\n%s", got)
	}
}

func TestAnalyzeGoldenJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-node0.wal")
	if err := os.WriteFile(path, goldenLog(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errW bytes.Buffer
	if code := run([]string{"-json", path}, &out, &errW); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errW.String())
	}
	var doc struct {
		Files []struct {
			Node         int    `json:"node"`
			Records      int    `json:"records"`
			TornBytes    int    `json:"torn_bytes"`
			LastCkpt     int64  `json:"last_checkpoint_lsn"`
			OldestActive int64  `json:"oldest_active_first_lsn"`
			OldestTxn    string `json:"oldest_active_txn"`
			SafeLSN      int64  `json:"safe_lsn"`
			TruncRecords int    `json:"truncatable_records"`
			Types        []struct {
				Type    string `json:"type"`
				Records int    `json:"records"`
			} `json:"type_attribution"`
			Txns []struct {
				Txn    string `json:"txn"`
				Status string `json:"status"`
			} `json:"txn_attribution"`
			UndoHist []struct {
				Label string `json:"label"`
				Count int    `json:"count"`
			} `json:"undo_span_histogram"`
		} `json:"files"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(doc.Files) != 1 {
		t.Fatalf("files = %d, want 1", len(doc.Files))
	}
	f := doc.Files[0]
	if f.Node != 0 || f.Records != 6 || f.TornBytes != 3 {
		t.Errorf("node/records/torn = %d/%d/%d, want 0/6/3", f.Node, f.Records, f.TornBytes)
	}
	if f.LastCkpt != 1 || f.OldestActive != 5 || f.OldestTxn != "t0.3" || f.SafeLSN != 1 || f.TruncRecords != 1 {
		t.Errorf("truncation analysis = ckpt %d oldest %d (%s) safe %d trunc %d, want 1/5/t0.3/1/1",
			f.LastCkpt, f.OldestActive, f.OldestTxn, f.SafeLSN, f.TruncRecords)
	}
	types := map[string]int{}
	for _, tr := range f.Types {
		types[tr.Type] = tr.Records
	}
	if types["update"] != 3 || types["commit"] != 1 || types["abort"] != 1 || types["checkpoint"] != 1 {
		t.Errorf("type attribution = %v", types)
	}
	status := map[string]string{}
	for _, tx := range f.Txns {
		status[tx.Txn] = tx.Status
	}
	if status["t0.1"] != "committed" || status["t0.2"] != "aborted" || status["t0.3"] != "active" {
		t.Errorf("txn statuses = %v", status)
	}
	// Spans: t0.1 = 2..4 (3), t0.2 = 3..6 (4), t0.3 = 5..5 (1) →
	// buckets "1":1, "3-4":2.
	hist := map[string]int{}
	for _, b := range f.UndoHist {
		hist[b.Label] = b.Count
	}
	if hist["1"] != 1 || hist["3-4"] != 2 {
		t.Errorf("undo-span histogram = %v, want 1:1 3-4:2", hist)
	}
}

func TestDirectoryExpansionAndTotals(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal-node0.wal", "wal-node1.wal"} {
		if err := os.WriteFile(filepath.Join(dir, name), goldenLog(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errW bytes.Buffer
	if code := run([]string{dir}, &out, &errW); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errW.String())
	}
	got := out.String()
	if !strings.Contains(got, "wal-node0.wal (node 0)") || !strings.Contains(got, "wal-node1.wal (node 1)") {
		t.Errorf("directory scan missed a capture:\n%s", got)
	}
	if !strings.Contains(got, "totals: 2 files, 12 records") {
		t.Errorf("missing aggregate totals:\n%s", got)
	}

	// A directory without captures is a usage error, not a silent pass.
	empty := t.TempDir()
	if code := run([]string{empty}, &out, &errW); code != 1 {
		t.Errorf("empty dir run = %d, want 1", code)
	}
	if !strings.Contains(errW.String(), "no wal-node*.wal captures") {
		t.Errorf("missing empty-dir diagnostic: %s", errW.String())
	}
}

func TestNoArgsUsage(t *testing.T) {
	var out, errW bytes.Buffer
	if code := run(nil, &out, &errW); code != 2 {
		t.Errorf("no-args run = %d, want 2", code)
	}
}
