package waterfall

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the export golden files")

// goldenRecorder is the deterministic recorder behind the golden files:
// fixed config, fixed scenario, no wall-clock inputs in the exported docs.
// Its reservoir keeps every transaction, so each file shows one beyond the
// top-K.
func goldenRecorder() *Recorder {
	r := New(Config{TopK: 2, Nodes: 2})
	r.sampleN = 1
	feedScenario(r)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with go test -run Golden -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

func TestSlowJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteSlowJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "slow.golden.json", buf.Bytes())

	buf.Reset()
	var nilR *Recorder
	if err := nilR.WriteSlowJSON(&buf, 0); err != nil || buf.String() != disabledJSON {
		t.Fatalf("nil /slow = %q, %v", buf.String(), err)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome.golden.json", buf.Bytes())

	buf.Reset()
	var nilR *Recorder
	if err := nilR.WriteChromeTrace(&buf); err != nil || buf.String() != `{"traceEvents":[],"displayTimeUnit":"ns"}` {
		t.Fatalf("nil chrome trace = %q, %v", buf.String(), err)
	}
}

func TestTxnJSON(t *testing.T) {
	r := goldenRecorder()
	var buf bytes.Buffer
	if err := r.WriteTxnJSON(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"found": true`, `"txn": 1`, `"outcome": "committed"`, `"line-wait"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/slow/1 missing %s:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := r.WriteTxnJSON(&buf, 999); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"found": false`) {
		t.Errorf("/slow/999 should report found=false:\n%s", buf.String())
	}
}

func TestProm(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`smdb_txn_wait_ns{cause="line-wait"} 40`,
		`smdb_txn_wait_ns{cause="compute"} 40`,
		`smdb_txn_wait_ns{cause="undo"} 30`,
		`smdb_txn_wait_ns{cause="fetch"} 20`,
		"smdb_txn_waterfalls_total 3",
		"smdb_txn_attributed_ns_total 130",
		"smdb_txn_latency_ns_total 210",
		"smdb_txn_waterfall_coverage 0.619048",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, out)
		}
	}
	var nilR *Recorder
	buf.Reset()
	if err := nilR.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil prom wrote %q, %v", buf.String(), err)
	}
}

func TestWaterfallFlightBody(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteWaterfallJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The flight body is the /slow document followed by the progress document.
	if !strings.Contains(out, `"wait_ns_by_cause"`) || !strings.Contains(out, `"phases"`) {
		t.Errorf("flight body missing a section:\n%s", out)
	}
}
