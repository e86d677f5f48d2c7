package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"smdb/internal/obs"
)

// The exporters behind the introspection server's /audit/txn/{id},
// /audit/violations, and /timeseries endpoints and the flight recorder's
// audit files. The Auditor satisfies obs.AuditSource; every writer is
// nil-receiver safe and emits {"enabled": false} when auditing is off, so
// the HTTP layer and the flight recorder never branch.

func writeDisabled(w io.Writer) error {
	_, err := io.WriteString(w, "{\n  \"enabled\": false\n}\n")
	return err
}

func writeJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ParseTxnID parses a transaction id in either spelling the engine uses:
// the rendered "tN.M" form (home node N, per-node sequence M) or the raw
// packed integer.
func ParseTxnID(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if rest, ok := strings.CutPrefix(s, "t"); ok && strings.Contains(rest, ".") {
		nodeStr, seqStr, _ := strings.Cut(rest, ".")
		node, err1 := strconv.ParseUint(nodeStr, 10, 16)
		seq, err2 := strconv.ParseUint(seqStr, 10, 48)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("audit: bad transaction id %q", s)
		}
		return int64(node<<48 | seq), nil
	}
	id, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("audit: bad transaction id %q", s)
	}
	return id, nil
}

// WriteAuditTxn writes one transaction's trail as JSON. An empty id writes
// the full trail listing instead: the summary, the live trails, and the
// ring of recently completed ones.
func (a *Auditor) WriteAuditTxn(w io.Writer, id string) error {
	if a == nil {
		return writeDisabled(w)
	}
	if strings.TrimSpace(id) == "" {
		a.mu.Lock()
		doc := struct {
			Enabled bool    `json:"enabled"`
			Summary Summary `json:"summary"`
			Active  []Trail `json:"active"`
			Recent  []Trail `json:"recent"`
		}{
			Enabled: true,
			Active:  a.activeTrailsLocked(),
			Recent:  a.recentTrailsLocked(),
		}
		a.mu.Unlock()
		doc.Summary = a.Summary()
		return writeJSON(w, doc)
	}
	txn, err := ParseTxnID(id)
	if err != nil {
		return writeJSON(w, struct {
			Enabled bool   `json:"enabled"`
			Found   bool   `json:"found"`
			Error   string `json:"error"`
		}{true, false, err.Error()})
	}
	tr, ok := a.Trail(txn)
	doc := struct {
		Enabled bool   `json:"enabled"`
		Found   bool   `json:"found"`
		Trail   *Trail `json:"trail,omitempty"`
	}{Enabled: true, Found: ok}
	if ok {
		doc.Trail = &tr
	}
	return writeJSON(w, doc)
}

// WriteAuditViolations writes the retained violation records (each with its
// evidence trail) plus the running totals.
func (a *Auditor) WriteAuditViolations(w io.Writer) error {
	if a == nil {
		return writeDisabled(w)
	}
	a.mu.Lock()
	byKind := make(map[string]int, len(a.violByKind))
	for k, v := range a.violByKind {
		byKind[k] = v
	}
	doc := struct {
		Enabled    bool           `json:"enabled"`
		Total      int            `json:"total"`
		ByKind     map[string]int `json:"by_kind"`
		Retained   int            `json:"retained"`
		Violations []Violation    `json:"violations"`
	}{
		Enabled:    true,
		Total:      a.violTotal,
		ByKind:     byKind,
		Retained:   len(a.viols),
		Violations: append([]Violation(nil), a.viols...),
	}
	a.mu.Unlock()
	return writeJSON(w, doc)
}

// WriteTimeSeries writes the windowed metrics ring and the watchdog's
// anomaly log.
func (a *Auditor) WriteTimeSeries(w io.Writer) error {
	if a == nil {
		return writeDisabled(w)
	}
	a.mu.Lock()
	doc := a.ts.snapshotLocked()
	a.mu.Unlock()
	return writeJSON(w, doc)
}

// Anomalies returns a copy of the retained watchdog findings.
func (a *Auditor) Anomalies() []obs.Anomaly {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ts.anomalies.List()
}
