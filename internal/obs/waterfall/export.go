package waterfall

import (
	"encoding/json"
	"fmt"
	"io"

	"smdb/internal/obs"
)

// Exporters for the tail-sampled waterfalls: the /slow and /slow/{txnid}
// JSON documents, Chrome trace-event spans, the Prometheus
// smdb_txn_wait_ns{cause=...} counters, and the flight-recorder body. All
// nil-receiver safe, emitting {"enabled": false} like the audit writers.

const disabledJSON = "{\"enabled\": false}\n"

// slowSeg is one exported waterfall segment.
type slowSeg struct {
	Cause  string `json:"cause"`
	Start  int64  `json:"start"`
	Dur    int64  `json:"dur"`
	Detail int64  `json:"detail,omitempty"`
	Holder int64  `json:"holder,omitempty"`
}

func entryOf(w *Waterfall) map[string]any {
	segs := make([]slowSeg, 0, len(w.Segments))
	for _, s := range w.Segments {
		segs = append(segs, slowSeg{
			Cause: s.Cause.String(), Start: s.Start, Dur: s.Dur,
			Detail: s.Detail, Holder: s.Holder,
		})
	}
	by := map[string]int64{}
	for c, v := range w.ByCause {
		if v > 0 {
			by[obs.Cause(c).String()] = v
		}
	}
	cov := 1.0
	if lat := w.Latency(); lat > 0 {
		cov = float64(w.Attributed()) / float64(lat)
	}
	return map[string]any{
		"txn":        w.Txn,
		"node":       w.Node,
		"outcome":    w.Outcome.String(),
		"begin_sim":  w.BeginSim,
		"end_sim":    w.EndSim,
		"latency_ns": w.Latency(),
		"coverage":   cov,
		"by_cause":   by,
		"reservoir":  w.Reservoir,
		"dropped":    w.Dropped,
		"segments":   segs,
	}
}

func writeDoc(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteSlowJSON writes the /slow document: recorder totals, coverage, the
// retained tail samples (bounded at max entries, 0 = all), and the
// histogram-bucket exemplar links.
func (r *Recorder) WriteSlowJSON(w io.Writer, max int) error {
	if r == nil {
		_, err := io.WriteString(w, disabledJSON)
		return err
	}
	cov, attr, total := r.Coverage()
	by := map[string]int64{}
	for c, v := range r.Totals() {
		if v > 0 {
			by[obs.Cause(c).String()] = v
		}
	}
	slow := r.Slow(max)
	entries := make([]map[string]any, 0, len(slow))
	for _, wf := range slow {
		entries = append(entries, entryOf(wf))
	}
	ex := map[string][]int64{}
	for b, ids := range r.Exemplars() {
		ex[fmt.Sprintf("le_%d", int64(1)<<uint(b))] = ids
	}
	return writeDoc(w, map[string]any{
		"enabled":             true,
		"completed":           r.Completed(),
		"live":                r.Live(),
		"coverage":            cov,
		"attributed_ns":       attr,
		"total_latency_ns":    total,
		"wait_ns_by_cause":    by,
		"dropped_segments":    r.dropped.Load(),
		"slow":                entries,
		"histogram_exemplars": ex,
	})
}

// WriteTxnJSON writes one sampled transaction's waterfall (/slow/{txnid}),
// or {"found": false} when it was not retained.
func (r *Recorder) WriteTxnJSON(w io.Writer, txn int64) error {
	if r == nil {
		_, err := io.WriteString(w, disabledJSON)
		return err
	}
	wf := r.Lookup(txn)
	if wf == nil {
		return writeDoc(w, map[string]any{"enabled": true, "found": false, "txn": txn})
	}
	doc := entryOf(wf)
	doc["enabled"] = true
	doc["found"] = true
	return writeDoc(w, doc)
}

// chromeEvent mirrors the subset of the Chrome trace-event format the
// waterfall exporter emits (complete "X" spans and "M" metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int32          `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained waterfalls as Chrome trace-event
// JSON: one thread per sampled transaction (named after it), one outer span
// for the transaction's life, and one nested span per attributed segment —
// so a convoy reads as stacked line-wait slices pointing at their holder.
// Timestamps are simulated microseconds, matching the obs exporter.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`)
		return err
	}
	const pid = int32(1)
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: pid, TID: 0,
		Args: map[string]any{"name": "txn waterfalls (tail-sampled)"},
	}}
	for i, wf := range r.Slow(0) {
		t := int32(i + 1)
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: t,
			Args: map[string]any{"name": fmt.Sprintf("t%d.%d node%d", wf.Txn>>48, wf.Txn&((1<<48)-1), wf.Node)},
		})
		dur := float64(wf.Latency()) / 1e3
		events = append(events, chromeEvent{
			Name: "txn " + wf.Outcome.String(), Cat: "waterfall", Ph: "X",
			Ts: float64(wf.BeginSim) / 1e3, Dur: &dur, PID: pid, TID: t,
			Args: map[string]any{
				"txn": wf.Txn, "node": wf.Node, "latency_ns": wf.Latency(),
				"attributed_ns": wf.Attributed(), "reservoir": wf.Reservoir,
			},
		})
		for _, s := range wf.Segments {
			sd := float64(s.Dur) / 1e3
			args := map[string]any{"dur_ns": s.Dur}
			if s.Detail != 0 {
				args["detail"] = s.Detail
			}
			if s.Holder != 0 {
				args["holder_txn"] = s.Holder
			}
			events = append(events, chromeEvent{
				Name: s.Cause.String(), Cat: "waterfall", Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: &sd, PID: pid, TID: t, Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
	})
}

// WriteProm appends the waterfall's Prometheus lines: per-cause attributed
// wait counters plus the sampler's census.
func (r *Recorder) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# HELP smdb_txn_wait_ns Attributed transaction sim-time by cause.\n# TYPE smdb_txn_wait_ns counter\n"); err != nil {
		return err
	}
	totals := r.Totals()
	for c, v := range totals {
		if _, err := fmt.Fprintf(w, "smdb_txn_wait_ns{cause=%q} %d\n", obs.Cause(c).String(), v); err != nil {
			return err
		}
	}
	cov, attr, total := r.Coverage()
	_, err := fmt.Fprintf(w,
		"# HELP smdb_txn_waterfalls_total Completed transaction waterfalls.\n# TYPE smdb_txn_waterfalls_total counter\nsmdb_txn_waterfalls_total %d\n"+
			"# HELP smdb_txn_attributed_ns_total Attributed sim latency.\n# TYPE smdb_txn_attributed_ns_total counter\nsmdb_txn_attributed_ns_total %d\n"+
			"# HELP smdb_txn_latency_ns_total Measured sim latency.\n# TYPE smdb_txn_latency_ns_total counter\nsmdb_txn_latency_ns_total %d\n"+
			"# HELP smdb_txn_waterfall_coverage Attribution coverage (attributed/total).\n# TYPE smdb_txn_waterfall_coverage gauge\nsmdb_txn_waterfall_coverage %.6f\n",
		r.Completed(), attr, total, cov)
	return err
}

// WriteWaterfallJSON is the flight-recorder body (waterfall.json): the full
// /slow document plus the recovery-progress snapshot.
func (r *Recorder) WriteWaterfallJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, disabledJSON)
		return err
	}
	if err := r.WriteSlowJSON(w, 0); err != nil {
		return err
	}
	return r.Progress().WriteJSON(w)
}

// WriteWaterfallChrome, WriteWaterfallProm, and WriteRecoveryProgress are
// the names the obs.WaterfallSource interface uses (obs cannot import this
// package's types, so the recorder satisfies the interface structurally).
func (r *Recorder) WriteWaterfallChrome(w io.Writer) error { return r.WriteChromeTrace(w) }

// WriteWaterfallProm appends the Prometheus lines (see WriteProm).
func (r *Recorder) WriteWaterfallProm(w io.Writer) error { return r.WriteProm(w) }

// WriteRecoveryProgress writes the /recovery/progress document.
func (r *Recorder) WriteRecoveryProgress(w io.Writer) error { return r.Progress().WriteJSON(w) }

// Summary renders the one-line census obscli prints at Finish.
func (r *Recorder) Summary() string {
	if r == nil {
		return "waterfall disabled"
	}
	cov, _, total := r.Coverage()
	totals := r.Totals()
	s := fmt.Sprintf("waterfall: %d txns, coverage %.1f%% of %s", r.Completed(), cov*100, obs.FormatNS(total))
	for c, v := range totals {
		if v > 0 {
			s += fmt.Sprintf(" %s=%s", obs.Cause(c).String(), obs.FormatNS(v))
		}
	}
	return s
}
