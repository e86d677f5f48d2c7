package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Exporters. All three render the observer's retained events and histograms;
// they take a snapshot, so they are safe to call while the engine runs.

// chromeEvent is one Chrome trace-event record (the subset of the format the
// exporter uses: complete spans "X", instants "i", and metadata "M").
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int32          `json:"pid"`
	TID  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object trace container.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// tid maps a node onto a Chrome thread id: nodes keep their own id shifted
// past the system track, which gets tid 0.
func tid(node int32) int32 {
	if node == SystemNode {
		return 0
	}
	return node + 1
}

// WriteChromeTrace writes the retained events as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps are
// the engine's simulated clock (microseconds in the trace, as the format
// dictates); each trace process is one BeginProcess group, each thread one
// node, with recovery spans on a dedicated "recovery" thread. Phase spans
// nest inside their enclosing recovery span by containment.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`)
		return err
	}
	events := o.Events()
	procs := o.processes()

	trace := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}

	// Metadata: name every process and every thread that has events.
	type track struct{ pid, node int32 }
	seen := map[track]bool{}
	for _, e := range events {
		seen[track{e.PID, e.Node}] = true
	}
	pids := make([]int32, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": procs[pid]},
		})
	}
	tracks := make([]track, 0, len(seen))
	for t := range seen {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tid(tracks[i].node) < tid(tracks[j].node)
	})
	for _, t := range tracks {
		name := "recovery"
		if t.node != SystemNode {
			name = fmt.Sprintf("node %d", t.node)
		}
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: t.pid, TID: tid(t.node),
			Args: map[string]any{"name": name},
		})
	}

	for _, e := range events {
		ce := chromeEvent{
			Name: e.Kind.String(),
			Cat:  "smdb",
			Ts:   float64(e.Sim) / 1e3, // sim ns -> trace µs
			PID:  e.PID,
			TID:  tid(e.Node),
		}
		switch e.Kind {
		case KindPhase, KindRecovery:
			if e.Kind == KindPhase {
				ce.Name = e.Phase.String()
			}
			dur := float64(e.Dur) / 1e3
			ce.Ph = "X"
			ce.Dur = &dur
			ce.Args = map[string]any{"sim_ns": e.Sim, "dur_ns": e.Dur}
		case KindDepEdge:
			// Dependency edges decode their packed argument so a trace
			// viewer shows which node/line the transaction depends on.
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]any{
				"txn":  e.A,
				"to":   e.B >> 32,
				"line": e.B & 0xffffffff,
			}
		default:
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]any{"a": e.A, "b": e.B, "c": e.C}
		}
		trace.TraceEvents = append(trace.TraceEvents, ce)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// WritePrometheus writes the counters and histograms in Prometheus text
// exposition format (metric stems smdb_events_total and smdb_<histogram>).
func (o *Observer) WritePrometheus(w io.Writer) error {
	if o == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# HELP smdb_events_total Trace events recorded, by kind.\n# TYPE smdb_events_total counter\n"); err != nil {
		return err
	}
	for k := Kind(0); k < numKinds; k++ {
		if _, err := fmt.Fprintf(w, "smdb_events_total{kind=%q} %d\n", k.String(), o.Count(k)); err != nil {
			return err
		}
	}
	for _, h := range o.Histograms() {
		s := h.Snapshot()
		stem := "smdb_" + s.Name
		if _, err := fmt.Fprintf(w, "# HELP %s Engine latency (simulated nanoseconds).\n# TYPE %s histogram\n", stem, stem); err != nil {
			return err
		}
		// Cumulative buckets, up to the highest populated one.
		top := 0
		for i, c := range s.Buckets {
			if c > 0 {
				top = i
			}
		}
		var cum int64
		for i := 0; i <= top; i++ {
			cum += s.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", stem, bucketUpper(i), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			stem, s.Count, stem, s.Sum, stem, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// MetricsTable writes an aligned, human-readable summary: per-kind event
// counts followed by the latency histograms' quantiles.
func (o *Observer) MetricsTable(w io.Writer) error {
	if o == nil {
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "event\tcount")
	for k := Kind(0); k < numKinds; k++ {
		if c := o.Count(k); c > 0 {
			fmt.Fprintf(tw, "%s\t%d\n", k.String(), c)
		}
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "latency (sim)\tcount\tmean\tp50\tp95\tp99\tmax")
	for _, h := range o.Histograms() {
		s := h.Snapshot()
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			strings.TrimSuffix(s.Name, "_ns"), s.Count,
			FormatNS(s.Mean()), FormatNS(s.Quantile(0.50)),
			FormatNS(s.Quantile(0.95)), FormatNS(s.Quantile(0.99)),
			FormatNS(s.Max))
	}
	return tw.Flush()
}

// FormatNS renders a simulated-nanosecond duration in a compact human unit.
func FormatNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// FormatPhases renders a phase breakdown as "name=dur" pairs in span order,
// for experiment table columns. Zero-duration phases are elided unless
// everything is zero.
func FormatPhases(spans []PhaseSpan) string {
	var parts []string
	for _, s := range spans {
		if s.Dur > 0 {
			parts = append(parts, fmt.Sprintf("%s=%s", s.Phase, FormatNS(s.Dur)))
		}
	}
	if len(parts) == 0 {
		if len(spans) == 0 {
			return "-"
		}
		return "all=0ns"
	}
	return strings.Join(parts, " ")
}
