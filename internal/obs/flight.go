package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The crash flight recorder: on any node crash or IFA-check failure the
// engine dumps a post-mortem snapshot — the last-N trace events per node,
// the recovery-dependency graph, and engine stats deltas — into a fresh
// timestamped directory, so a failed chaos run leaves enough evidence to
// reconstruct the failure without re-running it.

// GraphWriter renders a dependency graph (deps.Tracker satisfies it; the
// interface lives here so obs does not import its own subpackage).
type GraphWriter interface {
	WriteDOT(io.Writer) error
	WriteGraphJSON(io.Writer) error
}

// AuditSource renders the online auditor's three surfaces (audit.Auditor
// satisfies it; like GraphWriter, the interface lives here so obs does not
// import its own subpackage). WriteAuditTxn with an empty id writes the
// full trail listing.
type AuditSource interface {
	WriteAuditTxn(w io.Writer, id string) error
	WriteAuditViolations(w io.Writer) error
	WriteTimeSeries(w io.Writer) error
}

// WaterfallSource renders the per-transaction latency waterfall surfaces
// (waterfall.Recorder satisfies it; like GraphWriter, the interface lives
// here so obs does not import its own subpackage). WriteWaterfallJSON is the
// combined document the flight recorder stores as waterfall.json;
// WriteWaterfallProm appends Prometheus lines to /metrics.
type WaterfallSource interface {
	WriteSlowJSON(w io.Writer, max int) error
	WriteTxnJSON(w io.Writer, txn int64) error
	WriteWaterfallChrome(w io.Writer) error
	WriteWaterfallProm(w io.Writer) error
	WriteWaterfallJSON(w io.Writer) error
	WriteRecoveryProgress(w io.Writer) error
}

// DebtSource renders the recovery-debt tracker's surfaces (debt.Tracker
// satisfies it; like GraphWriter, the interface lives here so obs does not
// import its own subpackage). WriteDebtJSON is the combined document the
// flight recorder stores as debt.json and the /recovery/debt endpoint
// serves; WriteDebtProm appends Prometheus lines to /metrics.
type DebtSource interface {
	WriteDebtJSON(w io.Writer) error
	WriteDebtProm(w io.Writer) error
}

// Sources is everything the introspection server and the flight recorder
// render, as one value. Any field may be nil: a nil Observer degrades its
// endpoints to empty documents, a nil Graph makes /deps explain that no
// tracker is attached, and a nil Audit/Waterfall/Debt source reports
// {"enabled": false} over HTTP and is left out of a flight dump. Stats is the
// flight recorder's stats.txt writer (called once per dump; implementations
// typically print deltas since the previous dump); the HTTP server ignores
// it.
type Sources struct {
	Observer  *Observer
	Graph     GraphWriter
	Audit     AuditSource
	Waterfall WaterfallSource
	Debt      DebtSource
	Stats     func(io.Writer) error
}

// DefaultFlightEvents is the per-node event tail retained in a dump.
const DefaultFlightEvents = 256

// maxDumps is the dump budget, so a crash loop cannot fill the disk: the
// first 64 dumps are kept, later ones skipped.
const maxDumps = 64

// FlightRecorder writes crash dumps. A nil recorder is inert (all methods
// are nil-receiver safe), so the engine hooks cost one pointer test when
// disabled.
type FlightRecorder struct {
	mu    sync.Mutex
	dir   string
	lastN int
	seq   int
	src   Sources
	aux   map[string]func(io.Writer) error
	dumps []string
}

// NewFlightRecorder creates a recorder dumping into subdirectories of dir
// (created on first dump). lastN bounds the per-node event tail; <= 0 uses
// DefaultFlightEvents.
func NewFlightRecorder(dir string, lastN int) *FlightRecorder {
	if lastN <= 0 {
		lastN = DefaultFlightEvents
	}
	return &FlightRecorder{dir: dir, lastN: lastN}
}

// SetSources replaces what the recorder dumps: the observer whose event
// rings are tailed, and one group of files per non-nil source (see Sources).
func (r *FlightRecorder) SetSources(src Sources) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.src = src
	r.mu.Unlock()
}

// SetAux registers (or, with a nil fn, removes) an auxiliary file written
// into every subsequent dump and listed in its MANIFEST. The chaos harness
// uses it to attach the recorded schedule (schedule.json) to violation
// dumps, so a dump carries its own deterministic repro. Aux writers run
// under the recorder mutex; keep them self-contained.
func (r *FlightRecorder) SetAux(name string, fn func(io.Writer) error) {
	if r == nil || name == "" {
		return
	}
	r.mu.Lock()
	if r.aux == nil {
		r.aux = make(map[string]func(io.Writer) error)
	}
	if fn == nil {
		delete(r.aux, name)
	} else {
		r.aux[name] = fn
	}
	r.mu.Unlock()
}

// Dumps lists the directories written so far.
func (r *FlightRecorder) Dumps() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.dumps...)
}

// sanitize keeps reason strings path-safe.
func sanitize(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "dump"
	}
	return b.String()
}

// flightEvent is the JSON rendering of one trace event.
type flightEvent struct {
	Sim   int64  `json:"sim"`
	Wall  int64  `json:"wall"`
	Kind  string `json:"kind"`
	Phase string `json:"phase,omitempty"`
	Dur   int64  `json:"dur,omitempty"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	C     int64  `json:"c"`
}

// Dump writes one post-mortem directory named <seq>-<reason>-<stamp> and
// returns its path. Dumps beyond the budget are skipped and, like a nil
// recorder's, return ("", nil).
func (r *FlightRecorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq >= maxDumps {
		return "", nil
	}
	r.seq++
	name := fmt.Sprintf("%03d-%s-%s", r.seq, sanitize(reason),
		time.Now().UTC().Format("20060102T150405.000000000"))
	dir := filepath.Join(r.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	// Group the observer's retained events by node and keep each tail.
	byNode := map[int32][]Event{}
	var nodes []int32
	for _, e := range r.src.Observer.Events() {
		if _, ok := byNode[e.Node]; !ok {
			nodes = append(nodes, e.Node)
		}
		byNode[e.Node] = append(byNode[e.Node], e)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for n, evs := range byNode {
		if len(evs) > r.lastN {
			byNode[n] = evs[len(evs)-r.lastN:]
		}
	}

	// The dump is one list of files: the MANIFEST names exactly what is
	// written, in the order it is written.
	src := r.src
	type dumpFile struct {
		name  string
		write func(io.Writer) error
	}
	files := []dumpFile{
		{"events.json", func(w io.Writer) error {
			doc := struct {
				Reason string                   `json:"reason"`
				Nodes  map[string][]flightEvent `json:"nodes"`
			}{Reason: reason, Nodes: map[string][]flightEvent{}}
			for n, evs := range byNode {
				key := fmt.Sprintf("node%d", n)
				if n == SystemNode {
					key = "system"
				}
				out := make([]flightEvent, 0, len(evs))
				for _, e := range evs {
					fe := flightEvent{Sim: e.Sim, Wall: e.Wall, Kind: e.Kind.String(), Dur: e.Dur, A: e.A, B: e.B, C: e.C}
					if e.Phase != PhaseNone {
						fe.Phase = e.Phase.String()
					}
					out = append(out, fe)
				}
				doc.Nodes[key] = out
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}},
		{"events.txt", func(w io.Writer) error {
			for _, n := range nodes {
				label := fmt.Sprintf("node %d", n)
				if n == SystemNode {
					label = "system"
				}
				fmt.Fprintf(w, "== %s (last %d events)\n", label, len(byNode[n]))
				for _, e := range byNode[n] {
					name := e.Kind.String()
					if e.Kind == KindPhase {
						name = "phase:" + e.Phase.String()
					}
					fmt.Fprintf(w, "  sim=%-12d %-16s a=%-8d b=%-8d c=%-8d dur=%d\n", e.Sim, name, e.A, e.B, e.C, e.Dur)
				}
			}
			return nil
		}},
	}
	if g := src.Graph; g != nil {
		files = append(files, dumpFile{"deps.dot", g.WriteDOT}, dumpFile{"deps.json", g.WriteGraphJSON})
	}
	if a := src.Audit; a != nil {
		files = append(files,
			dumpFile{"violations.json", a.WriteAuditViolations},
			dumpFile{"audit_trails.json", func(w io.Writer) error { return a.WriteAuditTxn(w, "") }},
			dumpFile{"timeseries.json", a.WriteTimeSeries})
	}
	if src.Waterfall != nil {
		files = append(files, dumpFile{"waterfall.json", src.Waterfall.WriteWaterfallJSON})
	}
	if src.Debt != nil {
		files = append(files, dumpFile{"debt.json", src.Debt.WriteDebtJSON})
	}
	if src.Stats != nil {
		files = append(files, dumpFile{"stats.txt", src.Stats})
	}
	// Aux files are written (and listed) in sorted-name order.
	auxNames := make([]string, 0, len(r.aux))
	for name := range r.aux {
		auxNames = append(auxNames, name)
	}
	sort.Strings(auxNames)
	for _, name := range auxNames {
		files = append(files, dumpFile{name, r.aux[name]})
	}

	if err := writeFile(dir, "MANIFEST.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "reason: %s\nwall: %s\nevents-per-node: %d\n",
			reason, time.Now().UTC().Format(time.RFC3339Nano), r.lastN)
		fmt.Fprintf(w, "files: MANIFEST.txt")
		for _, f := range files {
			fmt.Fprintf(w, " %s", f.name)
		}
		fmt.Fprintln(w)
		if src.Observer != nil {
			fmt.Fprintln(w)
			return src.Observer.MetricsTable(w)
		}
		return nil
	}); err != nil {
		return "", err
	}
	for _, f := range files {
		if err := writeFile(dir, f.name, f.write); err != nil {
			return "", err
		}
	}
	r.dumps = append(r.dumps, dir)
	return dir, nil
}

func writeFile(dir, name string, fn func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
