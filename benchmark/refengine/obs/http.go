package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The live introspection server: every cmd grows an -http flag serving the
// observability surface while the engine runs — Prometheus metrics, a
// Chrome-trace snapshot, the recovery-dependency graph, slow-transaction
// waterfalls, live recovery progress, a health probe, and net/http/pprof.
// Handlers snapshot under the observer's own locks, so scraping is safe
// mid-run.

// endpoint is one registered introspection path plus the display decoration
// the index shows for it ("" = the pattern itself).
type endpoint struct {
	pattern string
	display string
}

// indexMux wraps the mux so the root index is generated from the actual
// registrations rather than hand-maintained (which drifted every time an
// endpoint was added).
type indexMux struct {
	mux       *http.ServeMux
	endpoints []endpoint
}

// handle registers the handler and records the pattern for the index.
// display overrides how the index renders the pattern ("/deps[?format=json]"
// for "/deps"); prefix patterns ending in "/" are rendered with a {value}
// placeholder automatically.
func (m *indexMux) handle(pattern, display string, h http.HandlerFunc) {
	m.mux.HandleFunc(pattern, h)
	if display == "" {
		display = pattern
	}
	m.endpoints = append(m.endpoints, endpoint{pattern: pattern, display: display})
}

// Endpoints returns every introspection path the HTTP handler registers, in
// sorted order — the source of truth the index handler and its test share.
func Endpoints() []string {
	m := newHTTPMux(nil, nil, nil, nil, nil, nil)
	out := make([]string, 0, len(m.endpoints))
	for _, e := range m.endpoints {
		out = append(out, e.pattern)
	}
	sort.Strings(out)
	return out
}

// NewHTTPHandler builds the introspection mux:
//
//	/healthz            liveness ("ok events=N uptime=...")
//	/metrics            Prometheus text exposition (waterfall counters join
//	                    when a recorder is attached)
//	/trace              Chrome trace-event JSON snapshot (Perfetto-loadable)
//	/deps               dependency graph, DOT (default) or ?format=json
//	/audit/txn/{id}     one transaction's audit trail ("t0.3" or the packed
//	                    integer id); bare /audit/txn lists all trails
//	/audit/violations   the online IFA auditor's typed violations
//	/timeseries         windowed metrics ring + anomaly watchdog findings
//	/prof/stripes       contention profiler: per-stripe lock counters
//	/prof/workers       contention profiler: per-phase worker attribution
//	/slow               tail-sampled slow-transaction waterfalls (?max=N)
//	/slow/trace         the sampled waterfalls as Chrome trace-event JSON
//	/slow/{txnid}       one sampled transaction's waterfall ("t0.3" or the
//	                    packed integer id)
//	/recovery/progress  live restart-recovery progress (rates, ETA)
//	/recovery/debt      live recovery-debt accounting (log debt per node,
//	                    MTTR history, estimated replay time)
//	/debug/pprof/       the standard Go profiler endpoints
//
// o may be nil (endpoints degrade to empty documents), graph may be nil
// (/deps explains that no tracker is attached), and aud/prf/wf/dbt may be
// nil (their endpoints report {"enabled": false}).
func NewHTTPHandler(o *Observer, graph GraphWriter, aud AuditSource, prf ProfSource, wf WaterfallSource, dbt DebtSource) http.Handler {
	return newHTTPMux(o, graph, aud, prf, wf, dbt).mux
}

func newHTTPMux(o *Observer, graph GraphWriter, aud AuditSource, prf ProfSource, wf WaterfallSource, dbt DebtSource) *indexMux {
	start := time.Now()
	m := &indexMux{mux: http.NewServeMux()}
	m.handle("/healthz", "", func(w http.ResponseWriter, _ *http.Request) {
		var events int64
		for k := Kind(0); k < numKinds; k++ {
			events += o.Count(k)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok events=%d uptime=%s\n", events, time.Since(start).Round(time.Millisecond))
	})
	m.handle("/metrics", "", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if prf != nil {
			if err := prf.WriteProfProm(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		if wf != nil {
			if err := wf.WriteWaterfallProm(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		if dbt != nil {
			if err := dbt.WriteDebtProm(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	})
	m.handle("/trace", "", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := o.WriteChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	m.handle("/deps", "/deps[?format=json]", func(w http.ResponseWriter, r *http.Request) {
		if graph == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "digraph recovery_deps {\n  // no dependency tracker attached\n}")
			return
		}
		var err error
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			err = graph.WriteGraphJSON(w)
		} else {
			w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
			err = graph.WriteDOT(w)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	auditJSON := func(w http.ResponseWriter, write func(io.Writer) error) {
		w.Header().Set("Content-Type", "application/json")
		if aud == nil {
			fmt.Fprintln(w, `{"enabled": false}`)
			return
		}
		if err := write(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	auditTxn := func(w http.ResponseWriter, id string) {
		auditJSON(w, func(out io.Writer) error { return aud.WriteAuditTxn(out, id) })
	}
	m.handle("/audit/txn", "", func(w http.ResponseWriter, _ *http.Request) {
		auditTxn(w, "")
	})
	m.handle("/audit/txn/", "/audit/txn/{id}", func(w http.ResponseWriter, r *http.Request) {
		auditTxn(w, strings.TrimPrefix(r.URL.Path, "/audit/txn/"))
	})
	m.handle("/audit/violations", "", func(w http.ResponseWriter, _ *http.Request) {
		auditJSON(w, func(out io.Writer) error { return aud.WriteAuditViolations(out) })
	})
	m.handle("/timeseries", "", func(w http.ResponseWriter, _ *http.Request) {
		auditJSON(w, func(out io.Writer) error { return aud.WriteTimeSeries(out) })
	})
	profJSON := func(w http.ResponseWriter, write func(io.Writer) error) {
		w.Header().Set("Content-Type", "application/json")
		if prf == nil {
			fmt.Fprintln(w, `{"enabled": false}`)
			return
		}
		if err := write(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	m.handle("/prof/stripes", "", func(w http.ResponseWriter, _ *http.Request) {
		profJSON(w, func(out io.Writer) error { return prf.WriteProfStripes(out) })
	})
	m.handle("/prof/workers", "", func(w http.ResponseWriter, _ *http.Request) {
		profJSON(w, func(out io.Writer) error { return prf.WriteProfWorkers(out) })
	})
	wfJSON := func(w http.ResponseWriter, ct string, write func(io.Writer) error) {
		w.Header().Set("Content-Type", ct)
		if wf == nil {
			fmt.Fprintln(w, `{"enabled": false}`)
			return
		}
		if err := write(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	m.handle("/slow", "/slow[?max=N]", func(w http.ResponseWriter, r *http.Request) {
		max, _ := strconv.Atoi(r.URL.Query().Get("max"))
		wfJSON(w, "application/json", func(out io.Writer) error { return wf.WriteSlowJSON(out, max) })
	})
	m.handle("/slow/trace", "", func(w http.ResponseWriter, _ *http.Request) {
		wfJSON(w, "application/json", func(out io.Writer) error { return wf.WriteWaterfallChrome(out) })
	})
	m.handle("/slow/", "/slow/{txnid}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := parseTxnID(strings.TrimPrefix(r.URL.Path, "/slow/"))
		if !ok {
			http.Error(w, "bad txn id (want t<node>.<seq> or the packed integer)", http.StatusBadRequest)
			return
		}
		wfJSON(w, "application/json", func(out io.Writer) error { return wf.WriteTxnJSON(out, id) })
	})
	m.handle("/recovery/progress", "", func(w http.ResponseWriter, _ *http.Request) {
		wfJSON(w, "application/json", func(out io.Writer) error { return wf.WriteRecoveryProgress(out) })
	})
	m.handle("/recovery/debt", "", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if dbt == nil {
			fmt.Fprintln(w, `{"enabled": false}`)
			return
		}
		if err := dbt.WriteDebtJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	m.handle("/debug/pprof/", "", pprof.Index)
	m.handle("/debug/pprof/cmdline", "", pprof.Cmdline)
	m.handle("/debug/pprof/profile", "", pprof.Profile)
	m.handle("/debug/pprof/symbol", "", pprof.Symbol)
	m.handle("/debug/pprof/trace", "", pprof.Trace)
	// The index is generated from the registrations above: every handle()
	// call appears, rendered by its display form, in sorted order.
	index := make([]string, 0, len(m.endpoints))
	for _, e := range m.endpoints {
		index = append(index, e.display)
	}
	sort.Strings(index)
	m.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "smdb introspection endpoints:")
		for _, e := range index {
			fmt.Fprintf(w, "  %s\n", e)
		}
	})
	return m
}

// parseTxnID accepts "t<node>.<seq>" (the engine's display form) or the
// packed integer transaction id.
func parseTxnID(s string) (int64, bool) {
	if rest, ok := strings.CutPrefix(s, "t"); ok {
		nd, seq, found := strings.Cut(rest, ".")
		if !found {
			return 0, false
		}
		n, err1 := strconv.ParseInt(nd, 10, 16)
		q, err2 := strconv.ParseInt(seq, 10, 64)
		if err1 != nil || err2 != nil || n < 0 || q < 0 || q >= 1<<48 {
			return 0, false
		}
		return n<<48 | q, true
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// HTTPServer is a running introspection server.
type HTTPServer struct {
	Addr string // bound address (resolves ":0" requests)
	srv  *http.Server
	lis  net.Listener
	done atomic.Bool
}

// ServeHTTP starts the introspection server on addr (e.g. "127.0.0.1:8321"
// or "127.0.0.1:0") in a background goroutine and returns once the listener
// is bound. Close with Shutdown.
func ServeHTTP(addr string, o *Observer, graph GraphWriter, aud AuditSource, prf ProfSource, wf WaterfallSource, dbt DebtSource) (*HTTPServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &HTTPServer{
		Addr: lis.Addr().String(),
		srv:  &http.Server{Handler: NewHTTPHandler(o, graph, aud, prf, wf, dbt)},
		lis:  lis,
	}
	go func() { _ = s.srv.Serve(lis) }()
	return s, nil
}

// Shutdown stops the server, closing the listener. Safe to call twice.
func (s *HTTPServer) Shutdown() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	_ = s.srv.Close()
}
