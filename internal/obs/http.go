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
	m := newHTTPMux(nil)
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
//	/slow               tail-sampled slow-transaction waterfalls (?max=N)
//	/slow/trace         the sampled waterfalls as Chrome trace-event JSON
//	/slow/{txnid}       one sampled transaction's waterfall ("t0.3" or the
//	                    packed integer id)
//	/recovery/progress  live restart-recovery progress (rates, ETA)
//	/recovery/debt      live recovery-debt accounting (log debt per node,
//	                    MTTR history, estimated replay time)
//	/debug/pprof/       the standard Go profiler endpoints (mutex and block
//	                    record only once the host arms their sampling)
//
// current is called once per request and returns what to render right now,
// so a host that swaps its consumers between runs (one engine per seed)
// serves the latest ones; see Sources for what a nil field degrades to. A
// nil current renders the zero Sources.
func NewHTTPHandler(current func() Sources) http.Handler {
	return newHTTPMux(current).mux
}

func newHTTPMux(current func() Sources) *indexMux {
	if current == nil {
		current = func() Sources { return Sources{} }
	}
	start := time.Now()
	m := &indexMux{mux: http.NewServeMux()}
	m.handle("/healthz", "", func(w http.ResponseWriter, _ *http.Request) {
		o := current().Observer
		var events int64
		for k := Kind(0); k < numKinds; k++ {
			events += o.Count(k)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok events=%d uptime=%s\n", events, time.Since(start).Round(time.Millisecond))
	})
	m.handle("/metrics", "", func(w http.ResponseWriter, _ *http.Request) {
		src := current()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writers := []func(io.Writer) error{src.Observer.WritePrometheus}
		if src.Waterfall != nil {
			writers = append(writers, src.Waterfall.WriteWaterfallProm)
		}
		if src.Debt != nil {
			writers = append(writers, src.Debt.WriteDebtProm)
		}
		for _, write := range writers {
			if err := write(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
	})
	m.handle("/trace", "", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := current().Observer.WriteChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	m.handle("/deps", "/deps[?format=json]", func(w http.ResponseWriter, r *http.Request) {
		graph := current().Graph
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
	// optional serves one JSON document of a source that may be absent;
	// write is only called when present.
	optional := func(w http.ResponseWriter, present bool, write func() error) {
		w.Header().Set("Content-Type", "application/json")
		if !present {
			fmt.Fprintln(w, `{"enabled": false}`)
			return
		}
		if err := write(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	auditTxn := func(w http.ResponseWriter, id string) {
		aud := current().Audit
		optional(w, aud != nil, func() error { return aud.WriteAuditTxn(w, id) })
	}
	m.handle("/audit/txn", "", func(w http.ResponseWriter, _ *http.Request) {
		auditTxn(w, "")
	})
	m.handle("/audit/txn/", "/audit/txn/{id}", func(w http.ResponseWriter, r *http.Request) {
		auditTxn(w, strings.TrimPrefix(r.URL.Path, "/audit/txn/"))
	})
	m.handle("/audit/violations", "", func(w http.ResponseWriter, _ *http.Request) {
		aud := current().Audit
		optional(w, aud != nil, func() error { return aud.WriteAuditViolations(w) })
	})
	m.handle("/timeseries", "", func(w http.ResponseWriter, _ *http.Request) {
		aud := current().Audit
		optional(w, aud != nil, func() error { return aud.WriteTimeSeries(w) })
	})
	m.handle("/slow", "/slow[?max=N]", func(w http.ResponseWriter, r *http.Request) {
		max, _ := strconv.Atoi(r.URL.Query().Get("max"))
		wf := current().Waterfall
		optional(w, wf != nil, func() error { return wf.WriteSlowJSON(w, max) })
	})
	m.handle("/slow/trace", "", func(w http.ResponseWriter, _ *http.Request) {
		wf := current().Waterfall
		optional(w, wf != nil, func() error { return wf.WriteWaterfallChrome(w) })
	})
	m.handle("/slow/", "/slow/{txnid}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := parseTxnID(strings.TrimPrefix(r.URL.Path, "/slow/"))
		if !ok {
			http.Error(w, "bad txn id (want t<node>.<seq> or the packed integer)", http.StatusBadRequest)
			return
		}
		wf := current().Waterfall
		optional(w, wf != nil, func() error { return wf.WriteTxnJSON(w, id) })
	})
	m.handle("/recovery/progress", "", func(w http.ResponseWriter, _ *http.Request) {
		wf := current().Waterfall
		optional(w, wf != nil, func() error { return wf.WriteRecoveryProgress(w) })
	})
	m.handle("/recovery/debt", "", func(w http.ResponseWriter, _ *http.Request) {
		dbt := current().Debt
		optional(w, dbt != nil, func() error { return dbt.WriteDebtJSON(w) })
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
func ServeHTTP(addr string, current func() Sources) (*HTTPServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &HTTPServer{
		Addr: lis.Addr().String(),
		srv:  &http.Server{Handler: NewHTTPHandler(current)},
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
