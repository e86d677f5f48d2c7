package waterfall

import (
	"encoding/json"
	"io"
	"sync"
)

// Progress is the live recovery-progress observer behind /recovery/progress:
// while Recover runs it reports, per phase, records and bytes done, the
// wall-clock processing rate, and — once a planned total is known (the redo
// candidate count) — an ETA. Sim-time phase durations are folded in as each
// phase closes. A nil *Progress no-ops, like the recorder it belongs to.
type Progress struct {
	mu       sync.Mutex
	active   bool
	attempt  int
	down     int
	startW   int64 // wall ns (monotonic) recovery began
	lastOK   bool
	runs     int
	current  string
	phases   map[string]*PhaseProgress
	order    []string
	lastSimD int64
}

// PhaseProgress is one recovery phase's accumulated progress.
type PhaseProgress struct {
	Phase   string `json:"phase"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
	// Planned is the known total work (0 = unknown), set once discovery
	// (collectRedo) has counted the candidates.
	Planned int64 `json:"planned,omitempty"`
	// SimNS is the phase's simulated duration, folded in when it closes.
	SimNS int64 `json:"sim_ns"`
	Done  bool  `json:"done"`

	firstW, lastW int64 // wall ns of first/last Note, for the rate
}

// RatePerSec is the phase's wall-clock record rate (0 until measurable).
func (p *PhaseProgress) RatePerSec() float64 {
	d := p.lastW - p.firstW
	if d <= 0 || p.Records == 0 {
		return 0
	}
	return float64(p.Records) / (float64(d) / 1e9)
}

// ETANS estimates wall ns remaining from the planned total and current
// rate; -1 when unknowable (no plan, no rate, or already done).
func (p *PhaseProgress) ETANS() int64 {
	if p.Done || p.Planned <= 0 || p.Records >= p.Planned {
		return -1
	}
	rate := p.RatePerSec()
	if rate <= 0 {
		return -1
	}
	return int64(float64(p.Planned-p.Records) / rate * 1e9)
}

func newProgress() *Progress {
	return &Progress{phases: map[string]*PhaseProgress{}}
}

// Start opens a recovery run over `down` crashed nodes, resetting per-run
// phase state.
func (p *Progress) Start(down int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.active = true
	p.attempt = 0
	p.down = down
	p.startW = now()
	p.current = ""
	p.phases = map[string]*PhaseProgress{}
	p.order = nil
	p.runs++
	p.mu.Unlock()
}

// Attempt records the current recovery attempt number (coordinator
// failovers re-enter recovery with attempt > 1).
func (p *Progress) Attempt(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.attempt = n
	p.mu.Unlock()
}

// End closes the recovery run.
func (p *Progress) End(ok bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.active = false
	p.lastOK = ok
	p.current = ""
	p.mu.Unlock()
}

func (p *Progress) phaseLocked(name string) *PhaseProgress {
	ph := p.phases[name]
	if ph == nil {
		ph = &PhaseProgress{Phase: name}
		p.phases[name] = ph
		p.order = append(p.order, name)
	}
	return ph
}

// Note adds records/bytes of completed work to the named phase and marks it
// current. Hot during redo apply; one mutex, no allocation after the first
// Note per phase.
func (p *Progress) Note(phase string, records, bytes int) {
	if p == nil {
		return
	}
	w := now()
	p.mu.Lock()
	ph := p.phaseLocked(phase)
	if ph.firstW == 0 {
		ph.firstW = w
	}
	ph.lastW = w
	ph.Records += int64(records)
	ph.Bytes += int64(bytes)
	p.current = phase
	p.mu.Unlock()
}

// Plan sets the named phase's known total work (the redo candidate count),
// enabling its ETA.
func (p *Progress) Plan(phase string, planned int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phaseLocked(phase).Planned = int64(planned)
	p.mu.Unlock()
}

// PhaseDone closes the named phase with its simulated duration (called from
// the recovery pipeline's phase tracker as each span ends).
func (p *Progress) PhaseDone(phase string, simNS int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	ph := p.phaseLocked(phase)
	ph.SimNS += simNS
	ph.Done = true
	if p.current == phase {
		p.current = ""
	}
	p.lastSimD += simNS
	p.mu.Unlock()
}

// progressDoc is the /recovery/progress JSON body.
type progressDoc struct {
	Enabled bool   `json:"enabled"`
	Active  bool   `json:"active"`
	Runs    int    `json:"runs"`
	Attempt int    `json:"attempt,omitempty"`
	Down    int    `json:"down,omitempty"`
	LastOK  bool   `json:"last_ok"`
	WallNS  int64  `json:"wall_ns,omitempty"`
	Current string `json:"current,omitempty"`
	Phases  []struct {
		PhaseProgress
		RatePerSec float64 `json:"rate_per_sec"`
		ETANS      int64   `json:"eta_ns"`
	} `json:"phases"`
}

// WriteJSON writes the live progress document.
func (p *Progress) WriteJSON(w io.Writer) error {
	if p == nil {
		_, err := io.WriteString(w, "{\"enabled\": false}\n")
		return err
	}
	p.mu.Lock()
	doc := progressDoc{
		Enabled: true,
		Active:  p.active,
		Runs:    p.runs,
		Attempt: p.attempt,
		Down:    p.down,
		LastOK:  p.lastOK,
		Current: p.current,
	}
	if p.active {
		doc.WallNS = now() - p.startW
	}
	for _, name := range p.order {
		ph := *p.phases[name]
		var row struct {
			PhaseProgress
			RatePerSec float64 `json:"rate_per_sec"`
			ETANS      int64   `json:"eta_ns"`
		}
		row.PhaseProgress = ph
		row.RatePerSec = ph.RatePerSec()
		row.ETANS = ph.ETANS()
		doc.Phases = append(doc.Phases, row)
	}
	p.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Snapshot returns a copy of the per-phase progress in first-seen order.
func (p *Progress) Snapshot() []PhaseProgress {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PhaseProgress, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, *p.phases[name])
	}
	return out
}
