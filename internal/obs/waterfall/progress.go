package waterfall

import (
	"encoding/json"
	"io"
	"sync"

	"smdb/internal/obs"
)

// Progress is the live recovery-progress observer behind /recovery/progress:
// while Recover runs it reports, per phase, records and bytes done, the
// wall-clock processing rate, and — once a planned total is known (the redo
// candidate count) — an ETA. It folds recovery's events: KindProgress opens
// the run and its attempts and carries plans and batched progress, each
// KindPhase span (the freeze excepted) closes its phase with its sim
// duration, and KindRecovery closes the run. A nil *Progress reports
// {"enabled": false}, like the recorder it belongs to.
type Progress struct {
	mu      sync.Mutex
	active  bool
	attempt int
	down    int
	startW  int64 // wall ns (monotonic) recovery began
	lastOK  bool
	runs    int
	current string
	phases  map[string]*PhaseProgress
	order   []string
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

	firstW, lastW int64 // wall ns of first/last progress event, for the rate
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

func (p *Progress) phaseLocked(name string) *PhaseProgress {
	ph := p.phases[name]
	if ph == nil {
		ph = &PhaseProgress{Phase: name}
		p.phases[name] = ph
		p.order = append(p.order, name)
	}
	return ph
}

// onEvent folds one recovery event (see Progress).
func (p *Progress) onEvent(e obs.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	name := e.Phase.String()
	switch {
	case e.Kind == obs.KindRecovery:
		p.active = false
		p.lastOK = e.C == 1
		p.current = ""
	case e.Kind == obs.KindPhase:
		if e.Phase == obs.PhaseFreeze {
			return // crash to recovery start: no phase of the run
		}
		ph := p.phaseLocked(name)
		ph.SimNS += e.Dur
		ph.Done = true
		if p.current == name {
			p.current = ""
		}
	case e.Phase == obs.PhaseNone && e.A == 0:
		p.active = true
		p.attempt = 0
		p.down = int(e.B)
		p.startW = now()
		p.current = ""
		p.phases = map[string]*PhaseProgress{}
		p.order = nil
		p.runs++
	case e.Phase == obs.PhaseNone:
		p.attempt = int(e.A)
	case e.C == 1:
		p.phaseLocked(name).Planned = e.A
	default:
		w := now()
		ph := p.phaseLocked(name)
		if ph.firstW == 0 {
			ph.firstW = w
		}
		ph.lastW = w
		ph.Records += e.A
		ph.Bytes += e.B
		p.current = name
	}
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
