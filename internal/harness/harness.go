// Package harness drives the experiments that regenerate the paper's table,
// measured numbers, and quantitative claims (see DESIGN.md's experiment
// index E1-E10 and EXPERIMENTS.md for paper-vs-measured). Each experiment
// returns a typed result whose Table method prints the rows the paper
// reports; cmd/smdb-bench and the root bench_test.go are thin wrappers.
package harness

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/hooks"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// IFAProtocols are the protocols guaranteeing IFA, in presentation order.
func IFAProtocols() []recovery.Protocol {
	return []recovery.Protocol{
		recovery.VolatileRedoAll,
		recovery.VolatileSelectiveRedo,
		recovery.StableEager,
		recovery.StableTriggered,
	}
}

// newDB builds a database with the harness's standard geometry.
func newDB(proto recovery.Protocol, nodes, recsPerLine, pages int, coherency machine.Coherency) (*recovery.DB, error) {
	lockLines := 1024
	return recovery.New(recovery.Config{
		Machine: machine.Config{
			Nodes:     nodes,
			Lines:     pages*4 + lockLines + 128,
			Coherency: coherency,
		},
		Protocol:       proto,
		LinesPerPage:   4,
		RecsPerLine:    recsPerLine,
		Pages:          pages,
		LockTableLines: lockLines,
	})
}

// seededDB builds and seeds a database or fails loudly (configuration
// errors are programming errors in the harness).
func seededDB(proto recovery.Protocol, nodes, recsPerLine, pages int, coherency machine.Coherency) (*recovery.DB, error) {
	db, err := newDB(proto, nodes, recsPerLine, pages, coherency)
	if err != nil {
		return nil, err
	}
	if err := workload.Seed(db, 0); err != nil {
		return nil, err
	}
	// Seeding noise should not pollute experiment counters.
	db.M.ResetStats()
	return db, nil
}

// lcbMigrations counts the machine's migrations of a database's lock-table
// lines, from the migrate events of an observer it is the sink of. E7 and
// E14 report coherency migrations of data lines, which is what their claims
// are about, and these beside them: a lock call's getline migrates its LCB
// line whenever another node held it last.
type lcbMigrations struct {
	first, end machine.LineID
	n          atomic.Int64
}

// countLCBMigrations attaches an observer to db whose only consumer is the
// returned counter.
func countLCBMigrations(db *recovery.DB) *lcbMigrations {
	first, n := db.Locks.Lines()
	c := &lcbMigrations{first: first, end: first + machine.LineID(n)}
	o := obs.NewWithCapacity(1)
	o.SetSink(c)
	db.Attach(hooks.Set{Observer: o})
	return c
}

// OnEvent implements obs.Sink.
func (c *lcbMigrations) OnEvent(e obs.Event) {
	if l := machine.LineID(e.A); e.Kind == obs.KindMigrate && l >= c.first && l < c.end {
		c.n.Add(1)
	}
}

// totalLogForces sums physical stable-log forces across all nodes' devices.
func totalLogForces(db *recovery.DB) int64 {
	var n int64
	for _, l := range db.Logs {
		n += l.Device().Forces()
	}
	return n
}

// tableWriter accumulates an aligned text table. host names its host-time
// columns, which are ruled with '~' instead of '-' (see Experiment).
type tableWriter struct {
	header []string
	host   []string
	rows   [][]string
}

func (t *tableWriter) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tableWriter) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i, w := range width {
		rule := "-"
		if slices.Contains(t.host, t.header[i]) {
			rule = "~"
		}
		seps[i] = strings.Repeat(rule, w)
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// us formats nanoseconds as microseconds.
func us(ns int64) string { return fmt.Sprintf("%.1fus", float64(ns)/1e3) }

// ms formats nanoseconds as milliseconds.
func ms(ns int64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// mark renders a Table 1 checkmark.
func mark(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}

// defaultPages keeps experiments' heap sizes consistent.
const defaultPages = 16
