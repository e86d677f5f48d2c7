package deps

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// Exporters: the dependency graph as Graphviz DOT and as JSON, served by
// the live introspection server's /deps endpoint and written into crash
// flight-recorder dumps. Both take a consistent snapshot under the tracker
// lock and render deterministically (sorted nodes, transactions, and
// holders), so they golden-test cleanly. The Tracker satisfies
// obs.GraphWriter.

// WriteDOT renders the live graph as Graphviz DOT: machine nodes as boxes
// (annotated when down), in-flight transactions as ellipses, and one edge
// per (transaction, node, line) dependency labelled with the line, the
// exposing coherency event, and the covering log record. Unlogged edges —
// the hazard LBM exists to prevent — render red.
func (t *Tracker) WriteDOT(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "digraph recovery_deps {\n  // no dependency tracker attached\n}\n")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	down := make(map[int32]bool)
	for _, c := range t.crashes {
		for _, n := range c.Nodes {
			down[n] = true
		}
	}
	nodeSet := make(map[int32]bool)
	ids := make([]int64, 0, len(t.txns))
	for id, ts := range t.txns {
		ids = append(ids, id)
		nodeSet[ts.node] = true
		for _, e := range ts.edges {
			nodeSet[e.To] = true
		}
	}
	sort.Slice(ids, func(i, j int) bool { return uint64(ids[i]) < uint64(ids[j]) })
	nodes := make([]int32, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	var b []byte
	b = append(b, "digraph recovery_deps {\n  rankdir=LR;\n  node [fontname=\"monospace\"];\n"...)
	for _, n := range nodes {
		label := fmt.Sprintf("node %d", n)
		attr := ""
		if down[n] {
			label += "\\n(down)"
			attr = ",style=filled,fillcolor=lightgray"
		}
		b = append(b, fmt.Sprintf("  \"node%d\" [shape=box,label=\"%s\"%s];\n", n, label, attr)...)
	}
	for _, id := range ids {
		ts := t.txns[id]
		b = append(b, fmt.Sprintf("  %q [shape=ellipse,label=\"%s\\n%s, %d writes\"];\n",
			tname(id), tname(id), ts.status, len(ts.writes))...)
		b = append(b, fmt.Sprintf("  %q -> \"node%d\" [style=dashed,label=\"home\"];\n",
			tname(id), ts.node)...)
		for _, e := range ts.edges {
			cover := fmt.Sprintf("lsn=%d", e.LSN)
			color := ""
			if e.Unlogged {
				cover = "UNLOGGED"
				color = ",color=red,fontcolor=red"
			}
			b = append(b, fmt.Sprintf("  %q -> \"node%d\" [label=\"0x%X %s %s\"%s];\n",
				tname(id), e.To, e.Line, e.Kind, cover, color)...)
		}
	}
	b = append(b, "}\n"...)
	_, err := w.Write(b)
	return err
}

// TxnJSON is one in-flight transaction in the JSON graph.
type TxnJSON struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Node   int32  `json:"node"`
	Status string `json:"status"`
	Writes int    `json:"writes"`
	Deps   []Edge `json:"deps"`
}

// LineJSON is one tracked cache line in the JSON graph.
type LineJSON struct {
	Line    int32           `json:"line"`
	Holders []int32         `json:"holders"`
	Writers []string        `json:"writers"`
	History []ResidencyStep `json:"history"`
}

// GraphJSON is the /deps?format=json document.
type GraphJSON struct {
	Txns      []TxnJSON        `json:"txns"`
	Lines     []LineJSON       `json:"lines"`
	ForcedLSN map[string]int64 `json:"forced_lsn"`
	Crashes   []Crash          `json:"crashes"`
	Census    Census           `json:"census"`
}

// Graph snapshots the full dependency graph.
func (t *Tracker) Graph() GraphJSON {
	if t == nil {
		return GraphJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g := GraphJSON{ForcedLSN: make(map[string]int64), Census: t.censusLocked()}
	ids := make([]int64, 0, len(t.txns))
	for id := range t.txns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return uint64(ids[i]) < uint64(ids[j]) })
	for _, id := range ids {
		ts := t.txns[id]
		g.Txns = append(g.Txns, TxnJSON{
			ID: id, Name: tname(id), Node: ts.node, Status: ts.status.String(),
			Writes: len(ts.writes), Deps: append([]Edge(nil), ts.edges...),
		})
	}
	lineIDs := make([]int32, 0, len(t.lines))
	for l := range t.lines {
		lineIDs = append(lineIDs, l)
	}
	sort.Slice(lineIDs, func(i, j int) bool { return lineIDs[i] < lineIDs[j] })
	for _, lid := range lineIDs {
		l := t.lines[lid]
		lj := LineJSON{Line: lid, History: append([]ResidencyStep(nil), l.history...)}
		for n := int32(0); n < 64; n++ {
			if l.holders&bit(n) != 0 {
				lj.Holders = append(lj.Holders, n)
			}
		}
		for _, ts := range t.writersLocked(l) {
			lj.Writers = append(lj.Writers, tname(ts.id))
		}
		g.Lines = append(g.Lines, lj)
	}
	for n, lsn := range t.forced {
		g.ForcedLSN[fmt.Sprintf("node%d", n)] = lsn
	}
	g.Crashes = append([]Crash(nil), t.crashes...)
	return g
}

// WriteGraphJSON writes the Graph snapshot as indented JSON.
func (t *Tracker) WriteGraphJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Graph())
}

// Census is the dependency-set size distribution over every transaction the
// tracker has seen — the quantity experiment E17 compares across LBM
// policies (stable LBM neutralizes dependencies by forcing before exposure;
// volatile LBM covers them with surviving volatile logs; the ablated
// control leaves them unlogged).
type Census struct {
	// Txns counts every transaction observed (settled plus in flight);
	// Active the in-flight subset.
	Txns   int `json:"txns"`
	Active int `json:"active"`
	// Edges counts dependency edges discovered; UnloggedEdges the subset
	// with no covering log record.
	Edges         int `json:"edges"`
	UnloggedEdges int `json:"unlogged_edges"`
	// TxnsWithDeps counts transactions that ever depended on another node;
	// TxnsWithUnlogged those that ever exposed an unlogged update.
	TxnsWithDeps     int `json:"txns_with_deps"`
	TxnsWithUnlogged int `json:"txns_with_unlogged"`
	// MaxDeps is the largest per-transaction dependency-set size; DepSizes
	// the full size histogram (distinct dependent nodes -> transactions).
	MaxDeps  int         `json:"max_deps"`
	DepSizes map[int]int `json:"dep_sizes"`
}

// MeanDeps is the mean dependency-set size across all transactions.
func (c Census) MeanDeps() float64 {
	if c.Txns == 0 {
		return 0
	}
	total := 0
	for size, n := range c.DepSizes {
		total += size * n
	}
	return float64(total) / float64(c.Txns)
}

// Census returns the cumulative dependency census.
func (t *Tracker) Census() Census {
	if t == nil {
		return Census{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.censusLocked()
}

func (t *Tracker) censusLocked() Census {
	c := Census{
		Txns:             t.settledTxns + len(t.txns),
		Active:           len(t.txns),
		Edges:            t.edgesTotal,
		UnloggedEdges:    t.unloggedTotal,
		TxnsWithDeps:     t.settledWithDeps,
		TxnsWithUnlogged: t.settledUnlogged,
		DepSizes:         make(map[int]int, len(t.settledSizes)+4),
	}
	for size, n := range t.settledSizes {
		c.DepSizes[size] += n
		if size > c.MaxDeps {
			c.MaxDeps = size
		}
	}
	for _, ts := range t.txns {
		size := bits.OnesCount64(ts.depNodes)
		c.DepSizes[size]++
		if size > 0 {
			c.TxnsWithDeps++
		}
		if ts.unlogged {
			c.TxnsWithUnlogged++
		}
		if size > c.MaxDeps {
			c.MaxDeps = size
		}
	}
	return c
}
