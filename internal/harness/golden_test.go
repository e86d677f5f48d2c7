package harness

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record the experiment goldens under testdata")

// ruleLine matches a table's rule, the line under its header.
var ruleLine = regexp.MustCompile(`^[-~]+(  [-~]+)*$`)

// project is an experiment's output less its host-time cells: in every table
// each '~'-ruled column's cells read "~" and the table is realigned; every
// other line passes through. A table is a header line followed by a rule of
// the same length; its rows run to the next blank line or the next table.
func project(out string) string {
	lines := strings.Split(out, "\n")
	ruleAt := func(i int) bool {
		return i > 0 && i < len(lines) && ruleLine.MatchString(lines[i]) && len(lines[i]) == len(lines[i-1])
	}
	var b strings.Builder
	for i := 0; i < len(lines); {
		if !ruleAt(i + 1) {
			b.WriteString(lines[i])
			if i < len(lines)-1 {
				b.WriteByte('\n')
			}
			i++
			continue
		}
		rule := lines[i+1]
		var starts []int
		for j := range rule {
			if j == 0 || rule[j-1] == ' ' && rule[j] != ' ' {
				starts = append(starts, j)
			}
		}
		cells := func(line string) []string {
			out := make([]string, len(starts))
			for k, s := range starts {
				end := len(line)
				if k+1 < len(starts) {
					end = min(starts[k+1], len(line))
				}
				if s < end {
					out[k] = strings.TrimSpace(line[s:end])
				}
			}
			return out
		}
		t := &tableWriter{header: cells(lines[i])}
		var hostCol []bool
		for _, s := range starts {
			hostCol = append(hostCol, rule[s] == '~')
		}
		for k, h := range t.header {
			if hostCol[k] {
				t.host = append(t.host, h)
			}
		}
		j := i + 2
		for ; j < len(lines) && lines[j] != "" && !ruleAt(j+1); j++ {
			row := cells(lines[j])
			for k := range row {
				if hostCol[k] {
					row[k] = "~"
				}
			}
			t.addRow(row...)
		}
		for _, l := range strings.Split(t.String(), "\n") {
			if l != "" {
				b.WriteString(strings.TrimRight(l, " "))
				b.WriteByte('\n')
			}
		}
		i = j
	}
	return b.String()
}

func TestProjectBlanksHostColumns(t *testing.T) {
	tw := &tableWriter{header: []string{"protocol", "wall", "count"}, host: []string{"wall"}}
	tw.addRow("a", "12.345ms", "7")
	tw.addRow("bb", "1ms", "8")
	got := project("intro\n\n" + tw.String() + "\nafter\n")
	want := "intro\n\nprotocol  wall  count\n--------  ~~~~  -----\na         ~     7\nbb        ~     8\n\nafter\n"
	if got != want {
		t.Errorf("project =\n%q\nwant\n%q", got, want)
	}
}

// TestExperimentsGolden runs every experiment at seed 1 and compares what its
// seed determines — its output less the host-time columns — with
// testdata/<name>.golden. go test -run TestExperimentsGolden -update
// re-records the files.
func TestExperimentsGolden(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			out, err := e.Run(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := project(out)
			path := filepath.Join("testdata", e.Name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s (%s) differs from %s:\n--- got ---\n%s--- want ---\n%s", e.ID, e.Name, path, got, want)
			}
		})
	}
}
