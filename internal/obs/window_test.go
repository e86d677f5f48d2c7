package obs

import (
	"fmt"
	"reflect"
	"testing"
)

// resident lists the ring's windows, oldest first, as id:count.
func resident(r *WindowRing[int]) []string {
	var out []string
	r.Each(func(id int64, w *int) { out = append(out, fmt.Sprintf("%d:%d", id, *w)) })
	return out
}

func TestWindowRingEvictionAndStragglers(t *testing.T) {
	const n, width = 4, 100
	r := NewWindowRing[int](width, n, nil)
	// n+1 ids: the oldest is evicted by the id n above it.
	for id := int64(0); id <= n; id++ {
		*r.At(id*width + 10)++
	}
	if got, want := resident(r), []string{"1:1", "2:1", "3:1", "4:1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resident = %v, want %v", got, want)
	}
	// A straggler for the evicted id is dropped and leaves the ring alone.
	if w := r.At(50); w != nil {
		t.Fatalf("straggler for evicted window 0 got a window (%d)", *w)
	}
	// A straggler inside the horizon counts in its own window.
	*r.At(2*width + 99)++
	if got, want := resident(r), []string{"1:1", "2:2", "3:1", "4:1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resident after stragglers = %v, want %v", got, want)
	}
	if id, w := r.Newest(); id != n || *w != 1 {
		t.Fatalf("newest = %d:%d, want %d:1", id, *w, n)
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	// Negative sims count as 0, which is behind the horizon here.
	if r.At(-5) != nil {
		t.Fatal("negative sim opened a window")
	}
}

// closeLog returns a close hook recording id:count into *closed.
func closeLog(closed *[]string) func(id int64, w *int) {
	return func(id int64, w *int) { *closed = append(*closed, fmt.Sprintf("%d:%d", id, *w)) }
}

func TestWindowRingCloseHook(t *testing.T) {
	const n, width = 4, 10
	var closed []string
	r := NewWindowRing(width, n, closeLog(&closed))
	for _, sim := range []int64{
		5, 7, // window 0, twice
		25,     // window 2 closes 0
		12,     // a straggler opens window 1 behind 2
		31, 33, // window 3 closes 1 and 2, in id order
		39,  // still 3
		105, // window 10, more than n ahead, still closes 3
		112, // window 11 closes 10
	} {
		*r.At(sim)++
	}
	if want := []string{"0:2", "1:1", "2:1", "3:3", "10:1"}; !reflect.DeepEqual(closed, want) {
		t.Fatalf("closed = %v, want %v (once each, in id order)", closed, want)
	}
	// 10 and 11 took the slots of 2 and 3; 0 and the straggler's 1 linger.
	if got, want := resident(r), []string{"0:2", "1:1", "10:1", "11:1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resident = %v, want %v", got, want)
	}
	*r.At(125)++ // window 12 closes 11 and takes 0's slot
	*r.At(113)++ // a straggler in the closed window 11 counts there
	*r.At(131)++ // window 13 closes 12 only
	if want := []string{"0:2", "1:1", "2:1", "3:3", "10:1", "11:1", "12:1"}; !reflect.DeepEqual(closed, want) {
		t.Fatalf("closed = %v, want %v", closed, want)
	}
	if got, want := resident(r), []string{"10:1", "11:2", "12:1", "13:1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resident = %v, want %v", got, want)
	}
}

// TestWindowRingClosesAcrossAJump: a newer id exactly n+1 ahead takes no
// slot of the window it passes, and one 2n ahead takes its slot; either way
// the old window is closed before the new one opens.
func TestWindowRingClosesAcrossAJump(t *testing.T) {
	const n, width = 4, 10
	for _, jump := range []int64{n + 1, 2 * n} {
		var closed []string
		r := NewWindowRing(width, n, closeLog(&closed))
		*r.At(3)++
		*r.At(4)++
		*r.At(jump*width + 1)++
		if want := []string{"0:2"}; !reflect.DeepEqual(closed, want) {
			t.Errorf("jump %d: closed = %v, want %v", jump, closed, want)
		}
		if id, w := r.Newest(); id != jump || *w != 1 {
			t.Errorf("jump %d: newest = %d:%d, want %d:1", jump, id, *w, jump)
		}
	}
}

// TestWindowRingClosesAStragglersWindow: a window a straggler opens behind
// the newest is closed by the next newer id, with the newest, in id order;
// until then it is the only window behind the newest left open.
func TestWindowRingClosesAStragglersWindow(t *testing.T) {
	const n, width = 8, 10
	var closed []string
	r := NewWindowRing(width, n, closeLog(&closed))
	*r.At(1)++  // window 0
	*r.At(51)++ // window 5 closes 0
	*r.At(32)++ // a straggler opens 3
	*r.At(21)++ // and 2
	*r.At(33)++ // and counts twice in 3
	if want := []string{"0:1"}; !reflect.DeepEqual(closed, want) {
		t.Fatalf("closed = %v, want %v before a newer id", closed, want)
	}
	*r.At(61)++ // window 6 closes 2, 3 and 5
	if want := []string{"0:1", "2:1", "3:2", "5:1"}; !reflect.DeepEqual(closed, want) {
		t.Fatalf("closed = %v, want %v", closed, want)
	}
}

func TestWindowRingEmpty(t *testing.T) {
	r := NewWindowRing[int](10, 4, nil)
	if id, w := r.Newest(); id != -1 || w != nil {
		t.Fatalf("empty ring's newest = %d, %v", id, w)
	}
	if r.Len() != 0 || resident(r) != nil {
		t.Fatalf("empty ring holds %v", resident(r))
	}
}

func TestAnomalyLogBound(t *testing.T) {
	var l AnomalyLog
	if l.List() != nil || l.Total() != 0 {
		t.Fatalf("empty log = %v, total %d", l.List(), l.Total())
	}
	for i := int64(0); i < maxAnomalies+5; i++ {
		l.Add(Anomaly{Window: i, Kind: "k"})
	}
	list := l.List()
	if len(list) != maxAnomalies || l.Total() != maxAnomalies+5 {
		t.Fatalf("retained %d of total %d, want %d of %d", len(list), l.Total(), maxAnomalies, maxAnomalies+5)
	}
	if list[0].Window != 0 || list[maxAnomalies-1].Window != maxAnomalies-1 {
		t.Fatalf("retained windows %d..%d, want the first %d", list[0].Window, list[maxAnomalies-1].Window, maxAnomalies)
	}
	list[0].Kind = "changed"
	if l.List()[0].Kind != "k" {
		t.Fatal("List returned the log's own storage")
	}
}
