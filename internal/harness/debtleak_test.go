package harness

import (
	"errors"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/hooks"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

// TestDebtForgetsFinishedTxns: the debt tracker's open-transaction table
// holds what the engine holds, however long the tracker rides along. Neither
// the lock releases a commit appends after its commit record nor the CLRs a
// restart recovery writes on the coordinator's log may open an entry, and a
// crash drops every entry of the crashed node's log: after committed rounds,
// after a crash whose recovery wrote CLRs — a coordinator undo under Stable
// LBM, a tag-scan undo under Selective Redo — and after the survivors commit,
// the per-node ActiveTxns sum equals the engine's active count, and with
// nothing active nothing is left to undo.
func TestDebtForgetsFinishedTxns(t *testing.T) {
	for _, proto := range []recovery.Protocol{recovery.StableEager, recovery.VolatileSelectiveRedo} {
		t.Run(proto.String(), func(t *testing.T) {
			db, err := seededDB(proto, 4, 4, defaultPages, 0)
			if err != nil {
				t.Fatal(err)
			}
			d := debt.New(debt.Config{DiskReadNS: db.M.Config().Cost.DiskRead, LogForceNS: db.LogForceCost()})
			db.Attach(hooks.Set{Observer: obs.NewWithCapacity(256), Debt: d})
			mgr := txn.NewManager(db)
			check := func(when string) {
				t.Helper()
				s := d.Snapshot()
				tracked := 0
				for _, n := range s.Nodes {
					tracked += n.ActiveTxns
				}
				engine := len(db.ActiveTxns(machine.NoNode))
				if tracked != engine {
					t.Errorf("%s: tracker holds %d open transactions, the engine %d", when, tracked, engine)
				}
				if engine == 0 && s.UndoSpan != 0 {
					t.Errorf("%s: undo span %d with no transaction active", when, s.UndoSpan)
				}
			}
			clrs := func() (n int64) {
				for _, c := range d.TypeAttribution() {
					if c.Type == 4 { // wal.TypeCLR
						n = c.Records
					}
				}
				return n
			}

			const rounds = 10
			for round := 0; round < rounds; round++ {
				if _, err := depCensusRound(db, mgr, round, true); err != nil {
					t.Fatal(err)
				}
			}
			check("after committed rounds")

			txs, err := depCensusRound(db, mgr, rounds, false)
			if err != nil {
				t.Fatal(err)
			}
			// Node 0 takes page 1's first line back, carrying node 3's
			// uncommitted slot with it: a survivor's cache now holds a record
			// tagged by the node about to crash.
			if err := txs[0].Write(heap.RID{Page: 1, Slot: 0}, []byte{9, 0}); err != nil {
				t.Fatal(err)
			}
			before := clrs()
			victim := machine.NodeID(3)
			db.Crash(victim)
			if _, err := db.Recover([]machine.NodeID{victim}); err != nil {
				t.Fatal(err)
			}
			if clrs() == before {
				t.Fatal("the recovery wrote no CLR")
			}
			check("after the crash's recovery")

			if err := db.RestartNode(victim); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < 3; n++ {
				if err := txn.Retry(func() error {
					return txs[n].Write(heap.RID{Page: 1, Slot: uint16(n)}, []byte{8, byte(n)})
				}); err != nil && !errors.Is(err, txn.ErrDone) {
					t.Fatal(err)
				}
				if err := txs[n].Commit(); err != nil {
					t.Fatal(err)
				}
			}
			check("after the survivors commit")
		})
	}
}
