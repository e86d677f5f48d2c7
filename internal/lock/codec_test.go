package lock

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"smdb/internal/wal"
)

// oracleLCB, oracleDecodeLCB and oracleEncodeLCB are the allocating codec the
// lock table was first written with, kept verbatim as the reference the
// in-place codec is compared against: the line image is the on-"disk" format
// of the lock space (recovery reads what a crashed node's peers wrote), so it
// must not move by a byte. Tombstones alone were extended since: a freeing
// write keeps a name at offset 8 (a named tombstone its LCB's, an anonymous
// one 0).
type oracleLCB struct {
	state   byte
	name    Name
	next    int
	holders []Entry
	waiters []Entry
}

func oracleDecodeLCB(raw []byte) oracleLCB {
	var b oracleLCB
	b.state = raw[lcbStateOff]
	if b.state == lcbTombstone || b.state == lcbNamedTombstone {
		b.next = -1
		b.name = Name(binary.LittleEndian.Uint64(raw[lcbNameOff:]))
		return b
	}
	b.next = int(binary.LittleEndian.Uint32(raw[lcbNextOff:])) - 1
	if b.state != lcbUsed && b.state != lcbOverflow {
		return b
	}
	nh := int(raw[lcbNHoldOff])
	nw := int(raw[lcbNWaitOff])
	b.name = Name(binary.LittleEndian.Uint64(raw[lcbNameOff:]))
	for i := 0; i < nh+nw; i++ {
		off := lcbEntriesOff + i*lcbEntryBytes
		e := Entry{
			Txn:  wal.TxnID(binary.LittleEndian.Uint64(raw[off:])),
			Mode: Mode(raw[off+8]),
		}
		if i < nh {
			b.holders = append(b.holders, e)
		} else {
			b.waiters = append(b.waiters, e)
		}
	}
	return b
}

func oracleEncodeLCB(lineSize int, b oracleLCB) []byte {
	raw := make([]byte, lineSize)
	if b.state == lcbTombstone || b.state == lcbNamedTombstone {
		raw[lcbStateOff] = b.state
		binary.LittleEndian.PutUint64(raw[lcbNameOff:], uint64(b.name))
		return raw
	}
	raw[lcbStateOff] = b.state
	binary.LittleEndian.PutUint32(raw[lcbNextOff:], uint32(b.next+1))
	if b.state != lcbUsed && b.state != lcbOverflow {
		return raw
	}
	raw[lcbNHoldOff] = byte(len(b.holders))
	raw[lcbNWaitOff] = byte(len(b.waiters))
	binary.LittleEndian.PutUint64(raw[lcbNameOff:], uint64(b.name))
	i := 0
	for _, list := range [][]Entry{b.holders, b.waiters} {
		for _, e := range list {
			off := lcbEntriesOff + i*lcbEntryBytes
			binary.LittleEndian.PutUint64(raw[off:], uint64(e.Txn))
			raw[off+8] = byte(e.Mode)
			i++
		}
	}
	return raw
}

// randomLCB draws an LCB in any of the five states with 0..capacity entries
// split anywhere between holders and waiters, and next set or unset.
func randomLCB(rng *rand.Rand, capacity int) oracleLCB {
	b := oracleLCB{state: byte(rng.Intn(5)), name: Name(rng.Uint64()), next: -1}
	if rng.Intn(2) == 0 {
		b.next = rng.Intn(1 << 20)
	}
	n := rng.Intn(capacity + 1)
	nh := rng.Intn(n + 1)
	for i := 0; i < n; i++ {
		e := Entry{Txn: wal.TxnID(rng.Uint64()), Mode: Mode(1 + rng.Intn(2))}
		if i < nh {
			b.holders = append(b.holders, e)
		} else {
			b.waiters = append(b.waiters, e)
		}
	}
	return b
}

// TestCodecMatchesOracle: for random LCBs the in-place encoder produces the
// oracle's line image — zeroed tail included, though the scratch image it
// encodes into still holds whatever the previous, possibly longer, LCB left —
// and the in-place decoder reads back what the oracle's does, through entry
// arrays that are likewise reused.
func TestCodecMatchesOracle(t *testing.T) {
	const lineSize = 128
	capacity := (lineSize - lcbEntriesOff) / lcbEntryBytes
	rng := rand.New(rand.NewSource(1))
	raw := make([]byte, lineSize) // one scratch image for the whole run
	var dec lcb                   // one decoded LCB for the whole run
	for i := 0; i < 5000; i++ {
		o := randomLCB(rng, capacity)
		if i%7 == 0 {
			// Dirty every byte, as a maximal LCB would have.
			rng.Read(raw)
		}
		want := oracleEncodeLCB(lineSize, o)
		encodeLCB(raw, &lcb{state: o.state, name: o.name, next: o.next, holders: o.holders, waiters: o.waiters})
		if !bytes.Equal(raw, want) {
			t.Fatalf("LCB %d %+v:\n encoded %x\n oracle  %x", i, o, raw, want)
		}

		decodeLCB(raw, &dec)
		od := oracleDecodeLCB(want)
		got := oracleLCB{state: dec.state, name: dec.name, next: dec.next}
		// The oracle leaves empty lists nil; compare contents.
		got.holders = append(got.holders, dec.holders...)
		got.waiters = append(got.waiters, dec.waiters...)
		if !reflect.DeepEqual(got, od) {
			t.Fatalf("LCB %d: decoded %+v, oracle %+v", i, got, od)
		}

		// decode∘encode is the identity on line images.
		again := make([]byte, lineSize)
		rng.Read(again)
		encodeLCB(again, &dec)
		if !bytes.Equal(again, want) {
			t.Fatalf("LCB %d: re-encoding the decoded LCB changed the image:\n got  %x\n want %x", i, again, want)
		}
	}
}
