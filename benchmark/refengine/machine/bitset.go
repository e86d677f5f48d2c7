package machine

import "math/bits"

// bitset is a set of up to 64 node IDs, enough for the largest configuration
// this simulator supports. (The KSR-1 scaled to 1,088 nodes; the protocols
// under study do not depend on node count, so 64 keeps the directory entry a
// single word, as real directory-based machines strive for.)
type bitset uint64

func (b bitset) has(n NodeID) bool  { return n >= 0 && b&(1<<uint(n)) != 0 }
func (b *bitset) add(n NodeID)      { *b |= 1 << uint(n) }
func (b *bitset) remove(n NodeID)   { *b &^= 1 << uint(n) }
func (b bitset) empty() bool        { return b == 0 }
func (b bitset) count() int         { return bits.OnesCount64(uint64(b)) }
func (b bitset) sole(n NodeID) bool { return b == 1<<uint(n) }

// lowest returns the smallest node in the set, or NoNode if empty.
func (b bitset) lowest() NodeID {
	if b == 0 {
		return NoNode
	}
	return NodeID(bits.TrailingZeros64(uint64(b)))
}

// nodes returns the members in ascending order.
func (b bitset) nodes() []NodeID {
	out := make([]NodeID, 0, b.count())
	for v := uint64(b); v != 0; v &= v - 1 {
		out = append(out, NodeID(bits.TrailingZeros64(v)))
	}
	return out
}
