// Package refengine is the benchmark's reference engine: a copy of the
// sixteen smdb/internal packages the benchmark drives, as they stood when
// the benchmark was defined (non-test files, import paths rewritten, nothing
// else touched). Every measured cycle runs once on the live engine and once
// on this one, same operations, a fraction of a second apart, and the gated
// timings are the live engine's as a ratio of this one's; see ../README.md
// for why. It is part of the yardstick: do not edit it, and do not copy a
// later engine over it.
package refengine
