package relation

import "strconv"

// Manual FNV-1a, byte-for-byte equivalent to hash/fnv's New64a but
// allocation-free: Tuple.Key sits under the WAL checkpoint digests, the
// answer store, and the spill digests, so the hash VALUES must never
// change — only the cost of computing them.

// FNV-1a parameters (FNV-0 offset basis and 64-bit prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashInto folds the value into an FNV-1a state exactly as the legacy
// implementation did: kind byte, then String() bytes, then a NUL
// terminator — without materializing the String() for numeric kinds.
func (v Value) hashInto(h uint64) uint64 {
	h = fnvByte(h, byte(v.kind))
	switch v.kind {
	case KindNull:
		h = fnvString(h, "NULL")
	case KindText, KindURL:
		h = fnvString(h, v.s)
	case KindInt:
		var buf [24]byte
		for _, c := range strconv.AppendInt(buf[:0], v.i, 10) {
			h = fnvByte(h, c)
		}
	case KindFloat:
		var buf [40]byte
		for _, c := range strconv.AppendFloat(buf[:0], v.f, 'g', -1, 64) {
			h = fnvByte(h, c)
		}
	case KindBool:
		if v.b {
			h = fnvString(h, "true")
		} else {
			h = fnvString(h, "false")
		}
	case KindUnknown:
		h = fnvString(h, "UNKNOWN")
	default:
		h = fnvString(h, v.String())
	}
	return fnvByte(h, 0)
}

// HashBytes folds raw bytes into an FNV-1a state; exported within the
// module via hit and join for their alloc-free key paths.
func HashBytes(h uint64, p []byte) uint64 {
	for _, c := range p {
		h = fnvByte(h, c)
	}
	return h
}

// HashString folds a string into an FNV-1a state.
func HashString(h uint64, s string) uint64 { return fnvString(h, s) }

// HashByte folds one byte into an FNV-1a state.
func HashByte(h uint64, b byte) uint64 { return fnvByte(h, b) }

// HashSeed returns the FNV-1a offset basis — the initial state for the
// Hash* helpers above.
func HashSeed() uint64 { return fnvOffset64 }
