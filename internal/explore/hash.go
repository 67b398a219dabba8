// Binary evaluation keys: a 128-bit multiply-xor (word-level FNV-1a) hash
// over every model-relevant field of a (design, workload, efficiency)
// triple, computed field-by-field with zero allocation. The hash replaces
// the old string keys on the memo hot path: a million-candidate sweep used
// to mint two strings per lookup; now a lookup is ~35 integer multiplies
// into a stack value.
//
// Collisions: with 128 bits of state, a cache of 2^32 distinct evaluations
// has a collision probability of ~2^-65 — far below the hardware fault
// rate, so the memo treats hash equality as evaluation equality. The
// exported Key string encoding remains the readable canonical form (and the
// collision oracle the hash is tested against).
package explore

import (
	"math"
	"math/bits"

	"repro/internal/design"
	"repro/internal/units"
	"repro/internal/workload"
)

// keyPair is the memo-map key: the 128-bit evaluation hash.
type keyPair struct {
	hi, lo uint64
}

// FNV-1a 128-bit parameters. The prime is 2^88 + 2^8 + 0x3b; the offset
// basis is the standard 144066263297769815596495629667062367629. The hash
// folds whole 64-bit words per multiply instead of single bytes — the same
// xor-then-multiply bijection, eight times fewer multiplies.
const (
	fnvPrimeHi = 1 << 24 // high 64 bits of the 128-bit FNV prime
	fnvPrimeLo = 0x13b   // low 64 bits
	fnvBasisHi = 0x6c62272e07bb0142
	fnvBasisLo = 0x62b821756295c58d
)

// hash128 is an incremental hash state.
type hash128 struct {
	hi, lo uint64
}

func newHash() hash128 { return hash128{hi: fnvBasisHi, lo: fnvBasisLo} }

// u64 folds one 64-bit word: xor into the low half, then multiply the
// 128-bit state by the FNV prime modulo 2^128.
func (h *hash128) u64(v uint64) {
	h.lo ^= v
	carry, lo := bits.Mul64(h.lo, fnvPrimeLo)
	h.hi = h.hi*fnvPrimeLo + h.lo*fnvPrimeHi + carry
	h.lo = lo
}

// f64 folds a float by its exact bit pattern — the binary analogue of the
// strconv 'b' format the string keys use.
func (h *hash128) f64(v float64) { h.u64(math.Float64bits(v)) }

// str folds a length-prefixed string, so adjacent variable-length fields
// cannot alias ("ab"+"c" vs "a"+"bc"): the length word first, then the
// bytes in 8-byte little-endian chunks with a zero-padded tail.
func (h *hash128) str(s string) {
	h.u64(uint64(len(s)))
	i := 0
	for ; i+8 <= len(s); i += 8 {
		h.u64(uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 |
			uint64(s[i+3])<<24 | uint64(s[i+4])<<32 | uint64(s[i+5])<<40 |
			uint64(s[i+6])<<48 | uint64(s[i+7])<<56)
	}
	if i < len(s) {
		var tail uint64
		for j := 0; i+j < len(s); j++ {
			tail |= uint64(s[i+j]) << (8 * j)
		}
		h.u64(tail)
	}
}

func (h *hash128) bool(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *hash128) sum() keyPair { return keyPair{hi: h.hi, lo: h.lo} }

// hashEmbodied keys the embodied sub-term of an evaluation: every
// embodied-relevant design field — integration, geometry, fab grid and the
// dies — and nothing else. UseLocation, workload and efficiency live in the
// operational suffix (hashOperational); design and die *names* are labels,
// not model inputs, and are excluded so renamed-but-equal designs share one
// term (and one memoized evaluation).
func hashEmbodied(d *design.Design) keyPair {
	h := newHash()
	h.str(string(d.Integration))
	h.str(string(d.Stacking))
	h.str(string(d.Flow))
	h.str(string(d.Order))
	h.str(string(d.FabLocation))
	h.f64(d.WaferAreaMM2)
	h.f64(d.GapMM)
	h.f64(d.InterposerScale)
	h.f64(d.PackageAreaMM2)
	h.u64(uint64(len(d.Dies)))
	for i := range d.Dies {
		die := &d.Dies[i]
		h.u64(uint64(int64(die.ProcessNM)))
		h.f64(die.Gates)
		h.f64(die.AreaMM2)
		h.u64(uint64(int64(die.BEOLLayers)))
		h.bool(die.Memory)
		h.f64(die.EfficiencyTOPSW)
	}
	return h.sum()
}

// hashOperational extends an embodied sub-key with the operational-only
// fields: use grid, workload and chip efficiency. The full evaluation key
// is therefore a pure suffix of its embodied key — the engine derives both
// from one pass over the design.
func hashOperational(base keyPair, d *design.Design, w workload.Workload, eff units.Efficiency) keyPair {
	h := hash128{hi: base.hi, lo: base.lo}
	h.str(string(d.UseLocation))
	h.f64(float64(w.Throughput))
	h.f64(float64(w.PeakThroughput))
	h.f64(w.ActiveHoursPerYear)
	h.f64(w.LifetimeYears)
	h.f64(float64(eff))
	return h.sum()
}

// hashEvaluation keys one (design, workload, efficiency) triple. It covers
// exactly the fields the Key string encoding covers, in the same order, so
// hash equality and string-key equality coincide (modulo 2^-128 collisions;
// TestHashMatchesStringKeys pins the correspondence over the shipped design
// corpus).
func hashEvaluation(d *design.Design, w workload.Workload, eff units.Efficiency) keyPair {
	return hashOperational(hashEmbodied(d), d, w, eff)
}
