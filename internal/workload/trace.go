package workload

import "math"

// Instruction kinds emitted by the trace generator.
type Kind uint8

const (
	// KindInt is an integer ALU operation.
	KindInt Kind = iota
	// KindFP is a floating-point operation.
	KindFP
	// KindBranch is a control-flow instruction.
	KindBranch
	// KindLoad reads memory.
	KindLoad
	// KindStore writes memory.
	KindStore
)

// Instr is one dynamic instruction of a synthetic trace.
type Instr struct {
	Kind Kind
	// Addr is the byte address for loads and stores (0 otherwise).
	Addr uint64
}

// Trace is a deterministic pseudo-random instruction stream for one
// thread. It is a generator, not a materialised slice, so arbitrarily
// long traces cost no memory.
type Trace struct {
	p   Profile
	rng xorshift

	// Integer thresholds of the profile's probabilities (see threshold):
	// a draw takes a branch exactly when its 53-bit value is below one.
	memT, fpT, fpBranchT     uint64
	storeT, localT, spatialT uint64
	sharedT, l2ResidentT     uint64

	// Address-generation state.
	privBase   uint64
	sharedBase uint64
	lastAddr   uint64
	emitted    int
}

// Address-space layout: each thread's private region is carved from a
// distinct 1 GiB-aligned window; the shared region sits in a common
// window. This guarantees private regions never alias across threads.
// The hot (L2-resident) region lives half-way into the private window,
// far from the main working set.
const (
	privateWindow = uint64(1) << 30
	hotOffset     = uint64(1) << 29
	hotRegionSize = 160 * 1024
	sharedWindow  = uint64(255) << 30
	lineSize      = 64
)

// NewTrace creates the deterministic stream for one thread of the app.
func NewTrace(p Profile, thread int) *Trace {
	t := &Trace{
		p:          p,
		rng:        newXorshift(uint64(hashString(p.Name))*2654435761 + uint64(thread)*40503 + 1),
		privBase:   uint64(thread+1) * privateWindow,
		sharedBase: sharedWindow,
		memT:       threshold(p.MemFrac),
		fpT:        threshold(p.FPFrac),
		// The sums keep the float rounding the comparisons always had.
		fpBranchT:   threshold(p.FPFrac + p.BranchFrac),
		storeT:      threshold(p.StoreFrac),
		localT:      threshold(p.Locality),
		spatialT:    threshold(p.Locality + (1-p.Locality)*0.5),
		sharedT:     threshold(p.SharedFrac),
		l2ResidentT: threshold(p.L2Resident),
	}
	t.lastAddr = t.privBase
	return t
}

// threshold returns t such that a 53-bit draw m has float64(m)/2^53 < p
// exactly when m < t: both sides scale exactly, so t = ceil(p·2^53),
// with 0 for NaN or p ≤ 0 and 2^53 for p ≥ 1 (DESIGN.md §6).
func threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Emitted returns how many instructions the trace has produced so far.
func (t *Trace) Emitted() int { return t.emitted }

// Next produces the next instruction. The stream is infinite; callers
// decide when to stop (profiles carry a suggested budget).
func (t *Trace) Next() Instr {
	t.emitted++
	if t.rng.draw() < t.memT {
		return t.nextMem()
	}
	// Non-memory instruction: split between FP, branch and integer.
	r := t.rng.draw()
	switch {
	case r < t.fpT:
		return Instr{Kind: KindFP}
	case r < t.fpBranchT:
		return Instr{Kind: KindBranch}
	default:
		return Instr{Kind: KindInt}
	}
}

func (t *Trace) nextMem() Instr {
	kind := KindLoad
	if t.rng.draw() < t.storeT {
		kind = KindStore
	}
	var addr uint64
	r := t.rng.draw()
	if r < t.localT {
		// Temporal reuse: hit the same line again. Real codes touch a
		// line tens of times before moving on, which is what gives the
		// L1s their >90% hit rates.
		addr = t.lastAddr
	} else if r < t.spatialT {
		// Spatial advance: the sequentially next line, kept inside the
		// current region so a streak cannot wander into another window.
		addr = t.clampToRegion(t.lastAddr + lineSize)
	} else if t.rng.draw() < t.sharedT {
		// Random reference into the shared region.
		span := uint64(t.p.SharedWorkingSet)
		addr = t.sharedBase + (t.rng.next()%span)&^uint64(lineSize-1)
	} else if t.rng.draw() < t.l2ResidentT {
		// Random reference into the hot mid-size region: it fits the L2
		// but not the L1, contributing cycle-domain (frequency-scaled)
		// stall time rather than DRAM time.
		addr = t.privBase + hotOffset + (t.rng.next()%hotRegionSize)&^uint64(lineSize-1)
	} else {
		// Random reference into the private working set.
		span := uint64(t.p.WorkingSet)
		addr = t.privBase + (t.rng.next()%span)&^uint64(lineSize-1)
	}
	t.lastAddr = addr
	return Instr{Kind: kind, Addr: addr}
}

// clampToRegion keeps a sequentially-advanced address inside whichever
// region (private, hot or shared) it currently belongs to, wrapping at
// the end.
func (t *Trace) clampToRegion(addr uint64) uint64 {
	if addr >= t.sharedBase {
		span := uint64(t.p.SharedWorkingSet)
		return t.sharedBase + (addr-t.sharedBase)%span
	}
	if hot := t.privBase + hotOffset; addr >= hot {
		return hot + (addr-hot)%hotRegionSize
	}
	span := uint64(t.p.WorkingSet)
	return t.privBase + (addr-t.privBase)%span
}

// xorshift is a tiny deterministic PRNG (xorshift64*), good enough for
// trace synthesis and dependency-free.
type xorshift struct{ s uint64 }

func newXorshift(seed uint64) xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return xorshift{s: seed}
}

func (x *xorshift) next() uint64 {
	s := x.s
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.s = s
	return s * 0x2545f4914f6cdd1d
}

// draw returns a uniform 53-bit value; draw()/2^53 is uniform in
// [0, 1). Compare it with a threshold of the probability.
func (x *xorshift) draw() uint64 { return x.next() >> 11 }

// hashString is FNV-1a over the app name, keeping traces stable across
// runs without importing hash/fnv for a two-line function.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
