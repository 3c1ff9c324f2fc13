package cpusim

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"

	"github.com/xylem-sim/xylem/internal/dram"
	"github.com/xylem-sim/xylem/internal/workload"
)

// Config holds the architecture parameters (Table 3).
type Config struct {
	Cores      int
	IssueWidth int

	L1DSizeKB, L1DAssoc int
	L2SizeKB, L2Assoc   int
	LineSize            int

	// Round-trip latencies in core cycles (frequency-invariant cycle
	// counts, as in Table 3).
	L1Cycles int
	L2Cycles int

	// FPExtraCycles approximates floating-point dependency-chain stalls
	// per FP instruction; BranchExtraCycles approximates amortised
	// misprediction cost per branch. Both are fractions of a cycle.
	FPExtraCycles     float64
	BranchExtraCycles float64

	// BusNs is the occupancy of one snoopy-bus transaction (arbitration
	// plus 64 B over the 512-bit bus); C2CNs is the additional latency of
	// a cache-to-cache supply from a remote M-state line.
	BusNs float64
	C2CNs float64

	// StoreQueueDepth bounds outstanding posted store misses before the
	// core stalls.
	StoreQueueDepth int

	DRAM dram.Config
}

// DefaultConfig returns Table 3's architecture: eight 4-issue cores,
// 32 KB 2-way L1Ds (2-cycle RT; traces carry no fetch addresses, so
// the L1I is not simulated), 256 KB 8-way private WB L2 (10-cycle RT),
// 64 B lines, a 512-bit snoopy MESI bus, and Wide I/O DRAM.
func DefaultConfig() Config {
	return Config{
		Cores:      8,
		IssueWidth: 4,
		L1DSizeKB:  32, L1DAssoc: 2,
		L2SizeKB: 256, L2Assoc: 8,
		LineSize:          64,
		L1Cycles:          2,
		L2Cycles:          10,
		FPExtraCycles:     0.4,
		BranchExtraCycles: 0.06,
		BusNs:             0.8,
		C2CNs:             8,
		StoreQueueDepth:   32,
		DRAM:              dram.DefaultConfig(),
	}
}

// Assignment runs one software thread on one core.
type Assignment struct {
	// Core is the core index the thread runs on.
	Core int
	// App supplies the thread's trace profile.
	App workload.Profile
	// Thread is the thread id within the application (seeds the trace).
	Thread int
	// Stream, when non-nil, supplies the instruction stream instead of
	// the App profile's synthetic trace (e.g. a workload.RecordedTrace
	// replaying an externally captured trace). The App profile still
	// provides the microarchitectural knobs (MLP, dependent-load
	// fraction) and the instruction budget default. Each core reads its
	// stream ahead of the others, up to its next load or store, so two
	// assignments may not share one stream (New rejects it).
	Stream workload.Stream
	// Instructions overrides the profile's budget when non-zero.
	Instructions int
	// Warmup is the number of instructions executed before measurement
	// begins: they warm the caches and DRAM row buffers but contribute
	// neither activity counts nor time. After all threads complete their
	// warm-up, the cores synchronise at a barrier (as a parallel app's
	// measured region would) and measurement starts.
	Warmup int
}

// CoreStats carries the per-core activity counters the power model needs.
type CoreStats struct {
	Cycles       float64
	TimeNs       float64
	Instructions uint64
	IntOps       uint64
	FPOps        uint64
	Branches     uint64
	Loads        uint64
	Stores       uint64
	L1DMisses    uint64
	L2Accesses   uint64
	L2Misses     uint64
	BusTx        uint64
	// C2CTransfers counts L2 misses served by a remote cache.
	C2CTransfers uint64
	// Invalidations counts snoop-induced invalidations received.
	Invalidations uint64
	// LoadStallNs and StoreStallNs accumulate time spent waiting for a
	// full miss queue / store queue (diagnostics and model validation).
	LoadStallNs  float64
	StoreStallNs float64
	// MissLatencyNs accumulates the issue-to-completion latency of every
	// L2 load miss (diagnostics: divide by L2Misses for the average).
	MissLatencyNs float64
}

// IPC returns the core's retired instructions per cycle.
func (s CoreStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / s.Cycles
}

// Result is a completed simulation.
type Result struct {
	Cfg Config
	// TimeNs is the wall-clock makespan: when the last thread finished.
	TimeNs float64
	Cores  []CoreStats
	DRAM   dram.Stats
}

// TotalInstructions sums retired instructions across cores.
func (r Result) TotalInstructions() uint64 {
	var t uint64
	for _, c := range r.Cores {
		t += c.Instructions
	}
	return t
}

// Throughput returns aggregate instructions per second — the performance
// metric used to compare frequency operating points for one application.
func (r Result) Throughput() float64 {
	if r.TimeNs == 0 {
		return 0
	}
	return float64(r.TotalInstructions()) / (r.TimeNs * 1e-9)
}

// core is the per-core simulation state.
type core struct {
	id      int
	freqGHz float64
	trace   workload.Stream
	budget  int
	warmup  int
	// depLoadFrac is the running app's fraction of dependent (blocking)
	// L2 load misses.
	depLoadFrac float64

	l1d *cache
	l2  *cache

	timeNs float64
	cycles float64
	done   bool
	active bool
	next   workload.Instr // the drawn load or store runPhase issues next

	// Per-instruction costs in ns: cycles/freqGHz, divided out once.
	issueNs, fpNs, branchNs, l2Ns float64

	// outstanding load-miss completion times (bounded by the profile's
	// MLP); the core stalls when full.
	loadQ []float64
	// outstanding posted store misses.
	storeQ []float64

	stats CoreStats
}

// Sim couples the cores, the snoopy bus and the DRAM controller.
type Sim struct {
	cfg   Config
	cores []*core
	mem   *dram.Controller
	// busFreeNs is when the shared bus next becomes idle.
	busFreeNs float64
	// warmupEndNs is the barrier time at which measurement started.
	warmupEndNs float64
	// issueCycles is the base issue cost, 1/width cycles per instruction.
	issueCycles float64
	// tree is runPhase's tournament over the cores' clocks.
	tree []clockNode
}

// clockNode is a core's clock as IEEE bits (doneClock once it is done,
// and for padding) and its index. Times are never negative, so the bit
// patterns order like the times.
type clockNode struct {
	t  uint64
	id int
}

const doneClock = math.MaxUint64

// New builds a simulator for the given thread assignments. freqGHz gives
// each core's clock; idle cores (no assignment) contribute no activity.
// Multiple threads per core are not supported (the paper's experiments
// never need them).
func New(cfg Config, freqGHz []float64, assigns []Assignment) (*Sim, error) {
	if cfg.Cores <= 0 || cfg.IssueWidth <= 0 {
		return nil, fmt.Errorf("cpusim: invalid config: %d cores, width %d", cfg.Cores, cfg.IssueWidth)
	}
	if len(freqGHz) != cfg.Cores {
		return nil, fmt.Errorf("cpusim: %d frequencies for %d cores", len(freqGHz), cfg.Cores)
	}
	mem, err := dram.NewController(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, mem: mem, issueCycles: 1 / float64(cfg.IssueWidth)}
	s.tree = make([]clockNode, 2<<bits.Len(uint(cfg.Cores-1)))
	for k := range s.tree {
		s.tree[k].t = doneClock
	}
	s.cores = make([]*core, cfg.Cores)
	for i := range s.cores {
		f := freqGHz[i]
		if !(f > 0) {
			return nil, fmt.Errorf("cpusim: core %d frequency %g GHz", i, f)
		}
		l1d, err := newCache(cfg.L1DSizeKB*1024, cfg.L1DAssoc, cfg.LineSize)
		if err != nil {
			return nil, err
		}
		l2, err := newCache(cfg.L2SizeKB*1024, cfg.L2Assoc, cfg.LineSize)
		if err != nil {
			return nil, err
		}
		s.cores[i] = &core{id: i, freqGHz: f, l1d: l1d, l2: l2, done: true,
			issueNs: s.issueCycles / f, fpNs: cfg.FPExtraCycles / f,
			branchNs: cfg.BranchExtraCycles / f, l2Ns: float64(cfg.L2Cycles) / f}
	}
	for i, a := range assigns {
		if a.Core < 0 || a.Core >= cfg.Cores {
			return nil, fmt.Errorf("cpusim: assignment to core %d of %d", a.Core, cfg.Cores)
		}
		c := s.cores[a.Core]
		if c.active {
			return nil, fmt.Errorf("cpusim: core %d assigned twice", a.Core)
		}
		if a.Instructions < 0 || a.Warmup < 0 {
			return nil, fmt.Errorf("cpusim: core %d: %d instructions, %d warm-up", a.Core, a.Instructions, a.Warmup)
		}
		if a.Stream != nil && reflect.ValueOf(a.Stream).Comparable() &&
			slices.ContainsFunc(assigns[:i], func(b Assignment) bool { return b.Stream == a.Stream }) {
			return nil, fmt.Errorf("cpusim: core %d shares its stream with another core", a.Core)
		}
		budget := a.Instructions
		if budget == 0 {
			budget = a.App.Instructions
		}
		if a.Stream != nil {
			c.trace = a.Stream
		} else {
			c.trace = workload.NewTrace(a.App, a.Thread)
		}
		c.budget = budget
		c.warmup = a.Warmup
		c.depLoadFrac = a.App.DepLoadFrac
		c.loadQ = make([]float64, 0, a.App.MLP)
		c.storeQ = make([]float64, 0, cfg.StoreQueueDepth)
		c.done = false
		c.active = true
	}
	return s, nil
}

// runPhase executes every unfinished core to its current budget. Each
// core runs ahead to its next load or store; those issue earliest clock
// first (the lowest index on a tie), so bus transactions interleave
// deterministically and exactly as in instruction order (DESIGN.md §6).
func (s *Sim) runPhase() {
	for _, c := range s.cores {
		s.local(c)
		s.setLeaf(c)
	}
	for s.tree[1].t != doneClock {
		c := s.cores[s.tree[1].id]
		s.issueMem(c)
		s.local(c)
		s.setLeaf(c)
	}
}

// setLeaf stores core c's clock in s.tree, a tournament whose leaves
// n..2n-1 are the cores and whose node k is the earlier of its children
// (the left, lower-indexed one on a tie), and replays c's path to the
// root, node 1: the core to issue next.
func (s *Sim) setLeaf(c *core) {
	n := len(s.tree) / 2
	leaf := clockNode{doneClock, c.id}
	if !c.done {
		leaf.t = math.Float64bits(c.timeNs)
	}
	s.tree[n+c.id] = leaf
	for k := (n + c.id) / 2; k >= 1; k /= 2 {
		l, r := s.tree[2*k], s.tree[2*k+1]
		if r.t < l.t {
			l = r
		}
		s.tree[k] = l
	}
}

// Run executes all threads to completion and returns the result.
func (s *Sim) Run() (Result, error) {
	// Warm-up phase: execute, then barrier-synchronise and reset all
	// measurement state.
	anyWarm := false
	for _, c := range s.cores {
		if c.active && c.warmup > 0 {
			anyWarm = true
		}
	}
	if anyWarm {
		realBudget := make([]int, len(s.cores))
		for i, c := range s.cores {
			realBudget[i] = c.budget
			if c.active {
				c.budget = c.warmup
			}
		}
		s.runPhase()
		barrier := 0.0
		for _, c := range s.cores {
			if c.active && c.timeNs > barrier {
				barrier = c.timeNs
			}
		}
		for i, c := range s.cores {
			if !c.active {
				continue
			}
			c.timeNs = barrier
			c.cycles = 0
			c.stats = CoreStats{}
			c.budget = realBudget[i]
			c.done = false
		}
		s.mem.ResetStats()
		s.warmupEndNs = barrier
	}

	s.runPhase()
	res := Result{Cfg: s.cfg, DRAM: s.mem.Stats()}
	for _, c := range s.cores {
		c.stats.TimeNs = c.timeNs - s.warmupEndNs
		c.stats.Cycles = c.cycles
		res.Cores = append(res.Cores, c.stats)
		if c.active && c.stats.TimeNs > res.TimeNs {
			res.TimeNs = c.stats.TimeNs
		}
	}
	return res, nil
}

// local runs core c's other instructions up to its next load or store,
// which it leaves in c.next, or to its budget, never drawing past it.
func (s *Sim) local(c *core) {
	for int(c.stats.Instructions) < c.budget {
		in := c.trace.Next()
		if in.Kind == workload.KindLoad || in.Kind == workload.KindStore {
			c.next = in
			return
		}
		c.stats.Instructions++
		c.cycles += s.issueCycles
		c.timeNs += c.issueNs
		switch in.Kind {
		case workload.KindInt:
			c.stats.IntOps++
		case workload.KindFP:
			c.stats.FPOps++
			c.cycles += s.cfg.FPExtraCycles
			c.timeNs += c.fpNs
		case workload.KindBranch:
			c.stats.Branches++
			c.cycles += s.cfg.BranchExtraCycles
			c.timeNs += c.branchNs
		}
	}
	c.done = true
}

// issueMem executes core c's pending load or store.
func (s *Sim) issueMem(c *core) {
	c.stats.Instructions++
	c.cycles += s.issueCycles
	c.timeNs += c.issueNs
	if c.next.Kind == workload.KindLoad {
		c.stats.Loads++
		s.load(c, c.next.Addr)
	} else {
		c.stats.Stores++
		s.store(c, c.next.Addr)
	}
}

// load services a data read.
func (s *Sim) load(c *core, addr uint64) {
	if l := c.l1d.lookup(addr); l != nil {
		c.l1d.touch(l)
		return // pipelined 2-cycle hit: no visible stall
	}
	c.stats.L1DMisses++
	// L1 miss: the L2 round trip stalls the pipeline.
	c.cycles += float64(s.cfg.L2Cycles)
	c.timeNs += c.l2Ns
	c.stats.L2Accesses++
	if l := c.l2.lookup(addr); l != nil {
		c.l2.touch(l)
		s.l1Fill(c, addr)
		return
	}
	// L2 miss: bus + memory. Retire any completed outstanding misses.
	c.stats.L2Misses++
	c.loadQ = c.drain(c.loadQ)

	// Dependent loads (pointer chases, permutation reads) block the
	// pipeline for the full memory latency: their consumer issues next.
	// The choice is a deterministic hash of the line address, so runs
	// are reproducible and a given datum is consistently dependent.
	if dependentLoad(addr, c.depLoadFrac) {
		done := s.busFetch(c, addr, false)
		c.stats.MissLatencyNs += done - c.timeNs
		if done > c.timeNs {
			c.stats.LoadStallNs += done - c.timeNs
			c.stallUntil(done)
		}
		s.l1Fill(c, addr)
		return
	}

	// Independent miss: overlap through the MSHR queue.
	mlp := cap(c.loadQ)
	if mlp < 1 {
		mlp = 1
	}
	if len(c.loadQ) >= mlp {
		// MSHRs full: stall until the earliest outstanding miss returns.
		c.loadQ = c.waitForSlot(c.loadQ, &c.stats.LoadStallNs)
	}
	done := s.busFetch(c, addr, false)
	c.stats.MissLatencyNs += done - c.timeNs
	c.loadQ = append(c.loadQ, done)
	s.l1Fill(c, addr)
}

// store services a data write. The L1 is write-through/no-allocate; the
// L2 is write-back/write-allocate, so every store reaches the L2 and
// misses fetch ownership over the bus.
func (s *Sim) store(c *core, addr uint64) {
	if l := c.l1d.lookup(addr); l != nil {
		c.l1d.touch(l) // write-through update of the L1 copy
	}
	c.stats.L2Accesses++
	if l := c.l2.lookup(addr); l != nil {
		c.l2.touch(l)
		switch l.state() {
		case stateModified:
			return
		case stateExclusive:
			l.setState(stateModified) // silent E→M upgrade
			return
		case stateShared:
			// Upgrade: invalidate remote sharers; bus occupancy only.
			s.busUpgrade(c, addr)
			l.setState(stateModified)
			return
		}
	}
	// L2 store miss: posted through the store queue; the core does not
	// stall unless the queue is full.
	c.stats.L2Misses++
	c.storeQ = c.drain(c.storeQ)
	if len(c.storeQ) >= s.cfg.StoreQueueDepth {
		c.storeQ = c.waitForSlot(c.storeQ, &c.stats.StoreStallNs)
	}
	done := s.busFetch(c, addr, true)
	c.storeQ = append(c.storeQ, done)
}

// dependentLoad deterministically classifies a missing load as dependent
// (blocking) with probability frac, hashing the line address so the same
// datum is consistently dependent across the run.
func dependentLoad(addr uint64, frac float64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	h := (addr / 64) * 0x9e3779b97f4a7c15
	return float64(h>>40)/float64(1<<24) < frac
}

// stallUntil advances the core's clock to an absolute time.
func (c *core) stallUntil(tNs float64) {
	if tNs <= c.timeNs {
		return
	}
	dCycles := (tNs - c.timeNs) * c.freqGHz
	c.cycles += dCycles
	c.timeNs = tNs
}

// drain drops the entries of a miss queue that have completed by now.
func (c *core) drain(q []float64) []float64 {
	out := q[:0]
	for _, t := range q {
		if t > c.timeNs {
			out = append(out, t)
		}
	}
	return out
}

// waitForSlot stalls the core until the earliest entry of the full
// queue q completes, adding the wait to *stallNs, and drains q.
func (c *core) waitForSlot(q []float64, stallNs *float64) []float64 {
	earliest := q[0]
	for _, t := range q {
		if t < earliest {
			earliest = t
		}
	}
	if earliest > c.timeNs {
		*stallNs += earliest - c.timeNs
		c.stallUntil(earliest)
	}
	return c.drain(q)
}

// l1Fill installs a line in the L1D (no writeback needed: write-through).
func (s *Sim) l1Fill(c *core, addr uint64) {
	v := c.l1d.victim(addr)
	c.l1d.fill(v, addr, stateExclusive)
}

// busAcquire serialises a transaction on the shared bus starting no
// earlier than tNs, returning when the bus slot ends.
func (s *Sim) busAcquire(tNs float64) float64 {
	start := math.Max(tNs, s.busFreeNs)
	s.busFreeNs = start + s.cfg.BusNs
	return s.busFreeNs
}

// busUpgrade broadcasts a BusUpgr: invalidate remote S copies.
func (s *Sim) busUpgrade(c *core, addr uint64) {
	c.stats.BusTx++
	end := s.busAcquire(c.timeNs)
	for _, o := range s.cores {
		if o == c {
			continue
		}
		if st := o.l2.invalidate(addr); st != stateInvalid {
			o.l1d.invalidate(addr)
			o.stats.Invalidations++
		}
	}
	c.stallUntil(end)
}

// busFetch performs BusRd (exclusive=false) or BusRdX (true): snoop the
// other cores, fetch the line from a remote M copy or from DRAM, install
// it in this core's L2 (with writeback of the evicted victim if dirty),
// and return the completion time in ns.
func (s *Sim) busFetch(c *core, addr uint64, exclusive bool) float64 {
	c.stats.BusTx++
	busDone := s.busAcquire(c.timeNs)

	// Snoop.
	var supplied bool
	var supplyDone float64
	for _, o := range s.cores {
		if o == c {
			continue
		}
		l := o.l2.lookup(addr)
		if l == nil {
			continue
		}
		switch l.state() {
		case stateModified:
			// Remote dirty copy: cache-to-cache supply plus a memory
			// update (MESI flush). The writeback consumes DRAM write
			// bandwidth but does not delay the requester beyond C2C.
			supplied = true
			supplyDone = busDone + s.cfg.C2CNs
			s.mem.Access(busDone, addr, true)
			c.stats.C2CTransfers++
			if exclusive {
				l.setState(stateInvalid)
				o.l1d.invalidate(addr)
				o.stats.Invalidations++
			} else {
				l.setState(stateShared)
			}
		case stateExclusive, stateShared:
			if exclusive {
				l.setState(stateInvalid)
				o.l1d.invalidate(addr)
				o.stats.Invalidations++
			} else {
				l.setState(stateShared)
				supplied = true
				supplyDone = busDone + s.cfg.C2CNs
				c.stats.C2CTransfers++
			}
		}
	}

	var done float64
	if supplied {
		done = supplyDone
	} else {
		done = s.mem.Access(busDone, addr, false)
	}

	// Install in L2, evicting (and writing back) the victim.
	v := c.l2.victim(addr)
	if st := v.state(); st != stateInvalid {
		victimAddr := c.l2.lineAddr(v)
		c.l1d.invalidate(victimAddr) // inclusion
		if st == stateModified {
			s.mem.Access(done, victimAddr, true)
		}
	}
	newState := stateShared
	if exclusive {
		newState = stateModified
	} else if !supplied {
		newState = stateExclusive
	}
	c.l2.fill(v, addr, newState)
	return done
}
