package cpusim

import (
	"runtime"
	"sync/atomic"

	"github.com/xylem-sim/xylem/internal/workload"
)

// Read-ahead: a core's instruction stream depends on nothing the
// simulation does, so when a CPU is free, one helper goroutine draws
// every core's stream into chunks while Run simulates from them
// (DESIGN.md §6). Without a free CPU, local calls the stream itself:
// consuming pre-drawn kinds on the simulating goroutine alone is slower
// than drawing them in place.

const (
	// chunkLen is the instructions per chunk, and chunksPerCore the
	// chunks each core recycles between the helper and Run.
	chunkLen      = 1024
	chunksPerCore = 4
	// kindOther stands in a chunk for a kind the workload package does
	// not define, which local's direct loop counts as an instruction
	// with no extra cost. kindSlots sizes the per-kind tables: a power
	// of two above kindOther, so k&(kindSlots-1) needs no bounds check.
	kindOther = workload.KindStore + 1
	kindSlots = 8
)

// chunk holds consecutive draws of one stream, all from one phase
// (warm-up or measured): every kind, the addresses of its loads and
// stores in order, and how many of each kind it holds.
type chunk struct {
	kinds []workload.Kind
	addrs []uint64
	count [kindSlots]uint64
}

// helpers counts the read-ahead helpers running across the process.
// Each keeps at most one CPU busy beside its Run's own, so they share a
// budget of GOMAXPROCS−1, the rule thermal's greensClones uses.
var helpers atomic.Int64

// tryAcquireHelper takes a helper slot if one is free, never blocking.
func tryAcquireHelper() bool {
	for {
		held := helpers.Load()
		if held >= int64(runtime.GOMAXPROCS(0)-1) {
			return false
		}
		if helpers.CompareAndSwap(held, held+1) {
			return true
		}
	}
}

// drawsAhead reports whether the helper may draw st: only the workload
// package's own streams, whose Next touches nothing but the stream, and
// never an empty recording, whose Next would panic.
func drawsAhead(st workload.Stream) bool {
	switch t := st.(type) {
	case *workload.Trace:
		return true
	case *workload.RecordedTrace:
		return t.Len() > 0
	}
	return false
}

// readAhead takes a helper slot if one is free and some active core
// has a drawable stream, and starts the helper goroutine that draws
// those cores' streams; for each it draws exactly the core's warm-up
// and then its budget, read now, which is what Run consumes. It returns
// the function that stops and joins the helper and releases the slot.
func (s *Sim) readAhead() (join func()) {
	var ahead []*core
	var phases [][2]int
	for _, c := range s.cores {
		if c.active && c.warmup+c.budget > 0 && drawsAhead(c.trace) {
			ahead = append(ahead, c)
			phases = append(phases, [2]int{c.warmup, c.budget})
		}
	}
	if len(ahead) == 0 || !tryAcquireHelper() {
		return func() {}
	}
	s.ahead = ahead
	for _, c := range ahead {
		// Each channel can hold all of the core's chunks, so no send
		// blocks.
		c.full = make(chan *chunk, chunksPerCore)
		c.free = make(chan *chunk, chunksPerCore)
		for range chunksPerCore {
			c.free <- &chunk{kinds: make([]workload.Kind, 0, chunkLen), addrs: make([]uint64, 0, chunkLen/2)}
		}
		c.ahead, c.pos, c.apos = &chunk{}, 0, 0
	}
	s.wake = make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.drawAhead(ahead, phases)
	}()
	return func() {
		close(s.wake)
		<-done
		for _, c := range ahead {
			c.ahead, c.full, c.free = nil, nil, nil
		}
		s.ahead = nil
		helpers.Add(-1)
	}
}

// drawAhead is the helper: it fills each core's free chunks with the
// core's next draws, left[i][0] more of the warm-up and then left[i][1]
// of the budget for cores[i], handing them to Run in stream order, and
// sleeps on s.wake when every core's chunks are full. It stops early
// when Run closes s.wake, and hands a panic of a stream to Run by
// closing every full channel.
func (s *Sim) drawAhead(cores []*core, left [][2]int) {
	defer func() {
		if r := recover(); r != nil {
			s.fault = r
			for _, c := range cores {
				close(c.full)
			}
		}
	}()
	for busy := len(cores); busy > 0; {
		drew := false
		for i, c := range cores {
			ph := 0
			if left[i][0] == 0 {
				ph = 1
			}
			if left[i][ph] == 0 {
				continue
			}
			select {
			case ch := <-c.free:
				ch.draw(c.trace, min(left[i][ph], chunkLen))
				if left[i][ph] -= len(ch.kinds); left[i] == [2]int{} {
					busy--
				}
				c.full <- ch
				drew = true
			default:
			}
		}
		if !drew {
			if _, ok := <-s.wake; !ok {
				return
			}
		}
	}
}

// draw fills ch with the next n instructions of st: every kind, an
// unknown one as kindOther, and the address of each load and store.
// The addresses start with room for half the kinds, which no profile's
// MemFrac exceeds, and grow for a stream with more loads and stores.
func (ch *chunk) draw(st workload.Stream, n int) {
	ch.kinds = ch.kinds[:n]
	ch.addrs = ch.addrs[:0]
	ch.count = [kindSlots]uint64{}
	for i := range ch.kinds {
		in := st.Next()
		k := in.Kind
		switch {
		case k == workload.KindLoad || k == workload.KindStore:
			ch.addrs = append(ch.addrs, in.Addr)
		case k > workload.KindStore:
			k = kindOther
		}
		ch.kinds[i] = k
		ch.count[k]++
	}
}

// refill returns core c's consumed chunk to the helper and takes the
// core's next chunk, counting its Int, FP and branch instructions: a
// chunk is taken in the phase its draws belong to, and the phase's
// budget consumes it whole. It wakes the helper once per len(s.ahead)
// chunks freed, so a wake finds about one free chunk per core, and
// before it would wait for a chunk.
func (s *Sim) refill(c *core) {
	if c.ahead.kinds != nil {
		c.free <- c.ahead
		if s.freed++; s.freed%len(s.ahead) == 0 {
			s.rouse()
		}
	}
	var ch *chunk
	var ok bool
	select {
	case ch, ok = <-c.full:
	default:
		s.rouse()
		ch, ok = <-c.full
	}
	if !ok {
		panic(s.fault)
	}
	c.ahead, c.pos, c.apos = ch, 0, 0
	c.stats.IntOps += ch.count[workload.KindInt]
	c.stats.FPOps += ch.count[workload.KindFP]
	c.stats.Branches += ch.count[workload.KindBranch]
}

// rouse wakes the helper if it sleeps, or keeps it from sleeping.
func (s *Sim) rouse() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}
