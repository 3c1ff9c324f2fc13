// Package cpusim is the reproduction's cycle-approximate multicore
// simulator — the substitute for SESC. It executes synthetic workload
// traces on a configurable number of 4-issue cores with private L1 data
// caches and private unified L2s kept coherent by a bus-based snoopy
// MESI protocol (Table 3 of the paper), backed by the
// Wide I/O DRAM model in internal/dram.
//
// The simulator's purpose is to produce (a) execution time as a function
// of per-core frequency and (b) per-architectural-block activity counts
// for the power model. It is event-ordered and fully deterministic.
package cpusim

import (
	"fmt"
	"math/bits"
)

// lineState is a MESI coherence state.
type lineState uint8

const (
	stateInvalid lineState = iota
	stateShared
	stateExclusive
	stateModified
)

// cacheLine is one way of one set, 16 bytes so an 8-way set spans two
// host cache lines. key packs the line number (address >> log2 line
// size) above the two MESI state bits; an invalid way keeps its stale
// line number and matches nothing.
type cacheLine struct {
	key uint64
	// lru is a per-set sequence number; larger = more recently used.
	lru uint64
}

const stateBits, stateMask = 2, 1<<2 - 1

func (l *cacheLine) state() lineState      { return lineState(l.key & stateMask) }
func (l *cacheLine) setState(st lineState) { l.key = l.key&^stateMask | uint64(st) }

// cache is a set-associative cache with LRU replacement and MESI states.
// L1 caches use only Invalid/Exclusive (they are write-through and the
// L2 enforces coherence); L2 caches use the full protocol. Set count and
// line size are powers of two, so a line's number is addr >> lineShift
// and its set is line & setMask.
type cache struct {
	sets      int
	assoc     int
	lineShift uint
	setMask   uint64
	lines     []cacheLine // sets*assoc, set-major
	lruTick   uint64
	last      int // index of the way lookup last returned, checked first
}

func newCache(sizeBytes, assoc, lineSize int) (*cache, error) {
	if sizeBytes <= 0 || assoc <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cpusim: invalid cache geometry %d/%d/%d", sizeBytes, assoc, lineSize)
	}
	lines := sizeBytes / lineSize
	sets := lines / assoc
	if sets == 0 || lines%assoc != 0 {
		return nil, fmt.Errorf("cpusim: cache %dB %d-way %dB lines does not divide evenly", sizeBytes, assoc, lineSize)
	}
	// Lines of at least 4 bytes leave room for the state bits.
	if sets&(sets-1) != 0 || lineSize&(lineSize-1) != 0 || lineSize < 1<<stateBits {
		return nil, fmt.Errorf("cpusim: cache %dB %d-way %dB lines: set count %d and line size must be powers of two", sizeBytes, assoc, lineSize, sets)
	}
	return &cache{
		sets:      sets,
		assoc:     assoc,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setMask:   uint64(sets - 1),
		lines:     make([]cacheLine, sets*assoc),
	}, nil
}

// set returns the ways of line number ln's set.
func (c *cache) set(ln uint64) []cacheLine {
	base := int(ln&c.setMask) * c.assoc
	return c.lines[base : base+c.assoc]
}

// lookup returns the line holding addr, or nil. It does not touch LRU.
// No set holds two valid ways for one line (fill runs only after a
// miss), so a last way that holds addr's line is the one a scan finds.
func (c *cache) lookup(addr uint64) *cacheLine {
	ln := addr >> c.lineShift
	want := ln << stateBits
	if k := c.lines[c.last].key; k&^stateMask == want && k != want {
		return &c.lines[c.last]
	}
	base := int(ln&c.setMask) * c.assoc
	for i, l := range c.lines[base : base+c.assoc] {
		if l.key&^stateMask == want && l.key != want {
			c.last = base + i
			return &c.lines[c.last]
		}
	}
	return nil
}

// touch marks a line most recently used.
func (c *cache) touch(l *cacheLine) {
	c.lruTick++
	l.lru = c.lruTick
}

// victim returns the line to fill for addr: an invalid way if one exists,
// otherwise the LRU way. The caller is responsible for handling the
// victim's writeback/invalidation before overwriting it.
func (c *cache) victim(addr uint64) *cacheLine {
	ways := c.set(addr >> c.lineShift)
	var best *cacheLine
	for i := range ways {
		l := &ways[i]
		if l.state() == stateInvalid {
			return l
		}
		if best == nil || l.lru < best.lru {
			best = l
		}
	}
	return best
}

// fill installs addr into the given way with the given state.
func (c *cache) fill(l *cacheLine, addr uint64, st lineState) {
	l.key = addr>>c.lineShift<<stateBits | uint64(st)
	c.touch(l)
}

// lineAddr returns the base address of the line a way currently holds.
func (c *cache) lineAddr(l *cacheLine) uint64 { return l.key >> stateBits << c.lineShift }

// invalidate drops addr if present, returning the prior state.
func (c *cache) invalidate(addr uint64) lineState {
	if l := c.lookup(addr); l != nil {
		st := l.state()
		l.setState(stateInvalid)
		return st
	}
	return stateInvalid
}
