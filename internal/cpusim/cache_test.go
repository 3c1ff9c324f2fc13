package cpusim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheGeometry(t *testing.T) {
	c, err := newCache(32*1024, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.sets != 256 || c.assoc != 2 {
		t.Fatalf("32KB 2-way 64B: %d sets x %d ways", c.sets, c.assoc)
	}
	if _, err := newCache(0, 2, 64); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := newCache(100, 3, 64); err == nil {
		t.Fatal("non-dividing geometry accepted")
	}
	// Indexing is by shift and mask: set count and line size must be
	// powers of two, and a line must leave room for the state bits.
	for _, g := range [][3]int{{3 * 2 * 64, 2, 64}, {48 * 16, 1, 48}, {2 * 16, 1, 2}} {
		if _, err := newCache(g[0], g[1], g[2]); err == nil {
			t.Fatalf("geometry %v accepted", g)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c, _ := newCache(4*1024, 4, 64)
	addr := uint64(0xABCD40)
	if c.lookup(addr) != nil {
		t.Fatal("hit in empty cache")
	}
	v := c.victim(addr)
	c.fill(v, addr, stateExclusive)
	l := c.lookup(addr)
	if l == nil {
		t.Fatal("miss after fill")
	}
	// Same line, different word: still a hit.
	if c.lookup(addr+8) == nil {
		t.Fatal("intra-line offset missed")
	}
	// Next line: miss.
	if c.lookup(addr+64) != nil {
		t.Fatal("next line hit spuriously")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := newCache(2*64*4, 2, 64) // 4 sets, 2 ways
	// Three conflicting lines in one set: set stride = sets*64 = 256.
	a, b, d := uint64(0), uint64(256), uint64(512)
	for _, addr := range []uint64{a, b} {
		c.fill(c.victim(addr), addr, stateExclusive)
	}
	// Touch a so b becomes LRU.
	c.touch(c.lookup(a))
	v := c.victim(d)
	if c.lineAddr(v) != b {
		t.Fatalf("victim is %#x, want b (%#x)", c.lineAddr(v), b)
	}
	c.fill(v, d, stateExclusive)
	if c.lookup(b) != nil {
		t.Fatal("b survived eviction")
	}
	if c.lookup(a) == nil || c.lookup(d) == nil {
		t.Fatal("a or d missing")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c, _ := newCache(4*1024, 4, 64)
	addr := uint64(0x1000)
	c.fill(c.victim(addr), addr, stateModified)
	if st := c.invalidate(addr); st != stateModified {
		t.Fatalf("invalidate returned %v, want M", st)
	}
	if c.lookup(addr) != nil {
		t.Fatal("line survived invalidation")
	}
	if st := c.invalidate(addr); st != stateInvalid {
		t.Fatal("double invalidation returned non-invalid")
	}
}

func TestCacheLineAddrRoundTrip(t *testing.T) {
	c, _ := newCache(32*1024, 8, 64)
	f := func(raw uint64) bool {
		addr := raw &^ 63
		v := c.victim(addr)
		c.fill(v, addr, stateShared)
		return c.lineAddr(v) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache never holds two ways with the same tag in one set.
func TestCacheNoDuplicateLines(t *testing.T) {
	c, _ := newCache(8*1024, 4, 64)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Int63n(64*1024)) &^ 63
		if l := c.lookup(addr); l != nil {
			c.touch(l)
			continue
		}
		c.fill(c.victim(addr), addr, stateExclusive)
	}
	for set := 0; set < c.sets; set++ {
		seen := map[uint64]bool{}
		for w := 0; w < c.assoc; w++ {
			l := &c.lines[set*c.assoc+w]
			if l.state() == stateInvalid {
				continue
			}
			if seen[c.lineAddr(l)] {
				t.Fatalf("set %d holds line %#x twice", set, c.lineAddr(l))
			}
			seen[c.lineAddr(l)] = true
		}
	}
}
