package cache

import (
	"testing"
	"testing/quick"
)

func newTest(capBlocks int64, readahead int) *Cache {
	return New(Config{BlockSize: 4096, Capacity: capBlocks * 4096, ReadaheadBlocks: readahead})
}

// flushBytes flushes file and returns the byte count written back.
func flushBytes(c *Cache, file uint64) int64 {
	var n int64
	for _, r := range c.FlushFileRanges(file) {
		n += r.Len
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{BlockSize: 0, Capacity: 4096},
		{BlockSize: 4096, Capacity: 100},
		{BlockSize: 4096, Capacity: 8192, ReadaheadBlocks: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := Config{BlockSize: 4096, Capacity: 1 << 20, ReadaheadBlocks: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := newTest(16, 0)
	hit, misses := c.Lookup(1, 0, 8192)
	if hit != 0 || len(misses) != 1 || misses[0].Len != 8192 {
		t.Fatalf("cold lookup: hit=%d misses=%v", hit, misses)
	}
	c.Insert(1, 0, 8192, false)
	hit, misses = c.Lookup(1, 0, 8192)
	if hit != 8192 || len(misses) != 0 {
		t.Fatalf("warm lookup: hit=%d misses=%v", hit, misses)
	}
	if r := c.Stats().HitRatio(); r != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", r)
	}
}

func TestPartialHit(t *testing.T) {
	c := newTest(16, 0)
	c.Insert(1, 4096, 4096, false) // middle block resident
	hit, misses := c.Lookup(1, 0, 12288)
	if hit != 4096 {
		t.Fatalf("hit = %d, want 4096", hit)
	}
	if len(misses) != 2 || misses[0].Off != 0 || misses[1].Off != 8192 {
		t.Fatalf("misses = %v", misses)
	}
}

func TestMissCoalescing(t *testing.T) {
	c := newTest(64, 0)
	_, misses := c.Lookup(7, 0, 10*4096)
	if len(misses) != 1 || misses[0].Len != 10*4096 {
		t.Fatalf("contiguous misses not coalesced: %v", misses)
	}
}

func TestSubBlockAccounting(t *testing.T) {
	c := newTest(16, 0)
	c.Insert(1, 0, 4096, false)
	hit, misses := c.Lookup(1, 100, 200) // inside resident block
	if hit != 200 || len(misses) != 0 {
		t.Fatalf("sub-block hit = %d misses=%v", hit, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newTest(4, 0)
	for b := int64(0); b < 4; b++ {
		c.Insert(1, b*4096, 4096, false)
	}
	// touch block 0 so block 1 is LRU
	c.Lookup(1, 0, 4096)
	c.Insert(1, 100*4096, 4096, false) // forces one eviction
	if hit, _ := c.Lookup(1, 0, 4096); hit != 4096 {
		t.Fatal("recently touched block was evicted")
	}
	if hit, _ := c.Lookup(1, 4096, 4096); hit != 0 {
		t.Fatal("LRU block survived eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := newTest(2, 0)
	c.Insert(1, 0, 4096, true)
	c.Insert(1, 4096, 4096, false)
	evicted := c.Insert(1, 8192, 4096, false)
	if len(evicted) != 1 || evicted[0].Off != 0 {
		t.Fatalf("dirty eviction = %v", evicted)
	}
	if c.Stats().DirtyEvictedBytes != 4096 {
		t.Fatalf("dirty evicted bytes = %d", c.Stats().DirtyEvictedBytes)
	}
}

func TestFlushFile(t *testing.T) {
	c := newTest(16, 0)
	c.Insert(1, 0, 3*4096, true)
	c.Insert(2, 0, 4096, true)
	if n := flushBytes(c, 1); n != 3*4096 {
		t.Fatalf("flush returned %d, want %d", n, 3*4096)
	}
	if n := flushBytes(c, 1); n != 0 {
		t.Fatalf("second flush returned %d, want 0", n)
	}
	if n := flushBytes(c, 2); n != 4096 {
		t.Fatalf("file 2 dirty = %d", n)
	}
}

// A clean file's flush is a lookup of its (empty) dirty list: no walk of
// other files' blocks and no allocation.
func TestFlushCleanFileAllocatesNothing(t *testing.T) {
	c := newTest(1024, 0)
	for f := uint64(2); f < 10; f++ {
		c.Insert(f, 0, 100*4096, f%2 == 0)
	}
	c.Insert(1, 0, 8*4096, false)
	for _, file := range []uint64{1, 99} {
		if n := testing.AllocsPerRun(100, func() { c.FlushFileRanges(file) }); n != 0 {
			t.Errorf("FlushFileRanges(%d) on a clean file: %v allocs, want 0", file, n)
		}
	}
}

func TestInvalidateFile(t *testing.T) {
	c := newTest(16, 0)
	c.Insert(1, 0, 4*4096, false)
	c.Insert(2, 0, 4096, false)
	c.InvalidateFile(1)
	if hit, _ := c.Lookup(1, 0, 4*4096); hit != 0 {
		t.Fatal("invalidated file still resident")
	}
	if hit, _ := c.Lookup(2, 0, 4096); hit != 4096 {
		t.Fatal("other file was invalidated too")
	}
}

func TestReadaheadTriggersOnSequential(t *testing.T) {
	c := newTest(256, 8)
	// Two sequential accesses arm the detector.
	c.Lookup(1, 0, 4096)
	c.Lookup(1, 4096, 4096)
	ra := c.ReadaheadRange(1, 4096, 4096)
	if ra.Len != 8*4096 {
		t.Fatalf("readahead = %v, want 8 blocks", ra)
	}
	if ra.Off != 2*4096 {
		t.Fatalf("readahead starts at %d, want next unread block", ra.Off)
	}
}

func TestReadaheadSilentOnRandom(t *testing.T) {
	c := newTest(256, 8)
	c.Lookup(1, 0, 4096)
	c.Lookup(1, 50*4096, 4096)
	c.Lookup(1, 3*4096, 4096)
	if ra := c.ReadaheadRange(1, 3*4096, 4096); ra.Len != 0 {
		t.Fatalf("random pattern triggered readahead: %v", ra)
	}
}

func TestReadaheadDisabled(t *testing.T) {
	c := newTest(256, 0)
	c.Lookup(1, 0, 4096)
	c.Lookup(1, 4096, 4096)
	if ra := c.ReadaheadRange(1, 4096, 4096); ra.Len != 0 {
		t.Fatal("readahead fired while disabled")
	}
}

func TestReadaheadStopsAtResidentBlock(t *testing.T) {
	c := newTest(256, 8)
	c.Insert(1, 2*4096, 4096, false) // block 2 already resident
	c.Lookup(1, 0, 4096)
	c.Lookup(1, 4096, 4096)
	if ra := c.ReadaheadRange(1, 4096, 4096); ra.Len != 0 {
		t.Fatalf("readahead did not stop at resident block: %v", ra)
	}
}

func TestThrashingRandomWorkingSet(t *testing.T) {
	// Random access over a working set 100x the cache: hit ratio ~1%.
	c := newTest(100, 0)
	fileBlocks := int64(10000)
	seed := uint64(12345)
	for i := 0; i < 20000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		b := int64(seed>>33) % fileBlocks
		_, misses := c.Lookup(1, b*4096, 4096)
		for _, m := range misses {
			c.Insert(m.File, m.Off, m.Len, false)
		}
	}
	if r := c.Stats().HitRatio(); r > 0.05 {
		t.Fatalf("thrash hit ratio = %.3f, want ~0.01", r)
	}
}

// Property: cache never holds more than capacity blocks, and lookup after
// insert of the same range always fully hits.
func TestCapacityAndResidencyProperty(t *testing.T) {
	f := func(ops []struct {
		File uint8
		Blk  uint16
	}) bool {
		c := newTest(32, 0)
		for _, op := range ops {
			off := int64(op.Blk) * 4096
			c.Insert(uint64(op.File), off, 4096, false)
			if int64(c.Len()) > 32 {
				return false
			}
			hit, _ := c.Lookup(uint64(op.File), off, 4096)
			if hit != 4096 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
