// Package cache implements a block-granular LRU page cache with sequential
// readahead detection and write-back dirty tracking. It is the model behind
// every cache in the simulated systems: the OS page cache on compute nodes,
// GPFS's client-side pagepool (whose readahead makes sequential reads fly
// and whose thrashing makes random reads collapse), and the VAST DNode read
// cache.
//
// The cache is pure bookkeeping: it answers "which bytes hit, which ranges
// miss, what got evicted" and the file-system models attach simulated time
// to those outcomes.
//
// Residency is indexed per file: each file keeps its own block map, its
// sequential detector and the list of its dirty blocks, while one LRU list
// spans all files and sets the eviction order. So an fsync or close costs
// the file's own dirty blocks and an invalidation the file's own resident
// blocks, however many blocks other files hold.
package cache

import (
	"cmp"
	"fmt"
	"slices"
)

// Range is a half-open byte range [Off, Off+Len) within a file.
type Range struct {
	File uint64
	Off  int64
	Len  int64
}

// String renders "file:off+len".
func (r Range) String() string { return fmt.Sprintf("%d:%d+%d", r.File, r.Off, r.Len) }

// Config parameterizes a cache.
type Config struct {
	// BlockSize is the cache block (page) size in bytes.
	BlockSize int64
	// Capacity is the total cache size in bytes; rounded down to whole
	// blocks.
	Capacity int64
	// ReadaheadBlocks is how many blocks ahead the cache prefetches once a
	// file's access pattern looks sequential. 0 disables readahead.
	ReadaheadBlocks int
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	switch {
	case c.BlockSize <= 0:
		return fmt.Errorf("cache: block size must be positive")
	case c.Capacity < c.BlockSize:
		return fmt.Errorf("cache: capacity %d smaller than one block", c.Capacity)
	case c.ReadaheadBlocks < 0:
		return fmt.Errorf("cache: negative readahead")
	}
	return nil
}

// Stats counts cache outcomes in bytes and operations.
type Stats struct {
	HitBytes   int64
	MissBytes  int64
	Insertions int64
	Evictions  int64
	// DirtyEvictedBytes counts write-back traffic forced by eviction.
	DirtyEvictedBytes int64
}

// HitRatio returns hit bytes over total looked-up bytes (0 when idle).
func (s Stats) HitRatio() float64 {
	total := s.HitBytes + s.MissBytes
	if total == 0 {
		return 0
	}
	return float64(s.HitBytes) / float64(total)
}

// entry is one resident block.
type entry struct {
	file  *fileState
	index int64
	dirty bool
	slot  int // position in file.dirty while dirty
	// intrusive LRU list
	prev, next *entry
}

// fileState is one file's share of the cache.
type fileState struct {
	id     uint64
	blocks map[int64]*entry
	// dirty holds exactly the file's resident dirty blocks, unordered.
	dirty    []*entry
	nextSeq  int64 // next sequential block index
	seqScore int   // sequential streak length
}

func (f *fileState) markDirty(e *entry) {
	e.dirty = true
	e.slot = len(f.dirty)
	f.dirty = append(f.dirty, e)
}

// dropDirty removes a dirty block that leaves the cache from the dirty list.
func (f *fileState) dropDirty(e *entry) {
	last := f.dirty[len(f.dirty)-1]
	f.dirty[e.slot] = last
	last.slot = e.slot
	f.dirty[len(f.dirty)-1] = nil
	f.dirty = f.dirty[:len(f.dirty)-1]
	e.dirty = false
}

// Cache is the LRU cache. Not safe for concurrent use; in the simulator all
// accesses are serialized by the event loop.
type Cache struct {
	cfg      Config
	capBlk   int64
	files    map[uint64]*fileState
	resident int64
	lruHead  *entry // most recently used
	lruTail  *entry // least recently used
	stats    Stats
}

// New returns an empty cache; it panics on an invalid config (configs are
// static model parameters, so this is a programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:    cfg,
		capBlk: cfg.Capacity / cfg.BlockSize,
		files:  map[uint64]*fileState{},
	}
}

// Config returns the cache parameters.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return int(c.resident) }

// file returns file's state, creating it on first use.
func (c *Cache) file(file uint64) *fileState {
	f := c.files[file]
	if f == nil {
		f = &fileState{id: file, blocks: map[int64]*entry{}}
		c.files[file] = f
	}
	return f
}

// Lookup checks [off, off+size) of file: hit bytes are counted and
// refreshed in LRU order; missing bytes are returned as coalesced ranges
// (block-aligned). It also updates the sequential-pattern detector.
func (c *Cache) Lookup(file uint64, off, size int64) (hitBytes int64, misses []Range) {
	if size <= 0 {
		return 0, nil
	}
	f := c.file(file)
	bs := c.cfg.BlockSize
	first := off / bs
	last := (off + size - 1) / bs
	var missStart, missLen int64 = -1, 0
	flush := func() {
		if missStart >= 0 {
			misses = append(misses, Range{File: file, Off: missStart, Len: missLen})
			missStart, missLen = -1, 0
		}
	}
	for b := first; b <= last; b++ {
		// bytes of the request inside this block
		lo := max(off, b*bs)
		hi := min(off+size, (b+1)*bs)
		n := hi - lo
		if e, ok := f.blocks[b]; ok {
			c.touch(e)
			hitBytes += n
			c.stats.HitBytes += n
			flush()
		} else {
			c.stats.MissBytes += n
			if missStart < 0 {
				missStart = b * bs
				missLen = 0
			}
			missLen += bs
		}
	}
	flush()
	// Sequential detection at block granularity.
	if first == f.nextSeq || f.seqScore == 0 && first == 0 {
		f.seqScore++
	} else {
		f.seqScore = 0
	}
	f.nextSeq = last + 1
	return hitBytes, misses
}

// ReadaheadRange returns the block range the cache wants prefetched after
// the given access, or a zero-length range when the pattern is not
// sequential (or readahead is disabled). The caller fetches it and calls
// Insert.
func (c *Cache) ReadaheadRange(file uint64, off, size int64) Range {
	f := c.files[file]
	if c.cfg.ReadaheadBlocks == 0 || f == nil || f.seqScore < 2 {
		return Range{}
	}
	bs := c.cfg.BlockSize
	start := f.nextSeq // next unread block
	var missLen int64
	for i := 0; i < c.cfg.ReadaheadBlocks; i++ {
		if _, ok := f.blocks[start+int64(i)]; ok {
			break
		}
		missLen += bs
	}
	return Range{File: file, Off: start * bs, Len: missLen}
}

// Insert makes [off, off+size) of file resident (rounded out to blocks),
// marking the blocks dirty when dirty is set. Evicted dirty blocks are
// returned so the caller can charge write-back I/O.
func (c *Cache) Insert(file uint64, off, size int64, dirty bool) (evictedDirty []Range) {
	if size <= 0 {
		return nil
	}
	f := c.file(file)
	bs := c.cfg.BlockSize
	first := off / bs
	last := (off + size - 1) / bs
	for b := first; b <= last; b++ {
		if e, ok := f.blocks[b]; ok {
			if dirty && !e.dirty {
				f.markDirty(e)
			}
			c.touch(e)
			continue
		}
		c.stats.Insertions++
		e := &entry{file: f, index: b}
		f.blocks[b] = e
		if dirty {
			f.markDirty(e)
		}
		c.pushFront(e)
		c.resident++
		if c.resident > c.capBlk {
			if victim, wasDirty := c.evictOne(); wasDirty {
				evictedDirty = append(evictedDirty, victim)
			}
		}
	}
	return evictedDirty
}

// FlushFileRanges clears dirty flags on file's blocks and returns the
// coalesced dirty ranges in ascending offset order, so the caller can
// write them back preserving sequentiality. It costs O(d log d) in the
// file's d dirty blocks and allocates nothing when the file is clean.
func (c *Cache) FlushFileRanges(file uint64) []Range {
	f := c.files[file]
	if f == nil || len(f.dirty) == 0 {
		return nil
	}
	slices.SortFunc(f.dirty, func(a, b *entry) int { return cmp.Compare(a.index, b.index) })
	bs := c.cfg.BlockSize
	var out []Range
	start, length := f.dirty[0].index, int64(0)
	for _, e := range f.dirty {
		e.dirty = false
		if e.index == start+length {
			length++
			continue
		}
		out = append(out, Range{File: file, Off: start * bs, Len: length * bs})
		start, length = e.index, 1
	}
	out = append(out, Range{File: file, Off: start * bs, Len: length * bs})
	clear(f.dirty)
	f.dirty = f.dirty[:0]
	return out
}

// InvalidateFile drops all of file's blocks, dirty ones included, and
// resets its sequential detector (close-to-open NFS semantics, or the
// "read from a different node than wrote" trick in the paper's
// methodology).
func (c *Cache) InvalidateFile(file uint64) {
	f := c.files[file]
	if f == nil {
		return
	}
	for _, e := range f.blocks {
		c.unlink(e)
	}
	c.resident -= int64(len(f.blocks))
	delete(c.files, file)
}

// evictOne removes the LRU block and reports its range if it was dirty.
func (c *Cache) evictOne() (Range, bool) {
	e := c.lruTail
	if e == nil {
		return Range{}, false
	}
	c.unlink(e)
	f := e.file
	delete(f.blocks, e.index)
	c.resident--
	c.stats.Evictions++
	if !e.dirty {
		return Range{}, false
	}
	f.dropDirty(e)
	c.stats.DirtyEvictedBytes += c.cfg.BlockSize
	return Range{File: f.id, Off: e.index * c.cfg.BlockSize, Len: c.cfg.BlockSize}, true
}

func (c *Cache) touch(e *entry) {
	if c.lruHead == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.lruHead == e {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.lruTail == e {
		c.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}
