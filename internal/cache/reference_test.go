package cache

import (
	"slices"
	"testing"

	"storagesim/internal/stats"
)

type blockKey struct {
	file  uint64
	index int64
}

type access struct{ first, last int64 }

// refCache is a deliberately naive reference implementation of a
// block-granular LRU: residency via a slice ordered most-recent-first,
// dirty state in one global set, and the sequential detector recomputed
// from each file's whole access history. The fuzz below drives both
// implementations with the same random op stream and demands identical
// hits, misses, evictions, readahead ranges and flushed ranges throughout.
type refCache struct {
	cap     int
	bs      int64
	ra      int
	order   []blockKey // MRU first
	dirty   map[blockKey]bool
	history map[uint64][]access // lookups since the last invalidation
}

func newRef(capBlocks int, bs int64, readahead int) *refCache {
	return &refCache{cap: capBlocks, bs: bs, ra: readahead,
		dirty: map[blockKey]bool{}, history: map[uint64][]access{}}
}

func (r *refCache) find(k blockKey) int {
	for i, e := range r.order {
		if e == k {
			return i
		}
	}
	return -1
}

func (r *refCache) touch(k blockKey) bool {
	if i := r.find(k); i >= 0 {
		r.order = append([]blockKey{k}, append(r.order[:i:i], r.order[i+1:]...)...)
		return true
	}
	return false
}

func (r *refCache) insertBlock(k blockKey, dirty bool) (victim blockKey, dirtyVictim bool) {
	if dirty {
		r.dirty[k] = true
	}
	if r.touch(k) {
		return blockKey{}, false
	}
	r.order = append([]blockKey{k}, r.order...)
	if len(r.order) > r.cap {
		victim = r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		dirtyVictim = r.dirty[victim]
		delete(r.dirty, victim)
	}
	return victim, dirtyVictim
}

func (r *refCache) insert(file uint64, first, last int64, dirty bool) (evicted []Range) {
	for b := first; b <= last; b++ {
		if v, d := r.insertBlock(blockKey{file, b}, dirty); d {
			evicted = append(evicted, Range{File: v.file, Off: v.index * r.bs, Len: r.bs})
		}
	}
	return evicted
}

func (r *refCache) lookup(file uint64, first, last int64) (hit int64, misses []Range) {
	for b := first; b <= last; b++ {
		if r.touch(blockKey{file, b}) {
			hit += r.bs
			continue
		}
		if n := len(misses); n > 0 && misses[n-1].Off+misses[n-1].Len == b*r.bs {
			misses[n-1].Len += r.bs
		} else {
			misses = append(misses, Range{File: file, Off: b * r.bs, Len: r.bs})
		}
	}
	r.history[file] = append(r.history[file], access{first, last})
	return hit, misses
}

// sequential replays file's history: an access extends the streak when it
// starts where the previous one ended (or at block 0 with no streak).
func (r *refCache) sequential(file uint64) (next int64, streak int) {
	for _, a := range r.history[file] {
		if a.first == next || streak == 0 && a.first == 0 {
			streak++
		} else {
			streak = 0
		}
		next = a.last + 1
	}
	return next, streak
}

func (r *refCache) readahead(file uint64) Range {
	next, streak := r.sequential(file)
	if r.ra == 0 || streak < 2 {
		return Range{}
	}
	n := int64(0)
	for n < int64(r.ra) && r.find(blockKey{file, next + n}) < 0 {
		n++
	}
	return Range{File: file, Off: next * r.bs, Len: n * r.bs}
}

func (r *refCache) flush(file uint64) (out []Range) {
	var idxs []int64
	for k := range r.dirty {
		if k.file == file {
			idxs = append(idxs, k.index)
			delete(r.dirty, k)
		}
	}
	slices.Sort(idxs)
	for _, i := range idxs {
		if n := len(out); n > 0 && out[n-1].Off+out[n-1].Len == i*r.bs {
			out[n-1].Len += r.bs
		} else {
			out = append(out, Range{File: file, Off: i * r.bs, Len: r.bs})
		}
	}
	return out
}

func (r *refCache) invalidate(file uint64) {
	kept := r.order[:0]
	for _, k := range r.order {
		if k.file != file {
			kept = append(kept, k)
		}
	}
	r.order = kept
	for k := range r.dirty {
		if k.file == file {
			delete(r.dirty, k)
		}
	}
	delete(r.history, file)
}

func TestCacheAgainstReferenceModel(t *testing.T) {
	const capBlocks = 16
	const bs = 4096
	const readahead = 4
	c := New(Config{BlockSize: bs, Capacity: capBlocks * bs, ReadaheadBlocks: readahead})
	ref := newRef(capBlocks, bs, readahead)
	rng := stats.NewRNG(0xFACE)

	var flushed, invalidated, readaheads int
	for op := 0; op < 20000; op++ {
		file := uint64(rng.Intn(3) + 1)
		blk := int64(rng.Intn(40))
		n := int64(rng.Intn(3) + 1)
		switch rng.Intn(12) {
		case 0, 1, 2: // lookup, random or continuing the file's sequence
			if rng.Intn(2) == 0 {
				blk, _ = ref.sequential(file)
			}
			hit, misses := c.Lookup(file, blk*bs, n*bs)
			wantHit, wantMisses := ref.lookup(file, blk, blk+n-1)
			if hit != wantHit || !slices.Equal(misses, wantMisses) {
				t.Fatalf("op %d: lookup(%d, blk %d+%d) = %d %v, reference %d %v",
					op, file, blk, n, hit, misses, wantHit, wantMisses)
			}
			ra := c.ReadaheadRange(file, blk*bs, n*bs)
			if want := ref.readahead(file); ra != want {
				t.Fatalf("op %d: readahead(%d) = %v, reference %v", op, file, ra, want)
			}
			if ra.Len > 0 { // callers prefetch the range clean
				readaheads++
				c.Insert(ra.File, ra.Off, ra.Len, false)
				ref.insert(ra.File, ra.Off/bs, (ra.Off+ra.Len)/bs-1, false)
			}
		case 3, 4, 5, 6, 7, 8: // insert, clean or dirty
			dirty := rng.Intn(2) == 0
			evicted := c.Insert(file, blk*bs, n*bs, dirty)
			if want := ref.insert(file, blk, blk+n-1, dirty); !slices.Equal(evicted, want) {
				t.Fatalf("op %d: insert evicted dirty %v, reference %v", op, evicted, want)
			}
		case 9, 10: // fsync
			flushed++
			if got, want := c.FlushFileRanges(file), ref.flush(file); !slices.Equal(got, want) {
				t.Fatalf("op %d: flush(%d) = %v, reference %v", op, file, got, want)
			}
		case 11:
			invalidated++
			c.InvalidateFile(file)
			ref.invalidate(file)
		}
		if c.Len() != len(ref.order) {
			t.Fatalf("op %d: resident count %d vs reference %d", op, c.Len(), len(ref.order))
		}
	}
	if flushed == 0 || invalidated == 0 || readaheads == 0 {
		t.Fatalf("op stream missed a path: %d flushes, %d invalidations, %d readaheads",
			flushed, invalidated, readaheads)
	}
	for file := uint64(1); file <= 3; file++ {
		if got, want := c.FlushFileRanges(file), ref.flush(file); !slices.Equal(got, want) {
			t.Fatalf("final flush(%d) = %v, reference %v", file, got, want)
		}
	}
}

// A dirty block evicted and then re-inserted dirty is written back once by
// the eviction and once by the next flush, never twice by the flush.
func TestFlushAfterDirtyEvictAndReinsert(t *testing.T) {
	c := newTest(3, 0)
	c.Insert(1, 0, 3*4096, true) // blocks 0, 1, 2 dirty
	if ev := c.Insert(1, 3*4096, 4096, false); len(ev) != 1 || ev[0].Off != 0 {
		t.Fatalf("first eviction = %v, want block 0", ev)
	}
	if ev := c.Insert(1, 0, 4096, true); len(ev) != 1 || ev[0].Off != 4096 {
		t.Fatalf("second eviction = %v, want block 1", ev)
	}
	want := []Range{{File: 1, Off: 0, Len: 4096}, {File: 1, Off: 2 * 4096, Len: 4096}}
	if got := c.FlushFileRanges(1); !slices.Equal(got, want) {
		t.Fatalf("flush = %v, want %v", got, want)
	}
	if got := c.FlushFileRanges(1); got != nil {
		t.Fatalf("second flush = %v, want nothing", got)
	}
}
