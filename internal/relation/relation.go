package relation

import (
	"sort"
	"sync"

	"blockchaindb/internal/value"
)

// Relation is a set of tuples over a schema, with optional hash indexes
// over column sets. Insertion preserves set semantics: duplicate tuples
// are ignored. Tuples keep their insertion order for deterministic
// iteration, except that an overlay's holder-counted removal (see
// Overlay.Remove) moves the last tuple into the freed slot.
//
// Reads — including the lazy index build on first Lookup — are safe
// from concurrent goroutines; the parallel DCSat workers and concurrent
// Monitor checks all evaluate queries over shared relations. Mutation
// (Insert) still requires external exclusion against readers.
type Relation struct {
	schema  *Schema
	tuples  []value.Tuple
	byKey   map[string]int // full-tuple key -> position in tuples
	keyBuf  []byte         // reusable key-encoding buffer for Insert
	idxMu   sync.RWMutex
	idxList []*hashIndex // a relation accumulates a handful at most
}

type hashIndex struct {
	cols    []int
	buckets map[string][]int // projection key -> positions
}

// NewRelation creates an empty relation over the schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{
		schema: schema,
		byKey:  make(map[string]int),
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of (distinct) tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// At returns the i-th tuple in insertion order.
func (r *Relation) At(i int) value.Tuple { return r.tuples[i] }

// Insert adds the tuple, returning false if an identical tuple is
// already present. The tuple is validated against the schema and
// numeric values are normalized to the declared column kinds; an
// invalid tuple returns an error.
func (r *Relation) Insert(t value.Tuple) (bool, error) {
	t, err := r.schema.Normalize(t)
	if err != nil {
		return false, err
	}
	r.keyBuf = t.AppendKey(r.keyBuf[:0])
	return r.insertNormalized(t, r.keyBuf), nil
}

// insertNormalized adds an already-normalized tuple given its key
// encoding. The duplicate check probes with the non-allocating
// map[string(key)] form, so a re-inserted tuple (the common case when
// overlays refill from pending transactions) costs no allocation; only
// an actual insert materializes key strings.
func (r *Relation) insertNormalized(t value.Tuple, key []byte) bool {
	if _, dup := r.byKey[string(key)]; dup {
		return false
	}
	pos := len(r.tuples)
	r.tuples = append(r.tuples, t)
	r.byKey[string(key)] = pos
	for _, idx := range r.idxList {
		pk := t.ProjectKey(idx.cols)
		idx.buckets[pk] = append(idx.buckets[pk], pos)
	}
	return true
}

// MustInsert is Insert but panics on schema violation; for internal
// callers that construct tuples programmatically.
func (r *Relation) MustInsert(t value.Tuple) bool {
	ok, err := r.Insert(t)
	if err != nil {
		panic(err)
	}
	return ok
}

// Contains reports whether an identical tuple (after normalization) is
// present.
func (r *Relation) Contains(t value.Tuple) bool {
	nt, err := r.schema.Normalize(t)
	if err != nil {
		return false
	}
	_, ok := r.byKey[nt.Key()]
	return ok
}

// ContainsKey reports whether a tuple with the given full-tuple key
// encoding (value.Tuple.AppendKey of an already-normalized tuple) is
// present. The map[string(key)] form makes the probe allocation-free.
func (r *Relation) ContainsKey(key []byte) bool {
	_, ok := r.byKey[string(key)]
	return ok
}

// indexFor returns the hash index over the column set, building it once
// on first use. Resolving an existing index is a linear scan over the
// handful of indexes a relation ever accumulates, so — unlike a
// signature-string map — the hot-path probe allocates nothing.
// Concurrent callers are safe: the first one in builds, the rest wait
// and reuse it.
func (r *Relation) indexFor(cols []int) *hashIndex {
	r.idxMu.RLock()
	for _, idx := range r.idxList {
		if equalCols(idx.cols, cols) {
			r.idxMu.RUnlock()
			return idx
		}
	}
	r.idxMu.RUnlock()
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	for _, idx := range r.idxList {
		if equalCols(idx.cols, cols) {
			return idx
		}
	}
	idx := &hashIndex{cols: append([]int(nil), cols...), buckets: make(map[string][]int)}
	var buf []byte
	for pos, t := range r.tuples {
		buf = t.AppendProjectKey(buf[:0], idx.cols)
		idx.buckets[string(buf)] = append(idx.buckets[string(buf)], pos)
	}
	r.idxList = append(r.idxList, idx)
	return idx
}

func equalCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EnsureIndex builds (once) a hash index over the column set and
// returns its signature for use with Lookup.
func (r *Relation) EnsureIndex(cols []int) string {
	r.indexFor(cols)
	return colSignature(cols)
}

// Lookup returns the positions of tuples whose projection on cols has
// the given key. It builds the index on first use. The returned slice
// must not be modified.
func (r *Relation) Lookup(cols []int, projKey string) []int {
	return r.indexFor(cols).buckets[projKey]
}

// LookupTuples iterates the tuples matching the projection key, calling
// f for each; f returning false stops iteration early. It reports
// whether iteration ran to completion.
func (r *Relation) LookupTuples(cols []int, projKey string, f func(value.Tuple) bool) bool {
	for _, pos := range r.Lookup(cols, projKey) {
		if !f(r.tuples[pos]) {
			return false
		}
	}
	return true
}

// LookupTuplesKey is LookupTuples with the projection key supplied as a
// byte buffer (value.Tuple.AppendProjectKey encoding); the
// map[string(key)] probe form keeps the per-probe path allocation-free.
func (r *Relation) LookupTuplesKey(cols []int, projKey []byte, f func(value.Tuple) bool) bool {
	idx := r.indexFor(cols)
	for _, pos := range idx.buckets[string(projKey)] {
		if !f(r.tuples[pos]) {
			return false
		}
	}
	return true
}

// Scan iterates all tuples in insertion order; f returning false stops
// early. It reports whether iteration ran to completion.
func (r *Relation) Scan(f func(value.Tuple) bool) bool {
	for _, t := range r.tuples {
		if !f(t) {
			return false
		}
	}
	return true
}

// ScanRange iterates the tuples at positions [lo, hi) in insertion
// order; f returning false stops early. It reports whether iteration
// ran to completion. Out-of-range bounds are clamped. Together with
// Truncate this is what lets an overlay expose "tuples before/after an
// undo mark" windows without copying anything.
func (r *Relation) ScanRange(lo, hi int, f func(value.Tuple) bool) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > len(r.tuples) {
		hi = len(r.tuples)
	}
	for ; lo < hi; lo++ {
		if !f(r.tuples[lo]) {
			return false
		}
	}
	return true
}

// LookupTuplesKeyRange is LookupTuplesKey restricted to tuples at
// positions [lo, hi). Index buckets hold positions in ascending order,
// so the probe skips the below-window prefix and stops at the first
// position past the window.
func (r *Relation) LookupTuplesKeyRange(cols []int, projKey []byte, lo, hi int, f func(value.Tuple) bool) bool {
	idx := r.indexFor(cols)
	for _, pos := range idx.buckets[string(projKey)] {
		if pos < lo {
			continue
		}
		if pos >= hi {
			break
		}
		if !f(r.tuples[pos]) {
			return false
		}
	}
	return true
}

// Truncate removes the tuples at positions n and above — the exact
// inverse of the inserts that appended them, undoing key-map entries
// and index postings as well. The cost is O(tuples removed × indexes),
// independent of the relation's size, which is what makes popping a
// transaction off an overlay's undo log cheap. Callers must exclude
// concurrent readers, as with Insert.
func (r *Relation) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(r.tuples) {
		return
	}
	r.idxMu.Lock()
	for _, idx := range r.idxList {
		// Walk positions high-to-low: a bucket's positions ascend, and
		// the highest live position overall is necessarily its bucket's
		// tail, so each removal pops a tail.
		for pos := len(r.tuples) - 1; pos >= n; pos-- {
			r.keyBuf = r.tuples[pos].AppendProjectKey(r.keyBuf[:0], idx.cols)
			b := idx.buckets[string(r.keyBuf)]
			idx.buckets[string(r.keyBuf)] = b[:len(b)-1]
		}
	}
	r.idxMu.Unlock()
	for pos := len(r.tuples) - 1; pos >= n; pos-- {
		r.keyBuf = r.tuples[pos].AppendKey(r.keyBuf[:0])
		delete(r.byKey, string(r.keyBuf))
		r.tuples[pos] = nil // release the tuple for GC
	}
	r.tuples = r.tuples[:n]
}

// removeAt deletes the tuple at pos by moving the last tuple into its
// slot (swap-remove), so deletion costs O(indexes × bucket size),
// independent of the relation's size. Every index bucket stays in
// ascending position order, the invariant Truncate and
// LookupTuplesKeyRange rely on: pos leaves its bucket, and the moved
// tuple's posting — the tail of its bucket, since it held the highest
// position — is re-slotted in order. Emptied buckets are deleted, so a
// relation under insert/delete churn does not accumulate them. The
// moved tuple changes position, so insertion order is not preserved.
// Callers must exclude concurrent readers, as with Insert.
func (r *Relation) removeAt(pos int) {
	last := len(r.tuples) - 1
	gone, moved := r.tuples[pos], r.tuples[last]
	r.idxMu.Lock()
	for _, idx := range r.idxList {
		r.keyBuf = gone.AppendProjectKey(r.keyBuf[:0], idx.cols)
		idx.unpost(r.keyBuf, pos)
		if pos != last {
			r.keyBuf = moved.AppendProjectKey(r.keyBuf[:0], idx.cols)
			idx.repost(r.keyBuf, pos)
		}
	}
	r.idxMu.Unlock()
	r.keyBuf = gone.AppendKey(r.keyBuf[:0])
	delete(r.byKey, string(r.keyBuf))
	if pos != last {
		r.tuples[pos] = moved
		r.keyBuf = moved.AppendKey(r.keyBuf[:0])
		r.byKey[string(r.keyBuf)] = pos
	}
	r.tuples[last] = nil // release the tuple for GC
	r.tuples = r.tuples[:last]
}

// unpost removes pos from the bucket under key, keeping it ascending.
func (idx *hashIndex) unpost(key []byte, pos int) {
	b := idx.buckets[string(key)]
	i := sort.SearchInts(b, pos)
	if i == len(b) || b[i] != pos {
		return
	}
	if len(b) == 1 {
		delete(idx.buckets, string(key))
		return
	}
	idx.buckets[string(key)] = append(b[:i], b[i+1:]...)
}

// repost replaces the tail posting of the bucket under key with pos,
// which is lower, at its sorted slot. The bucket keeps its length, so
// it is rewritten in place.
func (idx *hashIndex) repost(key []byte, pos int) {
	b := idx.buckets[string(key)]
	i := sort.SearchInts(b, pos)
	copy(b[i+1:], b[i:len(b)-1])
	b[i] = pos
}

// Clear removes every tuple while keeping the schema, the key map's
// allocated buckets, and any built indexes (emptied in place), so a
// pooled relation refills without re-allocating its bookkeeping.
// Callers must exclude concurrent readers, as with Insert.
func (r *Relation) Clear() {
	r.tuples = r.tuples[:0]
	clear(r.byKey)
	r.idxMu.Lock()
	for _, idx := range r.idxList {
		clear(idx.buckets)
	}
	r.idxMu.Unlock()
}

// Clone returns a deep-enough copy: tuples are shared (they are
// immutable) but all bookkeeping is fresh, so inserts into the clone do
// not affect the original. Indexes are not copied; they rebuild lazily.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.schema)
	c.tuples = append([]value.Tuple(nil), r.tuples...)
	for k, v := range r.byKey {
		c.byKey[k] = v
	}
	return c
}
