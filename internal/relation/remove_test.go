package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"blockchaindb/internal/value"
)

// assertBucketsAscending fails unless every index bucket of r lists
// positions in strictly ascending order, each pointing at a tuple whose
// projection is the bucket's key, and the buckets together cover every
// position exactly once. Truncate leaves emptied buckets in place for
// the next push to refill; removeAt deletes them, so a relation that
// only ever shrinks by removeAt must have none (noEmpty).
func assertBucketsAscending(t *testing.T, step int, r *Relation, noEmpty bool) {
	t.Helper()
	for _, idx := range r.idxList {
		seen := 0
		for key, b := range idx.buckets {
			if noEmpty && len(b) == 0 {
				t.Fatalf("step %d: index %v keeps an empty bucket", step, idx.cols)
			}
			if !sort.SliceIsSorted(b, func(i, j int) bool { return b[i] < b[j] }) {
				t.Fatalf("step %d: index %v bucket %q not ascending: %v", step, idx.cols, key, b)
			}
			for i, pos := range b {
				if i > 0 && b[i-1] == pos {
					t.Fatalf("step %d: index %v bucket %q repeats %d", step, idx.cols, key, pos)
				}
				if got := r.tuples[pos].ProjectKey(idx.cols); got != key {
					t.Fatalf("step %d: index %v posting %d sits in bucket %q, projects to %q", step, idx.cols, pos, key, got)
				}
			}
			seen += len(b)
		}
		if seen != r.Len() {
			t.Fatalf("step %d: index %v holds %d postings for %d tuples", step, idx.cols, seen, r.Len())
		}
	}
}

// TestRelationRemoveAtRandomized interleaves inserts and swap-removes on
// an indexed relation and, after each operation, checks it against a
// twin rebuilt from the surviving tuples in their current order:
// Contains, Lookup and LookupTuplesKeyRange agree, and every bucket
// stays ascending. Every few steps a Truncate (the undo-log pop that
// relies on ascending buckets) cuts both back to a random length.
func TestRelationRemoveAtRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() *Relation { return NewRelation(NewSchema("R", "a:int", "b:int")) }
	r := mk()
	r.EnsureIndex([]int{0})
	r.EnsureIndex([]int{1})
	r.EnsureIndex([]int{0, 1})
	var removed []value.Tuple
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || r.Len() == 0:
			r.MustInsert(intTuple(rng.Intn(4), rng.Intn(30)))
		case op < 9:
			pos := rng.Intn(r.Len())
			removed = append(removed, r.At(pos))
			r.removeAt(pos)
		default:
			r.Truncate(rng.Intn(r.Len() + 1))
		}
		assertBucketsAscending(t, step, r, false)

		want := mk()
		r.Scan(func(tup value.Tuple) bool { want.MustInsert(tup); return true })
		for _, tup := range removed {
			if r.Contains(tup) != want.Contains(tup) {
				t.Fatalf("step %d: Contains(%v) disagrees with the rebuilt twin", step, tup)
			}
		}
		for a := 0; a < 4; a++ {
			key := intTuple(a).ProjectKey([]int{0})
			if got, exp := fmt.Sprint(r.Lookup([]int{0}, key)), fmt.Sprint(want.Lookup([]int{0}, key)); got != exp {
				t.Fatalf("step %d: Lookup(a=%d) %s vs %s", step, a, got, exp)
			}
			lo, hi := rng.Intn(r.Len()+1), rng.Intn(r.Len()+1)
			var got, exp []value.Tuple
			r.LookupTuplesKeyRange([]int{0}, []byte(key), lo, hi, func(tup value.Tuple) bool { got = append(got, tup); return true })
			want.LookupTuplesKeyRange([]int{0}, []byte(key), lo, hi, func(tup value.Tuple) bool { exp = append(exp, tup); return true })
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("step %d: LookupTuplesKeyRange(a=%d, %d, %d) %v vs %v", step, a, lo, hi, got, exp)
			}
		}
	}
}

// TestCountedOverlayEquivalentToFresh drives a counted overlay through
// random add/remove/commit streams over transactions that share tuples
// and checks it after every step against NewOverlay(base, held...):
// Count, Scan as a set, Lookup on every built index, and holder counts
// equal to the number of held transactions containing each tuple.
func TestCountedOverlayEquivalentToFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := NewState()
	base.MustAddSchema(NewSchema("R", "a:int", "b:int"))
	base.MustAddSchema(NewSchema("S", "x:int"))
	base.MustInsert("R", intTuple(0, 0))
	o := NewCountedOverlay(base)
	o.Lookup("R", []int{0}, intTuple(0).ProjectKey([]int{0}), func(value.Tuple) bool { return true })
	o.Lookup("S", []int{0}, intTuple(0).ProjectKey([]int{0}), func(value.Tuple) bool { return true })
	var held []*Transaction
	for step := 0; step < 500; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(held) == 0:
			tx := NewTransaction(fmt.Sprintf("T%d", step))
			for j, m := 0, 1+rng.Intn(3); j < m; j++ {
				tx.Add("R", intTuple(rng.Intn(3), rng.Intn(5)))
			}
			if rng.Intn(2) == 0 {
				tx.Add("S", intTuple(rng.Intn(4)))
			}
			o.Add(tx)
			held = append(held, tx)
		case op < 8:
			i := rng.Intn(len(held))
			o.Remove(held[i])
			held = append(held[:i], held[i+1:]...)
		default:
			i := rng.Intn(len(held))
			tx := held[i]
			held = append(held[:i], held[i+1:]...)
			o.Remove(tx)
			if err := base.InsertTransaction(tx); err != nil {
				t.Fatal(err)
			}
			o.PruneBase(tx)
		}
		fresh := NewOverlay(base, held...)
		for _, rel := range []string{"R", "S"} {
			if o.Count(rel) != fresh.Count(rel) {
				t.Fatalf("step %d: Count(%s) %d, fresh %d", step, rel, o.Count(rel), fresh.Count(rel))
			}
			if got, exp := viewKeys(o, rel), viewKeys(fresh, rel); got != exp {
				t.Fatalf("step %d: Scan(%s) %s, fresh %s", step, rel, got, exp)
			}
			r := o.extra.Relation(rel)
			assertBucketsAscending(t, step, r, true)
			for _, idx := range r.idxList {
				for v := 0; v < 5; v++ {
					key := intTuple(v).ProjectKey(idx.cols)
					if got, exp := lookupKeys(o, rel, idx.cols, key), lookupKeys(fresh, rel, idx.cols, key); got != exp {
						t.Fatalf("step %d: Lookup(%s%v=%d) %s, fresh %s", step, rel, idx.cols, v, got, exp)
					}
				}
			}
			refs := o.refs[rel]
			if len(refs) != r.Len() {
				t.Fatalf("step %d: %s holds %d counts for %d tuples", step, rel, len(refs), r.Len())
			}
			for pos := 0; pos < r.Len(); pos++ {
				holders := 0
				for _, tx := range held {
					for _, tup := range tx.Tuples(rel) {
						if tup.Equal(r.At(pos)) {
							holders++
						}
					}
				}
				if int(refs[pos]) != holders {
					t.Fatalf("step %d: %s %v counted %d holders, %d hold it", step, rel, r.At(pos), refs[pos], holders)
				}
			}
		}
	}
}

func viewKeys(v View, rel string) string {
	var keys []string
	v.Scan(rel, func(tup value.Tuple) bool { keys = append(keys, tup.Key()); return true })
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

func lookupKeys(v View, rel string, cols []int, key string) string {
	var keys []string
	v.Lookup(rel, cols, key, func(tup value.Tuple) bool { keys = append(keys, tup.Key()); return true })
	sort.Strings(keys)
	return fmt.Sprint(keys)
}
