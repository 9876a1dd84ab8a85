package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// unionIndexCols lists the column sets the union oracle probes: every
// single column of every relation plus every FD's lhs. buildUnionIndexes
// builds them on the maintained overlay up front, so every later
// mutation has to keep them current.
func unionIndexCols(d *possible.DB) map[string][][]int {
	out := make(map[string][][]int)
	for _, name := range d.State.Names() {
		for c := 0; c < d.State.Schema(name).Arity(); c++ {
			out[name] = append(out[name], []int{c})
		}
	}
	for i, fd := range d.Constraints.FDs {
		lhs, _ := d.Constraints.FDColumns(i)
		out[fd.Rel] = append(out[fd.Rel], lhs)
	}
	return out
}

func buildUnionIndexes(m *Monitor, cols map[string][][]int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for rel, sets := range cols {
		for _, c := range sets {
			m.union.Lookup(rel, c, "", func(value.Tuple) bool { return true })
		}
	}
}

func sortedKeys(scan func(func(value.Tuple) bool) bool) []string {
	var keys []string
	scan(func(t value.Tuple) bool { keys = append(keys, t.Key()); return true })
	sort.Strings(keys)
	return keys
}

// assertMonitorUnion is the oracle for the maintained precheck union and
// the maintained live set: the Monitor's overlay must equal a fresh
// relation.NewOverlay(State, Pending...) — per-relation Count, Scan as a
// set, and Lookup on every probed index for every key the union holds —
// and the live-filter hook must equal liveTransactions over the same
// snapshot. It returns the snapshot's pending set for a fresh check.
func assertMonitorUnion(t *testing.T, m *Monitor, cols map[string][][]int, step string) []*relation.Transaction {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	fresh := relation.NewOverlay(m.db.State, m.db.Pending...)
	for _, rel := range m.db.State.Names() {
		if got, want := m.union.Count(rel), fresh.Count(rel); got != want {
			t.Fatalf("%s: Count(%s) maintained %d, fresh %d", step, rel, got, want)
		}
		got := sortedKeys(func(f func(value.Tuple) bool) bool { return m.union.Scan(rel, f) })
		want := sortedKeys(func(f func(value.Tuple) bool) bool { return fresh.Scan(rel, f) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: Scan(%s) maintained %v, fresh %v", step, rel, got, want)
		}
		for _, c := range cols[rel] {
			fresh.Scan(rel, func(tup value.Tuple) bool {
				key := tup.ProjectKey(c)
				got := sortedKeys(func(f func(value.Tuple) bool) bool { return m.union.Lookup(rel, c, key, f) })
				want := sortedKeys(func(f func(value.Tuple) bool) bool { return fresh.Lookup(rel, c, key, f) })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: Lookup(%s%v) maintained %v, fresh %v", step, rel, c, got, want)
				}
				return true
			})
		}
	}
	if got, want := m.liveSlots(), liveTransactions(m.db); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: live hook %v, liveTransactions %v", step, got, want)
	}
	return append([]*relation.Transaction(nil), m.db.Pending...)
}

// TestMonitorUnionMatchesFresh drives a Monitor through random
// add/drop/commit/commit_external streams in which transactions share
// tuples — so a tuple can be held by two pending transactions, and a
// commit (from the pending set or from outside it) can move into the
// state a tuple another pending transaction still holds. After every
// step the maintained union and live set must match assertMonitorUnion's
// from-scratch oracle, and counting-aggregate verdicts under the default
// options must equal a fresh stateless check, precheck outcome included:
// a tuple counted twice would flip the precheck at the count boundary.
func TestMonitorUnionMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := bitcoinLikeDB(r)
		mon := NewMonitor(base)
		cols := unionIndexCols(base)
		buildUnionIndexes(mon, cols)
		nextTx := int64(100)
		// sharedTxOut picks a TxOut tuple some pending transaction holds.
		sharedTxOut := func() (value.Tuple, bool) {
			mon.mu.RLock()
			defer mon.mu.RUnlock()
			var outs []value.Tuple
			for _, tx := range mon.db.Pending {
				outs = append(outs, tx.Tuples("TxOut")...)
			}
			if len(outs) == 0 {
				return nil, false
			}
			return outs[r.Intn(len(outs))], true
		}
		freshTx := func(name string) *relation.Transaction {
			nextTx++
			return relation.NewTransaction(name).
				Add("TxOut", fixture.TxOut(nextTx, 1, fmt.Sprintf("U%dPk", r.Intn(4)), 1))
		}
		check := func(step string) {
			pending := assertMonitorUnion(t, mon, cols, step)
			fresh := &possible.DB{State: base.State.Clone(), Constraints: base.Constraints, Pending: pending}
			n := relation.NewOverlay(fresh.State, pending...).Count("TxOut")
			for _, src := range []string{
				fmt.Sprintf("q(count()) > %d :- TxOut(t, s, pk, a)", n),
				fmt.Sprintf("q(count()) > %d :- TxOut(t, s, pk, a)", n-1),
				"q() :- TxOut(t, s, 'U0Pk', a)",
			} {
				q := query.MustParse(src)
				mres, err := mon.Check(context.Background(), q, DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				fres, err := Check(context.Background(), fresh, q, DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if mres.Satisfied != fres.Satisfied || mres.Stats.Prechecked != fres.Stats.Prechecked {
					t.Fatalf("seed %d %s: %s monitor (satisfied %v, prechecked %v), fresh (%v, %v)",
						seed, step, src, mres.Satisfied, mres.Stats.Prechecked, fres.Satisfied, fres.Stats.Prechecked)
				}
			}
		}
		check("initial")
		var ids []int
		for i := 0; i < len(base.Pending); i++ {
			ids = append(ids, i)
		}
		for step := 0; step < 10; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := r.Intn(10); {
			case op < 4: // add, sharing a pending TxOut tuple half the time
				tx := freshTx(fmt.Sprintf("N%d", step))
				if tup, ok := sharedTxOut(); ok && r.Intn(2) == 0 {
					tx.Add("TxOut", tup)
				}
				id, err := mon.AddPending(tx)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			case op < 6: // drop
				if len(ids) == 0 {
					continue
				}
				i := r.Intn(len(ids))
				if err := mon.DropPending(ids[i]); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:i], ids[i+1:]...)
			case op < 8: // commit an appendable pending transaction
				if len(ids) == 0 {
					continue
				}
				i := r.Intn(len(ids))
				if !mon.Appendable(ids[i]) {
					continue
				}
				if err := mon.Commit(ids[i]); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:i], ids[i+1:]...)
			default: // a block brings in a tuple some pending transaction holds
				tx := freshTx(fmt.Sprintf("X%d", step))
				if tup, ok := sharedTxOut(); ok {
					tx.Add("TxOut", tup)
				}
				if err := mon.CommitExternal(tx); err != nil {
					t.Fatal(err)
				}
			}
			check(label)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMonitorUnionSharedTupleCommit pins the two shared-tuple cases by
// hand: a tuple two pending transactions hold survives one holder's
// drop, and committing one holder moves the tuple into the state without
// leaving a second copy in the union — the count aggregate at exactly
// the union's size stays decided by the precheck.
func TestMonitorUnionSharedTupleCommit(t *testing.T) {
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	s.MustInsert("TxOut", fixture.TxOut(1, 1, "BasePk", 1))
	shared := fixture.TxOut(7, 1, "SharedPk", 1)
	a := relation.NewTransaction("A").Add("TxOut", shared).Add("TxOut", fixture.TxOut(8, 1, "APk", 1))
	b := relation.NewTransaction("B").Add("TxOut", shared).Add("TxOut", fixture.TxOut(9, 1, "BPk", 1))
	c := relation.NewTransaction("C").Add("TxOut", shared)
	mon := NewMonitor(possible.MustNew(s, cons, []*relation.Transaction{a, b, c}))
	cols := unionIndexCols(mon.db)
	buildUnionIndexes(mon, cols)
	atSize := query.MustParse("q(count()) > 4 :- TxOut(t, s, pk, a)") // union: base + shared + 8 + 9
	assertPrechecked := func(step string) {
		t.Helper()
		assertMonitorUnion(t, mon, cols, step)
		res, err := mon.Check(context.Background(), atSize, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfied || !res.Stats.Prechecked {
			t.Fatalf("%s: count > 4 satisfied %v, prechecked %v; want both", step, res.Satisfied, res.Stats.Prechecked)
		}
	}
	assertPrechecked("initial")
	if err := mon.DropPending(2); err != nil { // C: shared still held by A and B
		t.Fatal(err)
	}
	assertPrechecked("drop C")
	if !mon.union.Contains("TxOut", shared) {
		t.Fatal("shared tuple left the union while A and B still hold it")
	}
	if err := mon.Commit(0); err != nil { // A commits shared, which B still holds
		t.Fatal(err)
	}
	assertPrechecked("commit A")
	if got := mon.union.ExtraSize(); got != 1 {
		t.Fatalf("union keeps %d overlay-only tuples after commit, want 1 (B's own output)", got)
	}
	if err := mon.DropPending(1); err != nil {
		t.Fatal(err)
	}
	assertPrechecked("drop B")
}

// TestPrecheckOverlayBuildsCounter: the stateless Check builds the
// precheck union once per check and says so on
// dcsat_precheck_overlay_builds_total; Monitor checks read the
// maintained union and leave the counter alone.
func TestPrecheckOverlayBuildsCounter(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := bitcoinLikeDB(r)
	q := query.MustParse("q() :- TxOut(t, s, 'NoSuchPk', a)")
	before := mPrecheckBuilds.Value()
	for i := 0; i < 3; i++ {
		if _, err := Check(context.Background(), d, q, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if got := mPrecheckBuilds.Value() - before; got != 3 {
		t.Fatalf("3 stateless checks built the union %d times, want 3", got)
	}
	mon := NewMonitor(d)
	before = mPrecheckBuilds.Value()
	for i := 0; i < 5; i++ {
		id, err := mon.AddPending(relation.NewTransaction(fmt.Sprintf("W%d", i)).
			Add("TxOut", fixture.TxOut(int64(500+i), 1, "WarmPk", 1)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := mon.Check(context.Background(), q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Prechecked {
			t.Fatal("absent-key query not decided by the precheck")
		}
		if err := mon.DropPending(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := mPrecheckBuilds.Value() - before; got != 0 {
		t.Fatalf("warm Monitor checks built the union %d times, want 0", got)
	}
}

// TestMonitorUnionConcurrent runs precheck-on Monitor checks — a count
// aggregate among them — against concurrent adds, drops, commits and
// external commits of shared tuples, then checks the maintained union
// against the from-scratch oracle. Under -race this covers the union's
// lazy index builds racing each other and the write-locked updates.
func TestMonitorUnionConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	mon := NewMonitor(bitcoinLikeDB(r))
	cols := unionIndexCols(mon.db)
	queries := []*query.Query{
		query.MustParse("q() :- TxOut(t, s, 'U0Pk', a)"),
		query.MustParse("q(count()) > 6 :- TxOut(t, s, pk, a)"),
		query.MustParse("q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)"),
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Workers = 1 + i
			for n := 0; n < 30; n++ {
				if _, err := mon.Check(context.Background(), queries[(n+i)%len(queries)], opts); err != nil {
					t.Errorf("check: %v", err)
					return
				}
			}
		}(i)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shared := fixture.TxOut(int64(3000+g), 1, "SharedPk", 1)
			for n := 0; n < 30; n++ {
				tx := relation.NewTransaction(fmt.Sprintf("G%dN%d", g, n)).
					Add("TxOut", shared).
					Add("TxOut", fixture.TxOut(int64(2000+g*100+n), 1, fmt.Sprintf("U%dPk", n%3), 1))
				id, err := mon.AddPending(tx)
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				switch n % 4 {
				case 0:
					err = mon.DropPending(id)
				case 1:
					if mon.Appendable(id) {
						err = mon.Commit(id)
					}
				case 2:
					err = mon.CommitExternal(relation.NewTransaction("ext").Add("TxOut", shared))
				}
				if err != nil {
					t.Errorf("mutate: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	assertMonitorUnion(t, mon, cols, "after hammer")
}
