package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// TestMonitorEquivalentToFreshDatabase drives a Monitor through random
// add/commit/drop sequences and, after every step, cross-validates its
// incrementally maintained state against a freshly constructed
// database: same conflict-pair count, same appendability statuses, and
// the same verdicts for a battery of denial constraints, each checked
// with the precheck on (the default options, reading the maintained
// union) and off.
func TestMonitorEquivalentToFreshDatabase(t *testing.T) {
	queries := []string{
		"q() :- TxOut(t, s, 'U0Pk', a)",
		"q() :- TxOut(t, s, 'U2Pk', a)",
		"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)",
		"q(sum(a)) > 2 :- TxIn(pt, ps, pk, a, nt, sig)",
		"q(count()) > 5 :- TxOut(t, s, pk, a)",
	}
	noPrecheck := DefaultOptions()
	noPrecheck.DisablePrecheck = true
	optionSets := []Options{DefaultOptions(), noPrecheck}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Start from a bitcoin-like database; the monitor ingests its
		// pending set.
		base := bitcoinLikeDB(r)
		mon := NewMonitor(base)
		// Mirror state: the transactions currently pending, and a clone
		// of the committed state.
		mirror := base.State.Clone()
		type slot struct {
			id int
			tx *relation.Transaction
		}
		var pend []slot
		for i, tx := range base.Pending {
			pend = append(pend, slot{id: i, tx: tx})
		}
		nextID := len(base.Pending)
		nextTxNum := int64(100)

		freshDB := func() *possible.DB {
			txs := make([]*relation.Transaction, len(pend))
			for i, s := range pend {
				txs[i] = s.tx
			}
			return possible.MustNew(mirror.Clone(), base.Constraints, txs)
		}
		agree := func(step string) bool {
			fresh := freshDB()
			// Conflict pairs.
			conflicts := 0
			for i := 0; i < len(fresh.Pending); i++ {
				for j := i + 1; j < len(fresh.Pending); j++ {
					if !fresh.Constraints.FDCompatible(fresh.Pending[i], fresh.Pending[j]) {
						conflicts++
					}
				}
			}
			if mon.ConflictCount() != conflicts {
				t.Logf("seed %d %s: monitor conflicts %d, fresh %d", seed, step, mon.ConflictCount(), conflicts)
				return false
			}
			// Appendability statuses.
			for i, s := range pend {
				want := fresh.Constraints.CanAppend(fresh.State, fresh.Pending[i])
				if got := mon.Appendable(s.id); got != want {
					t.Logf("seed %d %s: appendable(%d) monitor %v, fresh %v", seed, step, s.id, got, want)
					return false
				}
			}
			// Verdicts.
			for _, src := range queries {
				q := query.MustParse(src)
				fres, err := Check(context.Background(), fresh, q, Options{Algorithm: AlgoExhaustive})
				if err != nil {
					t.Fatal(err)
				}
				for _, opts := range optionSets {
					mres, err := mon.Check(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if mres.Satisfied != fres.Satisfied {
						t.Logf("seed %d %s: %s (precheck off: %v) monitor %v, fresh %v",
							seed, step, src, opts.DisablePrecheck, mres.Satisfied, fres.Satisfied)
						return false
					}
				}
			}
			return true
		}

		if !agree("initial") {
			return false
		}
		for step := 0; step < 6; step++ {
			switch r.Intn(3) {
			case 0: // add a new pending transaction
				owner := fmt.Sprintf("U%dPk", r.Intn(3))
				tx := relation.NewTransaction(fmt.Sprintf("N%d", nextID)).
					Add("TxIn", fixture.TxIn(1, int64(r.Intn(4)+1), owner, 1, nextTxNum, owner+"Sig")).
					Add("TxOut", fixture.TxOut(nextTxNum, 1, fmt.Sprintf("U%dPk", r.Intn(4)), 1))
				nextTxNum++
				norm, err := mirror.NormalizeTransaction(tx)
				if err != nil {
					t.Fatal(err)
				}
				id, err := mon.AddPending(tx)
				if err != nil {
					t.Fatal(err)
				}
				pend = append(pend, slot{id: id, tx: norm})
				nextID++
			case 1: // drop a random pending transaction
				if len(pend) == 0 {
					continue
				}
				i := r.Intn(len(pend))
				if err := mon.DropPending(pend[i].id); err != nil {
					t.Fatal(err)
				}
				pend = append(pend[:i], pend[i+1:]...)
			case 2: // commit a random appendable transaction
				if len(pend) == 0 {
					continue
				}
				i := r.Intn(len(pend))
				if !mon.Appendable(pend[i].id) {
					continue
				}
				if err := mon.Commit(pend[i].id); err != nil {
					t.Fatal(err)
				}
				if err := mirror.InsertTransaction(pend[i].tx); err != nil {
					t.Fatal(err)
				}
				pend = append(pend[:i], pend[i+1:]...)
			}
			if !agree(fmt.Sprintf("step %d", step)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
