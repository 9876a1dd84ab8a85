package main

import (
	"fmt"

	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// planted is one check with the verdict the generated data plants for
// it: satisfied means D |= ¬q (q is false in every possible world).
type planted struct {
	name      string // family/expectation, e.g. "qp3/violated"
	q         *query.Query
	satisfied bool
}

// verdictError reports a verdict that contradicts the planted
// expectation, or nil.
func verdictError(p planted, satisfied bool) error {
	if satisfied != p.satisfied {
		return fmt.Errorf("%s: engine says satisfied=%v, planted %v", p.name, satisfied, p.satisfied)
	}
	return nil
}

// witnessError revalidates a violation witness independently of the
// search that produced it: the witness transactions must form a
// reachable possible world (Proposition 1), and q must hold on the
// maximal world over them.
func witnessError(db *possible.DB, q *query.Query, witness []int) error {
	if !db.IsReachable(witness) {
		return fmt.Errorf("witness %v is not a reachable set of pending transactions", witness)
	}
	world, _ := db.GetMaximal(witness)
	ok, err := query.Eval(q, world)
	if err != nil {
		return fmt.Errorf("evaluating %s on the witness world: %w", q.Name, err)
	}
	if !ok {
		return fmt.Errorf("%s is false on the world of witness %v", q.Name, witness)
	}
	return nil
}

// witnessDB is a database whose pending set is exactly the given
// transactions, so the witness is every index of it.
func witnessDB(base *possible.DB, txs []*relation.Transaction) (*possible.DB, []int) {
	idx := make([]int, len(txs))
	for i := range idx {
		idx[i] = i
	}
	return &possible.DB{State: base.State, Constraints: base.Constraints, Pending: txs}, idx
}
