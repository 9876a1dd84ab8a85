package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"blockchaindb/internal/core"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
	"blockchaindb/internal/workload"
)

// engineOptions is the one place the benchmark builds engine options:
// the shipped defaults, unchanged (see defaults_test.go).
func engineOptions() core.Options { return core.DefaultOptions() }

// newMonitor is the one place the benchmark builds a Monitor: the
// shipped defaults, with no cache override.
func newMonitor(db *possible.DB) *core.Monitor { return core.NewMonitor(db) }

// familyChecks instantiates the paper's query families on a dataset's
// plants, path and star queries at size 3, in the order given.
func familyChecks(ds *workload.Dataset, families []string, satisfied []bool) ([]planted, error) {
	kinds := map[string]workload.QueryKind{
		"qs": workload.QuerySimple, "qp3": workload.QueryPath,
		"qr3": workload.QueryStar, "qa": workload.QueryAggregate,
	}
	var out []planted
	for i, f := range families {
		q, err := ds.Query(kinds[f], 3, satisfied[i])
		if err != nil {
			return nil, err
		}
		exp := "violated"
		if satisfied[i] {
			exp = "satisfied"
		}
		out = append(out, planted{name: f + "/" + exp, q: q, satisfied: satisfied[i]})
	}
	return out, nil
}

// measureRounds runs rounds until the measured time is up. Each round
// covers the workload's operation cycle once. In a traced run even
// rounds are traced and odd ones are not, so the two halves compare
// like for like and give the tracing overhead.
func measureRounds(r *run, d time.Duration, round func(r *run, traced bool) (time.Duration, int)) {
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		traced := r.trace && i%2 == 0
		busy, ops := round(r, traced)
		r.round(traced, busy, ops)
	}
}

// oneShot is a stateless workload: core.Check on a fixed database,
// round-robin over a fixed set of planted checks.
type oneShot struct {
	db     *possible.DB
	checks []planted
	opts   core.Options
}

// warm runs every check once and verifies it. It returns the engine
// results so a caller can assert the workload's shape.
func (w *oneShot) warm() ([]*core.Result, error) {
	var out []*core.Result
	for _, p := range w.checks {
		res, err := core.Check(context.Background(), w.db, p.q, w.opts)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func (w *oneShot) verifyAll(results []*core.Result) error {
	for i, p := range w.checks {
		if err := w.verify(p, results[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *oneShot) verify(p planted, res *core.Result) error {
	if err := verdictError(p, res.Satisfied); err != nil {
		return err
	}
	if !res.Satisfied {
		if err := witnessError(w.db, p.q, res.Witness); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

func (w *oneShot) round(r *run, traced bool) (time.Duration, int) {
	var busy time.Duration
	for pos, p := range w.checks {
		t0 := time.Now()
		res, err := core.Check(context.Background(), w.db, p.q, w.opts)
		d := time.Since(t0)
		busy += d
		r.check(d, err == nil, pos)
		r.step(pos, d)
		if err != nil {
			logf("%s: %v", p.name, err)
			continue
		}
		if traced {
			r.engineStats(&res.Stats)
			r.rootSpan("core.Check", t0, d, res.Stats.Duration)
		}
		if err := w.verify(p, res); err != nil {
			r.wrongVerdict("%v", err)
		}
	}
	return busy, len(w.checks)
}

func (w *oneShot) measure(r *run, d time.Duration) { measureRounds(r, d, w.round) }
func (w *oneShot) queryTexts() []string            { return texts(w.checks) }
func (w *oneShot) close()                          {}

func texts(checks []planted) []string {
	out := make([]string, len(checks))
	for i, p := range checks {
		out[i] = p.q.String()
	}
	return out
}

// setupFig6 builds the Fig 6a/6b protocol on the d200 analogue: the
// paper's four families, each satisfied and violated.
func setupFig6(seed int64) (instance, time.Duration, error) {
	t0 := time.Now()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.Blocks, cfg.TxPerBlock = 120, 24
	cfg.PendingBlocks, cfg.PendingTxPerBlock, cfg.Contradictions = 20, 12, 20
	ds := workload.Generate(cfg)
	fams := []string{"qs", "qs", "qp3", "qp3", "qr3", "qr3", "qa", "qa"}
	sat := []bool{true, false, true, false, true, false, true, false}
	checks, err := familyChecks(ds, fams, sat)
	if err != nil {
		return nil, 0, err
	}
	w := &oneShot{db: ds.DB, checks: checks, opts: engineOptions()}
	results, err := w.warm()
	setup := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	return w, setup, w.verifyAll(results)
}

// doubleSpend is the denial constraint "no input is spent twice". The
// pending double spends make it true over R ∪ ∪T, so the precheck
// cannot decide it, while the TxIn key makes it false in every possible
// world, so the clique search is exhaustive.
const doubleSpend = "q() :- TxIn(t, s, p1, a1, n1, g1), TxIn(t, s, p2, a2, n2, g2), n1 != n2"

// setupClique builds the Fig 6e/6f-style contradiction-heavy dataset
// and the double-spend constraint.
func setupClique(seed int64) (instance, time.Duration, error) {
	t0 := time.Now()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.Blocks, cfg.TxPerBlock = 60, 12
	cfg.PendingBlocks, cfg.PendingTxPerBlock, cfg.Contradictions = 20, 12, 40
	ds := workload.Generate(cfg)
	q, err := query.Parse(doubleSpend)
	if err != nil {
		return nil, 0, err
	}
	checks := []planted{{name: "double_spend/satisfied", q: q, satisfied: true}}
	w := &oneShot{db: ds.DB, checks: checks, opts: engineOptions()}
	results, err := w.warm()
	setup := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if err := w.verifyAll(results); err != nil {
		return w, setup, err
	}
	if st := results[0].Stats; st.Prechecked || st.Cliques < 2 {
		return nil, 0, fmt.Errorf("clique_contention: seed %d gives a shape the search does not work on (prechecked=%v, cliques=%d)",
			seed, st.Prechecked, st.Cliques)
	}
	return w, setup, nil
}

// Mempool churn parameters: at most maxLiveMints of the benchmark's own
// transactions are pending at once; the last step of every round
// commits the oldest of them, so the operation cycle is one round;
// every crossCheckEvery-th verdict is re-derived by a fresh stateless
// check.
const (
	maxLiveMints    = 8
	crossCheckEvery = 25
	mintTxBase      = int64(1) << 40
)

// mempool is one long-lived Monitor under a closed single-caller loop
// of add, recheck, drop and occasional commit.
type mempool struct {
	db       *possible.DB // the generated database; the Monitor shares its State
	mon      *core.Monitor
	opts     core.Options
	checks   []planted
	pending  map[int]*relation.Transaction // mirror: Monitor id -> transaction
	live     []int                         // the benchmark's own pending mints, oldest first
	step     int
	nextMint int64
}

func setupMempool(seed int64) (instance, time.Duration, error) {
	t0 := time.Now()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.Blocks = 60
	cfg.PendingBlocks, cfg.PendingTxPerBlock, cfg.Contradictions = 70, 25, 70
	ds := workload.Generate(cfg)
	fams := []string{"qs", "qs", "qp3", "qp3", "qr3", "qr3", "qa"}
	sat := []bool{true, false, true, false, true, false, true}
	checks, err := familyChecks(ds, fams, sat)
	if err != nil {
		return nil, 0, err
	}
	w := &mempool{db: ds.DB, mon: newMonitor(ds.DB), opts: engineOptions(), checks: checks,
		pending: make(map[int]*relation.Transaction, len(ds.DB.Pending))}
	results := make([]*core.Result, len(checks))
	for i, p := range checks {
		if results[i], err = w.mon.Check(context.Background(), p.q, w.opts); err != nil {
			return nil, 0, fmt.Errorf("warm-up %s: %w", p.name, err)
		}
	}
	setup := time.Since(t0)
	for slot, tx := range ds.DB.Pending {
		w.pending[w.mon.IDsForSlots([]int{slot})[0]] = tx
	}
	for i, p := range checks {
		if err := w.verify(p, results[i]); err != nil {
			return w, setup, err
		}
		if err := w.crossCheck(p, results[i]); err != nil {
			return w, setup, err
		}
	}
	return w, setup, nil
}

// mintTx is the benchmark's n-th own transaction: a fresh no-input
// output to a fresh address. It conflicts with nothing and matches no
// planted constant, so no planted verdict can change.
func mintTx(n int64) *relation.Transaction {
	return relation.NewTransaction(fmt.Sprintf("bench-mint-%d", n)).Add("TxOut",
		value.NewTuple(value.Int(mintTxBase+n), value.Int(1), value.Str(fmt.Sprintf("BenchMintPk%d", n)), value.Int(1)))
}

// verify checks a Monitor verdict and revalidates its witness, whose
// slots are mapped to stable ids while no mutation can intervene.
func (w *mempool) verify(p planted, res *core.Result) error {
	if err := verdictError(p, res.Satisfied); err != nil {
		return err
	}
	if res.Satisfied {
		return nil
	}
	var txs []*relation.Transaction
	for _, id := range w.mon.IDsForSlots(res.Witness) {
		txs = append(txs, w.pending[id])
	}
	db, all := witnessDB(w.db, txs)
	if err := witnessError(db, p.q, all); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	return nil
}

// crossCheck re-derives a Monitor verdict with a fresh stateless check
// over the mirrored pending set.
func (w *mempool) crossCheck(p planted, res *core.Result) error {
	ids := make([]int, 0, len(w.pending))
	for id := range w.pending {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	txs := make([]*relation.Transaction, len(ids))
	for i, id := range ids {
		txs[i] = w.pending[id]
	}
	fresh := &possible.DB{State: w.db.State, Constraints: w.db.Constraints, Pending: txs}
	want, err := core.Check(context.Background(), fresh, p.q, w.opts)
	if err != nil {
		return fmt.Errorf("cross-check %s: %w", p.name, err)
	}
	if want.Satisfied != res.Satisfied {
		return fmt.Errorf("cross-check %s: Monitor says satisfied=%v, a fresh check says %v", p.name, res.Satisfied, want.Satisfied)
	}
	if !want.Satisfied {
		if err := witnessError(fresh, p.q, want.Witness); err != nil {
			return fmt.Errorf("cross-check %s: %w", p.name, err)
		}
	}
	return nil
}

// timedMutation runs one Monitor mutation and records it.
func (w *mempool) timedMutation(r *run, traced bool, kind, name string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.mutation(kind, d, err == nil)
	if err != nil {
		logf("%s: %v", name, err)
	}
	if traced {
		r.rootSpan(name, t0, d, 0)
	}
	return d, err
}

// round runs one step per planted check, in order, and commits at the
// last one, so each round covers the whole operation cycle once.
func (w *mempool) round(r *run, traced bool) (time.Duration, int) {
	var busy time.Duration
	ops := 0
	for pos := range w.checks {
		d, n := w.stepOnce(r, traced, pos, pos == len(w.checks)-1)
		r.step(pos, d)
		busy += d
		ops += n
	}
	return busy, ops
}

func (w *mempool) stepOnce(r *run, traced bool, pos int, commit bool) (time.Duration, int) {
	w.step++
	var busy time.Duration
	ops := 0

	tx := mintTx(w.nextMint)
	w.nextMint++
	var id int
	d, err := w.timedMutation(r, traced, "add", "core.Monitor.AddPending", func() (err error) {
		id, err = w.mon.AddPending(tx)
		return err
	})
	busy += d
	ops++
	if err == nil {
		w.pending[id] = tx
		w.live = append(w.live, id)
	}

	p := w.checks[pos]
	t0 := time.Now()
	res, err := w.mon.Check(context.Background(), p.q, w.opts)
	d = time.Since(t0)
	busy += d
	ops++
	r.check(d, err == nil, pos)
	if err != nil {
		logf("%s: %v", p.name, err)
	} else {
		if traced {
			r.engineStats(&res.Stats)
			r.rootSpan("core.Monitor.Check", t0, d, res.Stats.Duration)
		}
		if err := w.verify(p, res); err != nil {
			r.wrongVerdict("%v", err)
		}
		if w.step%crossCheckEvery == 0 {
			if err := w.crossCheck(p, res); err != nil {
				r.wrongVerdict("%v", err)
			}
		}
	}

	if len(w.live) > maxLiveMints {
		old := w.live[0]
		d, err := w.timedMutation(r, traced, "drop", "core.Monitor.DropPending", func() error { return w.mon.DropPending(old) })
		busy += d
		ops++
		if err == nil {
			delete(w.pending, old)
			w.live = w.live[1:]
		}
	}
	if commit && len(w.live) > 0 {
		old := w.live[0]
		before := w.mon.GraphStatsSnapshot().AppendRefreshes
		d, err := w.timedMutation(r, traced, "commit", "core.Monitor.Commit", func() error { return w.mon.Commit(old) })
		busy += d
		ops++
		if err == nil {
			r.mu.Lock()
			r.refreshes += int(w.mon.GraphStatsSnapshot().AppendRefreshes - before)
			r.mu.Unlock()
			delete(w.pending, old)
			w.live = w.live[1:]
		}
	}
	return busy, ops
}

func (w *mempool) measure(r *run, d time.Duration) { measureRounds(r, d, w.round) }
func (w *mempool) queryTexts() []string            { return texts(w.checks) }
func (w *mempool) close()                          {}
