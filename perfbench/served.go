package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blockchaindb/dcsatd/api"
	"blockchaindb/dcsatd/client"
	"blockchaindb/dcsatd/server"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
	"blockchaindb/internal/workload"
)

// serverConfig is the one place the benchmark configures the daemon:
// the shipped defaults (see defaults_test.go).
func serverConfig() server.Config { return server.Config{} }

// Served traffic shape. Two tenants. Operation i goes to tenant i%2;
// every deltaEvery-th operation of a tenant is a /deltas batch (add a
// mint, drop the oldest once more than maxLiveMints are live), the rest
// cycle through the tenant's checks. deltaEvery is coprime to the
// number of checks, so deltas displace every check equally often, and
// the operations repeat with a period of servedCycle.
const (
	servedTenants = 2
	deltaEvery    = 21
	servedChecks  = 8 // checks per tenant
	servedCycle   = servedTenants * deltaEvery * servedChecks
)

// The measured phase is a closed loop of one caller, back to back over
// one connection. A traced run gives half its time to that loop and the
// other half to a rate ladder: an open loop over ladderConns
// connections at each rate in turn; the highest rate whose p99 meets
// latencyLimit with no growing backlog is the sustained rate.
const (
	ladderConns  = 2 // the machine's core count
	latencyLimit = 10 * time.Millisecond
)

var ladderRates = []float64{2000, 2500, 3000, 3500, 4000}

// spanHeader carries the client span's ID to the handler wrapper on
// traced requests.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// spanTransport copies the client span ID from the request context
// into spanHeader.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(req)
}

// servedCheck is one check a tenant is sent, by registered name or as
// an inline query string.
type servedCheck struct {
	planted
	req api.CheckRequest
}

// tenantMirror is the benchmark's copy of what one tenant holds: the
// generated database and every transaction ever pending, by id.
type tenantMirror struct {
	name   string
	db     *possible.DB
	checks []servedCheck

	mu       sync.Mutex
	txs      map[int64]*relation.Transaction
	live     []int64 // the benchmark's own pending mints, oldest first
	nextMint int64
	verified map[string]bool // witnesses already revalidated, by check and ids
}

type served struct {
	hs      *http.Server
	done    chan struct{} // closed when the server's Serve returns
	tr      *http.Transport
	cl      *client.Client
	tenants []*tenantMirror
	rec     atomic.Pointer[run] // the run traced handler spans go to
}

func setupServed(seed int64) (instance, time.Duration, error) {
	var tenants []*tenantMirror
	var reqs []*api.RegisterRequest
	for i := 0; i < servedTenants; i++ {
		// The generation happens outside the timed set-up: the program
		// receives only the generated inputs.
		t, req, err := newTenant(fmt.Sprintf("bench-%d", i), seed*servedTenants+int64(i))
		if err != nil {
			return nil, 0, err
		}
		tenants = append(tenants, t)
		reqs = append(reqs, req)
	}
	t0 := time.Now()
	w := &served{tenants: tenants, done: make(chan struct{})}
	mux := http.NewServeMux()
	server.New(serverConfig()).Mount(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	w.hs = &http.Server{Handler: w.wrap(mux)}
	go func() {
		defer close(w.done)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w.tr = &http.Transport{MaxConnsPerHost: ladderConns, MaxIdleConnsPerHost: ladderConns}
	w.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: spanTransport{w.tr}}))
	ctx := context.Background()
	for i, t := range tenants {
		resp, err := w.cl.Register(ctx, reqs[i])
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("register %s: %w", t.name, err)
		}
		if len(resp.PendingIDs) != len(t.db.Pending) {
			w.close()
			return nil, 0, fmt.Errorf("register %s: %d pending ids for %d transactions", t.name, len(resp.PendingIDs), len(t.db.Pending))
		}
		// Ids are issued in pending order, so the sorted id list lines
		// up with the pending slice; the witness checks catch it if not.
		for j, id := range resp.PendingIDs {
			t.txs[id] = t.db.Pending[j]
		}
	}
	var warm []*api.CheckResponse
	for _, t := range tenants {
		for _, c := range t.checks {
			resp, err := w.cl.Check(ctx, t.name, &c.req)
			if err != nil {
				w.close()
				return nil, 0, fmt.Errorf("warm-up %s %s: %w", t.name, c.name, err)
			}
			warm = append(warm, resp)
		}
	}
	setup := time.Since(t0)
	i := 0
	for _, t := range tenants {
		for _, c := range t.checks {
			if err := t.verify(c, warm[i]); err != nil {
				return w, setup, err
			}
			i++
		}
	}
	return w, setup, nil
}

// newTenant generates one tenant's database at the daemon's default
// serving scale and the register request that ships it explicitly.
func newTenant(name string, seed int64) (*tenantMirror, *api.RegisterRequest, error) {
	cfg := workload.Config{Seed: seed, Blocks: 12, TxPerBlock: 6, Users: 40,
		PendingBlocks: 2, PendingTxPerBlock: 6, Contradictions: 2, ChainProb: 0.3, MaxOuts: 3}
	ds := workload.Generate(cfg)
	fams := []string{"qs", "qs", "qp3", "qr3", "qp3", "qr3", "qa", "qs"}
	sat := []bool{false, true, false, true, true, false, true, false}
	if len(fams) != servedChecks {
		return nil, nil, fmt.Errorf("%d checks per tenant, want %d", len(fams), servedChecks)
	}
	checks, err := familyChecks(ds, fams, sat)
	if err != nil {
		return nil, nil, err
	}
	t := &tenantMirror{name: name, db: ds.DB, txs: map[int64]*relation.Transaction{}, verified: map[string]bool{}}
	req := registerRequest(name, ds.DB)
	req.Queries = map[string]string{}
	// The first half is registered and sent by name, the second half
	// is sent inline and parsed per request.
	for i, p := range checks {
		c := servedCheck{planted: p}
		if i < len(checks)/2 {
			qname := strings.ReplaceAll(p.name, "/", "_")
			req.Queries[qname] = p.q.String()
			c.req.Name = qname
		} else {
			c.req.Query = p.q.String()
		}
		t.checks = append(t.checks, c)
	}
	return t, req, nil
}

// registerRequest ships a generated database as explicit schemas,
// constraints, state and pending transactions.
func registerRequest(name string, db *possible.DB) *api.RegisterRequest {
	req := &api.RegisterRequest{Tenant: name}
	state := api.TxSpec{Name: "state"}
	for _, rel := range db.State.Names() {
		sc := db.State.Schema(rel)
		spec := api.SchemaSpec{Name: rel}
		for _, a := range sc.Attrs {
			kind := a.Kind.String()
			if a.Kind == value.KindNull {
				kind = "any"
			}
			spec.Columns = append(spec.Columns, a.Name+":"+kind)
		}
		req.Schemas = append(req.Schemas, spec)
		ins := api.Insert{Rel: rel}
		db.State.Scan(rel, func(t value.Tuple) bool {
			ins.Rows = append(ins.Rows, wireRow(t))
			return true
		})
		state.Inserts = append(state.Inserts, ins)
	}
	req.State = []api.TxSpec{state}
	for _, fd := range db.Constraints.FDs {
		spec := api.FDSpec{Rel: fd.Rel, LHS: fd.LHS}
		if !fd.IsKey {
			spec.RHS = fd.RHS
		}
		req.FDs = append(req.FDs, spec)
	}
	for _, ind := range db.Constraints.INDs {
		req.INDs = append(req.INDs, api.INDSpec{Rel: ind.Rel, Cols: ind.Cols, RefRel: ind.RefRel, RefCols: ind.RefCols})
	}
	for i, tx := range db.Pending {
		req.Pending = append(req.Pending, wireTx(fmt.Sprintf("p%d", i), tx))
	}
	return req
}

func wireTx(name string, tx *relation.Transaction) api.TxSpec {
	spec := api.TxSpec{Name: name}
	for _, rel := range tx.Relations() {
		ins := api.Insert{Rel: rel}
		for _, t := range tx.Tuples(rel) {
			ins.Rows = append(ins.Rows, wireRow(t))
		}
		spec.Inserts = append(spec.Inserts, ins)
	}
	return spec
}

func wireRow(t value.Tuple) api.Row {
	row := make(api.Row, len(t))
	for i, v := range t {
		switch v.Kind() {
		case value.KindInt:
			row[i] = v.AsInt()
		case value.KindFloat:
			row[i] = v.AsFloat()
		case value.KindString:
			row[i] = v.AsString()
		case value.KindBool:
			row[i] = v.AsBool()
		}
	}
	return row
}

// verify checks a served verdict against the plant and revalidates a
// violation witness (external ids) on the mirror. A witness already
// revalidated for the same check is not revalidated again: the state
// never changes in this workload, and a witness's validity depends only
// on the state and its own transactions.
func (t *tenantMirror) verify(c servedCheck, resp *api.CheckResponse) error {
	if resp.Undecided {
		return fmt.Errorf("%s %s: undecided", t.name, c.name)
	}
	if err := verdictError(c.planted, resp.Satisfied); err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	if resp.Satisfied {
		return nil
	}
	key := fmt.Sprint(c.name, resp.Witness)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.verified[key] {
		return nil
	}
	var txs []*relation.Transaction
	for _, id := range resp.Witness {
		tx, ok := t.txs[id]
		if !ok {
			return fmt.Errorf("%s %s: witness names unknown id %d", t.name, c.name, id)
		}
		txs = append(txs, tx)
	}
	db, all := witnessDB(t.db, txs)
	if err := witnessError(db, c.q, all); err != nil {
		return fmt.Errorf("%s %s: %w", t.name, c.name, err)
	}
	t.verified[key] = true
	return nil
}

// wrap records a span for every traced request the daemon serves.
func (w *served) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		r := w.rec.Load()
		if parent == 0 || r == nil {
			next.ServeHTTP(rw, req)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(rw, req)
		t1 := time.Now()
		name := "server.handler.check"
		if strings.HasSuffix(req.URL.Path, "/deltas") {
			name = "server.handler.deltas"
		}
		r.addSpan(span{Trace: parent, ID: r.id(), Parent: parent, Name: name, Start: r.ns(t0), End: r.ns(t1)})
	})
}

func (w *served) close() {
	_ = w.hs.Close() // also closes the listener; the error is the listener's close
	<-w.done
	w.tr.CloseIdleConnections()
}

func (w *served) queryTexts() []string {
	var out []string
	for _, c := range w.tenants[0].checks {
		if c.req.Query != "" {
			out = append(out, c.req.Query)
		}
	}
	return out
}

// phase collects one rate of the ladder. Every operation counts as
// attempted on the run.
type phase struct {
	mu        sync.Mutex
	checks    int
	failed    int
	latencies durations // checks; failures as failedLatency
	lags      durations // generator lateness: send time past the time it could send
	backlog   durations // time an operation waited, past its due time, for a free connection
	first     time.Time
	last      time.Time
}

// sample is the timing of one open-loop operation. An operation is due
// at a fixed time; it is claimed by a connection when one is free, sent
// once both have passed, and ends with the response. Its latency is
// the time it waited past its due time for a free connection plus the
// round trip, so a stall is charged to every operation queued behind
// it. The timer's own oversleep before sending is the generator's lag,
// reported on its own and not charged to the program.
type sample struct {
	due, claim, sent, end time.Time
}

func (s sample) backlog() time.Duration { return max(0, s.claim.Sub(s.due)) }
func (s sample) latency() time.Duration { return s.end.Sub(s.sent) + s.backlog() }
func (s sample) lag() time.Duration     { return s.sent.Sub(s.due) - s.backlog() }

// add records one operation of the phase; ok is false when it failed.
func (p *phase) add(isCheck, ok bool, s sample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.first.IsZero() || s.due.Before(p.first) {
		p.first = s.due
	}
	if s.end.After(p.last) {
		p.last = s.end
	}
	p.lags = append(p.lags, s.lag())
	p.backlog = append(p.backlog, s.backlog())
	if !isCheck {
		return
	}
	p.checks++
	lat := s.latency()
	if !ok {
		p.failed++
		lat = failedLatency
	}
	p.latencies = append(p.latencies, lat)
}

// rate is checks completed per second between the first due time and
// the last completion.
func (p *phase) rate() float64 { return ratio(float64(p.checks), p.last.Sub(p.first).Seconds()) }

// meetsLimit reports whether the phase's p99 latency met latencyLimit
// with nothing failed and no growing backlog: the last tenth of the
// operations did not wait past their due time for more than half the
// limit (median).
func (p *phase) meetsLimit() bool {
	tail := p.backlog[len(p.backlog)*9/10:]
	return p.failed == 0 && len(p.latencies) > 0 &&
		p.latencies.sorted().pct(0.99) <= latencyLimit && tail.sorted().pct(0.5) <= latencyLimit/2
}

func (w *served) measure(r *run, d time.Duration) {
	w.rec.Store(r)
	defer w.rec.Store(nil)
	opIndex := 0
	round := func(r *run, traced bool) (time.Duration, int) {
		var busy time.Duration
		for pos := 0; pos < servedCycle; pos++ {
			sent, end, isCheck, ok := w.op(r, opIndex, traced)
			opIndex++
			lat := end.Sub(sent)
			busy += lat
			if isCheck {
				r.check(lat, ok, pos)
			} else {
				r.mutation("deltas", lat, ok)
			}
			r.step(pos, lat)
		}
		return busy, servedCycle
	}
	if !r.trace {
		measureRounds(r, d, round)
		return
	}
	measureRounds(r, d/2, round)
	step := d / 2 / time.Duration(len(ladderRates))
	for _, rate := range ladderRates {
		p := &phase{}
		w.openLoop(r, p, rate, step, &opIndex)
		r.lag = append(r.lag, p.lags...)
		if !p.meetsLimit() {
			break
		}
		r.sustained = p.rate()
	}
}

// openLoop offers rate operations per second for d over ladderConns
// connections, each due at a fixed time whether or not earlier ones
// have finished. Its operations count as attempted but feed no latency
// sample of the run.
func (w *served) openLoop(r *run, p *phase, rate float64, d time.Duration, opIndex *int) {
	n := int(rate * d.Seconds())
	base := *opIndex
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < ladderConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				s := sample{due: start.Add(time.Duration(float64(k) / rate * float64(time.Second))), claim: time.Now()}
				if wait := time.Until(s.due); wait > 0 {
					time.Sleep(wait)
				}
				var isCheck, ok bool
				s.sent, s.end, isCheck, ok = w.op(r, base+k, false)
				p.add(isCheck, ok, s)
				r.count(ok)
			}
		}()
	}
	wg.Wait()
	*opIndex = base + n
}

// op runs operation i, a /deltas batch or a check chosen by i alone,
// and checks a check's verdict. It returns when the request was sent
// and when its response arrived, whether it was a check, and whether
// it succeeded; the caller records it.
func (w *served) op(r *run, i int, traced bool) (sent, end time.Time, isCheck, ok bool) {
	t := w.tenants[i%len(w.tenants)]
	k := i / len(w.tenants)
	ctx := context.Background()
	var id uint64
	if traced {
		id = r.id()
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	sent = time.Now()
	if k%deltaEvery == deltaEvery-1 {
		ok = w.deltas(ctx, r, t)
		end = time.Now()
		if traced {
			r.addSpan(span{Trace: id, ID: id, Name: "client.Deltas", Start: r.ns(sent), End: r.ns(end)})
		}
		return sent, end, false, ok
	}
	c := t.checks[k%len(t.checks)]
	resp, err := w.cl.Check(ctx, t.name, &c.req)
	end = time.Now()
	if err != nil {
		var ae *api.Error
		if errors.As(err, &ae) {
			r.refuse(ae.Code)
		}
		logf("check %s %s: %v", t.name, c.name, err)
		return sent, end, true, false
	}
	if traced {
		r.addSpan(span{Trace: id, ID: id, Name: "client.Check", Start: r.ns(sent), End: r.ns(end), Engine: resp.Stats.DurationNS})
		r.engineServed(resp.Stats)
	}
	if verr := t.verify(c, resp); verr != nil {
		r.wrongVerdict("%v", verr)
	}
	return sent, end, true, !resp.Undecided
}

// deltas sends one /deltas batch: a fresh mint, and a drop of the
// oldest mint once more than maxLiveMints are live. The dropped id
// leaves the live list before the request, so concurrent batches never
// drop the same id.
func (w *served) deltas(ctx context.Context, r *run, t *tenantMirror) bool {
	t.mu.Lock()
	n := t.nextMint
	t.nextMint++
	tx := mintTx(n)
	spec := wireTx(tx.Name, tx)
	ops := []api.DeltaOp{{Op: api.OpAdd, Tx: &spec}}
	if len(t.live) > maxLiveMints {
		ops = append(ops, api.DeltaOp{Op: api.OpDrop, ID: t.live[0]})
		t.live = t.live[1:]
	}
	t.mu.Unlock()
	resp, err := w.cl.Deltas(ctx, t.name, &api.DeltaRequest{Ops: ops})
	if err != nil {
		var ae *api.Error
		if errors.As(err, &ae) {
			r.refuse(ae.Code)
		}
		logf("deltas %s: %v", t.name, err)
		return false
	}
	if resp.Failed > 0 || len(resp.Results) != len(ops) {
		logf("deltas %s: %d of %d operations failed: %+v", t.name, resp.Failed, len(ops), resp.Results)
		return false
	}
	t.mu.Lock()
	t.txs[resp.Results[0].ID] = tx
	t.live = append(t.live, resp.Results[0].ID)
	t.mu.Unlock()
	return true
}
