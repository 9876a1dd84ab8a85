package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blockchaindb/dcsatd/api"
	"blockchaindb/internal/core"
)

// failedLatency stands in for the latency of an operation that failed
// or was refused: it counts as missing every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// span is one call the benchmark made into a layer. Spans of one
// request share a trace ID; Parent is the span that caused it (0 for a
// root). Times are nanoseconds since the run started. Engine, when
// nonzero, is the check duration the engine itself reported
// (core.Stats.Duration or the served stats.duration_ns).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Engine int64  `json:"engine_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// run collects everything one benchmark run measures. The recording
// methods are safe for concurrent use (the served workload drives it
// from two client goroutines).
type run struct {
	workload string
	seed     int64
	trace    bool
	epoch    time.Time

	mu        sync.Mutex
	checks    durations // every check, failed ones as failedLatency
	mutations durations // every mutation (Monitor call or /deltas round trip)
	adds      durations
	drops     durations
	commits   durations
	attempted int
	failed    int
	wrong     []string // first few wrong-verdict reports
	refused   map[string]int
	engine    engineSum // traced checks only
	refreshes int       // commit refreshes over the timed commits
	spans     []span

	// Per position of the workload's operation cycle: the time the
	// program spent in each step at that position, and the latency of
	// each check there (none where the step is a mutation only).
	posSteps, posChecks []durations

	// Tracing overhead: op time and count in traced vs untraced rounds.
	tracedTime, untracedTime time.Duration
	tracedOps, untracedOps   int

	nextID atomic.Uint64

	probe     *probe
	probes    durations // probe times, taken between steps
	lastProbe time.Time
	// Served workload only: generator lag and the sustained rate, both
	// from the rate ladder.
	lag       durations
	sustained float64

	memStart runtime.MemStats
}

func newRun(workload string, seed int64, trace bool) *run {
	return &run{workload: workload, seed: seed, trace: trace, epoch: time.Now(), refused: map[string]int{}}
}

func (r *run) id() uint64 { return r.nextID.Add(1) }

func (r *run) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// rootSpan records a span that no other span caused, for a call that
// started at t0 and took d.
func (r *run) rootSpan(name string, t0 time.Time, d time.Duration, engine time.Duration) {
	id := r.id()
	r.addSpan(span{Trace: id, ID: id, Name: name, Start: r.ns(t0), End: r.ns(t0) + int64(d), Engine: int64(engine)})
}

// addSpan records a span; the caller has decided the op is traced.
func (r *run) addSpan(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// check records one check outcome at position pos of the workload's
// operation cycle. ok is false when the check failed (error, undecided,
// refused); the latency then counts as a miss.
func (r *run) check(d time.Duration, ok bool, pos int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		d = failedLatency
	}
	r.checks = append(r.checks, d)
	r.posChecks = grow(r.posChecks, pos)
	r.posChecks[pos] = append(r.posChecks[pos], d)
}

// step records the time the program spent in the step at cycle
// position pos: its check and its mutations. Steps run one at a time;
// after each, the run times its probe once for every probeEvery since
// it last did, up to maxProbes times.
func (r *run) step(pos int, busy time.Duration) {
	r.mu.Lock()
	r.posSteps = grow(r.posSteps, pos)
	r.posSteps[pos] = append(r.posSteps[pos], busy)
	r.mu.Unlock()
	for n := min(int(time.Since(r.lastProbe)/probeEvery), maxProbes); n > 0; n-- {
		r.probes = append(r.probes, r.probe.once())
		r.lastProbe = time.Now()
	}
}

// speed is probeNominal over the median probe time of the run: the
// factor that scales the run's times to the nominal machine.
func (r *run) speed() float64 {
	if len(r.probes) == 0 {
		return 1
	}
	return float64(probeNominal) / float64(r.probes.sorted().pct(0.5))
}

func grow(s []durations, pos int) []durations {
	for len(s) <= pos {
		s = append(s, nil)
	}
	return s
}

// Each workload repeats a fixed cycle of operations, and the operation
// at one position of the cycle does the same work on every repetition.
// The machine is shared, and its other guests only ever add time, in
// bursts; so the time of a position is the cleanQuantile-quantile of
// its repetitions, the time it takes when the machine leaves it alone.
// Percentiles and throughput are then taken over the positions of the
// cycle, each counted once, as each occurs once per cycle.
const cleanQuantile = 0.2

func clean(d durations) time.Duration { return d.sorted().pct(cleanQuantile) }

// checkPct is the p-quantile, over the cycle's check positions, of
// each position's time.
func (r *run) checkPct(p float64) time.Duration {
	var per durations
	for _, d := range r.posChecks {
		if len(d) > 0 {
			per = append(per, clean(d))
		}
	}
	return per.sorted().pct(p)
}

// checksPerSecond is the checks in one cycle over the time the program
// spends in one cycle's steps (checks and mutations).
func (r *run) checksPerSecond() float64 {
	var busy time.Duration
	checks := 0
	for pos, d := range r.posSteps {
		if len(d) == 0 {
			continue
		}
		busy += clean(d)
		if pos < len(r.posChecks) && len(r.posChecks[pos]) > 0 {
			checks++
		}
	}
	return ratio(float64(checks), busy.Seconds())
}

// mutation records one mutation; kind is "add", "drop", "commit" or
// "deltas".
func (r *run) mutation(kind string, d time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		d = failedLatency
	}
	r.mutations = append(r.mutations, d)
	switch kind {
	case "add":
		r.adds = append(r.adds, d)
	case "drop":
		r.drops = append(r.drops, d)
	case "commit":
		r.commits = append(r.commits, d)
	}
}

// count records an operation that feeds no latency sample (served
// closed-loop and ladder phases).
func (r *run) count(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
	}
}

// wrongVerdict marks the run incorrect. The operation was already
// counted as attempted; it is now also a failure.
func (r *run) wrongVerdict(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func (r *run) refuse(code string) {
	r.mu.Lock()
	r.refused[code]++
	r.mu.Unlock()
}

func (r *run) engineStats(st *core.Stats) {
	r.mu.Lock()
	r.engine.add(st)
	r.mu.Unlock()
}

// engineServed folds the per-check stats a served check returns. The
// wire stats carry no stage durations, so stagesKnown stays as it was.
func (r *run) engineServed(st api.CheckStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.engine
	e.n++
	e.dur += time.Duration(st.DurationNS)
	e.components += st.Components
	e.cached += st.ComponentsCached
	e.cliques += int(st.Cliques)
	e.worlds += int(st.Worlds)
	e.probes += st.PlanProbes
	e.hits += st.CacheHits
	e.misses += st.CacheMisses
	e.replays += st.SweepReplays
}

// round folds one round's op time into the tracing-overhead totals.
func (r *run) round(traced bool, d time.Duration, ops int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if traced {
		r.tracedTime += d
		r.tracedOps += ops
	} else {
		r.untracedTime += d
		r.untracedOps += ops
	}
}

// overheadPct is the traced rounds' mean op time over the untraced
// rounds', minus one, in percent.
func (r *run) overheadPct() float64 {
	t := ratio(float64(r.tracedTime), float64(r.tracedOps))
	u := ratio(float64(r.untracedTime), float64(r.untracedOps))
	return 100 * (ratio(t, u) - 1)
}

// engineSum adds up the engine's per-check Stats. Means are taken over
// checks, so the stage means plus the unattributed mean equal the mean
// check duration exactly.
type engineSum struct {
	n                                                 int
	dur, precheck, live, split, fdGraph, clique, eval time.Duration
	stagesKnown                                       bool
	prechecked                                        int
	components, covered, cached                       int
	cliques, worlds, worldsInc, worldsRebuilt         int
	probes                                            int64
	hits, misses, replays                             int
}

func (e *engineSum) add(st *core.Stats) {
	e.n++
	e.stagesKnown = true
	e.dur += st.Duration
	e.precheck += st.PrecheckDur
	e.live += st.LiveFilterDur
	e.split += st.ClosureDur
	e.fdGraph += st.GraphBuildDur
	e.clique += st.CliqueDur
	e.eval += st.EvalDur
	if st.Prechecked {
		e.prechecked++
	}
	e.components += st.Components
	e.covered += st.ComponentsCovered
	e.cached += st.ComponentsCached
	e.cliques += st.Cliques
	e.worlds += st.WorldsEvaluated
	e.worldsInc += st.WorldsIncremental
	e.worldsRebuilt += st.WorldsRebuilt
	e.probes += st.PlanProbes
	e.hits += st.CacheHits
	e.misses += st.CacheMisses
	e.replays += st.SweepReplays
}

func (e *engineSum) stages() time.Duration {
	return e.precheck + e.live + e.split + e.fdGraph + e.clique + e.eval
}

// perCheckUS is a summed duration as microseconds per check.
func (e *engineSum) perCheckUS(d time.Duration) float64 { return ratio(us(d), float64(e.n)) }

func (e *engineSum) perCheck(x float64) float64 { return ratio(x, float64(e.n)) }

// beginMeasure snapshots the allocator before the measured phase.
func (r *run) beginMeasure() {
	runtime.GC()
	runtime.ReadMemStats(&r.memStart)
}

// selfTimes returns, per span name, each span's duration minus the
// part covered by its children (a layer's self time), in span order.
func selfTimes(spans []span) map[string]durations {
	child := make(map[uint64]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]durations)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur()-child[s.ID])
	}
	return out
}

// writeSpans stores the traced spans as JSON lines under dir.
func (r *run) writeSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
