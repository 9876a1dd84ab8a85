// Command perfbench is the repository's benchmark. It runs one
// workload under the shipped defaults, checks every verdict the program
// returns, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload fig6_oneshot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around its own calls into each layer and from the
// per-check stats the engine returns. The spans are written to
// .bench_build/traces/ when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"blockchaindb/internal/query"
)

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the measured phase for about d, recording into r.
	measure(r *run, d time.Duration)
	// queryTexts are the query strings the workload checks, for the
	// standalone parse timing.
	queryTexts() []string
	close()
}

// setups maps each workload to its set-up, which returns the instance
// and the time set-up took (generation, building the database, Monitor
// or server, and the warm-up pass; oracle work excluded). An error with
// a nil instance means set-up failed; with an instance, that a warm-up
// verdict was wrong: the run goes on and is reported incorrect.
var setups = map[string]func(seed int64) (instance, time.Duration, error){
	"fig6_oneshot":      setupFig6,
	"mempool_churn":     setupMempool,
	"clique_contention": setupClique,
	"served_mix":        setupServed,
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 15

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig6_oneshot, mempool_churn, clique_contention or served_mix")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 to trace the run and report per-layer metrics")
	)
	flag.Parse()
	setup, ok := setups[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	res, err := execute(*name, setup, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		logf("%s: %v", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func execute(name string, setup func(int64) (instance, time.Duration, error), seed int64, d time.Duration, trace bool) (*result, error) {
	var (
		inst  instance
		times []float64
		wrong error
	)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		in, took, err := setup(seed)
		if in == nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err != nil {
			wrong = err
		}
		inst = in
		times = append(times, took.Seconds())
	}
	defer inst.close()

	r := newRun(name, seed, trace)
	var err error
	if r.probe, err = newProbe(); err != nil {
		return nil, err
	}
	defer r.probe.close()
	if wrong != nil {
		r.wrong = append(r.wrong, "warm-up: "+wrong.Error())
	}
	r.beginMeasure()
	inst.measure(r, d)
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %v", d)
	}
	for _, w := range r.wrong {
		logf("wrong: %s", w)
	}

	out := &result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed}
	if !trace {
		out.Metrics = endToEnd(r, median(times), &mem)
		return out, nil
	}
	out.Metrics = perLayer(r, inst, &mem)
	if err := r.writeSpans(".bench_build/traces"); err != nil {
		logf("write spans: %v", err)
	}
	return out, nil
}

// endToEnd reports the user-facing metrics, times scaled to the
// nominal machine (see probe).
func endToEnd(r *run, setupS float64, mem *runtime.MemStats) map[string]metric {
	k := r.speed()
	return map[string]metric{
		"setup_s":         {setupS * k, "s"},
		"checks_per_s":    {r.checksPerSecond() / k, "1/s"},
		"check_p50_ms":    {ms(r.checkPct(0.50)) * k, "ms"},
		"check_p90_ms":    {ms(r.checkPct(0.90)) * k, "ms"},
		"alloc_kb_per_op": {float64(mem.TotalAlloc-r.memStart.TotalAlloc) / 1024 / float64(r.attempted), "KiB"},
		"heap_live_mb":    {float64(mem.HeapAlloc) / (1 << 20), "MiB"},
	}
}

func perLayer(r *run, inst instance, mem *runtime.MemStats) map[string]metric {
	e := &r.engine
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	put("core.check_us", "us", e.perCheckUS(e.dur))
	put("core.precheck_us", "us", e.perCheckUS(e.precheck))
	put("core.live_filter_us", "us", e.perCheckUS(e.live))
	put("core.component_split_us", "us", e.perCheckUS(e.split))
	put("core.fd_graph_us", "us", e.perCheckUS(e.fdGraph))
	put("core.clique_enum_us", "us", e.perCheckUS(e.clique))
	put("core.world_eval_us", "us", e.perCheckUS(e.eval))
	unattributed := 0.0
	if e.stagesKnown {
		unattributed = e.perCheckUS(e.dur - e.stages())
	}
	put("core.unattributed_us", "us", unattributed)
	put("core.prechecked_frac", "ratio", e.perCheck(float64(e.prechecked)))
	put("core.components", "count", e.perCheck(float64(e.components)))
	put("core.components_covered_frac", "ratio", ratio(float64(e.covered), float64(e.components)))
	put("core.cache_hit_frac", "ratio", ratio(float64(e.hits), float64(e.hits+e.misses)))
	put("core.components_cached_frac", "ratio", ratio(float64(e.cached), float64(e.components)))
	put("core.sweep_replays_per_check", "count", e.perCheck(float64(e.replays)))
	put("graph.cliques_per_check", "count", e.perCheck(float64(e.cliques)))
	put("possible.worlds_per_check", "count", e.perCheck(float64(e.worlds)))
	put("possible.worlds_incremental_frac", "ratio", ratio(float64(e.worldsInc), float64(e.worldsInc+e.worldsRebuilt)))
	put("query.plan_probes_per_check", "count", e.perCheck(float64(e.probes)))
	put("query.parse_us", "us", parseMeanUS(inst.queryTexts()))

	put("core.mon_add_p50_us", "us", us(r.adds.sorted().pct(0.5)))
	put("core.mon_drop_p50_us", "us", us(r.drops.sorted().pct(0.5)))
	put("core.mon_commit_p50_us", "us", us(r.commits.sorted().pct(0.5)))
	put("core.commit_refreshes_per_commit", "count", ratio(float64(r.refreshes), float64(len(r.commits))))

	self := selfTimes(r.spans)
	handler := r.spanDurations("server.handler.check").sorted()
	put("server.handler_p50_us", "us", us(handler.pct(0.5)))
	put("server.handler_p99_us", "us", us(handler.pct(0.99)))
	put("server.non_engine_p50_us", "us", us(r.nonEngine().sorted().pct(0.5)))
	put("server.deltas_handler_p50_us", "us", us(r.spanDurations("server.handler.deltas").sorted().pct(0.5)))
	put("server.refused_throttled", "count", float64(r.refused["throttled"]))
	put("server.refused_shed", "count", float64(r.refused["shed"]))
	put("server.refused_backpressure", "count", float64(r.refused["backpressure"]))
	put("client.rtt_p50_us", "us", us(r.spanDurations("client.Check").sorted().pct(0.5)))
	put("client.transport_p50_us", "us", us(self["client.Check"].sorted().pct(0.5)))

	ops := float64(r.attempted)
	put("runtime.allocs_per_op", "count", float64(mem.Mallocs-r.memStart.Mallocs)/ops)
	put("runtime.gc_cycles_per_kop", "count", 1000*float64(mem.NumGC-r.memStart.NumGC)/ops)
	put("loadgen.lag_p99_ms", "ms", ms(r.lag.sorted().pct(0.99)))
	put("loadgen.sustained_checks_per_s", "1/s", r.sustained)

	put("e2e.check_p99_ms", "ms", ms(p99(r.checks)))
	put("e2e.mutate_p50_us", "us", us(r.mutations.sorted().pct(0.5)))
	put("e2e.mutate_p99_us", "us", us(p99(r.mutations)))
	put("e2e.failed_frac", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	put("trace.overhead_pct", "%", r.overheadPct())
	put("machine.probe_us", "us", us(r.probes.sorted().pct(0.5)))
	return m
}

// p99 is the sample's 99th percentile, or 0 when fewer than ten
// samples lie beyond it.
func p99(d durations) time.Duration {
	if len(d) < 1000 {
		return 0
	}
	return d.sorted().pct(0.99)
}

func (r *run) spanDurations(name string) durations {
	var out durations
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// nonEngine is, per traced served check, the handler's span minus the
// engine's own reported check duration: decode, lookup or parse,
// admission, queueing, witness mapping and encode.
func (r *run) nonEngine() durations {
	engine := map[uint64]int64{}
	for _, s := range r.spans {
		if s.Name == "client.Check" {
			engine[s.ID] = s.Engine
		}
	}
	var out durations
	for _, s := range r.spans {
		if s.Name == "server.handler.check" {
			out = append(out, s.dur()-time.Duration(engine[s.Parent]))
		}
	}
	return out
}

// parseMeanUS times query.Parse on the workload's query strings,
// standalone, and returns the mean per parse.
func parseMeanUS(texts []string) float64 {
	if len(texts) == 0 {
		return 0
	}
	sorted := append([]string(nil), texts...)
	sort.Strings(sorted)
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, s := range sorted {
			if _, err := query.Parse(s); err != nil {
				logf("parse %q: %v", s, err)
				return 0
			}
		}
	}
	return us(time.Since(t0)) / float64(reps*len(sorted))
}
