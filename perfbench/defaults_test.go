package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"blockchaindb/dcsatd/server"
	"blockchaindb/internal/core"
)

// TestDefaultsOnly pins the three places the benchmark configures the
// program to the shipped defaults.
func TestDefaultsOnly(t *testing.T) {
	if got, want := engineOptions(), core.DefaultOptions(); !reflect.DeepEqual(got, want) {
		t.Errorf("engineOptions() = %+v, want core.DefaultOptions() = %+v", got, want)
	}
	opts := reflect.ValueOf(engineOptions())
	for i := 0; i < opts.NumField(); i++ {
		if f := opts.Type().Field(i); strings.HasPrefix(f.Name, "Disable") && opts.Field(i).Bool() {
			t.Errorf("engineOptions() sets %s", f.Name)
		}
	}
	if got := serverConfig(); got != (server.Config{}) {
		t.Errorf("serverConfig() = %+v, want server.Config{}", got)
	}
}

// forbiddenFields are the settings through which the benchmark could
// step away from the shipped defaults: every engine option, every
// server bound, and the per-tenant and per-request overrides of the v1
// API. The benchmark's own sources may not name any of them.
func forbiddenFields() map[string]string {
	out := map[string]string{}
	for _, v := range []any{core.Options{}, server.Config{}} {
		ty := reflect.TypeOf(v)
		for i := 0; i < ty.NumField(); i++ {
			out[ty.Field(i).Name] = ty.String()
		}
	}
	for _, f := range []string{"CacheEntries", "Workers", "BudgetUnitsPerSec", "BudgetBurst"} {
		out[f] = "api.RegisterRequest"
	}
	for _, f := range []string{"Algorithm", "Workers", "TimeoutMS"} {
		out[f] = "api.CheckRequest"
	}
	return out
}

// TestSourcesUseDefaults scans the benchmark's own sources: no option
// field is named, no Monitor option is passed, the daemon is built only
// from serverConfig(), and engine options come only from
// engineOptions().
func TestSourcesUseDefaults(t *testing.T) {
	forbidden := forbiddenFields()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if owner, ok := forbidden[n.Sel.Name]; ok {
					t.Errorf("%s: names %s.%s", fset.Position(n.Pos()), owner, n.Sel.Name)
				}
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "core" && strings.HasPrefix(n.Sel.Name, "With") {
					t.Errorf("%s: uses Monitor option core.%s", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					if owner, bad := forbidden[k.Name]; bad {
						t.Errorf("%s: sets %s.%s", fset.Position(n.Pos()), owner, k.Name)
					}
				}
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "core" && sel.Sel.Name == "Options" {
						t.Errorf("%s: builds core.Options by hand; use engineOptions()", fset.Position(n.Pos()))
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch {
				case id.Name == "core" && sel.Sel.Name == "NewMonitor" && len(n.Args) != 1:
					t.Errorf("%s: core.NewMonitor with options", fset.Position(n.Pos()))
				case id.Name == "server" && sel.Sel.Name == "New" && !isCall(n.Args[0], "serverConfig"):
					t.Errorf("%s: server.New without serverConfig()", fset.Position(n.Pos()))
				case id.Name == "core" && sel.Sel.Name == "Check" && !isField(n.Args[3], "opts"):
					t.Errorf("%s: core.Check with options other than the workload's engineOptions()", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}

func isCall(e ast.Expr, name string) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := c.Fun.(*ast.Ident)
	return ok && id.Name == name
}

func isField(e ast.Expr, name string) bool {
	s, ok := e.(*ast.SelectorExpr)
	return ok && s.Sel.Name == name
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type stubInstance struct{}

func (stubInstance) measure(*run, time.Duration) {}
func (stubInstance) queryTexts() []string        { return nil }
func (stubInstance) close()                      {}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and the metrics, with their units, that the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	var mem runtime.MemStats
	compare := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		t.Helper()
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(printed))
		}
		for _, m := range listed {
			p, ok := printed[m.Name]
			if !ok {
				t.Errorf("%s: %s is listed but not printed", kind, m.Name)
			} else if p.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the output", kind, m.Name, m.Unit, p.Unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd(newRun("x", 1, false), 1, &mem))
	compare("per_layer", bf.PerLayer, perLayer(newRun("x", 1, true), stubInstance{}, &mem))
	if len(bf.Workloads) != len(setups) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(setups))
	}
	for _, w := range bf.Workloads {
		if setups[w.Name] == nil {
			t.Errorf("workload %s is listed but the program has no such workload", w.Name)
		}
	}
}

// TestWorkloadsVerify runs every workload briefly, traced and not, and
// requires every verdict to check out and no operation to fail.
func TestWorkloadsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, setup := range setups {
		for _, trace := range []bool{false, true} {
			res, err := execute(name, setup, 7, 300*time.Millisecond, trace)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// TestWitnessCheckRejects shows the witness oracle is not vacuous: a
// witness that does not make the query true is refused.
func TestWitnessCheckRejects(t *testing.T) {
	in, _, err := setupFig6(3)
	if err != nil {
		t.Fatal(err)
	}
	w := in.(*oneShot)
	for _, p := range w.checks {
		if p.satisfied {
			if err := witnessError(w.db, p.q, nil); err == nil {
				t.Errorf("%s: the empty witness passed for a satisfied query", p.name)
			}
		}
	}
	if err := verdictError(w.checks[0], !w.checks[0].satisfied); err == nil {
		t.Error("a flipped verdict passed")
	}
}
