package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
)

// simMetrics are the end-to-end metrics that must repeat bit for bit.
var simMetrics = []string{"sim_cycles_per_op", "sim_energy_pj_per_op", "sim_makespan_per_op"}

// exactLayerMetrics are the traced run's exact counts.
var exactLayerMetrics = []string{
	"device.shift_steps_per_op", "device.tr_steps_per_op", "device.write_steps_per_op",
	"device.read_steps_per_op", "device.copy_steps_per_op", "memory.row_copies_per_op",
	"compile.cross_dbc_moves_per_prog", "compile.port_shifts_per_prog", "compile.steps_per_prog",
}

// daemonPath is the coruscantd binary TestMain builds for the tests.
var daemonPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	daemonPath = filepath.Join(dir, "coruscantd")
	out, err := exec.Command("go", "build", "-o", daemonPath, "repro/cmd/coruscantd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build coruscantd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testOptions(t *testing.T, workload string, seconds float64) options {
	return options{workload: workload, seed: 7, seconds: seconds, root: "..",
		daemon: daemonPath, outDir: t.TempDir()}
}

func mustRun(t *testing.T, o options) *report {
	t.Helper()
	r, err := workloads[o.workload].run(o, nil)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", o.workload, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

func sameMetrics(t *testing.T, what string, names []string, a, b *report) {
	t.Helper()
	for _, n := range names {
		va, oka := a.Metrics[n]
		vb, okb := b.Metrics[n]
		if !oka || !okb || va.Value != vb.Value {
			t.Errorf("%s: %s = %v then %v, want identical", what, n, va.Value, vb.Value)
		}
	}
}

// seconds is long enough for the sim window and 1,000 latency samples.
func seconds(workload string) float64 {
	if workload == "serve-mixed" {
		return 3
	}
	return 2.5
}

// TestSimRepeatsAcrossRunsAndProcs: the exact metrics repeat bit for
// bit across two runs at one seed, and again at GOMAXPROCS 1 (the
// daemon included, through its environment).
func TestSimRepeatsAcrossRunsAndProcs(t *testing.T) {
	for _, wl := range []string{"engine-batch", "compile-run", "serve-mixed"} {
		t.Run(wl, func(t *testing.T) {
			o := testOptions(t, wl, seconds(wl)*raceSlowdown)
			first := mustRun(t, o)
			again := mustRun(t, o)
			sameMetrics(t, "two runs", simMetrics, first, again)

			t.Setenv("GOMAXPROCS", "1")
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			one := mustRun(t, o)
			sameMetrics(t, "GOMAXPROCS 2 vs 1", simMetrics, first, one)
		})
	}
}

// TestTracedRunExactCounts: the traced run emits every per-layer metric,
// its exact counts repeat in a second run made at GOMAXPROCS 1, and its
// trace validates (traceRun fails otherwise).
func TestTracedRunExactCounts(t *testing.T) {
	for _, wl := range []string{"engine-batch", "compile-run"} {
		t.Run(wl, func(t *testing.T) {
			o := testOptions(t, wl, 9)
			first, err := workloads[wl].trace(o)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct {
				t.Fatalf("traced run failed %d ops", first.Failed)
			}
			if want := len(layerMetricNames(t)); len(first.Metrics) != want {
				t.Errorf("traced run emitted %d metrics, want %d", len(first.Metrics), want)
			}
			for _, n := range layerMetricNames(t) {
				if _, ok := first.Metrics[n]; !ok {
					t.Errorf("traced run lacks %s", n)
				}
			}
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			one, err := workloads[wl].trace(o)
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, "traced run at GOMAXPROCS 2 then 1", exactLayerMetrics, first, one)
		})
	}
}

// layerMetricNames reads the per-layer metric names from BENCHMARK.json.
func layerMetricNames(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	return names
}

func flipBit(r dbc.Row) dbc.Row {
	c := r.Clone()
	c.Set(3, 1-c.Get(3))
	return c
}

// TestEngineVerifierCatchesCorruption: one flipped bit in one item.
func TestEngineVerifierCatchesCorruption(t *testing.T) {
	set := genEngine(params.DefaultConfig(), 3)
	m, bad, err := engineSetup(set)
	if err != nil || bad != 0 {
		t.Fatalf("setup: bad=%d err=%v", bad, err)
	}
	res := m.ExecuteBatch(set.batches[1])
	if n := checkEngine(res, set.want[1]); n != 0 {
		t.Fatalf("clean batch: %d wrong items", n)
	}
	res[5].Row = flipBit(res[5].Row)
	if n := checkEngine(res, set.want[1]); n != 1 {
		t.Fatalf("corrupted batch: %d wrong items, want 1", n)
	}
}

// TestCompileVerifierCatchesCorruption: a corrupted output row of an
// -O 2 run differs from the -O 0 oracle.
func TestCompileVerifierCatchesCorruption(t *testing.T) {
	st, err := compileSetup("..", 3)
	if err != nil {
		t.Fatal(err)
	}
	progs := st.progs[:8]
	want, err := compileOracle(st.cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		if err := seedInputs(st.mem, p); err != nil {
			t.Fatal(err)
		}
		res, err := compileAndRun(st.cfg, st.mem, p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if n := checkOutputs(st.mem, res.Outputs, want[i]); n != 0 {
			t.Fatalf("%s: clean run flagged", p.name)
		}
		o := res.Outputs[0]
		row, _ := st.mem.ReadRow(o.Addr)
		if err := st.mem.WriteRow(o.Addr, flipBit(row)); err != nil {
			t.Fatal(err)
		}
		if n := checkOutputs(st.mem, res.Outputs, want[i]); n != 1 {
			t.Fatalf("%s: corrupted output not flagged", p.name)
		}
	}
}

// TestServeVerifierCatchesCorruption: replaying a client log whose
// replies come from a second memory, a rejected request counts as one
// failure and one altered reply hash as another.
func TestServeVerifierCatchesCorruption(t *testing.T) {
	cfg := params.DefaultConfig()
	served, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &client{s: newStream(cfg.Geometry, 3, 0)}
	for i := 0; i < serveSimN+10; i++ {
		w := c.s.next()
		if i == 200 { // a rejected request: never executed, logged as failed
			c.log = append(c.log, outcome{req: w, err: os.ErrDeadlineExceeded})
			continue
		}
		h, err := mirrorApply(served, w)
		c.log = append(c.log, outcome{req: w, hash: h, err: err})
	}
	v, err := verifyClient(cfg, c)
	if err != nil || v.failed != 1 || !v.complete {
		t.Fatalf("log with one rejected request: %+v %v", v, err)
	}
	c.log[100].hash ^= 1
	v, err = verifyClient(cfg, c)
	if err != nil || v.failed != 2 {
		t.Fatalf("corrupted log: failed=%d err=%v, want 2", v.failed, err)
	}
}

// TestCorpusCompiles: generated programs are valid by construction at
// -O 0 and -O 2 for several seeds.
func TestCorpusCompiles(t *testing.T) {
	cfg := params.DefaultConfig()
	for seed := int64(1); seed <= 3; seed++ {
		progs, err := genCorpus(cfg, "..", seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			for _, level := range []int{0, compileLevel} {
				if _, err := compile.Compile(p.src, cfg, compile.Options{Level: level}); err != nil {
					t.Fatalf("seed %d %s -O %d: %v\n%s", seed, p.name, level, err, p.src)
				}
			}
		}
	}
}
