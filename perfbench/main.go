// Command perfbench is the repository's benchmark. It drives three
// workloads from the outside, through public entry points only:
//
//	serve-mixed   coruscantd as its own process, one closed-loop HTTP client
//	engine-batch  memory.ExecuteBatch on 32 disjoint PIM DBCs, in process
//	compile-run   pimc compile at -O 2 plus Plan.Run, in process
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	perfbench -workload engine-batch -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it measures the end-to-end metrics untraced; with
// -trace 1 it replays the workload's ops through successively deeper
// entry points and reports per-layer metrics, a waterfall and a Chrome
// trace. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // coruscantd binary (serve-mixed and every traced run)
	root     string // repository root: examples/pimasm and the provenance hash
	outDir   string // where traced runs write their Chrome trace
	// rateOnly marks a traced run's overhead phases: they need only
	// ops_per_s, so they skip the latency percentiles and the sim
	// window a short phase may not reach.
	rateOnly bool
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the contract's four keys, nothing else.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run   func(options, *spanLog) (*report, error)
	trace func(options) (*report, error)
}{
	"serve-mixed":  {serveE2E, traceServe},
	"engine-batch": {engineE2E, traceEngine},
	"compile-run":  {compileE2E, traceCompile},
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "serve-mixed | engine-batch | compile-run")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	fs.StringVar(&o.daemon, "daemon", "", "path to a built coruscantd binary")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for trace output")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	prov, err := provenance(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println("provenance", prov)
	var rep *report
	if o.trace {
		rep, err = w.trace(o)
	} else {
		rep, err = w.run(o, nil)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// provenance renders the host and input fingerprint every record
// carries. The commit is the VCS revision when the binary was built
// inside a git checkout, else a hash of the repository's Go sources
// and pimasm programs.
func provenance(o options) (string, error) {
	commit := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		h, err := treeHash(o.root)
		if err != nil {
			return "", err
		}
		commit = "tree:" + h
	}
	p := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"time_utc":   time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.Marshal(p)
	return string(b), err
}

// treeHash hashes every .go, go.mod and .pimasm file under root, in
// path order, skipping build output and hidden directories.
func treeHash(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".pimasm":
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errFailed marks a verification failure found before the timed phase.
var errFailed = errors.New("verification failed")
