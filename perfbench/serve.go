package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

const (
	serveClients = 1    // closed-loop clients, one bank each (two on 2 cores measured the scheduler)
	serveWarmup  = 64   // requests per client in the set-up warm-up pass
	serveSimN    = 4096 // requests per client the simulated costs cover
	serveSetups  = 15
	serveBS      = 8
	compileEvery = 16 // every 16th request is a /v1/compile kernel
	allocReplay  = 256
)

// --- the coruscantd process ---

// daemonProc is a running coruscantd.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	pid  int
}

// spawnDaemon starts coruscantd with its default flags, listening on a
// free loopback port, and waits for a healthy /v1/health.
func spawnDaemon(path string) (*daemonProc, error) {
	if path == "" {
		return nil, errors.New("no coruscantd binary given (-daemon)")
	}
	cmd := exec.Command(path, "-addr", "127.0.0.1:0")
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, pid: cmd.Process.Pid}
	line, err := bufio.NewReader(out).ReadString('\n')
	if i := strings.Index(line, "http://"); err == nil && i >= 0 {
		d.base = strings.TrimSpace(line[i:])
	} else {
		d.stop()
		return nil, fmt.Errorf("coruscantd banner %q: %v", line, err)
	}
	api := service.NewClient(d.base, nil)
	for tries := 0; ; tries++ {
		h, err := api.Health(context.Background())
		if err == nil && h.Status == "ok" {
			return d, nil
		}
		if tries == 200 {
			d.stop()
			return nil, fmt.Errorf("coruscantd never healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// deviceSteps scrapes /v1/metrics for the exact per-primitive step
// counts, summed over DBCs, by op label.
func deviceSteps(api *service.Client) (map[string]uint64, error) {
	page, err := api.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	samples, err := profile.ParsePrometheus(bytes.NewReader(page))
	if err != nil {
		return nil, err
	}
	steps := make(map[string]uint64)
	for _, s := range samples {
		if s.Name == "coruscant_dbc_steps_total" {
			steps[s.Labels["op"]] += uint64(s.Value)
		}
	}
	return steps, nil
}

// cycleOps are the step kinds that cost a device cycle (trace.Stats).
var cycleOps = []telemetry.Op{telemetry.OpShift, telemetry.OpTR, telemetry.OpWrite,
	telemetry.OpRead, telemetry.OpTW, telemetry.OpCopy, telemetry.OpLogic, telemetry.OpStall}

func cyclesOf(steps map[string]uint64) uint64 {
	var c uint64
	for _, op := range cycleOps {
		c += steps[op.String()]
	}
	return c
}

// --- the request stream ---

// wireReq is one serve-mixed request in wire form.
type wireReq struct {
	exec  *service.ExecuteRequest
	batch *service.BatchRequest
	comp  *service.CompileRequest
}

// class names the service endpoint a request goes to.
func (w wireReq) class() string {
	switch {
	case w.batch != nil:
		return "batch"
	case w.comp != nil:
		return "compile"
	}
	return "exec"
}

func (w wireReq) path() string {
	switch {
	case w.batch != nil:
		return service.PathBatch
	case w.comp != nil:
		return service.PathCompile
	}
	return service.PathExecute
}

func (w wireReq) body() any {
	switch {
	case w.batch != nil:
		return w.batch
	case w.comp != nil:
		return w.comp
	}
	return w.exec
}

// stream is one client's deterministic request sequence: the mix of
// service.RunLoad (row writes; add, mult, and, xor, max, or executes;
// 3-op batches ending in a read; spot reads; a compiled fma+max kernel
// every 16th request) on the client's own bank.
type stream struct {
	g    params.Geometry
	bank int
	rng  *rand.Rand
	i    int
	bag  []int // shuffled serveExecOps indices still to draw
}

// op draws the next execute op: every six draws use each op once, so
// the mix is the same at every seed.
func (s *stream) op() string {
	if len(s.bag) == 0 {
		s.bag = s.rng.Perm(len(serveExecOps))
	}
	k := s.bag[0]
	s.bag = s.bag[1:]
	return serveExecOps[k]
}

func newStream(g params.Geometry, seed int64, client int) *stream {
	return &stream{g: g, bank: client, rng: rand.New(rand.NewSource(seed + int64(client)*7919))}
}

var serveExecOps = []string{"add", "mult", "and", "xor", "max", "or"}

func (s *stream) addr(tile, d, row int) *service.Addr {
	return &service.Addr{Bank: s.bank, Tile: tile, DBC: d, Row: row}
}

func (s *stream) pimAddr() *service.Addr {
	return s.addr(0, s.g.DBCsPerTile-s.g.PIMDBCsPerTile, 0)
}

// lanes draws a track of lane values masked to half the blocksize, so
// mult never overflows a lane.
func (s *stream) lanes() []uint64 {
	v := make([]uint64, s.g.TrackWidth/serveBS)
	for i := range v {
		v[i] = s.rng.Uint64() & (1<<(serveBS/2) - 1)
	}
	return v
}

func (s *stream) exec(r service.Request) wireReq {
	shard := 0
	return wireReq{exec: &service.ExecuteRequest{Tenant: "bench-" + strconv.Itoa(s.bank), Shard: &shard, Request: r}}
}

func (s *stream) next() wireReq {
	i := s.i
	s.i++
	seed := func(r int) *service.Addr { return s.addr(1, 0, r) }
	if i < 4 {
		return s.exec(service.Request{Op: "write", Dst: seed(i), Blocksize: serveBS, Values: s.lanes()})
	}
	if i%compileEvery == 0 {
		shard := 0
		return wireReq{comp: &service.CompileRequest{Tenant: "bench-" + strconv.Itoa(s.bank), Shard: &shard,
			Source: kernelSource(s.bank), Level: compileLevel}}
	}
	switch i % 4 {
	case 0:
		return s.exec(service.Request{Op: "write", Dst: seed(s.rng.Intn(4)), Blocksize: serveBS, Values: s.lanes()})
	case 1:
		return s.exec(service.Request{Op: s.op(), Src: s.pimAddr(), Blocksize: serveBS,
			Operands: []service.Addr{*seed(s.rng.Intn(4)), *seed(s.rng.Intn(4))},
			Dst:      s.addr(2, 0, 4+s.rng.Intn(4))})
	case 2:
		op := s.op()
		dst := s.addr(2, 0, 8+s.rng.Intn(4))
		shard := 0
		return wireReq{batch: &service.BatchRequest{Tenant: "bench-" + strconv.Itoa(s.bank), Shard: &shard,
			Requests: []service.Request{
				{Op: op, Src: s.pimAddr(), Blocksize: serveBS,
					Operands: []service.Addr{*seed(s.rng.Intn(4)), *seed(s.rng.Intn(4))}, Dst: dst},
				{Op: "add", Src: s.pimAddr(), Blocksize: serveBS,
					Operands: []service.Addr{*dst, *seed(s.rng.Intn(4))}, Dst: s.addr(2, 0, 12)},
				{Op: "read", Src: s.addr(2, 0, 12)},
			}}}
	default:
		return s.exec(service.Request{Op: "read", Src: seed(s.rng.Intn(4))})
	}
}

// kernelSource is the CNN-style kernel of service.RunLoad: a fused
// multiply-add rectified by max, over the bank's seed rows.
func kernelSource(bank int) string {
	return fmt.Sprintf(`%%x = load b%[1]d.s0.t1.d0.r0
%%w = load b%[1]d.s0.t1.d0.r1
%%b = load b%[1]d.s0.t1.d0.r2
%%y = fma %%x, %%w, %%b bs=%[2]d
%%r = max %%y, %%x bs=%[2]d
store %%r, b%[1]d.s0.t2.d1.r0
store %%y, b%[1]d.s0.t2.d1.r1
`, bank, serveBS)
}

// --- sending and verifying ---

// rowHash folds a row into a running FNV-64 hash; the client keeps only
// hashes, so verification memory stays small.
func rowHash(h uint64, words []uint64) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(h >> (8 * i))
	}
	f.Write(b[:])
	for _, w := range words {
		for i := 0; i < 8; i++ {
			b[i] = byte(w >> (8 * i))
		}
		f.Write(b[:])
	}
	return f.Sum64()
}

// wireWords decodes a wire row's hex words. A malformed word decodes
// as 0, so the reply fails the mirror comparison instead of passing.
func wireWords(rd service.RowData) []uint64 {
	out := make([]uint64, len(rd.Words))
	for i, s := range rd.Words {
		out[i], _ = strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	}
	return out
}

// send issues one request and returns the hash of every row it
// returned. Any error — a non-2xx reply, a 429 included — is a failure.
func send(ctx context.Context, api *service.Client, w wireReq) (uint64, error) {
	var h uint64
	switch {
	case w.exec != nil:
		resp, err := api.Execute(ctx, *w.exec)
		if err != nil {
			return 0, err
		}
		return rowHash(h, wireWords(resp.Row)), nil
	case w.batch != nil:
		resp, err := api.Batch(ctx, *w.batch)
		if err != nil {
			return 0, err
		}
		for _, it := range resp.Results {
			if it.Error != nil || it.Row == nil {
				return 0, fmt.Errorf("batch item failed: %v", it.Err())
			}
			h = rowHash(h, wireWords(*it.Row))
		}
		return h, nil
	default:
		resp, err := api.Compile(ctx, *w.comp)
		if err != nil {
			return 0, err
		}
		for _, o := range resp.Outputs {
			h = rowHash(h, wireWords(o.Row))
		}
		return h, nil
	}
}

// lower turns a wire request into the memory request it means.
func lower(r service.Request, width int) (memory.Request, error) {
	ia := func(a *service.Addr) isa.Addr {
		return isa.Addr{Bank: a.Bank, Subarray: a.Subarray, Tile: a.Tile, DBC: a.DBC, Row: a.Row}
	}
	switch r.Op {
	case "write":
		if r.Row != nil {
			row := dbc.Row{N: r.Row.N, Words: wireWords(*r.Row)}
			return memory.Request{Kind: memory.KindWrite, Dst: ia(r.Dst), Row: row}, nil
		}
		row, err := pim.PackLanes(r.Values, r.Blocksize, width)
		return memory.Request{Kind: memory.KindWrite, Dst: ia(r.Dst), Row: row}, err
	case "copy":
		return memory.Request{Kind: memory.KindCopy, Src: ia(r.Src), Dst: ia(r.Dst)}, nil
	case "read":
		return memory.Request{Kind: memory.KindRead, Src: ia(r.Src)}, nil
	}
	op, ok := isa.OpByName(r.Op)
	if !ok {
		return memory.Request{}, fmt.Errorf("unknown op %q", r.Op)
	}
	ops := make([]isa.Addr, len(r.Operands))
	for i := range r.Operands {
		ops[i] = ia(&r.Operands[i])
	}
	return memory.Request{
		In:       isa.Instruction{Op: op, Src: ia(r.Src), Blocksize: r.Blocksize, Operands: len(ops), Imm: r.Imm},
		Operands: ops, Dst: ia(r.Dst),
	}, nil
}

// memBatch returns the memory batch a non-compile request lowers to.
func (w wireReq) memBatch(width int) ([]memory.Request, error) {
	var wire []service.Request
	if w.exec != nil {
		wire = []service.Request{w.exec.Request}
	} else {
		wire = w.batch.Requests
	}
	out := make([]memory.Request, len(wire))
	for i, r := range wire {
		var err error
		if out[i], err = lower(r, width); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mirrorApply runs a request on the serial mirror exactly as the
// daemon's shard does and returns the hash of the rows it would return.
func mirrorApply(m *memory.Memory, w wireReq) (uint64, error) {
	var h uint64
	if w.comp != nil {
		res, err := compile.Compile(w.comp.Source, m.Config(), compile.Options{Level: w.comp.Level})
		if err != nil {
			return 0, err
		}
		if err := res.Plan.Run(m); err != nil {
			return 0, err
		}
		for _, o := range res.Outputs {
			row, err := m.ReadRow(o.Addr)
			if err != nil {
				return 0, err
			}
			h = rowHash(h, row.Words)
		}
		return h, nil
	}
	reqs, err := w.memBatch(m.Config().Geometry.TrackWidth)
	if err != nil {
		return 0, err
	}
	for _, r := range m.ExecuteBatch(reqs) {
		if r.Err != nil {
			return 0, r.Err
		}
		h = rowHash(h, r.Row.Words)
	}
	return h, nil
}

// outcome is what a client keeps of one request for later verification.
type outcome struct {
	req  wireReq
	hash uint64
	err  error
}

// client is one closed-loop load client.
type client struct {
	api  *service.Client
	s    *stream
	log  []outcome
	lats []time.Duration // timed-phase requests
}

func newClient(base string, g params.Geometry, seed int64, id int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{api: service.NewClient(base, &http.Client{Transport: tr}), s: newStream(g, seed, id)}
}

// one sends the stream's next request and logs it; it returns the
// request latency.
func (c *client) one(ctx context.Context) time.Duration {
	w := c.s.next()
	t0 := time.Now()
	h, err := send(ctx, c.api, w)
	lat := time.Since(t0)
	c.log = append(c.log, outcome{w, h, err})
	return lat
}

// warm runs n requests on every client concurrently.
func warm(ctx context.Context, cs []*client, n int) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				c.one(ctx)
			}
		}(c)
	}
	wg.Wait()
}

// verdict is what replaying one client's log on its mirror found.
type verdict struct {
	failed   int64  // errors and replies that differ from the mirror
	cycles   uint64 // mirror cycles over the whole log
	simC     uint64 // cycles, energy and makespan of the first serveSimN requests
	simE     float64
	simSpan  uint64
	complete bool // the log reached serveSimN requests
}

// verifyClient replays a client's log on a fresh serial mirror. The
// mirror sees exactly the device work the daemon did for this client's
// bank, so its cost counters over the first serveSimN requests are the
// daemon's too (the caller checks the totals agree).
func verifyClient(cfg params.Config, c *client) (verdict, error) {
	var v verdict
	m, err := memory.New(cfg)
	if err != nil {
		return v, err
	}
	rec := m.Recorder()
	for i, o := range c.log {
		if i == serveSimN {
			v.simC, v.simE, v.simSpan, v.complete = rec.Cycle(), rec.EnergyPJ(), rec.Makespan(), true
		}
		if o.err != nil {
			v.failed++
			continue
		}
		h, err := mirrorApply(m, o.req)
		if err != nil || h != o.hash {
			v.failed++
		}
	}
	v.cycles = rec.Cycle()
	return v, nil
}

// --- the workload ---

// serveState is one set-up: a healthy daemon and warmed clients.
type serveState struct {
	d       *daemonProc
	clients []*client
}

func serveSetup(o options, g params.Geometry) (*serveState, error) {
	d, err := spawnDaemon(o.daemon)
	if err != nil {
		return nil, err
	}
	st := &serveState{d: d}
	for i := 0; i < serveClients; i++ {
		st.clients = append(st.clients, newClient(d.base, g, o.seed, i))
	}
	warm(context.Background(), st.clients, serveWarmup)
	return st, nil
}

func serveE2E(o options, tr *spanLog) (*report, error) {
	cfg := params.DefaultConfig()
	setupS, st, err := medianSetup(serveSetups, func() (*serveState, error) {
		return serveSetup(o, cfg.Geometry)
	}, func(st *serveState) { st.d.stop() })
	if err != nil {
		return nil, err
	}
	defer st.d.stop()

	// Timed phase: closed loop until the deadline, completed requests
	// and daemon CPU snapshotted at its start and end.
	var completed atomic.Int64
	length := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	snap := func() counters {
		cpu, _ := procCPU(st.d.pid)
		return counters{ops: completed.Load(), cpu: cpu, wall: time.Since(start)}
	}
	first := snap()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, c := range st.clients {
		tid := 0
		if tr != nil {
			tid = tr.lane(fmt.Sprintf("end-to-end client %d", i))
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !stop.Load() {
				lat := c.one(context.Background())
				if tr != nil {
					tr.add(tid, len(c.log)-1, "request", time.Now().Add(-lat), lat)
				}
				c.lats = append(c.lats, lat)
				completed.Add(1)
			}
		}(c)
	}
	time.Sleep(length)
	last := snap()
	stop.Store(true)
	wg.Wait()

	health, err := st.clients[0].api.Health(context.Background())
	if err != nil {
		return nil, err
	}
	steps, err := deviceSteps(st.clients[0].api)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(st.d.pid)
	if err != nil {
		return nil, err
	}
	st.d.stop()

	// Verification, after the daemon is gone: every client's log on
	// its own serial mirror, and the daemon's exact cycle total against
	// the mirrors'.
	var attempted, failed int64 // every logged request, warm-up included
	var mirrorCycles, simC, simSpan uint64
	var simE float64
	var lats []time.Duration
	for _, c := range st.clients {
		attempted += int64(len(c.log))
		v, err := verifyClient(cfg, c)
		if err != nil {
			return nil, err
		}
		if !v.complete && !o.rateOnly {
			return nil, fmt.Errorf("a client sent %d requests, fewer than the %d the simulated costs cover", len(c.log), serveSimN)
		}
		failed += v.failed
		mirrorCycles += v.cycles
		simC, simE, simSpan = simC+v.simC, simE+v.simE, simSpan+v.simSpan
		lats = append(lats, c.lats...)
	}
	if got := cyclesOf(steps); got != mirrorCycles {
		fmt.Printf("device cycles: coruscantd %d, serial mirrors %d\n", got, mirrorCycles)
		failed++
	}
	allocs, err := handlerAllocs(cfg, st.clients)
	if err != nil {
		return nil, err
	}
	var p50, p95 float64
	if !o.rateOnly {
		if p50, p95, err = percentiles(lats); err != nil {
			return nil, err
		}
	}
	fmt.Printf("samples %d requests; coalesced %d of %d accepted; rejected %d\n", len(lats),
		health.Counters.CoalescedRequests, health.Counters.Accepted,
		health.Counters.RejectedQuota+health.Counters.RejectedOverload+health.Counters.RejectedDraining)
	r := &report{Attempted: attempted, Failed: failed, Correct: failed == 0}
	ws := totals(first, last, true)
	ws.allocsPer = allocs
	r.e2e(setupS, ws, p50, p95, rss)
	r.sim(serveClients*serveSimN, simC, simE, simSpan)
	return r, nil
}

// handlerAllocs replays the first allocReplay logged requests of every
// client, interleaved, through an in-process service.Server configured
// like coruscantd's defaults, and returns heap allocations per request.
// coruscantd cannot report its own allocations from outside; this is
// the same server code without the socket.
func handlerAllocs(cfg params.Config, cs []*client) (float64, error) {
	srv, err := service.NewServer(service.Config{Device: cfg, Telemetry: true})
	if err != nil {
		return 0, err
	}
	defer srv.Drain()
	h := srv.Handler()
	type call struct {
		req *http.Request
		rec *httptest.ResponseRecorder
	}
	var calls []call
	for i := 0; i < allocReplay; i++ {
		for _, c := range cs {
			if i >= len(c.log) {
				continue
			}
			w := c.log[i].req
			body, err := json.Marshal(w.body())
			if err != nil {
				return 0, err
			}
			calls = append(calls, call{httptest.NewRequest(http.MethodPost, w.path(), bytes.NewReader(body)), httptest.NewRecorder()})
		}
	}
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for _, c := range calls {
		h.ServeHTTP(c.rec, c.req)
	}
	runtime.ReadMemStats(&b)
	for _, c := range calls {
		if c.rec.Code != http.StatusOK {
			return 0, fmt.Errorf("%w: in-process replay got %d: %s", errFailed, c.rec.Code, c.rec.Body.String())
		}
	}
	return float64(b.Mallocs-a.Mallocs) / float64(len(calls)), nil
}
