package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
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
	"repro/internal/trace"
)

// The traced run replays one workload's ops through successively
// deeper public entry points, one layer at a time, and records a span
// around every call; spans of one op share its id. A layer's self time
// is its entry point's time minus the next deeper one's:
//
//	http      service.Client -> coruscantd            (socket, net/http, queueing)
//	handler   Server.Handler() via httptest           (admission, routing, workers)
//	codec     encoding/json of the same bodies
//	engine    the request's memory / compile work
//	memory    PlanBatch + BatchPlan.Run per batch
//	kernel    the same cpim ops on a bare pim.Unit
//
// End-to-end metrics are never taken from a traced run.

// --- spans ---

// span is one timed call at one layer boundary.
type span struct {
	name  string
	tid   int
	op    int
	start time.Duration // since the log's origin
	dur   time.Duration
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	lanes  []string
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// lane returns the Chrome thread id of a named lane, adding it if new.
func (l *spanLog) lane(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, n := range l.lanes {
		if n == name {
			return i + 1
		}
	}
	l.lanes = append(l.lanes, name)
	return len(l.lanes)
}

func (l *spanLog) add(tid, op int, name string, start time.Time, dur time.Duration) {
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, tid: tid, op: op, start: start.Sub(l.origin), dur: dur})
	l.mu.Unlock()
}

// chrome renders the log as Chrome trace_event JSON: one thread lane
// per layer, one complete event per span, the op id in args.
func (l *spanLog) chrome() ([]byte, error) {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  *int64         `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var out []ev
	for i, n := range l.lanes {
		out = append(out, ev{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"name": n}})
	}
	spans := append([]span(nil), l.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for _, s := range spans {
		d := s.dur.Microseconds()
		out = append(out, ev{Name: s.name, Cat: l.lanes[s.tid-1], Ph: "X", Ts: s.start.Microseconds(),
			Dur: &d, Pid: 1, Tid: s.tid, Args: map[string]any{"op": s.op}})
	}
	return json.Marshal(out)
}

// --- a workload's ops in every form the replay needs ---

// anatomy is one workload's ops as wire requests (per concurrent
// client), as memory batches, and as pimasm programs.
type anatomy struct {
	name    string
	cfg     params.Config
	ops     int         // workload ops the memory batches cover
	lanes   [][]wireReq // wire requests, one list per concurrent client
	batches []memBatch  // memory-level work in order
	progs   []program   // programs for the compile layer
	e2e     func(options, *spanLog) (*report, error)
}

// memBatch is one memory-level batch; setup batches (input seeding)
// run untimed and count toward no metric.
type memBatch struct {
	reqs  []memory.Request
	setup bool
}

// wireRow renders a row as the wire's hex words.
func wireRow(r dbc.Row) *service.RowData {
	rd := &service.RowData{N: r.N, Words: make([]string, len(r.Words))}
	for i, w := range r.Words {
		rd.Words[i] = fmt.Sprintf("0x%x", w)
	}
	return rd
}

func wireAddr(a isa.Addr) *service.Addr {
	return &service.Addr{Bank: a.Bank, Subarray: a.Subarray, Tile: a.Tile, DBC: a.DBC, Row: a.Row}
}

// wireOf renders a memory request in wire form.
func wireOf(r memory.Request) service.Request {
	switch r.Kind {
	case memory.KindWrite:
		return service.Request{Op: "write", Dst: wireAddr(r.Dst), Row: wireRow(r.Row)}
	case memory.KindRead:
		return service.Request{Op: "read", Src: wireAddr(r.Src)}
	case memory.KindCopy:
		return service.Request{Op: "copy", Src: wireAddr(r.Src), Dst: wireAddr(r.Dst)}
	}
	ops := make([]service.Addr, len(r.Operands))
	for i, a := range r.Operands {
		ops[i] = *wireAddr(a)
	}
	return service.Request{Op: r.In.Op.String(), Src: wireAddr(r.In.Src), Operands: ops,
		Dst: wireAddr(r.Dst), Blocksize: r.In.Blocksize, Imm: r.In.Imm}
}

func wireBatch(reqs []memory.Request) wireReq {
	w := make([]service.Request, len(reqs))
	for i, r := range reqs {
		w[i] = wireOf(r)
	}
	shard := 0
	return wireReq{batch: &service.BatchRequest{Tenant: "bench-0", Shard: &shard, Requests: w}}
}

func wireExec(r memory.Request) wireReq {
	shard := 0
	return wireReq{exec: &service.ExecuteRequest{Tenant: "bench-0", Shard: &shard, Request: wireOf(r)}}
}

func wireCompile(src string) wireReq {
	shard := 0
	return wireReq{comp: &service.CompileRequest{Tenant: "bench-0", Shard: &shard, Source: src, Level: compileLevel}}
}

func writes(rows []rowWrite) []memory.Request {
	out := make([]memory.Request, len(rows))
	for i, w := range rows {
		out[i] = memory.Request{Kind: memory.KindWrite, Dst: w.addr, Row: w.row}
	}
	return out
}

// planBatches turns every step of a compiled plan into one batch.
func planBatches(pl *compile.Plan, width int) ([][]memory.Request, error) {
	var out [][]memory.Request
	for _, st := range pl.Steps {
		switch st.Kind {
		case compile.StepWrite:
			lanes := make([]uint64, width/st.Bs)
			for i := range lanes {
				lanes[i] = st.Val
			}
			row, err := pim.PackLanes(lanes, st.Bs, width)
			if err != nil {
				return nil, err
			}
			out = append(out, []memory.Request{{Kind: memory.KindWrite, Dst: st.Addr, Row: row}})
		case compile.StepCopy:
			out = append(out, []memory.Request{{Kind: memory.KindCopy, Src: st.Src, Dst: st.Dst}})
		case compile.StepBatch:
			out = append(out, st.Reqs)
		case compile.StepExec:
			out = append(out, []memory.Request{{In: st.In, Operands: st.Operands, Dst: st.DstA}})
		}
	}
	return out, nil
}

// programBatches is a program's memory-level work: its input writes
// (setup), its plan steps, and a read of every output.
func programBatches(cfg params.Config, p program) ([]memBatch, *compile.Result, error) {
	res, err := compile.Compile(p.src, cfg, compile.Options{Level: compileLevel})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", p.name, err)
	}
	steps, err := planBatches(res.Plan, cfg.Geometry.TrackWidth)
	if err != nil {
		return nil, nil, err
	}
	out := []memBatch{}
	if len(p.inputs) > 0 {
		out = append(out, memBatch{reqs: writes(p.inputs), setup: true})
	}
	for _, s := range steps {
		out = append(out, memBatch{reqs: s})
	}
	var reads []memory.Request
	for _, o := range res.Outputs {
		reads = append(reads, memory.Request{Kind: memory.KindRead, Src: o.Addr})
	}
	return append(out, memBatch{reqs: reads}), res, nil
}

// batchProgram renders engine requests as one pimasm program: each
// request's operand loads, its op, and a store to its destination.
func batchProgram(reqs []memory.Request) string {
	var b strings.Builder
	for i, r := range reqs {
		args := make([]string, len(r.Operands))
		for j, a := range r.Operands {
			args[j] = fmt.Sprintf("%%a%dx%d", i, j)
			fmt.Fprintf(&b, "%s = load %s\n", args[j], isa.FormatAddr(a))
		}
		fmt.Fprintf(&b, "%%r%d = %s %s bs=%d\n", i, r.In.Op, strings.Join(args, ", "), r.In.Blocksize)
		fmt.Fprintf(&b, "store %%r%d, %s\n", i, isa.FormatAddr(r.Dst))
	}
	return b.String()
}

// engineAnatomy: the operand rows, then per pool batch the batch, one
// item alone, and four items as a compiled program.
func engineAnatomy(o options) (*anatomy, error) {
	set := genEngine(params.DefaultConfig(), o.seed)
	a := &anatomy{name: "engine-batch", cfg: set.cfg, ops: enginePool * engineBatch, e2e: engineE2E}
	rows := map[isa.Addr]dbc.Row{}
	for _, w := range set.rows {
		rows[w.addr] = w.row
	}
	lane := []wireReq{wireBatch(writes(set.rows))}
	a.batches = append(a.batches, memBatch{reqs: writes(set.rows), setup: true})
	for b, reqs := range set.batches {
		a.batches = append(a.batches, memBatch{reqs: reqs})
		k := 4 * (b % (engineBatch / 4))
		p := program{name: fmt.Sprintf("batch%02d", b), src: batchProgram(reqs[k : k+4])}
		for _, r := range reqs[k : k+4] {
			for _, op := range r.Operands {
				p.inputs = append(p.inputs, rowWrite{op, rows[op]})
			}
		}
		a.progs = append(a.progs, p)
		lane = append(lane, wireBatch(reqs), wireExec(reqs[b%engineBatch]), wireCompile(p.src))
	}
	a.lanes = [][]wireReq{lane}
	return a, nil
}

// compileAnatomy: per program its input writes, the compile request,
// and a read of its first output.
func compileAnatomy(o options) (*anatomy, error) {
	st, err := compileSetup(o.root, o.seed)
	if err != nil {
		return nil, err
	}
	a := &anatomy{name: "compile-run", cfg: st.cfg, ops: len(st.progs), progs: st.progs, e2e: compileE2E}
	var lane []wireReq
	for _, p := range st.progs {
		bs, res, err := programBatches(st.cfg, p)
		if err != nil {
			return nil, err
		}
		a.batches = append(a.batches, bs...)
		lane = append(lane, wireBatch(writes(p.inputs)), wireCompile(p.src),
			wireExec(memory.Request{Kind: memory.KindRead, Src: res.Outputs[0].Addr}))
	}
	a.lanes = [][]wireReq{lane}
	return a, nil
}

// serveAnatomy: each client's first requests of its stream; the
// compiled kernels become the compile layer's programs.
func serveAnatomy(o options) (*anatomy, error) {
	cfg := params.DefaultConfig()
	const perClient = 4 * serveWarmup
	a := &anatomy{name: "serve-mixed", cfg: cfg, ops: serveClients * perClient, e2e: serveE2E}
	for c := 0; c < serveClients; c++ {
		s := newStream(cfg.Geometry, o.seed, c)
		var lane []wireReq
		for i := 0; i < perClient; i++ {
			lane = append(lane, s.next())
		}
		a.lanes = append(a.lanes, lane)
		p := program{name: fmt.Sprintf("kernel-b%d", c), src: kernelSource(c)}
		addrs, err := loadAddrs(p.src)
		if err != nil {
			return nil, err
		}
		for _, ad := range addrs {
			p.inputs = append(p.inputs, rowWrite{ad, pim.MustPackLanes(s.lanes(), serveBS, cfg.Geometry.TrackWidth)})
		}
		a.progs = append(a.progs, p)
	}
	for _, w := range interleave(a.lanes) {
		if w.comp == nil {
			reqs, err := w.memBatch(cfg.Geometry.TrackWidth)
			if err != nil {
				return nil, err
			}
			a.batches = append(a.batches, memBatch{reqs: reqs})
			continue
		}
		bs, _, err := programBatches(cfg, program{name: "kernel", src: w.comp.Source})
		if err != nil {
			return nil, err
		}
		a.batches = append(a.batches, bs...)
	}
	return a, nil
}

// interleave merges the lanes round-robin: the order one in-process
// caller replays concurrent clients in.
func interleave(lanes [][]wireReq) []wireReq {
	var out []wireReq
	for i := 0; ; i++ {
		n := len(out)
		for _, l := range lanes {
			if i < len(l) {
				out = append(out, l[i])
			}
		}
		if len(out) == n {
			return out
		}
	}
}

// --- the replay ---

// tracer drives one traced run.
type tracer struct {
	a      *anatomy
	o      options
	log    *spanLog
	r      *report
	budget time.Duration // per stage

	attempted, failed int64 // replayed ops, and those that failed
}

// check counts one replayed op and whether it succeeded.
func (t *tracer) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// repeat runs body at least once and until the stage budget is spent;
// body records spans only when first is true.
func (t *tracer) repeat(body func(first bool) error) (int, error) {
	t0 := time.Now()
	n := 0
	for n == 0 || time.Since(t0) < t.budget {
		if err := body(n == 0); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// memory returns a fresh memory. The anatomy's configuration already
// built memories while the anatomy was made, so failing here is a bug.
func (t *tracer) memory() *memory.Memory {
	m, err := memory.New(t.a.cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func meanUS(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// layerTimes are the per-request means of the wire-side layers.
type layerTimes struct{ http, handler, codec, engine float64 }

// httpLayer replays the lanes concurrently against a fresh coruscantd,
// one client per lane, and reads the service counters and the exact
// device steps of the first pass.
func (t *tracer) httpLayer() (float64, map[string]uint64, error) {
	d, err := spawnDaemon(t.o.daemon)
	if err != nil {
		return 0, nil, err
	}
	defer d.stop()
	api := service.NewClient(d.base, nil)
	h0, err := api.Health(context.Background())
	if err != nil {
		return 0, nil, err
	}
	var steps map[string]uint64
	var total time.Duration
	var calls int
	tids := make([]int, len(t.a.lanes))
	for i := range tids {
		tids[i] = t.log.lane(fmt.Sprintf("http client %d", i))
	}
	_, err = t.repeat(func(first bool) error {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for li, lane := range t.a.lanes {
			wg.Add(1)
			go func(li int, lane []wireReq) {
				defer wg.Done()
				httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
				c := service.NewClient(d.base, httpc)
				var sum time.Duration
				var bad int64
				for i, w := range lane {
					t0 := time.Now()
					_, err := send(context.Background(), c, w)
					lat := time.Since(t0)
					sum += lat
					if err != nil {
						bad++
					}
					if first {
						// The op id is the request's index in interleave order.
						t.log.add(tids[li], i*len(t.a.lanes)+li, "http "+w.class(), t0, lat)
					}
				}
				mu.Lock()
				total += sum
				calls += len(lane)
				t.attempted += int64(len(lane))
				t.failed += bad
				mu.Unlock()
			}(li, lane)
		}
		wg.Wait()
		if first {
			s, err := deviceSteps(api)
			steps = s
			return err
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	h1, err := api.Health(context.Background())
	if err != nil {
		return 0, nil, err
	}
	c0, c1 := h0.Counters, h1.Counters
	acc := float64(c1.Accepted - c0.Accepted)
	rej := float64(c1.RejectedQuota + c1.RejectedOverload + c1.RejectedDraining -
		c0.RejectedQuota - c0.RejectedOverload - c0.RejectedDraining)
	t.r.set("service.coalesced_share", "ratio", float64(c1.CoalescedRequests-c0.CoalescedRequests)/acc)
	t.r.set("service.rejected_share", "ratio", rej/(acc+rej))
	return meanUS(total, calls), steps, nil
}

// handlerLayer replays the interleaved requests through an in-process
// Server.Handler() and returns the mean handler time plus every reply
// body (for the codec layer).
func (t *tracer) handlerLayer(reqs []wireReq) (float64, [][]byte, error) {
	srv, err := service.NewServer(service.Config{Device: t.a.cfg, Telemetry: true})
	if err != nil {
		return 0, nil, err
	}
	defer srv.Drain()
	h := srv.Handler()
	bodies := make([][]byte, len(reqs))
	for i, w := range reqs {
		if bodies[i], err = json.Marshal(w.body()); err != nil {
			return 0, nil, err
		}
	}
	replies := make([][]byte, len(reqs))
	byClass := map[string][]float64{}
	tid := t.log.lane("service handler")
	var total time.Duration
	var calls int
	_, err = t.repeat(func(first bool) error {
		for i, w := range reqs {
			req := httptest.NewRequest(http.MethodPost, w.path(), bytes.NewReader(bodies[i]))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			lat := time.Since(t0)
			total += lat
			calls++
			byClass[w.class()] = append(byClass[w.class()], float64(lat)/float64(time.Millisecond))
			t.check(rec.Code == http.StatusOK)
			if first {
				replies[i] = rec.Body.Bytes()
				t.log.add(tid, i, "handler "+w.class(), t0, lat)
			}
		}
		return nil
	})
	for _, c := range []string{"exec", "batch", "compile"} {
		t.r.set("service."+c+"_p50_ms", "ms", median(byClass[c]))
	}
	return meanUS(total, calls), replies, err
}

// codecLayer times encoding/json on the workload's own bodies, as the
// server does it: decode the request, encode the reply.
func (t *tracer) codecLayer(reqs []wireReq, replies [][]byte) (float64, error) {
	tid := t.log.lane("json codec")
	var total time.Duration
	var calls, bytesN int
	_, err := t.repeat(func(first bool) error {
		for i, w := range reqs {
			body, err := json.Marshal(w.body())
			if err != nil {
				return err
			}
			var in, out any
			switch {
			case w.exec != nil:
				in, out = new(service.ExecuteRequest), new(service.ExecuteResponse)
			case w.batch != nil:
				in, out = new(service.BatchRequest), new(service.BatchResponse)
			default:
				in, out = new(service.CompileRequest), new(service.CompileResponse)
			}
			if err := json.Unmarshal(replies[i], out); err != nil {
				return err
			}
			t0 := time.Now()
			if err := json.Unmarshal(body, in); err != nil {
				return err
			}
			if _, err := json.Marshal(out); err != nil {
				return err
			}
			lat := time.Since(t0)
			total += lat
			calls++
			if first {
				bytesN += len(body) + len(replies[i])
				t.log.add(tid, i, "codec "+w.class(), t0, lat)
			}
		}
		return nil
	})
	t.r.set("service.body_bytes_per_req", "bytes", float64(bytesN)/float64(len(reqs)))
	return meanUS(total, calls), err
}

// engineLayer runs each request's engine work directly: the lowered
// batch on a memory, or compile plus run plus output reads.
func (t *tracer) engineLayer(reqs []wireReq) (float64, error) {
	tid := t.log.lane("engine")
	m := t.memory()
	var total time.Duration
	var calls int
	_, err := t.repeat(func(first bool) error {
		for i, w := range reqs {
			t0 := time.Now()
			_, err := mirrorApply(m, w)
			lat := time.Since(t0)
			t.check(err == nil)
			total += lat
			calls++
			if first {
				t.log.add(tid, i, "engine "+w.class(), t0, lat)
			}
		}
		return nil
	})
	return meanUS(total, calls), err
}

// runBatches executes the anatomy's batches on m in order: setup
// batches directly, op batches through timed. It returns the summed
// time timed reports.
func (t *tracer) runBatches(m *memory.Memory, timed func(i int, reqs []memory.Request) time.Duration) time.Duration {
	var total time.Duration
	for i, b := range t.a.batches {
		if b.setup {
			m.ExecuteBatch(b.reqs)
			continue
		}
		total += timed(i, b.reqs)
	}
	return total
}

func (t *tracer) opBatches() int {
	n := 0
	for _, b := range t.a.batches {
		if !b.setup {
			n++
		}
	}
	return n
}

// checkResults counts a batch's items and its failed ones.
func (t *tracer) checkResults(res []memory.Result) {
	for _, r := range res {
		t.check(r.Err == nil)
	}
}

// memoryLayer measures planning and running per batch, the
// workers=1 / workers=2 batch time, allocations, row copies and the
// exact device steps per op.
func (t *tracer) memoryLayer() (float64, error) {
	nb := t.opBatches()
	// Exact counts and allocations: one pass with per-batch snapshots.
	m := t.memory()
	var dev dbcStats
	var mallocs uint64
	var copies int
	t.runBatches(m, func(_ int, reqs []memory.Request) time.Duration {
		var a, b runtime.MemStats
		s0, c0 := m.Stats(), m.Moves().RowCopies
		runtime.ReadMemStats(&a)
		t.checkResults(m.ExecuteBatch(reqs))
		runtime.ReadMemStats(&b)
		dev.add(s0, m.Stats())
		mallocs += b.Mallocs - a.Mallocs
		copies += m.Moves().RowCopies - c0
		return 0
	})
	ops := float64(t.a.ops)
	t.r.set("memory.allocs_per_batch", "count", float64(mallocs)/float64(nb))
	t.r.set("memory.row_copies_per_op", "count", float64(copies)/ops)
	if t.a.name != "serve-mixed" {
		dev.report(t.r, ops)
	}

	// Plan and run, spans per batch.
	tidPlan, tidRun := t.log.lane("memory plan"), t.log.lane("memory run")
	var plan, run time.Duration
	var passes int
	mp := t.memory()
	_, err := t.repeat(func(first bool) error {
		passes++
		t.runBatches(mp, func(i int, reqs []memory.Request) time.Duration {
			t0 := time.Now()
			bp := mp.PlanBatch(reqs)
			t1 := time.Now()
			t.checkResults(bp.Run())
			t2 := time.Now()
			plan += t1.Sub(t0)
			run += t2.Sub(t1)
			if first {
				t.log.add(tidPlan, i, "PlanBatch", t0, t1.Sub(t0))
				t.log.add(tidRun, i, "BatchPlan.Run", t1, t2.Sub(t1))
			}
			return 0
		})
		return nil
	})
	if err != nil {
		return 0, err
	}
	runUS := meanUS(run, passes*nb)
	t.r.set("memory.plan_us_per_batch", "us", meanUS(plan, passes*nb))
	t.r.set("memory.run_us_per_batch", "us", runUS)

	// Workers 1 against 2, alternating passes.
	w := [2]*memory.Memory{}
	var sum [2]time.Duration
	for i := range w {
		w[i] = t.memory()
		w[i].SetWorkers(i + 1)
	}
	passes, err = t.repeat(func(bool) error {
		for i, m := range w {
			sum[i] += t.runBatches(m, func(_ int, reqs []memory.Request) time.Duration {
				t0 := time.Now()
				res := m.ExecuteBatch(reqs)
				d := time.Since(t0)
				t.checkResults(res)
				return d
			})
		}
		return nil
	})
	w1, w2 := meanUS(sum[0], passes*nb), meanUS(sum[1], passes*nb)
	t.r.set("memory.batch_us_w1", "us", w1)
	t.r.set("memory.batch_us_w2", "us", w2)
	t.r.set("memory.parallel_speedup", "ratio", w1/w2)
	return runUS, err
}

// dbcStats accumulates exact device-primitive steps.
type dbcStats struct{ shift, tr, write, read, copy int }

func (d *dbcStats) add(before, after trace.Stats) {
	d.shift += after.ShiftSteps - before.ShiftSteps
	d.tr += after.TRSteps - before.TRSteps
	d.write += after.WriteSteps - before.WriteSteps
	d.read += after.ReadSteps - before.ReadSteps
	d.copy += after.CopySteps - before.CopySteps
}

func (d dbcStats) report(r *report, ops float64) {
	r.set("device.shift_steps_per_op", "steps", float64(d.shift)/ops)
	r.set("device.tr_steps_per_op", "steps", float64(d.tr)/ops)
	r.set("device.write_steps_per_op", "steps", float64(d.write)/ops)
	r.set("device.read_steps_per_op", "steps", float64(d.read)/ops)
	r.set("device.copy_steps_per_op", "steps", float64(d.copy)/ops)
}

// kernel is one cpim op replayed on a bare pim.Unit.
type kernel struct {
	in   isa.Instruction
	rows []dbc.Row
}

// kernels extracts every exec request of the op batches, with patterned
// nonzero operand lanes below 2^(blocksize/2), valid for every op; the
// kernels' step counts do not depend on the values.
func (t *tracer) kernels() [][]kernel {
	w := t.a.cfg.Geometry.TrackWidth
	var out [][]kernel
	for bi, b := range t.a.batches {
		if b.setup {
			continue
		}
		var ks []kernel
		for ri, r := range b.reqs {
			if r.Kind != memory.KindExec {
				continue
			}
			bs := r.In.Blocksize
			rows := make([]dbc.Row, len(r.Operands))
			for j := range rows {
				v := make([]uint64, w/bs)
				for l := range v {
					v[l] = uint64((bi*131+ri*31+j*7+l*3)%(1<<(bs/2)-1) + 1)
				}
				rows[j] = pim.MustPackLanes(v, bs, w)
			}
			ks = append(ks, kernel{r.In, rows})
		}
		out = append(out, ks)
	}
	return out
}

// dispatch runs one cpim op on the unit, as the memory layer does.
func dispatch(u *pim.Unit, in isa.Instruction, rows []dbc.Row) error {
	var err error
	bs := in.Blocksize
	switch in.Op {
	case isa.OpAdd:
		_, err = u.AddMulti(rows, bs)
	case isa.OpMult:
		_, err = u.Multiply(rows[0], rows[1], bs/2)
	case isa.OpMax:
		_, err = u.MaxTR(rows, bs)
	case isa.OpRelu:
		_, err = u.ReLU(rows[0], bs)
	case isa.OpVote:
		_, err = u.Vote(rows)
	case isa.OpDiv, isa.OpMod:
		_, _, err = u.DivMod(rows[0], rows[1], bs)
	case isa.OpShl, isa.OpShr:
		_, err = u.LogicalShift(rows[0], in.Imm, bs, in.Op == isa.OpShl)
	case isa.OpFma:
		_, err = u.FMA(rows[0], rows[1], rows[2], bs/2)
	default:
		op, ok := map[isa.OpCode]dbc.Op{isa.OpAnd: dbc.OpAND, isa.OpOr: dbc.OpOR, isa.OpNand: dbc.OpNAND,
			isa.OpNor: dbc.OpNOR, isa.OpXor: dbc.OpXOR, isa.OpXnor: dbc.OpXNOR, isa.OpNot: dbc.OpNOT}[in.Op]
		if !ok {
			return fmt.Errorf("no kernel for %v", in.Op)
		}
		_, err = u.BulkBitwise(op, rows)
	}
	return err
}

// kernelClass groups ops into the pim metrics' classes.
func kernelClass(op isa.OpCode) string {
	switch op {
	case isa.OpAdd:
		return "add"
	case isa.OpMult:
		return "mult"
	case isa.OpMax:
		return "max"
	case isa.OpAnd, isa.OpOr, isa.OpNand, isa.OpNor, isa.OpXor, isa.OpXnor, isa.OpNot:
		return "bulk"
	}
	return "other"
}

// pimLayer times the kernels on a bare unit (no recorder) and, in
// alternating passes, on a unit with a metrics recorder.
func (t *tracer) pimLayer() (float64, error) {
	ks := t.kernels()
	bare := pim.MustNewUnit(t.a.cfg)
	recd := pim.MustNewUnit(t.a.cfg)
	recd.SetTelemetry(telemetry.NewRecorder(t.a.cfg), telemetry.Source("b0.s0.t0.d15"))
	tid := t.log.lane("pim kernel")
	byClass := map[string]time.Duration{}
	count := map[string]int{}
	var bareT, recT time.Duration
	passes, err := t.repeat(func(first bool) error {
		for _, u := range []*pim.Unit{bare, recd} {
			for bi, batch := range ks {
				for _, k := range batch {
					t0 := time.Now()
					err := dispatch(u, k.in, k.rows)
					d := time.Since(t0)
					if err != nil {
						return fmt.Errorf("kernel %v: %v", k.in, err)
					}
					if u == recd {
						recT += d
						continue
					}
					bareT += d
					c := kernelClass(k.in.Op)
					byClass[c] += d
					count[c]++
					if first {
						t.log.add(tid, bi, "kernel "+k.in.Op.String(), t0, d)
					}
				}
			}
		}
		return nil
	})
	for _, c := range []string{"add", "mult", "bulk", "max"} {
		t.r.set("pim."+c+"_us", "us", meanUS(byClass[c], count[c]))
	}
	nb := len(ks)
	t.r.set("pim.kernel_us_per_batch", "us", meanUS(bareT, passes*nb))
	t.r.set("telemetry.recorder_overhead_pct", "%", 100*(float64(recT)-float64(bareT))/float64(bareT))
	return meanUS(bareT, passes*nb), err
}

// profilerOverhead compares ExecuteBatch on a memory with coruscantd's
// per-shard profiler sink against the default recorder.
func (t *tracer) profilerOverhead() error {
	def, prof := t.memory(), t.memory()
	prof.SetTelemetry(telemetry.NewRecorder(t.a.cfg, profile.New(t.a.cfg, profile.WithLabel("shard", "0"))))
	var sum [2]time.Duration
	_, err := t.repeat(func(bool) error {
		for i, m := range []*memory.Memory{def, prof} {
			sum[i] += t.runBatches(m, func(_ int, reqs []memory.Request) time.Duration {
				t0 := time.Now()
				res := m.ExecuteBatch(reqs)
				d := time.Since(t0)
				t.checkResults(res)
				return d
			})
		}
		return nil
	})
	t.r.set("telemetry.profiler_overhead_pct", "%", 100*(float64(sum[1])-float64(sum[0]))/float64(sum[0]))
	return err
}

// compileLayer times parse, compile and run per program and records
// the compiler's exact counts.
func (t *tracer) compileLayer() error {
	m := t.memory()
	tp, tc, tr := t.log.lane("pimc parse"), t.log.lane("pimc compile"), t.log.lane("plan run")
	var parse, comp, run time.Duration
	var moves, shifts, steps int
	passes, err := t.repeat(func(first bool) error {
		for i, p := range t.a.progs {
			t0 := time.Now()
			if _, err := compile.Parse(p.src, t.a.cfg.Geometry); err != nil {
				return fmt.Errorf("%s: %v", p.name, err)
			}
			t1 := time.Now()
			res, err := compile.Compile(p.src, t.a.cfg, compile.Options{Level: compileLevel})
			if err != nil {
				return fmt.Errorf("%s: %v", p.name, err)
			}
			t2 := time.Now()
			if err := seedInputs(m, p); err != nil {
				return err
			}
			t3 := time.Now()
			err = res.Plan.Run(m)
			t4 := time.Now()
			t.check(err == nil)
			parse += t1.Sub(t0)
			comp += t2.Sub(t1)
			run += t4.Sub(t3)
			if first {
				moves += res.Stats.CrossDBCMoves
				shifts += res.Stats.PortShifts
				steps += len(res.Plan.Steps)
				t.log.add(tp, i, "parse "+p.name, t0, t1.Sub(t0))
				t.log.add(tc, i, "compile "+p.name, t1, t2.Sub(t1))
				t.log.add(tr, i, "run "+p.name, t3, t4.Sub(t3))
			}
		}
		return nil
	})
	n := len(t.a.progs)
	t.r.set("compile.parse_us_per_prog", "us", meanUS(parse, passes*n))
	t.r.set("compile.compile_us_per_prog", "us", meanUS(comp, passes*n))
	t.r.set("compile.run_us_per_prog", "us", meanUS(run, passes*n))
	t.r.set("compile.cross_dbc_moves_per_prog", "count", float64(moves)/float64(n))
	t.r.set("compile.port_shifts_per_prog", "count", float64(shifts)/float64(n))
	t.r.set("compile.steps_per_prog", "count", float64(steps)/float64(n))
	return err
}

// traceRun is the traced run of one workload.
func traceRun(o options, build func(options) (*anatomy, error)) (*report, error) {
	a, err := build(o)
	if err != nil {
		return nil, err
	}
	t := &tracer{a: a, o: o, log: newSpanLog(), r: &report{},
		budget: time.Duration(o.seconds * float64(time.Second) / 12)}

	// Tracing overhead: the workload's own end-to-end loop, untraced
	// then traced, on a short phase each.
	short := o
	short.seconds, short.rateOnly = o.seconds/6, true
	plain, err := a.e2e(short, nil)
	if err != nil {
		return nil, err
	}
	traced, err := a.e2e(short, t.log)
	if err != nil {
		return nil, err
	}
	t.attempted = plain.Attempted + traced.Attempted
	t.failed = plain.Failed + traced.Failed
	up, tp := plain.Metrics["ops_per_s"].Value, traced.Metrics["ops_per_s"].Value
	t.r.set("trace.overhead_pct", "%", 100*(up-tp)/up)

	reqs := interleave(a.lanes)
	var lt layerTimes
	var steps map[string]uint64
	if lt.http, steps, err = t.httpLayer(); err != nil {
		return nil, err
	}
	var replies [][]byte
	if lt.handler, replies, err = t.handlerLayer(reqs); err != nil {
		return nil, err
	}
	if lt.codec, err = t.codecLayer(reqs, replies); err != nil {
		return nil, err
	}
	if lt.engine, err = t.engineLayer(reqs); err != nil {
		return nil, err
	}
	memRun, err := t.memoryLayer()
	if err != nil {
		return nil, err
	}
	kern, err := t.pimLayer()
	if err != nil {
		return nil, err
	}
	if err := t.profilerOverhead(); err != nil {
		return nil, err
	}
	if err := t.compileLayer(); err != nil {
		return nil, err
	}
	if a.name == "serve-mixed" {
		dev := dbcStats{shift: int(steps["shift"]), tr: int(steps["tr"]), write: int(steps["write"]),
			read: int(steps["read"]), copy: int(steps["copy"])}
		dev.report(t.r, float64(a.ops))
	}
	t.r.set("http.loopback_us_per_req", "us", lt.http-lt.handler)
	t.r.set("service.codec_us_per_req", "us", lt.codec)
	t.r.set("service.handler_us_per_req", "us", lt.handler)
	t.r.set("service.self_us_per_req", "us", lt.handler-lt.codec-lt.engine)

	// Chrome trace, checked with the repository's own validator.
	data, err := t.log.chrome()
	if err != nil {
		return nil, err
	}
	recs, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", a.name, o.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}

	fmt.Printf("waterfall %s (mean us; self = layer minus the next deeper)\n", a.name)
	fmt.Printf("  per request: http %9.1f  self(loopback) %9.1f\n", lt.http, lt.http-lt.handler)
	fmt.Printf("               handler %6.1f  self(service)  %9.1f\n", lt.handler, lt.handler-lt.codec-lt.engine)
	fmt.Printf("               codec %8.1f\n", lt.codec)
	fmt.Printf("               engine %7.1f\n", lt.engine)
	fmt.Printf("  per batch:   memory run %5.1f  self(memory) %9.1f\n", memRun, memRun-kern)
	fmt.Printf("               pim kernels %4.1f\n", kern)
	fmt.Printf("trace %s: %d records, valid\n", path, len(recs))
	t.r.Attempted, t.r.Failed, t.r.Correct = t.attempted, t.failed, t.failed == 0
	return t.r, nil
}

func traceEngine(o options) (*report, error)  { return traceRun(o, engineAnatomy) }
func traceCompile(o options) (*report, error) { return traceRun(o, compileAnatomy) }
func traceServe(o options) (*report, error)   { return traceRun(o, serveAnatomy) }
