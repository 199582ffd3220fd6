package memory

import (
	"runtime"
	"sync"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// RequestKind selects what a batch Request does. The zero value is
// KindExec, so pre-existing Request literals keep their meaning.
type RequestKind uint8

const (
	// KindExec runs a cpim instruction — the arguments of an Execute call.
	KindExec RequestKind = iota
	// KindCopy moves Src to Dst over the row buffer (CopyRow).
	KindCopy
	// KindWrite stores Row at Dst through the nearest port (WriteRow).
	KindWrite
	// KindRead loads the row at Src (ReadRow); the row comes back in the
	// request's Result. Reads participate in footprint grouping like
	// every other kind, so a read of a row another request of the batch
	// writes observes the program-order value.
	KindRead
)

// Request is one batch operation for ExecuteBatch. Kind selects the
// shape: KindExec uses In/Operands/Dst, KindCopy uses Src/Dst,
// KindWrite uses Row/Dst, and KindRead uses Src. Copies and writes
// participate in the same
// footprint grouping as executions, which is what lets a compiled plan
// hand its staging traffic and compute to one batch and still preserve
// every data dependence (any two requests that touch a common row share
// a DBC, so they land in the same group, in program order).
type Request struct {
	Kind     RequestKind
	In       isa.Instruction
	Operands []isa.Addr
	Dst      isa.Addr
	Src      isa.Addr // KindCopy: source row
	Row      dbc.Row  // KindWrite: payload
}

// Result is the outcome of one batch request. For KindCopy and
// KindWrite, Row is the moved/stored row; for KindRead, the loaded row.
type Result struct {
	Row dbc.Row
	Err error
}

// batchGroup is a connected component of requests whose DBC footprints
// overlap: its requests must run in program order relative to each
// other, while distinct groups touch disjoint shards and run
// concurrently.
type batchGroup struct {
	reqs  []int      // request indices, ascending (program order)
	bases []isa.Addr // union of the requests' lock sets, sorted
}

// batchScratch holds every planning-time buffer of a batch: the plans,
// the grouping union-find, and the groups themselves. ExecuteBatch
// draws one from a pool and returns it, so steady-state batches plan
// without allocating; PlanBatch owns one per plan for memoized reuse.
type batchScratch struct {
	plans    []execPlan
	runnable []bool
	errs     []error // planning error per request (nil when runnable)
	groups   []batchGroup

	reqParent []int      // union-find over request indices
	baseAddr  []isa.Addr // distinct DBC bases seen so far
	baseReq   []int      // first request that claimed baseAddr[i]
	groupIdx  []int      // union-find root -> index into groups

	shards []*shard // serial fast path: per-group lock buffer
}

var scratchPool = sync.Pool{New: func() interface{} { return new(batchScratch) }}

// reset sizes the per-request buffers for n requests, reusing capacity.
func (s *batchScratch) reset(n int) {
	if cap(s.plans) < n {
		s.plans = make([]execPlan, n)
		s.runnable = make([]bool, n)
		s.errs = make([]error, n)
		s.reqParent = make([]int, n)
		s.groupIdx = make([]int, n)
	}
	s.plans = s.plans[:n]
	s.runnable = s.runnable[:n]
	s.errs = s.errs[:n]
	s.reqParent = s.reqParent[:n]
	s.groupIdx = s.groupIdx[:n]
	for i := 0; i < n; i++ {
		// Keep each plan's bases backing array: planBatch hands it back
		// to planRequest, so steady-state planning reuses it.
		s.plans[i] = execPlan{bases: s.plans[i].bases[:0]}
		s.runnable[i] = false
		s.errs[i] = nil
		s.reqParent[i] = i
		s.groupIdx[i] = -1
	}
	s.baseAddr = s.baseAddr[:0]
	s.baseReq = s.baseReq[:0]
	s.groups = s.groups[:0]
}

// ufRoot finds i's union-find root with path halving.
func ufRoot(parent []int, i int) int {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// planBatch validates every request and partitions the runnable ones
// into connected components by DBC footprint. Groups come out ordered
// by their first request index (the union root is always the lowest
// index of its component), and each group's request list preserves
// program order. All state lands in s.
func (m *Memory) planBatch(reqs []Request, s *batchScratch) {
	s.reset(len(reqs))
	for i, r := range reqs {
		p, err := m.planRequest(r, s.plans[i].bases)
		if err != nil {
			s.errs[i] = err
			continue
		}
		s.plans[i], s.runnable[i] = p, true
	}

	// Union-find over lock-set overlap. Distinct bases are tracked in a
	// flat slice with linear lookup: lock sets are tiny (≤ operands+2),
	// and the scan beats a map both in allocs and in constant factor at
	// batch sizes the compiler emits.
	for i := range s.plans {
		if !s.runnable[i] {
			continue
		}
		for _, b := range s.plans[i].bases {
			j := -1
			for k := range s.baseAddr {
				if s.baseAddr[k] == b {
					j = k
					break
				}
			}
			if j < 0 {
				s.baseAddr = append(s.baseAddr, b)
				s.baseReq = append(s.baseReq, i)
				continue
			}
			ra, rb := ufRoot(s.reqParent, i), ufRoot(s.reqParent, s.baseReq[j])
			if ra != rb {
				if ra > rb {
					ra, rb = rb, ra
				}
				s.reqParent[rb] = ra // lowest request index becomes the root
			}
		}
	}

	for i := range s.plans {
		if !s.runnable[i] {
			continue
		}
		r := ufRoot(s.reqParent, i)
		gi := s.groupIdx[r]
		if gi < 0 {
			gi = len(s.groups)
			s.groupIdx[r] = gi
			if len(s.groups) < cap(s.groups) {
				// Re-extend into pooled capacity, reusing the retired
				// group's inner slices.
				s.groups = s.groups[:gi+1]
				s.groups[gi].reqs = s.groups[gi].reqs[:0]
				s.groups[gi].bases = s.groups[gi].bases[:0]
			} else {
				s.groups = append(s.groups, batchGroup{})
			}
		}
		g := &s.groups[gi]
		g.reqs = append(g.reqs, i)
		g.bases = append(g.bases, s.plans[i].bases...)
	}
	for gi := range s.groups {
		s.groups[gi].bases = m.sortBases(s.groups[gi].bases)
	}
}

// ExecuteBatch runs a batch of requests, exploiting DBC-level
// parallelism: requests are grouped by the DBCs they touch (requests
// with overlapping footprints form one group and keep their program
// order; disjoint groups run concurrently on a worker pool of
// SetWorkers goroutines, default GOMAXPROCS). Results are positional.
//
// Every request is validated upfront exactly as the serial primitives
// validate — invalid requests (including ErrCrossDBC) fail in their
// Result without blocking the rest of the batch, and a request that
// fails at runtime does not stop later requests of its group.
//
// Determinism: the memory state after ExecuteBatch is bit-identical to
// running the requests serially in order — only requests with disjoint
// footprints are reordered, and those commute. Telemetry is merged
// deterministically: each group records into a private capture
// recorder, and after the barrier the captured streams are replayed
// into the memory's recorder in first-request order, so cycle totals,
// energy and metrics equal the serial run's exactly. With workers == 1
// the capture detour is skipped entirely — groups run in first-request
// order directly on the memory's recorder, which is the same order the
// merge would have produced, so the event stream is identical and the
// serial configuration pays no parallel-infrastructure tax.
//
// Both paths bracket the batch in window markers (Recorder.WindowBegin
// / WindowLane / WindowEnd), one lane per group, so Recorder.Makespan
// reports the critical path — the longest group — as the batch's cost,
// while the cycle clock keeps the serial sum.
//
// With a global fault injector attached (SetFaultInjector) the batch
// runs serially in program order with no window markers — that
// injector's random stream is order-dependent, and the schedule really
// is serial — while a per-DBC fault profile (SetFaultProfile) keeps
// full parallelism. Recovery (SetRecovery) runs inside the groups;
// quarantines triggered by the batch are processed after the barrier.
func (m *Memory) ExecuteBatch(reqs []Request) []Result {
	results := make([]Result, len(reqs))
	s := scratchPool.Get().(*batchScratch)
	m.planBatch(reqs, s)
	m.runBatch(s, results)
	scratchPool.Put(s)
	return results
}

// BatchPlan is a validated, grouped batch, ready to run repeatedly
// against the memory that planned it. Planning depends only on the
// immutable geometry — quarantine is re-checked at lock time — so a
// plan never goes stale. A BatchPlan is not safe for concurrent Run
// calls on itself (distinct plans may run concurrently).
type BatchPlan struct {
	mem *Memory
	n   int
	s   batchScratch
}

// PlanBatch validates and groups the requests once; Run executes the
// plan. Compiled kernels that replay a fixed batch shape (isa/compile
// StepBatch) use this to hoist planning out of the execution loop.
// The request slices (Operands, Row payloads) are retained by value.
func (m *Memory) PlanBatch(reqs []Request) *BatchPlan {
	bp := &BatchPlan{mem: m, n: len(reqs)}
	m.planBatch(reqs, &bp.s)
	return bp
}

// Run executes the planned batch, exactly like ExecuteBatch on the
// original requests. Results are freshly allocated and positional.
func (bp *BatchPlan) Run() []Result {
	results := make([]Result, bp.n)
	bp.mem.runBatch(&bp.s, results)
	return results
}

// runBatch executes a planned batch. Planning errors land in results
// first; the runnable groups then run on one of three paths: serial
// program order (global fault injector), serial group order (one
// worker or one group — the fast path), or the parallel capture/merge
// pool.
func (m *Memory) runBatch(s *batchScratch, results []Result) {
	for i, err := range s.errs {
		if err != nil {
			results[i].Err = err
		}
	}

	m.cfgMu.Lock()
	workers, inj := m.workers, m.inj
	m.cfgMu.Unlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if inj != nil {
		// Serialize in program order: the global injector's random stream
		// is order-dependent, and since nothing overlaps in time the
		// schedule has no lanes — makespan degenerates to the cycle sum.
		for i := range s.plans {
			if !s.runnable[i] {
				continue
			}
			shards, err := m.lockInto(s.shards[:0], s.plans[i].bases)
			s.shards = shards[:0]
			if err != nil {
				results[i].Err = err
				continue
			}
			results[i].Row, results[i].Err = m.runRequest(s.plans[i], shards)
			unlockShards(shards)
		}
		m.processQuarantines()
		return
	}

	groups := s.groups
	if workers == 1 || len(groups) == 1 {
		// Serial fast path: groups in first-request order directly on the
		// memory's recorder — the exact order the parallel merge produces,
		// with no capture detour. One window, one lane per group.
		rec := m.Recorder()
		rec.WindowBegin()
		for gi := range groups {
			g := &groups[gi]
			rec.WindowLane()
			shards, err := m.lockInto(s.shards[:0], g.bases)
			s.shards = shards[:0]
			if err != nil {
				for _, ri := range g.reqs {
					results[ri].Err = err
				}
				continue
			}
			for _, ri := range g.reqs {
				results[ri].Row, results[ri].Err = m.runRequest(s.plans[ri], shards)
			}
			unlockShards(shards)
		}
		rec.WindowEnd()
		m.processQuarantines()
		return
	}

	rec := m.Recorder()
	rec.WindowBegin()
	captures := make([]*telemetry.CaptureSink, len(groups))
	var wg sync.WaitGroup
	next := make(chan int)
	worker := func() {
		defer wg.Done()
		for gi := range next {
			captures[gi] = m.runGroup(groups[gi], s.plans, results)
		}
	}
	n := workers
	if n > len(groups) {
		n = len(groups)
	}
	wg.Add(n)
	for i := 0; i < n; i++ {
		go worker()
	}
	for gi := range groups {
		next <- gi
	}
	close(next)
	wg.Wait()

	// Merge: replay each group's capture into the main recorder in
	// first-request order (groups are already ordered by construction),
	// re-stamping cycles and re-pricing energy so totals match a serial
	// run exactly. Each capture opens with its lane marker, so the
	// merged stream is byte-for-byte the serial fast path's. Drained
	// sinks go back to the pool.
	for _, c := range captures {
		if c != nil {
			c.ReplayAll(rec)
			c.Reset()
			capturePool.Put(c)
		}
	}
	rec.WindowEnd()
	m.processQuarantines()
}

// capturePool recycles the per-group capture buffers across batches;
// the event slices inside are the batch path's dominant allocation.
var capturePool = sync.Pool{New: func() interface{} { return telemetry.NewCaptureSink() }}

// runGroup executes one group's requests in program order with the
// group's shards locked throughout and their telemetry diverted into a
// fresh capture recorder. The capture's first event is the group's
// lane marker, so ordered replay rebuilds the window structure on the
// main recorder. Returns the capture for ordered merging.
func (m *Memory) runGroup(g batchGroup, plans []execPlan, results []Result) *telemetry.CaptureSink {
	capture := capturePool.Get().(*telemetry.CaptureSink)
	groupRec := telemetry.NewCaptureRecorder(m.cfg, capture)
	groupRec.WindowLane()
	// Take the cfg-class mutex (inside Recorder) before the shard locks:
	// cfg-class mutexes order strictly before shard mutexes.
	restore := m.Recorder()
	shards, unlock, err := m.lockOrdered(g.bases)
	if err != nil {
		for _, ri := range g.reqs {
			results[ri].Err = err
		}
		// Return the capture anyway: it already holds the lane marker,
		// and replaying it keeps the merged stream identical to the
		// serial fast path, which emits the lane before failing the lock.
		return capture
	}
	defer unlock()
	for _, sh := range shards {
		sh.setRecorder(groupRec)
	}
	defer func() {
		for _, sh := range shards {
			sh.setRecorder(restore)
		}
	}()
	for _, ri := range g.reqs {
		results[ri].Row, results[ri].Err = m.runRequest(plans[ri], shards)
	}
	return capture
}
