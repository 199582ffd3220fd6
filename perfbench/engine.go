package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// engine-batch shape: each batch holds one request per PIM DBC of
// 8 banks x 4 subarrays, so every request is its own footprint group
// and group parallelism is maximal.
const (
	engineBanks   = 8
	engineSubs    = 4
	engineBatch   = engineBanks * engineSubs
	enginePool    = 64 // distinct seeded batches, cycled by the timed loop
	engineRows    = 7  // operand rows per data DBC: rows 0-1 hold 4-bit lanes (mult), 2-6 8-bit
	engineBS      = 8
	engineSetups  = 51
	engineDstBase = 8 // result rows 8..23 of the data DBC
	engineDstRows = 16
)

// rowWrite is one row a workload seeds before it runs.
type rowWrite struct {
	addr isa.Addr
	row  dbc.Row
}

// engineSet is the seeded engine-batch input: operand rows, the batch
// pool, and each request's expected result from scalar lane math.
type engineSet struct {
	cfg     params.Config
	rows    []rowWrite
	batches [][]memory.Request
	want    [][]dbc.Row
}

func enginePIM(g params.Geometry, bank, sub int) isa.Addr {
	return isa.Addr{Bank: bank, Subarray: sub, Tile: 0, DBC: g.DBCsPerTile - g.PIMDBCsPerTile}
}

func engineData(bank, sub, row int) isa.Addr {
	return isa.Addr{Bank: bank, Subarray: sub, Tile: 1, DBC: 0, Row: row}
}

// laneFn folds the operand lane values of one request.
type laneFn func(vals []uint64) uint64

// engineOps is the batch mix; weight is the op's count in every batch
// (the weights sum to engineBatch), so the mix is the same at every
// seed and only operands, operand counts and order vary.
var engineOps = []struct {
	op     isa.OpCode
	weight int
	fold   laneFn
}{
	{isa.OpAdd, 10, func(v []uint64) uint64 {
		var s uint64
		for _, x := range v {
			s += x
		}
		return s & 0xff
	}},
	{isa.OpMult, 6, func(v []uint64) uint64 { return v[0] * v[1] }},
	{isa.OpAnd, 5, func(v []uint64) uint64 {
		s := v[0]
		for _, x := range v[1:] {
			s &= x
		}
		return s
	}},
	{isa.OpXor, 5, func(v []uint64) uint64 {
		var s uint64
		for _, x := range v {
			s ^= x
		}
		return s
	}},
	{isa.OpMax, 6, func(v []uint64) uint64 {
		var s uint64
		for _, x := range v {
			s = max(s, x)
		}
		return s
	}},
}

// genEngine draws the operand rows and the batch pool from seed.
func genEngine(cfg params.Config, seed int64) *engineSet {
	g := cfg.Geometry
	rng := rand.New(rand.NewSource(seed))
	lanes := g.TrackWidth / engineBS
	set := &engineSet{cfg: cfg}
	vals := make(map[isa.Addr][]uint64) // operand row -> lane values
	for i := 0; i < engineBatch; i++ {
		bank, sub := i%engineBanks, i/engineBanks
		for r := 0; r < engineRows; r++ {
			mask := uint64(0xff)
			if r < 2 {
				mask = 0x0f
			}
			v := make([]uint64, lanes)
			for l := range v {
				v[l] = rng.Uint64() & mask
			}
			a := engineData(bank, sub, r)
			vals[a] = v
			set.rows = append(set.rows, rowWrite{a, pim.MustPackLanes(v, engineBS, g.TrackWidth)})
		}
	}
	var mix []int // engineOps index per batch slot
	for k, o := range engineOps {
		for j := 0; j < o.weight; j++ {
			mix = append(mix, k)
		}
	}
	for b := 0; b < enginePool; b++ {
		reqs := make([]memory.Request, engineBatch)
		want := make([]dbc.Row, engineBatch)
		rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
		for i := range reqs {
			bank, sub := i%engineBanks, i/engineBanks
			o := engineOps[mix[i]]
			var rows []int
			switch o.op {
			case isa.OpMult:
				rows = []int{0, 1}
			case isa.OpAdd:
				rows = rng.Perm(engineRows)[:3+rng.Intn(3)]
			case isa.OpMax:
				rows = rng.Perm(engineRows)[:2+rng.Intn(4)]
			default:
				rows = rng.Perm(engineRows)[:2+rng.Intn(6)]
			}
			ops := make([]isa.Addr, len(rows))
			for j, r := range rows {
				ops[j] = engineData(bank, sub, r)
			}
			reqs[i] = memory.Request{
				In: isa.Instruction{Op: o.op, Src: enginePIM(g, bank, sub),
					Blocksize: engineBS, Operands: len(ops)},
				Operands: ops,
				Dst:      engineData(bank, sub, engineDstBase+b%engineDstRows),
			}
			out := make([]uint64, lanes)
			in := make([]uint64, len(ops))
			for l := range out {
				for j, a := range ops {
					in[j] = vals[a][l]
				}
				out[l] = o.fold(in)
			}
			want[i] = pim.MustPackLanes(out, engineBS, g.TrackWidth)
		}
		set.batches = append(set.batches, reqs)
		set.want = append(set.want, want)
	}
	return set
}

// checkEngine counts the batch items whose result differs from the
// scalar oracle or failed.
func checkEngine(res []memory.Result, want []dbc.Row) int {
	bad := 0
	for i, r := range res {
		if r.Err != nil || !r.Row.Equal(want[i]) {
			bad++
		}
	}
	return bad
}

// engineSetup is the set-up engine-batch times: a fresh memory, every
// operand row written, one untimed batch. It returns the memory and the
// number of wrong items of that batch.
func engineSetup(set *engineSet) (*memory.Memory, int, error) {
	m, err := memory.New(set.cfg)
	if err != nil {
		return nil, 0, err
	}
	for _, w := range set.rows {
		if err := m.WriteRow(w.addr, w.row); err != nil {
			return nil, 0, err
		}
	}
	return m, checkEngine(m.ExecuteBatch(set.batches[0]), set.want[0]), nil
}

func engineE2E(o options, tr *spanLog) (*report, error) {
	set := genEngine(params.DefaultConfig(), o.seed)
	var setupBad int
	setupS, m, err := medianSetup(engineSetups, func() (*memory.Memory, error) {
		m, bad, err := engineSetup(set)
		setupBad = bad
		return m, err
	}, nil)
	if err != nil {
		return nil, err
	}
	if setupBad > 0 {
		return nil, fmt.Errorf("%w: %d items of the set-up batch", errFailed, setupBad)
	}
	rec := m.Recorder()
	c0, e0, s0 := rec.Cycle(), rec.EnergyPJ(), rec.Makespan()
	var simC, simS uint64
	var simE float64
	var failed int64
	p := newPhase(o.seconds, tr)
	for i := 0; ; i++ {
		b := i % enginePool
		t0 := time.Now()
		res := m.ExecuteBatch(set.batches[b])
		lat := time.Since(t0)
		failed += int64(checkEngine(res, set.want[b]))
		if i == enginePool-1 {
			simC, simE, simS = rec.Cycle()-c0, rec.EnergyPJ()-e0, rec.Makespan()-s0
		}
		if !p.done(lat, len(res)) {
			break
		}
	}
	if len(p.lats) < enginePool && !o.rateOnly {
		return nil, fmt.Errorf("phase ran %d batches, fewer than the %d the simulated costs cover", len(p.lats), enginePool)
	}
	return inProcessReport(o, p, setupS, failed, func(r *report) {
		r.sim(enginePool*engineBatch, simC, simE, simS)
	})
}

// inProcessReport reduces a finished in-process phase to the result line.
func inProcessReport(o options, p *phase, setupS float64, failed int64, sim func(*report)) (*report, error) {
	var p50, p95 float64
	var err error
	if !o.rateOnly {
		if p50, p95, err = percentiles(p.lats); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	r := &report{Attempted: p.cur.ops, Failed: failed, Correct: failed == 0}
	r.e2e(setupS, totals(p.first, p.last, false), p50, p95, rss)
	sim(r)
	fmt.Printf("samples %d calls, %d ops\n", len(p.lats), p.cur.ops)
	return r, nil
}
