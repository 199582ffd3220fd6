package memory

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/pim"
	"repro/internal/resilient"
)

// ledgerCase is one cpim opcode with an operand shape Validate accepts.
type ledgerCase struct {
	name string
	op   isa.OpCode
	bs   int // blocksize (the product width for mult and fma)
	k    int // operand count
	imm  int
}

var ledgerCases = []ledgerCase{
	{"add", isa.OpAdd, 8, 3, 0},
	{"bulk", isa.OpXor, 8, 3, 0},
	{"mult", isa.OpMult, 16, 2, 0},
	{"max", isa.OpMax, 8, 3, 0},
	{"relu", isa.OpRelu, 8, 1, 0},
	{"shl", isa.OpShl, 8, 1, 3},
	{"shr", isa.OpShr, 8, 1, 2},
	{"div", isa.OpDiv, 8, 2, 0},
	{"mod", isa.OpMod, 8, 2, 0},
	{"fma", isa.OpFma, 16, 3, 0},
	{"vote", isa.OpVote, 8, 3, 0},
}

// ledgerRequest writes c's operands into an ordinary DBC of subarray sub
// and returns the request executing c on that subarray's PIM DBC, so
// requests on distinct subarrays have disjoint footprints.
func ledgerRequest(t *testing.T, m *Memory, c ledgerCase, sub int) Request {
	t.Helper()
	g := m.Config().Geometry
	width := g.TrackWidth
	laneW := c.bs
	if c.op == isa.OpMult || c.op == isa.OpFma {
		laneW = c.bs / 2 // multiplicand lanes: keep every product exact
	}
	operands := make([]isa.Addr, c.k)
	for i := range operands {
		operands[i] = isa.Addr{Subarray: sub, Tile: 1, Row: i}
		vals := make([]uint64, width/c.bs)
		for l := range vals {
			vals[l] = uint64(sub*29+i*11+l*5+3) % (1 << uint(laneW))
		}
		if err := m.WriteRow(operands[i], pim.MustPackLanes(vals, c.bs, width)); err != nil {
			t.Fatal(err)
		}
	}
	return Request{
		In: isa.Instruction{Op: c.op, Src: isa.Addr{Subarray: sub, Tile: 0, DBC: g.DBCsPerTile - 1},
			Blocksize: c.bs, Operands: c.k, Imm: c.imm},
		Operands: operands,
		Dst:      isa.Addr{Subarray: sub, Tile: 2},
	}
}

// checkLedger asserts the memory's summed DBC ledgers equal its
// recorder's cycle clock: both must be fed by the same device steps.
func checkLedger(t *testing.T, m *Memory, how string) {
	t.Helper()
	if got, want := m.Stats().Cycles(), m.Recorder().Cycle(); uint64(got) != want {
		t.Errorf("%s: Stats().Cycles() = %d, recorder clock = %d", how, got, want)
	}
}

// TestStatsMatchRecorderEveryOpcode pins the single cost account on a
// Memory: for every cpim opcode, Stats() — which sums the per-DBC
// ledgers — equals the recorder's cycle clock after Execute and after a
// two-group ExecuteBatch at one and at two workers. Kernel-priced steps
// (the partial products of mult and fma, the row-buffer steps of relu,
// the shift and division chains) count on both sides or on neither.
func TestStatsMatchRecorderEveryOpcode(t *testing.T) {
	for _, c := range ledgerCases {
		t.Run(c.name, func(t *testing.T) {
			m := testMemory(t)
			r := ledgerRequest(t, m, c, 0)
			if _, err := m.Execute(r.In, r.Operands, r.Dst); err != nil {
				t.Fatal(err)
			}
			checkLedger(t, m, "Execute")

			for _, workers := range []int{1, 2} {
				m := testMemory(t)
				m.SetWorkers(workers)
				reqs := []Request{ledgerRequest(t, m, c, 0), ledgerRequest(t, m, c, 1)}
				for i, res := range m.ExecuteBatch(reqs) {
					if res.Err != nil {
						t.Fatalf("workers=%d request %d: %v", workers, i, res.Err)
					}
				}
				checkLedger(t, m, fmt.Sprintf("ExecuteBatch workers=%d", workers))
			}
		})
	}
}

// TestStatsSurviveQuarantineRemap drives a PIM DBC into quarantine and
// checks Stats() never drops: the remap replaces the physical cluster,
// and with it the DBC whose ledger held the shard's history, so that
// history must be carried over. The recorder clock still agrees after
// the remap, recovery stalls included.
func TestStatsSurviveQuarantineRemap(t *testing.T) {
	pol := resilient.DefaultPolicy()
	pol.QuarantineAfter = 5
	m := faultyMemory(t, FaultProfile{TRProb: 0.05, Seed: 5}, pol)
	prev := 0
	for i := 0; i < 400 && m.Health().SparesUsed() == 0; i++ {
		execAdd(t, m, 0, [2]uint64{uint64(i % 32), uint64(i % 17)})
		got := m.Stats().Cycles()
		if got < prev {
			t.Fatalf("execution %d: Stats().Cycles() dropped from %d to %d", i, prev, got)
		}
		prev = got
	}
	if m.Health().SparesUsed() == 0 {
		t.Fatal("no quarantine after sustained faults")
	}
	execAdd(t, m, 0, [2]uint64{9, 4})
	if got := m.Stats().Cycles(); got < prev {
		t.Fatalf("after remap: Stats().Cycles() dropped from %d to %d", prev, got)
	}
	checkLedger(t, m, "after remap")
}
