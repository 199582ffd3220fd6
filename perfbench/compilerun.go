package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

const (
	compileGenerated = 420 // seeded programs (20 of each shape); the examples/pimasm programs join them
	compileSetups    = 21
	compileLevel     = 2
)

// program is one corpus entry: pimasm source and the rows its loads read.
type program struct {
	name   string
	src    string
	inputs []rowWrite
}

// exampleSources reads examples/pimasm in filename order.
func exampleSources(root string) ([]program, error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "pimasm", "*.pimasm"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no programs under %s", filepath.Join(root, "examples", "pimasm"))
	}
	sort.Strings(paths)
	var out []program
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, program{name: filepath.Base(p), src: string(b)})
	}
	return out, nil
}

// loadAddrs scans a program's "%r = load <addr>" statements.
func loadAddrs(src string) ([]isa.Addr, error) {
	var out []isa.Addr
	for _, line := range strings.Split(src, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[1] == "=" && f[2] == "load" {
			a, err := isa.ParseAddr(f[3])
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
	}
	return out, nil
}

// genCorpus builds the compile-run corpus: the example programs, then
// compileGenerated seeded programs, each with seeded input rows of
// full 8-bit lanes.
func genCorpus(cfg params.Config, root string, seed int64) ([]program, error) {
	progs, err := exampleSources(root)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < compileGenerated; i++ {
		progs = append(progs, program{name: fmt.Sprintf("gen%03d", i), src: genProgram(rng, cfg.Geometry, i)})
	}
	w := cfg.Geometry.TrackWidth
	for i := range progs {
		addrs, err := loadAddrs(progs[i].src)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", progs[i].name, err)
		}
		for _, a := range addrs {
			v := make([]uint64, w/8)
			for l := range v {
				v[l] = uint64(rng.Intn(256))
			}
			progs[i].inputs = append(progs[i].inputs, rowWrite{a, pim.MustPackLanes(v, 8, w)})
		}
	}
	return progs, nil
}

// genProgram draws the shape-th pimasm program. Its size (20-40 ops),
// bank count (2-3), loads (4-6) and stores (2-4) cycle with shape, so
// the corpus has the same shapes at every seed; the seed picks banks,
// rows, op order and operands. Multiplicative operands always come
// from a 4-bit value (a shr by 4, an and with one, or a small
// constant), so no lane overflows.
func genProgram(rng *rand.Rand, g params.Geometry, shape int) string {
	type reg struct {
		name   string
		narrow bool // value fits 4 bits
	}
	nops, nbanks, nloads, nstores := 20+shape%21, 2+shape%2, 4+shape%3, 2+shape/3%3
	var b strings.Builder
	var regs []reg
	banks := rng.Perm(engineBanks)[:nbanks]
	used := map[string]bool{}
	addr := func(tile int) string {
		for {
			a := fmt.Sprintf("b%d.s0.t%d.d%d.r%d", banks[rng.Intn(len(banks))], tile, rng.Intn(2), rng.Intn(g.RowsPerDBC/2))
			if !used[a] {
				used[a] = true
				return a
			}
		}
	}
	for i := 0; i < nloads; i++ {
		name := fmt.Sprintf("%%i%d", i)
		fmt.Fprintf(&b, "%s = load %s\n", name, addr(1))
		regs = append(regs, reg{name: name})
	}
	fmt.Fprintf(&b, "%%k = li %d bs=8\n", 1+rng.Intn(15))
	regs = append(regs, reg{name: "%k", narrow: true})

	// pick favours recent registers so dependence chains grow deep.
	pick := func() reg { return regs[len(regs)-1-rng.Intn(min(len(regs), 6))] }
	narrow := func() reg {
		var cands []reg
		for _, r := range regs {
			if r.narrow {
				cands = append(cands, r)
			}
		}
		return cands[rng.Intn(len(cands))]
	}
	// The op kinds come in fixed proportions (twentieths), shuffled, so
	// programs of one size cost about the same at every seed.
	kinds := make([]int, nops)
	for i := range kinds {
		kinds[i] = i * 20 / nops
	}
	rng.Shuffle(nops, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := 0; i < nops; i++ {
		dst := reg{name: fmt.Sprintf("%%v%d", i)}
		var expr string
		switch k := kinds[i]; {
		case k < 3:
			args := []string{pick().name, pick().name}
			if rng.Intn(2) == 0 {
				args = append(args, pick().name)
			}
			expr = "add " + strings.Join(args, ", ")
		case k < 4:
			expr = fmt.Sprintf("sub %s, %s", pick().name, pick().name)
		case k < 8:
			op := []string{"and", "or", "xor", "nand", "nor", "xnor"}[rng.Intn(6)]
			a, c := pick(), narrow()
			if op == "and" {
				dst.narrow = true
			} else {
				c = pick()
			}
			expr = fmt.Sprintf("%s %s, %s", op, a.name, c.name)
		case k < 9:
			expr = "not " + pick().name
		case k < 11:
			expr = fmt.Sprintf("max %s, %s", pick().name, pick().name)
		case k < 12:
			expr = "relu " + pick().name
		case k < 13:
			expr = fmt.Sprintf("vote %s, %s, %s", pick().name, pick().name, pick().name)
		case k < 14:
			expr = fmt.Sprintf("%s %s, %s", []string{"div", "mod"}[rng.Intn(2)], pick().name, pick().name)
		case k < 16:
			imm := 1 + rng.Intn(6)
			op := "shl"
			if rng.Intn(2) == 0 {
				op = "shr"
				dst.narrow = imm >= 4
			}
			expr = fmt.Sprintf("%s %s imm=%d", op, pick().name, imm)
		case k < 18:
			expr = fmt.Sprintf("mult %s, %s", narrow().name, narrow().name)
		default:
			expr = fmt.Sprintf("fma %s, %s, %s", narrow().name, narrow().name, pick().name)
		}
		fmt.Fprintf(&b, "%s = %s bs=8\n", dst.name, expr)
		regs = append(regs, dst)
	}
	stored := map[string]bool{regs[len(regs)-1].name: true}
	for len(stored) < nstores {
		stored[pick().name] = true
	}
	names := make([]string, 0, len(stored))
	for n := range stored {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "store %s, %s\n", n, addr(2))
	}
	return b.String()
}

// seedInputs writes a program's input rows.
func seedInputs(m *memory.Memory, p program) error {
	for _, w := range p.inputs {
		if err := m.WriteRow(w.addr, w.row); err != nil {
			return err
		}
	}
	return nil
}

// compileOracle runs every program compiled at -O 0 on its own memory
// and returns each program's stored rows by address.
func compileOracle(cfg params.Config, progs []program) ([]map[isa.Addr]dbc.Row, error) {
	m, err := memory.New(cfg)
	if err != nil {
		return nil, err
	}
	want := make([]map[isa.Addr]dbc.Row, len(progs))
	for i, p := range progs {
		if err := seedInputs(m, p); err != nil {
			return nil, err
		}
		res, err := compile.Compile(p.src, cfg, compile.Options{Level: 0})
		if err != nil {
			return nil, fmt.Errorf("%s at -O 0: %v", p.name, err)
		}
		if err := res.Plan.Run(m); err != nil {
			return nil, fmt.Errorf("%s at -O 0: %v", p.name, err)
		}
		want[i] = make(map[isa.Addr]dbc.Row)
		for _, o := range res.Outputs {
			row, err := m.ReadRow(o.Addr)
			if err != nil {
				return nil, err
			}
			want[i][o.Addr] = row
		}
	}
	return want, nil
}

// checkOutputs counts the program's stored rows that differ from the
// oracle's (a missing or extra output counts as wrong).
func checkOutputs(m *memory.Memory, outs []compile.Output, want map[isa.Addr]dbc.Row) int {
	if len(outs) != len(want) {
		return 1
	}
	for _, o := range outs {
		row, err := m.ReadRow(o.Addr)
		if w, ok := want[o.Addr]; err != nil || !ok || !row.Equal(w) {
			return 1
		}
	}
	return 0
}

// compileState is what compile-run's set-up produces.
type compileState struct {
	cfg   params.Config
	progs []program
	mem   *memory.Memory
}

// compileSetup is the set-up compile-run times: corpus generation from
// the seed, a fresh memory, and every program's input rows written.
func compileSetup(root string, seed int64) (*compileState, error) {
	cfg := params.DefaultConfig()
	progs, err := genCorpus(cfg, root, seed)
	if err != nil {
		return nil, err
	}
	m, err := memory.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		if err := seedInputs(m, p); err != nil {
			return nil, err
		}
	}
	return &compileState{cfg: cfg, progs: progs, mem: m}, nil
}

// compileAndRun is compile-run's timed entry point.
func compileAndRun(cfg params.Config, m *memory.Memory, src string) (*compile.Result, error) {
	res, err := compile.Compile(src, cfg, compile.Options{Level: compileLevel})
	if err != nil {
		return nil, err
	}
	return res, res.Plan.Run(m)
}

func compileE2E(o options, tr *spanLog) (*report, error) {
	setupS, st, err := medianSetup(compileSetups, func() (*compileState, error) {
		return compileSetup(o.root, o.seed)
	}, nil)
	if err != nil {
		return nil, err
	}
	want, err := compileOracle(st.cfg, st.progs)
	if err != nil {
		return nil, err
	}
	m, rec := st.mem, st.mem.Recorder()
	n := len(st.progs)
	var simC, simS uint64
	var simE float64
	var failed int64
	p := newPhase(o.seconds, tr)
	for i := 0; ; i++ {
		prog := st.progs[i%n]
		if err := seedInputs(m, prog); err != nil {
			return nil, err
		}
		c0, e0, s0 := rec.Cycle(), rec.EnergyPJ(), rec.Makespan()
		t0 := time.Now()
		res, err := compileAndRun(st.cfg, m, prog.src)
		lat := time.Since(t0)
		if i < n {
			simC += rec.Cycle() - c0
			simE += rec.EnergyPJ() - e0
			simS += rec.Makespan() - s0
		}
		if err != nil {
			fmt.Printf("failed %s: %v\n", prog.name, err)
			failed++
		} else {
			failed += int64(checkOutputs(m, res.Outputs, want[i%n]))
		}
		if !p.done(lat, 1) {
			break
		}
	}
	if len(p.lats) < n && !o.rateOnly {
		return nil, fmt.Errorf("phase ran %d programs, fewer than the %d the simulated costs cover", len(p.lats), n)
	}
	return inProcessReport(o, p, setupS, failed, func(r *report) { r.sim(n, simC, simE, simS) })
}
