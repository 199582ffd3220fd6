// Package trace provides primitive-operation accounting for the
// CORUSCANT simulator. Every device-level primitive executed by the
// functional model (shifts, port reads/writes, transverse reads,
// transverse writes) is counted in a Stats value; latency and energy are
// then pure functions of those counts plus the params constants. The
// counting itself happens in one place: each dbc.DBC owns a Stats ledger
// that its primitives and the PIM kernels running on it charge (see
// dbc.DBC.Charge); this package defines the counters and their pricing.
//
// This mirrors the paper's methodology: the architecture-level results
// are derived from per-primitive costs (NVSIM/LLG-derived in the paper,
// calibrated constants here) multiplied by the operation counts of the
// cycle-level simulator.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/params"
)

// Stats counts device primitives. Parallel fields distinguish events that
// occupy a cycle slot (serialized control steps) from events that happen
// in the same cycle across many nanowires (energy accrues per nanowire,
// latency per control step).
type Stats struct {
	// Control-step counts: each costs one device cycle.
	ShiftSteps int // DBC-wide domain-wall shift steps
	TRSteps    int // transverse-read control steps (all selected wires in parallel)
	WriteSteps int // access-port write control steps
	ReadSteps  int // access-port read control steps
	TWSteps    int // transverse-write (write + segmented shift) control steps
	CopySteps  int // laterally shifted read/write steps (Fig. 4(a) brown path)
	LogicSteps int // PIM-logic / row-buffer-only steps (predication, mux reconfig)
	StallSteps int // idle cycles (recovery backoff, controller stalls); no energy

	// Per-wire event counts: energy accrues per affected nanowire.
	ShiftWires int // nanowire·step shift events
	TRWires    int // individual transverse reads performed
	WriteBits  int // individual bits written at ports
	ReadBits   int // individual bits read at ports
	TWBits     int // individual transverse-write bit events
	CopyBits   int // individual bits moved by shifted copies
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ShiftSteps += other.ShiftSteps
	s.TRSteps += other.TRSteps
	s.WriteSteps += other.WriteSteps
	s.ReadSteps += other.ReadSteps
	s.TWSteps += other.TWSteps
	s.CopySteps += other.CopySteps
	s.LogicSteps += other.LogicSteps
	s.StallSteps += other.StallSteps
	s.ShiftWires += other.ShiftWires
	s.TRWires += other.TRWires
	s.WriteBits += other.WriteBits
	s.ReadBits += other.ReadBits
	s.TWBits += other.TWBits
	s.CopyBits += other.CopyBits
}

// Scale returns s with every count multiplied by n (n repetitions of the
// traced operation).
func (s Stats) Scale(n int) Stats {
	return Stats{
		ShiftSteps: s.ShiftSteps * n,
		TRSteps:    s.TRSteps * n,
		WriteSteps: s.WriteSteps * n,
		ReadSteps:  s.ReadSteps * n,
		TWSteps:    s.TWSteps * n,
		CopySteps:  s.CopySteps * n,
		LogicSteps: s.LogicSteps * n,
		StallSteps: s.StallSteps * n,
		ShiftWires: s.ShiftWires * n,
		TRWires:    s.TRWires * n,
		WriteBits:  s.WriteBits * n,
		ReadBits:   s.ReadBits * n,
		TWBits:     s.TWBits * n,
		CopyBits:   s.CopyBits * n,
	}
}

// Cycles returns the device-cycle latency of the traced operation
// sequence: one cycle per control step.
func (s Stats) Cycles() int {
	return s.ShiftSteps + s.TRSteps + s.WriteSteps + s.ReadSteps + s.TWSteps + s.CopySteps + s.LogicSteps + s.StallSteps
}

// EnergyPJ returns the energy in picojoules of the traced sequence under
// the given energy table and TR window length.
func (s Stats) EnergyPJ(e params.Energy, trd params.TRD) float64 {
	return float64(s.ShiftWires)*e.ShiftPJ +
		float64(s.TRWires)*e.TRPJ(trd) +
		float64(s.WriteBits)*e.WritePJ +
		float64(s.ReadBits)*e.ReadPJ +
		float64(s.TWBits)*e.TWPJ +
		float64(s.CopyBits)*(e.ReadPJ+e.WritePJ)
}

// String renders the counters compactly for logs and test output.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d", s.Cycles())
	fmt.Fprintf(&b, " shifts=%d trs=%d writes=%d reads=%d tws=%d copies=%d logic=%d stalls=%d",
		s.ShiftSteps, s.TRSteps, s.WriteSteps, s.ReadSteps, s.TWSteps, s.CopySteps, s.LogicSteps, s.StallSteps)
	fmt.Fprintf(&b, " (wire events: shift=%d tr=%d w=%d r=%d tw=%d)",
		s.ShiftWires, s.TRWires, s.WriteBits, s.ReadBits, s.TWBits)
	return b.String()
}

// Cost is a latency/energy pair used by analytic models (baselines and
// system-level experiments) where no functional trace exists.
type Cost struct {
	Cycles   int
	EnergyPJ float64
}

// Add returns the sum of two costs.
func (c Cost) Add(other Cost) Cost {
	return Cost{Cycles: c.Cycles + other.Cycles, EnergyPJ: c.EnergyPJ + other.EnergyPJ}
}

// Scale returns the cost of n repetitions.
func (c Cost) Scale(n int) Cost {
	return Cost{Cycles: c.Cycles * n, EnergyPJ: c.EnergyPJ * float64(n)}
}

// OfStats converts a functional trace into a Cost.
func OfStats(s Stats, e params.Energy, trd params.TRD) Cost {
	return Cost{Cycles: s.Cycles(), EnergyPJ: s.EnergyPJ(e, trd)}
}
