package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
)

// BulkBitwise computes a k-operand bulk-bitwise operation in a single
// transverse read (§III-B, Fig. 5). Up to TRD operand rows are combined;
// unused window slots carry the Fig. 7 padding constant so smaller
// cardinalities remain correct. The result is written back through the
// left port (one write step), as the paper stores it over an operand or
// in a separate DBC, and is also returned.
//
// The whole operation is word-parallel: the transverse read yields
// bit-sliced level planes and the polymorphic gate is evaluated 64 wires
// per word operation (dbc.EvalPlanes).
func (u *Unit) BulkBitwise(op dbc.Op, operands []dbc.Row) (dbc.Row, error) {
	// The span name is only materialized when telemetry is attached:
	// the string concat would otherwise allocate on the disabled path.
	if rec := u.D.Recorder(); rec != nil {
		defer rec.Span(u.D.Source(), "bulk-"+op.String())()
	}
	k := len(operands)
	if k == 0 {
		return dbc.Row{}, fmt.Errorf("pim: bulk %v with no operands", op)
	}
	if k > u.cfg.TRD.MaxBulkOperands() {
		return dbc.Row{}, fmt.Errorf("pim: bulk %v with %d operands exceeds TRD %d: %w", op, k, int(u.cfg.TRD), params.ErrBadTRD)
	}
	if op == dbc.OpNOT && k != 1 {
		return dbc.Row{}, fmt.Errorf("pim: NOT takes exactly one operand, got %d", k)
	}
	for _, r := range operands {
		if r.N != u.D.Width() {
			return dbc.Row{}, fmt.Errorf("pim: operand width %d, want %d", r.N, u.D.Width())
		}
	}
	if err := u.placeWindow(operands, op.PadBit(), true); err != nil {
		return dbc.Row{}, err
	}
	out := dbc.EvalPlanes(op, u.trAll(), u.cfg.TRD)
	u.D.WritePort(dbcLeft, out)
	return out, nil
}
