package dbt

import (
	"fmt"

	"ghostbusters/internal/ir"
)

// RegionIR re-translates the region installed at pc the way
// translateWith did (trace or basic block, same limits) and returns its
// unmitigated IR and guest instruction count.
func (m *Machine) RegionIR(pc uint64) (*ir.Block, int, error) {
	e := m.trans[pc]
	if e == nil || e.rg == nil {
		return nil, 0, fmt.Errorf("dbt: no region installed at %#x", pc)
	}
	lim := translateLimits{MaxInsts: m.cfg.MaxTraceInsts, MaxUnroll: m.cfg.MaxUnroll}
	var orc branchOracle
	if e.rg.isTrace {
		orc = m.oracle
	} else {
		lim.MaxInsts = 48
	}
	return translate(m.b, pc, orc, lim)
}

// CompileRegion runs the back end over RegionIR(pc) under the machine's
// mitigation mode, with the audit on.
func (m *Machine) CompileRegion(pc uint64) (*CompileResult, error) {
	b, guestInsts, err := m.RegionIR(pc)
	if err != nil {
		return nil, err
	}
	opts := compileOpts{DisableMemSpec: m.trans[pc].rg.noMemSpec, Audit: true}
	return compileWith(b, guestInsts, &m.cfg.Core, m.cfg.Mitigation, opts)
}
