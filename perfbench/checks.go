package main

import (
	"mbbp"
	"mbbp/internal/cpu"
	"mbbp/internal/trace"
)

// The checks compare outputs with computations made apart from the layer
// under test (an independent trace walk, a direct mbbp.Run) or with
// properties of the method; none compares with stored output.

// traceCounts are what an independent walk of a trace gives.
type traceCounts struct{ records, branches, cond uint64 }

func countsOf(src trace.Source) traceCounts {
	st := trace.Collect(src)
	return traceCounts{st.Instructions, st.ControlTransfers(), st.CondBranches()}
}

// penaltyCycles sums the Table 3 charges of r.
func penaltyCycles(r mbbp.Result) uint64 {
	var p uint64
	for _, c := range r.PenaltyCycles {
		p += c
	}
	return p
}

// checkResult checks one simulation result against the counts of its
// trace and recomputes IPC_f and BEP from its counters by the paper's
// definitions; ipcf and bep are the figures reported with the counters.
func checkResult(c *checker, where string, r mbbp.Result, want traceCounts, ipcf, bep float64) {
	c.check(r.Instructions == want.records, "%s: Instructions %d, trace has %d records", where, r.Instructions, want.records)
	c.check(r.Branches == want.branches, "%s: Branches %d, trace walk counts %d", where, r.Branches, want.branches)
	c.check(r.CondBranches == want.cond, "%s: CondBranches %d, trace walk counts %d", where, r.CondBranches, want.cond)
	c.check(r.CondMispredicts <= r.CondBranches, "%s: CondMispredicts %d > CondBranches %d", where, r.CondMispredicts, r.CondBranches)
	c.check(r.FetchCycles <= r.Blocks && r.Blocks <= r.Instructions,
		"%s: want FetchCycles %d <= Blocks %d <= Instructions %d", where, r.FetchCycles, r.Blocks, r.Instructions)
	pen := penaltyCycles(r)
	var wantIPC, wantBEP float64
	if cycles := r.FetchCycles + pen + r.ICacheMissCycles; cycles > 0 {
		wantIPC = float64(r.Instructions) / float64(cycles)
	}
	if r.Branches > 0 {
		wantBEP = float64(pen) / float64(r.Branches)
	}
	c.check(ipcf == wantIPC, "%s: IPC_f %v, counters give %v", where, ipcf, wantIPC)
	c.check(bep == wantBEP, "%s: BEP %v, counters give %v", where, bep, wantBEP)
}

// prefix is the first n records of a trace. A workload's trace of length
// n is the first n records of any longer trace of the same program, so
// one long capture stands in for every shorter one.
type prefix struct {
	src  trace.Source
	n, i uint64
}

func (p *prefix) Next() (cpu.Retired, bool) {
	if p.i >= p.n {
		return cpu.Retired{}, false
	}
	p.i++
	return p.src.Next()
}

func (p *prefix) Reset() { p.src.Reset(); p.i = 0 }

func (p *prefix) Len() uint64 { return p.n }

// sameTrace reports whether two traces hold the same records.
func sameTrace(a, b *trace.Buffer) bool {
	if a.Len() != b.Len() {
		return false
	}
	ac, bc := a.Clone(), b.Clone()
	for {
		ra, oka := ac.Next()
		rb, okb := bc.Next()
		if oka != okb || ra != rb {
			return false
		}
		if !oka {
			return true
		}
	}
}

// isInt reports whether a program belongs to the integer half of the
// suite.
var isInt = func() map[string]bool {
	m := map[string]bool{}
	for _, n := range mbbp.IntWorkloads() {
		m[n] = true
	}
	return m
}()

// fold sums per-program results into the paper's suite aggregates: raw
// event counts summed over each half of the suite.
func fold(progs []string, res []mbbp.Result) (intAgg, fpAgg mbbp.Result) {
	intAgg.Program, fpAgg.Program = "CINT95", "CFP95"
	for i, p := range progs {
		if isInt[p] {
			intAgg.Add(res[i])
		} else {
			fpAgg.Add(res[i])
		}
	}
	return intAgg, fpAgg
}

// siteTally charges every penalised fetch block's cycles to its start
// address: the hard-to-predict attribution, computed apart from the
// harness's.
type siteTally map[uint32]uint64

func (t siteTally) Observe(ev mbbp.FetchEvent) {
	if ev.Penalty > 0 {
		t[ev.Start] += uint64(ev.Penalty)
	}
}
