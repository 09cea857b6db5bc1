package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"time"

	"mbbp"
	"mbbp/internal/harness"
	"mbbp/internal/metrics"
)

// reproduce regenerates the paper offline: every operation is one
// harness experiment over the 18-program suite plus its table render, on
// a work-stealing pool with one worker per CPU. The traces are captured
// once, in set-up, so lane-batched predictor work is nearly all the
// timed phase holds; neither capture nor the server runs in it.
type reproduce struct {
	p       params
	ts      *harness.TraceSet
	sched   *harness.Scheduler
	records uint64 // records over the suite's traces
	rng     *rand.Rand
	order   []int // experiment order of the current round

	first   []any    // each experiment's rows from its first pass
	renders [][]byte // and its rendered table

	captured uint64        // records captured under a span
	busy     time.Duration // pool busy time in traced rounds
	instr    uint64        // instructions of traced rounds
}

// experiment is one harness experiment: the call, its render, and the
// trace walks per program the call makes (configurations plus scalar
// baseline walks), read off the rows it returned.
type experiment struct {
	name   string
	run    func(*harness.Scheduler, *harness.TraceSet) (any, error)
	render func(io.Writer, any)
	walks  func(any) int
}

func exp[T any](name string, async func(*harness.Scheduler, *harness.TraceSet) func() (T, error),
	render func(io.Writer, T), walks func(T) int) experiment {
	return experiment{
		name:   name,
		run:    func(s *harness.Scheduler, ts *harness.TraceSet) (any, error) { return async(s, ts)() },
		render: func(w io.Writer, rows any) { render(w, rows.(T)) },
		walks:  func(rows any) int { return walks(rows.(T)) },
	}
}

var experiments = []experiment{
	// A Figure 6 row is a blocked-PHT run and a scalar baseline walk.
	exp("fig6", harness.Fig6Async, harness.RenderFig6, func(r []harness.Fig6Row) int { return 2 * len(r) }),
	exp("fig7", harness.Fig7Async, harness.RenderFig7, func(r []harness.Fig7Row) int { return len(r) }),
	// A Figure 8 row is single and double selection.
	exp("fig8", harness.Fig8Async, harness.RenderFig8, func(r []harness.Fig8Row) int { return 2 * len(r) }),
	exp("table5", harness.Table5Async, harness.RenderTable5, func(r []harness.Table5Row) int { return len(r) }),
	// A Table 6 row is one- and two-block fetching.
	exp("table6", harness.Table6Async, harness.RenderTable6, func(r []harness.Table6Row) int { return 2 * len(r) }),
	exp("fig9", harness.Fig9Async, harness.RenderFig9, func([]harness.Fig9Row) int { return 1 }),
	exp("predictors",
		func(s *harness.Scheduler, ts *harness.TraceSet) func() ([]harness.PredictorRow, error) {
			return harness.ComparePredictorsAsync(s, ts, mbbp.PredictorTAGE)
		},
		harness.RenderPredictors, func(r []harness.PredictorRow) int { return len(r) }),
	exp("h2p",
		func(s *harness.Scheduler, ts *harness.TraceSet) func() ([]harness.H2PRow, error) {
			return harness.H2PAsync(s, ts, mbbp.DefaultConfig(), nil)
		},
		func(w io.Writer, r []harness.H2PRow) { harness.RenderH2P(w, r, harness.DefaultH2PTopN) },
		func(r []harness.H2PRow) int { return len(r[0].Histories) }),
}

func (b *reproduce) setup(tr *tracer) error {
	b.rng = rand.New(rand.NewSource(b.p.seed))
	n := b.p.scale.reproduceN + 200*uint64(b.rng.Intn(10))
	sp := tr.begin("cpu.capture", -1)
	ts, err := harness.LoadTracesOn(harness.Serial(), harness.Options{Instructions: n})
	tr.end(sp)
	if err != nil {
		return err
	}
	b.ts, b.records = ts, 0
	for _, name := range ts.Programs() {
		b.records += ts.Trace(name).Len()
	}
	if tr != nil {
		b.captured += b.records
	}
	b.sched = harness.NewScheduler(0)
	b.first = make([]any, len(experiments))
	b.renders = make([][]byte, len(experiments))
	return nil
}

func (b *reproduce) close() {
	if b.sched != nil {
		b.sched.Close()
		b.sched = nil
	}
}

func (b *reproduce) opsPerRound() int { return len(experiments) }

func (b *reproduce) op(r, i int, tr *tracer) (uint64, func(*checker), error) {
	if i == 0 {
		b.order = b.rng.Perm(len(experiments))
	}
	k := b.order[i]
	e := experiments[k]
	root := tr.begin("op", -1)
	defer tr.end(root)
	var st0 harness.PoolStats
	if tr != nil {
		st0 = b.sched.Stats()
	}
	sp := tr.begin("harness."+e.name, root)
	rows, err := e.run(b.sched, b.ts)
	tr.end(sp)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", e.name, err)
	}
	var out bytes.Buffer
	sp = tr.begin("harness.render", root)
	e.render(&out, rows)
	tr.end(sp)
	instr := uint64(e.walks(rows)) * b.records
	if tr != nil {
		b.busy += b.sched.Stats().BusyTotal() - st0.BusyTotal()
		b.instr += instr
	}
	return instr, func(c *checker) {
		if b.first[k] == nil {
			b.first[k], b.renders[k] = rows, out.Bytes()
			return
		}
		c.check(bytes.Equal(out.Bytes(), b.renders[k]), "%s: round %d renders a table that differs from the first pass", e.name, r)
	}, nil
}

func (b *reproduce) layers(tr *tracer) map[string]float64 {
	self := tr.selfTimes()
	m := map[string]float64{
		"cpu.capture_ns_per_instr":  ratio(float64(sumDur(self["cpu.capture"])), float64(b.captured)),
		"harness.render_ms":         median(msOf(self["harness.render"])),
		"harness.busy_ns_per_instr": ratio(float64(b.busy), float64(b.instr)),
	}
	var wall time.Duration
	for _, e := range experiments {
		m["harness."+e.name+"_ms"] = median(msOf(self["harness."+e.name]))
		wall += sumDur(self["harness."+e.name])
	}
	m["harness.utilization"] = ratio(float64(b.busy), float64(wall)*float64(b.sched.Workers()))
	return m
}

// verify recomputes rows of every experiment away from the harness and
// checks the paper-shape properties of the first pass.
func (b *reproduce) verify(c *checker, tr *tracer) {
	for k, e := range experiments {
		if !c.check(b.first[k] != nil, "%s: no successful pass", e.name) {
			return
		}
	}
	fig6 := b.first[0].([]harness.Fig6Row)
	fig7 := b.first[1].([]harness.Fig7Row)
	fig8 := b.first[2].([]harness.Fig8Row)
	table5 := b.first[3].([]harness.Table5Row)
	table6 := b.first[4].([]harness.Table6Row)
	fig9 := b.first[5].([]harness.Fig9Row)
	preds := b.first[6].([]harness.PredictorRow)
	h2p := b.first[7].([]harness.H2PRow)

	// Paper-shape properties.
	for _, r := range fig6 {
		c.check(r.BlockedFP < r.BlockedInt && r.ScalarFP < r.ScalarInt,
			"fig6 h=%d: FP misprediction (blocked %v, scalar %v) not below Int (%v, %v)",
			r.History, r.BlockedFP, r.ScalarFP, r.BlockedInt, r.ScalarInt)
	}
	for _, r := range h2p {
		cov := r.Att[r.BaseH].Coverage(0)
		for i := 1; i < len(cov); i++ {
			c.check(cov[i] >= cov[i-1], "h2p %s: coverage falls at rank %d", r.Program, i+1)
		}
		c.check(len(cov) > 0 && cov[len(cov)-1] == 1, "h2p %s: coverage curve does not end at 100%%", r.Program)
		for _, blk := range r.TopBlocks(harness.DefaultH2PTopN) {
			inGrid := false
			for _, h := range r.Histories {
				inGrid = inGrid || h == blk.BestH
			}
			c.check(inGrid, "h2p %s @%d: best history %d is not in the swept grid %v", r.Program, blk.Addr, blk.BestH, r.Histories)
		}
	}

	// One row of each experiment (chosen by the seed), recomputed with
	// mbbp.RunMany over the same traces and folded as the paper does.
	pick := rand.New(rand.NewSource(b.p.seed + 1))
	var cfgs []mbbp.Config
	add := func(opts ...mbbp.Option) int {
		cfgs = append(cfgs, mbbp.NewConfig(opts...))
		return len(cfgs) - 1
	}
	r6 := fig6[pick.Intn(len(fig6))]
	c6 := add(mbbp.WithSingleBlock(), mbbp.WithHistoryBits(r6.History))
	r7 := fig7[pick.Intn(len(fig7))]
	c7 := add(mbbp.WithSingleBlock(), mbbp.WithBIT(r7.Entries))
	r8 := fig8[pick.Intn(len(fig8))]
	c8s := add(mbbp.WithHistoryBits(r8.History), mbbp.WithSelectTables(r8.STs), mbbp.WithDualBlock(mbbp.SingleSelection))
	c8d := add(mbbp.WithHistoryBits(r8.History), mbbp.WithSelectTables(r8.STs), mbbp.WithDualBlock(mbbp.DoubleSelection))
	r5 := table5[pick.Intn(len(table5))]
	opts5 := []mbbp.Option{mbbp.WithNLS(r5.Entries)}
	if r5.Kind == mbbp.BTB {
		opts5[0] = mbbp.WithBTB(r5.Entries, 4)
	}
	if r5.NearBlock {
		opts5 = append(opts5, mbbp.WithNearBlock())
	}
	c5 := add(opts5...)
	r6t := table6[pick.Intn(len(table6))]
	c6one := add(mbbp.WithCache(r6t.Kind, 8), mbbp.WithSelectTables(8), mbbp.WithSingleBlock())
	c6two := add(mbbp.WithCache(r6t.Kind, 8), mbbp.WithSelectTables(8))
	c9 := add(mbbp.WithCache(mbbp.CacheSelfAligned, 8), mbbp.WithSelectTables(8))
	// The predictor ladder: paper h=8,10,12,14, then TAGE 2^6..2^9 entries
	// per table, all single block.
	ip := pick.Intn(len(preds))
	cp := add(mbbp.WithSingleBlock())
	if ip < 4 {
		cfgs[cp].HistoryBits = 8 + 2*ip
	} else {
		cfgs[cp].Predictor = mbbp.PredictorTAGE
		cfgs[cp].TAGE.TableBits = 6 + (ip - 4)
	}
	ch := map[int]int{}
	for _, h := range h2p[0].Histories {
		ch[h] = add(mbbp.WithHistoryBits(h))
	}

	progs := b.ts.Programs()
	res := make([][]mbbp.Result, len(cfgs)) // [config][program]
	for i := range res {
		res[i] = make([]mbbp.Result, len(progs))
	}
	var scalarInt, scalarFP mbbp.Result
	for j, name := range progs {
		sp := tr.begin("check.runmany", -1)
		rs, err := mbbp.RunMany(context.Background(), cfgs, b.ts.Trace(name).Clone())
		tr.end(sp)
		if !c.check(err == nil, "recompute %s: %v", name, err) {
			return
		}
		for i := range cfgs {
			res[i][j] = rs[i]
		}
		// The scalar baseline reports a rate; its misprediction count is
		// the rate times the trace's conditional branches.
		cond := countsOf(b.ts.Trace(name).Clone()).cond
		rate := mbbp.ScalarMispredictRate(b.ts.Trace(name).Clone(), r6.History, 8)
		sr := mbbp.Result{CondBranches: cond, CondMispredicts: uint64(rate*float64(cond) + 0.5)}
		if isInt[name] {
			scalarInt.Add(sr)
		} else {
			scalarFP.Add(sr)
		}
	}
	suite := func(i int) (mbbp.Result, mbbp.Result) { return fold(progs, res[i]) }

	bi, bf := suite(c6)
	want6 := harness.Fig6Row{
		History:    r6.History,
		BlockedInt: bi.CondMispredictRate(), BlockedFP: bf.CondMispredictRate(),
		ScalarInt: scalarInt.CondMispredictRate(), ScalarFP: scalarFP.CondMispredictRate(),
	}
	want6.ImproveInt = 100 * (want6.ScalarInt - want6.BlockedInt)
	want6.ImproveFP = 100 * (want6.ScalarFP - want6.BlockedFP)
	c.check(r6 == want6, "fig6 row h=%d: harness %+v, recomputed %+v", r6.History, r6, want6)

	pct := func(r mbbp.Result, k metrics.Kind) float64 {
		if r.BEP() == 0 {
			return 0
		}
		return 100 * r.BEPOf(k) / r.BEP()
	}
	i7, f7 := suite(c7)
	want7 := harness.Fig7Row{Entries: r7.Entries,
		PctBEPInt: pct(i7, metrics.BITMispredict), PctBEPFP: pct(f7, metrics.BITMispredict),
		IPCfInt: i7.IPCf(), IPCfFP: f7.IPCf()}
	c.check(r7 == want7, "fig7 row %d entries: harness %+v, recomputed %+v", r7.Entries, r7, want7)

	si, sf := suite(c8s)
	di, df := suite(c8d)
	want8 := harness.Fig8Row{History: r8.History, STs: r8.STs,
		SingleInt: si.IPCf(), SingleFP: sf.IPCf(), DoubleInt: di.IPCf(), DoubleFP: df.IPCf()}
	c.check(r8 == want8, "fig8 row h=%d STs=%d: harness %+v, recomputed %+v", r8.History, r8.STs, r8, want8)

	i5, _ := suite(c5)
	want5 := harness.Table5Row{Kind: r5.Kind, Entries: r5.Entries, NearBlock: r5.NearBlock,
		PctBEPImm: pct(i5, metrics.MisfetchImmediate), PctBEPInd: pct(i5, metrics.MisfetchIndirect),
		BEP: i5.BEP(), IPCf: i5.IPCf()}
	c.check(r5 == want5, "table5 row %v %d near=%t: harness %+v, recomputed %+v", r5.Kind, r5.Entries, r5.NearBlock, r5, want5)

	oi, of := suite(c6one)
	ti, tf := suite(c6two)
	geom := mbbp.CacheGeometry(r6t.Kind, 8)
	want6t := harness.Table6Row{Kind: r6t.Kind, LineSize: geom.LineSize, Banks: geom.Banks,
		IPBInt: oi.IPB(), IPBFP: of.IPB(), IPCf1Int: oi.IPCf(), IPCf1FP: of.IPCf(),
		IPCf2Int: ti.IPCf(), IPCf2FP: tf.IPCf()}
	c.check(r6t == want6t, "table6 row %v: harness %+v, recomputed %+v", r6t.Kind, r6t, want6t)

	i9, f9 := suite(c9)
	per9 := append(append([]mbbp.Result(nil), res[c9]...), i9, f9)
	c.check(len(fig9) == len(per9), "fig9: %d rows, want %d", len(fig9), len(per9))
	for j := 0; j < len(fig9) && j < len(per9); j++ {
		r := per9[j]
		want := harness.Fig9Row{Program: fig9[j].Program, Suite: fig9[j].Suite, BEP: r.BEP()}
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			want.ByKind[k] = r.BEPOf(k)
		}
		c.check(fig9[j] == want, "fig9 row %s: harness %+v, recomputed %+v", fig9[j].Program, fig9[j], want)
	}

	pi, pf := suite(cp)
	eng, err := mbbp.NewEngineFromConfig(cfgs[cp])
	if c.check(err == nil, "predictors: building engine: %v", err) {
		rp := preds[ip]
		kbits := float64(eng.StateBits().PHT) / 1024
		want := harness.PredictorRow{Predictor: cfgs[cp].Predictor.String(), Label: rp.Label,
			IntAcc: pi.CondAccuracy(), FPAcc: pf.CondAccuracy(), DirKbits: kbits}
		if kbits > 0 {
			want.IntAccPerKbit = 100 * want.IntAcc / kbits
		}
		c.check(rp == want, "predictors row %d: harness %+v, recomputed %+v", ip, rp, want)
	}

	// Each attribution is tallied again from an engine's event stream and
	// must match site by site. An event carries only its block's largest
	// charge, so the attributed total may fall short of the run's charges
	// but never exceed them.
	for j, r := range h2p {
		c.check(r.Program == progs[j], "h2p row %d is %s, want %s", j, r.Program, progs[j])
		c.check(reflect.DeepEqual(r.Res, res[ch[r.BaseH]][j]), "h2p %s: result differs from mbbp.RunMany", r.Program)
		for _, h := range r.Histories {
			eng, err := mbbp.NewEngineFromConfig(cfgs[ch[h]])
			if !c.check(err == nil, "h2p: building engine: %v", err) {
				return
			}
			tally := siteTally{}
			eng.SetObserver(tally)
			eng.Run(b.ts.Trace(r.Program).Clone())
			att := r.Att[h]
			var total uint64
			same := att.Sites() == len(tally)
			for addr, cycles := range tally {
				total += cycles
				same = same && att.SiteCycles(addr) == cycles
			}
			c.check(same && att.TotalCycles() == total, "h2p %s h=%d: attribution differs from the engine's events", r.Program, h)
			charged := penaltyCycles(res[ch[h]][j])
			c.check(total <= charged, "h2p %s h=%d: %d cycles attributed, run charges only %d", r.Program, h, total, charged)
		}
	}
}
