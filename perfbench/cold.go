package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"

	"mbbp"
	"mbbp/internal/server"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// serveCold sends first-time sweeps to mbbpd: one closed-loop client
// posts single-config sweeps over a rotating 3-program subset, and every
// request carries an instruction count never sent before, so the trace
// cache and the result cache both miss on every request. Capture and the
// single-lane engine do nearly all the work; lanes never form and no
// trace is reused.
type serveCold struct {
	p     params
	svc   *service
	rng   *rand.Rand
	space []mbbp.Config
	next  uint64   // instruction count of the next request
	base  counters // /metrics when the timed phase starts
	delta counters // and its change over the run
	sent  []coldReq
	reqs  []servedReq // traced requests

	captured uint64 // records captured under a span
}

type coldReq struct {
	progs []string
	n     uint64
	cfg   mbbp.Config
	body  []byte
}

// coldSubsets splits the suite into six fixed triples of the integer and
// floating-point programs interleaved; a round sends one request per
// triple, so every round covers the whole suite once.
var coldSubsets = func() [][]string {
	ints, fps := mbbp.IntWorkloads(), mbbp.FPWorkloads()
	var all []string
	for i := 0; i < len(ints) || i < len(fps); i++ {
		if i < len(ints) {
			all = append(all, ints[i])
		}
		if i < len(fps) {
			all = append(all, fps[i])
		}
	}
	var out [][]string
	for i := 0; i+3 <= len(all); i += 3 {
		out = append(out, all[i:i+3])
	}
	return out
}()

func (b *serveCold) setup(tr *tracer) error {
	svc, err := startService()
	if err != nil {
		return err
	}
	b.svc = svc
	b.rng = rand.New(rand.NewSource(b.p.seed))
	b.space = configSpace()
	b.next = b.p.scale.coldN + uint64(b.rng.Intn(1000))
	b.sent, b.reqs = nil, nil
	// One untimed request warms the connection and the code paths; its
	// length is below every timed one, so it takes no timed request's key.
	warm := sweepRequest{Config: &b.space[0], Programs: coldSubsets[0], Instructions: b.p.scale.coldN - 1}
	if _, err := b.svc.post(warm.encode()); err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}
	b.base, err = b.svc.scrape()
	return err
}

func (b *serveCold) close() {
	if b.svc != nil {
		b.svc.stop()
		b.svc = nil
	}
}

func (b *serveCold) opsPerRound() int { return len(coldSubsets) }

func (b *serveCold) op(r, i int, tr *tracer) (uint64, func(*checker), error) {
	cfg := b.space[b.rng.Intn(len(b.space))]
	req := coldReq{progs: coldSubsets[i], n: b.next, cfg: cfg}
	b.next++
	instr := req.n * uint64(len(req.progs))
	root := tr.begin("op", -1)
	rep, err := b.svc.post(sweepRequest{Config: &cfg, Programs: req.progs, Instructions: req.n}.encode())
	tr.end(root)
	if err != nil {
		return 0, nil, err
	}
	if tr != nil {
		sr, err := traceReply(tr, root, rep, instr)
		if err != nil {
			return 0, nil, err
		}
		b.reqs = append(b.reqs, sr)
	}
	req.body = rep.body
	b.sent = append(b.sent, req)
	return instr, func(c *checker) {
		c.check(rep.status == http.StatusOK && rep.cache == "miss",
			"request %d: status %d, Cache-Status %q; a first-time sweep must be a miss", len(b.sent), rep.status, rep.cache)
	}, nil
}

func (b *serveCold) layers(tr *tracer) map[string]float64 {
	m := serverLayers(tr, b.reqs, b.delta)
	self := tr.selfTimes()
	m["cpu.capture_ns_per_instr"] = ratio(float64(sumDur(self["cpu.capture"])), float64(b.captured))
	return m
}

// verify checks the cache counters and every response: each result
// against an independent walk of its trace, and every sampleEvery-th
// request re-derived with mbbp.Run over a fresh capture.
func (b *serveCold) verify(c *checker, tr *tracer) {
	now, err := b.svc.scrape()
	if !c.check(err == nil, "scraping /metrics: %v", err) {
		return
	}
	b.delta = now.minus(b.base)
	d := b.delta
	var progReqs uint64
	for _, rq := range b.sent {
		progReqs += uint64(len(rq.progs))
	}
	c.check(d.TraceHits == 0 && d.TraceMisses == progReqs,
		"trace cache: %d hits, %d misses over %d program traces asked; every one must miss", d.TraceHits, d.TraceMisses, progReqs)
	c.check(d.ResultHits == 0 && d.ResultMisses == uint64(len(b.sent)),
		"result cache: %d hits, %d misses over %d requests; every one must miss", d.ResultHits, d.ResultMisses, len(b.sent))

	// One capture per program at the longest length asked stands in, by
	// prefix, for every shorter trace of that program.
	longest := map[string]uint64{}
	for _, rq := range b.sent {
		for _, p := range rq.progs {
			longest[p] = max(longest[p], rq.n)
		}
	}
	oracle := map[string]*trace.Buffer{}
	for p, n := range longest {
		bm, err := workload.Get(p)
		if !c.check(err == nil, "%v", err) {
			return
		}
		sp := tr.begin("cpu.capture", -1)
		buf, err := bm.Trace(n)
		tr.end(sp)
		if !c.check(err == nil, "capturing %s: %v", p, err) {
			return
		}
		b.captured += n
		oracle[p] = buf
	}

	ctx := context.Background()
	for k, rq := range b.sent {
		where := fmt.Sprintf("serve-cold request %d", k)
		var sw server.SweepResponse
		if !c.check(json.Unmarshal(rq.body, &sw) == nil, "%s: undecodable body", where) {
			continue
		}
		counts := func(p string) traceCounts { return countsOf(&prefix{src: oracle[p].Clone(), n: rq.n}) }
		checkSweep(c, where, sw, rq.cfg, rq.progs, rq.n, counts)
		if k%b.p.scale.sampleEvery != 0 || len(sw.Results) != len(rq.progs) {
			continue
		}
		for j, p := range rq.progs {
			tb, err := mbbp.WorkloadTrace(p, rq.n)
			if !c.check(err == nil, "%s: capturing %s: %v", where, p, err) {
				continue
			}
			c.check(countsOf(tb.Clone()) == counts(p), "%s/%s: a fresh capture walks differently from the prefix", where, p)
			res, err := mbbp.Run(ctx, rq.cfg, tb)
			if c.check(err == nil, "%s/%s: %v", where, p, err) {
				c.check(reflect.DeepEqual(res, sw.Results[j].Result), "%s/%s: result differs from mbbp.Run", where, p)
			}
		}
	}
}
