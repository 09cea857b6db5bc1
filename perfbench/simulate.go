package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"mbbp"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// simulate is the batch path of mbpsim -tracefile: set-up saves one
// seeded trace file per program, and every operation decodes one file
// with trace.Load and simulates it with mbbp.Run, alternating the paper
// default configuration and the TAGE configuration. Everything runs
// serially on one goroutine, with no pool, server or lanes in between.
type simulate struct {
	p     params
	dir   string
	files []simFile
	cfgs  [2]mbbp.Config
	first [][2]*mbbp.Result // first result per (file, configuration)
	acc   simLayers
}

type simFile struct {
	name  string
	path  string
	saved *trace.Buffer // the buffer the file was saved from
	want  traceCounts   // an independent walk of it
}

// simLayers accumulates the counts behind the per-layer metrics, over
// traced rounds (and traced set-ups for capture).
type simLayers struct {
	captured                    uint64
	loadRecords, loadAlloc      uint64
	instr                       [2]uint64
	blocks, mallocs, allocBytes uint64
}

var simSpans = [2]string{"core.paper", "core.tage"}

func (b *simulate) setup(tr *tracer) error {
	b.cfgs = [2]mbbp.Config{mbbp.DefaultConfig(), mbbp.NewConfig(mbbp.WithPredictor(mbbp.PredictorTAGE))}
	dir, err := os.MkdirTemp(b.p.tmpDir, "perfbench-simulate-")
	if err != nil {
		return err
	}
	b.dir = dir
	rng := rand.New(rand.NewSource(b.p.seed))
	names := mbbp.Workloads()
	b.files = b.files[:0]
	for _, k := range rng.Perm(len(names)) {
		bm, err := workload.Get(names[k])
		if err != nil {
			return err
		}
		sp := tr.begin("cpu.capture", -1)
		buf, err := bm.TraceSeeded(b.p.scale.simulateN, rng.Int63())
		tr.end(sp)
		if err != nil {
			return err
		}
		if tr != nil {
			b.acc.captured += buf.Len()
		}
		f := simFile{name: bm.Name, path: filepath.Join(dir, bm.Name+".trace"), saved: buf, want: countsOf(buf.Clone())}
		if err := saveTrace(f.path, buf); err != nil {
			return err
		}
		b.files = append(b.files, f)
	}
	b.first = make([][2]*mbbp.Result, len(b.files))
	return nil
}

func saveTrace(path string, buf *trace.Buffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := buf.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("saving %s: %w", path, err)
	}
	return f.Close()
}

func loadTrace(path string) (*trace.Buffer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Load(f)
}

func (b *simulate) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

func (b *simulate) opsPerRound() int { return 2 * len(b.files) }

func (b *simulate) op(r, i int, tr *tracer) (uint64, func(*checker), error) {
	f, ci := &b.files[i/2], i%2
	root := tr.begin("op", -1)
	defer tr.end(root)
	var m0, m1, m2 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.begin("trace.load", root)
	buf, err := loadTrace(f.path)
	tr.end(sp)
	if err != nil {
		return 0, nil, fmt.Errorf("loading %s: %w", f.name, err)
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	sp = tr.begin(simSpans[ci], root)
	res, err := mbbp.Run(context.Background(), b.cfgs[ci], buf)
	tr.end(sp)
	if err != nil {
		return 0, nil, fmt.Errorf("simulating %s: %w", f.name, err)
	}
	if tr != nil {
		runtime.ReadMemStats(&m2)
		l := &b.acc
		l.loadRecords += buf.Len()
		l.loadAlloc += m1.TotalAlloc - m0.TotalAlloc
		l.instr[ci] += res.Instructions
		l.blocks += res.Blocks
		l.mallocs += m2.Mallocs - m1.Mallocs
		l.allocBytes += m2.TotalAlloc - m1.TotalAlloc
	}
	return res.Instructions, func(c *checker) {
		where := fmt.Sprintf("%s/%s", f.name, simSpans[ci])
		c.check(sameTrace(buf, f.saved), "%s: loaded trace differs from the buffer it was saved from", where)
		checkResult(c, where, res, f.want, res.IPCf(), res.BEP())
		if first := b.first[i/2][ci]; first == nil {
			b.first[i/2][ci] = &res
		} else {
			c.check(reflect.DeepEqual(*first, res), "%s: round %d result differs from the first round's", where, r)
		}
	}, nil
}

func (b *simulate) verify(c *checker, tr *tracer) {}

func (b *simulate) layers(tr *tracer) map[string]float64 {
	self := tr.selfTimes()
	l := b.acc
	return map[string]float64{
		"cpu.capture_ns_per_instr":          ratio(float64(sumDur(self["cpu.capture"])), float64(l.captured)),
		"trace.load_ns_per_record":          ratio(float64(sumDur(self["trace.load"])), float64(l.loadRecords)),
		"trace.load_alloc_bytes_per_record": ratio(float64(l.loadAlloc), float64(l.loadRecords)),
		"core.paper_ns_per_instr":           ratio(float64(sumDur(self["core.paper"])), float64(l.instr[0])),
		"core.tage_ns_per_instr":            ratio(float64(sumDur(self["core.tage"])), float64(l.instr[1])),
		"core.mallocs_per_block":            ratio(float64(l.mallocs), float64(l.blocks)),
		"core.alloc_bytes_per_block":        ratio(float64(l.allocBytes), float64(l.blocks)),
	}
}
