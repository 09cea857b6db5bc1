// Command perfbench is the repository's benchmark. It runs one of three
// workloads, each of which loads one layer of the simulator, checks the
// outputs, and prints the run's metrics; README.md gives the workloads,
// the metrics and what moves them. Run it from the repository root:
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run also records spans around
// every layer call and prints the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec is one reported metric: its name and unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricSpec{
	{"ns_per_instr", "ns"},
	{"op_p50_ms", "ms"},
	{"alloc_bytes_per_instr", "B"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, in print order. Every
// workload prints all of them; a layer the workload never calls reads 0.
var perLayer = []metricSpec{
	{"cpu.capture_ns_per_instr", "ns"},
	{"trace.load_ns_per_record", "ns"},
	{"trace.load_alloc_bytes_per_record", "B"},
	{"core.paper_ns_per_instr", "ns"},
	{"core.tage_ns_per_instr", "ns"},
	{"core.mallocs_per_block", "count"},
	{"core.alloc_bytes_per_block", "B"},
	{"harness.fig6_ms", "ms"},
	{"harness.fig7_ms", "ms"},
	{"harness.fig8_ms", "ms"},
	{"harness.table5_ms", "ms"},
	{"harness.table6_ms", "ms"},
	{"harness.fig9_ms", "ms"},
	{"harness.predictors_ms", "ms"},
	{"harness.h2p_ms", "ms"},
	{"harness.render_ms", "ms"},
	{"harness.busy_ns_per_instr", "ns"},
	{"harness.utilization", "ratio"},
	{"server.admit_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.capture_ms", "ms"},
	{"server.capture_ns_per_instr", "ns"},
	{"server.simulate_ms", "ms"},
	{"server.simulate_ns_per_instr", "ns"},
	{"server.render_ms", "ms"},
	{"server.result_cache_hit_ratio", "ratio"},
	{"server.trace_cache_hit_ratio", "ratio"},
	{"client.op_p90_ms", "ms"},
	{"client.op_p90_samples", "count"},
	{"client.trace_overhead_pct", "%"},
	{"client.wall_ns_per_instr", "ns"},
	{"client.host_slowdown", "ratio"},
}

// scale sets the input sizes. The command line always runs fullScale;
// the package test runs tinyScale so that every workload ends in moments.
type scale struct {
	reproduceN  uint64 // trace length per program for reproduce (seed adds up to 1800)
	coldN       uint64 // smallest instruction count of a serve-cold request
	simulateN   uint64 // records per saved trace file
	setups      int    // set-up repetitions; setup_s is their median
	sampleEvery int    // re-derive every k-th computed serve response
}

var (
	fullScale = scale{reproduceN: 49_000, coldN: 100_000, simulateN: 100_000, setups: 5, sampleEvery: 32}
	tinyScale = scale{reproduceN: 3_000, coldN: 2_000, simulateN: 2_000, setups: 2, sampleEvery: 3}
)

// params is one run's settings.
type params struct {
	seed   int64
	dur    time.Duration
	traced bool
	scale  scale
	tmpDir string    // the only directory the run writes to
	log    io.Writer // human-readable report lines
}

// bench is one workload.
type bench interface {
	// setup builds the workload's inputs and services from the seed. It
	// runs several times, with close in between, so that setup_s is a
	// median; spans go to tr when it is not nil.
	setup(tr *tracer) error
	close()
	// opsPerRound is the number of operations in a round; every run
	// attempts whole rounds of the same operations.
	opsPerRound() int
	// op runs operation i of round r. runWorkload times it; check, when
	// not nil, runs afterwards outside the timing.
	op(r, i int, tr *tracer) (instr uint64, check func(*checker), err error)
	// verify runs the checks that need the whole run's outputs.
	verify(c *checker, tr *tracer)
	// layers returns the per-layer metrics the workload measures from
	// the spans of its traced rounds.
	layers(tr *tracer) map[string]float64
}

var workloadNames = []string{"reproduce", "serve-cold", "simulate"}

func newBench(name string, p params) (bench, error) {
	switch name {
	case "reproduce":
		return &reproduce{p: p}, nil
	case "serve-cold":
		return &serveCold{p: p}, nil
	case "simulate":
		return &simulate{p: p}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// checker counts checks and keeps the first few failures.
type checker struct {
	checks   int
	failed   int
	failures []string
}

// check records one check; it returns ok.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.checks++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the run's last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// timing accumulates the timed phase of one kind of round. Times are at
// the reference host speed (calib.go), but for wall.
type timing struct {
	wall       time.Duration
	instr      uint64
	roundDur   map[int]time.Duration // per round
	roundInstr map[int]uint64
	lat        []float64 // per-operation latency, ms
}

func newTiming() *timing {
	return &timing{roundDur: map[int]time.Duration{}, roundInstr: map[int]uint64{}}
}

// timedOp is an operation of round r waiting for the calibration that
// follows it.
type timedOp struct {
	r     int
	d     time.Duration
	instr uint64
	acc   *timing
}

// nsPerInstr is the median over rounds of a round's time ÷ its
// instructions. Every round holds the same operations, so the median
// keeps the whole mix and drops rounds that a passing stall of the host
// slowed more than the calibrations around them show.
func (t *timing) nsPerInstr() float64 {
	var per []float64
	for r, d := range t.roundDur {
		per = append(per, ratio(float64(d), float64(t.roundInstr[r])))
	}
	return median(per)
}

func (t *timing) wallNsPerInstr() float64 { return ratio(float64(t.wall), float64(t.instr)) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	p := params{
		seed:   *seed,
		dur:    time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		scale:  fullScale,
		tmpDir: os.TempDir(),
		log:    stdout,
	}
	out, err := runWorkload(*name, p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// runWorkload sets the workload up, runs its timed phase in whole
// rounds, checks it, and returns the result line. In a traced run odd
// rounds record spans and even rounds do not, so the two kinds of round
// give the tracing overhead.
func runWorkload(name string, p params) (*output, error) {
	b, err := newBench(name, p)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(p.log, "host: num_cpu=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(p.log, "run: workload=%s seed=%d seconds=%g trace=%t\n", name, p.seed, p.dur.Seconds(), p.traced)

	var tr *tracer
	if p.traced {
		tr = newTracer()
	}
	var setups []float64
	for i := 0; i < p.scale.setups; i++ {
		if i > 0 {
			b.close()
		}
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		if err := b.setup(tr); err != nil {
			b.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()
	runtime.GC() // garbage of the earlier set-ups is not the timed phase's

	c := &checker{}
	plain, traced := newTiming(), newTiming()
	attempted, failed := 0, 0
	minRounds := 1
	if p.traced {
		minRounds = 2
	}
	// Each operation's wall time is scaled to the reference host speed by
	// the mean of the calibrations before and after it (calib.go).
	cal := newCalibrator()
	var pending []timedOp
	prev := cal.measure()
	lastCal := time.Now()
	calibrate := func() {
		now := cal.measure()
		scale := 2 / (prev + now)
		for _, o := range pending {
			d := time.Duration(float64(o.d) * scale)
			o.acc.roundDur[o.r] += d
			o.acc.roundInstr[o.r] += o.instr
			o.acc.wall += o.d
			o.acc.instr += o.instr
			o.acc.lat = append(o.acc.lat, float64(d)/float64(time.Millisecond))
		}
		pending, prev, lastCal = pending[:0], now, time.Now()
	}

	// Checks between operations are not timed, and their allocations are
	// taken out of the phase's.
	var m0, m1, c0, c1 runtime.MemStats
	var checkAlloc uint64
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < p.dur; r++ {
		var rt *tracer
		acc := plain
		if p.traced && r%2 == 1 {
			rt, acc = tr, traced
		}
		for i := 0; i < b.opsPerRound(); i++ {
			t0 := time.Now()
			instr, check, err := b.op(r, i, rt)
			d := time.Since(t0)
			attempted++
			if err != nil {
				failed++
				if len(c.failures) < 20 {
					c.failures = append(c.failures, fmt.Sprintf("round %d op %d: %v", r, i, err))
				}
				continue
			}
			if check != nil {
				before := c.failed
				runtime.ReadMemStats(&c0)
				check(c)
				runtime.ReadMemStats(&c1)
				checkAlloc += c1.TotalAlloc - c0.TotalAlloc
				if c.failed > before {
					failed++
					continue
				}
			}
			pending = append(pending, timedOp{r, d, instr, acc})
			if time.Since(lastCal) >= calEvery {
				calibrate()
			}
		}
	}
	if len(pending) > 0 {
		calibrate()
	}
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	b.verify(c, tr)

	out := &output{Correct: c.failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if p.traced {
		got := b.layers(tr)
		got["client.op_p90_ms"] = quantile(plain.lat, 0.9)
		got["client.op_p90_samples"] = float64(len(plain.lat))
		got["client.trace_overhead_pct"] = 100 * (ratio(traced.nsPerInstr(), plain.nsPerInstr()) - 1)
		got["client.wall_ns_per_instr"] = plain.wallNsPerInstr()
		got["client.host_slowdown"] = median(cal.samples)
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{got[m.name], m.unit}
		}
		path := filepath.Join(p.tmpDir, fmt.Sprintf("perfbench-spans-%s-%d.jsonl", name, p.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(p.log, "spans: %d written to %s\n", len(tr.spans), path)
	} else {
		got := map[string]float64{
			"ns_per_instr":          plain.nsPerInstr(),
			"op_p50_ms":             median(plain.lat),
			"alloc_bytes_per_instr": ratio(float64(m1.TotalAlloc-m0.TotalAlloc-checkAlloc), float64(plain.instr)),
			"peak_rss_mb":           rss,
			"setup_s":               median(setups),
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{got[m.name], m.unit}
		}
	}

	fmt.Fprintf(p.log, "operations: attempted=%d failed=%d instructions=%d\n", attempted, failed, plain.instr+traced.instr)
	fmt.Fprintf(p.log, "host: %d calibrations, slowdown median %.4g (quartiles %.4g, %.4g); wall ns_per_instr %.6g\n",
		len(cal.samples), median(cal.samples), quantile(cal.samples, 0.25), quantile(cal.samples, 0.75), plain.wallNsPerInstr())
	fmt.Fprintf(p.log, "checks: %d run, %d failed\n", c.checks, c.failed)
	for _, f := range c.failures {
		fmt.Fprintf(p.log, "  FAIL %s\n", f)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(p.log, "metric %-36s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	return out, nil
}
