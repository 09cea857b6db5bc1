package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// The timed metrics are reported at a reference host speed. A shared
// host's speed drifts with other tenants' load by tens of percent over
// seconds to minutes: the guest's CPUs are descheduled (steal time) and
// run slower while they run (shared cores and caches). Wall time shows
// both, process CPU time only the second, so no statistic of the
// program's own times removes the drift. The benchmark therefore times a
// fixed piece of work of its own, the calibration kernel, between
// operations, and scales each operation's wall time by refKernel ÷ the
// kernel's time around it. The kernel is the benchmark's code, so a
// change to the program moves the scaled times as it moves the wall
// times; only the host's speed cancels out, and only in part: measured
// over 2 s windows on the reference host, scaling halved the spread of
// both a serial and a two-goroutine engine loop.
//
// The kernel is a small branch-predictor walk like the program's inner
// loop: a table of 2-bit counters indexed by address and global history,
// fed by a stream of pseudo-random branch records, with one
// data-dependent branch per record. The records come from a generator
// held in registers and the table fits in the second-level cache; each
// pass reads the table in before it is timed, so the kernel's time does
// not depend on what the program's last operation left in the caches.

const (
	kernelRecords = 1 << 18 // records per kernel pass
	kernelTable   = 1 << 18 // counters in the kernel's table (256 KiB)
	// refKernel is one kernel pass on a quiet host of the reference kind
	// (2-vCPU KVM guest, Intel Xeon, go1.24.0), so scaled times read as
	// wall times on that host.
	refKernel = 4000 * time.Microsecond
	// calEvery is the least time between two calibrations; with a pass
	// of about refKernel, calibration takes about a seventh of the run.
	calEvery = 25 * time.Millisecond
)

type kernel struct {
	table []uint8
	seed  uint64
	sink  uint64
}

func newKernel(seed uint64) *kernel {
	return &kernel{table: make([]uint8, kernelTable), seed: seed}
}

// warm reads the table into the cache.
func (k *kernel) warm() {
	var s uint8
	for _, c := range k.table {
		s += c
	}
	k.sink += uint64(s)
}

// pass walks kernelRecords records; the work is the same on every call.
func (k *kernel) pass() {
	x := k.seed
	var hist, miss uint64
	for i := 0; i < kernelRecords; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := (x>>1 ^ hist<<3) & (kernelTable - 1)
		ctr := k.table[idx]
		taken := x&1 == 1
		if (ctr >= 2) != taken {
			miss++
		}
		switch {
		case taken && ctr < 3:
			ctr++
		case !taken && ctr > 0:
			ctr--
		}
		k.table[idx] = ctr
		hist = hist<<1 | x&1
	}
	k.sink += miss
}

// calibrator times kernel passes on one goroutine per CPU at once. Every
// workload keeps all the CPUs busy during an operation: the pool's
// workers, the server and its client, or a serial engine and the garbage
// collector beside it. The mean pass time over the CPUs tracked both
// kinds of operation better than one CPU's pass or the slowest pass.
type calibrator struct {
	kernels []*kernel
	samples []float64 // every calibration, in units of refKernel
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c.kernels = append(c.kernels, newKernel(uint64(i+1)*0x9e3779b97f4a7c15))
	}
	return c
}

// measure runs one kernel pass per CPU at once and returns the slowdown
// against the reference host: the mean pass time ÷ refKernel. The passes
// start together once every goroutine has a CPU and its table in the
// cache. A garbage collection left running by the last operation is
// finished first and none starts during the passes, so the program's own
// collector does not slow the kernel.
func (c *calibrator) measure() float64 {
	old := debug.SetGCPercent(-1) // waits for a running mark phase to end
	times := make([]time.Duration, len(c.kernels))
	var ready atomic.Int32
	var wg sync.WaitGroup
	for i, k := range c.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.warm()
			ready.Add(1)
			for ready.Load() < int32(len(c.kernels)) {
				runtime.Gosched()
			}
			t0 := time.Now()
			k.pass()
			times[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	debug.SetGCPercent(old)
	slow := float64(sumDur(times)) / float64(len(times)) / float64(refKernel)
	c.samples = append(c.samples, slow)
	return slow
}
