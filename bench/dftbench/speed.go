package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// refRunMs is the time one run of the reference kernel takes on an
// uncontended core of the machine the benchmark was sized on (a 2-vCPU
// 2.1 GHz Xeon virtual machine).
const refRunMs = 0.065

// cadence is how often, at most, the meter samples during a measuring
// window, and how many kernel runs one sample takes. The machine's speed
// changes within milliseconds as well as over seconds, so a sample runs
// for milliseconds: with 0.25 ms samples, two meters reading the same
// windows disagreed by up to 7%.
type cadence struct {
	every time.Duration
	runs  int
}

var (
	// libCadence samples every 200 ms for about 2 ms. Between library ops
	// and between set-ups a pause costs the workload nothing.
	libCadence = cadence{200 * time.Millisecond, 32}
	// serveCadence samples every second for about 10 ms. A serve pause
	// waits for the requests in flight, so one client idles until the
	// other's op ends; pausing every 200 ms idled serve-cold's clients
	// for 11–12% of the window, and longer when the machine was slower.
	serveCadence = cadence{time.Second, 160}
)

// speedSample is one timing of the reference kernel.
type speedSample struct {
	at    time.Time
	runMs float64 // mean time of one kernel run (see refKernel.time)
}

// speedMeter times a fixed reference kernel, independent of the program
// under test, only while that program is paused: after each set-up,
// between the ops of a library workload, and while the clients of a serve
// workload hold off and dftserved has no request in flight. Shared
// virtual machines run the same instructions twice as slowly or worse for
// seconds at a time when co-tenants load the physical cores; the kernel's
// time shows how slow the machine is running, and because nothing of the
// workload runs beside it, the workload's own load cannot move it. The
// kernel runs on every core at once, since the workloads use them all and
// one core can run 10% slower than another at the same moment.
type speedMeter struct {
	mu      sync.Mutex
	kernels []refKernel // one per core
	samples []speedSample
	paused  time.Duration // total time spent timing the kernel
}

// sample runs the kernel runs times on every core at once and records
// the mean time of one run. The caller guarantees the workload is paused.
func (m *speedMeter) sample(runs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.kernels == nil {
		m.kernels = make([]refKernel, runtime.GOMAXPROCS(0))
	}
	t0 := time.Now()
	times := make([]float64, len(m.kernels))
	var wg sync.WaitGroup
	for i := range m.kernels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i] = m.kernels[i].time(runs) / float64(runs)
		}(i)
	}
	wg.Wait()
	now := time.Now()
	m.samples = append(m.samples, speedSample{now, mean(times)})
	m.paused += now.Sub(t0)
}

// due reports whether every has passed since the last sample.
func (m *speedMeter) due(every time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.samples) == 0 || time.Since(m.samples[len(m.samples)-1].at) >= every
}

// pausedTotal is the time spent timing the kernel so far.
func (m *speedMeter) pausedTotal() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.paused
}

// slowdown is the mean kernel time over samples taken in [from, to]
// relative to refKernelMs; 1 when no sample fell in the interval.
func (m *speedMeter) slowdown(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	sum, n := 0.0, 0
	for _, s := range m.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.runMs
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / refRunMs
}

// refKernel is dense complex elimination on a fixed 48×48 matrix: pure
// arithmetic on a cache-resident array, no allocation.
type refKernel struct {
	a [48 * 48]complex128
}

// time runs the kernel runs times on a locked OS thread and returns the
// milliseconds that took, less the time the thread waited in the guest
// kernel's run queue: its time on a CPU plus any time the hypervisor ran
// another machine on that CPU. Thread CPU time leaves that stolen time
// out; timed by it, the kernel read 1.2 to 1.6 times slower than usual
// in windows where a workload ran 2.5 to 3 times slower.
func (k *refKernel) time(runs int) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w0 := runQueueWait()
	t0 := time.Now()
	for rep := 0; rep < runs; rep++ {
		k.run()
	}
	took := time.Since(t0) - (runQueueWait() - w0)
	return float64(took) / float64(time.Millisecond)
}

func (k *refKernel) run() {
	const n = 48
	a := &k.a
	for i := range a {
		a[i] = complex(float64(i%7)+1, float64(i%5))
	}
	for c := 0; c < n; c++ {
		p := a[c*n+c]
		for i := c + 1; i < n; i++ {
			f := a[i*n+c] / p
			for j := c; j < n; j++ {
				a[i*n+j] -= f * a[c*n+j]
			}
		}
	}
}

// runQueueWait is the time the calling OS thread has spent runnable but
// waiting for a CPU, from /proc/thread-self/schedstat; 0 where the kernel
// does not provide it.
func runQueueWait() time.Duration {
	raw, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		return 0
	}
	return parseRunQueueWait(string(raw))
}

// parseRunQueueWait reads the second field of a schedstat line ("run
// wait timeslices", in nanoseconds); 0 when the line is malformed.
func parseRunQueueWait(line string) time.Duration {
	f := strings.Fields(line)
	if len(f) < 2 {
		return 0
	}
	ns, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ns)
}
