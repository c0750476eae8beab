package main

import (
	"crypto/sha1"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in is a small virtual machine whose
// speed is not its own. A pure CPU loop on it drifts by ±15 % over tens of
// seconds as its neighbours come and go, and the hypervisor takes CPU away
// outright (steal in /proc/stat). A run lasts about as long as one such
// phase, so no amount of medians inside a run averages it out: ten runs of
// one commit spread by 15–30 % on every timing. Both effects can be
// measured while a window runs, so the timings are corrected for them:
//
//   - hostProbe times a fixed compute kernel on its own thread's CPU clock
//     every few milliseconds. The ratio of its median to probeRefNs is how
//     much slower than the reference the CPU ran: CPU time is divided by it.
//   - Stolen CPU time is subtracted from wall time.
//   - Wall time dilates with the CPU only for the share of it the CPUs were
//     busy; a plan that mostly waits for a 2 ms timer does not get slower.
//
// The corrected value is what the window would have measured on a CPU that
// ran the probe in exactly probeRefNs and lost nothing to the hypervisor.
// Raw values go to standard error and host.* carries the factors.

// probeRefNs is the reference duration of the probe kernel. It only fixes
// the unit: it is the kernel's typical CPU time on the sandbox, so
// corrected and raw values agree when the machine runs at its usual speed.
const probeRefNs = 120000

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

func threadCPUNs() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

type probeSample struct{ at, ns int64 }

// hostProbe samples the CPU's speed for as long as it runs. Thread CPU
// time, not wall time: the probe shares two cores with a saturated stack,
// and time spent waiting for a core must not read as a slow CPU.
type hostProbe struct {
	stop    chan struct{}
	stopped sync.Once
	done    sync.WaitGroup
	samples []probeSample
}

func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]byte, 4096)
		tick := time.NewTicker(4 * time.Millisecond)
		defer tick.Stop()
		for {
			t0 := threadCPUNs()
			for i := 0; i < 20; i++ {
				sum := sha1.Sum(buf)
				buf[0] = sum[0]
			}
			p.samples = append(p.samples, probeSample{nowNs(), threadCPUNs() - t0})
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the probe; it may be called more than once.
func (p *hostProbe) finish() {
	p.stopped.Do(func() { close(p.stop) })
	p.done.Wait()
}

// slowdown is the probe's median over [from, to] against the reference;
// call it after finish. An interval too short to hold five samples falls
// back to the whole run of the probe.
func (p *hostProbe) slowdown(from, to int64) float64 {
	var in, all []float64
	for _, s := range p.samples {
		all = append(all, float64(s.ns))
		if s.at >= from && s.at <= to {
			in = append(in, float64(s.ns))
		}
	}
	if len(in) < 5 {
		in = all
	}
	if len(in) == 0 {
		return 1
	}
	sort.Float64s(in)
	return percentile(in, 0.5) / probeRefNs
}

// stolenNs is the CPU time the hypervisor has taken from this machine
// since boot: the steal column of /proc/stat, in USER_HZ ticks of 10 ms.
func stolenNs() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return ticks * int64(10*time.Millisecond)
}

// hostEdge is read at both ends of an interval to be corrected.
type hostEdge struct{ at, cpu, stolen int64 }

func readHostEdge() hostEdge { return hostEdge{nowNs(), cpuNs(), stolenNs()} }

// hostNoise is what the machine did to one interval.
type hostNoise struct {
	// slowdown is probe time ÷ reference: 1.1 means the CPU ran 10 % slow.
	slowdown float64
	// stealShare is stolen CPU time ÷ (wall × CPUs); busyShare is the
	// process's CPU time ÷ (wall × CPUs).
	stealShare, busyShare float64
}

func (p *hostProbe) noise(a, b hostEdge) hostNoise {
	capacity := float64(b.at-a.at) * float64(runtime.NumCPU())
	return hostNoise{
		slowdown:   p.slowdown(a.at, b.at),
		stealShare: min(0.9, div(float64(b.stolen-a.stolen), capacity)),
		busyShare:  min(1, div(float64(b.cpu-a.cpu), capacity)),
	}
}

// cpu corrects a CPU time; wall corrects a wall time or a latency.
func (h hostNoise) cpu(t float64) float64 { return t / h.slowdown }
func (h hostNoise) wall(t float64) float64 {
	return t * (1 - h.stealShare) * (1 - h.busyShare*(1-1/h.slowdown))
}
