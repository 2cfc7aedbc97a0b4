package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few processors of a shared host, and how fast
// the host runs a thread swings by a quarter and more within minutes, as
// its neighbours come and go. Every timing of the program's work is
// therefore reported at a reference host speed: a probe times a fixed
// unit of the benchmark's own work beside the workload, and each raw time
// is divided by the host's slowness over the same stretch, predicted from
// the probe. The probe does not see the program's work, so a change to
// the program moves the scaled figures as it moves the raw ones; the
// host's swings move them much less. The raw figures are printed beside
// the scaled ones.

// hostElasticity is how much more the program's work slows than the
// probe's unit when the host slows: the host's slowness is the unit's
// time over refProbe, raised to this power. Over 15 runs of each
// workload, the log of each closed loop's raw rate and of set-up time
// against the log of the unit's time had slopes of 1.7 to 2.1
// (correlation 0.78 to 0.98); see README.md.
const hostElasticity = 2

// refProbe is the probe unit's time on the reference host. Figures are
// scaled to a host on which the unit takes exactly this long, about its
// median on the 2-vCPU Xeon the bounds were set on.
const refProbe = 400 * time.Microsecond

// probeEvery is how often the probe times its unit. At about 0.4 ms a
// unit it takes under 1% of one processor.
const probeEvery = 50 * time.Millisecond

// probeSample is one timing of the probe's unit: when it finished and the
// thread CPU time it took.
type probeSample struct {
	at time.Time
	ns float64
}

// hostProbe times the probe's unit on a locked OS thread every
// probeEvery, by that thread's CPU clock. Time the thread spends waiting
// for a processor is not counted, so the samples follow how fast the
// host runs a thread at that moment, not how busy the workload keeps the
// processors.
type hostProbe struct {
	stop    chan struct{}
	done    chan struct{}
	samples hostSpeed
}

func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			c0 := threadCPU()
			probeUnit()
			ns := float64(threadCPU() - c0)
			p.samples = append(p.samples, probeSample{at: time.Now(), ns: ns})
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// halt stops the probe, waits for it to exit and returns its samples.
func (p *hostProbe) halt() hostSpeed {
	close(p.stop)
	<-p.done
	return p.samples
}

// hostSpeed is a probe's samples in time order.
type hostSpeed []probeSample

// slowness is how much slower than the reference host the program ran
// between from and to: the median unit time of the samples taken then,
// over refProbe, to the power hostElasticity. 1.21 means the program's
// work took 21% longer than on the reference host. A stretch with no
// sample in it takes the median of all samples.
func (h hostSpeed) slowness(from, to time.Time) float64 {
	var xs []float64
	for _, s := range h {
		if !s.at.Before(from) && !s.at.After(to) {
			xs = append(xs, s.ns)
		}
	}
	if len(xs) == 0 {
		return h.overall()
	}
	return math.Pow(median(xs)/float64(refProbe), hostElasticity)
}

// overall is the slowness over every sample, 1 if there are none.
func (h hostSpeed) overall() float64 {
	if len(h) == 0 {
		return 1
	}
	return math.Pow(h.unitNs()/float64(refProbe), hostElasticity)
}

// unitNs is the median unit time over every sample, in ns.
func (h hostSpeed) unitNs() float64 {
	xs := make([]float64, len(h))
	for i, s := range h {
		xs[i] = s.ns
	}
	return median(xs)
}

// since returns the slowness over offsets from start, the form
// blockStats takes.
func (h hostSpeed) since(start time.Time) func(from, to time.Duration) float64 {
	return func(from, to time.Duration) float64 { return h.slowness(start.Add(from), start.Add(to)) }
}

// probeSink keeps the probe's result live so the compiler cannot drop
// the loop.
var probeSink uint64

// probeUnit is the probe's fixed unit of work: integer and floating-point
// arithmetic over a 4 KiB array that stays in the first-level cache.
// Over blocks of a closed loop the raw rate moved with the unit's speed
// at an elasticity of 1.13 on the dashboard (correlation 0.81) and 0.79
// on the scoring tier's saturated phase (0.61). Units that wait on memory
// tracked the scoring tier better, but the caches and memory they wait on
// are shared with the program's own heap of 0.3–1.3 GB, so they would
// scale away part of any change to the program's memory traffic. This
// unit took 407 µs alone and 409 µs beside two threads decoding JSON.
func probeUnit() {
	var a [512]float64
	x := uint64(0x9e3779b97f4a7c15)
	s := 0.0
	for it := 0; it < 256; it++ {
		for i := range a {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			a[i] = a[i]*0.999 + float64(x>>40)
			s += a[i]
		}
	}
	probeSink += x + uint64(s)
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
