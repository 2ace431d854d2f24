package main

import (
	"sync"
	"time"
)

// The host-speed probe. On a shared host the same work takes 10 s in one
// minute and 18 s in another: neighbours contend for the last-level cache
// and DRAM, which the simulator leans on, while plain arithmetic is hardly
// affected. No 30-second window averages that out. So while the measured
// work runs, the driver samples a small fixed kernel of its own — a third
// arithmetic, a third cache-resident random access, a third DRAM random
// access — and every end-to-end time is reported scaled to the speed the
// probe saw: raw time x probeNominalNS / probe time. The probe lives in the
// benchmark, so no change to the program can move it; the raw times and
// the factor are printed beside the scaled ones.

const (
	// probePeriod is how often the probe runs; a sample takes about 1.7 ms,
	// so the probe uses about 3 % of one CPU.
	probePeriod = 50 * time.Millisecond

	// probeNominalNS is one sample's time on the baseline box in a quiet
	// minute with both CPUs busy. It only fixes the unit: a host of another
	// speed scales every workload's times by one constant.
	probeNominalNS = 1.45e6
)

// The probe's two working sets, allocated and touched by the first
// startProbe: child processes never pay for them.
var (
	probeOnce  sync.Once
	probeCache []uint64 // 8 MiB: misses L2, mostly hits the LLC
	probeDRAM  []uint64 // 64 MiB: misses the LLC
)

// probeSample runs the kernel once and returns its duration.
func probeSample() time.Duration {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 300_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x
	}
	acc += chase(probeCache, 44, 30_000)
	acc += chase(probeDRAM, 41, 10_000)
	sink += acc
	return time.Since(t0)
}

// chase makes n dependent read-modify-writes at pseudo-random slots of buf,
// whose length is 1 << (64 - shift).
func chase(buf []uint64, shift uint, n int) uint64 {
	idx, acc := uint64(1), uint64(0)
	for i := 0; i < n; i++ {
		idx = idx*2862933555777941757 + 3037000493
		acc += buf[idx>>shift]
		buf[idx>>shift] = acc
	}
	return acc
}

// hostProbe samples the kernel in the background until stopped.
type hostProbe struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // nanoseconds; owned by the goroutine until done closes
}

func startProbe() *hostProbe {
	probeOnce.Do(func() {
		probeCache, probeDRAM = make([]uint64, 1<<20), make([]uint64, 1<<23)
		for i := 0; i < len(probeDRAM); i += 512 { // fault every page in now, not inside a sample
			probeDRAM[i] = uint64(i)
		}
		for i := 0; i < len(probeCache); i += 512 {
			probeCache[i] = uint64(i)
		}
	})
	// Room for ten minutes of samples up front: the probe must not allocate
	// while a rung counts the process's allocations.
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{}), samples: make([]float64, 0, 12_000)}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.samples = append(p.samples, float64(probeSample().Nanoseconds()))
			}
		}
	}()
	return p
}

// finish stops the probe and returns the factor that scales a time measured
// while it ran to the nominal host speed. The probe time it rests on is the
// mean of the middle half of the samples: a sample that was descheduled
// half-way says nothing about the memory system.
func (p *hostProbe) finish() float64 {
	close(p.stop)
	<-p.done
	probeNS := midMean(p.samples)
	if probeNS == 0 {
		return 1 // the measured phase was shorter than one period
	}
	return probeNominalNS / probeNS
}

// midMean is the mean of the middle half of xs (all of xs below four
// samples); 0 for none.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if k := len(s) / 4; k > 0 {
		s = s[k : len(s)-k]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
