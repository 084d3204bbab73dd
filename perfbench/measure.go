package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// procSnap is a process-wide reading taken at a phase boundary, never
// inside a timed phase: ReadMemStats briefly stops the world.
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

func takeSnap() procSnap {
	at := time.Now()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		at:      at,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// heapPeak samples heap-in-use (object bytes plus the free space inside
// in-use spans, i.e. MemStats.HeapInuse) through runtime/metrics, which
// does not stop the world, and keeps the maximum.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapSampleEvery = time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
