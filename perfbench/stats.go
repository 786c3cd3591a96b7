package main

import (
	"bufio"
	"math/bits"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is a log-linear duration histogram (nanoseconds) with 512 linear
// sub-buckets per power of two. Quantiles interpolate linearly inside the
// bucket that holds the rank, so two runs of similar speed read as
// different numbers instead of snapping to one bucket edge. Its memory is
// fixed at construction, so recording never grows the heap the benchmark
// reports. record is safe for concurrent use; read it once the recorders
// are done.
type hist struct {
	counts []uint32
	n      int64
}

const (
	histSubBits = 9
	histSub     = 1 << histSubBits
	histRows    = 40 - histSubBits + 1 // values up to 2^40 ns (~18 min)
)

func newHist() *hist { return &hist{counts: make([]uint32, histRows*histSub)} }

// histBucket maps v to its bucket index.
func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits // row >= 1
	if e >= histRows {
		e = histRows - 1
		v = int64(1)<<(histRows-1+histSubBits) - 1
	}
	return e*histSub + int(v>>uint(e-1)) - histSub
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	i := histBucket(v)
	atomic.AddUint32(&h.counts[i], 1)
	atomic.AddInt64(&h.n, 1)
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			var lo, width int64
			if i < histSub {
				lo, width = int64(i), 1
			} else {
				row, sub := i/histSub, int64(i%histSub)
				shift := uint(row - 1)
				lo, width = (histSub+sub)<<shift, int64(1)<<shift
			}
			return float64(lo) + (rank-cum)/float64(c)*float64(width)
		}
		cum += float64(c)
	}
	return 0
}

// median returns the median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procIO returns the process's read and write syscall counts from
// /proc/self/io (zeros where the file does not exist).
func procIO() (syscr, syscw int64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// heapSampler polls the Go heap's live bytes (what the latest garbage
// collection found reachable) without stopping the world, and keeps the
// peak of each span between cuts. Live bytes, unlike the heap in use, do
// not swing with where the collector happens to be in its cycle when a
// sample is taken.
type heapSampler struct {
	stop   chan struct{}
	done   chan struct{}
	final  func() bool   // when set and true, the span's peak is final
	window atomic.Uint64 // peak since the last cut
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler polls every interval. final, if not nil, freezes the
// current span's peak once it returns true.
func startHeapSampler(every time.Duration, final func() bool) *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), final: final}
	hs.window.Store(liveHeap())
	go func() {
		defer close(hs.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			hs.raise(liveHeap())
			select {
			case <-hs.stop:
				return
			case <-t.C:
			}
		}
	}()
	return hs
}

func (hs *heapSampler) raise(v uint64) {
	if hs.final != nil && hs.final() {
		return
	}
	for old := hs.window.Load(); v > old && !hs.window.CompareAndSwap(old, v); old = hs.window.Load() {
	}
}

// cut ends a span: it returns the span's peak in bytes and starts the
// next one from the live bytes now.
func (hs *heapSampler) cut() uint64 {
	hs.raise(liveHeap())
	return hs.window.Swap(liveHeap())
}

// finish stops the sampler.
func (hs *heapSampler) finish() {
	close(hs.stop)
	<-hs.done
}
