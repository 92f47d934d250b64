package main

// Host-speed calibration. The reference host is a small virtual machine
// on a shared box: for seconds or minutes at a time a neighbour makes
// the same code run up to 1.9 times slower (user CPU time rises with the
// wall clock, steal time does not), and no run is long enough to average
// that out. So the benchmark times a fixed kernel of its own every half
// second of the window, and reports every time of the untraced pass in
// reference-host time: the time measured, divided by how much slower than
// kernelRefMs the kernel ran beside it, for the share of the work that
// slows as the kernel does. See README.md, "Reference-host time".
//
// The kernel is frozen. It shares no code with the module under test, so
// no change to the module can move it; changing the kernel itself, its
// sizes, kernelRefMs or a workload's shares moves the time-valued
// end-to-end metrics and needs a new baseline.

import (
	"math/bits"
	"sync"
	"time"
)

const (
	// kernelRefMs is what one kernel repetition takes on the reference host
	// when it has its cores to itself.
	kernelRefMs = 1.8
	// kernelReps is how many repetitions each thread times per calibration
	// point; the thread's median is kept, so a repetition that shared its
	// core with a collector thread of this process does not count.
	kernelReps = 12
	// segment is how long the closed loop runs between two calibration points.
	segment = 500 * time.Millisecond
)

const (
	matN     = 96      // the kernel's matrices are matN × matN words: in the level-2 cache
	vecN     = 4096    // the kernel's vectors: in the level-1 cache
	vecTurns = 88      // passes over the vectors per repetition
	pageN    = 4096    // words written per chunk, as a fresh allocation is
	chunks   = 240     // chunks written per repetition
	arenaN   = 1 << 19 // words of the arena the chunks cycle through (4 MiB)
	mersenne = 1<<61 - 1
)

// kernelMem is one thread's working memory, allocated once: the kernel
// must not allocate, or it would move the collector's schedule under the
// ops it sits between.
type kernelMem struct {
	a, b, c []uint64
	v, w    []uint64
	arena   []uint64
	chunk   int
	sum     uint64
}

func newKernelMem() *kernelMem {
	m := &kernelMem{
		a: make([]uint64, matN*matN), b: make([]uint64, matN*matN), c: make([]uint64, matN*matN),
		v: make([]uint64, vecN), w: make([]uint64, vecN),
		arena: make([]uint64, arenaN),
	}
	for i := range m.a {
		m.a[i] = uint64(i)*2654435761 + 1
		m.b[i] = uint64(i)*40503 + 7
	}
	for i := range m.v {
		m.v[i] = uint64(i)*2654435761 + 12345
		m.w[i] = uint64(i)*40503 + 977
	}
	return m
}

// rep is one repetition of the kernel: the three things the module's hot
// loops do, in equal parts. A word-matrix product (loads,
// multiply-adds and stores on level-2 data), modular products of two
// vectors over the Mersenne prime 2^61-1 (128-bit multiplies on level-1
// data), and writing fresh chunks of memory.
func (m *kernelMem) rep() {
	for i := 0; i < matN; i++ {
		out := m.c[i*matN : (i+1)*matN]
		for k := 0; k < matN; k++ {
			x := m.a[i*matN+k] & 0xffffffff
			row := m.b[k*matN : (k+1)*matN]
			for j := range row {
				out[j] += x * (row[j] & 0xffffff)
			}
		}
	}
	for t := 0; t < vecTurns; t++ {
		for i := range m.v {
			hi, lo := bits.Mul64(m.v[i], m.w[i])
			x := lo&mersenne + (lo>>61 | hi<<3)
			if x >= mersenne {
				x -= mersenne
			}
			m.v[i] = x
		}
	}
	for n := 0; n < chunks; n++ {
		m.chunk = (m.chunk + 1) % (arenaN / pageN)
		page := m.arena[m.chunk*pageN : (m.chunk+1)*pageN]
		clear(page)
		for j := range page {
			page[j] = uint64(j)
		}
		m.sum += page[17]
	}
	m.sum += m.c[5] + m.v[7]
}

// calibrator times the kernel on as many threads as the ops may use.
type calibrator struct {
	mem []*kernelMem
}

func newCalibrator(threads int) *calibrator {
	c := &calibrator{mem: make([]*kernelMem, threads)}
	for i := range c.mem {
		c.mem[i] = newKernelMem()
	}
	return c
}

// single is the calibrator for single-threaded work: the same kernel on
// one thread.
func (c *calibrator) single() *calibrator {
	if c == nil {
		return nil
	}
	return &calibrator{mem: c.mem[:1]}
}

// point is one calibration point: every thread times kernelReps
// repetitions at once and keeps its median; the point is the mean of the
// threads' medians, in milliseconds. A nil calibrator reports the
// reference host's own time, so times beside it stay as measured.
func (c *calibrator) point() float64 {
	if c == nil {
		return kernelRefMs
	}
	medians := make([]float64, len(c.mem))
	var wg sync.WaitGroup
	for t, m := range c.mem {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps := make([]float64, kernelReps)
			for r := range reps {
				start := time.Now()
				m.rep()
				reps[r] = ms(time.Since(start))
			}
			medians[t] = median(reps)
		}()
	}
	wg.Wait()
	return mean(medians)
}

// scale turns the kernel times on both sides of a stretch of work into
// the factor that converts the stretch's times to reference-host time.
// share is the part of the work that slows down as the kernel does; the
// rest — system calls, socket round trips, waiting — takes what it takes
// on any host. So work that took t beside a kernel time k would have taken
// t / (share·k/kernelRefMs + 1 − share) on the reference host.
func scale(before, after, share float64) float64 {
	slowdown := (before + after) / 2 / kernelRefMs
	return 1 / (share*slowdown + 1 - share)
}
