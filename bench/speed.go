package main

import "time"

// The host-speed reference. On a shared host the speed of the machine
// drifts by a quarter over minutes while the code stays the same, and
// every op of a run drifts with it. Each measuring process therefore
// first times a fixed reference loop, code of the benchmark's own that
// no change to the system under test can speed up, and the end-to-end
// timings are divided by the loop's measured time over its nominal time:
// milliseconds at the reference machine's nominal speed.
//
// The loop is integer arithmetic on registers. It touches no memory, so
// where a process's pages happen to land does not move it; loops that
// walk a table or allocate varied by up to a half from one process to
// the next on the reference machine. Over six minutes of drift its time
// correlated at 0.95 with a crash op's.

// refNominalMs is the loop's median time on the reference machine
// (bench/README.md, Calibration).
const refNominalMs = 10.0

// refReps is how many times a process times the loop; it keeps the
// median.
const refReps = 5

// hostSlowdown times the reference loop refReps times and returns its
// median time over refNominalMs: above 1 on a host slower than nominal.
func hostSlowdown() float64 {
	times := make([]float64, refReps)
	for r := range times {
		start := time.Now()
		refLoop()
		times[r] = ms(time.Since(start))
	}
	return quantile(times, 0.5) / refNominalMs
}

// refLoop is five million rounds of xorshift64.
func refLoop() {
	x := uint64(88172645463325252)
	for i := 0; i < 5_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
}
