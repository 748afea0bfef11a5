package main

import (
	"runtime"
	"time"
)

// Host speed calibration. The machine a run shares with other tenants
// changes speed from minute to minute: between two runs of one workload
// the host CPU time per op moved by up to 40%. A run therefore
// interleaves a fixed kernel, owned by the benchmark and independent of
// the program under test, with its set-up and its ops, and scales its
// host CPU figures by calibRefMS over the kernel's median CPU time in the
// run. The scaled figures read as CPU time on a host where the kernel
// takes calibRefMS.
const (
	calibEvery = 100 * time.Millisecond // wall time between two kernel runs
	calibRefMS = 1.0                    // kernel CPU time on the reference host
	calibSteps = 1 << 16                // table probes per kernel run
)

// calibTable is the kernel's working set: 16 KiB, so the kernel runs
// from the first-level cache and its time follows the core's speed, not
// the memory the program under test has touched.
var calibTable = func() []uint32 {
	t := make([]uint32, 4096)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// calibSink keeps the kernel's result live.
var calibSink uint32

// calibKernel is a fixed unit of host work in the shape of an
// interpreter's dispatch loop: pseudo-random loads, each followed by an
// unpredictable branch on the loaded value.
func calibKernel() uint32 {
	var acc uint32
	x := uint32(0x9e3779b9)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := calibTable[x&uint32(len(calibTable)-1)]
		switch v & 3 {
		case 0:
			acc += v
		case 1:
			acc ^= v >> 3
		case 2:
			acc = acc*31 + v
		default:
			acc -= v << 1
		}
	}
	return acc
}

// calibrate runs the kernel once and returns its CPU time in
// milliseconds, read from the calling OS thread's clock alone so that
// work on other threads does not count.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := cpuClock(clockThreadCPUTime)
	calibSink += calibKernel()
	return ms(cpuClock(clockThreadCPUTime) - c0)
}
