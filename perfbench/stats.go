package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least a q share of samples at or below it).
// xs is not modified; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB is the process's current resident set size in MiB, read from
// /proc/self/statm; ok is false where that file does not exist.
func rssMB() (mb float64, ok bool) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}

// rssPeak samples the resident set every 10ms until stop is closed and
// then sends the highest sample (or, without /proc, the process's
// lifetime peak).
func rssPeak(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		peak := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, ok := rssMB()
			if !ok {
				<-stop
				out <- peakRSSMB()
				return
			}
			peak = max(peak, mb)
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostCPU is the machine's CPU accounting from the aggregate line of
// /proc/stat, in clock ticks summed over all CPUs: time spent running
// (user, nice, system, irq, softirq) and time stolen by the hypervisor,
// and how many CPUs the machine has.
type hostCPU struct {
	busy, steal uint64
	cpus        int
}

// readHostCPU reads /proc/stat; where it cannot, it returns zeros, and
// every steal share reads 0.
func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	lines := strings.Split(string(raw), "\n")
	f := strings.Fields(lines[0])
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already part of user.
	var h hostCPU
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			h.steal = n
		default:
			h.busy += n
		}
	}
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "cpu") && len(l) > 3 && l[3] >= '0' && l[3] <= '9' {
			h.cpus++
		}
	}
	return h
}

// stealShare is the share of the CPU time the machine wanted between two
// readings that the hypervisor gave to other guests instead: time in
// which ready threads could not run. On a shared virtual machine it is
// the interference a measurement cannot control. Idle time does not
// count, so a lightly loaded window is judged by what it asked for.
func stealShare(a, b hostCPU) float64 {
	steal, busy := b.steal-a.steal, b.busy-a.busy
	if steal+busy == 0 {
		return 0
	}
	return float64(steal) / float64(steal+busy)
}

// clockTicks is the unit of /proc/stat: USER_HZ, 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// maxSteal caps the share of an interval taken out as stolen, since
// tick counting can overshoot on short intervals.
const maxSteal = 0.9

// stolenShare is the share of an interval of length d, between readings
// a and b, that the hypervisor took from each of the machine's CPUs on
// average: stolen CPU time per CPU over d. A thread that wants a CPU
// only now and then, like a request waiting on timers and the network
// most of its time, loses about this share of its time to steal.
func stolenShare(d time.Duration, a, b hostCPU) float64 {
	if b.cpus == 0 || d <= 0 {
		return 0
	}
	stolen := float64(b.steal-a.steal) / clockTicks / float64(b.cpus)
	return min(max(stolen/d.Seconds(), 0), maxSteal)
}

// unstolen is the length d of a CPU-bound interval with the steal taken
// out: a thread that always wants a CPU loses the steal share of its
// time to the shared host's other guests, so the interval would have
// lasted d·(1 − steal share) had they left the CPUs alone. Time figures
// are reported with the steal taken out, because it comes in stretches
// of seconds to minutes, takes 10–60% of the CPU the machine wants and
// would otherwise decide the figure.
func unstolen(d time.Duration, a, b hostCPU) time.Duration {
	return time.Duration(float64(d) * (1 - min(stealShare(a, b), maxSteal)))
}
