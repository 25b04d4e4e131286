package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow returns the process's CPU time (all threads, user + system)
// from CLOCK_PROCESS_CPUTIME_ID, which is exact rather than tick
// sampled.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuStat is the machine-wide "cpu" line of /proc/stat, in ticks.
type cpuStat struct{ busy, steal uint64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// stealShare is the share of busy CPU time the hypervisor stole
// between two samples.
func stealShare(a, b cpuStat) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// gcCPU returns the runtime's estimate of GC CPU seconds and total CPU
// seconds available to the Go scheduler.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
