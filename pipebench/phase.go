package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// phaseStats are the figures of one measured phase.
type phaseStats struct {
	readings int64
	ops      int64
	cpu      time.Duration
	active   time.Duration      // ingest: wall time; queries: summed latencies, leaving out the checks between queries
	lats     map[string][]int64 // per operation kind: latencies in ns
	net      int64
	cnt      counters
	steal    float64
	gcShare  float64
	peak     int
}

func (ph phaseStats) cpuPerReading() float64 {
	return ph.cpu.Seconds() * 1e6 / float64(ph.readings)
}

// report fills in the run's metrics: the end-to-end figures of the
// untraced phase, or on a traced run the per-layer figures, after which
// the spans are written to trace-<workload>.csv beside the run's work
// directory.
func report(res *result, cfg runConfig, tr *tracer, setupS float64, untraced, traced phaseStats, diskPerReading float64, disk int64) (*result, error) {
	if cfg.trace {
		self := analyze(tr.spans)
		res.Metrics = layerMetrics(tr.spans, self, traced, untraced, disk)
		return res, tr.writeFile(filepath.Join(filepath.Dir(cfg.work), "trace-"+cfg.workload+".csv"))
	}
	ph := untraced
	res.Metrics = map[string]metric{
		"setup_s":                {setupS, "s"},
		"cpu_us_per_reading":     {ph.cpuPerReading(), "us"},
		"disk_bytes_per_reading": {diskPerReading, "B"},
		"max_rss_mb":             {maxRSSMB(), "MB"},
	}
	// Wall-clock figures, for reference only: on a host whose hypervisor
	// steals a varying share of the CPU they do not repeat (README.md).
	fmt.Fprintf(os.Stderr, "pipebench: %d operations, %d readings in %v (%.0f readings/s), steal %.3f, gc %.3f\n",
		ph.ops, ph.readings, ph.active.Round(time.Millisecond), float64(ph.readings)/ph.active.Seconds(), ph.steal, ph.gcShare)
	kinds := make([]string, 0, len(ph.lats))
	for k := range ph.lats {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(os.Stderr, "pipebench: %s p50 %.3f ms over %d\n", k, float64(quantile(ph.lats[k], 0.5))/1e6, len(ph.lats[k]))
	}
	return res, nil
}

// envSampler tracks the environment figures that explain spread over a
// phase: the hypervisor's steal share, the Go GC's CPU share and the
// goroutine peak.
type envSampler struct {
	stat0        cpuStat
	gc0, total0  float64
	peak         int
	stop, exited chan struct{}
}

func startEnv() *envSampler {
	e := &envSampler{stat0: readCPUStat(), peak: runtime.NumGoroutine(), stop: make(chan struct{}), exited: make(chan struct{})}
	e.gc0, e.total0 = gcCPU()
	go e.loop()
	return e
}

func (e *envSampler) loop() {
	defer close(e.exited)
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		if n := runtime.NumGoroutine(); n > e.peak {
			e.peak = n
		}
		select {
		case <-e.stop:
			return
		case <-t.C:
		}
	}
}

// finish stops the sampler and fills in the phase's environment
// figures.
func (e *envSampler) finish(ph *phaseStats) {
	close(e.stop)
	<-e.exited
	gc, total := gcCPU()
	if total > e.total0 {
		ph.gcShare = (gc - e.gc0) / (total - e.total0)
	}
	ph.steal = stealShare(e.stat0, readCPUStat())
	ph.peak = e.peak
}
