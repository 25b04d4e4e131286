// Command pipebench drives DCDB's real pipeline in one process and
// reports end-to-end and per-layer metrics as one JSON line.
//
// Write path: a load generator publishes QoS-1 MQTT messages to a
// collectagent.Agent, which writes through a store.Cluster
// (replication 3, QUORUM) to three durable store.Nodes, each behind its
// own rpc.Server on loopback. Read path: libdcdb.Connection and
// Cluster.QueryPrefixStream over the same stack. See README.md.
//
// Usage:
//
//	go run . --workload ingest-continuous --seed 1 --seconds 10 --trace 0
//
// run.sh builds and runs it from the repository root with the build
// cache kept under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory for node data and trace files
	walSync  time.Duration
}

// setupRounds is how many times each run builds its pipeline; setup_s
// is the median, and the last build is the one measured.
const setupRounds = 5

var workloads = map[string]func(runConfig) (*result, error){
	"ingest-continuous": func(c runConfig) (*result, error) { return runIngest(c, continuousShape) },
	"ingest-burst":      func(c runConfig) (*result, error) { return runIngest(c, burstShape) },
	"query-stream":      func(c runConfig) (*result, error) { return runQuery(c, streamMix) },
	"query-fold":        func(c runConfig) (*result, error) { return runQuery(c, foldMix) },
}

func main() {
	workload := flag.String("workload", "", "workload to run (ingest-continuous, ingest-burst, query-stream, query-fold)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for node data and trace files")
	walSync := flag.Duration("wal-sync", walSyncInterval, "WAL group-commit interval on the ingest workloads; 0 fsyncs before every acknowledged write (reference figure only)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "pipebench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*work, "run-"+strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, work: dir, walSync: *walSync}
	res, err := run(cfg)
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// timedSetups runs build setupRounds times, tearing down every build but
// the last, and returns the last build with the median of the process
// CPU seconds the builds took. CPU time rather than wall time: the
// kernel leaves hypervisor steal out of it, which on a shared 2-vCPU
// host doubled set-up wall time from one run to the next; both are
// printed on standard error.
func timedSetups[T any](build func(round int) (T, error), teardown func(T) error) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupRounds)
	for r := 0; r < setupRounds; r++ {
		runtime.GC()
		start, c0 := time.Now(), cpuNow()
		v, err := build(r)
		if err != nil {
			return last, 0, fmt.Errorf("setup %d: %w", r, err)
		}
		times = append(times, (cpuNow() - c0).Seconds())
		fmt.Fprintf(os.Stderr, "pipebench: setup %d: %.3f s cpu, %.3f s wall\n", r, times[r], time.Since(start).Seconds())
		if r < setupRounds-1 {
			if err := teardown(v); err != nil {
				return last, 0, fmt.Errorf("teardown %d: %w", r, err)
			}
			continue
		}
		last = v
	}
	sort.Float64s(times)
	return last, times[len(times)/2], nil
}

// mean returns the arithmetic mean, 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
