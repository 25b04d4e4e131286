package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/core"
)

// The generator's data model is closed form: reading j of sensor k sits
// at tsOf(k, j) and carries valueOf(seed, k, j). Every output check
// recomputes the expected readings from these two functions; nothing is
// compared against a recording of an earlier run.

// tsBase is the first timestamp of every series (2023-11-14, in ns).
const tsBase = int64(1_700_000_000) * int64(time.Second)

// tsStep is the sampling period. Sensor k's readings sit k ns after the
// period boundary, so a timestamp names its sensor and reading index
// (k < tsStep) and the first timestamp of a message identifies the
// message across every layer it crosses.
const tsStep = int64(time.Second)

func tsOf(k, j int) int64 { return tsBase + int64(j)*tsStep + int64(k) }

// splitTS inverts tsOf.
func splitTS(ts int64) (k, j int) {
	d := ts - tsBase
	return int(d % tsStep), int(d / tsStep)
}

// valueOf is a sawtooth mixing sensor, index and seed. Values are
// multiples of 1/4 below 256, so sums of up to 2^40 of them are exact
// in float64 whatever the summation order, and means are reproducible.
func valueOf(seed int64, k, j int) float64 {
	s := uint64(seed) * 2654435761
	x := (uint64(k)*131 + uint64(j)*37 + s) % 1021
	return float64(x) / 4
}

// series returns readings j0..j0+n-1 of sensor k.
func series(seed int64, k, j0, n int) []core.Reading {
	rs := make([]core.Reading, n)
	for i := range rs {
		rs[i] = core.Reading{Timestamp: tsOf(k, j0+i), Value: valueOf(seed, k, j0+i)}
	}
	return rs
}

// ingestTopic names sensor k of the ingest workloads: 16 racks of 16
// hosts of 16 sensors (4096 topics).
func ingestTopic(k int) string {
	return fmt.Sprintf("/bench/r%02d/h%02d/s%02d", k/256, (k/16)%16, k%16)
}

// queryTopic names sensor k of the query dataset: queryHosts hosts of
// querySensorsPerHost sensors each.
func queryTopic(k int) string {
	return fmt.Sprintf("/bench/h%02d/s%02d", k/querySensorsPerHost, k%querySensorsPerHost)
}

// divergentTopic names divergent-read sensor d (fixed, seed-independent).
func divergentTopic(d int) string { return fmt.Sprintf("/bench/div/d%02d", d) }

// ingestClock times every published message from the Publish call to
// the return of the Cluster.InsertBatch that stored it. Each sensor is
// owned by one publisher goroutine that publishes its messages in
// order, and a message is stored long before the same goroutine comes
// back to the sensor, so one start slot per sensor suffices; the
// reading index in the slot detects any mix-up.
type ingestClock struct {
	start []atomic.Int64 // per sensor: publish time, ns since tracer base
	index []atomic.Int64 // per sensor: first reading index of the message in flight

	readings   atomic.Int64 // readings stored
	mismatches atomic.Int64 // messages
	failures   atomic.Int64 // messages
	lost       atomic.Int64 // readings in mismatched or failed messages

	mu   sync.Mutex
	lats []int64 // per message stored while recording: publish → stored, ns
	rec  atomic.Bool
}

func newIngestClock(sensors int) *ingestClock {
	return &ingestClock{start: make([]atomic.Int64, sensors), index: make([]atomic.Int64, sensors)}
}

func (c *ingestClock) published(k, j0 int, at int64) {
	c.index[k].Store(int64(j0))
	c.start[k].Store(at)
}

func (c *ingestClock) stored(ts int64, n int, end int64, err error) {
	if err != nil {
		c.failures.Add(1)
		c.lost.Add(int64(n))
		return
	}
	k, j := splitTS(ts)
	if k < 0 || k >= len(c.start) || c.index[k].Load() != int64(j) {
		c.mismatches.Add(1)
		c.lost.Add(int64(n))
		return
	}
	lat := end - c.start[k].Load()
	c.readings.Add(int64(n))
	if c.rec.Load() {
		c.mu.Lock()
		c.lats = append(c.lats, lat)
		c.mu.Unlock()
	}
}

// take returns and clears the recorded latencies.
func (c *ingestClock) take() []int64 {
	c.mu.Lock()
	s := c.lats
	c.lats = nil
	c.mu.Unlock()
	return s
}

// quantile returns the q-quantile (nearest rank) of xs, sorting it.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	i := int(q*float64(len(xs)-1) + 0.5)
	return xs[i]
}
