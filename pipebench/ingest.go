package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/mqtt"
	"dcdb/internal/store"
)

const (
	ingestSensors = 4096 // topics published to
	burstReadings = 60   // readings per message on ingest-burst: a minute of 1 s samples
	// inflightPerConn is the number of QoS-1 publishes outstanding on
	// each MQTT connection (one publisher goroutine each).
	inflightPerConn = 8
	// registerRate is the pace, in messages per second, at which set-up
	// publishes one single-reading message to every topic: the same
	// load on both ingest workloads, at ingest-continuous's rate.
	registerRate = ingestSensors
	// sampleSensors are read back at QUORUM after an ingest run.
	sampleSensors = 16
	// handleMessages are fed to Agent.Handle directly in a traced run
	// to split the agent's own time from the backend call.
	handleMessages = 2000

	// walSyncInterval is the WAL group-commit interval on every node,
	// the embedded collect agent's default (-wal-sync 50ms). The
	// ingest workloads take it from the -wal-sync flag.
	walSyncInterval = 50 * time.Millisecond
	// ingestCacheBytes is each node's block cache on the ingest
	// workloads.
	ingestCacheBytes = 8 << 20
	// continuousFlushSize is each node's memtable budget in entries on
	// ingest-continuous (1024 per lock stripe), a quarter of the store's
	// default: at 4096 readings/s every stripe spills several times in
	// a 10 s run, so the figures describe the steady state, not the
	// first spill. ingest-burst stores over 20 times as many readings
	// per second and keeps the default budget, which already spills
	// more than ten times per node in a run.
	continuousFlushSize = 16384
)

// ingestShape is what distinguishes the two ingest workloads.
type ingestShape struct {
	perMsg    int     // readings per MQTT message
	flushSize int     // node memtable budget in entries
	rate      float64 // messages offered per second
}

// The offered rates are fixed, as in the paper's CPU-load-versus-
// insert-rate evaluation, at about half of what the stack sustains on a
// 2-vCPU host without steal (about 9 k messages/s on ingest-continuous,
// 3.2 k on ingest-burst). CPU per reading depends on the load level
// through batching in the broker, the RPC layer and the WAL, and peak
// RSS and disk bytes per reading depend on the volume a run stores; a
// fixed rate fixes both.
var (
	continuousShape = ingestShape{perMsg: 1, flushSize: continuousFlushSize, rate: ingestSensors}
	burstShape      = ingestShape{perMsg: burstReadings, flushSize: store.DefaultFlushSize, rate: ingestSensors * 3 / 8}
)

// ingestRig is a running write path: the storage pipeline, a collect
// agent on loopback, nproc MQTT connections to it and the load
// generator driving them.
type ingestRig struct {
	p     *pipeline
	agent *collectagent.Agent
	conns []*mqtt.Client
	pb    *publisher
}

func (r *ingestRig) close() error {
	for _, c := range r.conns {
		c.Close()
	}
	var first error
	if r.agent != nil {
		first = r.agent.Close()
	}
	if err := r.p.close(); err != nil && first == nil {
		first = err
	}
	if err := os.RemoveAll(r.p.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// buildIngest starts the write path and publishes one single-reading
// message to every topic, so topic→SID mapping, the hierarchy and the
// sensor cache hold every sensor before the timed phase starts.
func buildIngest(dir string, tr *tracer, cfg runConfig, shape ingestShape) (*ingestRig, error) {
	clock := newIngestClock(ingestSensors)
	disk := store.DiskOptions{SyncInterval: cfg.walSync, CacheBytes: ingestCacheBytes}
	p, err := openPipeline(dir, tr, shape.flushSize, disk, clock)
	if err != nil {
		return nil, err
	}
	r := &ingestRig{p: p, agent: collectagent.New(p.front, nil, collectagent.Options{Quiet: true})}
	if err := r.agent.Listen("127.0.0.1:0"); err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c, err := mqtt.Dial(r.agent.Addr(), mqtt.DialOptions{ClientID: fmt.Sprintf("pipebench-%d", i)})
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	r.pb = &publisher{rig: r, tr: tr, clock: clock, seed: cfg.seed, perMsg: shape.perMsg, rate: shape.rate,
		topics: make([]string, ingestSensors), next: make([]int, ingestSensors)}
	for k := range r.pb.topics {
		r.pb.topics[k] = ingestTopic(k)
	}
	_, err = r.pb.publish(ingestSensors, registerRate, 1, false)
	if err == nil {
		err = r.pb.awaitStored()
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("registering topics: %w", err)
	}
	return r, nil
}

// publisher is the load generator. Publisher goroutine g owns the
// sensors k ≡ g (mod goroutines) and publishes their next messages in
// turn, so each sensor's messages go out in order from one goroutine.
// Each goroutine has one publish outstanding at a time, and message m
// of a phase is not published before m/rate seconds into it.
type publisher struct {
	rig    *ingestRig
	tr     *tracer
	clock  *ingestClock
	seed   int64
	perMsg int
	rate   float64
	topics []string
	next   []int // per sensor: index of its next reading

	messages atomic.Int64
	readings atomic.Int64
}

// message makes sensor k's next message, of n readings.
func (pb *publisher) message(k, n int) (ts0 int64, payload []byte) {
	j0 := pb.next[k]
	rs := series(pb.seed, k, j0, n)
	pb.clock.published(k, j0, pb.tr.now())
	return rs[0].Timestamp, core.EncodeReadings(rs)
}

// sent accounts for a message of n readings to sensor k.
func (pb *publisher) sent(k, n int) {
	pb.next[k] += n
	pb.messages.Add(1)
	pb.readings.Add(int64(n))
}

// publish publishes total messages of perMsg readings, paced at rate
// messages per second, and returns how late the last one went out
// against its schedule.
func (pb *publisher) publish(total int, rate float64, perMsg int, traced bool) (time.Duration, error) {
	conns := pb.rig.conns
	g := len(conns) * inflightPerConn
	start := time.Now()
	errs := make([]error, g)
	lates := make([]time.Duration, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := conns[i%len(conns)]
			k := i
			for m := i; m < total; m += g {
				due := start.Add(time.Duration(float64(m) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				} else {
					lates[i] = -wait
				}
				ts0, payload := pb.message(k, perMsg)
				at := pb.tr.now()
				err := c.Publish(pb.topics[k], payload, 1)
				if traced {
					pb.tr.record(kPublish, opInsert, -1, ts0, at, int64(perMsg))
				}
				if err != nil {
					errs[i] = fmt.Errorf("publish %s: %w", pb.topics[k], err)
					return
				}
				pb.sent(k, perMsg)
				if k += g; k >= ingestSensors {
					k = i
				}
			}
		}(i)
	}
	wg.Wait()
	var late time.Duration
	for i, err := range errs {
		if err != nil {
			return 0, err
		}
		late = max(late, lates[i])
	}
	return late, nil
}

// handleDirect feeds n messages to Agent.Handle from one goroutine,
// bypassing MQTT, with a span around each call.
func (pb *publisher) handleDirect(n int) {
	for i := 0; i < n; i++ {
		k := i % ingestSensors
		ts0, payload := pb.message(k, pb.perMsg)
		start := pb.tr.now()
		pb.rig.agent.Handle(pb.topics[k], payload)
		pb.tr.record(kHandle, opInsert, -1, ts0, start, int64(pb.perMsg))
		pb.sent(k, pb.perMsg)
	}
}

// awaitStored waits until every published reading is stored (or its
// write failed).
func (pb *publisher) awaitStored() error {
	want := pb.readings.Load()
	deadline := time.Now().Add(60 * time.Second)
	for pb.clock.readings.Load()+pb.clock.lost.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d published readings stored after 60 s", pb.clock.readings.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// measure publishes for d at the shape's rate and waits until every
// reading is stored. With drain it also flushes and compacts, so the
// phase's CPU time covers every spill and compaction its readings
// cause, not just those that happened to run before the last write
// returned.
func (pb *publisher) measure(d time.Duration, traced, drain bool) (phaseStats, error) {
	p := pb.rig.p
	pb.clock.take()
	pb.clock.rec.Store(true)
	pb.tr.on.Store(traced)
	r0, m0 := pb.clock.readings.Load(), pb.messages.Load()
	cnt0, net0, pay0 := p.counters(), p.netBytes(), payloadBytes(pb.rig.agent)
	env := startEnv()
	t0, c0 := time.Now(), cpuNow()
	total := int(pb.rate * d.Seconds())
	late, err := pb.publish(total, pb.rate, pb.perMsg, traced)
	fmt.Fprintf(os.Stderr, "pipebench: %d messages offered at %.0f/s, the last %v behind schedule\n", total, pb.rate, late.Round(time.Millisecond))
	if err == nil {
		err = pb.awaitStored()
	}
	if err == nil && drain {
		err = p.settle()
	}
	active, c1 := time.Since(t0), cpuNow()
	pb.tr.on.Store(false)
	pb.clock.rec.Store(false)
	var ph phaseStats
	env.finish(&ph)
	if err != nil {
		return ph, err
	}
	ph.readings = pb.clock.readings.Load() - r0
	ph.ops = pb.messages.Load() - m0
	ph.cpu = c1 - c0
	ph.active = active
	ph.lats = map[string][]int64{"message": pb.clock.take()}
	ph.net = p.netBytes() - net0
	ph.cnt = p.counters().sub(cnt0)
	ph.cnt.payloadBytes = payloadBytes(pb.rig.agent) - pay0
	if ph.readings == 0 || len(ph.lats["message"]) == 0 {
		return ph, fmt.Errorf("no reading stored in %v", d)
	}
	return ph, nil
}

func payloadBytes(a *collectagent.Agent) float64 {
	for _, s := range a.Metrics().Gather() {
		if s.Name == "dcdb_agent_broker_payload_bytes_total" {
			return s.Value
		}
	}
	return 0
}

func runIngest(cfg runConfig, shape ingestShape) (*result, error) {
	tr := newTracer()
	rig, setupS, err := timedSetups(func(round int) (*ingestRig, error) {
		return buildIngest(filepath.Join(cfg.work, fmt.Sprintf("setup%d", round)), tr, cfg, shape)
	}, (*ingestRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	pb, clock := rig.pb, rig.pb.clock
	res := &result{Correct: true, Metrics: map[string]metric{}}

	var untraced, traced phaseStats
	if !cfg.trace {
		untraced, err = pb.measure(cfg.seconds, false, true)
		if err != nil {
			return nil, err
		}
	} else {
		// The halves do not drain: the second half's compaction would
		// also rewrite the first half's data and tilt the comparison.
		if untraced, err = pb.measure(cfg.seconds/2, false, false); err != nil {
			return nil, err
		}
		if traced, err = pb.measure(cfg.seconds/2, true, false); err != nil {
			return nil, err
		}
		tr.on.Store(true)
		pb.handleDirect(handleMessages)
		tr.on.Store(false)
	}
	res.Attempted = pb.messages.Load()

	// Outputs: the agent stored every published reading, every message
	// was timed, and a seeded sample of sensors reads back exactly.
	var problems []error
	readings := pb.readings.Load()
	if err := checkAgent(rig.agent.Stats(), pb.messages.Load(), readings); err != nil {
		problems = append(problems, err)
	}
	if n := clock.mismatches.Load() + clock.failures.Load(); n != 0 {
		problems = append(problems, fmt.Errorf("%d stored messages did not match a publish or failed", n))
	}
	conn := libdcdb.Connect(rig.p.front, rig.agent.Mapper())
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < sampleSensors; i++ {
		k := rng.Intn(ingestSensors)
		res.Attempted++
		n := pb.next[k]
		if n == 0 {
			continue // never published: nothing to read back
		}
		var got []core.Reading
		st, err := conn.QueryStream(pb.topics[k], tsBase, tsOf(k, n-1))
		if err == nil {
			got, err = drain(nil, st)
		}
		if err == nil {
			err = checkSeries(cfg.seed, k, 0, n, got)
		}
		if err != nil {
			problems = append(problems, fmt.Errorf("read-back of %s: %w", pb.topics[k], err))
		}
	}
	if err := rig.p.settle(); err != nil {
		problems = append(problems, err)
	}
	disk := rig.p.diskBytes()
	for _, err := range problems {
		fmt.Fprintln(os.Stderr, "pipebench: check failed:", err)
		res.Correct = false
	}

	return report(res, cfg, tr, setupS, untraced, traced, float64(disk)/float64(readings), disk)
}

// drain appends a stream's readings to out until the stream ends, then
// closes it.
func drain(out []core.Reading, st store.ReadingStream) ([]core.Reading, error) {
	for {
		rs, err := st.Next()
		out = append(out, rs...)
		if err != nil {
			st.Close()
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
	}
}
