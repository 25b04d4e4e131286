package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
	"dcdb/internal/store"
)

// The query dataset: queryHosts hosts of querySensorsPerHost sensors,
// each with queryReadings readings at 1 s. A node's decoded copy is
// 64 × 20480 × 32 B = 40 MiB, 80 times its queryCacheBytes block cache,
// and one sensor's full retention (640 KiB decoded) alone exceeds the
// cache, so range and summary reads are cold by construction.
const (
	queryHosts          = 8
	querySensorsPerHost = 8
	querySensors        = queryHosts * querySensorsPerHost
	queryReadings       = 20480
	queryCacheBytes     = 512 << 10
	loadBatch           = 4096 // readings per InsertBatch while loading

	prefixFrom   = queryReadings * 3 / 4 // prefix reads the newest quarter
	recentWindow = 1024                  // readings a dashboard downsample covers
	recentPoints = 64                    // points it asks for
	// The recent class reads only host 0's sensors: their newest blocks
	// (8 sensors × at most 3 blocks of 16 KiB) fit in the cache.
	recentHot = querySensorsPerHost

	warmupRounds = 4

	divergentSensors  = 4
	divergentReadings = 64
)

type queryClass int

const (
	classRange queryClass = iota
	classPrefix
	classSummary
	classRecent
)

var classNames = [...]string{classRange: "range", classPrefix: "prefix", classSummary: "summary", classRecent: "recent"}

// queryMix is a query workload's round: each class with the number of
// timed queries it runs per round, about 30 ms of work per class on a
// 2-vCPU box. Runs measure whole rounds, and each round adds one
// divergent read per class after the timed phase, so failed/attempted
// is the same fixed share in every run.
type queryMix []struct {
	class queryClass
	n     int
}

var (
	// streamMix reads whole series through the streaming merge.
	streamMix = queryMix{{classRange, 4}, {classPrefix, 2}}
	// foldMix reads folds pushed down to the nodes.
	foldMix = queryMix{{classSummary, 8}, {classRecent, 128}}
)

// queryRig is a loaded, settled read path.
type queryRig struct {
	p      *pipeline
	mapper *core.TopicMapper
	conn   *libdcdb.Connection
}

func (r *queryRig) close() error {
	err := r.p.close()
	if rmErr := os.RemoveAll(r.p.dir); err == nil {
		err = rmErr
	}
	return err
}

var queryDisk = store.DiskOptions{SyncInterval: walSyncInterval, CacheBytes: queryCacheBytes, CompactInterval: -1}

// buildQuery loads the dataset through the cluster, fixes the on-disk
// layout (flush, compact, sync, close, reopen), then plants the
// divergent sensors. The background compactor stays off: after the
// explicit compaction it has nothing to do, and the timed phase must
// not race background work.
func buildQuery(dir string, tr *tracer, seed int64) (*queryRig, error) {
	p, err := openPipeline(dir, tr, 0, queryDisk, nil)
	if err != nil {
		return nil, err
	}
	mapper := core.NewTopicMapper()
	for k := 0; k < querySensors; k++ {
		id, err := mapper.Map(queryTopic(k))
		if err != nil {
			p.close()
			return nil, err
		}
		for j := 0; j < queryReadings; j += loadBatch {
			if err := p.cluster.InsertBatch(id, series(seed, k, j, loadBatch), 0); err != nil {
				p.close()
				return nil, fmt.Errorf("loading %s: %w", queryTopic(k), err)
			}
		}
	}
	err = p.settle()
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if p, err = openPipeline(dir, tr, 0, queryDisk, nil); err != nil {
		return nil, fmt.Errorf("reopening: %w", err)
	}
	r := &queryRig{p: p, mapper: mapper, conn: libdcdb.Connect(p.front, mapper)}
	if err := r.plantDivergent(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// plantDivergent writes each divergent sensor with all replicas up
// (value 1), then rewrites it (value 2) at QUORUM while its primary is
// held down. Hinted handoff and anti-entropy are off, so the primary
// stays stale: a correct QUORUM read returns 2 by write version.
func (r *queryRig) plantDivergent() error {
	for d := 0; d < divergentSensors; d++ {
		id, err := r.mapper.Map(divergentTopic(d))
		if err != nil {
			return err
		}
		if err := r.p.cluster.InsertBatch(id, constSeries(d, 1), 0); err != nil {
			return err
		}
		primary := r.p.cluster.Partitioner().NodeFor(id, replicas)
		r.p.nodes[primary].SetDown(true)
		err = r.p.cluster.InsertBatch(id, constSeries(d, 2), 0)
		r.p.nodes[primary].SetDown(false)
		if err != nil {
			return fmt.Errorf("rewriting %s with its primary down: %w", divergentTopic(d), err)
		}
	}
	return nil
}

func constSeries(d int, v float64) []core.Reading {
	rs := make([]core.Reading, divergentReadings)
	for j := range rs {
		rs[j] = core.Reading{Timestamp: tsOf(d, j), Value: v}
	}
	return rs
}

// querier runs a query mix in a closed loop, one query outstanding.
type querier struct {
	rig  *queryRig
	tr   *tracer
	seed int64
	mix  queryMix
	rng  *rand.Rand
	seq  int64

	buf   []core.Reading
	keyed []keyedSeries
}

// one runs a single query, timing it and its process CPU, and checks
// the result outside the timed window. It returns the readings
// returned or folded.
func (q *querier) one(class queryClass) (lat, cpu time.Duration, n int64, err error) {
	q.seq++
	q.tr.query.Store(q.seq)
	var check func() error
	var start time.Time
	var c0 time.Duration
	begin := func() { c0, start = cpuNow(), time.Now() }
	switch class {
	case classRange:
		k := q.rng.Intn(querySensors)
		begin()
		var st store.ReadingStream
		st, err = openStream(q.tr, kLibdcdb, -1, func() (store.ReadingStream, error) {
			return q.rig.conn.QueryStream(queryTopic(k), tsBase, tsOf(k, queryReadings-1))
		})
		if err == nil {
			q.buf, err = drain(q.buf[:0], st)
		}
		n = int64(len(q.buf))
		check = func() error { return checkSeries(q.seed, k, 0, queryReadings, q.buf) }
	case classPrefix:
		h := q.rng.Intn(queryHosts)
		want := q.prefixWant(h)
		from, to := tsBase+prefixFrom*tsStep, tsBase+queryReadings*tsStep-1
		begin()
		err = q.prefix(want[0].id.Prefix(2), from, to)
		for _, s := range q.keyed {
			n += int64(len(s.rs))
		}
		check = func() error {
			return checkPrefix(q.seed, want, prefixFrom, queryReadings-prefixFrom, q.keyed)
		}
	case classSummary:
		k := q.rng.Intn(querySensors)
		var a libdcdb.Aggregate
		begin()
		a, err = q.summary(queryTopic(k), tsBase, tsOf(k, queryReadings-1))
		n = int64(a.Count)
		check = func() error { return checkSummary(wantSummary(q.seed, k, 0, queryReadings), a) }
	case classRecent:
		k := q.rng.Intn(recentHot)
		from, to := tsOf(k, queryReadings-recentWindow), tsOf(k, queryReadings-1)
		begin()
		q.buf, err = q.downsample(queryTopic(k), from, to, recentPoints)
		n = recentWindow
		check = func() error { return checkDownsample(from, to, recentPoints, q.buf) }
	}
	lat, cpu = time.Since(start), cpuNow()-c0
	if err == nil {
		err = check()
	}
	return lat, cpu, n, err
}

func (q *querier) prefixWant(h int) []prefixWant {
	want := make([]prefixWant, querySensorsPerHost)
	for s := range want {
		k := h*querySensorsPerHost + s
		id, _ := q.rig.mapper.Lookup(queryTopic(k))
		want[s] = prefixWant{id: id, k: k}
	}
	sortPrefixWant(want)
	return want
}

func sortPrefixWant(w []prefixWant) {
	sort.Slice(w, func(a, b int) bool { return w[a].id.Compare(w[b].id) < 0 })
}

// prefix reads a host subtree through Cluster.QueryPrefixStream into
// q.keyed, one entry per sensor.
func (q *querier) prefix(prefix core.SensorID, from, to int64) error {
	st, err := q.rig.p.front.QueryPrefixStream(prefix, 2, from, to)
	if err != nil {
		return err
	}
	defer st.Close()
	keyed := q.keyed[:0] // reuses the previous query's reading buffers
	for {
		id, rs, err := st.Next()
		if n := len(keyed); len(rs) > 0 && (n == 0 || keyed[n-1].id != id) {
			if n < cap(keyed) {
				keyed = keyed[:n+1]
				keyed[n] = keyedSeries{id: id, rs: keyed[n].rs[:0]}
			} else {
				keyed = append(keyed, keyedSeries{id: id})
			}
		}
		if len(rs) > 0 {
			last := &keyed[len(keyed)-1]
			last.rs = append(last.rs, rs...)
		}
		if err != nil {
			q.keyed = keyed
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func (q *querier) summary(topic string, from, to int64) (libdcdb.Aggregate, error) {
	if !q.tr.on.Load() {
		return q.rig.conn.QuerySummary(topic, from, to)
	}
	start := q.tr.now()
	a, err := q.rig.conn.QuerySummary(topic, from, to)
	q.tr.record(kLibdcdb, opSummary, -1, q.seq, start, int64(a.Count))
	return a, err
}

func (q *querier) downsample(topic string, from, to int64, nmax int) ([]core.Reading, error) {
	if !q.tr.on.Load() {
		return q.rig.conn.QueryDownsample(topic, from, to, nmax)
	}
	start := q.tr.now()
	rs, err := q.rig.conn.QueryDownsample(topic, from, to, nmax)
	q.tr.record(kLibdcdb, opDownsample, -1, q.seq, start, int64(len(rs)))
	return rs, err
}

// divergent reads divergent sensor d through the class's own read path
// and checks that it returns the newest write. These reads never go
// through the materialized Cluster.Query, whose versioned read repair
// would hide the fault.
func (q *querier) divergent(class queryClass, d int) error {
	topic := divergentTopic(d)
	from, to := tsOf(d, 0), tsOf(d, divergentReadings-1)
	switch class {
	case classRange:
		st, err := q.rig.conn.QueryStream(topic, from, to)
		if err != nil {
			return err
		}
		rs, err := drain(nil, st)
		if err != nil {
			return err
		}
		return checkAllValues(divergentReadings, 2, rs)
	case classPrefix:
		id, _ := q.rig.mapper.Lookup(topic)
		if err := q.prefix(id.Prefix(2), tsBase, tsOf(divergentSensors, divergentReadings)); err != nil {
			return err
		}
		if len(q.keyed) != divergentSensors {
			return fmt.Errorf("prefix over the divergent sensors returned %d sensors, want %d", len(q.keyed), divergentSensors)
		}
		for _, s := range q.keyed {
			if err := checkAllValues(divergentReadings, 2, s.rs); err != nil {
				return err
			}
		}
		return nil
	case classSummary:
		a, err := q.rig.conn.QuerySummary(topic, from, to)
		if err != nil {
			return err
		}
		if a.Count != divergentReadings || a.Min != 2 || a.Max != 2 {
			return fmt.Errorf("summary count %d min %g max %g, want %d readings of the newest write 2", a.Count, a.Min, a.Max, divergentReadings)
		}
		return nil
	default:
		rs, err := q.rig.conn.QueryDownsample(topic, from, to, recentPoints)
		if err != nil {
			return err
		}
		return checkAllValues(divergentReadings, 2, rs)
	}
}

// queryPhase runs whole rounds until d has passed.
func (q *querier) phase(d time.Duration, traced bool) (phaseStats, int, error) {
	p := q.rig.p
	q.tr.on.Store(traced)
	defer q.tr.on.Store(false)
	ph := phaseStats{lats: map[string][]int64{}}
	cnt0, net0 := p.counters(), p.netBytes()
	env := startEnv()
	deadline := time.Now().Add(d)
	rounds := 0
	var err error
	for err == nil && (rounds == 0 || time.Now().Before(deadline)) {
		for _, c := range q.mix {
			name := classNames[c.class]
			for i := 0; i < c.n && err == nil; i++ {
				var lat, cpu time.Duration
				var n int64
				lat, cpu, n, err = q.one(c.class)
				ph.lats[name] = append(ph.lats[name], int64(lat))
				ph.cpu += cpu
				ph.active += lat
				ph.readings += n
				ph.ops++
			}
		}
		rounds++
	}
	env.finish(&ph)
	ph.net = p.netBytes() - net0
	ph.cnt = p.counters().sub(cnt0)
	return ph, rounds, err
}

func runQuery(cfg runConfig, mix queryMix) (*result, error) {
	tr := newTracer()
	rig, setupS, err := timedSetups(func(round int) (*queryRig, error) {
		return buildQuery(filepath.Join(cfg.work, fmt.Sprintf("setup%d", round)), tr, cfg.seed)
	}, (*queryRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	q := &querier{rig: rig, tr: tr, seed: cfg.seed, mix: mix, rng: rand.New(rand.NewSource(cfg.seed))}
	cnt0 := rig.p.counters()
	// The dataset's footprint, taken before any read: the divergent
	// reads' read repairs append to the WAL, in proportion to the rounds
	// a run completes.
	disk := rig.p.diskBytes()

	// Warm-up: the same queries, untimed, until the block cache holds
	// its steady-state mix.
	if _, _, err := q.phase(0, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for i := 1; i < warmupRounds; i++ {
		if _, _, err := q.phase(0, false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var untraced, traced phaseStats
	rounds := 0
	if !cfg.trace {
		untraced, rounds, err = q.phase(cfg.seconds, false)
	} else {
		var r1, r2 int
		untraced, r1, err = q.phase(cfg.seconds/2, false)
		if err == nil {
			traced, r2, err = q.phase(cfg.seconds/2, true)
		}
		rounds = r1 + r2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench: check failed:", err)
		res.Correct = false
	}
	res.Attempted = untraced.ops + traced.ops

	// One divergent read per class and round, outside the timed phase.
	divStart := time.Now()
	defer func() {
		fmt.Fprintf(os.Stderr, "pipebench: %d divergent reads in %v\n", rounds*len(mix), time.Since(divStart).Round(time.Millisecond))
	}()
	for i := 0; i < rounds; i++ {
		for _, c := range mix {
			res.Attempted++
			if err := q.divergent(c.class, i%divergentSensors); err != nil {
				res.Failed++
				if i == 0 {
					fmt.Fprintf(os.Stderr, "pipebench: divergent %s read failed (stale replica served): %v\n", classNames[c.class], err)
				}
			}
		}
	}
	stored := int64(querySensors*queryReadings + divergentSensors*divergentReadings)
	// Fallbacks and read repairs count over the whole run, divergent
	// reads included: on healthy data both stay 0.
	whole := rig.p.counters().sub(cnt0)
	traced.cnt.fallbacks, traced.cnt.readRepairs = whole.fallbacks, whole.readRepairs
	return report(res, cfg, tr, setupS, untraced, traced, float64(disk)/float64(stored), disk)
}
