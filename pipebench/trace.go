package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcdb/internal/core"
	"dcdb/internal/fold"
	"dcdb/internal/store"
)

// spanKind names a layer boundary. Every span is recorded by the
// benchmark's own wrappers around an interface one layer hands to the
// next; nothing inside the program is instrumented.
type spanKind uint8

const (
	kPublish      spanKind = iota // mqtt.Client.Publish (load generator → broker)
	kHandle                       // collectagent.Agent.Handle, direct calls
	kClusterWrite                 // store.Backend handed to collectagent.New: InsertBatch
	kLibdcdb                      // libdcdb.Connection calls made by the query client
	kClusterRead                  // store.Backend handed to libdcdb.Connect, and Cluster.QueryPrefixStream
	kRPC                          // store.NodeBackend handed to the Cluster (rpc.Client)
	kNode                         // store.NodeBackend handed to rpc.NewServer (store.Node)
	numKinds
)

var kindNames = [numKinds]string{"mqtt.publish", "agent.handle", "cluster.write",
	"libdcdb", "cluster.read", "rpc", "node"}

// op distinguishes the calls within one kind.
type op uint8

const (
	opInsert    op = iota
	opStream       // QueryStream open, Next or Close
	opPrefix       // QueryPrefixStream open, Next or Close
	opAggregate    // Aggregate (summary and downsample pushdown)
	opSummary      // libdcdb.QuerySummary
	opDownsample
)

// span is one timed call across a layer boundary. req identifies the
// request the call serves: the first reading's timestamp on the write
// path (unique per published message), the query sequence number on
// the read path. parent is filled in by analyze.
type span struct {
	kind   spanKind
	op     op
	node   int8 // replica index for kRPC and kNode, -1 elsewhere
	req    int64
	start  int64 // ns since the tracer's base
	end    int64
	n      int64 // readings carried or folded
	parent int32
}

// tracer collects spans in memory while on; the wrappers consult it on
// every call, so an untraced run pays one atomic load per boundary.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	query atomic.Int64 // request id of the query in flight

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) record(kind spanKind, o op, node int, req, start, n int64) {
	t.add(span{kind: kind, op: o, node: int8(node), req: req, start: start, end: t.now(), n: n, parent: -1})
}

// writeFile dumps the recorded spans as CSV (one line per span, times
// in ns since the run's tracer base).
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx,name,op,node,req,start_ns,end_ns,readings,parent")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d,%d\n", i, kindNames[s.kind], s.op, s.node, s.req, s.start, s.end, s.n, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// analyze links every span to its parent and returns each span's self
// time: its duration minus the part of its interval that its children
// cover.
func analyze(spans []span) []int64 {
	type key struct {
		kind spanKind
		req  int64
	}
	byKey := make(map[key][]int32)
	for i := range spans {
		spans[i].parent = -1
		k := key{spans[i].kind, spans[i].req}
		byKey[k] = append(byKey[k], int32(i))
	}
	parentsOf := func(s *span) []spanKind {
		switch s.kind {
		case kRPC:
			return []spanKind{kClusterWrite, kClusterRead}
		case kNode:
			return []spanKind{kRPC}
		case kClusterWrite:
			return []spanKind{kHandle}
		case kClusterRead:
			return []spanKind{kLibdcdb}
		}
		return nil
	}
	children := make([][]int32, len(spans))
	for i := range spans {
		s := &spans[i]
		for _, pk := range parentsOf(s) {
			best := int32(-1)
			for _, j := range byKey[key{pk, s.req}] {
				p := &spans[j]
				if s.kind == kNode && p.node != s.node {
					continue
				}
				if p.start <= s.start && s.end <= p.end {
					// The innermost container wins (streams nest open/next
					// calls of one request only sequentially, so at most
					// one matches; keep the latest start to be safe).
					if best < 0 || p.start > spans[best].start {
						best = j
					}
				}
			}
			if best >= 0 {
				s.parent = best
				children[best] = append(children[best], int32(i))
				break
			}
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = (spans[i].end - spans[i].start) - covered(spans, children[i])
	}
	return self
}

// covered returns the length of the union of the children's intervals.
func covered(spans []span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(kids))
	for i, k := range kids {
		iv[i] = [2]int64{spans[k].start, spans[k].end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// --- wrappers -----------------------------------------------------------

// clusterFront is the store.Backend the benchmark hands to
// collectagent.New and libdcdb.Connect. It forwards to the Cluster and
// times each call; InsertBatch additionally reports the moment a
// message's readings are stored at QUORUM to the ingest clock, which is
// where ingest latency ends.
type clusterFront struct {
	*store.Cluster
	tr    *tracer
	clock *ingestClock // nil on query workloads
}

func (f *clusterFront) InsertBatch(id core.SensorID, rs []core.Reading, ttl time.Duration) error {
	start := f.tr.now()
	err := f.Cluster.InsertBatch(id, rs, ttl)
	end := f.tr.now()
	if len(rs) > 0 {
		if f.clock != nil {
			f.clock.stored(rs[0].Timestamp, len(rs), end, err)
		}
		if f.tr.on.Load() {
			f.tr.add(span{kind: kClusterWrite, op: opInsert, node: -1, req: rs[0].Timestamp, start: start, end: end, n: int64(len(rs)), parent: -1})
		}
	}
	return err
}

func (f *clusterFront) QueryStream(id core.SensorID, from, to int64) (store.ReadingStream, error) {
	return openStream(f.tr, kClusterRead, -1, func() (store.ReadingStream, error) {
		return f.Cluster.QueryStream(id, from, to)
	})
}

func (f *clusterFront) QueryPrefixStream(prefix core.SensorID, depth int, from, to int64) (store.KeyedReadingStream, error) {
	return openKeyed(f.tr, kClusterRead, -1, func() (store.KeyedReadingStream, error) {
		return f.Cluster.QueryPrefixStream(prefix, depth, from, to)
	})
}

func (f *clusterFront) Aggregate(id core.SensorID, spec fold.Spec) (fold.State, error) {
	return timedAggregate(f.tr, kClusterRead, -1, func() (fold.State, error) {
		return f.Cluster.Aggregate(id, spec)
	})
}

// tracedNode wraps a store.NodeBackend at one of the two node-facing
// boundaries: the rpc.Client handed to the Cluster (kind kRPC) and the
// store.Node handed to rpc.NewServer (kind kNode).
type tracedNode struct {
	store.NodeBackend
	tr   *tracer
	kind spanKind
	node int
}

func (t *tracedNode) InsertVersioned(id core.SensorID, vrs []store.VersionedReading) error {
	if !t.tr.on.Load() || len(vrs) == 0 {
		return t.NodeBackend.InsertVersioned(id, vrs)
	}
	start := t.tr.now()
	err := t.NodeBackend.InsertVersioned(id, vrs)
	t.tr.record(t.kind, opInsert, t.node, vrs[0].Timestamp, start, int64(len(vrs)))
	return err
}

func (t *tracedNode) QueryStream(id core.SensorID, from, to int64) (store.ReadingStream, error) {
	return openStream(t.tr, t.kind, t.node, func() (store.ReadingStream, error) {
		return t.NodeBackend.QueryStream(id, from, to)
	})
}

func (t *tracedNode) QueryPrefixStream(prefix core.SensorID, depth int, from, to int64) (store.KeyedReadingStream, error) {
	return openKeyed(t.tr, t.kind, t.node, func() (store.KeyedReadingStream, error) {
		return t.NodeBackend.QueryPrefixStream(prefix, depth, from, to)
	})
}

func (t *tracedNode) Aggregate(id core.SensorID, spec fold.Spec) (fold.State, error) {
	return timedAggregate(t.tr, t.kind, t.node, func() (fold.State, error) {
		return t.NodeBackend.Aggregate(id, spec)
	})
}

func timedAggregate(tr *tracer, kind spanKind, node int, call func() (fold.State, error)) (fold.State, error) {
	if !tr.on.Load() {
		return call()
	}
	req, start := tr.query.Load(), tr.now()
	st, err := call()
	var n int64
	if st != nil {
		n = st.Count()
	}
	tr.record(kind, opAggregate, node, req, start, n)
	return st, err
}

func openStream(tr *tracer, kind spanKind, node int, open func() (store.ReadingStream, error)) (store.ReadingStream, error) {
	if !tr.on.Load() {
		return open()
	}
	req, start := tr.query.Load(), tr.now()
	st, err := open()
	tr.record(kind, opStream, node, req, start, 0)
	if err != nil {
		return nil, err
	}
	return &tracedStream{st: st, tr: tr, kind: kind, node: node, req: req}, nil
}

func openKeyed(tr *tracer, kind spanKind, node int, open func() (store.KeyedReadingStream, error)) (store.KeyedReadingStream, error) {
	if !tr.on.Load() {
		return open()
	}
	req, start := tr.query.Load(), tr.now()
	st, err := open()
	tr.record(kind, opPrefix, node, req, start, 0)
	if err != nil {
		return nil, err
	}
	return &tracedKeyed{st: st, tr: tr, kind: kind, node: node, req: req}, nil
}

type tracedStream struct {
	st   store.ReadingStream
	tr   *tracer
	kind spanKind
	node int
	req  int64
}

func (s *tracedStream) Next() ([]core.Reading, error) {
	start := s.tr.now()
	rs, err := s.st.Next()
	s.tr.record(s.kind, opStream, s.node, s.req, start, int64(len(rs)))
	return rs, err
}

func (s *tracedStream) Close() error {
	start := s.tr.now()
	err := s.st.Close()
	s.tr.record(s.kind, opStream, s.node, s.req, start, 0)
	return err
}

type tracedKeyed struct {
	st   store.KeyedReadingStream
	tr   *tracer
	kind spanKind
	node int
	req  int64
}

func (s *tracedKeyed) Next() (core.SensorID, []core.Reading, error) {
	start := s.tr.now()
	id, rs, err := s.st.Next()
	s.tr.record(s.kind, opPrefix, s.node, s.req, start, int64(len(rs)))
	return id, rs, err
}

func (s *tracedKeyed) Close() error {
	start := s.tr.now()
	err := s.st.Close()
	s.tr.record(s.kind, opPrefix, s.node, s.req, start, 0)
	return err
}
