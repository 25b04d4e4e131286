package main

import (
	"fmt"
	"path/filepath"

	"dcdb/internal/metrics"
	"dcdb/internal/rpc"
	"dcdb/internal/store"
)

// replicas is both the node count and the replication factor: every
// node holds every sensor, and QUORUM means two of three.
const replicas = 3

// pipeline is the storage side of the stack: three durable store.Nodes,
// each behind its own rpc.Server on loopback, reached through
// rpc.Clients by one store.Cluster (replication 3, QUORUM writes and
// reads, hinted handoff and anti-entropy off). Every interface one layer
// hands to the next is wrapped by the tracer.
type pipeline struct {
	dir     string
	tr      *tracer
	nodes   []*store.Node
	servers []*rpc.Server
	clients []*rpc.Client
	cluster *store.Cluster
	front   *clusterFront
}

func openPipeline(dir string, tr *tracer, flushSize int, disk store.DiskOptions, clock *ingestClock) (*pipeline, error) {
	p := &pipeline{dir: dir, tr: tr}
	backends := make([]store.NodeBackend, replicas)
	for i := 0; i < replicas; i++ {
		n := store.NewNode(flushSize)
		if err := n.OpenOptions(p.nodeDir(i), disk); err != nil {
			p.close()
			return nil, fmt.Errorf("opening node %d: %w", i, err)
		}
		p.nodes = append(p.nodes, n)
		srv := rpc.NewServer(&tracedNode{NodeBackend: n, tr: tr, kind: kNode, node: i}, true)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			p.close()
			return nil, fmt.Errorf("listening for node %d: %w", i, err)
		}
		p.servers = append(p.servers, srv)
		c := rpc.NewClient(srv.Addr(), rpc.ClientOptions{})
		p.clients = append(p.clients, c)
		backends[i] = &tracedNode{NodeBackend: c, tr: tr, kind: kRPC, node: i}
	}
	cl, err := store.NewClusterOptions(backends, store.ClusterOptions{
		Replication:      replicas,
		WriteConsistency: store.ConsistencyQuorum,
		ReadConsistency:  store.ConsistencyQuorum,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	p.cluster = cl
	p.front = &clusterFront{Cluster: cl, tr: tr, clock: clock}
	return p, nil
}

func (p *pipeline) nodeDir(i int) string { return filepath.Join(p.dir, fmt.Sprintf("node%d", i)) }

// close tears the stack down top to bottom and reports the first error.
func (p *pipeline) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if p.cluster != nil {
		keep(p.cluster.Close()) // closes the rpc clients
	} else {
		for _, c := range p.clients {
			keep(c.Close())
		}
	}
	for _, s := range p.servers {
		keep(s.Close())
	}
	for _, n := range p.nodes {
		keep(n.Close())
	}
	return first
}

// settle drives the layout to a fixed state: memtables flushed, spills
// drained and every shard compacted, the WAL synced.
func (p *pipeline) settle() error {
	if err := p.cluster.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	p.cluster.Compact()
	if err := p.cluster.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

func (p *pipeline) diskBytes() int64 {
	var total int64
	for i := range p.nodes {
		total += dirBytes(p.nodeDir(i))
	}
	return total
}

func (p *pipeline) netBytes() int64 {
	var total int64
	for _, c := range p.clients {
		r, w := c.NetBytes()
		total += r + w
	}
	return total
}

// counters snapshots the registry figures the per-layer metrics use,
// summed over the three nodes.
type counters struct {
	walFsyncs, walRecords, walBatches float64
	spills, spillS                    float64
	compactions, compactionS          float64
	cacheHits, cacheMisses            float64
	fallbacks, readRepairs            float64
	payloadBytes                      float64
}

func (p *pipeline) counters() counters {
	var c counters
	for _, n := range p.nodes {
		for _, s := range n.Metrics().Gather() {
			switch s.Name {
			case "dcdb_store_wal_fsyncs_total":
				c.walFsyncs += s.Value
			case "dcdb_store_wal_group_commit_records":
				c.walRecords += histSum(s)
				c.walBatches += histCount(s)
			case "dcdb_store_spill_duration_seconds":
				c.spills += histCount(s)
				c.spillS += histSum(s)
			case "dcdb_store_compaction_duration_seconds":
				c.compactions += histCount(s)
				c.compactionS += histSum(s)
			case "dcdb_store_cache_hits_total":
				c.cacheHits += s.Value
			case "dcdb_store_cache_misses_total":
				c.cacheMisses += s.Value
			}
		}
	}
	for _, s := range p.cluster.Metrics().Gather() {
		switch s.Name {
		case "dcdb_cluster_aggregate_fallback_total":
			c.fallbacks += s.Value
		case "dcdb_cluster_read_repairs_total":
			c.readRepairs += s.Value
		}
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		walFsyncs: c.walFsyncs - o.walFsyncs, walRecords: c.walRecords - o.walRecords, walBatches: c.walBatches - o.walBatches,
		spills: c.spills - o.spills, spillS: c.spillS - o.spillS,
		compactions: c.compactions - o.compactions, compactionS: c.compactionS - o.compactionS,
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		fallbacks: c.fallbacks - o.fallbacks, readRepairs: c.readRepairs - o.readRepairs,
		payloadBytes: c.payloadBytes - o.payloadBytes,
	}
}

func histCount(s metrics.Sample) float64 {
	if s.Hist == nil {
		return 0
	}
	return float64(s.Hist.Count())
}

// histSum returns the histogram's sum in its exported unit (seconds for
// latency histograms).
func histSum(s metrics.Sample) float64 {
	if s.Hist == nil {
		return 0
	}
	return float64(s.Hist.Sum) * s.Hist.Scale
}
