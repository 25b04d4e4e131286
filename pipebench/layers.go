package main

// layerNames lists every per-layer metric, in report order, with its
// unit. A traced run reports all of them on every workload; a layer the
// workload does not pass through reads 0.
var layerNames = []struct{ name, unit string }{
	{"mqtt.publish_us", "us"},
	{"mqtt.payload_bytes_per_reading", "B"},
	{"agent.front_us", "us"},
	{"agent.handle_self_us", "us"},
	{"cluster.insert_us", "us"},
	{"cluster.insert_self_us", "us"},
	{"cluster.stream_self_us", "us"},
	{"cluster.prefix_self_us", "us"},
	{"cluster.aggregate_fallbacks", "count"},
	{"cluster.read_repairs", "count"},
	{"rpc.insert_us", "us"},
	{"rpc.insert_self_us", "us"},
	{"rpc.bytes_per_reading", "B"},
	{"node.insert_us", "us"},
	{"node.wal_fsyncs", "count"},
	{"node.wal_group_commit_records", "records"},
	{"node.spills", "count"},
	{"node.spill_s", "s"},
	{"node.compactions", "count"},
	{"node.compaction_s", "s"},
	{"node.stream_next_us_per_reading", "us"},
	{"node.cache_hit_ratio", "ratio"},
	{"node.cache_lookups", "count"},
	{"node.disk_bytes", "B"},
	{"node.aggregate_us", "us"},
	{"fold.readings_per_aggregate", "readings"},
	{"libdcdb.range_self_us", "us"},
	{"proc.steal_share", "ratio"},
	{"proc.gc_cpu_share", "ratio"},
	{"proc.goroutines_peak", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_share", "ratio"},
}

// layerMetrics derives the per-layer figures from the traced phase's
// spans and registry deltas; untraced is the phase run just before it
// with the wrappers recording nothing, and the difference in CPU per
// reading between the two is the tracing overhead.
func layerMetrics(spans []span, self []int64, traced, untraced phaseStats, disk int64) map[string]metric {
	us := func(ns float64) float64 { return ns / 1e3 }
	type acc struct {
		dur, self, n float64
		count        int
	}
	var byKindOp [numKinds][opDownsample + 1]acc
	publishStart := make(map[int64]int64)
	perReq := map[[2]int64]float64{} // (kind<<8|op, req) → summed self time
	for i, s := range spans {
		a := &byKindOp[s.kind][s.op]
		a.dur += float64(s.end - s.start)
		a.self += float64(self[i])
		a.n += float64(s.n)
		a.count++
		if s.kind == kPublish {
			publishStart[s.req] = s.start
		}
		if s.kind == kClusterRead || s.kind == kLibdcdb {
			perReq[[2]int64{int64(s.kind)<<8 | int64(s.op), s.req}] += float64(self[i])
		}
	}
	meanDur := func(k spanKind, o op) float64 {
		a := byKindOp[k][o]
		if a.count == 0 {
			return 0
		}
		return us(a.dur / float64(a.count))
	}
	meanSelf := func(k spanKind, o op) float64 {
		a := byKindOp[k][o]
		if a.count == 0 {
			return 0
		}
		return us(a.self / float64(a.count))
	}
	// perRequestSelf is the mean over requests of the summed self time
	// of one kind and op (a streamed read makes many calls).
	perRequestSelf := func(k spanKind, o op) float64 {
		var total float64
		var reqs int
		for key, v := range perReq {
			if key[0] == int64(k)<<8|int64(o) {
				total += v
				reqs++
			}
		}
		if reqs == 0 {
			return 0
		}
		return us(total / float64(reqs))
	}
	var front []float64
	for _, s := range spans {
		if s.kind == kClusterWrite {
			if p, ok := publishStart[s.req]; ok {
				front = append(front, float64(s.start-p))
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nodeStream := byKindOp[kNode][opStream]
	nodePrefix := byKindOp[kNode][opPrefix]
	agg := byKindOp[kNode][opAggregate]
	c := traced.cnt
	readings := float64(traced.readings)
	vals := map[string]float64{
		"mqtt.publish_us":                 meanDur(kPublish, opInsert),
		"mqtt.payload_bytes_per_reading":  ratio(c.payloadBytes, readings),
		"agent.front_us":                  us(mean(front)),
		"agent.handle_self_us":            meanSelf(kHandle, opInsert),
		"cluster.insert_us":               meanDur(kClusterWrite, opInsert),
		"cluster.insert_self_us":          meanSelf(kClusterWrite, opInsert),
		"cluster.stream_self_us":          perRequestSelf(kClusterRead, opStream),
		"cluster.prefix_self_us":          perRequestSelf(kClusterRead, opPrefix),
		"cluster.aggregate_fallbacks":     c.fallbacks,
		"cluster.read_repairs":            c.readRepairs,
		"rpc.insert_us":                   meanDur(kRPC, opInsert),
		"rpc.insert_self_us":              meanSelf(kRPC, opInsert),
		"rpc.bytes_per_reading":           ratio(float64(traced.net), readings),
		"node.insert_us":                  meanDur(kNode, opInsert),
		"node.wal_fsyncs":                 c.walFsyncs,
		"node.wal_group_commit_records":   ratio(c.walRecords, c.walBatches),
		"node.spills":                     c.spills,
		"node.spill_s":                    c.spillS,
		"node.compactions":                c.compactions,
		"node.compaction_s":               c.compactionS,
		"node.stream_next_us_per_reading": us(ratio(nodeStream.dur+nodePrefix.dur, nodeStream.n+nodePrefix.n)),
		"node.cache_hit_ratio":            ratio(c.cacheHits, c.cacheHits+c.cacheMisses),
		"node.cache_lookups":              c.cacheHits + c.cacheMisses,
		"node.disk_bytes":                 float64(disk),
		"node.aggregate_us":               meanDur(kNode, opAggregate),
		"fold.readings_per_aggregate":     ratio(agg.n, float64(agg.count)),
		"libdcdb.range_self_us":           perRequestSelf(kLibdcdb, opStream),
		"proc.steal_share":                traced.steal,
		"proc.gc_cpu_share":               traced.gcShare,
		"proc.goroutines_peak":            float64(traced.peak),
		"trace.spans":                     float64(len(spans)),
		"trace.overhead_share":            traced.cpuPerReading()/untraced.cpuPerReading() - 1,
	}
	out := make(map[string]metric, len(layerNames))
	for _, l := range layerNames {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	return out
}
