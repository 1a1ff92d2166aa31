package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed step of one update or transaction, recorded at the
// benchmark's own call sites. Spans of one item share its id; parent
// names the enclosing span ("" at the root). Times are ns from the
// phase start.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent string `json:"parent"`
	ID     uint64 `json:"id"`
}

// maxTraced bounds how many updates and how many transactions a trace
// file carries; the per-layer metrics use every sample, the file is
// for reading.
const maxTraced = 2000

// buildSpans turns the timestamps a traced phase collected into spans:
//
//	update ⊃ gen.late, strip.ingest.apply_update,
//	         strip.loop.queue_to_install, repl.stream.primary_to_replica
//	txn    ⊃ strip.txn.wait, strip.txn.body ⊃ (strip.txn.read, compute),
//	         strip.txn.finish, strip.wal.sync
func buildSpans(e *engine, l *load, recs []txnRec) []span {
	t0 := l.t0.UnixNano()
	installAt := func(p *probeSink) map[uint64]int64 {
		m := make(map[uint64]int64, len(p.samples))
		for i := range p.samples {
			m[p.samples[i].id] = p.samples[i].at - t0
		}
		return m
	}
	primary, replica := installAt(&e.probes), installAt(&e.rprobes)

	var out []span
	n := 0
	for i := range l.offers {
		o := &l.offers[i]
		at, ok := primary[o.id]
		if !ok {
			continue // dropped, evicted, expired or superseded: never visible
		}
		end := at
		rat, replicated := replica[o.id]
		if replicated {
			end = rat
		}
		out = append(out,
			span{"update", o.gen, end, "", o.id},
			span{"gen.late", o.gen, o.start, "update", o.id},
			span{"strip.ingest.apply_update", o.start, o.end, "update", o.id},
			span{"strip.loop.queue_to_install", o.end, at, "update", o.id})
		if replicated {
			out = append(out, span{"repl.stream.primary_to_replica", at, rat, "update", o.id})
		}
		if n++; n == maxTraced {
			break
		}
	}
	n = 0
	for i := range recs {
		r := &recs[i]
		if r.wait == 0 {
			continue // refused or aborted before the body ran
		}
		id := uint64(i)
		started := r.due + r.wait
		out = append(out,
			span{"txn", r.due, r.due + r.latency(), "", id},
			span{"strip.txn.wait", r.due, started, "txn", id},
			span{"strip.txn.body", started, started + r.body, "txn", id},
			span{"strip.txn.read", started, started + r.read, "strip.txn.body", id},
			span{"compute", started + r.read, started + r.read + r.compute, "strip.txn.body", id},
			span{"strip.txn.finish", started + r.body, r.due + r.ret, "txn", id})
		if r.sync > 0 {
			out = append(out, span{"strip.wal.sync", r.due + r.ret, r.due + r.ret + r.sync, "txn", id})
		}
		if n++; n == maxTraced {
			break
		}
	}
	return out
}

// selfTimes returns, per span name, the mean time not covered by the
// span's children, in µs.
func selfTimes(spans []span) map[string]float64 {
	type key struct {
		id   uint64
		name string
	}
	children := map[key]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	sum, count := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		sum[s.Name] += float64(s.End - s.Start - children[key{s.ID, s.Name}])
		count[s.Name]++
	}
	for name := range sum {
		sum[name] = sum[name] / count[name] / 1e3
	}
	return sum
}

// writeTrace writes a traced run's spans and their self times to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := struct {
		Workload   string             `json:"workload"`
		Seed       uint64             `json:"seed"`
		SelfTimeUs map[string]float64 `json:"self_time_us"`
		Spans      []span             `json:"spans"`
	}{workload, seed, selfTimes(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
