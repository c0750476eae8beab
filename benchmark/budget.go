package main

import (
	"fmt"
	"io"
	"sort"
)

// budget is the span analysis of one traced window: the span-derived
// per-layer metrics and the budget table — mean ms per plan attributed to
// each layer, whose rows plus the unattributed share sum to the traced
// mean plan latency.
type budget struct {
	metrics map[string]float64
	// rows is mean ms per plan by layer; planMs is their sum plus the
	// unattributed part.
	rows            map[string]float64
	planMs          float64
	unattributedPct float64
	// getKeys and putKeys are the keys hashdb was asked to look up and to
	// store; newFPs is the oracle's count of first occurrences.
	getKeys, putKeys, newFPs int64
	loadgenSpans             []span
}

var budgetLayers = []string{layerLoadgen, layerWebfront, layerBatcher, layerCluster, layerRPC, layerNode, layerHashdb, layerFile}

type interval struct{ lo, hi int64 }

// union is the total length of the intervals' union.
func union(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	end := int64(-1 << 62)
	for _, v := range iv {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total
}

// clip cuts a child's interval to its parent's. A batched cluster call can
// start before the plan that joined its batch arrived.
func clip(c, p *span) interval {
	return interval{max(c.Start, p.Start), max(min(c.End, p.End), max(c.Start, p.Start))}
}

type joinKey struct {
	node string
	fp0  uint64
	keys int
}

type analysis struct {
	byParent map[uint64][]*span
	// nodeOf joins an rpc span to the node span its request caused, on
	// (node, first fingerprint, batch length) and containment in time.
	nodeOf map[uint64]*span
	// batchedOf lists, for a webfront span, the cluster calls the batcher
	// made for its fingerprints.
	batchedOf map[uint64][]*span
	// fileShare is, per node, the share of hashdb's time some call was
	// inside the file: file time is summed under hashdb calls, not spanned.
	fileShare    map[string]float64
	attributed   map[string]float64
	unattributed float64
}

func (a *analysis) children(sp *span) []*span {
	switch sp.Layer {
	case layerWebfront:
		if b := a.batchedOf[sp.ID]; b != nil {
			return b
		}
		return a.byParent[sp.ID]
	case layerRPC:
		if n := a.nodeOf[sp.ID]; n != nil {
			return []*span{n}
		}
		return nil
	default:
		return a.byParent[sp.ID]
	}
}

// covered is the part of sp its children cover: their union, since a
// cluster call fans out to its nodes in parallel.
func (a *analysis) covered(sp *span) int64 {
	kids := a.children(sp)
	iv := make([]interval, len(kids))
	for i, k := range kids {
		iv[i] = clip(k, sp)
	}
	return union(iv)
}

// attribute charges sp's self time to its layer and hands the covered
// part down. Children that ran in parallel share the covered time in
// proportion to their length, so everything charged below sp still sums
// to what sp covered and the table's rows sum to the plan latency.
func (a *analysis) attribute(sp *span, weight float64) {
	dur := float64(sp.dur())
	switch sp.Layer {
	case layerHashdb:
		share := a.fileShare[sp.Node]
		a.attributed[layerFile] += weight * dur * share
		a.attributed[layerHashdb] += weight * dur * (1 - share)
		return
	case layerRPC:
		if a.nodeOf[sp.ID] == nil {
			a.unattributed += weight * dur
			return
		}
	}
	kids := a.children(sp)
	covered := float64(a.covered(sp))
	layer := sp.Layer
	if layer == layerWebfront && a.batchedOf[sp.ID] != nil {
		// No seam separates the handler from the batcher it calls. On a
		// plan that went through the batcher the uncovered time is the
		// handler's few microseconds of JSON plus the aggregation wait,
		// so it is charged to the batcher.
		layer = layerBatcher
	}
	a.attributed[layer] += weight * (dur - covered)
	var sum float64
	for _, k := range kids {
		c := clip(k, sp)
		sum += float64(c.hi - c.lo)
	}
	for _, k := range kids {
		c := clip(k, sp)
		if k.dur() == 0 || sum == 0 {
			continue
		}
		a.attribute(k, weight*covered/sum*float64(c.hi-c.lo)/float64(k.dur()))
	}
}

func analyze(spans []span, samples []sample, reqs *requests, w *workload, wc windowCounters) *budget {
	a := &analysis{
		byParent: map[uint64][]*span{}, nodeOf: map[uint64]*span{}, batchedOf: map[uint64][]*span{},
		fileShare: map[string]float64{}, attributed: map[string]float64{},
	}
	b := &budget{metrics: map[string]float64{}, rows: map[string]float64{}, newFPs: int64(reqs.windowNew)}
	byLayer := map[string][]*span{}
	for i := range spans {
		sp := &spans[i]
		byLayer[sp.Layer] = append(byLayer[sp.Layer], sp)
		if sp.Parent != 0 {
			a.byParent[sp.Parent] = append(a.byParent[sp.Parent], sp)
		}
	}

	// node → rpc join.
	rpcBy := map[joinKey][]*span{}
	for _, r := range byLayer[layerRPC] {
		k := joinKey{r.Node, r.FP0, r.Keys}
		rpcBy[k] = append(rpcBy[k], r)
	}
	for _, n := range byLayer[layerNode] {
		for _, r := range rpcBy[joinKey{n.Node, n.FP0, n.Keys}] {
			if a.nodeOf[r.ID] == nil && r.Start <= n.Start && n.End <= r.End {
				a.nodeOf[r.ID] = n
				break
			}
		}
	}

	// webfront → batched cluster call join, on the plan's fingerprints.
	webBySeq := map[int]*span{}
	for _, ws := range byLayer[layerWebfront] {
		if ws.Plan >= 0 {
			webBySeq[ws.Plan] = ws
		}
	}
	batchedBy := map[uint64][]*span{}
	var batchedCalls int
	for _, c := range byLayer[layerCluster] {
		if c.Parent != 0 {
			continue
		}
		batchedCalls++
		for _, p := range c.fps {
			batchedBy[p] = append(batchedBy[p], c)
		}
	}
	if batchedCalls > 0 {
		for seq, ws := range webBySeq {
			seen := map[uint64]bool{}
			for _, fp := range reqs.fps[reqs.bodyOf(seq)] {
				for _, c := range batchedBy[fp.Prefix64()] {
					if !seen[c.ID] && c.End > ws.Start && c.Start < ws.End {
						seen[c.ID] = true
						a.batchedOf[ws.ID] = append(a.batchedOf[ws.ID], c)
					}
				}
			}
		}
	}

	// file share of hashdb time, per node.
	hashdbIv := map[string][]interval{}
	for _, h := range byLayer[layerHashdb] {
		hashdbIv[h.Node] = append(hashdbIv[h.Node], interval{h.Start, h.End})
	}
	for node, iv := range hashdbIv {
		if u := union(iv); u > 0 {
			a.fileShare[node] = min(1, float64(wc.fileBusyByNode[node])/float64(u))
		}
	}

	// The budget: one tree per plan, rooted at what the client measured.
	var totalNs float64
	plans := 0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		root := span{ID: uint64(1<<63) + uint64(s.seq), Layer: layerLoadgen, Op: "plan", Plan: s.seq,
			Keys: w.planSize, Start: s.start, End: s.end}
		b.loadgenSpans = append(b.loadgenSpans, root)
		plans++
		totalNs += float64(root.dur())
		ws := webBySeq[s.seq]
		if ws == nil {
			a.unattributed += float64(root.dur())
			continue
		}
		a.byParent[root.ID] = []*span{ws}
		a.attribute(&root, 1)
	}
	perPlanMs := func(ns float64) float64 { return div(ns/1e6, float64(plans)) }
	b.planMs = perPlanMs(totalNs)
	b.metrics["budget.plan_ms"] = b.planMs
	for _, l := range budgetLayers {
		b.rows[l] = perPlanMs(a.attributed[l])
	}
	b.metrics["budget.loadgen_http_ms"] = b.rows[layerLoadgen]
	for _, l := range budgetLayers[1:] {
		b.metrics["budget."+l+"_ms"] = b.rows[l]
	}
	b.unattributedPct = div(a.unattributed, totalNs) * 100
	b.metrics["budget.unattributed_pct"] = b.unattributedPct
	b.metrics["trace.spans"] = float64(len(spans))

	// Span-derived layer metrics. A layer's self time is its span minus
	// the part of it its children cover.
	sum := func(ss []*span, f func(*span) float64) (t float64) {
		for _, s := range ss {
			t += f(s)
		}
		return
	}
	durOf := func(s *span) float64 { return float64(s.dur()) }
	keysOf := func(s *span) float64 { return float64(s.Keys) }
	selfOf := func(s *span) float64 { return float64(s.dur() - a.covered(s)) }
	us, ms := 1e3, 1e6

	var web []*span
	for _, ws := range webBySeq {
		web = append(web, ws)
	}
	fps := float64(len(web) * w.planSize)
	b.metrics["webfront.span_ms_per_plan"] = div(sum(web, durOf)/ms, float64(len(web)))
	b.metrics["webfront.self_ms_per_plan"] = div(sum(web, selfOf)/ms, float64(len(web)))
	b.metrics["webfront.self_us_per_fp"] = div(sum(web, selfOf)/us, fps)
	b.metrics["batcher.index_calls_per_plan"] = div(float64(batchedCalls), float64(len(web)))

	cl := byLayer[layerCluster]
	rp := byLayer[layerRPC]
	b.metrics["cluster.calls"] = float64(len(cl))
	b.metrics["cluster.span_ms_per_call"] = div(sum(cl, durOf)/ms, float64(len(cl)))
	b.metrics["cluster.self_us_per_fp"] = div(sum(cl, selfOf)/us, sum(cl, keysOf))
	b.metrics["cluster.fanout"] = div(float64(len(rp)), float64(len(cl)))
	perNode := map[string]float64{}
	for _, r := range rp {
		perNode[r.Node] += float64(r.Keys)
	}
	var largest float64
	for _, k := range perNode {
		largest = max(largest, k)
	}
	b.metrics["cluster.max_node_share"] = div(largest, sum(rp, keysOf))

	var joined []*span
	for _, r := range rp {
		if a.nodeOf[r.ID] != nil {
			joined = append(joined, r)
		}
	}
	b.metrics["rpc.calls"] = float64(len(rp))
	b.metrics["rpc.span_ms_per_call"] = div(sum(rp, durOf)/ms, float64(len(rp)))
	b.metrics["rpc.self_us_per_call"] = div(sum(joined, selfOf)/us, float64(len(joined)))
	b.metrics["rpc.self_us_per_fp"] = div(sum(joined, selfOf)/us, sum(joined, keysOf))

	nd := byLayer[layerNode]
	b.metrics["node.calls"] = float64(len(nd))
	b.metrics["node.span_ms_per_call"] = div(sum(nd, durOf)/ms, float64(len(nd)))
	b.metrics["node.self_us_per_fp"] = div(sum(nd, selfOf)/us, sum(nd, keysOf))

	var gets, puts []*span
	for _, h := range byLayer[layerHashdb] {
		switch h.Op {
		case "GetBatch", "Get", "Has":
			gets = append(gets, h)
		case "PutBatch", "Put":
			puts = append(puts, h)
		}
	}
	b.getKeys, b.putKeys = int64(sum(gets, keysOf)), int64(sum(puts, keysOf))
	both := append(append([]*span(nil), gets...), puts...)
	b.metrics["hashdb.get_batches"] = float64(len(gets))
	b.metrics["hashdb.put_batches"] = float64(len(puts))
	b.metrics["hashdb.keys_per_batch"] = div(sum(both, keysOf), float64(len(both)))
	b.metrics["hashdb.get_us_per_key"] = div(sum(gets, durOf)/us, sum(gets, keysOf))
	b.metrics["hashdb.put_us_per_key"] = div(sum(puts, durOf)/us, sum(puts, keysOf))
	b.metrics["hashdb.self_us_per_key"] = div(sum(both, func(s *span) float64 {
		return float64(s.dur()) * (1 - a.fileShare[s.Node])
	})/us, sum(both, keysOf))
	return b
}

// print writes the budget table: where a plan's latency went.
func (b *budget) print(w io.Writer, name string) {
	fmt.Fprintf(w, "budget  %-14s mean plan %.3f ms (traced)\n", name, b.planMs)
	for _, l := range budgetLayers {
		fmt.Fprintf(w, "  %-13s %10.4f ms  %5.1f %%\n", l, b.rows[l], div(b.rows[l], b.planMs)*100)
	}
	fmt.Fprintf(w, "  %-13s %10s     %5.1f %%\n", "unattributed", "", b.unattributedPct)
}
