package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"locmap/internal/cache"
	"locmap/internal/compiler"
	"locmap/internal/plancache"
	"locmap/internal/server"
	"locmap/internal/sim"
)

// The traced run replays a workload's seeded inputs in one goroutine
// through each layer's public functions, with a span around every call
// made from this package. Spans stay in memory and are written out when
// the run ends. The same replay runs a second time with spans off; the
// difference in wall time is the tracing overhead.

// span is one timed call. Spans of one replayed request share Req.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offsets from the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer records spans; with on false every method is a no-op, so the
// same replay code measures the untraced baseline.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int // indices of open spans, innermost last
	req   int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now(), req: -1} }

// request starts a new root span; its descendants share its Req.
func (t *tracer) request(name string) {
	t.req++
	t.begin(name)
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.spans = append(t.spans, span{Req: t.req, ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if !t.on {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// durations returns the duration of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write saves the spans as JSON lines under the checkout's build
// directory and returns the path.
func (t *tracer) write(env *runEnv) (string, error) {
	dir := filepath.Join(env.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", env.workload, env.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// medianMs and medianUs summarize span durations.
func medianMs(ds []time.Duration) float64 { return median(durs(ds, time.Millisecond)) }
func medianUs(ds []time.Duration) float64 { return median(durs(ds, time.Microsecond)) }

func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// setMedian sets name to the median of ds in unit (0 when no span ran).
func setMedian(o *outcome, name string, ds []time.Duration, unit string) {
	v := 0.0
	if len(ds) > 0 {
		switch unit {
		case "ms":
			v = medianMs(ds)
		case "us":
			v = medianUs(ds)
		}
	}
	o.set(name, v, unit)
}

// specTarget builds the machine and compiler options a request for s
// maps onto, as the server derives them from the request body.
func specTarget(s Spec) (sim.Config, compiler.Options, error) {
	cfg, err := server.BuildTargetPlacement(s.Mesh, s.Regions, s.LLC, s.MCs, nil)
	if err != nil {
		return sim.Config{}, compiler.Options{}, err
	}
	opts := compiler.Options{Cfg: cfg}
	opts.Mapper.Mesh = cfg.Mesh
	return cfg, opts, nil
}

// specKey is the plan-cache spec of a request for s in the kind
// namespace ("map", "estimate" or "simulate").
func specKey(s Spec, cfg sim.Config, kind string) plancache.Spec {
	return plancache.Spec{
		Source:    s.Source,
		MeshW:     cfg.Mesh.Width,
		MeshH:     cfg.Mesh.Height,
		RegionsX:  cfg.Mesh.RegionsX,
		RegionsY:  cfg.Mesh.RegionsY,
		SharedLLC: cfg.LLCOrg == cache.SharedSNUCA,
		MCs:       s.MCs,
		Kind:      kind,
	}
}

// scheduleOf renders a compilation's schedule in the wire shape of
// server.Plan.Schedule (null for nests left to the inspector).
func scheduleOf(res *compiler.Result) [][]int {
	out := make([][]int, len(res.Plans))
	for i, np := range res.Plans {
		if np.Assignment == nil {
			continue
		}
		cores := make([]int, len(np.Assignment.Core))
		for k, c := range np.Assignment.Core {
			cores[k] = int(c)
		}
		out[i] = cores
	}
	return out
}

// simTotals accumulates simulator counters across runs.
type simTotals struct {
	refs                           uint64
	l1Hits, l1Lookups              uint64
	llcHits, llcLookups            uint64
	packets, hops, queued, transit uint64
	dramReqs, rowHits              uint64
	hostTime                       time.Duration // host time of every counted run
}

// addRefs counts one run's references and host time (baseline or
// location-aware) toward sim.refs and sim.ns_per_ref.
func (t *simTotals) addRefs(st sim.Stats, d time.Duration) {
	t.refs += st.L1Hits + st.L1Misses
	t.hostTime += d
}

// addMachine folds one location-aware run's simulated counts into the
// cache, NoC and DRAM figures.
func (t *simTotals) addMachine(st sim.Stats) {
	t.l1Hits += st.L1Hits
	t.l1Lookups += st.L1Hits + st.L1Misses
	t.llcHits += st.LLCHits
	t.llcLookups += st.LLCHits + st.LLCMisses
	t.packets += st.NoC.Packets
	t.hops += st.NoC.TotalHops
	t.queued += st.NoC.QueuedCycles
	t.transit += st.NoC.TotalLatency
	t.dramReqs += st.DRAM.Requests
	t.rowHits += st.DRAM.RowHits
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report sets the sim, cache, noc and dram per-layer metrics.
func (t *simTotals) report(o *outcome) {
	o.set("sim.refs", float64(t.refs), "count")
	nsPerRef := 0.0
	if t.refs > 0 {
		nsPerRef = float64(t.hostTime.Nanoseconds()) / float64(t.refs)
	}
	o.set("sim.ns_per_ref", nsPerRef, "ns")
	o.set("cache.l1_hit_frac", frac(t.l1Hits, t.l1Lookups), "fraction")
	o.set("cache.llc_hit_frac", frac(t.llcHits, t.llcLookups), "fraction")
	o.set("noc.packets", float64(t.packets), "count")
	o.set("noc.avg_hops", frac(t.hops, t.packets), "hops")
	o.set("noc.queued_frac", frac(t.queued, t.transit), "fraction")
	o.set("dram.requests", float64(t.dramReqs), "count")
	o.set("dram.row_hit_frac", frac(t.rowHits, t.dramReqs), "fraction")
	o.note("simulated: L1 %d hits of %d lookups, LLC %d of %d; %d of %d NoC transit cycles queued over %d packets; %d DRAM row hits of %d requests; %d references in %.3f s of host time",
		t.l1Hits, t.l1Lookups, t.llcHits, t.llcLookups, t.queued, t.transit, t.packets, t.rowHits, t.dramReqs, t.refs, t.hostTime.Seconds())
}

// reportOverhead prints the time the replay spent in the traced calls
// with spans on and off; the difference is the tracing overhead.
func reportOverhead(o *outcome, requests int, on, off time.Duration) {
	o.note("traced replay of %d requests: %.3f s in traced calls with spans, %.3f s without; tracing overhead %+.1f%% of the untraced %.3f s",
		requests, on.Seconds(), off.Seconds(), 100*(on.Seconds()-off.Seconds())/off.Seconds(), off.Seconds())
}
