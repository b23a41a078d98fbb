package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"intsched/internal/collector"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
	"intsched/internal/wire"
)

// Traced mode replays a workload's generated stream and records in-memory
// spans around the program's public calls at each layer boundary. The
// benchmark cannot reach inside the daemon, so the layers the daemon runs
// on its own goroutines are replayed in process on the same inputs:
//   - each probe's bytes go through wire.UnmarshalDatagram and
//     telemetry.UnmarshalProbeInto, then Collector.HandleProbe on a shadow
//     collector configured like the daemon's and fed the same stream;
//   - each query is answered in process by CollectorDaemon.Answer (cold on
//     a fresh epoch, then warm), the live.Query round trip is timed, and
//     its response goes through wire.WriteFrame and wire.ReadFrame.
// The transport's self time is the live.Query span minus the warm Answer
// for the same request.

// span is one recorded call. Spans of one loop iteration share iter (-1 for
// set-up) and have the iteration span as parent.
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	iter       int32
	// allocs counts process mallocs inside the span (-1: not counted).
	allocs int64
	// rebuilt marks a Collector.Snapshot call that returned a new pointer.
	rebuilt bool
}

type tracer struct {
	t0    time.Time
	spans []span
	root  int32
	iter  int32
	r     *rig

	shadow     *collector.Collector
	shadowBase time.Time
	payload    telemetry.ProbePayload
	lastTopo   *collector.Topology

	probeBytes, respBytes, transport []float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), root: -1, iter: -1, spans: make([]span, 0, 1<<16)}
}

// attach binds the tracer to a freshly started rig, with a shadow collector
// configured like the daemon's.
func (t *tracer) attach(r *rig, w *workload) {
	t.r = r
	t.shadowBase = time.Now()
	t.shadow = collector.New(r.coll.Self(), func() time.Duration { return time.Since(t.shadowBase) }, collector.Config{
		QueueWindow:        w.daemon.QueueWindow,
		DefaultLinkRateBps: w.daemon.LinkRateBps,
		AdjacencyTTL:       w.daemon.AdjacencyTTL,
		Shards:             w.daemon.Shards,
	})
}

func (t *tracer) begin(name string) int32 {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: t.root, iter: t.iter, allocs: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.t0) }

// beginCounted and endCounted bracket a span with exact malloc counts.
func (t *tracer) beginCounted(name string) (int32, uint64) {
	m := mallocs()
	return t.begin(name), m
}

func (t *tracer) endCounted(i int32, m uint64) {
	t.end(i)
	t.spans[i].allocs = int64(mallocs() - m)
}

func (t *tracer) dur(i int32) time.Duration { return t.spans[i].end - t.spans[i].start }

func (t *tracer) startIteration(n int) {
	t.iter = int32(n)
	t.root = -1
	t.root = t.begin("iteration")
}

func (t *tracer) endIteration() {
	t.end(t.root)
	t.root, t.iter = -1, -1
}

// ingestReplay decodes a probe datagram like the daemon's receive loop and
// ingests it into the shadow collector, rebased to the shadow's clock as the
// daemon rebases to its own.
func (t *tracer) ingestReplay(buf []byte) {
	sp := t.begin("wire.UnmarshalDatagram")
	dg, err := wire.UnmarshalDatagram(buf)
	t.end(sp)
	if err != nil {
		return
	}
	t.probeBytes = append(t.probeBytes, float64(len(dg.Payload)))
	sp = t.begin("telemetry.UnmarshalProbeInto")
	err = telemetry.UnmarshalProbeInto(&t.payload, dg.Payload)
	t.end(sp)
	if err != nil {
		return
	}
	base := time.Duration(t.shadowBase.UnixNano())
	for i := range t.payload.Stack.Records {
		t.payload.Stack.Records[i].EgressTS -= base
	}
	t.payload.SentAt -= base
	sp, m := t.beginCounted("collector.HandleProbe")
	t.shadow.HandleProbe(&t.payload)
	t.endCounted(sp, m)
}

// snapshot calls the daemon collector's Snapshot, noting whether it rebuilt.
func (t *tracer) snapshot() *collector.Topology {
	sp, m := t.beginCounted("collector.Snapshot")
	topo := t.r.coll.Snapshot()
	t.endCounted(sp, m)
	t.spans[sp].rebuilt = topo != t.lastTopo
	t.lastTopo = topo
	return topo
}

// answer calls CollectorDaemon.Answer; kind names the expected cache state.
func (t *tracer) answer(req *wire.QueryRequest, kind string) *wire.QueryResponse {
	sp, m := t.beginCounted("CollectorDaemon.Answer/" + kind)
	resp := t.r.d.Answer(req)
	t.endCounted(sp, m)
	return resp
}

// query times one live.Query, then a warm in-process Answer for the same
// request, whose time the transport self time excludes.
func (t *tracer) query(req *wire.QueryRequest) (*wire.QueryResponse, error) {
	sp := t.begin("live.Query")
	resp, err := t.r.query(req)
	t.end(sp)
	t.answer(req, "warm")
	t.transport = append(t.transport, micros(t.dur(sp)-t.dur(int32(len(t.spans)-1))))
	return resp, err
}

// frames re-encodes and decodes a response the way the query protocol does.
func (t *tracer) frames(resp *wire.QueryResponse) {
	var buf bytes.Buffer
	sp := t.begin("wire.WriteFrame")
	err := wire.WriteFrame(&buf, resp)
	t.end(sp)
	if err != nil {
		return
	}
	t.respBytes = append(t.respBytes, float64(buf.Len()))
	var out wire.QueryResponse
	sp = t.begin("wire.ReadFrame")
	_ = wire.ReadFrame(&buf, &out)
	t.end(sp)
}

// tracedQueryLoop is queryLoop with every layer replayed under spans.
func tracedQueryLoop(t *tracer, order []queryKey, dur time.Duration) *loopResult {
	r := t.r
	res := &loopResult{}
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		t.startIteration(i)
		k := order[i%len(order)]
		req := k.request(r.fab)
		t.snapshot()
		resp, err := t.query(&req)
		res.iterations++
		switch {
		case err != nil:
			res.fail(fmt.Errorf("query %s/%s: %w", req.From, req.Metric, err))
		case !sameAnswer(resp, r.refs[k]):
			res.fail(fmt.Errorf("query %s/%s: TCP answer differs from the in-process reference", req.From, req.Metric))
		default:
			t.frames(resp)
		}
		t.endIteration()
	}
	res.elapsed = time.Since(start)
	return res
}

// tracedChurnLoop is churnLoop with every layer replayed under spans: two
// back-to-back snapshots after the probe lands (the second shows how often
// the snapshot expires on its own), a cold in-process Answer, then the TCP
// query and a warm Answer.
func tracedChurnLoop(t *tracer, rng *simtime.Rand, dur time.Duration, n int) *loopResult {
	r := t.r
	res := &loopResult{}
	keys := allKeys(r.fab)
	start := time.Now()
	for i := 0; (n > 0 && i < n) || (n == 0 && time.Since(start) < dur); i++ {
		t.startIteration(i)
		res.iterations++
		k := keys[rng.Intn(len(keys))]
		if _, err := r.probe(r.nextOrigin()); err != nil {
			res.fail(err)
			t.endIteration()
			continue
		}
		req := k.request(r.fab)
		t.snapshot()
		t.snapshot()
		t.answer(&req, "cold")
		resp, err := t.query(&req)
		if err == nil {
			err = r.checkAnswer(&req, resp)
		}
		if err != nil {
			res.fail(fmt.Errorf("query after probe: %w", err))
		} else {
			t.frames(resp)
		}
		t.endIteration()
	}
	res.elapsed = time.Since(start)
	return res
}

// layerStats are the per-span-name samples of a trace.
type layerStats struct {
	dur, allocs map[string][]float64
	rebuildUs   []float64
	rebuildAl   []float64
	snapCalls   int
	rebuilds    int
	harnessUs   []float64
}

// summarize derives per-name durations, malloc counts and iteration self
// times (the part of an iteration no layer span covers).
func (t *tracer) summarize() *layerStats {
	ls := &layerStats{dur: make(map[string][]float64), allocs: make(map[string][]float64)}
	child := t.childTime()
	for i, s := range t.spans {
		d := s.end - s.start
		ls.dur[s.name] = append(ls.dur[s.name], micros(d))
		if s.allocs >= 0 {
			ls.allocs[s.name] = append(ls.allocs[s.name], float64(s.allocs))
		}
		switch s.name {
		case "iteration":
			ls.harnessUs = append(ls.harnessUs, micros(d-child[i]))
		case "collector.Snapshot":
			ls.snapCalls++
			if s.rebuilt {
				ls.rebuilds++
				ls.rebuildUs = append(ls.rebuildUs, micros(d))
				ls.rebuildAl = append(ls.rebuildAl, float64(s.allocs))
			}
		}
	}
	return ls
}

// childTime returns, per span, the time its child spans cover (children of
// one span run one after another).
func (t *tracer) childTime() []time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	return child
}

// write stores the spans as tab-separated lines: iteration, name, parent
// span index, start and end in ns since the trace began, mallocs, and self
// time in ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	child := t.childTime()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "iter\tname\tparent\tstart_ns\tend_ns\tallocs\tself_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", s.iter, s.name, s.parent,
			s.start.Nanoseconds(), s.end.Nanoseconds(), s.allocs, (s.end - s.start - child[i]).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
