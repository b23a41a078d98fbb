package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"intsched/internal/collector"
	"intsched/internal/live"
	"intsched/internal/wire"
)

const (
	// topK is the candidate count every device query asks for.
	topK = 8
	// probeTimeout bounds the wait for one probe to become visible.
	probeTimeout = time.Second
	// queryTimeout bounds one live.Query round trip.
	queryTimeout = 2 * time.Second
	// epochPoll is the sleep between epoch reads while a probe is in
	// flight. Sleeping, rather than runtime.Gosched spinning, leaves the
	// netpoller free to wake the daemon's UDP reader.
	epochPoll = 20 * time.Microsecond
	// maxLearnRounds bounds PINT learning: every stream reassembles within a
	// few dozen rounds at p=0.25.
	maxLearnRounds = 400
)

// errProbeTimeout reports a probe the daemon did not ingest in time.
var errProbeTimeout = errors.New("probe not ingested before timeout")

var queryMetrics = []string{"delay", "bandwidth"}

// queryKey is one device query: an edge host and a ranking metric.
type queryKey struct {
	origin int
	metric int
}

func (k queryKey) request(fab *fabric) wire.QueryRequest {
	return wire.QueryRequest{From: fab.origins[k.origin], Metric: queryMetrics[k.metric], Count: topK, Sorted: true}
}

func allKeys(fab *fabric) []queryKey {
	keys := make([]queryKey, 0, len(fab.origins)*len(queryMetrics))
	for o := range fab.origins {
		for m := range queryMetrics {
			keys = append(keys, queryKey{o, m})
		}
	}
	return keys
}

// rig is one in-process daemon driven from outside: probes over UDP, device
// queries over TCP.
type rig struct {
	fab  *fabric
	d    *live.CollectorDaemon
	coll *collector.Collector
	conn *net.UDPConn
	gen  *prober
	// refs holds the in-process Answer for every query key, captured when
	// set-up filled the rank cache.
	refs map[queryKey]*wire.QueryResponse
	sent uint64
	// next is the next origin of the probe round robin.
	next int
	tr   *tracer
}

// setUp starts a daemon for w, learns the whole fabric through paced
// probes, and fills the rank cache with one in-process Answer per query
// key. The returned duration is the set-up time. tr, when non-nil, records
// spans for the set-up's probes and answers.
func setUp(w *workload, fab *fabric, seed int64, tr *tracer) (*rig, time.Duration, error) {
	start := time.Now()
	d, err := live.NewCollectorDaemon(fab.sched, w.daemon)
	if err != nil {
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	r := &rig{fab: fab, d: d, coll: d.Collector(), gen: newProber(fab, seed, w.sampleRate), tr: tr}
	if err := r.dial(); err != nil {
		r.close()
		return nil, 0, err
	}
	if tr != nil {
		tr.attach(r, w)
	}
	if err := r.learn(); err != nil {
		r.close()
		return nil, 0, err
	}
	if err := r.fillCache(); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, time.Since(start), nil
}

func (r *rig) dial() error {
	addr, err := net.ResolveUDPAddr("udp", r.d.UDPAddr())
	if err != nil {
		return fmt.Errorf("resolve probe address: %w", err)
	}
	r.conn, err = net.DialUDP("udp", nil, addr)
	if err != nil {
		return fmt.Errorf("dial probe address: %w", err)
	}
	return nil
}

func (r *rig) close() {
	if r.conn != nil {
		r.conn.Close()
	}
	if r.d != nil {
		r.d.Close()
	}
}

// learn sends probes round robin, each paced on the previous one becoming
// visible (an unpaced burst overflows the daemon's UDP receive buffer),
// until the fabric is learned: one pass for deterministic probes, and for
// PINT until every stream has reassembled its full path.
func (r *rig) learn() error {
	for round := 0; ; round++ {
		if round == maxLearnRounds {
			return fmt.Errorf("learn fabric: streams not reassembled after %d rounds", round)
		}
		for o := range r.fab.origins {
			if _, err := r.probe(o); err != nil {
				return fmt.Errorf("learn fabric: %w", err)
			}
		}
		if r.gen.allReassembled() {
			break
		}
	}
	st := r.coll.Stats()
	if st.ProbesReceived != r.sent {
		return fmt.Errorf("learn fabric: collector ingested %d of %d probes", st.ProbesReceived, r.sent)
	}
	if r.gen.sampler != nil && st.ReassemblyCompletions != r.gen.completions {
		return fmt.Errorf("learn fabric: collector completed %d reassemblies, probes imply %d",
			st.ReassemblyCompletions, r.gen.completions)
	}
	if got := len(r.snapshot().Hosts()); got != len(r.fab.hosts) {
		return fmt.Errorf("learn fabric: %d hosts learned, fabric has %d", got, len(r.fab.hosts))
	}
	return r.healthy()
}

// fillCache answers every query key in process: it builds the first
// snapshot, fills the rank cache, and keeps each answer as the reference
// the TCP answers of query-cached must equal.
func (r *rig) fillCache() error {
	r.refs = make(map[queryKey]*wire.QueryResponse)
	for _, k := range allKeys(r.fab) {
		req := k.request(r.fab)
		resp := r.answer(&req, "cold")
		if err := r.checkAnswer(&req, resp); err != nil {
			return fmt.Errorf("fill rank cache: %w", err)
		}
		r.refs[k] = resp
	}
	return nil
}

// probe sends origin o's next probe and waits until the collector's epoch
// moves, which happens once the daemon ingests it. It returns the send time.
func (r *rig) probe(o int) (time.Time, error) {
	e0 := r.coll.Epoch()
	buf, err := r.gen.next(o, time.Now())
	if err != nil {
		return time.Time{}, err
	}
	var sp int32
	if r.tr != nil {
		r.tr.ingestReplay(buf)
		sp = r.tr.begin("live.udp_to_epoch")
	}
	sent := time.Now()
	err = r.send(buf, e0)
	if r.tr != nil {
		r.tr.end(sp)
	}
	if err != nil {
		return sent, fmt.Errorf("%s seq %d: %w", r.fab.origins[o], r.gen.seq[o], err)
	}
	return sent, nil
}

// send writes one probe datagram and waits for the epoch to leave e0.
func (r *rig) send(buf []byte, e0 uint64) error {
	if _, err := r.conn.Write(buf); err != nil {
		return fmt.Errorf("send probe: %w", err)
	}
	r.sent++
	for deadline := time.Now().Add(probeTimeout); r.coll.Epoch() == e0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w (%v)", errProbeTimeout, probeTimeout)
		}
		time.Sleep(epochPoll)
	}
	return nil
}

// nextOrigin advances the probe round robin (see churnDaemon for how its
// period relates to the adjacency TTL).
func (r *rig) nextOrigin() int {
	o := r.next
	r.next = (r.next + 1) % len(r.fab.origins)
	return o
}

// answer calls the daemon's in-process Answer, traced when tracing.
func (r *rig) answer(req *wire.QueryRequest, kind string) *wire.QueryResponse {
	if r.tr != nil {
		return r.tr.answer(req, kind)
	}
	return r.d.Answer(req)
}

// snapshot returns the daemon collector's snapshot, traced when tracing.
func (r *rig) snapshot() *collector.Topology {
	if r.tr != nil {
		return r.tr.snapshot()
	}
	return r.coll.Snapshot()
}

// query sends one device query over TCP.
func (r *rig) query(req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return live.Query(r.d.QueryAddr(), req, queryTimeout)
}

// checkAnswer verifies an answer on a learned fabric: topK distinct,
// reachable, learned hosts other than the requester, sorted best first by
// the metric with ties broken by node name, as the ranker orders them.
func (r *rig) checkAnswer(req *wire.QueryRequest, resp *wire.QueryResponse) error {
	if resp.Error != "" {
		return fmt.Errorf("%s/%s: answer error %q", req.From, req.Metric, resp.Error)
	}
	if len(resp.Candidates) != topK {
		return fmt.Errorf("%s/%s: %d candidates, want %d", req.From, req.Metric, len(resp.Candidates), topK)
	}
	for i, c := range resp.Candidates {
		if !c.Reachable || !r.fab.hosts[c.Node] || c.Node == req.From {
			return fmt.Errorf("%s/%s: bad candidate %+v", req.From, req.Metric, c)
		}
		if i == 0 {
			continue
		}
		p := resp.Candidates[i-1]
		var before, tie bool
		switch req.Metric {
		case "delay":
			before, tie = p.DelayNs < c.DelayNs, p.DelayNs == c.DelayNs
		default:
			before, tie = p.BandwidthBps > c.BandwidthBps, p.BandwidthBps == c.BandwidthBps
		}
		if !before && !(tie && p.Node < c.Node) {
			return fmt.Errorf("%s/%s: candidates %d and %d out of order", req.From, req.Metric, i-1, i)
		}
	}
	return nil
}

// healthy checks that the daemon dropped nothing.
func (r *rig) healthy() error {
	ds, cs := r.d.Stats(), r.coll.Stats()
	if ds.DatagramErrors+ds.UnexpectedKinds+ds.PayloadErrors+cs.ProbesOutOfOrder+cs.IngestDrops != 0 {
		return fmt.Errorf("daemon dropped input: %+v, out of order %d, ingest drops %d",
			ds, cs.ProbesOutOfOrder, cs.IngestDrops)
	}
	return nil
}

// sameAnswer reports whether a TCP answer equals the in-process reference.
func sameAnswer(a, b *wire.QueryResponse) bool {
	if a.Metric != b.Metric || a.Error != b.Error || len(a.Candidates) != len(b.Candidates) || len(a.Batch)+len(b.Batch) != 0 {
		return false
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			return false
		}
	}
	return true
}

// daemonHeapMB closes the daemon and returns the live heap it held: the
// post-GC HeapAlloc before closing minus the one after, so the benchmark's
// own buffers and probe generator cancel out.
func (r *rig) daemonHeapMB() float64 {
	held := postGCHeap()
	r.close()
	r.d, r.coll, r.conn = nil, nil, nil
	freed := postGCHeap()
	runtime.KeepAlive(r)
	return float64(int64(held)-int64(freed)) / 1e6
}

func postGCHeap() uint64 {
	// Two cycles: the first leaves sync.Pool contents in the victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
