package main

import (
	"fmt"
	"runtime"
	"time"

	"intsched/internal/collector"
	"intsched/internal/live"
	"intsched/internal/simtime"
)

// workload is one benchmark input: the daemon configuration, the probe
// telemetry mode, and the closed loop that drives it. Every loop runs one
// actor at a time: the next request leaves only after the previous answer
// arrived.
type workload struct {
	name string
	// why records the reason the workload exists.
	why    string
	daemon live.DaemonConfig
	// sampleRate is the PINT per-hop insertion probability (0:
	// deterministic probes carrying every hop).
	sampleRate float64
	// churn selects the lockstep probe+query loop; otherwise the loop
	// sends device queries only.
	churn bool
}

// churnDaemon keeps the default 200 ms queue window but lengthens the
// adjacency TTL from its default of 5 windows (1 s) to 25 (5 s). The loop
// refreshes each of the 255 streams once per round robin, which takes about
// a second at the ~250 steps/s a 2-vCPU host sustains, so the default TTL
// would age edges out mid-run; at 5 s the period stays well inside it. A
// slowdown large enough to stretch the period past 5 s shows as a drop in
// query_ok_frac.
var churnDaemon = live.DaemonConfig{AdjacencyTTL: 25 * collector.DefaultQueueWindow}

var workloads = []*workload{
	{
		name: "query-cached",
		why: "Isolates the device-facing query path (TCP dial, JSON frame, rank-cache lookup) " +
			"and bypasses ingest, snapshot rebuild and cold ranking: no probes arrive while it " +
			"is timed and the queue window outlives the run, so every answer is a cache hit.",
		daemon: live.DaemonConfig{QueueWindow: time.Hour},
	},
	{
		name: "probe-churn",
		why: "The freshness path: each step's probe moves the epoch, so every answer pays " +
			"UDP read, decode, ingest, snapshot rebuild and a cold rank under the default " +
			"200 ms queue window.",
		daemon: churnDaemon,
		churn:  true,
	},
	{
		name: "probe-sampled",
		why: "The churn loop with PINT probes at p=0.25: ingest goes through fragment " +
			"reassembly instead of full-path learning; the only workload where reassembly runs.",
		daemon:     churnDaemon,
		sampleRate: 0.25,
		churn:      true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// query-cached also reports probe-to-rankable time (under its long queue
// window): its timed loop is cut into cachedBlocks blocks, and after each
// block it runs freshSteps/cachedBlocks lockstep probe+query steps, then
// refills the rank cache in process before the next block. Spreading the
// steps over the run averages them over the host's slow load swings.
const (
	cachedBlocks = 10
	freshSteps   = 400
)

// loopResult is what one timed loop measured.
type loopResult struct {
	// rtt and fresh are per-iteration microseconds: the live.Query round
	// trip, and UDP send to answer received (churn loops only).
	rtt, fresh []float64
	iterations int
	failed     int
	elapsed    time.Duration
	mallocs    uint64
	probesSent uint64
	ingested   uint64
	// firstErr is the first failure, for the report.
	firstErr error
}

// add merges another loop's measurements into l.
func (l *loopResult) add(o *loopResult) {
	l.rtt = append(l.rtt, o.rtt...)
	l.fresh = append(l.fresh, o.fresh...)
	l.iterations += o.iterations
	l.failed += o.failed
	l.elapsed += o.elapsed
	l.mallocs += o.mallocs
	l.probesSent += o.probesSent
	l.ingested += o.ingested
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func (l *loopResult) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// queryOrder is the seeded order in which query-cached rotates over every
// (host, metric) key.
func queryOrder(fab *fabric, seed int64) []queryKey {
	keys := allKeys(fab)
	perm := simtime.NewRand(seed).Stream("livebench-query-order").Perm(len(keys))
	order := make([]queryKey, len(keys))
	for i, j := range perm {
		order[i] = keys[j]
	}
	return order
}

// queryLoop sends cached device queries for dur, rotating over order, and
// checks each TCP answer against the in-process reference.
func queryLoop(r *rig, order []queryKey, dur time.Duration) *loopResult {
	res := &loopResult{}
	before := mallocs()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		k := order[i%len(order)]
		req := k.request(r.fab)
		t0 := time.Now()
		resp, err := r.query(&req)
		res.rtt = append(res.rtt, micros(time.Since(t0)))
		res.iterations++
		switch {
		case err != nil:
			res.fail(fmt.Errorf("query %s/%s: %w", req.From, req.Metric, err))
		case !sameAnswer(resp, r.refs[k]):
			res.fail(fmt.Errorf("query %s/%s: TCP answer differs from the in-process reference", req.From, req.Metric))
		}
	}
	res.elapsed = time.Since(start)
	res.mallocs = mallocs() - before
	return res
}

// churnLoop runs lockstep steps for dur (or n steps when n > 0): send the
// next round-robin probe, wait until the collector's epoch moves, then send
// one device query for a seeded (host, metric) key and check the answer.
func churnLoop(r *rig, rng *simtime.Rand, dur time.Duration, n int) *loopResult {
	res := &loopResult{}
	keys := allKeys(r.fab)
	received := r.coll.Stats().ProbesReceived
	sent := r.sent
	before := mallocs()
	start := time.Now()
	for i := 0; (n > 0 && i < n) || (n == 0 && time.Since(start) < dur); i++ {
		res.iterations++
		k := keys[rng.Intn(len(keys))]
		t, err := r.probe(r.nextOrigin())
		if err != nil {
			res.fail(err)
			continue
		}
		req := k.request(r.fab)
		t0 := time.Now()
		resp, err := r.query(&req)
		done := time.Now()
		res.rtt = append(res.rtt, micros(done.Sub(t0)))
		res.fresh = append(res.fresh, micros(done.Sub(t)))
		if err == nil {
			err = r.checkAnswer(&req, resp)
		}
		if err != nil {
			res.fail(fmt.Errorf("query after probe: %w", err))
		}
	}
	res.elapsed = time.Since(start)
	res.mallocs = mallocs() - before
	res.probesSent = r.sent - sent
	res.ingested = r.coll.Stats().ProbesReceived - received
	return res
}

// cachedRun is query-cached's timed run: cachedBlocks blocks of cached
// queries for dur in total, each followed by lockstep probe+query steps and
// an untimed in-process refill of the rank cache and references.
func cachedRun(r *rig, order []queryKey, rng *simtime.Rand, dur time.Duration) (cached, fresh *loopResult, err error) {
	cached, fresh = &loopResult{}, &loopResult{}
	for b := 0; b < cachedBlocks; b++ {
		if b > 0 {
			if err := r.fillCache(); err != nil {
				return nil, nil, err
			}
		}
		cached.add(queryLoop(r, order, dur/cachedBlocks))
		fresh.add(churnLoop(r, rng, 0, freshSteps/cachedBlocks))
	}
	return cached, fresh, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
