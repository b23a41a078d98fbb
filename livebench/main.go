// Command livebench is the repository's end-to-end benchmark: it drives an
// in-process live.CollectorDaemon on a 255-host Clos fabric from outside,
// probes over UDP loopback and device queries over TCP, in one closed loop
// per workload. See README.md for the workloads, metrics and traced mode.
//
//	bash livebench/run.sh --workload probe-churn --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"intsched/internal/simtime"
)

// setupRuns is how many times a run sets the daemon up; setup_s is the
// median and the last set-up serves the timed loop.
const setupRuns = 3

// defaultQueryPort is the one TCP port every daemon serves queries on, run
// after run. live.Query dials once per query, so each query leaves a
// TIME_WAIT socket; all of them then point at the port the next run queries
// too, and port reuse caps them below the kernel's TIME_WAIT table limit.
// Every run thus connects in the same kernel state. With a fresh port per
// daemon the table overflowed, and runs alternated between connecting with
// and without TIME_WAIT sockets towards their port as older ones expired.
const defaultQueryPort = 27183

// Time-wait warm-up (see warmTimeWait): query in steps until the kernel's
// TIME_WAIT count stops rising.
const (
	warmStep = 500 * time.Millisecond
	maxWarm  = 20 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the diagnostic line printed before the result: the host
// fingerprint, the inputs, and kernel state around the run.
type report struct {
	Workload string         `json:"workload"`
	Why      string         `json:"why"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    int            `json:"trace"`
	Host     map[string]any `json:"host"`
	Fabric   map[string]int `json:"fabric"`
	TimeWait map[string]int `json:"time_wait"`
	// WarmupTW is the TIME_WAIT count before and after each warm-up step.
	WarmupTW []int     `json:"warmup_time_wait"`
	SetupS   []float64 `json:"setup_s,omitempty"`
	// Samples is the number of round trips behind the query percentiles.
	Samples    int    `json:"samples"`
	Spans      int    `json:"spans,omitempty"`
	FirstError string `json:"first_error,omitempty"`
	TraceFile  string `json:"trace_file,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: query-cached, probe-churn or probe-sampled")
	seed := flag.Int64("seed", 1, "seed for link jitter, queue values and query order")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	queryPort := flag.Int("query-port", defaultQueryPort, "loopback TCP port every daemon of the run serves queries on")
	flag.Parse()
	for _, w := range workloads {
		w.daemon.TCPAddr = fmt.Sprintf("127.0.0.1:%d", *queryPort)
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 2
	}
	fab, err := newFabric(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 1
	}
	rep := &report{
		Workload: w.name, Why: w.why, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Host: fingerprint(),
		Fabric: map[string]int{"hosts": len(fab.hosts), "origins": len(fab.origins),
			"switches": fab.switches, "links": fab.links},
		TimeWait: map[string]int{"start": readTimeWait()},
	}
	if rep.WarmupTW, err = warmTimeWait(fab, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 1
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		path := filepath.Join(".bench_build", fmt.Sprintf("livebench-trace-%s-%d.tsv", w.name, *seed))
		rep.TraceFile = path
		res, err = runTraced(w, fab, *seed, dur, rep, path)
	} else {
		res, err = runUntraced(w, fab, *seed, dur, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 1
	}
	rep.TimeWait["end"] = readTimeWait()
	if err := printJSON(map[string]*report{"livebench": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 1
	}
	return 0
}

// runUntraced sets up setupRuns times, runs the workload's timed loop on
// the last set-up, and reports the end-to-end metrics.
func runUntraced(w *workload, fab *fabric, seed int64, dur time.Duration, rep *report) (*result, error) {
	var r *rig
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		var d time.Duration
		var err error
		if r, d, err = setUp(w, fab, seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rep.SetupS = setups
	rng := simtime.NewRand(seed).Stream("livebench-churn-queries")
	var loop, fresh *loopResult
	if w.churn {
		loop = churnLoop(r, rng, dur, 0)
		fresh = loop
	} else {
		var err error
		if loop, fresh, err = cachedRun(r, queryOrder(fab, seed), rng, dur); err != nil {
			r.close()
			return nil, fmt.Errorf("refill rank cache: %w", err)
		}
	}
	all := &loopResult{}
	all.add(loop)
	if fresh != loop {
		all.add(fresh)
	}
	healthErr := r.healthy()
	heap := r.daemonHeapMB()
	rep.Samples = len(loop.rtt)
	return outcome(rep, all, healthErr, map[string]metric{
		"query_rtt_p50_us":         {quantile(loop.rtt, 0.5), "us"},
		"query_rtt_p90_us":         {quantile(loop.rtt, 0.9), "us"},
		"query_qps":                {float64(loop.iterations) / loop.elapsed.Seconds(), "1/s"},
		"query_ok_frac":            {float64(all.iterations-all.failed) / float64(all.iterations), "frac"},
		"probe_to_rankable_p50_us": {quantile(fresh.fresh, 0.5), "us"},
		"probe_delivery_frac":      {ratio(fresh.ingested, fresh.probesSent), "frac"},
		"live_heap_mb":             {heap, "MB"},
		"allocs_per_query":         {float64(loop.mallocs) / float64(loop.iterations), "count"},
		"setup_s":                  {quantile(setups, 0.5), "s"},
	}), nil
}

// outcome builds the result from every loop iteration of the run and the
// final health check, and reports the first failure.
func outcome(rep *report, all *loopResult, healthErr error, m map[string]metric) *result {
	for _, err := range []error{all.firstErr, healthErr} {
		if err != nil && rep.FirstError == "" {
			rep.FirstError = err.Error()
		}
	}
	return &result{Correct: all.failed == 0 && healthErr == nil, Attempted: all.iterations, Failed: all.failed, Metrics: m}
}

// runTraced sets up once with tracing, runs the workload untraced for half
// the time and traced for the other half, writes the spans, and reports the
// per-layer metrics plus the tracing overhead against the untraced half.
func runTraced(w *workload, fab *fabric, seed int64, dur time.Duration, rep *report, path string) (*result, error) {
	tr := newTracer()
	r, d, err := setUp(w, fab, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	rep.SetupS = []float64{d.Seconds()}
	rng := simtime.NewRand(seed).Stream("livebench-churn-queries")
	order := queryOrder(fab, seed)
	half := dur / 2

	r.tr = nil
	cache0 := r.d.CacheStats()
	reasm0 := r.coll.Stats().ReassemblyCompletions
	var plain *loopResult
	if w.churn {
		plain = churnLoop(r, rng, half, 0)
	} else {
		plain = queryLoop(r, order, half)
	}
	cache1 := r.d.CacheStats()
	st := r.coll.Stats()
	epochsPerProbe := ratio(r.coll.Epoch(), st.ProbesReceived)
	reasmPerProbe := ratio(st.RecordsReassembled, st.ProbesReceived)

	r.tr = tr
	all := &loopResult{}
	all.add(plain)
	var traced *loopResult
	if w.churn {
		traced = tracedChurnLoop(tr, rng, half, 0)
		all.add(traced)
	} else {
		traced = tracedQueryLoop(tr, order, half)
		all.add(traced)
		all.add(tracedChurnLoop(tr, rng, 0, freshSteps/cachedBlocks))
	}
	healthErr := r.healthy()
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.Samples = len(plain.rtt)
	rep.Spans = len(tr.spans)
	ls := tr.summarize()
	med := func(name string) float64 { return quantile(ls.dur[name], 0.5) }
	perIter := func(l *loopResult) float64 { return l.elapsed.Seconds() / float64(l.iterations) }
	m := map[string]metric{
		"live.transport_self_us":           {quantile(tr.transport, 0.5), "us"},
		"wire.frame_encode_us":             {med("wire.WriteFrame"), "us"},
		"wire.frame_decode_us":             {med("wire.ReadFrame"), "us"},
		"wire.response_bytes":              {quantile(tr.respBytes, 0.5), "bytes"},
		"core.rank_warm_us":                {med("CollectorDaemon.Answer/warm"), "us"},
		"core.cache_hit_frac":              {ratio(cache1.Hits-cache0.Hits, cache1.Hits-cache0.Hits+cache1.Misses-cache0.Misses), "frac"},
		"core.rank_cold_us":                {med("CollectorDaemon.Answer/cold"), "us"},
		"core.rank_allocs":                 {quantile(ls.allocs["CollectorDaemon.Answer/cold"], 0.5), "count"},
		"collector.snapshot_rebuild_us":    {quantile(ls.rebuildUs, 0.5), "us"},
		"collector.snapshot_allocs":        {quantile(ls.rebuildAl, 0.5), "count"},
		"collector.rebuild_share":          {float64(ls.rebuilds) / float64(max(ls.snapCalls, 1)), "frac"},
		"collector.epochs_per_probe":       {epochsPerProbe, "ratio"},
		"live.udp_to_epoch_us":             {med("live.udp_to_epoch"), "us"},
		"telemetry.probe_decode_us":        {med("telemetry.UnmarshalProbeInto"), "us"},
		"telemetry.probe_bytes":            {quantile(tr.probeBytes, 0.5), "bytes"},
		"wire.datagram_decode_us":          {med("wire.UnmarshalDatagram"), "us"},
		"collector.ingest_us":              {med("collector.HandleProbe"), "us"},
		"collector.ingest_allocs":          {quantile(ls.allocs["collector.HandleProbe"], 0.5), "count"},
		"collector.reassembled_per_probe":  {reasmPerProbe, "ratio"},
		"collector.reassembly_completions": {float64(st.ReassemblyCompletions - reasm0), "count"},
		"live.query_rtt_p99_us":            {quantile(plain.rtt, 0.99), "us"},
		"trace.harness_self_us":            {quantile(ls.harnessUs, 0.5), "us"},
		"trace.overhead_pct":               {100 * (perIter(traced)/perIter(plain) - 1), "%"},
	}
	return outcome(rep, all, healthErr, m), nil
}

// warmTimeWait queries a throwaway daemon on the run's query port until the
// kernel's TIME_WAIT count stops rising, so that the first run on a fresh
// machine connects in the state later runs inherit from their predecessors.
// It returns the count before and after each warm-up step.
func warmTimeWait(fab *fabric, seed int64) ([]int, error) {
	w, err := findWorkload("query-cached")
	if err != nil {
		return nil, err
	}
	r, _, err := setUp(w, fab, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("time-wait warm-up: %w", err)
	}
	defer r.close()
	order := queryOrder(fab, seed)
	series := []int{readTimeWait()}
	for start := time.Now(); ; {
		if res := queryLoop(r, order, warmStep); res.failed > 0 {
			return series, fmt.Errorf("time-wait warm-up: %w", res.firstErr)
		}
		prev := series[len(series)-1]
		cur := readTimeWait()
		series = append(series, cur)
		if cur <= prev+prev/100 || time.Since(start) >= maxWarm {
			return series, nil
		}
	}
}

// readTimeWait returns the kernel's TCP TIME_WAIT socket count from
// /proc/net/sockstat, or -1 where it cannot be read.
func readTimeWait() int {
	b, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(f); i += 2 {
			if f[i] == "tw" {
				if n, err := strconv.Atoi(f[i+1]); err == nil {
					return n
				}
			}
		}
	}
	return -1
}

// fingerprint identifies the host a result was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
