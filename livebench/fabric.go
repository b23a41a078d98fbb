package main

import (
	"fmt"
	"sort"
	"time"

	"intsched/internal/experiment"
	"intsched/internal/pint"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
	"intsched/internal/wire"
)

// fabric is the benchmark's model of the network the probes describe: the
// default experiment.ClosSpec (255 edge hosts plus the scheduler host, 208
// switches), per-switch port numbering in the simulator's connect order, the
// seeded per-link delays, and one fixed shortest path per edge host toward
// the scheduler. The daemon never sees this model, only the probes built
// from it.
type fabric struct {
	sched string
	// origins lists the probing edge hosts (every host but the scheduler),
	// sorted; an origin is named by its index here.
	origins []string
	// hosts holds every host, the scheduler included: the candidates a
	// learned fabric must offer.
	hosts map[string]bool
	// ports is the port count of each switch; every probe record carries
	// one queue register per port.
	ports    map[string]int
	paths    [][]hop
	switches int
	links    int
}

// hop is one switch on an origin's probe path.
type hop struct {
	dev     string
	in, out int
	// link is the delay of the link the probe arrived on.
	link time.Duration
}

func newFabric(seed int64) (*fabric, error) {
	spec, err := experiment.ClosSpec(experiment.ClosConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("clos fabric: %w", err)
	}
	// Ports are numbered in the order the simulator connects them:
	// switch-switch links first, then hosts in sorted order.
	portOf := make(map[string]map[string]int)
	nbrs := make(map[string][]string)
	delay := make(map[[2]string]time.Duration)
	connect := func(a, b string, d time.Duration) {
		for _, e := range [][2]string{{a, b}, {b, a}} {
			if portOf[e[0]] == nil {
				portOf[e[0]] = make(map[string]int)
			}
			portOf[e[0]][e[1]] = len(portOf[e[0]])
			nbrs[e[0]] = append(nbrs[e[0]], e[1])
			delay[e] = d
		}
	}
	for i, l := range spec.Links {
		connect(l[0], l[1], time.Duration(spec.LinkDelayUs[i])*time.Microsecond)
	}
	hostDelay := experiment.DefaultLinkDelay
	if spec.DelayUs > 0 {
		hostDelay = time.Duration(spec.DelayUs) * time.Microsecond
	}
	f := &fabric{
		sched:    spec.Scheduler,
		hosts:    make(map[string]bool),
		ports:    make(map[string]int),
		switches: len(spec.Switches),
		links:    len(spec.Links) + len(spec.Hosts),
	}
	for h := range spec.Hosts {
		f.hosts[h] = true
		if h != spec.Scheduler {
			f.origins = append(f.origins, h)
		}
	}
	sort.Strings(f.origins)
	hosts := append([]string{spec.Scheduler}, f.origins...)
	sort.Strings(hosts)
	for _, h := range hosts {
		connect(h, spec.Hosts[h], hostDelay)
	}
	for _, sw := range spec.Switches {
		f.ports[sw] = len(portOf[sw])
	}

	// Hop distance to the scheduler; each origin then walks a seeded
	// uniform choice among the next-closer neighbors (one ECMP path, fixed
	// for the run so no stream ever remaps).
	dist := map[string]int{spec.Scheduler: 0}
	queue := []string{spec.Scheduler}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range nbrs[n] {
			if _, ok := dist[m]; !ok {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	rng := simtime.NewRand(seed).Stream("livebench-paths")
	for _, o := range f.origins {
		nodes := []string{o}
		for cur := o; cur != spec.Scheduler; {
			var closer []string
			for _, m := range nbrs[cur] {
				if dist[m] == dist[cur]-1 {
					closer = append(closer, m)
				}
			}
			cur = simtime.Pick(rng, closer)
			nodes = append(nodes, cur)
		}
		path := make([]hop, 0, len(nodes)-2)
		for i := 1; i+1 < len(nodes); i++ {
			dev := nodes[i]
			path = append(path, hop{
				dev:  dev,
				in:   portOf[dev][nodes[i-1]],
				out:  portOf[dev][nodes[i+1]],
				link: delay[[2]string{nodes[i-1], dev}],
			})
		}
		f.paths = append(f.paths, path)
	}
	return f, nil
}

// prober builds the probe stream: origin o's next probe with seeded queue
// registers, encoded with telemetry.AppendProbe inside a wire.Datagram. With
// a sampler it emits PINT probabilistic probes, each switch inserting its
// record with the probe's sample rate, exactly as the live soft switches do.
type prober struct {
	fab     *fabric
	queues  *simtime.Rand
	sampler *pint.Sampler
	rate    uint16
	seq     []uint64
	payload telemetry.ProbePayload
	enc     []byte

	// Mirror of the collector's reassembly cycle accounting: a stream's
	// cycle completes once every hop has reported since the last
	// completion. reassembled marks streams that completed at least once,
	// after which every hop of the stream holds a valid fragment.
	cycle       [][]bool
	cycleSeen   []int
	reassembled []bool
	completions uint64
}

// newProber returns a deterministic prober when rate is 0, and a PINT
// prober sampling each hop with probability rate otherwise.
func newProber(fab *fabric, seed int64, rate float64) *prober {
	root := simtime.NewRand(seed)
	g := &prober{
		fab:    fab,
		queues: root.Stream("livebench-queues"),
		seq:    make([]uint64, len(fab.origins)),
	}
	if rate > 0 {
		g.sampler = pint.NewSampler(root.Stream("livebench-pint"))
		g.rate = telemetry.RateToWire(rate)
		g.cycle = make([][]bool, len(fab.origins))
		for o, path := range fab.paths {
			g.cycle[o] = make([]bool, len(path))
		}
		g.cycleSeen = make([]int, len(fab.origins))
		g.reassembled = make([]bool, len(fab.origins))
	}
	return g
}

// allReassembled reports whether every PINT stream completed a cycle
// (always true for deterministic probes, which carry the full path).
func (g *prober) allReassembled() bool {
	for _, done := range g.reassembled {
		if !done {
			return false
		}
	}
	return true
}

// next encodes origin o's next probe, stamped at now, as datagram bytes.
func (g *prober) next(o int, now time.Time) ([]byte, error) {
	origin := g.fab.origins[o]
	path := g.fab.paths[o]
	ns := now.UnixNano()
	g.seq[o]++
	p := &g.payload
	p.Origin, p.Target, p.Seq = origin, "", g.seq[o]
	p.SentAt, p.LastHopLatency = time.Duration(ns), 0
	p.HopCount = len(path)
	p.Mode, p.SampleRate = telemetry.ModeDeterministic, 0
	if g.sampler != nil {
		p.Mode, p.SampleRate = telemetry.ModeProbabilistic, g.rate
	}
	recs := p.Stack.Records[:0]
	for i, h := range path {
		if g.sampler != nil && !g.sampler.Sample(h.dev, origin, g.fab.sched, g.rate) {
			continue
		}
		if len(recs) < cap(recs) {
			recs = recs[:len(recs)+1]
		} else {
			recs = append(recs, telemetry.Record{})
		}
		rec := &recs[len(recs)-1]
		rec.Device, rec.HopIndex = h.dev, i
		rec.IngressPort, rec.EgressPort = h.in, h.out
		rec.LinkLatency, rec.HopLatency = h.link, 0
		rec.EgressTS = time.Duration(ns)
		queues := rec.Queues[:0]
		for port := 0; port < g.fab.ports[h.dev]; port++ {
			queues = append(queues, telemetry.PortQueue{Port: port, MaxQueue: g.queueValue(), Packets: uint32(g.queues.Intn(2000))})
		}
		rec.Queues = queues
		if g.sampler != nil && !g.cycle[o][i] {
			g.cycle[o][i] = true
			g.cycleSeen[o]++
		}
	}
	p.Stack.Records = recs
	if g.sampler != nil && g.cycleSeen[o] == len(path) {
		g.completions++
		g.reassembled[o] = true
		clear(g.cycle[o])
		g.cycleSeen[o] = 0
	}
	enc, err := telemetry.AppendProbe(g.enc[:0], p)
	if err != nil {
		return nil, fmt.Errorf("encode probe: %w", err)
	}
	g.enc = enc
	dg := wire.Datagram{
		Kind:     wire.KindProbe,
		TTL:      wire.DefaultTTL,
		Src:      origin,
		Dst:      g.fab.sched,
		SentAtNs: ns,
		EgressTS: ns,
		Payload:  enc,
	}
	return dg.Marshal()
}

// queueValue draws one port's max-queue register: idle three times in four,
// otherwise 1 to 6 packets.
func (g *prober) queueValue() int {
	if g.queues.Intn(4) != 0 {
		return 0
	}
	return 1 + g.queues.Intn(6)
}
