package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// The fleet runs in its own process so the load generator's goroutines,
// allocations and GC pauses never share a scheduler with the system under
// test. It speaks a line protocol on stdin/stdout:
//
//	fleet -> "ready <gateway url>"
//	"mark" -> "marked"     counters snapshotted: the measured phase starts
//	"stop" -> <JSON line>  fleetReport for the measured phase, then exit
//
// EOF on stdin shuts the fleet down without a report, so a driver that
// dies never leaves a fleet behind.

// fleetReport is what the fleet measured between mark and stop.
type fleetReport struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	Elapsed    float64  `json:"elapsed"` // seconds between mark and stop
	HeapInuse  uint64   `json:"heapInuse"`
	StageBytes int64    `json:"stageBytes"` // stage-cache bytes held at stop
	Delta      counters `json:"delta"`
	// Traced fleets only: mean of the summed siwa_workers_busy and
	// siwa_queued gauges scraped at 20 Hz, and every span recorded.
	BusyMean   float64 `json:"busyMean"`
	QueuedMean float64 `json:"queuedMean"`
	Spans      []span  `json:"spans,omitempty"`
}

// counters is a snapshot of every counter the benchmark reads, summed over
// the replicas where a replica owns it.
type counters struct {
	GatewayAnalyze uint64  `json:"gatewayAnalyze"`
	GatewayBatch   uint64  `json:"gatewayBatch"`
	Dedup          uint64  `json:"dedup"`
	Upstream       uint64  `json:"upstream"` // analyze and batch calls the replicas received
	Analyses       uint64  `json:"analyses"`
	ResultHits     uint64  `json:"resultHits"`
	ResultMisses   uint64  `json:"resultMisses"`
	ResultEvicted  uint64  `json:"resultEvicted"`
	StageHits      uint64  `json:"stageHits"`
	StageMisses    uint64  `json:"stageMisses"`
	StageBuilds    uint64  `json:"stageBuilds"`
	StageEvicted   uint64  `json:"stageEvicted"`
	Shed           uint64  `json:"shed"`
	Timeouts       uint64  `json:"timeouts"`
	CPUSeconds     float64 `json:"cpuSeconds"` // getrusage user+system
	GCCPUSeconds   float64 `json:"gcCpuSeconds"`
	AllCPUSeconds  float64 `json:"allCpuSeconds"` // runtime/metrics total, the base of the GC share
	GCCycles       uint64  `json:"gcCycles"`
}

func (a counters) sub(b counters) counters {
	return counters{
		GatewayAnalyze: a.GatewayAnalyze - b.GatewayAnalyze,
		GatewayBatch:   a.GatewayBatch - b.GatewayBatch,
		Dedup:          a.Dedup - b.Dedup,
		Upstream:       a.Upstream - b.Upstream,
		Analyses:       a.Analyses - b.Analyses,
		ResultHits:     a.ResultHits - b.ResultHits,
		ResultMisses:   a.ResultMisses - b.ResultMisses,
		ResultEvicted:  a.ResultEvicted - b.ResultEvicted,
		StageHits:      a.StageHits - b.StageHits,
		StageMisses:    a.StageMisses - b.StageMisses,
		StageBuilds:    a.StageBuilds - b.StageBuilds,
		StageEvicted:   a.StageEvicted - b.StageEvicted,
		Shed:           a.Shed - b.Shed,
		Timeouts:       a.Timeouts - b.Timeouts,
		CPUSeconds:     a.CPUSeconds - b.CPUSeconds,
		GCCPUSeconds:   a.GCCPUSeconds - b.GCCPUSeconds,
		AllCPUSeconds:  a.AllCPUSeconds - b.AllCPUSeconds,
		GCCycles:       a.GCCycles - b.GCCycles,
	}
}

// span is one handler invocation seen from outside a layer: the
// benchmark's wrapper around Gateway.Handler() (Layer 0) or a replica's
// Server.Handler() (Layer 1+). Times are nanoseconds since fleet start.
type span struct {
	Trace string `json:"t"`
	Layer int    `json:"l"`
	Batch bool   `json:"b,omitempty"`
	Start int64  `json:"s"`
	End   int64  `json:"e"`
	In    int64  `json:"i"`
	Out   int64  `json:"o"`
}

type fleet struct {
	gw       *cluster.Gateway
	replicas []*service.Server
	addrs    []string // replica host:port
	rec      *spanRecorder
}

func (f *fleet) snapshot() counters {
	var c counters
	gm := f.gw.Metrics()
	c.GatewayAnalyze = gm.RequestsAnalyze.Load()
	c.GatewayBatch = gm.RequestsBatch.Load()
	c.Dedup = gm.Dedup.Load()
	for _, s := range f.replicas {
		m := s.Metrics()
		c.Upstream += m.RequestsAnalyze.Load() + m.RequestsBatch.Load()
		c.Analyses += m.Analyses.Load()
		c.Shed += m.Shed.Load() + m.DeadlineShed.Load()
		c.Timeouts += m.Timeouts.Load()
		rs := s.CacheStats()
		c.ResultHits += rs.Hits
		c.ResultMisses += rs.Misses
		c.ResultEvicted += rs.Evictions
		ss := s.StageCacheStats()
		c.StageHits += ss.Hits
		c.StageMisses += ss.Misses
		c.StageBuilds += ss.Builds
		c.StageEvicted += ss.Evictions
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.CPUSeconds = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	c.GCCPUSeconds = sampleFloat(samples[0])
	c.AllCPUSeconds = sampleFloat(samples[1])
	if samples[2].Value.Kind() == metrics.KindUint64 {
		c.GCCycles = samples[2].Value.Uint64()
	}
	return c
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// fleetNice is the fleet's scheduling niceness. The load generator shares
// the machine's cores with the fleet; at equal priority the kernel lets a
// busy fleet delay the generator's wake-ups by milliseconds, so open-loop
// requests would go out late and latency would measure the generator.
// Niced, the fleet still gets every cycle the generator does not use.
const fleetNice = 19

// renice sets the niceness of every thread of this process. Linux keeps
// niceness per thread and a new thread inherits its creator's, so once
// all current threads are reniced every later one is too.
func renice(n int) {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				syscall.Setpriority(syscall.PRIO_PROCESS, tid, n)
			}
		}
	}
}

// fleetEnv marks a process as the fleet: the driver re-executes its own
// binary with it set to "plain" or, for a traced fleet, "spans". An
// environment variable rather than a flag lets test binaries be fleets
// too.
const fleetEnv = "SIWA_BENCH_FLEET"

// fleetExit runs the fleet and returns the process exit code.
func fleetExit(mode string) int {
	if err := fleetMain(mode == "spans"); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		return 1
	}
	return 0
}

// fleetMain runs the fleet process until stop or EOF on stdin.
func fleetMain(traced bool) error {
	renice(fleetNice)
	base := time.Now()
	lns := make([]net.Listener, 3) // two replicas, then the gateway
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
	}
	f := &fleet{}
	var backends []string
	for _, ln := range lns[:2] {
		addr := ln.Addr().String()
		f.addrs = append(f.addrs, addr)
		backends = append(backends, "http://"+addr)
		f.replicas = append(f.replicas, service.New(service.Config{Addr: addr}))
	}
	gw, err := cluster.New(cluster.Config{Addr: lns[2].Addr().String(), Backends: backends})
	if err != nil {
		return err
	}
	f.gw = gw
	// The servers run until the process exits. The fleet does not drain
	// them: the driver has nothing in flight when it stops the fleet, and
	// http.Server.Shutdown waits five seconds for any connection that was
	// dialed but never used.
	ctx := context.Background()
	serve := func(fn func() error) {
		go func() {
			if err := fn(); err != nil {
				fmt.Fprintln(os.Stderr, "fleet: serve:", err)
			}
		}()
	}
	if traced {
		// The traced fleet serves the same handlers behind span-recording
		// wrappers, on servers configured like Server.Serve's.
		f.rec = &spanRecorder{base: base}
		for i, s := range f.replicas {
			h, ln := f.rec.wrap(i+1, s.Handler()), lns[i]
			serve(func() error { return serveHandler(ln, h) })
		}
		h := f.rec.wrap(0, gw.Handler())
		serve(func() error { return serveHandler(lns[2], h) })
		go gw.RunChecker(ctx)
	} else {
		for i, s := range f.replicas {
			ln := lns[i]
			serve(func() error { return s.Serve(ctx, ln) })
		}
		serve(func() error { return gw.Serve(ctx, lns[2]) })
	}
	fmt.Printf("ready http://%s\n", lns[2].Addr())

	var mark counters
	var markAt time.Time
	var gauges *gaugeScraper
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "mark":
			if traced {
				f.rec.reset()
				gauges = startGauges(f.addrs)
			}
			mark, markAt = f.snapshot(), time.Now()
			fmt.Println("marked")
		case "stop":
			rep := fleetReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
			rep.Elapsed = time.Since(markAt).Seconds()
			if gauges != nil {
				rep.BusyMean, rep.QueuedMean = gauges.stop()
			}
			if f.rec != nil {
				rep.Spans = f.rec.take()
			}
			rep.Delta = f.snapshot().sub(mark)
			for _, s := range f.replicas {
				rep.StageBytes += s.StageCacheStats().Bytes
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			rep.HeapInuse = ms.HeapInuse
			return json.NewEncoder(os.Stdout).Encode(rep)
		}
	}
	return in.Err()
}

// serveHandler serves h on ln with Server.Serve's settings.
func serveHandler(ln net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	return hs.Serve(ln)
}

// spanRecorder keeps every span in memory until the fleet stops.
type spanRecorder struct {
	base     time.Time
	inflight sync.WaitGroup // wrapped handlers still running
	mu       sync.Mutex
	spans    []span
}

func (r *spanRecorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// take waits for the wrapped handlers still running, since a client can
// read a whole response before its handler returns, and hands over the
// spans.
func (r *spanRecorder) take() []span {
	r.inflight.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// wrap records one span per API request into h. The trace id comes from
// the W3C traceparent header the load generator sets and the gateway
// forwards on single and batch-chunk calls.
func (r *spanRecorder) wrap(layer int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !strings.HasPrefix(req.URL.Path, "/v1/") {
			h.ServeHTTP(w, req)
			return
		}
		r.inflight.Add(1)
		defer r.inflight.Done()
		start := time.Since(r.base)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req)
		sp := span{
			Layer: layer,
			Batch: strings.HasSuffix(req.URL.Path, "/batch"),
			Start: int64(start),
			End:   int64(time.Since(r.base)),
			In:    req.ContentLength,
			Out:   cw.n,
		}
		if tp := req.Header.Get("traceparent"); len(tp) == 55 {
			sp.Trace = tp[3:35]
		}
		r.mu.Lock()
		r.spans = append(r.spans, sp)
		r.mu.Unlock()
	})
}

// countingWriter counts the response bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// gaugeScraper samples the replicas' pool gauges from /metrics at 20 Hz.
type gaugeScraper struct {
	done         chan struct{}
	wg           sync.WaitGroup
	busy, queued float64
	samples      int
	client       *http.Client
	addrs        []string
}

func startGauges(addrs []string) *gaugeScraper {
	g := &gaugeScraper{done: make(chan struct{}), addrs: addrs, client: &http.Client{Timeout: time.Second}}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.done:
				return
			case <-t.C:
				g.scrape()
			}
		}
	}()
	return g
}

func (g *gaugeScraper) scrape() {
	var busy, queued float64
	for _, a := range g.addrs {
		resp, err := g.client.Get("http://" + a + "/metrics")
		if err != nil {
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return
		}
		busy += gaugeValue(b, "siwa_workers_busy")
		queued += gaugeValue(b, "siwa_queued")
	}
	g.busy += busy
	g.queued += queued
	g.samples++
}

// gaugeValue finds an unlabelled sample line "name value" in a Prometheus
// text exposition.
func gaugeValue(expo []byte, name string) float64 {
	for _, line := range strings.Split(string(expo), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			x, _ := strconv.ParseFloat(v, 64)
			return x
		}
	}
	return 0
}

// stop ends the scraping and returns the mean gauges.
func (g *gaugeScraper) stop() (busy, queued float64) {
	close(g.done)
	g.wg.Wait()
	return ratio(g.busy, float64(g.samples)), ratio(g.queued, float64(g.samples))
}
