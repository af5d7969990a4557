package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// fleetProc is the driver's handle on one fleet process.
type fleetProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
	url   string
}

// startFleet execs this binary in the fleet role and waits for "ready".
func startFleet(traced bool) (*fleetProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "plain"
	if traced {
		mode = "spans"
	}
	cmd := exec.Command(exe)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), fleetEnv+"="+mode, fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	f := &fleetProc{cmd: cmd, stdin: stdin, lines: make(chan string, 1)}
	// The reader ends at EOF, which the fleet's exit guarantees; close
	// drains it.
	go func() {
		defer close(f.lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<16), 1<<30)
		for sc.Scan() {
			f.lines <- sc.Text()
		}
	}()
	line, err := f.await(30 * time.Second)
	if err != nil {
		f.close()
		return nil, err
	}
	url, ok := strings.CutPrefix(line, "ready ")
	if !ok {
		f.close()
		return nil, fmt.Errorf("fleet: unexpected first line %q", line)
	}
	f.url = url
	return f, nil
}

// await returns the fleet's next stdout line.
func (f *fleetProc) await(timeout time.Duration) (string, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case line, ok := <-f.lines:
		if !ok {
			return "", errors.New("fleet exited")
		}
		return line, nil
	case <-t.C:
		return "", fmt.Errorf("fleet: no answer within %v", timeout)
	}
}

func (f *fleetProc) command(cmd string, timeout time.Duration) (string, error) {
	if _, err := io.WriteString(f.stdin, cmd+"\n"); err != nil {
		return "", fmt.Errorf("fleet: %s: %w", cmd, err)
	}
	return f.await(timeout)
}

func (f *fleetProc) mark() error {
	line, err := f.command("mark", 30*time.Second)
	if err == nil && line != "marked" {
		err = fmt.Errorf("fleet: unexpected answer to mark: %q", line)
	}
	return err
}

func (f *fleetProc) stop() (*fleetReport, error) {
	line, err := f.command("stop", 30*time.Second)
	if err != nil {
		return nil, err
	}
	var rep fleetReport
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return nil, fmt.Errorf("fleet: report: %w", err)
	}
	return &rep, nil
}

// close ends the fleet (EOF on stdin) and waits for it, killing it if it
// does not exit in time.
func (f *fleetProc) close() {
	f.stdin.Close()
	done := make(chan struct{})
	go func() {
		for range f.lines {
		}
		f.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		f.cmd.Process.Kill()
		<-done
	}
}

// result is one request as the load generator saw it.
type result struct {
	Req      *request
	Start    time.Duration // send (closed) or due (open) time, from the phase start
	End      time.Duration // completion, from the phase start
	Lat      time.Duration // closed loop: from send; open loop: from due time
	Sent     time.Duration // handed to the HTTP client, from the phase start
	Lag      time.Duration // dispatch minus due (closed loop: minus the previous completion)
	ConnWait time.Duration // traced only: waiting for a client connection
	Status   int           // HTTP status; 0 for a transport error
	Body     []byte        // response body until check has run
	Hashes   []uint64      // per program, set by check; 0 = missing or errored
	Trace    string        // traced only
}

// loadClient sends requests to the gateway over at most conns connections
// per pool. With a background pool, batches and heavies travel on their
// own connections, as they would from independent users.
type loadClient struct {
	hc     *http.Client
	bg     *http.Client // nil: background requests share hc
	url    string
	traced bool
	ids    atomic.Uint64
	tidHi  uint64
}

func newLoadClient(url string, conns int, background, traced bool, tidHi uint64) *loadClient {
	pool := func() *http.Client {
		return &http.Client{
			Timeout: 20 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		}
	}
	c := &loadClient{hc: pool(), url: url, traced: traced, tidHi: tidHi}
	if background {
		c.bg = pool()
	}
	return c
}

func (c *loadClient) close() {
	c.hc.CloseIdleConnections()
	if c.bg != nil {
		c.bg.CloseIdleConnections()
	}
}

// send performs r and fills res; times are taken against origin.
func (c *loadClient) send(ctx context.Context, r *request, origin time.Time, res *result) {
	res.Req = r
	path := "/v1/analyze"
	if r.Batch {
		path = "/v1/analyze/batch"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(r.Body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var getConn time.Time
	if c.traced {
		// Our own trace id, sampled as the gateway's shipped 1-in-1 head
		// sampling would decide, so the fleet does the same work as in
		// an untraced run.
		var tid [16]byte
		binary.BigEndian.PutUint64(tid[:8], c.tidHi)
		binary.BigEndian.PutUint64(tid[8:], c.ids.Add(1))
		res.Trace = hex.EncodeToString(tid[:])
		req.Header.Set("traceparent", "00-"+res.Trace+"-00f067aa0ba902b7-01")
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GetConn: func(string) { getConn = time.Now() },
			GotConn: func(httptrace.GotConnInfo) { res.ConnWait = time.Since(getConn) },
		}))
	}
	hc := c.hc
	if c.bg != nil && (r.Class == classBatch || r.Class == classHeavy) {
		hc = c.bg
	}
	res.Sent = time.Since(origin)
	resp, err := hc.Do(req)
	if err == nil {
		// Bodies are kept and checked after the round, so the generator
		// spends the measured phase sending, not parsing.
		buf := bytes.NewBuffer(make([]byte, 0, max(resp.ContentLength, 512)+1))
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		res.Body = buf.Bytes()
	}
	res.End = time.Since(origin)
	if err != nil {
		res.Body = nil
		return
	}
	res.Status = resp.StatusCode
}

// check hashes every program's report in each response and drops the
// bodies. It runs after the fleet has stopped, outside all timing.
func check(rs []result) {
	var bufs sync.Pool
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	parallel(idx, func(i int) {
		r := &rs[i]
		r.Hashes = make([]uint64, len(r.Req.Keys))
		if r.Status == http.StatusOK {
			buf, _ := bufs.Get().(*bytes.Buffer)
			if buf == nil {
				buf = new(bytes.Buffer)
			}
			if r.Req.Batch {
				if !batchReports(r.Body, buf, r.Hashes) {
					clear(r.Hashes)
				}
			} else if h, ok := singleReport(r.Body, buf); ok {
				r.Hashes[0] = h
			}
			bufs.Put(buf)
		}
		r.Body = nil
	})
}

// runClosed lets clients send the units in order, each client one unit
// at a time, until the list is done or limit has passed. It returns every
// request sent and whether the limit cut the list short.
func runClosed(ctx context.Context, c *loadClient, units [][]*request, clients int, limit time.Duration) ([]result, bool) {
	origin := time.Now()
	deadline := origin.Add(limit)
	var next atomic.Int64
	var cut atomic.Bool
	per := make([][]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prev := time.Duration(0)
			for {
				u := next.Add(1) - 1
				if u >= int64(len(units)) {
					return
				}
				if !time.Now().Before(deadline) {
					cut.Store(true)
					return
				}
				for _, r := range units[u] {
					var res result
					res.Start = time.Since(origin)
					res.Lag = res.Start - prev
					c.send(ctx, r, origin, &res)
					res.Lat = res.End - res.Start
					prev = res.End
					per[i] = append(per[i], res)
				}
			}
		}(i)
	}
	wg.Wait()
	var out []result
	for _, p := range per {
		out = append(out, p...)
	}
	return out, cut.Load()
}

// runOpen sends every scheduled request at its due time, whatever the
// state of earlier ones, and waits for all of them.
func runOpen(ctx context.Context, c *loadClient, sched []*request) []result {
	origin := time.Now()
	out := make([]result, len(sched))
	var wg sync.WaitGroup
	// The dispatcher sleeps in the kernel on its own thread: the runtime's
	// timers wake up to a millisecond late, and that lag would count in
	// every latency, which is timed from the due time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, r := range sched {
		if wait := time.Until(origin.Add(r.Due)); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
		}
		out[i].Start = r.Due
		out[i].Lag = time.Since(origin) - r.Due
		wg.Add(1)
		go func(r *request, res *result) {
			defer wg.Done()
			c.send(ctx, r, origin, res)
			res.Lat = res.End - r.Due
		}(r, &out[i])
	}
	wg.Wait()
	return out
}

// roundOut is one round: a fresh fleet, set-up, one measured phase. A
// set-up trial stops after the set-up.
type roundOut struct {
	Trial   bool
	Traced  bool
	Setup   time.Duration
	Window  time.Duration // measured phase
	Warm    []result
	Results []result
	Cut     bool // the time cap stopped the list before its end
	Fleet   *fleetReport
}

// runRound starts a fresh fleet, sends the warm-up list, and, unless d is
// zero (a set-up trial), measures the workload's list (or the round's
// schedule), which lasts about d. Every round does the same work, so
// metrics that grow with the work done, such as the heap the caches
// retain, stay comparable; a round that takes ten times d is cut short.
func runRound(ctx context.Context, in *inputs, round int, d time.Duration, traced bool, tidHi uint64) (*roundOut, error) {
	s := in.Spec
	start := time.Now()
	f, err := startFleet(traced)
	if err != nil {
		return nil, err
	}
	defer f.close()
	c := newLoadClient(f.url, s.Clients, s.Open, traced, tidHi)
	defer c.close()
	out := &roundOut{Trial: d == 0, Traced: traced}
	out.Warm, _ = runClosed(ctx, c, in.Warmup, s.Clients, time.Minute)
	out.Setup = time.Since(start)
	if out.Trial {
		check(out.Warm)
		return out, nil
	}
	if err := f.mark(); err != nil {
		return nil, err
	}
	if s.Open {
		out.Results = runOpen(ctx, c, in.Scheds[round%len(in.Scheds)])
	} else {
		out.Results, out.Cut = runClosed(ctx, c, in.Units, s.Clients, 10*d)
	}
	for _, r := range out.Results {
		out.Window = max(out.Window, r.End)
	}
	c.close()
	if out.Fleet, err = f.stop(); err != nil {
		return nil, err
	}
	check(out.Warm)
	check(out.Results)
	return out, nil
}
