package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dita/internal/atomicio"
	"dita/internal/engine"
	"dita/internal/influence"
	"dita/internal/randx"
)

const (
	region         = "default"
	startTimeout   = 60 * time.Second
	stopTimeout    = 60 * time.Second
	requestTimeout = 60 * time.Second
)

// request is one call of the serve trace, encoded before any clock
// starts. kind is 'w' (worker arrival), 't' (task arrival) or 'i'
// (instant); index is the arrival index, or the instant's grid index.
type request struct {
	kind  byte
	index int
	path  string
	body  []byte
}

// Wire forms of the dita-serve endpoints. The server decodes strictly,
// so these carry exactly its fields.
type (
	workerBody struct {
		User   int32   `json:"user"`
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		Radius float64 `json:"radius"`
		At     float64 `json:"at"`
	}
	taskBody struct {
		X          float64 `json:"x"`
		Y          float64 `json:"y"`
		Publish    float64 `json:"publish"`
		Valid      float64 `json:"valid"`
		Categories []int32 `json:"categories"`
		Venue      int32   `json:"venue"`
	}
	instantBody struct {
		At float64 `json:"at"`
	}
	instantReply struct {
		PrepareMs   float64 `json:"prepare_ms"`
		PairMaintMs float64 `json:"pair_maint_ms"`
		AssignMs    float64 `json:"assign_ms"`
	}
	metricsReply struct {
		Online  int           `json:"online"`
		Open    int           `json:"open"`
		Totals  engine.Totals `json:"totals"`
		Latency struct {
			PrepareTotalMs   float64 `json:"prepare_total_ms"`
			PairMaintTotalMs float64 `json:"pair_maint_total_ms"`
			AssignTotalMs    float64 `json:"assign_total_ms"`
		} `json:"latency"`
	}
)

// serveRequests lays the trace out in the in-process replay's admission
// order: at each grid instant the due workers, the due tasks, then the
// instant. Equal order means equal minted ids, so the server's drained
// CSV must equal the replay's byte for byte.
func serveRequests(in *streamInputs) ([]request, error) {
	var out []request
	wi, ti := 0, 0
	add := func(kind byte, index int, path string, v any) error {
		body, err := json.Marshal(v)
		if err != nil {
			return err
		}
		out = append(out, request{kind: kind, index: index, path: "/v1/" + region + path, body: body})
		return nil
	}
	for k, st := range in.sched {
		for ; wi < st.WorkerHi; wi++ {
			w := in.ws[wi]
			if err := add('w', wi, "/workers", workerBody{
				User: int32(w.User), X: w.Loc.X, Y: w.Loc.Y, Radius: w.Radius, At: w.At,
			}); err != nil {
				return nil, err
			}
		}
		for ; ti < st.TaskHi; ti++ {
			t := in.ts[ti]
			cats := make([]int32, len(t.Categories))
			for i, c := range t.Categories {
				cats[i] = int32(c)
			}
			if err := add('t', ti, "/tasks", taskBody{
				X: t.Loc.X, Y: t.Loc.Y, Publish: t.Publish, Valid: t.Valid,
				Categories: cats, Venue: int32(t.Venue),
			}); err != nil {
				return nil, err
			}
		}
		if err := add('i', k, "/instant", instantBody{At: st.At}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// server is one dita-serve process under test.
type server struct {
	cmd     *exec.Cmd
	base    string
	csvPath string
	log     bytes.Buffer // the server's output, read only after it exits
	exited  chan struct{}
	waitErr error
	setup   time.Duration // exec to the first 200 from /healthz
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs dita-serve on the sealed framework with the replay's
// engine settings and waits until it answers /healthz.
func startServer(job childJob, sp serveSpec, csvPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, csvPath: csvPath, exited: make(chan struct{})}
	s.cmd = exec.Command(job.ServeBin,
		"-framework", job.Artifact, "-addr", addr, "-regions", region,
		"-trigger", "manual", "-alg", "IA", "-mask", "IA",
		"-parallel", strconv.Itoa(sp.Parallelism),
		"-seed", strconv.FormatUint(randx.Mix(job.Seed, seedInfluence), 10),
		"-assign-csv", csvPath)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := clk()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("dita-serve: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		if resp, err := probe.Get(s.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = clk() - t0
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("dita-serve exited during start-up: %v\n%s", s.waitErr, s.log.String())
		default:
		}
		if clk()-t0 > startTimeout {
			s.kill()
			return nil, fmt.Errorf("dita-serve not healthy after %v\n%s", startTimeout, s.log.String())
		}
		time.Sleep(2 * time.Millisecond) //dita:wallclock
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // an already-exited process is the goal anyway
	<-s.exited
}

// stop drains the server with SIGTERM, waits for it to exit and returns
// the drained assignment CSV.
func (s *server) stop() ([]byte, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return nil, fmt.Errorf("dita-serve: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(stopTimeout): //dita:wallclock
		s.kill()
		return nil, fmt.Errorf("dita-serve did not drain within %v\n%s", stopTimeout, s.log.String())
	}
	if s.waitErr != nil {
		return nil, fmt.Errorf("dita-serve: %v\n%s", s.waitErr, s.log.String())
	}
	return os.ReadFile(s.csvPath)
}

// loadClient is the load generator's HTTP client: one keep-alive
// connection, which every pass asserts by counting dials.
type loadClient struct {
	c     *http.Client
	dials atomic.Int32
}

func newLoadClient() *loadClient {
	lc := &loadClient{}
	dialer := &net.Dialer{}
	lc.c = &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				lc.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: requestTimeout,
	}
	return lc
}

func (lc *loadClient) do(req *http.Request) ([]byte, error) {
	resp, err := lc.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// passResult is one replay of the request list against one server.
type passResult struct {
	due, sent, done []time.Duration
	replies         [][]byte
	failed          int
	metrics         metricsReply
	csv             []byte
	rssMiB          float64 // the server's peak RSS before its drain
	setup           time.Duration
}

// drive sends the requests in order from this goroutine over one
// connection. Closed loop (rate 0) sends each as soon as the previous
// one is answered. Open loop schedules request i at t0 + i/rate and
// waits for that time unless the previous answer came later; a request
// counts from when it was due, so waiting behind a slow instant is part
// of its latency.
func drive(lc *loadClient, base string, reqs []request, rate float64) (*passResult, error) {
	hreqs := make([]*http.Request, len(reqs))
	for i, r := range reqs {
		hr, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		hreqs[i] = hr
	}
	n := len(reqs)
	res := &passResult{
		due: make([]time.Duration, n), sent: make([]time.Duration, n),
		done: make([]time.Duration, n), replies: make([][]byte, n),
	}
	t0 := clk()
	for i, hr := range hreqs {
		if rate > 0 {
			due := t0 + time.Duration(float64(i)/rate*float64(time.Second))
			if wait := due - clk(); wait > 0 {
				time.Sleep(wait) //dita:wallclock
			}
			res.due[i] = due
		}
		res.sent[i] = clk()
		if rate == 0 {
			res.due[i] = res.sent[i]
		}
		body, err := lc.do(hr)
		res.done[i] = clk()
		if err != nil {
			res.failed++
			continue
		}
		res.replies[i] = body
	}
	if d := lc.dials.Load(); d != 1 {
		return nil, fmt.Errorf("load generator used %d connections, want 1", d)
	}
	return res, nil
}

// wall is the pass's duration from its first due time to its last
// answer.
func (p *passResult) wall() time.Duration { return p.done[len(p.done)-1] - p.due[0] }

// lag is how far behind schedule the pass's last answer came: the final
// backlog of an open loop.
func (p *passResult) lag() time.Duration { return p.done[len(p.done)-1] - p.due[len(p.due)-1] }

// latencies returns the due-to-answer latencies of the requests of the
// given kinds, in ms.
func (p *passResult) latencies(reqs []request, kinds string) []float64 {
	var out []float64
	for i, r := range reqs {
		if strings.IndexByte(kinds, r.kind) >= 0 {
			out = append(out, ms(p.done[i]-p.due[i]))
		}
	}
	return out
}

// sendLate returns how late the generator sent each request beyond the
// later of its due time and the previous answer, in ms: time lost to the
// generator itself, which a server cannot cause.
func (p *passResult) sendLate() []float64 {
	out := make([]float64, len(p.sent))
	prev := time.Duration(0)
	for i := range p.sent {
		out[i] = ms(p.sent[i] - max(p.due[i], prev))
		prev = p.done[i]
	}
	return out
}

// servePass runs one pass against a fresh server and gates it: minted
// ids equal arrival indices, every arrival is accounted for, and the
// drained CSV equals the in-process replay's.
func servePass(job childJob, sp serveSpec, in *streamInputs, reqs []request, want []byte, rate float64, tr *tracer, name string) (*passResult, error) {
	csvPath := filepath.Join(job.Work, name+".csv")
	srv, err := startServer(job, sp, csvPath)
	if err != nil {
		return nil, err
	}
	lc := newLoadClient()
	res, err := drive(lc, srv.base, reqs, rate)
	if err == nil {
		err = getJSON(lc, srv.base+"/v1/"+region+"/metrics", &res.metrics)
	}
	lc.c.CloseIdleConnections()
	if err == nil {
		res.rssMiB, err = peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))
	}
	if err != nil {
		srv.kill()
		return nil, err
	}
	res.setup = srv.setup
	if res.csv, err = srv.stop(); err != nil {
		return nil, err
	}
	if err := checkReplies(reqs, res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	m := res.metrics
	if err := checkConservation(m.Totals, m.Online, m.Open, len(in.ws), len(in.ts)); err != nil {
		return nil, fmt.Errorf("%s: server %w", name, err)
	}
	if !bytes.Equal(res.csv, want) {
		return nil, fmt.Errorf("%s: drained CSV differs from the in-process replay", name)
	}
	if tr != nil {
		for i, r := range reqs {
			group := fmt.Sprintf("%s/%d", name, i)
			id := tr.add(group, "request."+path.Base(r.path), 0, res.due[i], res.done[i])
			tr.add(group, "http.roundtrip", id, res.sent[i], res.done[i])
		}
	}
	return res, nil
}

func getJSON(lc *loadClient, url string, v any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	body, err := lc.do(req)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// checkReplies verifies every answer: arrivals were minted their
// arrival index, and no request failed.
func checkReplies(reqs []request, res *passResult) error {
	if res.failed > 0 {
		return fmt.Errorf("%d of %d requests failed", res.failed, len(reqs))
	}
	for i, r := range reqs {
		var id struct {
			Worker *int `json:"worker_id"`
			Task   *int `json:"task_id"`
		}
		switch r.kind {
		case 'w', 't':
			if err := json.Unmarshal(res.replies[i], &id); err != nil {
				return err
			}
			got := id.Worker
			if r.kind == 't' {
				got = id.Task
			}
			if got == nil || *got != r.index {
				return fmt.Errorf("arrival %c%d was not minted id %d: %s", r.kind, r.index, r.index, res.replies[i])
			}
		}
	}
	return nil
}

// instantSamples pairs the server's per-instant phase times (from the
// /instant answers) and round trips with the in-process replay's pool,
// cache and component counts for the same instants.
func instantSamples(reqs []request, res *passResult, replayed []instantSample) ([]instantSample, error) {
	var out []instantSample
	for i, r := range reqs {
		if r.kind != 'i' {
			continue
		}
		var ir instantReply
		if err := json.Unmarshal(res.replies[i], &ir); err != nil {
			return nil, err
		}
		s := replayed[r.index]
		s.fire = res.done[i] - res.sent[i]
		s.prepare = msDuration(ir.PrepareMs)
		s.pairs = msDuration(ir.PairMaintMs)
		s.solve = msDuration(ir.AssignMs)
		out = append(out, s)
	}
	return out, nil
}

func msDuration(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// runServe is the dita-serve workload: the trace replayed in-process for
// the reference CSV, then over HTTP against a fresh server per pass — a
// closed-loop pass, then one open-loop pass per ladder rate.
func runServe(job childJob) (*report, error) {
	sp := job.Scale.Serve
	rep := &report{}
	m := &rep.Metrics
	cfg := engineConfig(influence.All, job.Seed, sp.Parallelism)
	// The servers are the workload's set-up (setup_s); this process's
	// dataset and framework serve the load generator and the replay.
	data, fw, _, err := loadInputs(job, cfg, m)
	if err != nil {
		return nil, err
	}
	in, err := buildStream(data, streamSpec{
		Workers: sp.Arrivals, Tasks: sp.Arrivals, Start: sp.Start, Spread: sp.Spread, Step: sp.Step,
		RadiusKm: sp.RadiusKm, ValidMin: sp.ValidMin, ValidSpan: sp.ValidSpan,
	}, job.Seed)
	if err != nil {
		return nil, err
	}
	reqs, err := serveRequests(in)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if job.Trace {
		tr = &tracer{}
	}
	ref, err := replay(fw, in, cfg, tr, "replay")
	if err != nil {
		return nil, err
	}
	if err := checkReplay(ref, in, nil); err != nil {
		return nil, err
	}
	rep.Output = atomicio.Sum(ref.csv)

	var passes []*passResult
	pass := func(rate float64, tr *tracer, name string) (*passResult, error) {
		p, err := servePass(job, sp, in, reqs, ref.csv, rate, tr, name)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		rep.Attempted += len(reqs)
		rep.Failed += p.failed
		return p, nil
	}
	var closed *passResult
	if job.Trace {
		plain, err := pass(0, nil, "closed")
		if err != nil {
			return nil, err
		}
		if closed, err = pass(0, tr, "closed.traced"); err != nil {
			return nil, err
		}
		samples, err := instantSamples(reqs, closed, ref.samples)
		if err != nil {
			return nil, err
		}
		m.addLayers(samples, "")
		m.addTraceOverhead(closed.wall(), plain.wall())
	} else {
		// Instant latency is the closed loop's /instant round trip. In the
		// open loop it also holds the wait behind earlier requests, which
		// grows faster than linearly as a shared host slows down, and made
		// the workload's p95 swing by a quarter from run to run.
		var eps, walls, instants []float64
		for i := range sp.ClosedPasses {
			if closed, err = pass(0, nil, fmt.Sprintf("closed%d", i)); err != nil {
				return nil, err
			}
			eps = append(eps, float64(len(reqs))/closed.wall().Seconds())
			walls = append(walls, closed.wall().Seconds())
			instants = append(instants, closed.latencies(reqs, "i")...)
		}
		m.add("events_per_s", median(eps), "1/s")
		m.add("wall_s", median(walls), "s")
		if err := m.requirePercentile("instant_p50_ms", instants, 50); err != nil {
			return nil, err
		}
		if err := m.requirePercentile("instant_p95_ms", instants, 95); err != nil {
			return nil, err
		}
	}
	var rungs []rungResult
	var latencyRung *passResult
	for _, rate := range sp.Rates {
		name := fmt.Sprintf("r%g", rate)
		p, err := pass(rate, tr, name)
		if err != nil {
			return nil, err
		}
		acks := p.latencies(reqs, "wt")
		ack, ok := percentile(acks, 99)
		rungs = append(rungs, rungResult{Rate: rate, AckP99Ms: ack, AckOK: ok, Lag: p.lag()})
		m.addPercentile("ack_p99_ms."+name, acks, 99)
		m.addPercentile("instant_p95_ms."+name, p.latencies(reqs, "i"), 95)
		m.add("lag_s."+name, p.lag().Seconds(), "s")
		m.addPercentile("loadgen.send_late_p99_ms."+name, p.sendLate(), 99)
		if rate == sp.LatencyRate {
			latencyRung = p
		}
	}
	if latencyRung == nil {
		return nil, fmt.Errorf("latency rate %g is not a ladder rate", sp.LatencyRate)
	}

	var setups []float64
	rss := 0.0
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
		rss = max(rss, p.rssMiB)
	}
	m.add("setup_s", median(setups), "s")
	m.add("peak_rss_mb", rss, "MiB")
	m.add("dita-serve.startup_ms", 1000*median(setups), "ms")
	m.addPercentile("ack_p99_ms", latencyRung.latencies(reqs, "wt"), 99)
	m.add("max_rate_eps", maxRate(rungs), "1/s")
	m.add("loadgen.lag_s", latencyRung.lag().Seconds(), "s")
	m.addPercentile("loadgen.send_late_p99_ms", latencyRung.sendLate(), 99)
	// In the closed loop a request is due when it is sent, so its latency
	// is its round trip.
	m.addPercentile("dita-serve.rtt_worker_p50_ms", closed.latencies(reqs, "w"), 50)
	m.addPercentile("dita-serve.rtt_task_p50_ms", closed.latencies(reqs, "t"), 50)
	m.addPercentile("dita-serve.rtt_instant_p50_ms", closed.latencies(reqs, "i"), 50)
	lat := closed.metrics.Latency
	inst := float64(closed.metrics.Totals.Instants)
	m.add("dita-serve.engine_prepare_ms", lat.PrepareTotalMs/inst, "ms")
	m.add("dita-serve.engine_pairs_ms", lat.PairMaintTotalMs/inst, "ms")
	m.add("dita-serve.engine_solve_ms", lat.AssignTotalMs/inst, "ms")
	rtt := mean(closed.latencies(reqs, "wti")) * float64(len(reqs))
	m.add("dita-serve.http_ms", rtt-lat.PrepareTotalMs-lat.PairMaintTotalMs-lat.AssignTotalMs, "ms")
	m.add("engine.events", float64(ref.events), "count")
	m.add("engine.assigned", float64(ref.totals.Assigned), "count")
	m.add("engine.expired", float64(ref.totals.Expired), "count")
	rep.Spans = tr.recorded()
	return rep, nil
}
