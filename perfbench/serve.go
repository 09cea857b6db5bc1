package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mbbp"
	"mbbp/internal/server"
)

// service is mbbpd in the benchmark's process: the server package's
// handler on a loopback listener with the daemon's default settings (one
// pool worker per CPU, the default cache sizes), logging to a discarded
// writer. One closed-loop client drives it over a single connection.
type service struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error // Serve's return
}

func startService() (*service, error) {
	srv, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   time.Minute,
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and the connection, drains the server and
// waits for the serving goroutine to end.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Shutdown(ctx)
}

// reply is one sweep response as the client saw it.
type reply struct {
	status int
	body   []byte
	cache  string // Cache-Status
	stages string // the X-Request-Stages trailer
}

// post sends one sweep request. Any status but 200 is an error.
func (s *service) post(body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("reading sweep response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("sweep: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return reply{
		status: resp.StatusCode,
		body:   b,
		cache:  resp.Header.Get("Cache-Status"),
		stages: resp.Trailer.Get("X-Request-Stages"),
	}, nil
}

// counters are the /metrics fields serve-cold checks.
type counters struct {
	TraceHits    uint64 `json:"trace_cache_hits"`
	TraceMisses  uint64 `json:"trace_cache_misses"`
	ResultHits   uint64 `json:"result_cache_hits"`
	ResultMisses uint64 `json:"result_cache_misses"`
}

func (s *service) scrape() (counters, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var c counters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return counters{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	return c, nil
}

func (c counters) minus(o counters) counters {
	return counters{
		TraceHits: c.TraceHits - o.TraceHits, TraceMisses: c.TraceMisses - o.TraceMisses,
		ResultHits: c.ResultHits - o.ResultHits, ResultMisses: c.ResultMisses - o.ResultMisses,
	}
}

// sweepRequest is the body of POST /v1/sweep.
type sweepRequest struct {
	Config       *mbbp.Config `json:"config"`
	Programs     []string     `json:"programs"`
	Instructions uint64       `json:"instructions"`
}

func (r sweepRequest) encode() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // the request holds only plain values
	}
	return b
}

// configSpace is the set of configurations the serve workloads draw
// from: paper-predictor variants over the default cache geometry, so any
// subset of them runs as one lane group.
func configSpace() []mbbp.Config {
	var out []mbbp.Config
	targets := []mbbp.Option{
		mbbp.WithNLS(64), mbbp.WithNLS(128), mbbp.WithNLS(256), mbbp.WithNLS(512),
		mbbp.WithBTB(8, 4), mbbp.WithBTB(16, 4), mbbp.WithBTB(32, 4), mbbp.WithBTB(64, 4),
	}
	for h := 6; h <= 14; h++ {
		for _, sts := range []int{1, 2, 4, 8} {
			for _, sel := range []mbbp.Option{mbbp.WithDualBlock(mbbp.SingleSelection), mbbp.WithDualBlock(mbbp.DoubleSelection)} {
				for _, target := range targets {
					for _, ras := range []int{4, 8, 16, 32, 64} {
						for _, phts := range []int{1, 2, 4} {
							cfg := mbbp.NewConfig(mbbp.WithHistoryBits(h), mbbp.WithSelectTables(sts), sel, target,
								mbbp.WithRAS(ras), mbbp.WithPHTs(phts))
							near := cfg
							near.NearBlock = true
							out = append(out, cfg, near)
						}
					}
				}
			}
		}
	}
	return out
}

// servedReq is a traced request: its span and the instructions behind
// its capture and simulate stages.
type servedReq struct {
	span  int
	instr uint64
}

// traceReply turns the trailer's stages into child spans of the request
// span, laid end to end from its start, and returns the request record.
func traceReply(tr *tracer, root int, rep reply, instr uint64) (servedReq, error) {
	req := servedReq{span: root, instr: instr}
	at := tr.spans[root].Start
	for _, part := range strings.Split(rep.stages, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			return req, fmt.Errorf("malformed X-Request-Stages %q", rep.stages)
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			return req, fmt.Errorf("malformed X-Request-Stages %q: %w", rep.stages, err)
		}
		d := time.Duration(ms * float64(time.Millisecond))
		tr.addChild("server."+name, root, at, d)
		at += d
	}
	return req, nil
}

// serverLayers computes the server's per-layer metrics from the stage
// spans of the traced requests; the trailer rounds stage times to the
// microsecond, so the per-stage figures are middle-half means.
func serverLayers(tr *tracer, reqs []servedReq, delta counters) map[string]float64 {
	stages := map[string][]float64{}
	var capDur, simDur time.Duration
	var instr uint64
	kids := map[int][]span{}
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, rq := range reqs {
		for _, s := range kids[rq.span] {
			d := s.End - s.Start
			stages[s.Name] = append(stages[s.Name], float64(d)/float64(time.Millisecond))
			switch s.Name {
			case "server.capture":
				capDur += d
			case "server.simulate":
				simDur += d
			}
		}
		instr += rq.instr
	}
	return map[string]float64{
		"server.admit_ms":               midMean(stages["server.admit"]),
		"server.queue_ms":               midMean(stages["server.queue"]),
		"server.capture_ms":             midMean(stages["server.capture"]),
		"server.capture_ns_per_instr":   ratio(float64(capDur), float64(instr)),
		"server.simulate_ms":            midMean(stages["server.simulate"]),
		"server.simulate_ns_per_instr":  ratio(float64(simDur), float64(instr)),
		"server.render_ms":              midMean(stages["server.render"]),
		"server.result_cache_hit_ratio": ratio(float64(delta.ResultHits), float64(delta.ResultHits+delta.ResultMisses)),
		"server.trace_cache_hit_ratio":  ratio(float64(delta.TraceHits), float64(delta.TraceHits+delta.TraceMisses)),
	}
}

// checkSweep checks one sweep body against its request: the echoed
// configuration and length, every program's result against an
// independent walk of its trace, and the suite aggregates against the
// per-program results.
func checkSweep(c *checker, where string, sw server.SweepResponse, cfg mbbp.Config, progs []string, n uint64,
	counts func(prog string) traceCounts) {
	c.check(sw.Instructions == n, "%s: instructions %d, asked %d", where, sw.Instructions, n)
	c.check(sw.Config == cfg, "%s: echoed config differs from the one sent", where)
	c.check(sw.ConfigLabel == cfg.String(), "%s: config label %q, want %q", where, sw.ConfigLabel, cfg.String())
	if !c.check(len(sw.Results) == len(progs), "%s: %d results for %d programs", where, len(sw.Results), len(progs)) {
		return
	}
	res := make([]mbbp.Result, len(progs))
	for j, pr := range sw.Results {
		res[j] = pr.Result
		w := where + "/" + progs[j]
		c.check(pr.Program == progs[j], "%s: result is for %q", w, pr.Program)
		checkResult(c, w, pr.Result, counts(progs[j]), pr.IPCf, pr.BEP)
	}
	intAgg, fpAgg := fold(progs, res)
	c.check(sw.Aggregates["CINT95"].Result == intAgg, "%s: CINT95 aggregate is not the sum of its programs", where)
	c.check(sw.Aggregates["CFP95"].Result == fpAgg, "%s: CFP95 aggregate is not the sum of its programs", where)
}
