package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"supersim/internal/cluster"
	"supersim/internal/perf"
	"supersim/internal/server"
)

// clusterKey is the shared secret of the benchmark's loopback cluster.
const clusterKey = "perfbench-cluster-key"

// node is one HTTP server on a loopback port.
type node struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx) // in-flight requests are done: the clients have returned
	<-n.done
}

// deployment is one epoch's booted system: simd alone, or simcoord in
// front of two simd workers registered by their agents.
type deployment struct {
	hc      *http.Client
	entry   string            // base URL the clients submit to
	workers map[string]string // cluster worker name → base URL
	sims    []*server.Server
	simN    []*node
	coord   *cluster.Coordinator
	coordN  *node
	stop    context.CancelFunc // stops the agents
	agents  sync.WaitGroup
}

// boot starts the workload's servers. dataDir is the simd data dir ("" =
// in memory).
func boot(wl workload, dataDir string, hc *http.Client) (*deployment, error) {
	d := &deployment{hc: hc, workers: make(map[string]string)}
	nsim := 1
	if wl.Cluster {
		nsim = 2
	}
	for i := 0; i < nsim; i++ {
		cfg := server.Config{CacheCapacity: wl.CacheCap, DataDir: dataDir}
		if wl.Cluster {
			cfg.ClusterKey = clusterKey
		}
		s, err := server.New(cfg)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("booting simd: %w", err)
		}
		d.sims = append(d.sims, s)
		n, err := serve(s.Handler())
		if err != nil {
			d.close()
			return nil, err
		}
		d.simN = append(d.simN, n)
	}
	d.entry = d.simN[0].url
	if !wl.Cluster {
		return d, nil
	}

	c, err := cluster.New(cluster.Config{Key: clusterKey, Client: hc})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("booting simcoord: %w", err)
	}
	d.coord = c
	if d.coordN, err = serve(c.Handler()); err != nil {
		d.close()
		return nil, err
	}
	d.entry = d.coordN.url
	ctx, cancel := context.WithCancel(context.Background())
	d.stop = cancel
	for i, n := range d.simN {
		a := &cluster.Agent{Coordinator: d.coordN.url, Key: clusterKey, Name: fmt.Sprintf("w%d", i+1), URL: n.url, Client: hc}
		d.workers[a.Name] = n.url
		d.agents.Add(1)
		go func() {
			defer d.agents.Done()
			_ = a.Run(ctx) // returns ctx.Err() once stop runs
		}()
	}
	if err := d.awaitWorkers(hc, nsim); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// awaitWorkers polls the coordinator's /healthz until n workers are live.
func (d *deployment) awaitWorkers(hc *http.Client, n int) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var h cluster.Health
		if code, err := getJSON(hc, d.entry+"/healthz", &h); err == nil && code == http.StatusOK && h.Live >= n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("simcoord: %d workers not live within 20s", n)
}

// close stops everything boot started and waits for it to end.
func (d *deployment) close() {
	if d.stop != nil {
		d.stop()
		d.agents.Wait()
	}
	// A connection the client dialed but never sent a request on holds
	// http.Server.Shutdown for 5 s; close them all first.
	d.hc.CloseIdleConnections()
	if d.coordN != nil {
		d.coordN.close()
	}
	if d.coord != nil {
		d.coord.Shutdown()
	}
	for _, n := range d.simN {
		n.close()
	}
	for _, s := range d.sims {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.Shutdown(ctx) // every job has finished; nothing is left to drain
		cancel()
	}
}

// counts are the /metrics counters the benchmark reads as deltas around a
// timed phase.
type counts struct {
	Hits, Disk, Peer, Misses, Captures, Evictions, DiskWrites uint64
	Seq                                                       uint64 // journal records
	Dispatched, Failovers, Mismatches                         uint64 // simcoord only
	Perf                                                      perf.Snapshot
}

func (a counts) sub(b counts) counts {
	return counts{
		Hits: a.Hits - b.Hits, Disk: a.Disk - b.Disk, Peer: a.Peer - b.Peer, Misses: a.Misses - b.Misses,
		Captures: a.Captures - b.Captures, Evictions: a.Evictions - b.Evictions, DiskWrites: a.DiskWrites - b.DiskWrites,
		Seq:        a.Seq - b.Seq,
		Dispatched: a.Dispatched - b.Dispatched, Failovers: a.Failovers - b.Failovers, Mismatches: a.Mismatches - b.Mismatches,
		Perf: a.Perf.Sub(b.Perf),
	}
}

func (a counts) add(b counts) counts {
	return counts{
		Hits: a.Hits + b.Hits, Disk: a.Disk + b.Disk, Peer: a.Peer + b.Peer, Misses: a.Misses + b.Misses,
		Captures: a.Captures + b.Captures, Evictions: a.Evictions + b.Evictions, DiskWrites: a.DiskWrites + b.DiskWrites,
		Seq:        a.Seq + b.Seq,
		Dispatched: a.Dispatched + b.Dispatched, Failovers: a.Failovers + b.Failovers, Mismatches: a.Mismatches + b.Mismatches,
		Perf: a.Perf.Add(b.Perf),
	}
}

// metrics reads the counters once no job is running: from simd's
// /metrics, or for a cluster from simcoord's /metrics (which sums the
// workers' cache counters) plus each worker's contention counters. A job
// reads as done before its finish record is journaled; the running gauge
// drops only after, so waiting for it keeps that record out of the next
// delta.
func (d *deployment) metrics(hc *http.Client) (counts, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, running, err := d.readMetrics(hc)
		if err != nil || running == 0 {
			return c, err
		}
		if time.Now().After(deadline) {
			return c, fmt.Errorf("/metrics: %d jobs still running 10s after the last result", running)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *deployment) readMetrics(hc *http.Client) (counts, int64, error) {
	if d.coord == nil {
		var m server.MetricsSnapshot
		if err := getOK(hc, d.entry+"/metrics", &m); err != nil {
			return counts{}, 0, err
		}
		c := cacheCounts(m.Cache)
		c.Seq = m.Store.Seq
		c.Perf = m.Contention
		return c, m.Jobs.Running, nil
	}
	var m cluster.MetricsSnapshot
	if err := getOK(hc, d.entry+"/metrics", &m); err != nil {
		return counts{}, 0, err
	}
	if len(m.Unreachable) > 0 {
		return counts{}, 0, fmt.Errorf("simcoord /metrics: workers %v unreachable", m.Unreachable)
	}
	c := cacheCounts(m.Cache)
	c.Dispatched, c.Failovers, c.Mismatches = m.Dispatched, m.Failovers, m.Mismatches
	for _, n := range d.simN {
		var w server.MetricsSnapshot
		if err := getOK(hc, n.url+"/metrics", &w); err != nil {
			return counts{}, 0, err
		}
		c.Perf = c.Perf.Add(w.Contention)
	}
	return c, m.Jobs.Running, nil
}

func cacheCounts(c server.CacheStats) counts {
	return counts{
		Hits: c.Hits, Disk: c.DiskHits, Peer: c.PeerHits, Misses: c.Misses,
		Captures: c.Captures, Evictions: c.Evictions, DiskWrites: c.DiskWrites,
	}
}

// view is the part of a job document the benchmark reads; it decodes both
// simd's JobView and simcoord's DispatchView.
type view struct {
	ID          string             `json:"id"`
	Status      string             `json:"status"`
	Error       string             `json:"error"`
	QueueWaitNS int64              `json:"queue_wait_ns"`
	RunNS       int64              `json:"run_ns"`
	Parts       []cluster.PartView `json:"parts"`
	Result      *server.JobResult  `json:"result"`
}

// terminal reports whether a job status is final.
func terminal(status string) bool {
	switch status {
	case server.StatusDone, server.StatusFailed, server.StatusDead, server.StatusRejected, server.StatusRequeued:
		return true
	}
	return false
}

// outcome is what one client saw of one job.
type outcome struct {
	Plan    int
	Latency time.Duration
	Submit  time.Duration
	Polls   int
	Refused bool   // 429 or 503 on submit
	Err     string // non-empty: the operation failed
	View    view
	Trace   []byte
	// Parts holds the worker-side views of a cluster job's parts (traced
	// runs only, read after the timed phase).
	Parts []view
}

// client drives one base URL in a closed loop. It is used by one
// goroutine at a time.
type client struct {
	hc    *http.Client
	base  string
	every time.Duration // mean poll interval
	rng   *rand.Rand    // poll jitter
	rec   *recorder
}

// pollDelay draws a poll interval uniformly from [every/2, 3·every/2).
// The jitter keeps a job's latency from snapping to a fixed grid of poll
// instants, which would make the latency median jump between grid points.
func (c *client) pollDelay() time.Duration {
	return time.Duration(float64(c.every) * (0.5 + c.rng.Float64()))
}

// run submits one job, polls it to a final status and, when the plan asks,
// fetches its trace. Latency runs from the POST to the result in hand, or
// to the failure. req names the job in its spans.
func (c *client) run(req string, p plan) (o outcome) {
	body, err := json.Marshal(p.Spec)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	t0 := time.Now()
	root := c.rec.begin("job", 0, req)
	defer c.rec.end(root)
	defer func() { o.Latency = time.Since(t0) }()

	sp := c.rec.begin("http.submit", root, req)
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.rec.end(sp)
		o.Err = fmt.Sprintf("submit: %v", err)
		return o
	}
	code, err := decodeBody(resp, &o.View)
	c.rec.end(sp)
	o.Submit = time.Since(t0)
	o.Refused = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
	if err != nil || code != http.StatusAccepted {
		o.Err = fmt.Sprintf("submit: status %d: %v", code, err)
		return o
	}
	id := o.View.ID
	for !terminal(o.View.Status) {
		time.Sleep(c.pollDelay())
		sp := c.rec.begin("http.poll", root, req)
		var v view
		code, err := getJSON(c.hc, c.base+"/jobs/"+id, &v)
		c.rec.end(sp)
		o.Polls++
		if err != nil || code != http.StatusOK {
			o.Err = fmt.Sprintf("poll %s: status %d: %v", id, code, err)
			return o
		}
		o.View = v
	}
	if o.View.Status != server.StatusDone {
		o.Err = fmt.Sprintf("job %s ended %s: %s", id, o.View.Status, o.View.Error)
		return o
	}
	if p.Fetch {
		sp := c.rec.begin("http.trace", root, req)
		o.Trace, code, err = getBytes(c.hc, c.base+"/jobs/"+id+"/trace")
		c.rec.end(sp)
		if err != nil || code != http.StatusOK {
			o.Err = fmt.Sprintf("trace %s: status %d: %v", id, code, err)
		}
	}
	return o
}

// epochResult is one epoch: its set-up time, its timed phase and the
// /metrics deltas around that phase.
type epochResult struct {
	Setup    time.Duration
	Wall     time.Duration
	Teardown time.Duration // shutting the system down, after the checks
	Outs     []outcome
	Delta    counts
	MemPeak  float64 // MB, the process's peak resident set over the epoch
}

// runEpoch boots the workload, runs its set-up jobs, then drives plans
// with the closed-loop clients. Only the drive is timed; set-up is timed
// on its own, and /metrics is read on both sides of the drive.
func runEpoch(wl workload, plans []plan, warm []server.JobSpec, dataDir string, epoch int, seed int64, hc *http.Client, rec *recorder) (er epochResult, err error) {
	order := epochOrder(len(plans), wl.Cycle, rand.New(rand.NewSource(seed)))
	simdDir := ""
	if wl.DataDir {
		simdDir = filepath.Join(dataDir, fmt.Sprintf("epoch-%d", epoch))
	}
	t0 := time.Now()
	d, err := boot(wl, simdDir, hc)
	if err != nil {
		return er, err
	}
	defer func() {
		c0 := time.Now()
		d.close()
		er.Teardown = time.Since(c0)
	}()
	wc := &client{hc: hc, base: d.entry, every: wl.PollEvery, rng: rand.New(rand.NewSource(seed + 1))}
	for i, s := range warm {
		if o := wc.run(fmt.Sprintf("warm-%d", i), plan{Spec: s}); o.Err != "" {
			return er, fmt.Errorf("set-up job %d: %s", i, o.Err)
		}
	}
	er.Setup = time.Since(t0)

	before, err := d.metrics(hc)
	if err != nil {
		return er, err
	}
	er.Outs = make([]outcome, len(plans))
	var next atomic.Int64
	var wg sync.WaitGroup
	w0 := time.Now()
	for k := 0; k < wl.Clients; k++ {
		c := &client{hc: hc, base: d.entry, every: wl.PollEvery, rng: rand.New(rand.NewSource(seed + int64(k) + 2)), rec: rec}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				o := c.run(fmt.Sprintf("e%d-j%d", epoch, k), plans[i])
				o.Plan = i
				er.Outs[k] = o
			}
		}()
	}
	wg.Wait()
	er.Wall = time.Since(w0)
	after, err := d.metrics(hc)
	if err != nil {
		return er, err
	}
	er.Delta = after.sub(before)

	if rec != nil && wl.Cluster {
		for i := range er.Outs {
			if err := readParts(hc, d, &er.Outs[i]); err != nil {
				return er, err
			}
		}
	}
	return er, nil
}

// readParts fetches the worker-side job views of a cluster job's parts.
func readParts(hc *http.Client, d *deployment, o *outcome) error {
	for _, p := range o.View.Parts {
		url, ok := d.workers[p.Worker]
		if !ok || p.JobID == "" {
			return fmt.Errorf("job %s: part on unknown worker %q", o.View.ID, p.Worker)
		}
		var v view
		if err := getOK(hc, url+"/jobs/"+p.JobID, &v); err != nil {
			return err
		}
		o.Parts = append(o.Parts, v)
	}
	return nil
}

func decodeBody(resp *http.Response, out any) (int, error) {
	defer resp.Body.Close()
	err := json.NewDecoder(resp.Body).Decode(out)
	if err == nil {
		// Drain the encoder's trailing newline so the connection is reused.
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, err
}

func getJSON(hc *http.Client, url string, out any) (int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	return decodeBody(resp, out)
}

func getOK(hc *http.Client, url string, out any) error {
	code, err := getJSON(hc, url, out)
	if err == nil && code != http.StatusOK {
		err = errors.New(http.StatusText(code))
	}
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func getBytes(hc *http.Client, url string) ([]byte, int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}
