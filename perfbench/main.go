// Command perfbench is the repository's end-to-end benchmark. For one
// workload it boots simd (server.New) — or simcoord (cluster.New) in front
// of two simd workers — on loopback, drives it over HTTP with two
// closed-loop clients, checks every result against an in-process
// reference, and prints the metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half, and the metrics are the
// per-layer ones, read from spans recorded around each HTTP call and each
// layer's public functions. Run it through run.sh from the repository
// root; see README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"supersim/internal/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed the job list is generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds of timed traffic to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for data dirs, results and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	wl, ok := lookup(o.workload)
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := run(wl, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.Line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Line.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// resultLine is the JSON object printed last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's record, written under <out>/results for compare.
type result struct {
	Host     hostInfo   `json:"host"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Trace    bool       `json:"trace"`
	Epochs   int        `json:"epochs"`
	Tail     tail       `json:"latency_tail"`
	Line     resultLine `json:"result"`
	// HostScaled says whether the end-to-end timings were scaled to
	// nominal host speed; Slowdown is the median epoch slowdown, and Raw
	// holds the timings as measured (hostspeed.go).
	HostScaled bool               `json:"host_scaled"`
	Slowdown   float64            `json:"host_slowdown"`
	Raw        map[string]float64 `json:"raw_end_to_end"`
}

func run(wl workload, o options) (*result, error) {
	dataRoot := filepath.Join(o.out, fmt.Sprintf("data-%s-%d", wl.Name, os.Getpid()))
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	host := probeHost(dataRoot)
	fmt.Printf("host %s\n", host)

	plans := wl.Plans(rand.New(rand.NewSource(o.seed)))
	warm := wl.Warm(rand.New(rand.NewSource(o.seed + 1)))
	refs, err := references(plans)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second},
	}
	defer hc.CloseIdleConnections()

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	epoch := 0
	measure := func(rec *recorder) (summary, error) {
		s := newSummary()
		before, err := kernelMS()
		if err != nil {
			return summary{}, err
		}
		for s.Epochs == 0 || s.Wall < budget.Seconds() {
			if err := resetPeakRSS(); err != nil {
				return summary{}, err
			}
			er, err := runEpoch(wl, plans, warm, dataRoot, epoch, o.seed*1000+int64(epoch), hc, rec)
			epoch++
			if err != nil {
				return summary{}, fmt.Errorf("epoch %d: %w", epoch-1, err)
			}
			if er.MemPeak, err = peakRSSMB(); err != nil {
				return summary{}, err
			}
			after, err := kernelMS()
			if err != nil {
				return summary{}, err
			}
			slow := slowdown(before, after)
			before = after
			// Checking each epoch as it ends lets its fetched traces go;
			// collecting its garbage keeps one epoch's heap from raising
			// the next one's peak.
			s.add(plans, refs, er, slow, wl.HostScaled)
			runtime.GC()
		}
		return s, nil
	}
	plain, err := measure(nil)
	if err != nil {
		return nil, err
	}
	res := &result{Host: host, Workload: wl.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Epochs: plain.Epochs, Tail: tailOf(plain.Lat), HostScaled: wl.HostScaled,
		Slowdown: median(plain.Slowdowns), Raw: rawValues(plain)}
	res.Line = resultLine{Correct: plain.Failed == 0, Attempted: plain.Attempted, Failed: plain.Failed,
		Metrics: make(map[string]metricValue)}
	e2e := endToEndValues(plain)

	fmt.Printf("workload %s seed %d seconds %g trace %v epochs %d jobs %d (slowest teardown %v)\n",
		wl.Name, o.seed, o.seconds, o.trace, plain.Epochs, plain.Attempted, plain.MaxTeardown.Round(time.Millisecond))
	for _, m := range endToEnd {
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	fmt.Printf("  %-34s %14.4f ratio (%d of %d failed)\n", "error_rate", ratio(float64(plain.Failed), float64(plain.Attempted)), plain.Failed, plain.Attempted)
	fmt.Printf("  latency tail: p%g over %d samples, %d above\n", float64(res.Tail.Permille)/10, res.Tail.Samples, res.Tail.Above)
	scaled := "not applied: this workload's timings are raw"
	if wl.HostScaled {
		scaled = "timings above are scaled to nominal host speed"
	}
	fmt.Printf("  host slowdown: median %.4f over %d epochs (reference kernel %.4f ms, nominal %g ms); %s\n",
		res.Slowdown, plain.Epochs, res.Slowdown*refKernelMS, float64(refKernelMS), scaled)
	for _, m := range endToEnd {
		if v, ok := res.Raw[m.Name]; ok {
			fmt.Printf("  raw %-30s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	for _, e := range plain.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}

	values := e2e
	defs := endToEnd
	if o.trace {
		rec := newRecorder()
		traced, err := measure(rec)
		if err != nil {
			return nil, err
		}
		specs, err := probeSpecs(plans)
		if err != nil {
			return nil, err
		}
		pr, err := probe(specs, filepath.Join(dataRoot, "journal-probe"), rec)
		if err != nil {
			return nil, err
		}
		st := statsOf(rec.snapshot())
		values = layerValues(plain, traced, st, pr, refs)
		defs = perLayer
		res.Line.Attempted += traced.Attempted
		res.Line.Failed += traced.Failed
		res.Line.Correct = res.Line.Failed == 0
		for _, e := range traced.Errors {
			fmt.Printf("  FAILED (traced): %s\n", e)
		}
		printSelfTimes(st, traced.Attempted)
		for _, m := range perLayer {
			fmt.Printf("  %-34s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
		}
		spansPath := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.json", wl.Name, o.seed))
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			return nil, err
		}
		if err := rec.write(spansPath, host); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", spansPath)
	}
	for _, m := range defs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if err := writeResult(o.out, res); err != nil {
		return nil, err
	}
	return res, nil
}

// summary aggregates a run's epochs.
type summary struct {
	Epochs            int
	Attempted, Failed int
	Errors            []string // the first few failures
	Wall              float64  // timed seconds
	// Per-epoch rates: completed jobs, simulated tasks and virtual seconds
	// per timed second. Every epoch does the same work, so their median
	// shrugs off an epoch slowed by a neighbour on the host.
	JobRates, TaskRates, VirtRates []float64
	Lat                            []float64 // ms, every attempted job
	Setups                         []float64 // s
	MemPeaks                       []float64 // MB, each epoch's peak resident set
	// Slowdowns holds each epoch's host slowdown. On a host-scaled
	// workload the rates, Lat and Setups above are scaled by it; the Raw
	// fields keep them as measured.
	Slowdowns                      []float64
	RawJobRates, RawLat, RawSetups []float64
	MaxTeardown                    time.Duration
	Delta                          counts // /metrics deltas over the timed phases
	// Per finished job, in ms: submit round trip, server-side queue wait
	// and run (the slowest part for cluster jobs), the rest of the
	// client's latency, and the coordinator's share above the slowest
	// part.
	Submit, Queue, Run, Overhead, ClusterOverhead []float64
	Polls, Refused                                int
	// FPs maps each direct spec to the fingerprints it returned.
	FPs map[string]map[string]bool
	// traces remembers the fetched traces already decoded and verified.
	traces traceMemo
}

const maxErrors = 5

func newSummary() summary {
	return summary{FPs: make(map[string]map[string]bool), traces: make(traceMemo)}
}

// add checks one epoch's outcomes against their references and folds the
// epoch into the summary. slow is the host slowdown across the epoch;
// with scaled set, the epoch's rates, latencies and set-up time are
// scaled by it to nominal host speed.
func (s *summary) add(plans []plan, refs []expect, er epochResult, slow float64, scaled bool) {
	s.Slowdowns = append(s.Slowdowns, slow)
	if !scaled {
		slow = 1
	}
	s.Epochs++
	s.Wall += er.Wall.Seconds()
	s.Setups = append(s.Setups, er.Setup.Seconds()/slow)
	s.RawSetups = append(s.RawSetups, er.Setup.Seconds())
	s.MemPeaks = append(s.MemPeaks, er.MemPeak)
	s.MaxTeardown = max(s.MaxTeardown, er.Teardown)
	s.Delta = s.Delta.add(er.Delta)
	var done, tasks, virt float64
	for _, o := range er.Outs {
		p := plans[o.Plan]
		s.Attempted++
		s.Polls += o.Polls
		if o.Refused {
			s.Refused++
		}
		lat := ms(o.Latency)
		s.Lat = append(s.Lat, lat/slow)
		s.RawLat = append(s.RawLat, lat)
		if err := check(p, refs[o.Plan], o, s.traces); err != nil {
			s.Failed++
			if len(s.Errors) < maxErrors {
				s.Errors = append(s.Errors, err.Error())
			}
			continue
		}
		t, v := work(o.View.Result)
		done, tasks, virt = done+1, tasks+t, virt+v
		s.Submit = append(s.Submit, ms(o.Submit))
		q, r := o.View.QueueWaitNS, o.View.RunNS
		for _, pv := range o.Parts {
			if pv.RunNS > r || r == 0 {
				q, r = pv.QueueWaitNS, pv.RunNS
			}
		}
		if len(o.Parts) > 0 {
			s.ClusterOverhead = append(s.ClusterOverhead, lat-float64(r)/1e6)
		}
		if p.Spec.Kind != "sweep" || len(o.Parts) > 0 {
			s.Queue = append(s.Queue, float64(q)/1e6)
			s.Run = append(s.Run, float64(r)/1e6)
			s.Overhead = append(s.Overhead, lat-float64(q+r)/1e6)
		}
		if p.Spec.NoCache {
			ns, _ := normalized(p.Spec)
			id := specID(ns)
			if s.FPs[id] == nil {
				s.FPs[id] = make(map[string]bool)
			}
			s.FPs[id][o.View.Result.Fingerprint] = true
		}
	}
	w := er.Wall.Seconds()
	s.JobRates = append(s.JobRates, ratio(done, w)*slow)
	s.TaskRates = append(s.TaskRates, ratio(tasks, w)*slow)
	s.VirtRates = append(s.VirtRates, ratio(virt, w)*slow)
	s.RawJobRates = append(s.RawJobRates, ratio(done, w))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func endToEndValues(s summary) map[string]float64 {
	return map[string]float64{
		"jobs_per_s":        median(s.JobRates),
		"tasks_per_s":       median(s.TaskRates),
		"virt_s_per_host_s": median(s.VirtRates),
		"latency_p50_ms":    median(s.Lat),
		"latency_tail_ms":   tailOf(s.Lat).Value,
		"mem_peak_mb":       median(s.MemPeaks),
		"setup_s":           median(s.Setups),
	}
}

// rawValues are the end-to-end timings as measured, before host scaling.
func rawValues(s summary) map[string]float64 {
	return map[string]float64{
		"jobs_per_s":      median(s.RawJobRates),
		"latency_p50_ms":  median(s.RawLat),
		"latency_tail_ms": tailOf(s.RawLat).Value,
		"setup_s":         median(s.RawSetups),
	}
}

// layerValues assembles the per-layer metrics: service-side figures from
// the traced half, layer call times from the probe spans, and the tracing
// overhead against the untraced half.
func layerValues(plain, traced summary, st spanStats, pr probeResult, refs []expect) map[string]float64 {
	d := traced.Delta
	epochs := float64(traced.Epochs)
	jobs := float64(traced.Attempted)
	lookups := float64(d.Hits + d.Disk + d.Peer + d.Misses)
	fps := make(map[string]map[string]bool)
	for _, m := range []map[string]map[string]bool{plain.FPs, traced.FPs} {
		for id, set := range m {
			if fps[id] == nil {
				fps[id] = make(map[string]bool)
			}
			for fp := range set {
				fps[id][fp] = true
			}
		}
	}
	var sweepCapture, sweepReplay []float64
	seen := make(map[*bench.SweepWall]bool)
	for _, e := range refs {
		if e.SweepWall != nil && !seen[e.SweepWall] {
			seen[e.SweepWall] = true
			sweepCapture = append(sweepCapture, ms(e.SweepWall.Capture))
			sweepReplay = append(sweepReplay, ms(e.SweepWall.Replay))
		}
	}
	tl := tailOf(plain.Lat)
	v := map[string]float64{
		"server.submit_ms":               median(traced.Submit),
		"server.queue_wait_ms":           median(traced.Queue),
		"server.run_ms":                  median(traced.Run),
		"server.overhead_ms":             median(traced.Overhead),
		"server.polls_per_job":           ratio(float64(traced.Polls), jobs),
		"server.refused":                 float64(plain.Refused + traced.Refused),
		"cache.hit_ratio":                ratio(float64(d.Hits+d.Disk+d.Peer), lookups),
		"cache.captures":                 ratio(float64(d.Captures), epochs),
		"cache.disk_hits":                ratio(float64(d.Disk), epochs),
		"cache.disk_writes":              ratio(float64(d.DiskWrites), epochs),
		"cache.evictions":                ratio(float64(d.Evictions), epochs),
		"bench.capture_ms":               st.medianMS("bench.capture"),
		"replay.encode_ms":               st.medianMS("replay.encode"),
		"replay.load_ms":                 st.medianMS("replay.load"),
		"replay.to_dag_ms":               st.medianMS("replay.to_dag"),
		"replay.frame_bytes":             median(pr.FrameBytes),
		"replay.run_ms":                  st.medianMS("replay.run"),
		"replay.tasks_per_s":             ratio(pr.ReplayTasks, sum(st.durMS["replay.run"])/1e3),
		"trace.fingerprint_ms":           st.medianMS("trace.fingerprint"),
		"trace.json_ms":                  st.medianMS("trace.json"),
		"trace.json_bytes":               median(pr.JSONBytes),
		"trace.fetch_ms":                 st.medianMS("http.trace"),
		"sched.direct_ms":                st.medianMS("sched.direct"),
		"sched.tasks_per_s":              ratio(pr.DirectTasks, sum(st.durMS["sched.direct"])/1e3),
		"sched.fp_divergent_specs":       float64(fpDivergence(fps)),
		"perf.front_handoffs_per_task":   d.Perf.PerTask(d.Perf.FrontHandoffs),
		"perf.quiescence_parks_per_task": d.Perf.PerTask(d.Perf.QuiescenceParks),
		"perf.spurious_wakeups_per_task": d.Perf.PerTask(d.Perf.SpuriousWakeups),
		"journal.append_sync_ms":         st.medianMS("journal.append_sync"),
		"journal.records_per_job":        ratio(float64(d.Seq), jobs),
		"bench.sweep_capture_ms":         median(sweepCapture),
		"bench.sweep_replay_ms":          median(sweepReplay),
		"cluster.overhead_ms":            median(traced.ClusterOverhead),
		"cluster.parts_per_job":          ratio(float64(d.Dispatched), jobs),
		"cluster.failovers":              float64(d.Failovers),
		"cluster.mismatches":             float64(d.Mismatches),
		"error_rate":                     ratio(float64(plain.Failed+traced.Failed), float64(plain.Attempted+traced.Attempted)),
		"latency_tail_pct":               float64(tl.Permille) / 10,
		"latency_samples":                float64(tl.Samples),
		"trace.overhead_ms":              median(traced.Lat) - median(plain.Lat),
		"host.slowdown":                  median(append(append([]float64(nil), plain.Slowdowns...), traced.Slowdowns...)),
	}
	for _, name := range selfSpans {
		v["self."+strings.ReplaceAll(name, ".", "_")+"_ms"] = ratio(st.selfMS[name], jobs)
	}
	return v
}

// printSelfTimes prints every span name's count, median duration and total
// self time, and the self time per job.
func printSelfTimes(st spanStats, jobs int) {
	fmt.Printf("  %-22s %8s %12s %14s %14s\n", "span", "count", "median_ms", "self_total_ms", "self_per_job_ms")
	for _, n := range st.names() {
		fmt.Printf("  %-22s %8d %12.4f %14.3f %14.4f\n", n, len(st.durMS[n]), st.medianMS(n), st.selfMS[n], ratio(st.selfMS[n], float64(jobs)))
	}
}

func writeResult(out string, res *result) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", res.Workload, res.Seed, res.Trace))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", path)
	return nil
}
