package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"supersim/internal/bench"
	"supersim/internal/replay"
	"supersim/internal/server"
	"supersim/internal/trace"
)

func TestTailPermille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{10000, 999}, // rank 9990 leaves 10 above
		{9999, 990},
		{1000, 990},
		{999, 950},
		{200, 950},
		{199, 900},
		{100, 900},
		{99, 750},
		{40, 750},
		{39, 500},
		{20, 500},
		{19, 1000}, // too few for any percentile: report the maximum
		{1, 1000},
	} {
		if got := tailPermille(c.n, minTailAbove); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	got := tailOf(xs)
	want := tail{Value: 90, Permille: 900, Samples: 100, Above: 10}
	if got != want {
		t.Fatalf("tailOf(1..100) = %+v, want %+v", got, want)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},  // grandchild: only a's
		{ID: 6, Name: "other", Start: 0, End: 50},          // another root
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 50}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	st := statsOf(spans)
	if st.selfMS["job"] != 60e-6 || st.medianMS("a") != 20e-6 {
		t.Fatalf("statsOf: job self %v ms, a median %v ms", st.selfMS["job"], st.medianMS("a"))
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	r.end(r.begin("job", 0, "x"))
	if r.snapshot() != nil {
		t.Fatal("nil recorder recorded spans")
	}
	r = newRecorder()
	root := r.begin("job", 0, "j")
	r.end(r.begin("http.submit", root, "j"))
	r.end(root)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End || s[1].Job != "j" {
		t.Fatalf("spans = %+v", s)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a := wl.Plans(rand.New(rand.NewSource(7)))
		b := wl.Plans(rand.New(rand.NewSource(7)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different plans", wl.Name)
		}
		if c := wl.Plans(rand.New(rand.NewSource(8))); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same plans", wl.Name)
		}
		if !reflect.DeepEqual(wl.Warm(rand.New(rand.NewSource(7))), wl.Warm(rand.New(rand.NewSource(7)))) {
			t.Errorf("%s: same seed gave different set-up jobs", wl.Name)
		}
		for i, p := range append(a, plansOf(wl.Warm(rand.New(rand.NewSource(7))))...) {
			if p.Spec.Parallelism != 0 {
				t.Errorf("%s plan %d sets parallelism %d", wl.Name, i, p.Spec.Parallelism)
			}
			s := p.Spec
			if err := s.Validate(); err != nil {
				t.Errorf("%s plan %d: %v", wl.Name, i, err)
			}
			if p.Fetch && (s.Trace == nil || !*s.Trace) {
				t.Errorf("%s plan %d fetches a trace it does not keep", wl.Name, i)
			}
		}
	}
}

func plansOf(specs []server.JobSpec) []plan {
	out := make([]plan, len(specs))
	for i, s := range specs {
		out[i] = plan{Spec: s}
	}
	return out
}

// TestChurnMissesMemory pins capture-churn's premise: every epoch cycles
// more keys than the cache holds, in the same order on every pass, so no
// job can hit memory.
func TestChurnMissesMemory(t *testing.T) {
	plans := captureChurnPlans(rand.New(rand.NewSource(3)))
	keys := make(map[string]bool)
	for _, p := range plans {
		s := p.Spec
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		keys[s.RouteKey()] = true
	}
	wl, _ := lookup("capture-churn")
	if len(keys) != churnKeys || len(keys)-1 < churnCacheCap+wl.Clients {
		t.Fatalf("%d keys cycle through a cache of %d with %d clients: memory hits possible", len(keys), churnCacheCap, wl.Clients)
	}
	for epoch := int64(0); epoch < 3; epoch++ {
		order := epochOrder(len(plans), churnKeys, rand.New(rand.NewSource(epoch)))
		for k := range order[churnKeys:] {
			if plans[order[k]].Spec.NT != plans[order[k+churnKeys]].Spec.NT {
				t.Fatalf("epoch %d: pass order differs at job %d", epoch, k)
			}
		}
	}
}

func TestEpochOrder(t *testing.T) {
	a := epochOrder(12, 0, rand.New(rand.NewSource(1)))
	if !reflect.DeepEqual(a, epochOrder(12, 0, rand.New(rand.NewSource(1)))) {
		t.Fatal("same seed gave different orders")
	}
	if reflect.DeepEqual(a, epochOrder(12, 0, rand.New(rand.NewSource(2)))) {
		t.Fatal("seeds 1 and 2 gave the same order")
	}
	seen := make(map[int]bool)
	for _, i := range epochOrder(12, 4, rand.New(rand.NewSource(1))) {
		seen[i] = true
	}
	if len(seen) != 12 {
		t.Fatalf("cycled order visits %d of 12 plans", len(seen))
	}
}

// finished builds the outcome a correct server would return for plan p.
func finished(t *testing.T, p plan, e expect) outcome {
	t.Helper()
	r := &server.JobResult{NumTasks: e.NumTasks, Fingerprint: e.Fingerprint, Makespans: append([]float64(nil), e.Makespans...)}
	return outcome{View: view{ID: "job-1", Status: server.StatusDone, Result: r}}
}

func TestCheckFlagsTamperedResult(t *testing.T) {
	p := plan{Spec: server.JobSpec{Algorithm: "cholesky", Scheduler: "quark", NT: 4, Workers: 2, Seed: 9, Reps: 2,
		Model: model(), Trace: boolp(true)}, Fetch: true}
	refs, err := references([]plan{p})
	if err != nil {
		t.Fatal(err)
	}
	e := refs[0]
	if e.Fingerprint == "" || len(e.Makespans) != 2 || e.NumTasks == 0 {
		t.Fatalf("reference = %+v", e)
	}

	// The trace a correct server serves: the rep-0 replay under the job's label.
	s, _ := normalized(p.Spec)
	dag, err := bench.CaptureSpec(benchSpec(s))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := replay.Run(dag, replay.Options{Workers: s.Workers, Model: modelOf(s),
		Seed: bench.ReplicaSeed(s.Seed, s.NT, 0), IgnorePriorities: bench.ReplayIgnoresPriorities(benchSpec(s)), Label: "job-1"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	good := finished(t, p, e)
	good.Trace = buf.Bytes()
	if err := check(p, e, good, nil); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}

	tamper := map[string]func(o *outcome){
		"fingerprint": func(o *outcome) { o.View.Result.Fingerprint = "0000000000000000" },
		"makespan":    func(o *outcome) { o.View.Result.Makespans[1] += 1e-9 },
		"num_tasks":   func(o *outcome) { o.View.Result.NumTasks++ },
		"reps":        func(o *outcome) { o.View.Result.Makespans = o.View.Result.Makespans[:1] },
		"status":      func(o *outcome) { o.Err = "job job-1 ended failed" },
		"trace": func(o *outcome) {
			bad := *tr
			bad.Events = append([]trace.Event(nil), tr.Events...)
			bad.Events[0].End += 1e-9
			var b bytes.Buffer
			if err := bad.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			o.Trace = b.Bytes()
		},
	}
	for name, f := range tamper {
		o := finished(t, p, e)
		o.Trace = buf.Bytes()
		f(&o)
		if err := check(p, e, o, nil); err == nil {
			t.Errorf("tampered %s passed the check", name)
		}
	}
}

func TestCheckFlagsTamperedSweep(t *testing.T) {
	p := plan{Spec: server.JobSpec{Kind: "sweep", Algorithm: "qr", Scheduler: "ompss", MaxNT: 3, Workers: 2, Reps: 2,
		Seed: 5, Model: model()}}
	refs, err := references([]plan{p})
	if err != nil {
		t.Fatal(err)
	}
	e := refs[0]
	s, _ := normalized(p.Spec)
	points, _, err := bench.SweepParallel(s.Scheduler, s.Algorithm, s.NB, s.MaxNT, s.Workers, bench.SweepOptions{Reps: s.Reps, Model: modelOf(s), Seed: s.Seed})
	if err != nil {
		t.Fatal(err)
	}
	o := outcome{View: view{ID: "d-1", Status: server.StatusDone, Result: &server.JobResult{
		NumTasks: points[len(points)-1].NumTasks, Fingerprint: server.SweepFingerprint(points), Sweep: points}}}
	if err := check(p, e, o, nil); err != nil {
		t.Fatalf("correct sweep rejected: %v", err)
	}
	o.View.Result.Sweep[0].Makespans[0] += 1e-9
	o.View.Result.Fingerprint = server.SweepFingerprint(o.View.Result.Sweep)
	if err := check(p, e, o, nil); err == nil {
		t.Fatal("tampered sweep passed the check")
	}
}

func TestFPDivergence(t *testing.T) {
	fps := map[string]map[string]bool{
		"a": {"1": true},
		"b": {"1": true, "2": true},
		"c": {"3": true, "4": true, "5": true},
	}
	if got := fpDivergence(fps); got != 2 {
		t.Fatalf("fpDivergence = %d, want 2", got)
	}
}

func TestCompareRefusesOtherMachineShapes(t *testing.T) {
	a := result{Workload: "replay-hot", Host: hostInfo{Cores: 2, GOMAXPROCS: 2}}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("same shape refused: %v", err)
	}
	b.Host.GOMAXPROCS = 1
	if comparable(a, b) == nil {
		t.Fatal("different GOMAXPROCS compared")
	}
	b = a
	b.Host.Cores = 4
	if comparable(a, b) == nil {
		t.Fatal("different core counts compared")
	}
	b = a
	b.Workload = "direct-mix"
	if comparable(a, b) == nil {
		t.Fatal("different workloads compared")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's workloads and
// metric names, units and directions in step with the code.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's table")
	}
}

func TestTraceMemoSkipsOnlyIdenticalBodies(t *testing.T) {
	p := plan{Spec: server.JobSpec{Algorithm: "qr", Scheduler: "ompss", NT: 3, Workers: 2, Seed: 1,
		Model: model(), Trace: boolp(true)}, Fetch: true}
	refs, err := references([]plan{p})
	if err != nil {
		t.Fatal(err)
	}
	e := refs[0]
	s, _ := normalized(p.Spec)
	dag, err := bench.CaptureSpec(benchSpec(s))
	if err != nil {
		t.Fatal(err)
	}
	body := func(label string, shift float64) []byte {
		tr, err := replay.Run(dag, replay.Options{Workers: s.Workers, Model: modelOf(s),
			Seed: bench.ReplicaSeed(s.Seed, s.NT, 0), IgnorePriorities: bench.ReplayIgnoresPriorities(benchSpec(s)), Label: label})
		if err != nil {
			t.Fatal(err)
		}
		tr.Events[0].End += shift
		var b bytes.Buffer
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	memo := make(traceMemo)
	o := finished(t, p, e)
	o.Trace = body("job-1", 0)
	if err := check(p, e, o, memo); err != nil || len(memo) != 1 {
		t.Fatalf("first check: %v, memo %v", err, memo)
	}
	o.View.ID = "job-22"
	o.Trace = body("job-22", 0)
	if err := check(p, e, o, memo); err != nil {
		t.Fatalf("same trace under another job ID rejected: %v", err)
	}
	o.Trace = body("job-22", 1e-9)
	if err := check(p, e, o, memo); err == nil {
		t.Fatal("a changed trace passed on the memo")
	}
}

func TestRefKernelDeterministic(t *testing.T) {
	st, err := newRefState()
	if err != nil {
		t.Fatal(err)
	}
	a, err := st.round()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := st.round(); a != b {
		t.Fatalf("reference kernel returned %d then %d", a, b)
	}
	if n := testing.AllocsPerRun(5, func() { st.round() }); n != 0 {
		t.Fatalf("a kernel round allocates %v times", n)
	}
	if k, err := kernelMS(); err != nil || k <= 0 {
		t.Fatalf("kernelMS = %v, %v", k, err)
	}
	if got := slowdown(refKernelMS, 3*refKernelMS); got != 2 {
		t.Fatalf("slowdown = %v, want 2", got)
	}
}

// TestAddScalesToNominalSpeed: on a host-scaled workload an epoch's
// latencies and set-up time are divided by its slowdown, while the raw
// fields and unscaled workloads keep them as measured.
func TestAddScalesToNominalSpeed(t *testing.T) {
	plans := []plan{{Spec: server.JobSpec{Algorithm: "qr", Scheduler: "quark", NT: 3}}}
	er := epochResult{Setup: 40 * time.Millisecond, Wall: time.Second,
		Outs: []outcome{{Plan: 0, Latency: 10 * time.Millisecond, Err: "refused"}}}
	for _, scaled := range []bool{true, false} {
		s := newSummary()
		s.add(plans, []expect{{}}, er, 2, scaled)
		want := 1.0
		if scaled {
			want = 2
		}
		if s.Lat[0] != 10/want || s.Setups[0] != 0.04/want {
			t.Errorf("scaled=%v: latency %v ms, set-up %v s; want %v and %v", scaled, s.Lat[0], s.Setups[0], 10/want, 0.04/want)
		}
		if s.RawLat[0] != 10 || s.RawSetups[0] != 0.04 || s.Slowdowns[0] != 2 || s.Failed != 1 {
			t.Errorf("scaled=%v: raw %v ms, %v s, slowdown %v, failed %d", scaled, s.RawLat[0], s.RawSetups[0], s.Slowdowns[0], s.Failed)
		}
	}
}
