package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/replay"
	"supersim/internal/server"
	"supersim/internal/trace"
)

// expect is the in-process reference for one plan.
type expect struct {
	// NumTasks is the result's num_tasks: the op count of a direct job,
	// the captured DAG's task count of a cached job.
	NumTasks int
	// Fingerprint and Makespans are checked on cached and sweep jobs;
	// direct jobs have none (their fingerprints are only compared with
	// each other, see fpDivergence).
	Fingerprint string
	Makespans   []float64
	// SweepTasks holds each sweep point's task count.
	SweepTasks []int
	// SweepWall is the reference sweep's own capture/replay split.
	SweepWall *bench.SweepWall
}

// normalized returns the spec with the server's defaults filled in.
func normalized(s server.JobSpec) (server.JobSpec, error) {
	err := s.Validate()
	return s, err
}

// benchSpec is the experiment-harness form of a normalized job spec.
func benchSpec(s server.JobSpec) bench.Spec {
	return bench.Spec{
		Algorithm: s.Algorithm, Scheduler: s.Scheduler, Policy: s.Policy,
		NT: s.NT, NB: s.NB, Workers: s.Workers, Seed: s.Seed,
	}
}

func modelOf(s server.JobSpec) core.DurationModel { return core.FixedModel(s.Model.Fixed) }

// specID identifies a normalized spec by every field the workloads set.
func specID(s server.JobSpec) string {
	keep := s.Trace != nil && *s.Trace
	return fmt.Sprintf("%s|%s|%s|%s|nt%d|nb%d|w%d|seed%d|reps%d|max%d|nocache%v|trace%v|fixed%g",
		s.Kind, s.Algorithm, s.Scheduler, s.Policy, s.NT, s.NB, s.Workers, s.Seed, s.Reps, s.MaxNT,
		s.NoCache, keep, s.Model.Fixed)
}

// references computes every plan's expected result in process: cached
// jobs by bench.CaptureSpec then replay.Run with bench.ReplicaSeed, sweeps
// by bench.SweepParallel, direct jobs by their op count. Identical plans
// share one reference; captures are shared per cache key.
func references(plans []plan) ([]expect, error) {
	out := make([]expect, len(plans))
	dags := make(map[string]*replay.DAG)
	memo := make(map[string]expect)
	for i, p := range plans {
		s, err := normalized(p.Spec)
		if err != nil {
			return nil, fmt.Errorf("plan %d: %w", i, err)
		}
		id := specID(s)
		if e, ok := memo[id]; ok {
			out[i] = e
			continue
		}
		var e expect
		switch {
		case s.Kind == "sweep":
			e, err = sweepReference(s)
		case s.Cacheable():
			dag := dags[s.RouteKey()]
			if dag == nil {
				if dag, err = bench.CaptureSpec(benchSpec(s)); err != nil {
					return nil, fmt.Errorf("plan %d: capture: %w", i, err)
				}
				dags[s.RouteKey()] = dag
			}
			e, err = replayReference(s, dag)
		default:
			ops, oerr := bench.Ops(benchSpec(s))
			e, err = expect{NumTasks: len(ops)}, oerr
		}
		if err != nil {
			return nil, fmt.Errorf("plan %d: %w", i, err)
		}
		memo[id] = e
		out[i] = e
	}
	return out, nil
}

// replayReference replays every rep of a cached job the way the server
// does.
func replayReference(s server.JobSpec, dag *replay.DAG) (expect, error) {
	e := expect{Makespans: make([]float64, s.Reps)}
	for rep := 0; rep < s.Reps; rep++ {
		tr, err := replay.Run(dag, replay.Options{
			Workers:          s.Workers,
			Model:            modelOf(s),
			Seed:             bench.ReplicaSeed(s.Seed, s.NT, rep),
			IgnorePriorities: bench.ReplayIgnoresPriorities(benchSpec(s)),
		})
		if err != nil {
			return e, fmt.Errorf("replay rep %d: %w", rep, err)
		}
		e.Makespans[rep] = tr.Makespan()
		if rep == 0 {
			e.NumTasks = len(tr.Events)
			e.Fingerprint = fmt.Sprintf("%016x", tr.Fingerprint())
		}
	}
	return e, nil
}

// sweepReference runs the unsliced sweep on one node.
func sweepReference(s server.JobSpec) (expect, error) {
	points, wall, err := bench.SweepParallel(s.Scheduler, s.Algorithm, s.NB, s.MaxNT, s.Workers, bench.SweepOptions{
		Reps: s.Reps, Model: modelOf(s), Seed: s.Seed,
	})
	if err != nil {
		return expect{}, fmt.Errorf("sweep: %w", err)
	}
	e := expect{Fingerprint: server.SweepFingerprint(points), SweepWall: &wall}
	for _, p := range points {
		e.SweepTasks = append(e.SweepTasks, p.NumTasks)
	}
	if n := len(points); n > 0 {
		e.NumTasks = points[n-1].NumTasks
	}
	return e, nil
}

// traceMemo remembers, per plan, the checksum of a fetched trace body that
// passed the full check, with the job ID taken out. A later epoch's body
// with the same checksum is the same trace and is not decoded again.
type traceMemo map[int]uint32

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// check compares one finished job with its reference; nil means correct.
// memo may be nil.
func check(p plan, e expect, o outcome, memo traceMemo) error {
	if o.Err != "" {
		return fmt.Errorf("%s", o.Err)
	}
	r := o.View.Result
	if r == nil {
		return fmt.Errorf("job %s: done without a result", o.View.ID)
	}
	if r.NumTasks != e.NumTasks {
		return fmt.Errorf("job %s: num_tasks %d, want %d", o.View.ID, r.NumTasks, e.NumTasks)
	}
	if e.Fingerprint != "" && r.Fingerprint != e.Fingerprint {
		return fmt.Errorf("job %s: fingerprint %s, want %s", o.View.ID, r.Fingerprint, e.Fingerprint)
	}
	if e.Makespans != nil && !sameBits(r.Makespans, e.Makespans) {
		return fmt.Errorf("job %s: makespans %v, want %v", o.View.ID, r.Makespans, e.Makespans)
	}
	if p.Spec.Kind == "sweep" {
		if len(r.Sweep) != len(e.SweepTasks) {
			return fmt.Errorf("job %s: %d sweep points, want %d", o.View.ID, len(r.Sweep), len(e.SweepTasks))
		}
		for i, pt := range r.Sweep {
			if pt.NumTasks != e.SweepTasks[i] || len(pt.Makespans) != p.Spec.Reps {
				return fmt.Errorf("job %s: sweep point nt=%d has %d tasks × %d reps, want %d × %d",
					o.View.ID, pt.NT, pt.NumTasks, len(pt.Makespans), e.SweepTasks[i], p.Spec.Reps)
			}
		}
	} else if reps := max(p.Spec.Reps, 1); len(r.Makespans) != reps {
		return fmt.Errorf("job %s: %d makespans, want %d", o.View.ID, len(r.Makespans), reps)
	}
	if p.Fetch {
		sum := crc32.Checksum(bytes.Replace(o.Trace, []byte(o.View.ID), nil, 1), castagnoli)
		if v, ok := memo[o.Plan]; ok && v == sum {
			return nil
		}
		if err := checkTrace(o.Trace, r); err != nil {
			return fmt.Errorf("job %s: %w", o.View.ID, err)
		}
		if memo != nil {
			memo[o.Plan] = sum
		}
	}
	return nil
}

// checkTrace decodes a fetched trace and checks it against the result.
func checkTrace(body []byte, r *server.JobResult) error {
	tr, err := trace.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	}
	if len(tr.Events) != r.NumTasks {
		return fmt.Errorf("trace has %d events, want %d", len(tr.Events), r.NumTasks)
	}
	if fp := fmt.Sprintf("%016x", tr.Fingerprint()); fp != r.Fingerprint {
		return fmt.Errorf("fetched trace fingerprint %s, result says %s", fp, r.Fingerprint)
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// work returns the simulated tasks (num_tasks once per rep, summed over
// sweep points) and the virtual seconds (every rep's makespan) of a
// result.
func work(r *server.JobResult) (tasks, virt float64) {
	if len(r.Sweep) > 0 {
		for _, p := range r.Sweep {
			tasks += float64(p.NumTasks * len(p.Makespans))
			virt += sum(p.Makespans)
		}
		return tasks, virt
	}
	return float64(r.NumTasks * len(r.Makespans)), sum(r.Makespans)
}

// fpDivergence counts direct specs that returned more than one
// fingerprint. fps maps a spec identity to the fingerprints seen.
func fpDivergence(fps map[string]map[string]bool) int {
	n := 0
	for _, set := range fps {
		if len(set) > 1 {
			n++
		}
	}
	return n
}
