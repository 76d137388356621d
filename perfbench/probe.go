package main

import (
	"fmt"
	"os"
	"sort"

	"supersim/internal/bench"
	"supersim/internal/journal"
	"supersim/internal/replay"
	"supersim/internal/server"
)

// appendsPerSpec is how many journal.AppendSync calls each probed spec
// times.
const appendsPerSpec = 4

// probeResult holds what the layer probes measured besides their spans.
type probeResult struct {
	FrameBytes  []float64
	JSONBytes   []float64
	ReplayTasks float64 // tasks replayed by the replay.run spans
	DirectTasks float64 // tasks simulated by the sched.direct spans
}

// probeSpecs lists one simulate spec per distinct DAG shape behind plans
// (scheduler, policy, algorithm, tile count and size, workers), in a
// fixed order; seeds, reps and trace retention do not change what the
// probed calls do. A sweep is probed through its largest point.
func probeSpecs(plans []plan) ([]server.JobSpec, error) {
	seen := make(map[string]bool)
	var out []server.JobSpec
	for _, p := range plans {
		s := p.Spec
		if s.Kind == "sweep" {
			s.Kind, s.NT, s.MaxNT = "simulate", s.MaxNT, 0
		}
		s, err := normalized(s)
		if err != nil {
			return nil, err
		}
		if id := shapeID(s); !seen[id] {
			seen[id] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return shapeID(out[i]) < shapeID(out[j]) })
	return out, nil
}

func shapeID(s server.JobSpec) string {
	return fmt.Sprintf("%s|%s|%s|nt%03d|nb%d|w%d", s.Scheduler, s.Policy, s.Algorithm, s.NT, s.NB, s.Workers)
}

// probe times each layer's public calls from the benchmark's own code, on
// the workload's specs: capture, the arena codec, replay, trace encoding,
// the direct scheduler path and the journal's fsync-on-accept append in
// journalDir.
func probe(specs []server.JobSpec, journalDir string, rec *recorder) (probeResult, error) {
	var pr probeResult
	if err := os.MkdirAll(journalDir, 0o755); err != nil {
		return pr, err
	}
	jl, _, err := journal.Open(journalDir)
	if err != nil {
		return pr, fmt.Errorf("journal: %w", err)
	}
	defer jl.Close()
	for i, s := range specs {
		job := fmt.Sprintf("probe-%d", i)
		root := rec.begin("probe", 0, job)
		err := probeOne(s, jl, rec, root, job, &pr)
		rec.end(root)
		if err != nil {
			return pr, fmt.Errorf("probe %s: %w", specID(s), err)
		}
	}
	return pr, nil
}

func probeOne(s server.JobSpec, jl *journal.Journal, rec *recorder, root int, job string, pr *probeResult) error {
	timed := func(name string, f func() error) error {
		id := rec.begin(name, root, job)
		err := f()
		rec.end(id)
		return err
	}
	bs := benchSpec(s)
	var dag *replay.DAG
	if err := timed("bench.capture", func() (err error) { dag, err = bench.CaptureSpec(bs); return }); err != nil {
		return err
	}
	arena, err := dag.Arena()
	if err != nil {
		return err
	}
	var frame []byte
	_ = timed("replay.encode", func() error { frame = arena.Encode(); return nil })
	pr.FrameBytes = append(pr.FrameBytes, float64(len(frame)))
	var loaded *replay.Arena
	if err := timed("replay.load", func() (err error) { loaded, err = replay.Load(frame); return }); err != nil {
		return err
	}
	_ = timed("replay.to_dag", func() error { loaded.DAG(); return nil })

	opt := replay.Options{
		Workers: s.Workers, Model: modelOf(s),
		Seed:             bench.ReplicaSeed(s.Seed, s.NT, 0),
		IgnorePriorities: bench.ReplayIgnoresPriorities(bs),
	}
	tr, err := replay.Run(dag, opt) // warms the executor's pools, as on a busy server
	if err != nil {
		return err
	}
	if err := timed("replay.run", func() (err error) { tr, err = replay.Run(dag, opt); return }); err != nil {
		return err
	}
	pr.ReplayTasks += float64(len(tr.Events))
	_ = timed("trace.fingerprint", func() error { tr.Fingerprint(); return nil })
	var cw countingWriter
	if err := timed("trace.json", func() error { return tr.WriteJSON(&cw) }); err != nil {
		return err
	}
	pr.JSONBytes = append(pr.JSONBytes, float64(cw.n))

	var res bench.Result
	if err := timed("sched.direct", func() (err error) { res, err = bench.Simulated(bs, modelOf(s)); return }); err != nil {
		return err
	}
	if res.Err != nil {
		return fmt.Errorf("direct run: %w", res.Err)
	}
	pr.DirectTasks += float64(res.NumTasks)

	for k := 0; k < appendsPerSpec; k++ {
		if err := timed("journal.append_sync", func() error { _, err := jl.AppendSync("probe", s); return err }); err != nil {
			return err
		}
	}
	return nil
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
