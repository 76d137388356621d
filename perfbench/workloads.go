package main

import (
	"math/rand"
	"time"

	"supersim/internal/server"
)

// plan is one job a client submits: the spec POSTed to /jobs and whether
// the client then fetches the retained trace.
type plan struct {
	Spec  server.JobSpec
	Fetch bool
}

// workload is one traffic mix. Every run repeats the same epoch (a fresh
// boot, set-up, then the whole job list) until the time budget is spent,
// so per-epoch counts repeat exactly while the timings accumulate samples.
type workload struct {
	Name string
	// Clients is the closed-loop client count: each sends its next job
	// only once the previous one is complete.
	Clients int
	// Cluster puts simcoord with two simd workers in front of the clients.
	Cluster bool
	// DataDir gives each epoch's simd a fresh, empty journal/frame dir.
	DataDir bool
	// CacheCap is the per-tenant capture-cache capacity (0 = default).
	CacheCap int
	// PollEvery is the client's mean poll interval.
	PollEvery time.Duration
	// Plans generates one epoch's job list from the seed; each epoch sends
	// it in its own order (epochOrder).
	Plans func(r *rand.Rand) []plan
	// Cycle > 0 says the job list is passes over the same Cycle keys in
	// the same order, which every epoch's order must keep.
	Cycle int
	// Warm generates the set-up jobs, submitted before the timed phase.
	Warm func(r *rand.Rand) []server.JobSpec
	// HostScaled scales the end-to-end timings to nominal host speed
	// (hostspeed.go). It is set where the host's processors bound a job's
	// time.
	HostScaled bool
}

// virtualTaskSeconds is the fixed virtual kernel duration every workload
// sends as its model, so the in-process references replay the same one.
const virtualTaskSeconds = 1e-3

func model() *server.ModelSpec { return &server.ModelSpec{Fixed: virtualTaskSeconds} }

func boolp(b bool) *bool { return &b }

// seedOf draws a job seed that stays exact through JSON.
func seedOf(r *rand.Rand) uint64 { return uint64(r.Int63n(1 << 53)) }

var workloads = []workload{
	{
		Name:       "direct-mix",
		HostScaled: true,
		// One client: with two, concurrent jobs' scheduler goroutines
		// contend for the cores, and on a 2-core host the run-to-run
		// spread of every timing roughly doubled (IQR/median over five
		// seeds 0.11-0.22 against 0.06-0.08), while fingerprint
		// divergence showed alike.
		Clients:   1,
		PollEvery: time.Millisecond,
		Plans:     directMixPlans,
		Warm: func(r *rand.Rand) []server.JobSpec {
			var out []server.JobSpec
			for _, c := range directCombos {
				out = append(out, server.JobSpec{Algorithm: "cholesky", Scheduler: c[0], Policy: c[1], NT: 6,
					Workers: 4, Seed: seedOf(r), Model: model(), NoCache: true, Trace: boolp(false)})
			}
			return out
		},
	},
	{
		Name:       "replay-hot",
		HostScaled: true,
		Clients:    2,
		PollEvery:  time.Millisecond,
		Plans:      replayHotPlans,
		Warm: func(r *rand.Rand) []server.JobSpec {
			var out []server.JobSpec
			for _, k := range hotKeys {
				out = append(out, server.JobSpec{Algorithm: k.alg, Scheduler: k.sched, NT: k.nt,
					Workers: 4, Seed: seedOf(r), Model: model(), Trace: boolp(false)})
			}
			return out
		},
	},
	{
		Name:       "capture-churn",
		HostScaled: true,
		Clients:    2,
		DataDir:    true,
		CacheCap:   churnCacheCap,
		PollEvery:  time.Millisecond,
		Plans:      captureChurnPlans,
		Cycle:      churnKeys,
		Warm: func(r *rand.Rand) []server.JobSpec {
			// The next key above the churn set: it warms the capture, frame
			// and journal code without touching the keys the timed phase
			// uses.
			return []server.JobSpec{{Algorithm: "qr", Scheduler: "quark", NT: 30,
				Workers: 4, Seed: seedOf(r), Model: model(), Trace: boolp(false)}}
		},
	},
	{
		Name: "sweep-fanout",
		// Not host-scaled: a sweep's latency is simcoord's 250 ms tracker
		// tick, a wall-clock wait that a slower host does not stretch.
		Clients:   2,
		Cluster:   true,
		PollEvery: 20 * time.Millisecond,
		Plans:     sweepFanoutPlans,
		Warm: func(r *rand.Rand) []server.JobSpec {
			return []server.JobSpec{{Kind: "sweep", Algorithm: "cholesky", Scheduler: "quark", MaxNT: 4,
				Workers: 8, Reps: 2, Seed: seedOf(r), Model: model()}}
		},
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// directCombos are the scheduler/policy pairs of direct-mix: QUARK,
// StarPU eager, StarPU dm and OmpSs.
var directCombos = [][2]string{{"quark", ""}, {"starpu", ""}, {"starpu", "dm"}, {"ompss", ""}}

// directNTs are the tile counts of direct-mix. Every combo and algorithm
// runs each of them, so the seed changes job seeds and order but never the
// amount of work.
var directNTs = []int{8, 12, 16}

// directMixPlans: every combo × cholesky/qr/lu × directNTs, each spec sent
// twice so divergent fingerprints show within an epoch.
func directMixPlans(r *rand.Rand) []plan {
	var specs []server.JobSpec
	for _, c := range directCombos {
		for _, alg := range []string{"cholesky", "qr", "lu"} {
			for _, nt := range directNTs {
				specs = append(specs, server.JobSpec{Algorithm: alg, Scheduler: c[0], Policy: c[1],
					NT: nt, Workers: 4, Seed: seedOf(r), Model: model(),
					NoCache: true, Trace: boolp(false)})
			}
		}
	}
	var out []plan
	for n := 0; n < 2; n++ {
		for _, s := range specs {
			out = append(out, plan{Spec: s})
		}
	}
	return out
}

type hotKey struct {
	alg, sched string
	nt         int
}

// hotKeys is replay-hot's working set: it fits the default cache.
var hotKeys = []hotKey{
	{"cholesky", "quark", 20}, {"cholesky", "quark", 40}, {"qr", "quark", 16}, {"qr", "quark", 24},
	{"cholesky", "ompss", 20}, {"cholesky", "ompss", 40}, {"qr", "ompss", 16}, {"qr", "ompss", 24},
}

// replayHotPlans: 16 jobs per key, reps 1 or 4, half keeping and fetching
// their trace.
func replayHotPlans(r *rand.Rand) []plan {
	var out []plan
	for _, k := range hotKeys {
		for j := 0; j < 16; j++ {
			reps := 1
			if j%2 == 1 {
				reps = 4
			}
			keep := (j/2)%2 == 0
			out = append(out, plan{Spec: server.JobSpec{Algorithm: k.alg, Scheduler: k.sched, NT: k.nt,
				Workers: 4, Seed: seedOf(r), Reps: reps, Model: model(), Trace: boolp(keep)}, Fetch: keep})
		}
	}
	return out
}

// capture-churn cycles churnKeys keys through a per-tenant cache of
// churnCacheCap in one order per epoch, so each key's reuse distance
// (churnKeys-1) exceeds the capacity plus the two jobs in flight and every
// job misses memory.
const (
	churnKeys     = 20
	churnCacheCap = 8
	churnPasses   = 3
)

// captureChurnPlans: qr NT 10..29, three passes: the first pass captures,
// the later ones hit disk.
func captureChurnPlans(r *rand.Rand) []plan {
	var out []plan
	for pass := 0; pass < churnPasses; pass++ {
		for i := 0; i < churnKeys; i++ {
			out = append(out, plan{Spec: server.JobSpec{Algorithm: "qr", Scheduler: "quark", NT: 10 + i,
				Workers: 4, Seed: seedOf(r), Model: model(), Trace: boolp(false)}})
		}
	}
	return out
}

// sweepFanoutPlans: cholesky/qr × quark/ompss, two seeds each; max_nt 16,
// 8 reps on 8 virtual cores.
func sweepFanoutPlans(r *rand.Rand) []plan {
	var out []plan
	for _, alg := range []string{"cholesky", "qr"} {
		for _, sched := range []string{"quark", "ompss"} {
			for k := 0; k < 2; k++ {
				out = append(out, plan{Spec: server.JobSpec{Kind: "sweep", Algorithm: alg, Scheduler: sched,
					MaxNT: 16, Workers: 8, Reps: 8, Seed: seedOf(r), Model: model()}})
			}
		}
	}
	return out
}

// epochOrder returns the order in which one epoch sends n plans: a fresh
// permutation per epoch, so a run averages over many pairings of
// concurrent jobs instead of measuring one. With cycle > 0 the plans are
// passes over cycle keys, and one permutation orders every pass alike.
func epochOrder(n, cycle int, r *rand.Rand) []int {
	if cycle <= 0 {
		cycle = n
	}
	perm := r.Perm(cycle)
	out := make([]int, 0, n)
	for base := 0; base < n; base += cycle {
		for _, i := range perm {
			out = append(out, base+i)
		}
	}
	return out
}
