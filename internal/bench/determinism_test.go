package bench

import (
	"fmt"
	"runtime"
	"testing"

	"supersim/internal/core"
	"supersim/internal/rng"
	"supersim/internal/sched"
)

// jitterModel draws each duration from the executing worker's stream, so
// a schedule that placed a task on another worker, or let workers draw in
// another order, shows up as different durations.
type jitterModel struct{}

func (jitterModel) Duration(_ string, _ sched.WorkerKind, src *rng.Source) float64 {
	return 1e-3 * (0.5 + src.Float64())
}

// TestSimulatedScheduleDeterministic runs every scheduler and StarPU policy
// on every algorithm — plus QUARK with a small task window and with gang
// panel kernels — at GOMAXPROCS 1, 2 and 4, and requires one trace
// fingerprint — every event's worker, start and end — across repeated
// runs. Equal fixed durations are the hardest case: every completion
// ties with others, so any host-order dependence in dispatch or in the
// Task Execution Queue changes the schedule.
func TestSimulatedScheduleDeterministic(t *testing.T) {
	type runtimeCase struct {
		sched, policy string
		window, gang  int
	}
	runtimes := []runtimeCase{
		{sched: "quark"}, {sched: "ompss"},
		{sched: "starpu", policy: "eager"}, {sched: "starpu", policy: "prio"},
		{sched: "starpu", policy: "ws"}, {sched: "starpu", policy: "dm"},
		{sched: "quark", window: 6}, {sched: "quark", gang: 2},
	}
	models := map[string]core.DurationModel{"fixed": core.FixedModel(1e-3), "jitter": jitterModel{}}
	const reps = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, rc := range runtimes {
		for _, alg := range []string{"cholesky", "qr", "lu"} {
			for name, model := range models {
				spec := Spec{Algorithm: alg, Scheduler: rc.sched, Policy: rc.policy, Window: rc.window,
					GangPanels: rc.gang, NT: 5, NB: 4, Workers: 4, Seed: 3}
				label := fmt.Sprintf("%+v/%s/%s", rc, alg, name)
				var want uint64
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					for rep := 0; rep < reps; rep++ {
						res, err := Simulated(spec, model)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						fp := res.Trace.Fingerprint()
						if procs == 1 && rep == 0 {
							want = fp
						} else if fp != want {
							t.Fatalf("%s: GOMAXPROCS=%d rep %d fingerprint %#x, first run %#x",
								label, procs, rep, fp, want)
						}
					}
				}
			}
		}
	}
}
