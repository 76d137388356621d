package server

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"supersim/internal/fault"
	"supersim/internal/rng"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// stallSpec is a job whose every task stalls the executing worker for the
// given wall time: the standard way these tests pin a pool slot while
// more jobs queue behind it.
func stallSpec(stall time.Duration) JobSpec {
	return JobSpec{
		Algorithm: "cholesky", NT: 2, NB: 8, Workers: 1,
		Fault: &fault.Config{Default: fault.Rates{Stall: 1}, StallWall: stall},
	}
}

// crashChildEnv, when set, turns the test binary into the crash-test
// workload generator: a process that opens a durable server on the given
// data dir, submits jobs, prints "acked <id> <specIndex>" after each
// acknowledged Submit, and then idles until the parent SIGKILLs it.
const crashChildEnv = "SUPERSIM_CRASH_CHILD_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChildMain(dir)
		return
	}
	os.Exit(m.Run())
}

// crashSpecs is the deterministic workload the crash child submits: a mix
// of cached simulate jobs, multi-rep jobs, direct-path jobs and a sweep,
// all small enough to finish quickly on recovery.
func crashSpecs() []JobSpec {
	f := false
	return []JobSpec{
		{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 1},
		{Algorithm: "qr", NT: 3, NB: 8, Workers: 2, Seed: 2, Reps: 2},
		{Algorithm: "lu", NT: 4, NB: 8, Workers: 4, Seed: 3},
		{Algorithm: "cholesky", NT: 5, NB: 8, Workers: 4, Seed: 4, NoCache: true, Trace: &f},
		{Kind: "sweep", Algorithm: "cholesky", MaxNT: 4, NB: 8, Workers: 2, Seed: 5},
		{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 6},
		{Algorithm: "qr", NT: 4, NB: 8, Workers: 4, Seed: 7},
		{Algorithm: "lu", NT: 3, NB: 8, Workers: 2, Seed: 8, Reps: 3},
	}
}

func crashChildMain(dir string) {
	srv, err := New(Config{Pool: 2, DataDir: dir})
	if err != nil {
		fmt.Printf("child-error New: %v\n", err)
		os.Exit(1)
	}
	for i, spec := range crashSpecs() {
		job, err := srv.Submit(spec)
		if err != nil {
			fmt.Printf("child-error submit %d: %v\n", i, err)
			os.Exit(1)
		}
		// Submit returned, so the accept record is fsynced: this line is
		// the child's durable-acknowledgement receipt.
		fmt.Printf("acked %s %d\n", job.ID, i)
		// Stagger the load so randomized kill points land mid-submission
		// as well as mid-execution.
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("all-submitted")
	// Idle until SIGKILL; jobs keep running meanwhile, so the kill lands
	// at an arbitrary point of the load: some jobs finished, some
	// in flight, some queued.
	select {} //nolint — terminated by the parent's SIGKILL
}

// referenceFingerprints runs every crash spec on a fresh in-memory server
// and returns spec index → fingerprint: the ground truth a recovered
// re-run must reproduce.
func referenceFingerprints(t *testing.T) map[int]string {
	t.Helper()
	srv := newTestServer(t, Config{Pool: 2})
	ref := make(map[int]string)
	for i, spec := range crashSpecs() {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
		if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
			t.Fatalf("reference job %d finished %q: %s", i, st, job.view().Error)
		}
		fp := job.view().Result.Fingerprint
		if fp == "" {
			t.Fatalf("reference job %d has no fingerprint", i)
		}
		ref[i] = fp
	}
	return ref
}

// TestCrashRecoveryExactlyOnce is the SIGKILL property test pinning the
// PR's durability criterion: a child process submits the workload against
// a journaled store and is SIGKILLed at a randomized point mid-load; a
// recovered server on the same data dir must finish every acknowledged
// job exactly once with a fingerprint identical to a reference run.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceFingerprints(t)
	// The kill point is randomized per round (seeded from the wall clock,
	// logged for reproduction): early kills land mid-submission, late
	// kills land with most jobs finished.
	seed := uint64(time.Now().UnixNano()) //simlint:allow vclock — property-test seed
	t.Logf("kill-point seed %d", seed)
	r := rng.New(seed)

	for round := 0; round < 3; round++ {
		dir := t.TempDir()
		delay := time.Duration(r.Intn(120)) * time.Millisecond

		cmd := exec.Command(exe, "-test.run=TestMain")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}

		// Collect acknowledgement receipts until the kill fires.
		type ack struct {
			id   string
			spec int
		}
		acksCh := make(chan ack, 64)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				var a ack
				if n, _ := fmt.Sscanf(sc.Text(), "acked %s %d", &a.id, &a.spec); n == 2 {
					acksCh <- a
				}
			}
			close(acksCh)
		}()

		time.Sleep(delay)
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("round %d: kill: %v", round, err)
		}
		_ = cmd.Wait()
		var acked []ack
		for a := range acksCh { // drained: the pipe closed with the process
			acked = append(acked, a)
		}
		t.Logf("round %d: killed after %v with %d acked jobs", round, delay, len(acked))

		// Recover on the same data dir and let every job finish.
		srv, err := New(Config{Pool: 2, DataDir: dir})
		if err != nil {
			t.Fatalf("round %d: recovery New: %v", round, err)
		}
		for _, a := range acked {
			job, ok := srv.Job(a.id)
			if !ok {
				t.Fatalf("round %d: acked job %s lost by recovery", round, a.id)
			}
			if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
				t.Errorf("round %d: job %s finished %q: %s", round, a.id, st, job.view().Error)
				continue
			}
			if fp := job.view().Result.Fingerprint; fp != ref[a.spec] {
				t.Errorf("round %d: job %s (spec %d) recovered with fingerprint %s, reference %s",
					round, a.id, a.spec, fp, ref[a.spec])
			}
		}
		// Exactly once: each acked ID appears once in the recovered set —
		// no duplicate resurrection of a job that already finished.
		seen := map[string]int{}
		for _, j := range srv.Jobs() {
			seen[j.ID]++
		}
		for _, a := range acked {
			if seen[a.id] != 1 {
				t.Errorf("round %d: job %s recovered %d times, want exactly once", round, a.id, seen[a.id])
			}
		}
		shutdownNow(t, srv)
	}
}

func shutdownNow(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := contextWithTimeout(30 * time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDrainRequeuesIntoJournal pins the SIGTERM/SIGKILL convergence
// satellite: a graceful drain journals still-queued jobs as requeued, and
// the next boot re-runs them exactly as it would after a crash.
func TestDrainRequeuesIntoJournal(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Pool: 1, QueueDepth: 8, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only pool slot so the next submissions stay queued.
	occupant := submitStallJob(t, srv, 40*time.Millisecond)
	waitStatus(t, occupant, StatusRunning, 5*time.Second)
	q1, err := srv.Submit(JobSpec{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := srv.Submit(JobSpec{Algorithm: "qr", NT: 3, NB: 8, Workers: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	shutdownNow(t, srv)
	if st := q1.Status(); st != StatusRequeued {
		t.Fatalf("drained job %s status %q, want requeued", q1.ID, st)
	}
	if st := occupant.Status(); st != StatusDone {
		t.Fatalf("in-flight job finished %q, want done", st)
	}

	// A journal written before the parallelism field was removed may hold
	// an acknowledged job and a cron template that set it. Recovery must
	// fail the job with the admission error, and the template's firings
	// must be refused: neither may run on the remaining executor.
	legacy := JobSpec{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 12, Parallelism: 2}
	st, _, err := openStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	legacyJob := &Job{ID: "j-000100", Spec: legacy}
	if err := st.accept(legacyJob); err != nil {
		t.Fatal(err)
	}
	if err := st.cron(CronSpec{ID: "c-000100", EveryMS: 10, Spec: legacy}, false); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{Pool: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, srv2)
	if requeued, restored := srv2.Recovered(); requeued != 2 || restored != 2 {
		t.Fatalf("recovery found %d requeued / %d restored, want 2 / 2", requeued, restored)
	}
	if job, ok := srv2.Job(legacyJob.ID); !ok {
		t.Fatalf("journaled job %s lost across restart", legacyJob.ID)
	} else if v := job.view(); v.Status != StatusFailed || !strings.Contains(v.Error, "DESIGN.md §12") || v.Result != nil {
		t.Fatalf("journaled parallelism job: status=%q error=%q result=%+v, want failed naming the removal",
			v.Status, v.Error, v.Result)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		crons := srv2.Crons()
		if len(crons) != 1 {
			t.Fatalf("recovered %d cron templates, want 1", len(crons))
		}
		if c := crons[0]; c.Fired != 0 {
			t.Fatalf("parallelism cron template fired %d jobs, want every firing refused", c.Fired)
		} else if c.Skipped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parallelism cron template never came due")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := srv2.RemoveCron("c-000100"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{q1.ID, q2.ID} {
		job, ok := srv2.Job(id)
		if !ok {
			t.Fatalf("drained job %s lost across restart", id)
		}
		if !job.view().Recovered {
			t.Errorf("job %s not marked recovered", id)
		}
		if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
			t.Errorf("recovered job %s finished %q: %s", id, st, job.view().Error)
		}
	}
	// A recovered server mints fresh IDs past the recovered ones.
	fresh, err := srv2.Submit(JobSpec{Algorithm: "cholesky", NT: 2, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == occupant.ID || fresh.ID == q1.ID || fresh.ID == q2.ID {
		t.Fatalf("recovered server re-minted ID %s", fresh.ID)
	}
}

// TestRestartRestoresFinishedJobs checks the quiet path: a clean
// shutdown's results (fingerprints included) survive into the next boot
// without re-running anything.
func TestRestartRestoresFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Pool: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(JobSpec{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
		t.Fatalf("job finished %q", st)
	}
	fp := job.view().Result.Fingerprint
	shutdownNow(t, srv)

	srv2, err := New(Config{Pool: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, srv2)
	got, ok := srv2.Job(job.ID)
	if !ok {
		t.Fatalf("finished job %s lost across restart", job.ID)
	}
	v := got.view()
	if v.Status != StatusDone || v.Result == nil || v.Result.Fingerprint != fp {
		t.Fatalf("restored job: status=%q result=%+v, want done with fingerprint %s", v.Status, v.Result, fp)
	}
	m := srv2.Metrics()
	if !m.Store.Durable || m.Store.Restored != 1 {
		t.Fatalf("store metrics after restore: %+v", m.Store)
	}
}

func submitStallJob(t *testing.T, srv *Server, stall time.Duration) *Job {
	t.Helper()
	job, err := srv.Submit(stallSpec(stall))
	if err != nil {
		t.Fatal(err)
	}
	return job
}
