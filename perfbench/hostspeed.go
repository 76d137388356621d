package main

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Host speed. The benchmark shares its cores with other tenants, and
// their load changes how fast every instruction runs — shared caches,
// memory bandwidth, SMT siblings, clock frequency — by up to a quarter,
// in spells of seconds to minutes. Longer runs do not average that out,
// and the process's CPU time stretches with it, so the benchmark measures
// it instead: a fixed reference kernel that uses none of the repository's
// code is timed on every core before the first epoch and after each one.
// An epoch's slowdown is the mean of the timings on either side of it
// over refKernelMS, and the end-to-end timings of a host-scaled workload
// are divided by it (rates multiplied): they read as if the host had run
// at nominal speed throughout. The raw figures and the slowdown are
// printed beside them and kept in the result file.

// refKernelMS is the nominal time of one round of the reference kernel,
// one copy per P: about its median on a 2-core x86-64 host at Go 1.24.
// It only sets the scale of the host-scaled figures.
const refKernelMS = 4.3

// refRounds is how many rounds one host-speed reading times; it takes
// the median.
const refRounds = 5

// refNodes sizes the kernel's graph.
const refNodes = 6000

// refFreshBytes is the fresh memory a round maps and touches, one write
// per page: the page faults and zeroing that a growing heap costs.
const refFreshBytes = 4 << 20

// refState is one copy of the kernel's memory. It is allocated and
// touched before the timing starts, and a round allocates nothing from
// the Go heap (it maps its fresh memory from the operating system and
// unmaps it again), so a reading depends neither on the program's heap
// nor on its collector.
type refState struct {
	names  []string
	w      []float64
	succ   [][]int32 // each with room for 4
	byName map[string]int32
	finish []float64
	order  []int32
}

func newRefState() (*refState, error) {
	st := &refState{
		names:  make([]string, refNodes),
		w:      make([]float64, refNodes),
		succ:   make([][]int32, refNodes),
		byName: make(map[string]int32, refNodes),
		finish: make([]float64, refNodes),
		order:  make([]int32, refNodes),
	}
	for i := range st.names {
		st.names[i] = "t" + strconv.Itoa(i)
		st.succ[i] = make([]int32, 0, 4)
	}
	_, err := st.round()
	return st, err
}

// round maps and touches refFreshBytes of fresh memory, then builds a
// random layered graph through a string-keyed map, computes its longest
// paths and sorts the nodes by finish time: the map-, pointer- and
// sort-heavy mix the simulator itself runs. It is deterministic and
// returns the median node.
func (st *refState) round() (int32, error) {
	fresh, err := syscall.Mmap(-1, 0, refFreshBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("reference kernel: mmap: %w", err)
	}
	for i := 0; i < len(fresh); i += refPage {
		fresh[i] = 1
	}
	if err := syscall.Munmap(fresh); err != nil {
		return 0, fmt.Errorf("reference kernel: munmap: %w", err)
	}

	clear(st.byName)
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i, name := range st.names {
		st.w[i] = float64(next()%1000) / 7
		st.byName[name] = int32(i)
		st.succ[i] = st.succ[i][:0]
	}
	for i := range st.succ {
		for k := 0; k < 4 && i+1 < refNodes; k++ {
			j := i + 1 + int(next()%uint64(min(64, refNodes-i-1)))
			st.succ[i] = append(st.succ[i], st.byName[st.names[j]])
		}
	}
	clear(st.finish)
	for i, succ := range st.succ {
		for _, s := range succ {
			if f := st.finish[i] + st.w[i]; f > st.finish[s] {
				st.finish[s] = f
			}
		}
	}
	for i := range st.order {
		st.order[i] = int32(i)
	}
	slices.SortStableFunc(st.order, func(a, b int32) int { return cmp.Compare(st.finish[a], st.finish[b]) })
	return st.order[refNodes/2], nil
}

// refPage is the page size the fresh memory is touched at.
var refPage = os.Getpagesize()

// kernelMS times refRounds rounds of the reference kernel, each running
// one copy per P at once, and returns the median round's wall time in ms.
// It collects the program's garbage first, so no collection runs beside
// the kernel.
func kernelMS() (float64, error) {
	states := make([]*refState, runtime.GOMAXPROCS(0))
	for i := range states {
		var err error
		if states[i], err = newRefState(); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	rounds := make([]float64, 0, refRounds)
	errs := make([]error, len(states))
	for r := 0; r < refRounds; r++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for i, st := range states {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = st.round()
			}()
		}
		wg.Wait()
		rounds = append(rounds, ms(time.Since(t0)))
		if err := errors.Join(errs...); err != nil {
			return 0, err
		}
	}
	return median(rounds), nil
}

// slowdown is how much slower than nominal the host ran across an epoch
// whose neighbouring kernel readings are before and after.
func slowdown(before, after float64) float64 {
	return (before + after) / 2 / refKernelMS
}
