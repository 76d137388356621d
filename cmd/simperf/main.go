// Command simperf regenerates the paper's Figs. 8-10: for each scheduler
// (OmpSs = Fig. 8, StarPU = Fig. 9, QUARK = Fig. 10) it sweeps matrix
// sizes for the QR and Cholesky factorizations, runs each point for real
// (measured mode) and in simulation (calibrated duration models), and
// prints the real GFLOP/s, simulated GFLOP/s and percentage error series.
//
// The paper sweeps at tile size 200 on 48 cores; defaults here are scaled
// for pure-Go kernels. The claim to verify: errors of a few percent, worst
// at the smallest sizes.
//
// Usage:
//
//	simperf                          # all three schedulers, both algorithms
//	simperf -sched quark -alg qr     # one panel
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"supersim/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simperf: ")
	var (
		schedFlag = flag.String("sched", "", "scheduler (quark, starpu, ompss); empty = all")
		algFlag   = flag.String("alg", "", "algorithm (qr, cholesky); empty = both")
		nb        = flag.Int("nb", 200, "tile size (paper: 200)")
		maxNT     = flag.Int("maxnt", 8, "largest matrix size in tiles")
		workers   = flag.Int("workers", 8, "virtual cores (paper: 48)")
		seed      = flag.Uint64("seed", 42, "workload seed")
	)
	flag.Parse()

	schedulers := bench.Schedulers
	if *schedFlag != "" {
		schedulers = []string{*schedFlag}
	}
	algorithms := []string{"qr", "cholesky"}
	if *algFlag != "" {
		algorithms = []string{*algFlag}
	}
	for _, sc := range schedulers {
		for _, alg := range algorithms {
			res, err := bench.PerfSweep(sc, alg, *nb, *maxNT, *workers, *seed)
			if err != nil {
				log.Fatal(err)
			}
			if err := bench.WritePerfSweep(os.Stdout, res); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	}
}
