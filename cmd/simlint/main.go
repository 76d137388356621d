// Command simlint runs the project's invariant analyzers (vclock,
// lockorder, guarded, wakeup, detrand, durable, hotalloc, detmap) over
// the given packages — a multichecker in the style of
// golang.org/x/tools/go/analysis, built on the dependency-free framework
// in internal/analysis.
//
// Usage:
//
//	go run ./cmd/simlint ./...            # whole repo (CI's static job)
//	go run ./cmd/simlint ./internal/core
//	go run ./cmd/simlint -analyzers       # list analyzers
//	go run ./cmd/simlint -json ./...      # machine-readable diagnostics
//	go run ./cmd/simlint -allowlist ./... # audit every //simlint:allow
//
// Exit status is 0 when every invariant holds, 1 when any diagnostic is
// reported (or, with -allowlist, when any allow directive lacks a
// justification), 2 on usage or load errors. Test files are not analyzed
// (wall clock and ad-hoc randomness are legitimate in tests).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"supersim/internal/analysis"
)

// jsonDiagnostic is the -json wire shape for one diagnostic.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonAllow is the -allowlist -json wire shape for one directive.
type jsonAllow struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Reason    string   `json:"reason,omitempty"`
}

func main() {
	list := flag.Bool("analyzers", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON (diagnostics, or allows with -allowlist)")
	allowlist := flag.Bool("allowlist", false,
		"audit //simlint:allow directives instead of running analyzers; exit 1 if any lacks a reason")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-analyzers] [-json] [-allowlist] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := analysis.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	if *allowlist {
		os.Exit(auditAllows(pkgs, *asJSON))
	}

	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d invariant violation(s)\n", len(diags))
		os.Exit(1)
	}
}

// auditAllows prints every //simlint:allow directive with its location
// and justification, and returns 1 if any directive is reasonless —
// policy (DESIGN.md §8): a suppression without a why is a review debt,
// and CI refuses it.
func auditAllows(pkgs []*analysis.Package, asJSON bool) int {
	allows := analysis.CollectAllows(pkgs)
	reasonless := 0
	if asJSON {
		out := make([]jsonAllow, 0, len(allows))
		for _, ad := range allows {
			out = append(out, jsonAllow{
				File:      ad.Pos.Filename,
				Line:      ad.Pos.Line,
				Analyzers: ad.Names,
				Reason:    ad.Reason,
			})
			if ad.Reason == "" {
				reasonless++
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			return 2
		}
	} else {
		for _, ad := range allows {
			reason := ad.Reason
			if reason == "" {
				reason = "(no reason given)"
				reasonless++
			}
			fmt.Printf("%s:%d: allow ", ad.Pos.Filename, ad.Pos.Line)
			for i, name := range ad.Names {
				if i > 0 {
					fmt.Print(",")
				}
				fmt.Print(name)
			}
			fmt.Printf(" — %s\n", reason)
		}
		fmt.Fprintf(os.Stderr, "simlint: %d allow directive(s), %d without a reason\n", len(allows), reasonless)
	}
	if reasonless > 0 {
		fmt.Fprintf(os.Stderr, "simlint: every //simlint:allow must state why the invariant is broken there\n")
		return 1
	}
	return 0
}
