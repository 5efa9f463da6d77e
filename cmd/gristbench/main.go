// Command gristbench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index) and takes
// the observability reading:
//
//	gristbench -exp <name>|all        (gristbench -help lists the names)
//
// Fast experiments (tables, fig2, fig9-fig11) print immediately; fig7 and
// fig8 run real model integrations and take a few minutes. No experiment
// issues a verdict: the tests hold every one (DESIGN.md "Verdicts").
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gristgo/internal/experiments"
	"gristgo/internal/telemetry"
)

func main() {
	fast := flag.Bool("fast", false, "skip the slow model-integration experiments (fig7, fig8) under -exp all")
	csvDir := flag.String("csv", "", "also write plot-ready CSV files for figs 2/9/10/11 into this directory")
	benchDir := flag.String("bench-out", ".", "directory for the obs experiment's JSON readings (BENCH_obs*.json)")
	logFormat := flag.String("log.format", "text", "structured log format: text or json")

	run := func(name string, f func()) {
		fmt.Printf("=== %s ===\n", name)
		start := time.Now()
		f()
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}
	printRows := func(rows []string) {
		for _, r := range rows {
			fmt.Println(r)
		}
	}

	// The experiment table is the only list of names: the -exp usage and
	// the unknown-name error are both generated from its keys.
	table := map[string]func(){
		"table1": func() { printRows(experiments.Table1Rows()) },
		"table2": func() { printRows(experiments.Table2Rows(6)) },
		"table3": func() { printRows(experiments.Table3Rows()) },
		"fig2":   func() { printRows(experiments.Fig2Rows()) },
		"fig7": func() {
			printRows(experiments.RunFig7(experiments.DefaultFig7Config()).Rows())
		},
		"fig8": func() {
			printRows(experiments.RunFig8(experiments.DefaultFig8Config()).Rows())
		},
		"fig9":  func() { printRows(experiments.RunFig9(4, 16).Rows()) },
		"fig10": func() { printRows(experiments.Fig10Rows()) },
		"fig11": func() { printRows(experiments.Fig11Rows()) },
		"obs": func() {
			res, err := experiments.WriteObsBench(*benchDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "obs bench:", err)
				os.Exit(1)
			}
			printRows(res.Rows())
			fmt.Printf("Wrote BENCH_obs.json, BENCH_obs_postmortem.json and BENCH_obs_trace.json to %s\n", *benchDir)
		},
	}

	names := make([]string, 0, len(table)+1)
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	known := strings.Join(append(names, "all"), ", ")
	exp := flag.String("exp", "all", "experiment to run: "+known)
	flag.Parse()

	if err := telemetry.SetDefaultLogger(*logFormat, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// The obs experiment writes its readings at the end of its run:
	// create the directory first, or fail before any experiment starts.
	if err := os.MkdirAll(*benchDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "gristbench: cannot create -bench-out %q: %v\n", *benchDir, err)
		os.Exit(2)
	}

	if *csvDir != "" {
		if err := experiments.WriteScalingCSV(*csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "csv export:", err)
			os.Exit(1)
		}
		fmt.Printf("Wrote fig2/fig9/fig10/fig11 CSV files to %s\n", *csvDir)
	}

	if *exp == "all" {
		order := []string{"table1", "table2", "table3", "fig2", "fig9", "fig10", "fig11"}
		if !*fast {
			order = append(order, "fig7", "fig8")
		}
		for _, name := range order {
			run(name, table[name])
		}
		return
	}
	f, ok := table[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", *exp, known)
		os.Exit(2)
	}
	run(*exp, f)
}
