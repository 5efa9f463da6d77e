// Command gristbench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index) and runs
// the chaos and observability experiments that issue a verdict:
//
//	gristbench -exp <name>|all        (gristbench -help lists the names)
//
// Fast experiments (tables, fig2, fig9-fig11) print immediately; fig7 and
// fig8 run real model integrations and take a few minutes.
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
	benchDir := flag.String("bench-out", ".", "directory for the chaos/obs experiments' JSON artifacts")
	faultSeed := flag.Int64("fault.seed", 7, "chaos experiment: fault-injection seed")
	check := flag.Bool("check", false, "compare the BENCH_*.json artifacts in -bench-out against -baseline and exit nonzero on drift")
	baseline := flag.String("baseline", "bench.baseline.json", "per-metric tolerance file for -check")
	checkFiles := flag.String("check-files", "", "comma-separated artifact names: restrict -check to baseline entries on these files")
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
		"chaos": func() {
			cfg := experiments.DefaultChaosConfig()
			cfg.Seed = *faultSeed
			cfg.Dir = *benchDir
			res, err := experiments.WriteChaosConfig(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaos:", err)
				os.Exit(1)
			}
			printRows(res.Rows())
			fmt.Printf("Wrote CHAOS_recovery.json and CHAOS_sentinels.json to %s\n", *benchDir)
		},
		"chaosserve": func() {
			cfg := experiments.DefaultChaosServeConfig()
			cfg.Seed = *faultSeed
			cfg.Dir = *benchDir
			res, err := experiments.WriteChaosServeConfig(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaosserve:", err)
				os.Exit(1)
			}
			printRows(res.Rows())
			fmt.Printf("Wrote CHAOS_serve.json to %s\n", *benchDir)
		},
		"elastic": func() {
			cfg := experiments.DefaultElasticConfig()
			cfg.Seed = *faultSeed
			cfg.Dir = *benchDir
			res, err := experiments.WriteElasticConfig(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "elastic:", err)
				os.Exit(1)
			}
			printRows(res.Rows())
			fmt.Printf("Wrote CHAOS_elastic.json to %s\n", *benchDir)
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

	if *check {
		var files []string
		if *checkFiles != "" {
			files = strings.Split(*checkFiles, ",")
		}
		rows, ok, err := experiments.CheckBench(*benchDir, *baseline, files...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench check:", err)
			os.Exit(1)
		}
		for _, r := range rows {
			fmt.Println(r)
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "bench check: drift against", *baseline)
			os.Exit(1)
		}
		fmt.Printf("bench check: %d metrics within %s\n", len(rows), *baseline)
		return
	}

	// The experiments write their artifacts at the end of a run that can
	// take minutes: create the directory first, or fail before any starts.
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
