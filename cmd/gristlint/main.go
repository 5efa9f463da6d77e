// Command gristlint is the multichecker of the repo's domain analyzers:
//
//	precisioncheck  §3.4 mixed-precision discipline (Real kernels, FP64 pins)
//	hotpathalloc    allocation-free //grist:hotpath steady state (cross-package facts)
//	sendownership   no buffer reuse while a comm round owns it
//	determinism     bitwise-reproducible //grist:bitwise paths (cross-package facts)
//	locksafety      no blocking calls while a sync mutex is held
//
// Usage:
//
//	gristlint [-only name[,name]] [-format text|json] [-o file]
//	          [-baseline file] [-write-baseline file] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// Findings are suppressible per line with `//lint:ignore analyzer reason`
// (the reason is mandatory). -baseline enforces the suppression budget:
// the run fails if the tree holds more //lint:ignore directives per
// analyzer than the baseline records, so suppressions ratchet down, not
// up. -write-baseline records the current counts. -format json emits a
// flat array of findings ([] when clean) for scripts and CI.
// Exit status 1 when any diagnostic or budget violation survives.
//
// The loader type-checks the module and its stdlib imports from source,
// so gristlint needs no module cache and no network; the framework in
// internal/lint is stdlib-only.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gristgo/internal/lint"
	"gristgo/internal/lint/determinism"
	"gristgo/internal/lint/hotpathalloc"
	"gristgo/internal/lint/locksafety"
	"gristgo/internal/lint/precisioncheck"
	"gristgo/internal/lint/sendownership"
)

var analyzers = []*lint.Analyzer{
	precisioncheck.Analyzer,
	hotpathalloc.Analyzer,
	sendownership.Analyzer,
	determinism.Analyzer,
	locksafety.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", "text", "output format: text or json")
	out := flag.String("o", "", "write output to file (default stdout)")
	baseline := flag.String("baseline", "", "enforce the //lint:ignore suppression budget recorded in this file")
	writeBaseline := flag.String("write-baseline", "", "record current //lint:ignore counts to this file and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	active := analyzers
	if *only != "" {
		names := make(map[string]bool)
		for _, n := range strings.Split(*only, ",") {
			names[strings.TrimSpace(n)] = true
		}
		active = nil
		for _, a := range analyzers {
			if names[a.Name] {
				active = append(active, a)
				delete(names, a.Name)
			}
		}
		for n := range names {
			fmt.Fprintf(os.Stderr, "gristlint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	if *writeBaseline != "" {
		counts := lint.CountIgnores(pkgs)
		if err := lint.WriteBaseline(*writeBaseline, counts); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gristlint: baseline recorded to %s\n", *writeBaseline)
		return
	}

	diags, err := lint.Run(pkgs, active)
	if err != nil {
		fatal(err)
	}

	failed := len(diags) > 0
	if *baseline != "" {
		b, err := lint.ReadBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		violations, notes := b.Check(lint.CountIgnores(pkgs))
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "gristlint: note:", n)
		}
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "gristlint:", v)
		}
		if len(violations) > 0 {
			failed = true
		}
	}

	var rendered []byte
	switch *format {
	case "text":
		var sb strings.Builder
		for _, d := range diags {
			pos := d.Position(loader.Fset())
			fmt.Fprintf(&sb, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
		}
		rendered = []byte(sb.String())
	case "json":
		rendered, err = lint.EncodeJSON(diags, loader.Fset(), loader.ModuleRoot())
		if err == nil {
			rendered = append(rendered, '\n')
		}
	default:
		fmt.Fprintf(os.Stderr, "gristlint: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		if err := os.WriteFile(*out, rendered, 0o644); err != nil {
			fatal(err)
		}
	} else {
		os.Stdout.Write(rendered)
	}

	if failed {
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "gristlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gristlint:", err)
	os.Exit(2)
}
