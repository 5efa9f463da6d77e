// Command gristlint is the multichecker of the repo's two domain
// analyzers:
//
//	precisioncheck  §3.4 mixed-precision discipline (Real kernels, FP64 pins)
//	locksafety      no blocking calls while a sync mutex is held
//
// Usage:
//
//	gristlint [-only name[,name]] [-format text|json] [-o file] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// Nothing suppresses a finding: fix it. -format json emits a flat array
// of findings ([] when clean) for scripts and CI. Exit status 1 when
// there is any finding.
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
	"gristgo/internal/lint/locksafety"
	"gristgo/internal/lint/precisioncheck"
)

var analyzers = []*lint.Analyzer{
	precisioncheck.Analyzer,
	locksafety.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", "text", "output format: text or json")
	out := flag.String("o", "", "write output to file (default stdout)")
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

	diags, err := lint.Run(pkgs, active)
	if err != nil {
		fatal(err)
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

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gristlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gristlint:", err)
	os.Exit(2)
}
