// Command gdfdump inspects a GDF history file written by cmd/grist:
// header mode lists dimensions and variables; -var prints statistics or
// values of one variable.
//
//	gdfdump history.gdf
//	gdfdump -var ps history.gdf
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"

	"gristgo/internal/durable"
	"gristgo/internal/gdf"
	"gristgo/internal/vfs"
)

func main() {
	varName := flag.String("var", "", "print statistics of this variable")
	values := flag.Bool("values", false, "with -var: dump raw values")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gdfdump [-var NAME [-values]] FILE")
		os.Exit(2)
	}
	payload, err := durable.ReadFile(vfs.OS, flag.Arg(0), durable.History)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := gdf.Read(bytes.NewReader(payload))
	if err != nil {
		fmt.Fprintln(os.Stderr, "parsing:", err)
		os.Exit(1)
	}

	if *varName == "" {
		fmt.Println("dimensions:")
		for _, d := range f.Dims {
			fmt.Printf("  %-12s %d\n", d.Name, d.Size)
		}
		fmt.Println("variables:")
		for _, v := range f.Vars {
			fmt.Printf("  %-12s %v  %s (%s)\n", v.Name, v.Dims,
				v.Attrs["long_name"], v.Attrs["units"])
		}
		return
	}

	v := f.Var(*varName)
	if v == nil {
		fmt.Fprintf(os.Stderr, "no variable %q\n", *varName)
		os.Exit(1)
	}
	if *values {
		for _, x := range v.Data {
			fmt.Println(x)
		}
		return
	}
	lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, x := range v.Data {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		sum += x
	}
	fmt.Printf("%s (%s): n=%d min=%.6g mean=%.6g max=%.6g\n",
		v.Name, v.Attrs["units"], len(v.Data), lo, sum/float64(len(v.Data)), hi)
}
