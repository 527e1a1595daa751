// Command tracedump extracts the reference trace of a benchmark (or a
// compiled .loc source) and either writes it in the compact binary trace
// format or prints its locality summary — the per-MC histogram and
// stride profile that explain how mappable a program is.
//
// Usage:
//
//	tracedump -app moldyn                 # locality summary to stdout
//	tracedump -app swim -o swim.trc       # binary trace to a file
//	tracedump -src kernel.loc -param N=65536
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"locmap/internal/compiler"
	"locmap/internal/loop"
	"locmap/internal/sim"
	"locmap/internal/trace"
	"locmap/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
}

func run() error {
	app := flag.String("app", "", "benchmark name (see simnoc -list)")
	src := flag.String("src", "", "compile a .loc source instead")
	out := flag.String("o", "", "write the binary trace here instead of summarizing")
	params := flag.String("param", "", "comma-separated NAME=VALUE parameters for -src")
	scale := flag.Int("scale", 1, "benchmark input scale")
	flag.Parse()

	var p *loop.Program
	switch {
	case *app != "" && *src != "":
		return fmt.Errorf("pass -app or -src, not both")
	case *app != "":
		var err error
		p, err = workloads.New(*app, *scale)
		if err != nil {
			return err
		}
	case *src != "":
		text, err := os.ReadFile(*src)
		if err != nil {
			return err
		}
		pm := map[string]int64{}
		if *params != "" {
			for _, kv := range strings.Split(*params, ",") {
				name, val, ok := strings.Cut(kv, "=")
				if !ok {
					return fmt.Errorf("bad -param entry %q", kv)
				}
				v, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return err
				}
				pm[name] = v
			}
		}
		res, err := compiler.CompileBound(string(text), compiler.Options{Params: pm})
		if err != nil {
			return err
		}
		p = res.Program
	default:
		return fmt.Errorf("pass -app NAME or -src FILE")
	}

	if *out == "" {
		fmt.Printf("%s:\n%s", p.Name, trace.Summarize(p, sim.AddrMapFor(sim.DefaultConfig())))
		return nil
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	trace.Extract(p, w.Add)
	n, err := w.Close()
	if err != nil {
		return err
	}
	info, _ := f.Stat()
	fmt.Printf("wrote %d records (%d bytes) to %s\n", n, info.Size(), *out)
	return nil
}
