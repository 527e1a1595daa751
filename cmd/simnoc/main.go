// Command simnoc runs one of the 21 paper benchmarks on the manycore
// simulator under a chosen mapping and prints the headline metrics.
//
// Usage:
//
//	simnoc -app moldyn -llc shared
//	simnoc -app swim -mapping oracle -scale 2
//	simnoc -list
//
// Flags:
//
//	-app NAME        benchmark name (see -list)
//	-llc private|shared
//	-mapping la|oracle   mapping to compare against the default
//	-scale N         input-size scale (1, 2, 4)
//	-ideal           also measure the zero-latency-network bound
//	-heatmap         print per-node NoC traffic of both measured runs
//	-list            print available benchmarks and exit
package main

import (
	"flag"
	"fmt"
	"os"

	"locmap/internal/cache"
	"locmap/internal/experiments"
	"locmap/internal/stats"
	"locmap/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simnoc:", err)
		os.Exit(1)
	}
}

func run() error {
	app := flag.String("app", "moldyn", "benchmark name")
	llc := flag.String("llc", "private", "LLC organization: private or shared")
	mapping := flag.String("mapping", "la", "mapping: la (CME/inspector) or oracle")
	scale := flag.Int("scale", 1, "input-size scale")
	ideal := flag.Bool("ideal", false, "also measure the ideal-network bound")
	heatmap := flag.Bool("heatmap", false, "print per-node NoC traffic heatmaps (default vs locmap)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		for _, name := range workloads.Names() {
			spec, _ := workloads.Lookup(name)
			class := "irregular"
			if spec.Regular {
				class = "regular  "
			}
			fmt.Printf("%-10s %s  %3d nests  %2d arrays\n", name, class, spec.Meta.LoopNests, spec.Meta.Arrays)
		}
		return nil
	}

	org := cache.Private
	switch *llc {
	case "private":
	case "shared":
		org = cache.SharedSNUCA
	default:
		return fmt.Errorf("unknown -llc %q", *llc)
	}
	if _, ok := workloads.Lookup(*app); !ok {
		return fmt.Errorf("unknown benchmark %q (try -list)", *app)
	}

	v := experiments.DefaultVariant(org)
	v.WithIdeal = *ideal
	switch *mapping {
	case "la":
	case "oracle":
		v.Oracle = true
	default:
		return fmt.Errorf("unknown -mapping %q", *mapping)
	}

	// The evaluation paperbench's app jobs run, plus the per-node
	// traffic of the two runs it reports, for -heatmap.
	m, traffic := experiments.RunAppTraffic(workloads.MustNew(*app, *scale), v)
	fmt.Printf("benchmark        %s (%s, scale %d, %s LLC, %s mapping)\n",
		m.Name, class(m.Regular), *scale, *llc, *mapping)
	fmt.Printf("default exec     %d cycles\n", m.DefCycles)
	fmt.Printf("locmap exec      %d cycles   (%.1f%% faster)\n", m.LACycles, m.ExecRed())
	fmt.Printf("net latency      %d -> %d cycles   (%.1f%% lower)\n", m.DefNet, m.LANet, m.NetRed())
	fmt.Printf("LLC miss rate    %.1f%%\n", 100*m.LLCMissRate)
	fmt.Printf("MAI error        %.3f\n", m.MAIErr)
	if org == cache.SharedSNUCA {
		fmt.Printf("CAI error        %.3f\n", m.CAIErr)
	}
	if m.OverheadFrac > 0 {
		fmt.Printf("inspector cost   %.1f%% of execution\n", 100*m.OverheadFrac)
	}
	fmt.Printf("sets rebalanced  %.1f%%\n", 100*m.FracMoved)
	if *ideal {
		fmt.Printf("ideal-NoC bound  %.1f%% (Figure 2 potential)\n", m.IdealRed())
	}
	if *heatmap {
		mesh := v.Cfg.Mesh
		fmt.Println()
		fmt.Print(stats.Heatmap("default mapping: per-node NoC traffic", traffic.Default, mesh.Width, mesh.Height))
		fmt.Println()
		fmt.Print(stats.Heatmap("location-aware mapping: per-node NoC traffic", traffic.LocAware, mesh.Width, mesh.Height))
	}
	return nil
}

func class(regular bool) string {
	if regular {
		return "regular"
	}
	return "irregular"
}
