// Command train runs the pre-deployment pipeline (Fig. 2 A+B): generate
// the mission KG, train the hierarchical-GNN detector on synthetic task
// data, and report test AUC.
//
// Usage:
//
//	train -mission Stealing -scale quick -steps 300
package main

import (
	"flag"
	"fmt"
	"log"

	"edgekg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	var (
		mission = flag.String("mission", "Stealing", "target anomaly class")
		scale   = flag.String("scale", "quick", "preset sizing: quick | full")
		steps   = flag.Int("steps", 0, "override training steps (0 = preset)")
		seed    = flag.Int64("seed", 42, "seed")
		evalAll = flag.Bool("eval-all", false, "also report AUC against every other anomaly class")
	)
	flag.Parse()

	opts := edgekg.DefaultOptions()
	opts.Scale = *scale
	opts.Seed = *seed
	opts.TrainSteps = *steps
	sys, err := edgekg.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training detector for mission %q (%s scale)...\n", *mission, *scale)
	if err := sys.Train(*mission); err != nil {
		log.Fatal(err)
	}
	kgStats, err := sys.KG()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KG: depth=%d nodes=%d edges=%d per-level=%v\n",
		kgStats.Depth, kgStats.Nodes, kgStats.Edges, kgStats.NodesPerLevel)

	auc, err := sys.TestAUC(*mission)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test AUC on %s: %.4f\n", *mission, auc)

	if *evalAll {
		for _, m := range edgekg.Missions() {
			if m == *mission {
				continue
			}
			a, err := sys.TestAUC(m)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  transfer AUC on %-14s %.4f\n", m+":", a)
		}
	}
}
