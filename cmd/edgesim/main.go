// Command edgesim simulates the deployed edge device of Fig. 2(C): a
// trained detector processes a frame stream whose anomaly trend shifts
// mid-run, the continuous KG adaptation loop keeps the model aligned, and
// the tool prints the score/AUC timeline plus the cost ledger.
//
// Usage:
//
//	edgesim -initial Stealing -shifted Robbery -segment 256 -static=false
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"

	"edgekg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("edgesim: ")
	var (
		initial = flag.String("initial", "Stealing", "anomaly class the detector is trained on")
		shifted = flag.String("shifted", "Robbery", "anomaly class the trend shifts to")
		segment = flag.Int("segment", 256, "frames per trend segment")
		rate    = flag.Float64("rate", 0.5, "anomaly rate of the stream")
		static  = flag.Bool("static", false, "disable adaptation (the baseline arm)")
		seed    = flag.Int64("seed", 42, "seed")
		every   = flag.Int("report-every", 32, "frames between AUC reports")
	)
	flag.Parse()
	if !slices.Contains(edgekg.Missions(), *initial) {
		log.Fatalf("-initial %q: not a mission (see edgekg.Missions)", *initial)
	}
	if !slices.Contains(edgekg.Missions(), *shifted) {
		log.Fatalf("-shifted %q: not a mission (see edgekg.Missions)", *shifted)
	}
	if *segment < 1 {
		log.Fatalf("-segment %d: frames per segment must be ≥1", *segment)
	}
	if *rate < 0 || *rate > 1 {
		log.Fatalf("-rate %v: anomaly rate must be in [0,1]", *rate)
	}
	if *every < 1 {
		log.Fatalf("-report-every %d: report cadence must be ≥1", *every)
	}

	opts := edgekg.DefaultOptions()
	opts.Seed = *seed
	sys, err := edgekg.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training on %s...\n", *initial)
	if err := sys.Train(*initial); err != nil {
		log.Fatal(err)
	}
	cam, err := sys.Serve(edgekg.ServeOptions{Streams: 1, Adaptive: !*static})
	if err != nil {
		log.Fatal(err)
	}
	defer cam.Close()

	run := func(class string, phase int) error {
		frames, err := sys.NextStreamFrames(class, *segment, *rate)
		if err != nil {
			return err
		}
		for i, f := range frames {
			res, err := cam.ProcessFrame(0, f.Frame)
			if err != nil {
				return err
			}
			if res.Adapted {
				fmt.Printf("  frame %4d: adaptation triggered (pruned %d, created %d)\n",
					i, res.PrunedNodes, res.CreatedNodes)
			}
			if (i+1)%*every == 0 {
				auc, err := cam.TestAUC(0, class)
				if err != nil {
					return err
				}
				fmt.Printf("phase %d frame %4d: score %.3f, test AUC on %-10s %.4f\n",
					phase, i+1, res.Score, class, auc)
			}
		}
		return nil
	}

	fmt.Printf("phase 0: anomaly trend = %s\n", *initial)
	if err := run(*initial, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1: anomaly trend shifts to %s\n", *shifted)
	if err := run(*shifted, 1); err != nil {
		log.Fatal(err)
	}

	st, err := cam.Stats(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeployment stats: frames=%d adaptRounds=%d triggered=%d pruned=%d created=%d\n",
		st.Frames, st.AdaptRounds, st.TriggeredRounds, st.PrunedNodes, st.CreatedNodes)
	fmt.Printf("cost ledger: scoring=%d FLOPs, adaptation=%d FLOPs, energy/adapt=%.3e J\n",
		st.ScoringFLOPs, st.AdaptFLOPs, st.EnergyPerAdaptJ)

	interp, err := cam.InterpretKG(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninterpretable KG after adaptation:")
	for _, n := range interp {
		marker := ""
		if n.Created {
			marker = " (created)"
		}
		if n.Decoded != n.Concept {
			marker += " (drifted)"
		}
		fmt.Printf("  L%d node %d: %q → %q%s\n", n.Level, n.NodeID, n.Concept, n.Decoded, marker)
	}
}
