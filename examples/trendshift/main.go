// Trendshift: the Fig. 5 scenario as a runnable demo. A detector trained
// on Stealing watches a stream whose anomaly trend shifts to Robbery;
// continuous KG adaptation recovers the lost accuracy while a static twin
// (same seed, adaptation disabled) stays degraded.
package main

import (
	"fmt"
	"log"

	"edgekg"
)

const (
	segment = 256
	rate    = 0.5
)

func main() {
	log.SetFlags(0)

	runArm := func(adaptive bool) (before, shifted, after float64) {
		sys, err := edgekg.NewSystem(edgekg.Options{Seed: 42, Scale: "quick", TrainSteps: 300})
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Train("Stealing"); err != nil {
			log.Fatal(err)
		}
		cam, err := sys.Serve(edgekg.ServeOptions{Streams: 1, Adaptive: adaptive})
		if err != nil {
			log.Fatal(err)
		}
		defer cam.Close()
		before, err = cam.TestAUC(0, "Stealing")
		if err != nil {
			log.Fatal(err)
		}
		// Warm the monitor on the initial trend, then shift.
		for _, phase := range []string{"Stealing", "Robbery"} {
			frames, err := sys.NextStreamFrames(phase, segment, rate)
			if err != nil {
				log.Fatal(err)
			}
			for _, f := range frames {
				if _, err := cam.ProcessFrame(0, f.Frame); err != nil {
					log.Fatal(err)
				}
			}
			if phase == "Robbery" {
				after, err = cam.TestAUC(0, "Robbery")
				if err != nil {
					log.Fatal(err)
				}
			} else {
				shifted, err = cam.TestAUC(0, "Robbery")
				if err != nil {
					log.Fatal(err)
				}
			}
		}
		st, err := cam.Stats(0)
		if err != nil {
			log.Fatal(err)
		}
		label := "static"
		if adaptive {
			label = "adaptive"
		}
		fmt.Printf("[%s] rounds=%d triggered=%d pruned=%d created=%d\n",
			label, st.AdaptRounds, st.TriggeredRounds, st.PrunedNodes, st.CreatedNodes)
		return before, shifted, after
	}

	fmt.Println("=== with KG adaptive learning ===")
	b1, s1, a1 := runArm(true)
	fmt.Printf("AUC: initial(Stealing)=%.3f  at-shift(Robbery)=%.3f  adapted(Robbery)=%.3f\n\n", b1, s1, a1)

	fmt.Println("=== without KG adaptive learning (static KG) ===")
	b2, s2, a2 := runArm(false)
	fmt.Printf("AUC: initial(Stealing)=%.3f  at-shift(Robbery)=%.3f  final(Robbery)=%.3f\n\n", b2, s2, a2)

	fmt.Printf("adaptation benefit on the shifted anomaly: %+.3f AUC\n", a1-a2)
}
