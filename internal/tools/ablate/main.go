// Command ablate is a scratch tool for tuning the adaptation
// hyper-parameters against the Fig. 5 scenarios.
//
//	go run ./internal/tools/ablate -scale full
//
// -scale picks the experiments preset (quick or full).
package main

import (
	"flag"
	"fmt"
	"os"

	"edgekg/internal/concept"
	"edgekg/internal/experiments"
)

func main() {
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "ablate: unknown -scale %q (want quick or full)\n", *scaleName)
		os.Exit(2)
	}
	fmt.Printf("scale=%s train_steps=%d\n", *scaleName, scale.TrainSteps)

	env, err := experiments.NewEnv(scale)
	if err != nil {
		panic(err)
	}
	for _, sc := range []struct {
		name     string
		from, to concept.Class
	}{
		{"weak(S→R)", concept.Stealing, concept.Robbery},
		{"strong(S→E)", concept.Stealing, concept.Explosion},
	} {
		res, err := experiments.RunFig5(env, sc.from, sc.to)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s gain=%+.3f final=%.3f triggers=%d\n", sc.name, res.PostShiftGain(), res.FinalRecovery(), res.AdaptTriggers)
		for i := range res.Adaptive {
			if res.Adaptive[i].Phase == 1 {
				fmt.Printf("  step %2d adapt %.3f static %.3f\n", res.Adaptive[i].Step, res.Adaptive[i].AUC, res.Static[i].AUC)
			}
		}
	}
}
