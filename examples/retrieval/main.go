// Retrieval: the Fig. 6 mechanism as a runnable demo. After adapting a
// Stealing detector through a shift to Robbery, Interpretable KG Retrieval
// decodes every reasoning node's learned token embeddings back into
// vocabulary words, showing which concepts drifted.
package main

import (
	"fmt"
	"log"

	"edgekg"
)

func main() {
	log.SetFlags(0)

	sys, err := edgekg.NewSystem(edgekg.Options{Seed: 23, Scale: "quick", TrainSteps: 250})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Train("Stealing"); err != nil {
		log.Fatal(err)
	}

	cam, err := sys.Serve(edgekg.ServeOptions{Streams: 1, Adaptive: true})
	if err != nil {
		log.Fatal(err)
	}
	defer cam.Close()

	fmt.Println("interpretable KG before adaptation:")
	printKG(cam)

	// Warm-up on the trained trend, then a long Robbery phase.
	for _, phase := range []struct {
		class  string
		frames int
	}{
		{"Stealing", 128},
		{"Robbery", 384},
	} {
		frames, err := sys.NextStreamFrames(phase.class, phase.frames, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range frames {
			if _, err := cam.ProcessFrame(0, f.Frame); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Println("\ninterpretable KG after Stealing→Robbery adaptation:")
	printKG(cam)

	st, err := cam.Stats(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n(%d adaptation rounds, %d triggered, %d nodes pruned)\n",
		st.AdaptRounds, st.TriggeredRounds, st.PrunedNodes)
}

func printKG(cam *edgekg.StreamServer) {
	nodes, err := cam.InterpretKG(0)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range nodes {
		marker := ""
		if n.Decoded != n.Concept {
			marker = "   <-- drifted"
		}
		if n.Created {
			marker = "   <-- created by adaptation"
		}
		fmt.Printf("  L%d %-16q decodes to %-16q%s\n", n.Level, n.Concept, n.Decoded, marker)
	}
}
