// Quickstart: generate a mission KG, train the detector, and score a few
// frames — the minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"edgekg"
)

func main() {
	log.SetFlags(0)

	// Build the substrate: ontology, tokenizer, joint embedding space.
	sys, err := edgekg.NewSystem(edgekg.Options{Seed: 7, Scale: "quick", TrainSteps: 200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("available missions:", edgekg.Missions())

	// Fig. 2(A)+(B): KG generation + detector training.
	if err := sys.Train("Stealing"); err != nil {
		log.Fatal(err)
	}
	kg, err := sys.KG()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated KG: depth=%d, %d nodes, %d edges\n", kg.Depth, kg.Nodes, kg.Edges)

	auc, err := sys.TestAUC("Stealing")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test AUC on Stealing: %.3f\n", auc)

	// Deploy frozen to one camera and score a handful of frames.
	cam, err := sys.Serve(edgekg.ServeOptions{Streams: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer cam.Close()
	for _, class := range []string{"Normal", "Stealing", "Normal", "Stealing"} {
		frame, err := sys.SynthesizeFrame(class)
		if err != nil {
			log.Fatal(err)
		}
		res, err := cam.ProcessFrame(0, frame)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame of %-9s anomaly score %.3f\n", class+":", res.Score)
	}
}
