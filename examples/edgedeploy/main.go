// Edgedeploy: the Table I scenario as a runnable demo, multiplexed the
// way a real edge box is deployed — several cameras served by one
// process. A trained detector runs a simulated month with one adaptation
// round per day on every camera; each camera's anomaly trend alternates
// on its own phase, each adapts its own KG copy over the shared frozen
// backbone, and the demo prints per-camera daily AUC, the measured FLOPs,
// the device-model energy, and contrasts them with the paper's stated
// cloud constants.
package main

import (
	"fmt"
	"log"
	"sync"

	"edgekg"
)

const (
	cameras       = 3
	days          = 12
	framesPerDay  = 32
	anomalyRate   = 0.5
	cloudFLOPs    = 1e15 // Table I: GPT-4 compute per cloud KG update
	cloudGBUpdate = 0.5  // Table I: bandwidth per cloud KG update
)

func main() {
	log.SetFlags(0)

	sys, err := edgekg.NewSystem(edgekg.Options{
		Seed:       31,
		Scale:      "quick",
		TrainSteps: 250,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Train("Stealing"); err != nil {
		log.Fatal(err)
	}

	// The month alternates Stealing and Robbery trends (the Table I
	// scenario), shifting every 3 days — with each camera phase-shifted by
	// its index so the box never adapts to one global trend.
	classes := []string{"Stealing", "Robbery"}
	camClass := func(cam, day int) string { return classes[((day+cam)/3)%2] }

	// Synthesise every camera's month up front (the shared frame
	// synthesiser is not meant to be called from concurrent camera
	// goroutines).
	schedules := make([][][]float64, cameras)
	for cam := 0; cam < cameras; cam++ {
		for day := 0; day < days; day++ {
			frames, err := sys.NextStreamFrames(camClass(cam, day), framesPerDay, anomalyRate)
			if err != nil {
				log.Fatal(err)
			}
			for _, f := range frames {
				schedules[cam] = append(schedules[cam], f.Frame)
			}
		}
	}

	srv, err := sys.Serve(edgekg.ServeOptions{
		Streams:          cameras,
		Adaptive:         true,
		AdaptEveryFrames: framesPerDay, // one adaptation round per "day"
		AdaptLagFrames:   8,            // keep scoring on the old KG while adapting
	})
	if err != nil {
		log.Fatal(err)
	}

	// One goroutine per camera. The daily AUC probe runs one frame before
	// the day's end: the probe is a barrier that would force-join an
	// in-flight round, and the day's adaptation round triggers on the last
	// frame — probing just before it leaves that round free to overlap the
	// first AdaptLagFrames frames of the next day, which is the point of
	// the async serving runtime.
	aucSum := make([]float64, cameras)
	var wg sync.WaitGroup
	for cam := 0; cam < cameras; cam++ {
		cam := cam
		wg.Add(1)
		go func() {
			defer wg.Done()
			for day := 0; day < days; day++ {
				for k := 0; k < framesPerDay; k++ {
					if k == framesPerDay-1 {
						cls := camClass(cam, day)
						auc, err := srv.TestAUC(cam, cls)
						if err != nil {
							log.Fatal(err)
						}
						aucSum[cam] += auc
						fmt.Printf("cam %d day %2d (trend %-9s): daily AUC %.3f\n", cam, day+1, cls, auc)
					}
					if _, err := srv.ProcessFrame(cam, schedules[cam][day*framesPerDay+k]); err != nil {
						log.Fatal(err)
					}
				}
			}
			srv.CloseStream(cam)
		}()
	}
	wg.Wait()
	srv.Close()

	fmt.Printf("\n--- month summary (%d cameras × %d days, one process) ---\n", cameras, days)
	var totalAdaptFLOPs, totalEnergy float64
	var totalRounds, totalTriggered, totalPruned, totalCreated int
	for cam := 0; cam < cameras; cam++ {
		st, err := srv.Stats(cam)
		if err != nil {
			log.Fatal(err)
		}
		perDay := int64(0)
		if st.AdaptRounds > 0 {
			perDay = st.AdaptFLOPs / int64(st.AdaptRounds)
		}
		fmt.Printf("cam %d: average AUC %.3f, rounds %d (%d triggered), FLOPs/adapt %.3e, energy/adapt %.3e J\n",
			cam, aucSum[cam]/days, st.AdaptRounds, st.TriggeredRounds, float64(perDay), st.EnergyPerAdaptJ)
		totalAdaptFLOPs += float64(st.AdaptFLOPs)
		totalEnergy += st.EnergyPerAdaptJ * float64(st.AdaptRounds)
		totalRounds += st.AdaptRounds
		totalTriggered += st.TriggeredRounds
		totalPruned += st.PrunedNodes
		totalCreated += st.CreatedNodes
	}
	fmt.Printf("\nadaptation rounds:           %d (%d triggered) across %d cameras\n", totalRounds, totalTriggered, cameras)
	fmt.Printf("edge FLOPs, all adaptation:  %.3e (measured)\n", totalAdaptFLOPs)
	fmt.Printf("edge energy, all adaptation: %.3e J (device model)\n", totalEnergy)
	fmt.Printf("cloud FLOPs avoided:         %.1e per update the baseline would run, per camera\n", cloudFLOPs)
	fmt.Printf("bandwidth avoided:           %.1f GB per update, per camera\n", cloudGBUpdate)
	fmt.Printf("KG nodes pruned/created:     %d/%d\n", totalPruned, totalCreated)
}
