// Byzantine: drives the Byzantine-resilient algorithm through every
// implemented attack strategy using the low-level simulator API, and
// prints a round-by-round traffic timeline of one adversarial execution
// so the protocol's phases (elect → announce → fingerprint loop →
// distribute) are visible.
package main

import (
	"fmt"
	"log"
	"os"

	"renaming"
	"renaming/internal/core"
	"renaming/internal/sim"
	"renaming/internal/trace"
)

func main() {
	const n = 48

	fmt.Println("== part 1: every attack strategy against the same network ==")
	for _, attack := range []struct {
		name     string
		behavior renaming.Behavior
	}{
		{"silent (crash-like)", renaming.BehaviorSilent},
		{"split-world announcements", renaming.BehaviorSplitWorld},
		{"equivocation + fake NEW", renaming.BehaviorEquivocate},
		{"spam flood", renaming.BehaviorSpam},
	} {
		byz := map[int]renaming.Behavior{5: attack.behavior, 17: attack.behavior, 29: attack.behavior}
		res, err := renaming.RunByzantine(n, renaming.ByzSpec{
			Seed: 9, PoolProb: 14.0 / n, Byzantine: byz,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s unique=%v order=%v rounds=%d iters=%d honest msgs=%d\n",
			attack.name, res.Unique, res.OrderPreserving, res.Rounds,
			res.Iterations, res.HonestMessages)
	}

	fmt.Println("\n== part 2: traffic timeline of one split-world execution ==")
	if err := timeline(n); err != nil {
		log.Fatal(err)
	}
}

// timeline reruns a split-world attack on the low-level API with a trace
// recorder attached.
func timeline(n int) error {
	ids, err := renaming.GenerateIDs(n, 8*n, renaming.IDsEven, 1)
	if err != nil {
		return err
	}
	cfg := core.ByzConfig{N: 8 * n, IDs: ids, Seed: 9, PoolProb: 14.0 / float64(n)}
	byz := map[int]bool{5: true, 17: true, 29: true}

	simNodes := make([]sim.Node, n)
	var byzLinks []int
	honest := make([]*core.ByzNode, 0, n)
	for i := 0; i < n; i++ {
		if byz[i] {
			simNodes[i] = core.NewByzAttacker(cfg, i, core.BehaviorSplitWorld)
			byzLinks = append(byzLinks, i)
			continue
		}
		node := core.NewByzNode(cfg, i)
		honest = append(honest, node)
		simNodes[i] = node
	}

	rec := trace.NewRecorder()
	nw := sim.NewNetwork(simNodes,
		sim.WithByzantine(byzLinks),
		sim.WithRoundDigest(rec.ObserveDigest),
	)
	if err := nw.Run(200_000); err != nil {
		return err
	}

	if err := rec.WriteTimeline(os.Stdout); err != nil {
		return err
	}
	if busiest, ok := rec.BusiestRound(); ok {
		fmt.Printf("\nbusiest round: %d with %d messages\n", busiest.Round, busiest.Messages)
	}
	decided := 0
	for _, node := range honest {
		if _, ok := node.Output(); ok {
			decided++
		}
	}
	fmt.Printf("honest nodes decided: %d/%d\n", decided, len(honest))
	return nil
}
