// Adaptive: shows the repo's extension features around the paper's
// algorithms — the early-stopping option that makes the crash algorithm's
// *round* count adaptive (not just its message count), the per-node load
// profile that exposes the committee's traffic skew, and a CSV traffic
// trace for external plotting.
package main

import (
	"fmt"
	"log"
	"strings"

	"renaming"
	"renaming/internal/core"
	"renaming/internal/sim"
	"renaming/internal/trace"
)

func main() {
	const n = 256

	fmt.Println("== early stopping: rounds adapt to the failures that happened ==")
	fmt.Printf("%20s  %8s  %8s\n", "scenario", "rounds", "budget")
	for _, scenario := range []struct {
		name  string
		fault renaming.FaultSpec
	}{
		{"no failures", renaming.FaultSpec{Kind: renaming.FaultNone}},
		{"16 random crashes", renaming.FaultSpec{Kind: renaming.FaultRandom, Budget: 16, Prob: 0.05}},
		{"killer f≤64", renaming.FaultSpec{Kind: renaming.FaultCommitteeKiller, Budget: 64, MidSend: true}},
	} {
		res, err := renaming.RunCrash(n, renaming.CrashSpec{
			Seed: 4, CommitteeScale: 0.02, EarlyStop: true, Fault: scenario.fault,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Unique {
			log.Fatalf("%s: renaming failed", scenario.name)
		}
		budget := 9*8 + 1 // 9·ceil(log2 256)+1
		fmt.Printf("%20s  %8d  %8d\n", scenario.name, res.Rounds, budget)
	}

	fmt.Println("\n== load profile: the committee carries the traffic ==")
	res, err := renaming.RunCrash(n, renaming.CrashSpec{Seed: 9, CommitteeScale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	avg := float64(res.Messages) / float64(n)
	fmt.Printf("total messages: %d   average per node: %.0f\n", res.Messages, avg)
	fmt.Printf("busiest node sent %d (%.1f× the average) — a committee member\n",
		res.MaxNodeSent, float64(res.MaxNodeSent)/avg)
	fmt.Printf("busiest node received %d\n", res.MaxNodeReceived)

	fmt.Println("\n== CSV trace of the first rounds (pipe to a plotting tool) ==")
	if err := csvTrace(64); err != nil {
		log.Fatal(err)
	}
}

// csvTrace reruns a small execution on the low-level API with a CSV
// recorder attached.
func csvTrace(n int) error {
	ids, err := renaming.GenerateIDs(n, 16*n, renaming.IDsEven, 2)
	if err != nil {
		return err
	}
	cfg := core.CrashConfig{N: 16 * n, IDs: ids, Seed: 2, CommitteeScale: 0.05, EarlyStop: true}
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = core.NewCrashNode(cfg, i)
	}
	rec := trace.NewRecorder()
	nw := sim.NewNetwork(nodes, sim.WithRoundDigest(rec.ObserveDigest))
	if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
		return err
	}
	var csv strings.Builder
	if err := rec.WriteCSV(&csv); err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	for i, line := range lines {
		if i >= 8 {
			fmt.Printf("… %d more rows\n", len(lines)-i)
			break
		}
		fmt.Println(line)
	}
	return nil
}
