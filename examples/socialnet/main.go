// Socialnet: the paper's evaluation application end to end — the Pinax-like
// social app with its 14 cached objects, run under a session workload, with
// a side-by-side NoCache / Invalidate / Update comparison.
package main

import (
	"fmt"
	"log"

	"cachegenie/internal/social"
	"cachegenie/internal/workload"
)

func main() {
	seed := social.SeedConfig{
		Users: 150, UniqueBookmarks: 50, MaxBookmarksPer: 5,
		MaxFriendsPer: 5, MaxInvitesPer: 3, MaxWallPosts: 8,
	}
	fmt.Println("mode        pages/s   hit-rate  db-selects  trigger-updates")
	for _, mode := range []workload.Mode{workload.ModeNoCache, workload.ModeInvalidate, workload.ModeUpdate} {
		stack, err := workload.BuildStack(workload.StackConfig{
			Mode: mode, Seed: seed, RngSeed: 1, LatencyScale: 100,
			BufferPoolPages: 128,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := workload.Run(stack, workload.RunConfig{
			Clients: 10, Sessions: 4, PagesPerSession: 10, WritePct: 20,
			ZipfA: 2.0, WarmupSessions: 20, RngSeed: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		hitRate := 0.0
		trigUpdates := int64(0)
		if stack.Genie != nil {
			gs := stack.Genie.Stats()
			if total := gs.Hits + gs.Misses; total > 0 {
				hitRate = float64(gs.Hits) / float64(total)
			}
			trigUpdates = gs.TriggerUpdates
		}
		fmt.Printf("%-10s %8.1f   %7.2f  %10d  %15d\n",
			mode, rep.Throughput, hitRate, stack.DB.Stats().Selects, trigUpdates)
	}
	fmt.Println("\nper-page latency detail (Update mode, fresh run):")
	stack, err := workload.BuildStack(workload.StackConfig{
		Mode: workload.ModeUpdate, Seed: seed, RngSeed: 1, LatencyScale: 100,
		BufferPoolPages: 128,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := workload.Run(stack, workload.RunConfig{
		Clients: 10, Sessions: 4, PagesPerSession: 10, WritePct: 20,
		ZipfA: 2.0, WarmupSessions: 20, RngSeed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range social.PageTypes() {
		st := rep.ByPage[p]
		fmt.Printf("  %-10s n=%-4d mean=%-12v p95=%v\n", p, st.Count, st.Mean, st.P95)
	}
}
