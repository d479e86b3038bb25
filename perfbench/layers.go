package main

import (
	"fmt"
	"os"
)

// serverLayer derives the per-layer counters a run reads from the
// replicas' /metrics: computes is how many results the servers
// computed and distinct how many distinct keys needed computing, so
// sims_per_key is 1.0 when no work was wasted.
func serverLayer(m map[string]float64, computes, distinct float64) map[string]float64 {
	return map[string]float64{
		"server.coalesced":    m["reprosrv_coalesced_requests_total"],
		"server.rejected":     m["reprosrv_rejected_total"],
		"server.sims_per_key": ratio(computes, distinct),
		"store.hit_ratio":     ratio(m["reprosrv_store_hits_total"], m["reprosrv_store_hits_total"]+m["reprosrv_store_misses_total"]),
		"store.writes":        m["reprosrv_store_writes_total"],
		"shard.peer_fetches":  m["reprosrv_peer_fetches_total"],
		"shard.peer_failures": m["reprosrv_peer_failures_total"],
		"montage.cache_hit_ratio": ratio(m["reprosrv_workflow_cache_hits_total"],
			m["reprosrv_workflow_cache_hits_total"]+m["reprosrv_workflow_cache_misses_total"]),
	}
}

// tierShares records which tier answered each request, by X-Cache.
func tierShares(layer map[string]float64, tiers map[string]int, n int) {
	for _, t := range []string{"hit", "store", "peer", "miss"} {
		layer["server."+t+"_share"] = ratio(float64(tiers[t]), float64(n))
	}
}

// logFailure reports one failed operation on standard error.
func logFailure(err error) { fmt.Fprintln(os.Stderr, "perfbench: failed:", err) }
