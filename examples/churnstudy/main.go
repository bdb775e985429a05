// churnstudy demonstrates the fault-tolerance machinery of §4.4/§6.2:
// a coded store under sustained participant churn with delayed repair,
// comparing the three coding configurations' file availability.
package main

import (
	"fmt"

	"peerstripe/internal/erasure"
	"peerstripe/internal/sim"
	"peerstripe/internal/trace"
)

func main() {
	const nodes = 300
	const files = 600

	for _, cfgSpec := range []struct {
		label    string
		spec     erasure.Spec
		rateless bool
	}{
		{"no coding     ", erasure.NullSpec, false},
		{"XOR (2,3)     ", erasure.XOR23Spec, false},
		{"online (tol 2)", erasure.OnlineSimSpec, true},
	} {
		g := trace.NewGen(9)
		pool := sim.NewPool(9, g.NodeCapacities(nodes))
		cfg := sim.DefaultConfig()
		cfg.Spec = cfgSpec.spec
		cfg.Rateless = cfgSpec.rateless
		st := sim.NewStore(pool, cfg)
		stored := 0
		for _, f := range g.Files(files) {
			if st.StoreFile(f.Name, f.Size).OK {
				stored++
			}
		}

		// Churn: fail 20% of nodes with repair bandwidth that finishes
		// most regeneration between failures.
		meanNodeData := float64(pool.TotalUsed) / float64(pool.Size())
		cs := sim.NewChurnSim(st, 2*meanNodeData, 1.0)
		rng := g.Rand()
		for i := 0; i < nodes/5; i++ {
			live := pool.Net.Nodes()
			if err := cs.FailNext(live[rng.Intn(len(live))].ID); err != nil {
				panic(err)
			}
		}
		cs.Drain()

		available := 0
		for _, name := range st.Files() {
			if st.Available(name) {
				available++
			}
		}
		fmt.Printf("%s stored=%d  available after 20%% churn=%d (%.1f%%)  regenerated=%.1f GB  lost=%.2f GB\n",
			cfgSpec.label, stored, available,
			100*float64(available)/float64(stored),
			float64(cs.TotalRegenerated)/float64(trace.GB),
			float64(cs.TotalLost)/float64(trace.GB))
	}
}
