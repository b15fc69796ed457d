package cluster

import (
	"math"
	"testing"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
)

// TestFlowAndOpLevelAgree pins the claim in docs/MODEL.md §6 on every
// backend as deployed: the two simulation fidelities produce comparable
// bandwidth for a steady sequential stream from one node. Flow level moves
// the 2 GiB phase as one stream; op level pushes 1 MiB writes through the
// client core (page cache with eviction write-back and a closing flush, or
// straight to the backend when cache-less). Op level pays real per-op
// latencies, so it may land up to 30% below flow level.
//
// Two backends sit outside that band for known model reasons, recorded in
// MODEL.md §6 and on ROADMAP; their measured ratio is pinned instead so a
// change in either direction is noticed and the docs get updated:
//   - nvme: flow level absorbs the whole phase into the page cache at
//     memory bandwidth (within the dirty limit), while op-level close
//     pushes every dirty block to the device.
//   - unifyfs: op level serves one chunk at a time, paying the user-level
//     server RPC and the device op latency per MiB; flow level streams at
//     device bandwidth.
func TestFlowAndOpLevelAgree(t *testing.T) {
	const total = 2 << 30
	cases := []struct {
		name    string
		machine MachineSpec
		known   float64 // pinned out-of-band ratio; 0 = must agree
	}{
		{"vast", LassenSpec(), 0},
		{"gpfs", LassenSpec(), 0},
		{"lustre", RubySpec(), 0},
		{"nvme", WombatSpec(), 0.269},
		{"unifyfs", WombatSpec(), 0.619},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bw := func(opLevel bool) float64 {
				env := sim.NewEnv()
				fab := sim.NewFabric(env)
				tb, err := Deploy(MustNew(env, fab, tc.machine, 1), tc.name, nil)
				if err != nil {
					t.Fatal(err)
				}
				cl := tb.Mounts[0]
				var end sim.Time
				env.Go("w", func(p *sim.Proc) {
					if opLevel {
						f := cl.Open(p, "/f", true)
						for off := int64(0); off < total; off += 1 << 20 {
							f.WriteAt(p, off, 1<<20)
						}
						f.Close(p) // flush the tail
					} else {
						cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
					}
					end = p.Now()
				})
				env.Run()
				return float64(total) / sim.Duration(end).Seconds()
			}
			flowBW, opBW := bw(false), bw(true)
			ratio := opBW / flowBW
			if tc.known > 0 {
				if math.Abs(ratio-tc.known) > 0.01 {
					t.Fatalf("known disagreement moved: op-level %.3e vs flow-level %.3e (ratio %.3f, recorded %.3f); update MODEL.md §6 and ROADMAP",
						opBW, flowBW, ratio, tc.known)
				}
				return
			}
			if ratio < 0.7 || ratio > 1.05 {
				t.Fatalf("fidelities disagree: op-level %.3e vs flow-level %.3e (ratio %.2f)",
					opBW, flowBW, ratio)
			}
		})
	}
}
