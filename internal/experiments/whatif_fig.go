package experiments

import (
	"fmt"

	"storagesim/internal/configsearch"
	"storagesim/internal/stats"
)

// The what-if figure: two deployment spaces, each searched with the
// calibrated surrogate and DES-verified, rendered as predicted-vs-measured
// frontier panels. Pinned as a golden across both kernel builds.

// WhatIfFixtureSpace is the pinned Wombat knob space of the differential
// tests and the figure's first panel: the RDMA VAST deployment swept over
// protocol servers, nconnect, EC geometry and admission caps, against the
// node-local NVMe baseline. It must enumerate identically to
// testdata/whatif_space.json (a sync test holds the two together).
func WhatIfFixtureSpace() configsearch.Space {
	return configsearch.Space{
		Machine:     "Wombat",
		Backends:    []string{"nvme", "vast"},
		Nodes:       []int{1, 2},
		CNodes:      []int{1, 2, 4, 6, 8},
		Nconnect:    []int{1, 2, 4, 8, 16},
		DBoxes:      []int{4},
		StripeWidth: []int{1, 2},
		ECParity:    []int{1, 2},
		MaxInflight: []int{8, 32, 64},
		Pricing: configsearch.Pricing{
			ClientNodeHr: 1.0, ServerHr: 3.0, EnclosureHr: 8.0, CacheGiBHr: 0.02,
		},
	}
}

// WhatIfRubySpace is the figure's second panel: the LC deployments as
// mounted from Ruby — VAST behind the TCP gateways against Lustre — where
// the hardware is fixed and only client-side knobs move.
func WhatIfRubySpace() configsearch.Space {
	return configsearch.Space{
		Machine:     "Ruby",
		Backends:    []string{"lustre", "vast"},
		Nodes:       []int{1, 2},
		MaxInflight: []int{16, 64},
		Pricing: configsearch.Pricing{
			ClientNodeHr: 1.0, ServerHr: 3.0, EnclosureHr: 8.0, CacheGiBHr: 0.02,
		},
	}
}

// FigWhatIf runs the what-if explorer over both spaces and renders the
// measured frontiers with the surrogate's predictions alongside, one
// panel per space, X = frontier rank (cheapest first).
func FigWhatIf(opts Options) ([]Panel, error) {
	runs := []struct {
		id, title string
		space     configsearch.Space
		budget    int
	}{
		{"whatif-wombat", "Wombat what-if: VAST/RDMA knobs vs node-local NVMe",
			WhatIfFixtureSpace(), 60},
		{"whatif-ruby", "Ruby what-if: VAST/TCP gateways vs Lustre",
			WhatIfRubySpace(), 0},
	}
	var panels []Panel
	for _, r := range runs {
		res, err := ConfigSearch(WhatIfConfig{
			Space: r.space, Calibrate: true, Budget: r.budget, Seed: opts.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("whatif: %s: %w", r.id, err)
		}
		panels = append(panels, whatIfPanel(r.id, r.title, res))
	}
	return panels, nil
}

// whatIfPanel renders one search result: the measured frontier ordered by
// cost, with predicted and measured goodput and p99 per rank. The
// candidate behind each rank is spelled out in the notes.
func whatIfPanel(id, title string, res *WhatIfResult) Panel {
	ranked := frontierByCost(res.Search)
	predG := stats.Series{Name: "pred goodput GB/s"}
	measG := stats.Series{Name: "meas goodput GB/s"}
	predP := stats.Series{Name: "pred p99 ms"}
	measP := stats.Series{Name: "meas p99 ms"}
	p := Panel{
		ID:     id,
		Title:  title,
		XLabel: "rank",
		YLabel: "goodput / p99",
	}
	for k, i := range ranked {
		s := res.Search.Candidates[i]
		x := float64(k + 1)
		predG.Append(x, s.Predicted.GoodputBps/1e9, 0)
		measG.Append(x, s.Measured.GoodputBps/1e9, 0)
		predP.Append(x, s.Predicted.P99Sec*1e3, 0)
		measP.Append(x, s.Measured.P99Sec*1e3, 0)
		p.Notes = append(p.Notes, fmt.Sprintf("rank %d: %s ($%.2f/hr)", k+1, s.Candidate, s.Measured.CostHr))
	}
	p.Series = []stats.Series{predG, measG, predP, measP}
	total := len(res.Search.Candidates)
	verified := len(res.Search.Survivors)
	p.Notes = append(p.Notes,
		fmt.Sprintf("%d candidates, %d DES-verified (%.1f%%), %d truncated by budget, %d calibration probes",
			total, verified, 100*float64(verified)/float64(total), res.Search.Truncated, res.Probes))
	return p
}

// frontierByCost orders the frontier indices by measured cost, then
// goodput descending, then enumeration index — a stable presentation
// order for the ranked panels.
func frontierByCost(res *configsearch.Result) []int {
	out := append([]int(nil), res.Frontier...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := res.Candidates[out[j-1]], res.Candidates[out[j]]
			if a.Measured.CostHr < b.Measured.CostHr ||
				(a.Measured.CostHr == b.Measured.CostHr && a.Measured.GoodputBps >= b.Measured.GoodputBps) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
