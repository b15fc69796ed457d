// Command whatif is the configuration explorer: it enumerates a typed
// deployment knob space, scores every candidate with the analytical
// surrogate in microseconds, DES-verifies only the predicted Pareto
// frontier plus a margin band, and reports the measured frontier over
// (goodput, p99, cost).
//
// Examples:
//
//	whatif -print-frontier                      # built-in Wombat space
//	whatif -space space.json -budget 60 -print-frontier
//	whatif -space space.json -spec tenants.json -objectives goodput,cost -out result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"storagesim/internal/cliflags"
	"storagesim/internal/configsearch"
	"storagesim/internal/experiments"
	"storagesim/internal/traffic"
)

func main() {
	spaceFile := flag.String("space", "", "JSON knob space (default: the built-in Wombat vast-vs-nvme space)")
	specFile := flag.String("spec", "", "JSON tenant spec every candidate serves (default: the built-in ckpt/scan/meta mix)")
	budget := flag.Int("budget", 0, "cap on DES verifications (0: verify the whole margin band)")
	objectives := flag.String("objectives", "", "comma-separated frontier axes (default goodput,p99,cost)")
	outFile := flag.String("out", "", "write the full search result as JSON to this file")
	printFrontier := flag.Bool("print-frontier", false, "print the frontier table (predicted vs measured)")
	flag.Parse()

	space := experiments.WhatIfFixtureSpace()
	if *spaceFile != "" {
		data, err := os.ReadFile(*spaceFile)
		if err != nil {
			cliflags.Fatal(err)
		}
		space, err = configsearch.ParseSpace(data)
		if err != nil {
			cliflags.Fatal(err)
		}
	}
	var spec traffic.Spec
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			cliflags.Fatal(err)
		}
		spec, err = traffic.ParseSpec(data)
		if err != nil {
			cliflags.Fatal(err)
		}
	}
	objs, err := configsearch.ParseObjectives(*objectives)
	if err != nil {
		cliflags.Fatal(err)
	}

	res, err := experiments.ConfigSearch(experiments.WhatIfConfig{
		Space:      space,
		Spec:       spec,
		Budget:     *budget,
		Objectives: objs,
		Calibrate:  true,
	})
	if err != nil {
		cliflags.Fatal(err)
	}

	s := res.Search
	fmt.Printf("machine=%s backends=%v candidates=%d verified=%d truncated=%d frontier=%d window=%v probes=%d\n",
		space.Machine, space.Backends, len(s.Candidates), len(s.Survivors),
		s.Truncated, len(s.Frontier), res.Window, res.Probes)
	if *printFrontier {
		fmt.Print(res.FrontierTable().Render())
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			cliflags.Fatal(err)
		}
		if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
			cliflags.Fatal(err)
		}
	}
}
