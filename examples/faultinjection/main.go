// Fault injection: run the same IOR job on the Wombat VAST deployment
// twice — once healthy, once under a schedule that kills CNode 0
// mid-run, derates the fabric, and then repairs both — and print the
// bandwidth each run delivered. The schedule is the JSON format of
// `iorbench -faults`; the copy in this directory works there too:
//
//	go run ./examples/faultinjection
//	go run ./cmd/iorbench -machine Wombat -fs vast -nodes 2 \
//	    -faults examples/faultinjection/schedule.json
//
// Fault events ride the simulation event calendar, so a seeded degraded
// run is exactly as reproducible as a healthy one.
package main

import (
	"fmt"
	"log"

	storagesim "storagesim"
)

const schedule = `{"events": [
  {"at": "5ms",  "kind": "server-fail",    "target": "vast", "index": 0},
  {"at": "8ms",  "kind": "link-derate",    "target": "vast", "factor": 0.5},
  {"at": "14ms", "kind": "link-restore",   "target": "vast"},
  {"at": "20ms", "kind": "server-recover", "target": "vast", "index": 0}
]}`

func main() {
	sched, err := storagesim.ParseFaultSchedule([]byte(schedule))
	if err != nil {
		log.Fatal(err)
	}

	for _, run := range []struct {
		name  string
		sched storagesim.FaultSchedule
	}{
		{"healthy", storagesim.FaultSchedule{}},
		{"faulted", sched},
	} {
		s := storagesim.New()
		cl, err := s.Cluster("Wombat", 2)
		if err != nil {
			log.Fatal(err)
		}
		vast := storagesim.VASTOnWombat(cl)
		mounts := storagesim.MountAll(vast, cl)

		// The deployment registers as a fault target under the name the
		// schedule's "target" fields use.
		inj := storagesim.NewFaultInjector(s.Env)
		inj.Register("vast", vast)
		if err := inj.Apply(run.sched); err != nil {
			log.Fatal(err)
		}

		res, err := storagesim.RunIOR(s.Env, mounts, storagesim.IORConfig{
			Workload:     storagesim.Scientific, // sequential write
			BlockSize:    1 << 20,
			TransferSize: 1 << 20,
			Segments:     64,
			ProcsPerNode: 8,
			OpLevel:      true, // per-op path resolution, so failover is live
			Seed:         42,
			Dir:          "/faults",
		})
		if err != nil {
			log.Fatal(err)
		}
		// A fail the deployment refused (its last healthy CNode) is
		// reported here, after the run.
		if err := inj.Err(); err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-8s write %6.2f GB/s in %v\n", run.name, res.WriteBW/1e9, res.WriteTime)
		for _, a := range inj.Applied() {
			fmt.Printf("         %v\n", a)
		}
	}

	fmt.Println("\nThe faulted run dips while CNode 0 is down (its clients fail over")
	fmt.Println("and pay the NFS retransmit penalty) and recovers once the schedule")
	fmt.Println("repairs the server: capacity loss, not outage.")
}
