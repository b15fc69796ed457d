package faults

import "fmt"

// Domain is a failure domain: a fixed set of individually failable members
// (CNodes, DBoxes, NSD servers, OSSes, compute nodes) with a rebuilt
// fraction per failed member. Every backend keeps its fault state in one
// Domain per pool and derives pooled capacity from Fraction; the backend
// only decides which pipes a member's state drives.
//
// A Domain never lets its last healthy member fail: a down cluster is not
// a degraded mode any experiment models, so Fail refuses with an error and
// the injector reports it instead of the run panicking.
type Domain struct {
	owner, member string // error text: "<owner>: no <member> 3"
	failed        []bool
	rebuilt       []float64
	healthy       int
}

// NewDomain returns a domain of n healthy members. owner names the
// deployment ("gpfs lassen") and member the kind of member ("NSD server")
// in error messages.
func NewDomain(owner, member string, n int) Domain {
	return Domain{owner: owner, member: member,
		failed: make([]bool, n), rebuilt: make([]float64, n), healthy: n}
}

// Len returns the member count.
func (d *Domain) Len() int { return len(d.failed) }

// Grow appends one healthy member (node-local backends add one per
// mounted node).
func (d *Domain) Grow() {
	d.failed = append(d.failed, false)
	d.rebuilt = append(d.rebuilt, 0)
	d.healthy++
}

// Fail takes member i out of service, reporting whether its state changed.
// Failing a failed member is a no-op; an out-of-range index or the last
// healthy member is refused with an error and changes nothing.
func (d *Domain) Fail(i int) (bool, error) {
	switch {
	case i < 0 || i >= len(d.failed):
		return false, fmt.Errorf("%s: no %s %d", d.owner, d.member, i)
	case d.failed[i]:
		return false, nil
	case d.healthy == 1:
		return false, fmt.Errorf("%s: cannot fail the last healthy %s", d.owner, d.member)
	}
	d.failed[i] = true
	d.rebuilt[i] = 0
	d.healthy--
	return true, nil
}

// Recover returns failed member i to service, reporting whether its state
// changed (recovering a healthy or out-of-range member is a no-op).
func (d *Domain) Recover(i int) bool {
	if !d.Failed(i) {
		return false
	}
	d.failed[i] = false
	d.rebuilt[i] = 0
	d.healthy++
	return true
}

// SetRebuilt counts failed member i as fraction frac reconstructed in
// Fraction, reporting whether it applied (only failed members take it).
func (d *Domain) SetRebuilt(i int, frac float64) bool {
	if !d.Failed(i) {
		return false
	}
	d.rebuilt[i] = frac
	return true
}

// Failed reports whether member i is out of service (false out of range).
func (d *Domain) Failed(i int) bool { return i >= 0 && i < len(d.failed) && d.failed[i] }

// Healthy returns how many members are in service.
func (d *Domain) Healthy() int { return d.healthy }

// Fraction is the domain's effective share of its pooled capacity: whole
// healthy members plus the rebuilt fractions of failed ones, in index
// order, over the member count. With nothing rebuilt the added zeros keep
// the sum exact, so a fail/recover pair restores bit-identical nominal
// capacity and the result equals float64(Healthy())/float64(Len()).
func (d *Domain) Fraction() float64 {
	sum := float64(d.healthy)
	for i, f := range d.failed {
		if f {
			sum += d.rebuilt[i]
		}
	}
	return sum / float64(len(d.failed))
}
