package faults

import (
	"strings"
	"testing"
)

// TestDomain drives the failure domain through its edge cases. Each step
// is one call; the expected outcome is checked after it, together with
// the healthy count.
func TestDomain(t *testing.T) {
	type step struct {
		op      string // fail, recover, rebuilt, grow
		i       int
		frac    float64
		changed bool   // fail/recover/rebuilt result (grow: false)
		err     string // fail: substring of the refusal, "" for none
		healthy int
	}
	cases := []struct {
		name  string
		n     int
		steps []step
		// fraction is Fraction() after the last step.
		fraction float64
	}{
		{"nothing failed is exactly whole", 3, nil, 1},
		{"out of range", 3, []step{
			{op: "fail", i: 3, err: "dom: no server 3", healthy: 3},
			{op: "fail", i: -1, err: "dom: no server -1", healthy: 3},
			{op: "recover", i: 3, healthy: 3},
			{op: "recover", i: -1, healthy: 3},
			{op: "rebuilt", i: 7, frac: 0.5, healthy: 3},
		}, 1},
		{"fail and recover are idempotent", 4, []step{
			{op: "fail", i: 1, changed: true, healthy: 3},
			{op: "fail", i: 1, healthy: 3},
			{op: "recover", i: 1, changed: true, healthy: 4},
			{op: "recover", i: 1, healthy: 4},
			{op: "recover", i: 0, healthy: 4},
		}, 1},
		{"last healthy member is refused", 2, []step{
			{op: "fail", i: 0, changed: true, healthy: 1},
			{op: "fail", i: 1, err: "dom: cannot fail the last healthy server", healthy: 1},
			{op: "recover", i: 0, changed: true, healthy: 2},
			{op: "fail", i: 1, changed: true, healthy: 1},
		}, 0.5},
		{"single member is never failed", 1, []step{
			{op: "fail", i: 0, err: "last healthy", healthy: 1},
		}, 1},
		{"rebuilt fraction counts toward capacity", 4, []step{
			{op: "fail", i: 2, changed: true, healthy: 3},
			{op: "rebuilt", i: 2, frac: 0.5, changed: true, healthy: 3},
			{op: "rebuilt", i: 0, frac: 0.5, healthy: 3}, // healthy members take none
		}, 3.5 / 4},
		{"fail resets the rebuilt fraction", 4, []step{
			{op: "fail", i: 2, changed: true, healthy: 3},
			{op: "rebuilt", i: 2, frac: 0.5, changed: true, healthy: 3},
			{op: "recover", i: 2, changed: true, healthy: 4},
			{op: "fail", i: 2, changed: true, healthy: 3},
		}, 0.75},
		{"recover resets the rebuilt fraction", 4, []step{
			{op: "fail", i: 0, changed: true, healthy: 3},
			{op: "rebuilt", i: 0, frac: 0.9, changed: true, healthy: 3},
			{op: "recover", i: 0, changed: true, healthy: 4},
		}, 1},
		{"grow by one member", 0, []step{
			{op: "grow", healthy: 1},
			{op: "fail", i: 0, err: "last healthy", healthy: 1},
			{op: "grow", healthy: 2},
			{op: "fail", i: 1, changed: true, healthy: 1},
			{op: "grow", healthy: 2},
		}, 2.0 / 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDomain("dom", "server", tc.n)
			for k, st := range tc.steps {
				var changed bool
				var err error
				switch st.op {
				case "fail":
					changed, err = d.Fail(st.i)
				case "recover":
					changed = d.Recover(st.i)
				case "rebuilt":
					changed = d.SetRebuilt(st.i, st.frac)
				case "grow":
					n := d.Len()
					d.Grow()
					if d.Len() != n+1 {
						t.Fatalf("step %d: Grow left %d members, want %d", k, d.Len(), n+1)
					}
				}
				if changed != st.changed {
					t.Fatalf("step %d %s(%d): changed = %v, want %v", k, st.op, st.i, changed, st.changed)
				}
				switch {
				case st.err == "" && err != nil:
					t.Fatalf("step %d: unexpected error %v", k, err)
				case st.err != "" && (err == nil || !strings.Contains(err.Error(), st.err)):
					t.Fatalf("step %d: error %v, want %q", k, err, st.err)
				}
				if d.Healthy() != st.healthy {
					t.Fatalf("step %d: healthy = %d, want %d", k, d.Healthy(), st.healthy)
				}
			}
			if got := d.Fraction(); got != tc.fraction {
				t.Fatalf("Fraction() = %v, want exactly %v", got, tc.fraction)
			}
		})
	}
}

// TestDomainFailedBounds: Failed answers false outside the domain, so
// callers never index past it.
func TestDomainFailedBounds(t *testing.T) {
	d := NewDomain("dom", "server", 2)
	if _, err := d.Fail(1); err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int]bool{-1: false, 0: false, 1: true, 2: false} {
		if d.Failed(i) != want {
			t.Errorf("Failed(%d) = %v, want %v", i, d.Failed(i), want)
		}
	}
}

// TestDomainFractionIsHealthyShare: with nothing rebuilt, Fraction is
// bit-identical to healthy/n, so a pool derated by it and by a link factor
// (VAST's CNode pools) keeps its exact capacity.
func TestDomainFractionIsHealthyShare(t *testing.T) {
	for n := 1; n <= 40; n++ {
		d := NewDomain("dom", "server", n)
		for i := 0; i < n; i++ {
			if got, want := d.Fraction(), float64(d.Healthy())/float64(n); got != want {
				t.Fatalf("n=%d healthy=%d: Fraction() = %v, want %v", n, d.Healthy(), got, want)
			}
			d.Fail(i)
		}
	}
}
