package core

import "testing"

func TestVivaceMonotoneBelowCapacity(t *testing.T) {
	u := &VivaceUtility{}
	lo := mkMI(10, 10, 0, 1000)
	hi := mkMI(20, 20, 0, 1000)
	if u.Eval(hi) <= u.Eval(lo) {
		t.Fatal("loss-free, queue-free utility must grow with rate")
	}
}

func TestVivacePenalizesRTTGradient(t *testing.T) {
	u := &VivaceUtility{}
	flat := mkMI(50, 50, 0, 1000)
	rising := mkMI(50, 50, 0, 1000)
	rising.RTTSlope = 0.02
	if u.Eval(rising) >= u.Eval(flat) {
		t.Fatal("a rising RTT must reduce Vivace utility")
	}
	// The penalty must be able to overcome the throughput gain of a small
	// rate increase (that is what pins the rate at capacity).
	higher := mkMI(51, 51, 0, 1000)
	higher.RTTSlope = 0.02
	if u.Eval(higher) >= u.Eval(flat) {
		t.Fatal("rate+queue must lose against rate-at-capacity")
	}
}

func TestVivacePenalizesLoss(t *testing.T) {
	u := &VivaceUtility{}
	clean := mkMI(50, 50, 0, 100000)
	lossy := mkMI(50, 47.5, 0.05, 100000)
	if u.Eval(lossy) >= u.Eval(clean) {
		t.Fatal("loss must reduce Vivace utility")
	}
}

func TestVivaceConcaveThroughput(t *testing.T) {
	u := &VivaceUtility{}
	// Marginal utility of rate must shrink: u(20)-u(10) > u(110)-u(100).
	d1 := u.Eval(mkMI(20, 20, 0, 1000)) - u.Eval(mkMI(10, 10, 0, 1000))
	d2 := u.Eval(mkMI(110, 110, 0, 1000)) - u.Eval(mkMI(100, 100, 0, 1000))
	if d2 >= d1 {
		t.Fatalf("throughput term not concave: %v vs %v", d1, d2)
	}
}
