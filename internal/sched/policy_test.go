package sched

import (
	"testing"

	"repro/internal/model"
)

func TestPolicyStrings(t *testing.T) {
	cases := map[Policy]string{UF: "UF", TF: "TF", SU: "SU", OD: "OD", FC: "FC"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"UF", "uf", " Tf ", "su", "OD", "fc"} {
		if _, err := ParsePolicy(s); err != nil {
			t.Errorf("ParsePolicy(%q) failed: %v", s, err)
		}
	}
	if p, _ := ParsePolicy("od"); p != OD {
		t.Error("ParsePolicy(od) != OD")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy(bogus) should fail")
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, p := range AllPolicies {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip failed for %v: got %v, err %v", p, got, err)
		}
	}
}

func TestUsesUpdateQueue(t *testing.T) {
	if UF.usesUpdateQueue() {
		t.Error("UF should not use the update queue")
	}
	for _, p := range []Policy{TF, SU, OD, FC} {
		if !p.usesUpdateQueue() {
			t.Errorf("%v should use the update queue", p)
		}
	}
}

func TestPoliciesList(t *testing.T) {
	if len(Policies) != 4 {
		t.Fatalf("Policies has %d entries, want the paper's 4", len(Policies))
	}
	if len(AllPolicies) != 5 {
		t.Fatalf("AllPolicies has %d entries, want 5", len(AllPolicies))
	}
}

// TestNextTable pins the whole §4 decision table: every policy against
// every backlog (high, low, both, none) with and without a ready
// transaction.
func TestNextTable(t *testing.T) {
	type in struct{ high, low, txn bool }
	// Columns, in order: backlog {high, low, both, none} without a
	// ready transaction, then the same with one.
	inputs := []in{
		{true, false, false}, {false, true, false}, {true, true, false}, {false, false, false},
		{true, false, true}, {false, true, true}, {true, true, true}, {false, false, true},
	}
	const (
		idle, hi, lo, mrg, txn = Idle, InstallHigh, InstallLow, InstallMerged, RunTxn
	)
	want := map[Policy][]Action{
		UF: {mrg, mrg, mrg, idle, mrg, mrg, mrg, txn},
		TF: {mrg, mrg, mrg, idle, txn, txn, txn, txn},
		SU: {hi, lo, hi, idle, hi, txn, hi, txn},
		OD: {mrg, mrg, mrg, idle, txn, txn, txn, txn},
		FC: {mrg, mrg, mrg, idle, txn, txn, txn, txn},
	}
	for _, p := range AllPolicies {
		for i, x := range inputs {
			if got := Next(p, x.high, x.low, x.txn); got != want[p][i] {
				t.Errorf("Next(%v, high=%v, low=%v, txn=%v) = %d, want %d",
					p, x.high, x.low, x.txn, got, want[p][i])
			}
		}
	}
}

func TestPreempts(t *testing.T) {
	want := map[Policy][2]bool{ // indexed by model.Importance
		UF: {model.Low: true, model.High: true},
		TF: {},
		SU: {model.High: true},
		OD: {},
		FC: {},
	}
	for _, p := range AllPolicies {
		for _, class := range []model.Importance{model.Low, model.High} {
			if got := Preempts(p, class); got != want[p][class] {
				t.Errorf("Preempts(%v, %v) = %v, want %v", p, class, got, want[p][class])
			}
		}
	}
}

func TestRefreshesOnRead(t *testing.T) {
	for _, p := range AllPolicies {
		if got := p.RefreshesOnRead(); got != (p == OD) {
			t.Errorf("%v.RefreshesOnRead() = %v", p, got)
		}
	}
}
