package repl_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/strip/scenario"
)

// The failover checks live in the scenario library: the scenario rig is
// the one harness that boots an elected fleet, and each schedule is a
// file under scenarios/. These tests run those files from the package
// whose Node they exercise, so `go test ./strip/repl` still covers
// promotion, demotion and re-bootstrap.

// runFailoverScenario loads scenarios/<name>.yaml, runs it at its own
// seed and fails the test on any failed assertion.
func runFailoverScenario(t *testing.T, name string) {
	t.Helper()
	path := filepath.Join("..", "..", "scenarios", name+".yaml")
	sc, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Run(sc, scenario.Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range rep.Details {
		t.Log(d)
	}
	if !rep.Passed {
		t.Errorf("scenario %s seed=%d failed:\n  %s",
			rep.Name, rep.Seed, strings.Join(rep.Failures, "\n  "))
		t.Logf("repro: %s", scenario.ReproCommand(path, rep.Seed))
	}
}

// TestFailoverPromotionAndRepoint is a healthy network: elect,
// replicate, kill the primary, re-elect at a higher epoch, converge
// (scenarios/failover-kill.yaml).
func TestFailoverPromotionAndRepoint(t *testing.T) {
	runFailoverScenario(t, "failover-kill")
}

// TestFailoverTortureCrashPoints kills the elected primary at each
// enumerated crash point with partition windows active on every link,
// then restarts it from its crash-frozen disk: one winner per epoch,
// byte-identical convergence after the heal, durable recovery, and the
// revived node re-bootstrapped as a replica at a higher epoch.
func TestFailoverTortureCrashPoints(t *testing.T) {
	for _, cp := range []struct{ name, file string }{
		{"AfterElect", "failover-after-elect"},
		{"MidStream", "failover-mid-stream"},
		{"MidCheckpoint", "failover-mid-checkpoint"},
	} {
		cp := cp
		t.Run(cp.name, func(t *testing.T) {
			runFailoverScenario(t, cp.file)
		})
	}
}
