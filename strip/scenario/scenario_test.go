package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestScenarioLibrary runs every shipped scenario end to end: build
// the fleet, drive the planned workload, inflict the fault schedule,
// evaluate the assertions. Each scenario must pass; a failure logs the
// exact command that reproduces it.
func TestScenarioLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs take real wall-clock time")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("scenario library has %d files, want at least 10", len(paths))
	}
	for _, p := range paths {
		p := p
		t.Run(strings.TrimSuffix(filepath.Base(p), ".yaml"), func(t *testing.T) {
			sc, err := Load(p)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(sc, Options{Logf: t.Logf})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, d := range rep.Details {
				t.Log(d)
			}
			if !rep.Passed {
				t.Errorf("scenario %s seed=%d failed:\n  %s",
					rep.Name, rep.Seed, strings.Join(rep.Failures, "\n  "))
				t.Logf("repro: %s", ReproCommand(p, rep.Seed))
			}
		})
	}
}

// chaosLink runs the chaos-link scenario (the ported replication chaos
// test) once per needed run, shared across the tests below.
var chaosLink struct {
	once sync.Once
	reps []*Report
	err  error
}

func chaosLinkRuns(t *testing.T) []*Report {
	t.Helper()
	chaosLink.once.Do(func() {
		sc, err := Load(filepath.Join("..", "..", "scenarios", "chaos-link.yaml"))
		if err != nil {
			chaosLink.err = err
			return
		}
		for i := 0; i < 2; i++ {
			rep, err := Run(sc, Options{})
			if err != nil {
				chaosLink.err = err
				return
			}
			chaosLink.reps = append(chaosLink.reps, rep)
		}
	})
	if chaosLink.err != nil {
		t.Fatal(chaosLink.err)
	}
	return chaosLink.reps
}

// TestScenarioChaosParity is the scenario-engine port of the bespoke
// TestReplicaChaosConvergence harness: a replication link under seeded
// resets, partial writes, bit flips and latency must absorb every
// injected fault and converge byte-identically once the window closes.
func TestScenarioChaosParity(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs take real wall-clock time")
	}
	rep := chaosLinkRuns(t)[0]
	if rep.FaultsInjected == 0 {
		t.Fatal("chaos injected no faults; the run exercised nothing")
	}
	if !rep.Passed {
		t.Fatalf("chaos scenario failed:\n  %s\nrepro: %s",
			strings.Join(rep.Failures, "\n  "),
			ReproCommand(filepath.Join("..", "..", "scenarios", "chaos-link.yaml"), rep.Seed))
	}
	t.Logf("converged after %d injected faults", rep.FaultsInjected)
}

// TestScenarioTranscriptDeterministic pins the transcript contract:
// the same file and seed produce byte-identical transcripts run to
// run, and the bytes match the committed golden copy — so any change
// to the planner's derivation chain is a reviewed diff, not drift.
func TestScenarioTranscriptDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs take real wall-clock time")
	}
	reps := chaosLinkRuns(t)
	if reps[0].Transcript != reps[1].Transcript {
		t.Fatalf("same seed, different transcripts:\n--- run 1\n%s\n--- run 2\n%s",
			reps[0].Transcript, reps[1].Transcript)
	}
	golden := filepath.Join("testdata", "chaos-link.transcript")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Transcript != string(want) {
		t.Fatalf("transcript drifted from %s:\n--- got\n%s\n--- want\n%s",
			golden, reps[0].Transcript, want)
	}
}

// TestScenarioSeedOverride reruns a scenario under a different seed —
// the repro path — and requires the transcript to advertise that seed.
func TestScenarioSeedOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs take real wall-clock time")
	}
	sc, err := Load(filepath.Join("..", "..", "scenarios", "baseline-convergence.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 99 {
		t.Fatalf("seed override ignored: report says %d", rep.Seed)
	}
	if !strings.Contains(rep.Transcript, "seed=99") {
		t.Fatalf("transcript does not carry the overridden seed:\n%s", rep.Transcript)
	}
	if !rep.Passed {
		t.Errorf("baseline under seed 99 failed:\n  %s", strings.Join(rep.Failures, "\n  "))
	}
}
