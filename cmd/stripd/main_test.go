package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/strip"
	"repro/strip/obs"
	"repro/strip/repl"
	"repro/strip/scenario"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]strip.Policy{
		"UF": strip.UpdatesFirst, "uf": strip.UpdatesFirst,
		"TF": strip.TransactionsFirst, "tf": strip.TransactionsFirst,
		"SU": strip.SplitUpdates, "su": strip.SplitUpdates,
		"OD": strip.OnDemand, "od": strip.OnDemand,
	}
	for in, want := range cases {
		got, err := parsePolicy(in)
		if err != nil || got != want {
			t.Errorf("parsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parsePolicy("bogus"); err == nil {
		t.Error("parsePolicy(bogus) should fail")
	}
}

func TestViewName(t *testing.T) {
	if got := viewName(7); got != "px.007" {
		t.Fatalf("viewName = %q", got)
	}
}

func TestRunRequiresMode(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("run without -listen/-feed should fail")
	}
	if err := run([]string{"-listen", "addr", "-policy", "bogus"}); err == nil {
		t.Fatal("bad policy should fail")
	}
}

func TestServerAndFeedEndToEnd(t *testing.T) {
	// Find a free port, then run server and feed briefly.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	serverErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		serverErr <- run([]string{
			"-listen", addr, "-views", "10", "-duration", "1200ms",
		})
	}()

	// Wait for the server to accept connections, then feed it.
	deadline := time.Now().Add(2 * time.Second)
	var conn net.Conn
	for time.Now().Before(deadline) {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if conn == nil {
		t.Fatal("server did not come up")
	}
	conn.Close()

	feedErr := run([]string{
		"-feed", addr, "-views", "10", "-rate", "200", "-duration", "600ms",
	})
	if feedErr != nil {
		t.Fatalf("feed failed: %v", feedErr)
	}
	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatalf("server failed: %v", err)
	}
	_ = fmt.Sprint() // keep fmt imported for future debug output
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestReplicationFlagsEndToEnd(t *testing.T) {
	feedAddr := freeAddr(t)
	replAddr := freeAddr(t)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs <- run([]string{
			"-listen", feedAddr, "-repl-listen", replAddr,
			"-views", "10", "-duration", "1500ms",
		})
	}()
	go func() {
		defer wg.Done()
		errs <- run([]string{
			"-replicate-from", replAddr, "-policy", "UF",
			"-views", "10", "-duration", "1500ms",
		})
	}()

	deadline := time.Now().Add(2 * time.Second)
	var conn net.Conn
	var err error
	for time.Now().Before(deadline) {
		conn, err = net.Dial("tcp", feedAddr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if conn == nil {
		t.Fatal("primary did not come up")
	}
	conn.Close()
	if err := run([]string{
		"-feed", feedAddr, "-views", "10", "-rate", "200", "-duration", "600ms",
	}); err != nil {
		t.Fatalf("feed failed: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("server/replica failed: %v", err)
		}
	}
}

// TestStaticReplicaLogsDialFailures: a static replica whose upstream
// refuses connections says so on stderr, as an elected follower does.
func TestStaticReplicaLogsDialFailures(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	logged := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		logged <- b
	}()
	err = run([]string{"-replicate-from", freeAddr(t), "-views", "1", "-duration", "300ms"})
	os.Stderr = stderr
	w.Close()
	out := <-logged
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "repl: dial failed") {
		t.Errorf("stderr does not report the refused dial:\n%s", out)
	}
}

// TestMetricsFlagsEndToEnd runs a server with -metrics-listen and
// -metrics-dump, feeds it, and checks that the scrape endpoint serves
// the pipeline histograms and that the exit snapshot lands on disk.
func TestMetricsFlagsEndToEnd(t *testing.T) {
	feedAddr := freeAddr(t)
	metricsAddr := freeAddr(t)
	dump := filepath.Join(t.TempDir(), "metrics-snapshot.txt")

	var wg sync.WaitGroup
	wg.Add(1)
	serverErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		serverErr <- run([]string{
			"-listen", feedAddr, "-metrics-listen", metricsAddr,
			"-metrics-dump", dump, "-views", "10", "-duration", "1500ms",
		})
	}()

	deadline := time.Now().Add(2 * time.Second)
	var conn net.Conn
	var err error
	for time.Now().Before(deadline) {
		conn, err = net.Dial("tcp", feedAddr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if conn == nil {
		t.Fatal("server did not come up")
	}
	conn.Close()
	if err := run([]string{
		"-feed", feedAddr, "-views", "10", "-rate", "200", "-duration", "600ms",
	}); err != nil {
		t.Fatalf("feed failed: %v", err)
	}

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape failed: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read scrape: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"strip_updates_received_total",
		"strip_pipeline_install_seconds_bucket",
		"strip_staleness_seconds_bucket",
		"strip_queue_len",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape output missing %q", want)
		}
	}

	tr, err := http.Get("http://" + metricsAddr + "/debug/traces")
	if err != nil {
		t.Fatalf("traces fetch failed: %v", err)
	}
	trBody, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if !strings.Contains(string(trBody), "seq=") {
		t.Errorf("traces output has no recorded spans: %q", trBody)
	}

	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatalf("server failed: %v", err)
	}
	snap, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("metrics dump missing: %v", err)
	}
	if !strings.Contains(string(snap), "strip_updates_installed_total") {
		t.Errorf("dump missing installed counter:\n%s", snap)
	}
}

func TestParsePeers(t *testing.T) {
	order, replOf, err := parsePeers("10.0.0.1:7107=10.0.0.1:7207, 10.0.0.2:7107=10.0.0.2:7207,10.0.0.3:7107=10.0.0.3:7207")
	if err != nil {
		t.Fatalf("parsePeers: %v", err)
	}
	wantOrder := []string{"10.0.0.1:7107", "10.0.0.2:7107", "10.0.0.3:7107"}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Errorf("order = %v, want %v", order, wantOrder)
	}
	if got := replOf["10.0.0.2:7107"]; got != "10.0.0.2:7207" {
		t.Errorf("replOf[10.0.0.2:7107] = %q, want 10.0.0.2:7207", got)
	}
}

func TestParsePeersRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"empty", "", "empty"},
		{"stray comma", "a=b,,c=d", "empty entry"},
		{"no equals", "a=b,cd", "not an elect=repl"},
		{"empty side", "a=b,c=", "empty address side"},
		{"duplicate", "a=b,a=c", "twice"},
		{"single node", "a=b", "at least two"},
	}
	for _, tc := range cases {
		_, _, err := parsePeers(tc.spec)
		if err == nil {
			t.Errorf("%s: parsePeers(%q) accepted", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunRejectsBadFailoverSetup pins the clear-exit contract: a
// malformed -peers or a conflicting flag set must error out, not hang
// half-configured.
func TestRunRejectsBadFailoverSetup(t *testing.T) {
	cases := [][]string{
		{"-elect-listen", "127.0.0.1:0"},                                           // missing -peers
		{"-listen", "127.0.0.1:0", "-peers", "a=b,c=d"},                            // missing -elect-listen
		{"-elect-listen", "a", "-peers", "a=b,c=d", "-repl-listen", "127.0.0.1:0"}, // elect manages roles
		{"-elect-listen", "a", "-peers", "garbage"},                                // malformed peers
		{"-elect-listen", "z", "-peers", "a=b,c=d"},                                // self not in peers
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted an invalid failover setup", args)
		}
	}
}

// TestReportLineFollowsRole pins which replication fields the console
// report carries for each role: repl-seq whenever the node serves a
// stream, repl-lag whenever it follows one, the election fields on an
// election member — whatever flags made the role.
func TestReportLineFollowsRole(t *testing.T) {
	reg := obs.NewRegistry()
	reg.GaugeFunc("strip_replication_seq", "", func() float64 { return 42 })
	reg.GaugeFunc("strip_replica_lag_seconds", "", func() float64 { return 0.5 })
	reg.GaugeFunc("strip_replica_lag_updates", "", func() float64 { return 3 })
	static := config{}
	elected := config{electListen: "127.0.0.1:7107"}
	const seq, lag = " repl-seq=42", " repl-lag=0.500s/3u"
	cases := []struct {
		name  string
		cfg   config
		role  repl.Role
		epoch uint64
		want  []string
		never []string
	}{
		{"standalone", static, repl.RoleStandalone, 0, nil, []string{seq, lag, "elect-"}},
		{"static primary", static, repl.RolePrimary, 0, []string{seq}, []string{lag, "elect-"}},
		{"static replica", static, repl.RoleReplica, 0, []string{lag}, []string{seq, "elect-"}},
		{"chained mid-tier", static, repl.RoleRelay, 0, []string{seq, lag}, []string{"elect-"}},
		{"elect idle", elected, repl.RoleIdle, 0, []string{" elect-state=idle elect-epoch=0"}, []string{seq, lag}},
		{"elected primary", elected, repl.RolePrimary, 3, []string{seq, " elect-state=primary elect-epoch=3"}, []string{lag}},
		{"elected replica", elected, repl.RoleReplica, 3, []string{lag, " elect-state=replica elect-epoch=3"}, []string{seq}},
	}
	for _, tc := range cases {
		line := reportLine(reg, tc.cfg, tc.role, tc.epoch, 0, nil)
		for _, w := range tc.want {
			if !strings.Contains(line, w) {
				t.Errorf("%s: report %q lacks %q", tc.name, line, w)
			}
		}
		for _, w := range tc.never {
			if strings.Contains(line, w) {
				t.Errorf("%s: report %q carries %q", tc.name, line, w)
			}
		}
	}
}

// TestNodeConfigMatchesScenarioRig pins that the scenario library runs
// the node stripd deploys: for each stripd mode, the repl.NodeConfig
// its flags produce equals, field by field, the one the scenario rig
// boots the matching scenario node with. The flags pick the rig's
// policy and staleness settings; the exceptions are named one by one
// below.
func TestNodeConfigMatchesScenarioRig(t *testing.T) {
	// Deployment settings: each side picks its own, but both set them
	// or neither does (a Serve on one side only is a different role).
	presence := map[string]bool{
		"DB.WALPath": true, "DB.Metrics": true, "Serve": true,
		"Replica.Addr": true, "Replica.Seed": true, "Elect.Self": true,
		"Elect.Peers": true, "Elect.Seed": true, "Elect.StatePath": true,
		"ReplAddrs": true, "Schema": true,
	}
	ignored := map[string]bool{
		// Values the rig shrinks so a scenario fits in seconds.
		"Primary.RingFrames": true, "Replica.BackoffBase": true, "Replica.BackoffMax": true,
		"Elect.Timing": true, "Elect.IOTimeout": true,
		// The rig's fault seams: MemFS crash images, the partition
		// gate, link chaos, reserved relistening and the winner ledger.
		"DB.FS": true, "Listen": true, "Dial": true, "Elect.Dial": true, "OnRole": true,
		// stripd logs diagnostics to stderr; the rig discards them.
		"Primary.Logf": true, "Replica.Logf": true, "Elect.Logf": true,
	}
	workload := []string{"-policy", "UF", "-maxage", "0", "-trace-depth", "0", "-wal", "node.wal"}
	cases := []struct {
		mode, scenario, node string
		flags                []string
	}{
		{"standalone", "degraded-wal", "solo", []string{"-listen", "127.0.0.1:7007"}},
		{"static primary", "baseline-convergence", "primary",
			[]string{"-listen", "127.0.0.1:7007", "-repl-listen", "127.0.0.1:7008"}},
		{"static replica", "baseline-convergence", "r2",
			[]string{"-replicate-from", "127.0.0.1:7009"}},
		{"chained mid-tier", "baseline-convergence", "r1",
			[]string{"-replicate-from", "127.0.0.1:7008", "-repl-listen", "127.0.0.1:7009"}},
		{"elect member", "failover-kill", "n1",
			[]string{"-listen", "127.0.0.1:7007", "-elect-listen", "127.0.0.1:7107",
				"-peers", "127.0.0.1:7107=127.0.0.1:7207,127.0.0.1:7108=127.0.0.1:7208,127.0.0.1:7109=127.0.0.1:7209"}},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		cfg, err := parseFlags(append(append([]string(nil), workload...), tc.flags...))
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		deployed, err := nodeConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		sc, err := scenario.Load(filepath.Join("..", "..", "scenarios", tc.scenario+".yaml"))
		if err != nil {
			t.Fatal(err)
		}
		rigs, err := scenario.NodeConfigs(sc)
		if err != nil {
			t.Fatal(err)
		}
		rig, ok := rigs[tc.node]
		if !ok {
			t.Fatalf("%s: scenario %s has no node %s", tc.mode, tc.scenario, tc.node)
		}
		compareConfigs(t, tc.mode, "", reflect.ValueOf(deployed), reflect.ValueOf(rig), presence, ignored, seen)
	}
	for name := range presence {
		if !seen[name] {
			t.Errorf("presence exception %s names no field", name)
		}
	}
	for name := range ignored {
		if !seen[name] {
			t.Errorf("ignored exception %s names no field", name)
		}
	}
}

// compareConfigs walks two values of one struct type field by field,
// reporting every field that differs apart from the named exceptions.
// Functions compare by presence: two closures are never equal.
func compareConfigs(t *testing.T, mode, path string, a, b reflect.Value, presence, ignored, seen map[string]bool) {
	t.Helper()
	for i := 0; i < a.NumField(); i++ {
		f := a.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		name := f.Name
		if path != "" {
			name = path + "." + f.Name
		}
		seen[name] = true
		fa, fb := a.Field(i), b.Field(i)
		switch {
		case ignored[name]:
		case presence[name] || fa.Kind() == reflect.Func:
			if fa.IsZero() != fb.IsZero() {
				t.Errorf("%s: %s is set on one side only (stripd %v, rig %v)", mode, name, !fa.IsZero(), !fb.IsZero())
			}
		case fa.Kind() == reflect.Struct:
			compareConfigs(t, mode, name, fa, fb, presence, ignored, seen)
		case !reflect.DeepEqual(fa.Interface(), fb.Interface()):
			t.Errorf("%s: %s differs: stripd %v, rig %v", mode, name, fa.Interface(), fb.Interface())
		}
	}
}

// TestElectedGroupEndToEnd runs three stripd election members in one
// process and scrapes their metrics endpoints until the group has
// elected exactly one primary that the other two follow at the same
// epoch — the elected mode's wiring, flags to roles.
func TestElectedGroupEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a real election")
	}
	var electAddrs, peers, metrics []string
	for i := 0; i < 3; i++ {
		e := freeAddr(t)
		electAddrs = append(electAddrs, e)
		peers = append(peers, e+"="+freeAddr(t))
		metrics = append(metrics, freeAddr(t))
	}
	dir := t.TempDir()
	errs := make(chan error, 3)
	for i := range electAddrs {
		args := []string{
			"-elect-listen", electAddrs[i], "-peers", strings.Join(peers, ","),
			"-metrics-listen", metrics[i], "-wal", filepath.Join(dir, fmt.Sprintf("n%d.wal", i)),
			"-views", "10", "-duration", "8s",
		}
		go func() { errs <- run(args) }()
	}
	scrape := func(addr, name string) (float64, bool) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return 0, false
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				var f float64
				_, err := fmt.Sscan(v, &f)
				return f, err == nil
			}
		}
		return 0, false
	}
	settled := func() bool {
		primaries, epochs := 0, map[float64]bool{}
		for _, m := range metrics {
			isPrimary, ok1 := scrape(m, "strip_failover_is_primary")
			epoch, ok2 := scrape(m, "strip_failover_epoch")
			if !ok1 || !ok2 || epoch == 0 {
				return false
			}
			primaries += int(isPrimary)
			epochs[epoch] = true
		}
		return primaries == 1 && len(epochs) == 1
	}
	deadline := time.Now().Add(7 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			t.Fatal("the group did not settle on one primary and two followers at one epoch")
		}
		time.Sleep(50 * time.Millisecond)
	}
	for range electAddrs {
		if err := <-errs; err != nil {
			t.Fatalf("member failed: %v", err)
		}
	}
}
