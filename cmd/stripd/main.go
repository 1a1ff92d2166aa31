// Command stripd runs a strip database as a network server: it
// ingests an update stream over TCP (one update per line, see
// strip.ParseUpdateLine) and periodically reports statistics.
//
// Server:
//
//	stripd -listen 127.0.0.1:7007 -views 100 -policy OD -maxage 1s
//
// Built-in synthetic feed (the client side, for trying it out):
//
//	stripd -feed 127.0.0.1:7007 -views 100 -rate 400
//
// Replication: a primary exports its update stream with -repl-listen,
// and any number of replicas import it with -replicate-from:
//
//	stripd -listen :7007 -repl-listen :7008            # primary
//	stripd -replicate-from 127.0.0.1:7008 -policy UF   # replica
//
// A replica can chain by passing its own -repl-listen. The once-a-
// second report shows the replication sequence while the node serves a
// stream and the MA/UU replication lag while it follows one (a chained
// replica does both).
//
// Failover: -elect-listen and -peers replace the static primary/
// replica split with consensus-elected roles. Every node of the group
// runs the same command with its own -elect-listen; -peers lists the
// full membership as elect=repl address pairs (identical on every
// node). The elected primary serves the replication stream on its
// repl address from the pair list; everyone else follows it:
//
//	stripd -listen :7007 -elect-listen :7107 \
//	    -peers 127.0.0.1:7107=127.0.0.1:7207,127.0.0.1:7108=127.0.0.1:7208
//
// The once-a-second report then carries elect-state and elect-epoch,
// and repl-seq or repl-lag for the role the election gave the node.
// -elect-state names the durable election ledger (promises, accepted
// values, the decided epoch) so a restarted node keeps its word; it
// defaults to <wal>.elect when -wal is set.
//
// Observability: -metrics-listen serves the full metrics registry as
// Prometheus text on /metrics (plus /debug/pprof and, with traces
// enabled, /debug/traces), and -metrics-dump writes one final text
// snapshot to a file on exit:
//
//	stripd -listen :7007 -metrics-listen :9100
//	curl -s localhost:9100/metrics | grep strip_staleness
//
// The once-a-second console report is rendered from the same registry,
// so the two views can never disagree.
//
// The server also runs a sample read-only transaction each second so
// the transaction counters move.
//
// Every server mode is one repl.Node: stripd turns its flags into a
// repl.NodeConfig and boots it with repl.StartNode, the same assembly
// the scenario library (strip/scenario) runs its fleets on. Around the
// node it keeps only the feed and metrics listeners and the report
// loop.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/strip"
	"repro/strip/elect"
	"repro/strip/obs"
	"repro/strip/repl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stripd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	switch {
	case cfg.feed != "":
		return runFeed(cfg.feed, cfg.views, cfg.rate, cfg.duration)
	case cfg.listen != "" || cfg.replicateFrom != "" || cfg.electListen != "":
		return runServer(cfg)
	default:
		return fmt.Errorf("pass -listen <addr> (server), -replicate-from <addr> (replica), -elect-listen <addr> (failover group) or -feed <addr> (feed client)")
	}
}

// config carries the command line.
type config struct {
	listen        string
	feed          string
	views         int
	policyName    string
	maxAge        time.Duration
	rate          float64
	duration      time.Duration
	replListen    string
	replicateFrom string
	walPath       string
	ckptEvery     time.Duration
	electListen   string
	peers         string
	electState    string
	metricsListen string
	metricsDump   string
	traceDepth    int
}

// parseFlags reads the command line into a config.
func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("stripd", flag.ContinueOnError)
	fs.StringVar(&c.listen, "listen", "", "serve updates on this TCP address")
	fs.StringVar(&c.feed, "feed", "", "act as a synthetic feed client to this address")
	fs.IntVar(&c.views, "views", 100, "number of view objects (px.000 ... )")
	fs.StringVar(&c.policyName, "policy", "OD", "scheduling policy: UF, TF, SU or OD")
	fs.DurationVar(&c.maxAge, "maxage", time.Second, "MA staleness bound (0 selects UU)")
	fs.Float64Var(&c.rate, "rate", 400, "feed mode: updates per second")
	fs.DurationVar(&c.duration, "duration", 0, "exit after this long (0 = run until signal)")
	fs.StringVar(&c.replListen, "repl-listen", "", "serve the replication frame stream on this TCP address")
	fs.StringVar(&c.replicateFrom, "replicate-from", "", "run as a replica of the primary at this -repl-listen address")
	fs.StringVar(&c.walPath, "wal", "", "write-ahead log path: makes general data durable across restarts")
	fs.DurationVar(&c.ckptEvery, "checkpoint-every", 30*time.Second, "checkpoint interval when -wal is set (also heals a degraded log)")
	fs.StringVar(&c.electListen, "elect-listen", "", "join leader election with this address as the node's identity")
	fs.StringVar(&c.peers, "peers", "", "election membership as elect=repl address pairs, comma separated (identical on every node)")
	fs.StringVar(&c.electState, "elect-state", "", "election ledger path: makes promises and decisions durable across restarts (defaults to <wal>.elect when -wal is set)")
	fs.StringVar(&c.metricsListen, "metrics-listen", "", "serve Prometheus text on /metrics (plus /debug/pprof) on this HTTP address")
	fs.StringVar(&c.metricsDump, "metrics-dump", "", "write a final metrics snapshot (Prometheus text) to this file on exit")
	fs.IntVar(&c.traceDepth, "trace-depth", 256, "keep the last N per-update pipeline traces for /debug/traces (0 disables)")
	return c, fs.Parse(args)
}

// parsePeers parses the -peers membership list: comma-separated
// elect=repl address pairs. It returns the elect addresses in list
// order (the order is part of the protocol configuration and must
// match on every node) and the elect→repl mapping. Every malformed
// shape gets its own message so a misconfigured node dies with a
// reason, not a hung election.
func parsePeers(spec string) (order []string, replOf map[string]string, err error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil, fmt.Errorf("-peers is empty; pass elect=repl address pairs, comma separated")
	}
	replOf = make(map[string]string)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, nil, fmt.Errorf("-peers has an empty entry (stray comma?) in %q", spec)
		}
		electAddr, replAddr, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, nil, fmt.Errorf("-peers entry %q is not an elect=repl address pair", entry)
		}
		electAddr, replAddr = strings.TrimSpace(electAddr), strings.TrimSpace(replAddr)
		if electAddr == "" || replAddr == "" {
			return nil, nil, fmt.Errorf("-peers entry %q has an empty address side", entry)
		}
		if _, dup := replOf[electAddr]; dup {
			return nil, nil, fmt.Errorf("-peers lists elect address %q twice", electAddr)
		}
		order = append(order, electAddr)
		replOf[electAddr] = replAddr
	}
	if len(order) < 2 {
		return nil, nil, fmt.Errorf("-peers needs at least two nodes, got %d", len(order))
	}
	return order, replOf, nil
}

func parsePolicy(name string) (strip.Policy, error) {
	switch name {
	case "UF", "uf":
		return strip.UpdatesFirst, nil
	case "TF", "tf":
		return strip.TransactionsFirst, nil
	case "SU", "su":
		return strip.SplitUpdates, nil
	case "OD", "od":
		return strip.OnDemand, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", name)
	}
}

func viewName(i int) string { return fmt.Sprintf("px.%03d", i) }

// nodeConfig turns the server flags into the node stripd runs: its
// database, its schema and its replication role.
func nodeConfig(cfg config) (repl.NodeConfig, error) {
	policy, err := parsePolicy(cfg.policyName)
	if err != nil {
		return repl.NodeConfig{}, err
	}
	seed := uint64(time.Now().UnixNano())
	nc := repl.NodeConfig{
		DB: strip.Config{
			Policy:  policy,
			MaxAge:  cfg.maxAge,
			OnStale: strip.Warn,
			WALPath: cfg.walPath,
			// One registry for the whole process: the database,
			// replication sides and election node all register into
			// it, the /metrics endpoint exposes it, and the 1s console
			// report reads from it.
			Metrics:    obs.NewRegistry(),
			TraceDepth: cfg.traceDepth,
		},
		Schema: func(db *strip.DB) error {
			for i := 0; i < cfg.views; i++ {
				// Alternate importance so SplitUpdates has both classes.
				imp := strip.Low
				if i%2 == 1 {
					imp = strip.High
				}
				if err := db.DefineView(viewName(i), imp); err != nil {
					return err
				}
			}
			return nil
		},
		Serve:   cfg.replListen,
		Replica: repl.ReplicaConfig{Addr: cfg.replicateFrom, Seed: seed},
	}
	if cfg.electListen == "" && cfg.peers == "" {
		return nc, nil
	}
	if cfg.electListen == "" || cfg.peers == "" {
		return nc, fmt.Errorf("-elect-listen and -peers must be used together")
	}
	if cfg.replListen != "" || cfg.replicateFrom != "" {
		return nc, fmt.Errorf("-elect-listen manages the replication roles itself; drop -repl-listen and -replicate-from")
	}
	peerOrder, replOf, err := parsePeers(cfg.peers)
	if err != nil {
		return nc, err
	}
	if _, ok := replOf[cfg.electListen]; !ok {
		return nc, fmt.Errorf("-elect-listen %q is not one of the elect addresses in -peers", cfg.electListen)
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	// The election ledger rides next to the WAL by default: a node
	// durable enough to keep its data should also keep its word.
	statePath := cfg.electState
	if statePath == "" && cfg.walPath != "" {
		statePath = cfg.walPath + ".elect"
	}
	nc.Elect = elect.Config{
		Self:      cfg.electListen,
		Peers:     peerOrder,
		Seed:      seed,
		StatePath: statePath,
		Logf:      logf,
	}
	nc.ReplAddrs = replOf
	nc.Primary.Logf = logf
	nc.Replica.Logf = logf
	return nc, nil
}

func runServer(cfg config) error {
	nc, err := nodeConfig(cfg)
	if err != nil {
		return err
	}
	node, err := repl.StartNode(nc)
	if err != nil {
		return err
	}
	defer node.Close()
	db, reg, views := node.DB(), nc.DB.Metrics, cfg.views
	if cfg.metricsDump != "" {
		// Runs before the deferred node.Close (LIFO), so gauge funcs
		// still read a live database.
		defer func() {
			if err := dumpMetrics(reg, cfg.metricsDump); err != nil {
				fmt.Fprintln(os.Stderr, "stripd: metrics dump:", err)
			}
		}()
	}
	if cfg.walPath != "" {
		fmt.Printf("write-ahead log at %s (checkpoint every %v)\n", cfg.walPath, cfg.ckptEvery)
	}
	switch {
	case cfg.electListen != "":
		fmt.Printf("election on %s across %d peers (replication at %s when primary)\n",
			cfg.electListen, len(nc.Elect.Peers), nc.ReplAddrs[cfg.electListen])
	case cfg.replicateFrom != "":
		fmt.Printf("replicating from %s (policy %s)\n", cfg.replicateFrom, nc.DB.Policy)
	}
	if cfg.replListen != "" {
		fmt.Printf("replication stream on %s\n", cfg.replListen)
	}
	if cfg.listen != "" {
		l, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			return err
		}
		fmt.Printf("stripd serving %d views on %s (policy %s, maxage %v)\n",
			views, l.Addr(), nc.DB.Policy, cfg.maxAge)
		go db.Serve(l)
	}
	if cfg.metricsListen != "" {
		ml, err := net.Listen("tcp", cfg.metricsListen)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: obs.NewMux(reg, db.Traces)}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
		go srv.Serve(ml)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if cfg.duration > 0 {
		timeout = time.After(cfg.duration)
	}
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	// Periodic checkpoints bound recovery time; a checkpoint is also
	// the degraded-mode heal path after a WAL failure.
	var ckptC <-chan time.Time
	if cfg.walPath != "" && cfg.ckptEvery > 0 {
		ckptTicker := time.NewTicker(cfg.ckptEvery)
		defer ckptTicker.Stop()
		ckptC = ckptTicker.C
	}
	rng := rand.New(rand.NewPCG(1, uint64(time.Now().UnixNano())))
	// finalCheckpoint bounds the next start's recovery replay and, if
	// the log is degraded, leaves it healed: the shutdown counterpart
	// of the periodic checkpoint. The -metrics-dump snapshot is written
	// by its deferred hook after this, while the database is still open.
	finalCheckpoint := func() {
		if cfg.walPath == "" {
			return
		}
		if err := db.Checkpoint(); err != nil {
			fmt.Printf("final checkpoint failed: %v\n", err)
		}
	}
	for {
		select {
		case <-stop:
			fmt.Println("\nshutting down")
			finalCheckpoint()
			return nil
		case <-timeout:
			finalCheckpoint()
			return nil
		case <-ckptC:
			if err := db.Checkpoint(); err != nil {
				fmt.Printf("checkpoint failed: %v\n", err)
			}
		case <-ticker.C:
			// A sample monitoring transaction: average a few views.
			idx := rng.IntN(views)
			res := db.Exec(strip.TxnSpec{
				Name:     "monitor",
				Value:    1,
				Deadline: time.Now().Add(100 * time.Millisecond),
				Func: func(tx *strip.Tx) error {
					sum, n := 0.0, 0
					for i := idx; i < idx+5 && i < views; i++ {
						e, err := tx.Read(viewName(i))
						if err != nil {
							return err
						}
						sum += e.Value
						n++
					}
					if n > 0 {
						tx.Set("monitor.avg", sum/float64(n))
					}
					return nil
				},
			})
			staleViews, _ := db.Aggregate("SELECT COUNT(*) FROM views WHERE stale")
			role, epoch := node.Role()
			fmt.Println(reportLine(reg, cfg, role, epoch, staleViews, res.StaleReads))
		}
	}
}

// reportLine renders the once-a-second console report from the
// metrics registry — the same series /metrics serves, so the console
// and the scrape endpoint cannot drift apart. The replication fields
// follow the node's current role: repl-seq while it serves a stream,
// repl-lag while it follows one. staleViews and staleReads come from
// the sample monitoring transaction, which is per-tick state rather
// than a registered series.
func reportLine(reg *obs.Registry, cfg config, role repl.Role, epoch uint64, staleViews float64, staleReads []string) string {
	mv := func(name string) int64 {
		v, _ := reg.Value(name)
		return int64(v)
	}
	line := fmt.Sprintf("recv=%d installed=%d skipped=%d expired=%d queue=%d txns=%d stale-views=%.0f stale-reads=%v",
		mv("strip_updates_received_total"), mv("strip_updates_installed_total"),
		mv("strip_updates_skipped_total"), mv("strip_updates_expired_total"),
		mv("strip_queue_len"), mv("strip_txns_committed_total"), staleViews, staleReads)
	if role.Serves() {
		line += fmt.Sprintf(" repl-seq=%d", mv("strip_replication_seq"))
	}
	if role.Follows() {
		lag, _ := reg.Value("strip_replica_lag_seconds")
		line += fmt.Sprintf(" repl-lag=%.3fs/%du", lag, mv("strip_replica_lag_updates"))
	}
	if cfg.electListen != "" {
		line += fmt.Sprintf(" elect-state=%s elect-epoch=%d", role, epoch)
	}
	if cfg.walPath != "" {
		line += fmt.Sprintf(" wal-errors=%d", mv("strip_wal_errors_total"))
		if mv("strip_degraded") != 0 {
			line += " DEGRADED(commits failing; awaiting checkpoint)"
		}
	}
	return line
}

// dumpMetrics writes one Prometheus-text snapshot of the registry.
func dumpMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runFeed(addr string, views int, rate float64, duration time.Duration) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("feeding %s with %.0f updates/s across %d views\n", addr, rate, views)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if duration > 0 {
		timeout = time.After(duration)
	}
	rng := rand.New(rand.NewPCG(2, uint64(time.Now().UnixNano())))
	prices := make([]float64, views)
	for i := range prices {
		prices[i] = 50 + rng.Float64()*100
	}
	tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer tick.Stop()
	sent := 0
	for {
		select {
		case <-stop:
			fmt.Printf("\nsent %d updates\n", sent)
			return nil
		case <-timeout:
			fmt.Printf("sent %d updates\n", sent)
			return nil
		case <-tick.C:
			i := rng.IntN(views)
			prices[i] *= 1 + (rng.Float64()-0.5)*0.01
			err := strip.WriteUpdate(conn, strip.Update{
				Object:    viewName(i),
				Value:     prices[i],
				Generated: time.Now(),
			})
			if err != nil {
				return err
			}
			sent++
		}
	}
}
