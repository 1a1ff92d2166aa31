package strip

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/strip/obs"
)

// ApplyUpdate submits one update to the stream. It never blocks and
// takes no lock — the registry is read from its published snapshot
// (see registry), the closed flag, the arrival counter and the drop
// counter are atomics — so a producer never waits for the scheduler's
// install section: when the ingest buffer (the paper's OS queue) is
// full the update is dropped and counted in Stats.UpdatesDropped.
// Updates for undefined objects are rejected with ErrUnknownObject.
func (db *DB) ApplyUpdate(u Update) error {
	if db.closed.Load() {
		return ErrClosed
	}
	ref, ok := db.registry()[u.Object]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, u.Object)
	}
	if ref.derived {
		return fmt.Errorf("%w: %q", ErrDerivedUpdate, u.Object)
	}

	// A missing generation stamp means "now": the arrival reading.
	arrival, wallGen := db.arrivalStamp()
	gen := arrival
	if !u.Generated.IsZero() {
		gen, wallGen = db.secs(u.Generated), u.Generated.UnixNano()
	}
	// The one allocation per offer (pinned by TestFeedPathAllocations):
	// the update outlives this call in the scheduler queue.
	mu := &model.Update{
		Seq:         db.arrival.Add(1),
		Object:      ref.id,
		Class:       Importance(ref.class),
		GenTime:     gen,
		ArrivalTime: arrival,
		Payload:     u.Value,
		WallGen:     wallGen,
	}
	if u.Fields != nil {
		if u.Partial {
			mu.Aux = partialFields(copyFields(u.Fields))
		} else {
			mu.Aux = completeFields(copyFields(u.Fields))
		}
	}
	select {
	case db.ingestCh <- mu:
		if db.closed.Load() {
			// Close overtook this offer: the scheduler may have exited
			// before the send, and nobody would ever receive the update.
			db.dropStranded()
		}
	default:
		db.dropped.Add(1)
	}
	return nil
}

// dropStranded empties the ingest buffer of a closed database into the
// drop count, so that an update accepted while Close was under way is
// either received by the scheduler's last pass or counted here — never
// left behind uncounted. Close calls it once the scheduler has exited;
// an offer that finds the database closed after its send calls it too,
// because that send may have come after Close's own sweep.
func (db *DB) dropStranded() {
	for {
		select {
		case <-db.ingestCh:
			db.dropped.Add(1)
		default:
			return
		}
	}
}

// IngestChannel forwards updates from ch until it is closed or the
// database shuts down. It returns immediately; forwarding happens on
// a new goroutine.
func (db *DB) IngestChannel(ch <-chan Update) {
	go func() {
		for {
			select {
			case u, ok := <-ch:
				if !ok {
					return
				}
				_ = db.ApplyUpdate(u)
			case <-db.stopCh:
				return
			}
		}
	}()
}

// Serve accepts connections on l and speaks the line protocol on
// each:
//
//   - an update line "<object> <gen-unixnanos> <value>" ingests an
//     update (see ParseUpdateLine); nothing is written back,
//   - "QUERY <select...>" evaluates a row query (see Query) and
//     writes one "ROW <object> <gen-unixnanos> <value> <stale>" line
//     per result followed by "OK <n>", or "ERR <message>",
//   - "AGG <select...>" evaluates an aggregate (see Aggregate) and
//     writes "VAL <number>", or "ERR <message>".
//
// It blocks until the listener fails or the database closes; callers
// typically run it on its own goroutine. Closing the database closes
// the listener.
func (db *DB) Serve(l net.Listener) error {
	go func() {
		<-db.stopCh
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-db.stopCh:
				return ErrClosed
			default:
				return err
			}
		}
		go db.serveConn(conn)
	}
}

func (db *DB) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "QUERY "):
			db.serveQuery(w, strings.TrimPrefix(line, "QUERY "))
		case strings.HasPrefix(line, "AGG "):
			db.serveAggregate(w, strings.TrimPrefix(line, "AGG "))
		default:
			start := db.nowNanos()
			u, err := ParseUpdateLine(line)
			if err != nil {
				// A malformed line is counted and skipped; the stream
				// goes on.
				db.malformed.Add(1)
				continue
			}
			db.obs.stage[obs.StageDecode].Observe(db.nowNanos() - start)
			if db.ApplyUpdate(u) == ErrClosed {
				return
			}
		}
		if w.Flush() != nil {
			return
		}
	}
}

func (db *DB) serveQuery(w io.Writer, q string) {
	rows, err := db.Query(q)
	if err != nil {
		fmt.Fprintf(w, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	for _, e := range rows {
		nanos := int64(0)
		if !e.Generated.IsZero() {
			nanos = e.Generated.UnixNano()
		}
		fmt.Fprintf(w, "ROW %s %d %s %v\n",
			e.Object, nanos, strconv.FormatFloat(e.Value, 'g', -1, 64), e.Stale)
	}
	fmt.Fprintf(w, "OK %d\n", len(rows))
}

func (db *DB) serveAggregate(w io.Writer, q string) {
	v, err := db.Aggregate(q)
	if err != nil {
		fmt.Fprintf(w, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	fmt.Fprintf(w, "VAL %s\n", strconv.FormatFloat(v, 'g', -1, 64))
}

// ParseUpdateLine decodes the wire format used by Serve: three
// space-separated fields,
//
//	<object> <generated-unix-nanoseconds> <value>
//
// A generated time of 0 means "now at ingest".
func ParseUpdateLine(line string) (Update, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return Update{}, fmt.Errorf("strip: update line has %d fields, want 3", len(fields))
	}
	nanos, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Update{}, fmt.Errorf("strip: bad generation timestamp %q: %v", fields[1], err)
	}
	value, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Update{}, fmt.Errorf("strip: bad value %q: %v", fields[2], err)
	}
	u := Update{Object: fields[0], Value: value}
	if nanos != 0 {
		u.Generated = time.Unix(0, nanos)
	}
	return u, nil
}

// FormatUpdateLine encodes an update in the Serve wire format,
// without a trailing newline.
func FormatUpdateLine(u Update) string {
	nanos := int64(0)
	if !u.Generated.IsZero() {
		nanos = u.Generated.UnixNano()
	}
	return fmt.Sprintf("%s %d %s", u.Object, nanos, strconv.FormatFloat(u.Value, 'g', -1, 64))
}

// WriteUpdate writes one update in the wire format to w, newline
// terminated. Feed producers use it to talk to Serve.
func WriteUpdate(w io.Writer, u Update) error {
	_, err := io.WriteString(w, FormatUpdateLine(u)+"\n")
	return err
}
