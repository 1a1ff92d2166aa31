package scenario

import (
	"fmt"
	"time"
)

// assertResult is one evaluated assertion.
type assertResult struct {
	kind   string
	ok     bool
	detail string
}

// evaluate runs every declared assertion against the settled rig, in
// declaration order.
func evaluate(sc *Scenario, r *rig) []assertResult {
	var out []assertResult
	for _, a := range sc.Assertions {
		res := assertResult{kind: a.Kind}
		switch a.Kind {
		case "convergence":
			if err := r.converge(20 * time.Second); err != nil {
				res.detail = err.Error()
			} else {
				res.ok = true
				res.detail = fmt.Sprintf("%d live nodes byte-identical", len(r.aliveNodes()))
			}
		case "progress":
			var most uint64
			for _, n := range r.aliveNodes() {
				if got := n.db.Stats().UpdatesReceived; got > most {
					most = got
				}
			}
			res.ok = float64(most) >= a.Min
			res.detail = fmt.Sprintf("%d updates received, want >= %g", most, a.Min)
		case "staleness_p99":
			out = append(out, headHistogram(r, a, "strip_staleness_seconds"))
			continue
		case "uu_p99":
			out = append(out, headHistogram(r, a, "strip_uu_backlog_updates"))
			continue
		case "staleness_max":
			head, _ := r.head()
			if head == nil {
				res.detail = "no live head"
				break
			}
			v, ok := head.reg.Value("strip_staleness_max_seconds")
			if !ok {
				res.detail = "strip_staleness_max_seconds not registered"
				break
			}
			res.ok = v <= a.Max
			res.detail = fmt.Sprintf("max staleness %.4fs on %s, want <= %g", v, head.name, a.Max)
		case "faults_injected":
			got := r.faultsTotal()
			res.ok = float64(got) >= a.Min
			res.detail = fmt.Sprintf("%d faults injected, want >= %g", got, a.Min)
		case "reconnects":
			var total float64
			for _, n := range r.aliveNodes() {
				if v, ok := n.reg.Value("strip_repl_reconnects_total"); ok {
					total += v
				}
			}
			res.ok = (!a.HasMin || total >= a.Min) && (!a.HasMax || total <= a.Max)
			res.detail = fmt.Sprintf("%g reconnects across live replicas (min=%g have_min=%v max=%g have_max=%v)",
				total, a.Min, a.HasMin, a.Max, a.HasMax)
		case "durability":
			r.mu.Lock()
			markers, failures := len(r.markers), append([]string(nil), r.durFail...)
			r.mu.Unlock()
			switch {
			case markers == 0:
				res.detail = "no durability markers were ever synced before a kill"
			case len(failures) > 0:
				res.detail = fmt.Sprintf("%v", failures)
			default:
				res.ok = true
				res.detail = fmt.Sprintf("%d synced markers all survived recovery", markers)
			}
		case "one_winner":
			bad, promotions := r.win.violations()
			var conflicts []string
			for _, n := range r.aliveNodes() {
				conflicts = append(conflicts, n.node.Conflicts()...)
			}
			switch {
			case len(bad) > 0:
				res.detail = fmt.Sprintf("%v", bad)
			case len(conflicts) > 0:
				res.detail = fmt.Sprintf("decision conflicts: %v", conflicts)
			case promotions == 0:
				res.detail = "no node was ever promoted"
			default:
				res.ok = true
				res.detail = fmt.Sprintf("%d promotions, one winner per epoch", promotions)
			}
		case "rebootstrap":
			if revived, err := r.rebootstrapped(20 * time.Second); err != nil {
				res.detail = err.Error()
			} else {
				res.ok = true
				res.detail = fmt.Sprintf("%d restarted nodes re-bootstrapped as replicas of a later epoch", revived)
			}
		case "degraded":
			// One database life must have both entered degraded mode
			// (WAL errors failing commits) and healed out of it.
			for _, st := range r.statRecords() {
				if st.WALErrors > 0 && st.TxnsFailedDurability > 0 && st.DegradedHeals >= 1 && !st.Degraded {
					res.ok = true
					res.detail = fmt.Sprintf("entered (wal_errors=%d, failed_commits=%d) and healed (%d heals)",
						st.WALErrors, st.TxnsFailedDurability, st.DegradedHeals)
					break
				}
			}
			if !res.ok {
				res.detail = describeDegraded(r)
			}
		default:
			res.detail = "unknown assertion kind"
		}
		out = append(out, res)
	}
	return out
}

// headHistogram bounds the p99 of a head-node histogram.
func headHistogram(r *rig, a Assertion, name string) assertResult {
	res := assertResult{kind: a.Kind}
	head, _ := r.head()
	if head == nil {
		res.detail = "no live head"
		return res
	}
	h, ok := head.reg.HistogramFor(name)
	if !ok {
		res.detail = name + " not registered"
		return res
	}
	if h.Count() == 0 {
		res.detail = name + " observed nothing"
		return res
	}
	p99 := h.Quantile(0.99)
	res.ok = p99 <= a.Max
	res.detail = fmt.Sprintf("%s p99 <= %.4g on %s over %d observations, want <= %g",
		name, p99, head.name, h.Count(), a.Max)
	return res
}

// describeDegraded explains which half of the degraded lifecycle was
// never observed.
func describeDegraded(r *rig) string {
	var entered, healed bool
	for _, st := range r.statRecords() {
		if st.WALErrors > 0 && st.TxnsFailedDurability > 0 {
			entered = true
			if st.DegradedHeals >= 1 && !st.Degraded {
				healed = true
			}
		}
	}
	switch {
	case !entered:
		return "no database life both logged WAL errors and failed commits"
	case !healed:
		return "a life entered degraded mode but never healed (needs a checkpoint after the window)"
	default:
		return "entered and healed on different lives"
	}
}
