package exp

import (
	"fmt"
	"sort"

	"pcc/internal/netem"
)

// maxPerLinkNotes is the report threshold between per-link notes and the
// aggregate conservation summary: topologies up to this many links list
// every link; generated topologies above it (a transit-stub WAN has
// hundreds) get totals plus the loss-heaviest links, because a per-link
// dump would drown the report.
const maxPerLinkNotes = 20

// topOffenderNotes is how many loss-heaviest links the aggregate summary
// names individually.
const topOffenderNotes = 5

// LinkStatsNotes renders the runner's per-link accounting as report notes
// (AddLink order, so output is deterministic).
func (r *Runner) LinkStatsNotes() []string { return r.linkNotes(false) }

// FaultStatsNotes is LinkStatsNotes including the fault ledger and the
// conservation verdict. Chaos drivers use it so every down/up and
// partition/heal transition is auditable in the report (and a conservation
// violation is visible as conserved=false rather than silently wrong
// goodput).
func (r *Runner) FaultStatsNotes() []string { return r.linkNotes(true) }

// linkNotes renders one note per link, with or without the fault ledger.
// Topologies with more than maxPerLinkNotes links get the byte-conservation
// audit instead: one aggregate line (link count, conserved/violated split,
// byte totals per ledger term), the topOffenderNotes loss-heaviest links (by
// wire-lost + queue-dropped + fault-dropped bytes, AddLink order on ties —
// deterministic), and one line per non-conserved link with its full ledger,
// so a violation is never hidden by the summarization.
func (r *Runner) linkNotes(ledger bool) []string {
	stats := r.Topo.Stats()
	var notes []string
	if len(stats) <= maxPerLinkNotes {
		for _, s := range stats {
			note := fmt.Sprintf("link %s: delivered=%d wire_lost=%d queue_dropped=%d",
				s.Name, s.Delivered, s.WireLost, s.QueueDropped)
			if ledger {
				note += fmt.Sprintf(" fault_dropped=%d conserved=%v", s.FaultDropped, s.Conserved())
			}
			notes = append(notes, note)
		}
		return notes
	}
	var delivered, wireLost, queueDropped, faultDropped int64
	violated := 0
	for i := range stats {
		s := &stats[i]
		delivered += s.DeliveredBytes
		wireLost += s.WireLostBytes
		queueDropped += s.QueueDroppedBytes
		faultDropped += s.FaultDroppedBytes
		if !s.Conserved() {
			violated++
		}
	}
	notes = append(notes, fmt.Sprintf(
		"links: %d total, %d conserved, %d violated; bytes delivered=%d wire_lost=%d queue_dropped=%d fault_dropped=%d",
		len(stats), len(stats)-violated, violated, delivered, wireLost, queueDropped, faultDropped))

	lossBytes := func(s *netem.LinkStats) int64 {
		return s.WireLostBytes + s.QueueDroppedBytes + s.FaultDroppedBytes
	}
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return lossBytes(&stats[order[a]]) > lossBytes(&stats[order[b]])
	})
	for k := 0; k < topOffenderNotes && k < len(order); k++ {
		s := &stats[order[k]]
		if lossBytes(s) == 0 {
			break
		}
		notes = append(notes, fmt.Sprintf(
			"top_loss %d: link %s: wire_lost_B=%d queue_dropped_B=%d fault_dropped_B=%d delivered_B=%d conserved=%v",
			k+1, s.Name, s.WireLostBytes, s.QueueDroppedBytes, s.FaultDroppedBytes, s.DeliveredBytes, s.Conserved()))
	}
	for i := range stats {
		s := &stats[i]
		if s.Conserved() {
			continue
		}
		notes = append(notes, fmt.Sprintf(
			"VIOLATED link %s: offered_B=%d delivered_B=%d wire_lost_B=%d queue_dropped_B=%d fault_dropped_B=%d queued_B=%d tx_B=%d",
			s.Name, s.OfferedBytes, s.DeliveredBytes, s.WireLostBytes, s.QueueDroppedBytes, s.FaultDroppedBytes, s.QueuedBytes, s.TxBytes))
	}
	return notes
}
