// Package rama implements the RAMA baseline (Amitay & Greenstein [2];
// paper §3.1).
//
// RAMA replaces contention with a collision-free resource *auction*: in
// each auction slot every active user transmits, digit by digit on
// orthogonal frequencies, a randomly generated ID; after each digit the
// base station broadcasts the largest digit heard and smaller bidders drop
// out, so exactly one winner emerges per auction slot. Data users' IDs are
// always smaller than voice users' IDs, giving voice strict priority.
//
// The MAC-visible properties — one guaranteed winner per auction slot,
// voice class wins over data, winner uniformly random within its class —
// are modelled directly (DESIGN.md §3): the paper itself treats residual
// digit ties as negligible for an adequate ID length.
//
// Because every auction succeeds, RAMA never thrashes: the paper observes
// its "much more graceful performance degradation" at very high load.
// Voice winners reserve a transmission every 20 ms; the PHY is fixed-rate.
package rama

import (
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/sim"
)

// Protocol is the RAMA access scheme.
type Protocol struct {
	// voiceBidders/dataBidders are per-auction bidder scratch.
	voiceBidders []*mac.Station
	dataBidders  []*mac.Station
}

// New returns a RAMA instance.
func New() *Protocol { return &Protocol{} }

// Name implements mac.Protocol.
func (p *Protocol) Name() string { return "rama" }

// Init implements mac.Protocol; RAMA keeps no per-station state.
func (p *Protocol) Init(s *mac.System) {}

func (p *Protocol) fixedMode(s *mac.System) phy.Mode { return s.PHY.Modes()[0] }

// auction picks the winner of one auction slot: voice bidders dominate
// (their IDs are constructed larger), and within the winning class the
// randomly drawn IDs make every bidder equally likely to hold the largest.
func (p *Protocol) auction(s *mac.System, voice, data []*mac.Station) *mac.Station {
	pool := voice
	if len(pool) == 0 {
		pool = data
	}
	if len(pool) == 0 {
		return nil
	}
	w := pool[s.Rand.IntN(len(pool))]
	s.M.ReqAttempts.Add(uint64(len(voice) + len(data)))
	s.M.ReqSuccesses.Inc()
	return w
}

// RunFrame implements mac.Protocol.
func (p *Protocol) RunFrame(s *mac.System) sim.Time {
	g := s.Cfg.Geometry
	slotsLeft := g.RAMAInfoSlots
	s.M.AddInfoBudget(slotsLeft * g.InfoSlotSymbols)
	mode := p.fixedMode(s)

	// Reserved voice users hold their periodic slots.
	for _, st := range s.VoiceReservationsDue() {
		if slotsLeft == 0 {
			break
		}
		s.TransmitVoice(st, mode, 1)
		s.AdvanceReservation(st)
		s.M.AddInfoUsed(g.InfoSlotSymbols)
		slotsLeft--
	}

	// Queued winners from previous frames are honoured first (§4.5). At
	// high load reservations absorb the slots before the queue is
	// reached — the paper's explanation for why a queue barely helps
	// RAMA emerges from exactly this ordering.
	for i := 0; i < s.QueueLen() && slotsLeft > 0; {
		r := s.Queue()[i]
		if r.Kind == mac.KindVoice {
			s.TransmitVoice(r.St, mode, 1)
			s.GrantReservation(r.St)
		} else {
			s.TransmitData(r.St, mode, 1)
		}
		s.M.AddInfoUsed(g.InfoSlotSymbols)
		slotsLeft--
		s.FreeRequest(s.PopQueueAt(i))
	}

	// Auction subframe.
	for a := 0; a < g.RAMAAuctionSlots; a++ {
		voice, data := p.bidders(s)
		w := p.auction(s, voice, data)
		if w == nil {
			break
		}
		s.Acknowledge(w)
		kind := s.RequestKind(w)
		r := s.NewRequest(w, kind)
		if slotsLeft > 0 {
			if kind == mac.KindVoice {
				s.TransmitVoice(w, mode, 1)
				s.GrantReservation(w)
			} else {
				s.TransmitData(w, mode, 1)
			}
			s.M.AddInfoUsed(g.InfoSlotSymbols)
			slotsLeft--
			s.FreeRequest(r)
			continue
		}
		if !s.Enqueue(r) {
			s.FreeRequest(r)
		}
	}
	return g.Duration()
}

// bidders splits this frame's contenders, in station-ID order, into the
// voice and data classes. The data class is filtered in place over the
// contender list: each write lands at or before the element just read.
func (p *Protocol) bidders(s *mac.System) (voice, data []*mac.Station) {
	all := s.AppendContenders(p.dataBidders[:0])
	voice, data = p.voiceBidders[:0], all[:0]
	for _, st := range all {
		if s.NeedsVoiceRequest(st) {
			voice = append(voice, st)
		} else {
			data = append(data, st)
		}
	}
	p.voiceBidders, p.dataBidders = voice, all
	return voice, data
}
