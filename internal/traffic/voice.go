// Package traffic implements the paper's source models (§2):
//
//   - Voice: a source toggling between talkspurt and silence states with
//     exponentially distributed durations (means t̄t = 1.0 s and
//     t̄s = 1.35 s, from Gruber & Strawczynski's empirical study [10]).
//     During a talkspurt the 8 kbps codec emits one 160-bit packet every
//     20 ms; each packet carries a deadline 20 ms after generation and is
//     dropped, unsent, if the deadline expires first.
//
//   - Data: file transfers arriving as a Poisson process (exponential
//     inter-arrival, mean 1 s) with exponentially distributed burst sizes
//     (mean 100 packets). Data packets are delay-insensitive: they are
//     never dropped by the source, and corrupted transmissions are
//     retransmitted by the data link layer, so channel errors convert into
//     extra queueing delay.
//
// Sources realize their stochastic timeline lazily at frame boundaries
// (the paper: "we assume a talkspurt and a silence period start only at a
// frame boundary" / "packets arrive at a frame boundary"), which also
// supports the variable-length frames of the RMAV protocol.
package traffic

import (
	"fmt"

	"charisma/internal/rng"
	"charisma/internal/sim"
)

// VoiceParams configures a voice source.
type VoiceParams struct {
	// MeanTalkSec and MeanSilenceSec are the exponential state-duration
	// means (Table 1: 1.0 s and 1.35 s).
	MeanTalkSec    float64
	MeanSilenceSec float64
	// Period is the packet generation interval (20 ms).
	Period sim.Time
	// Deadline is the packet lifetime after generation (20 ms, §5.1
	// footnote 4).
	Deadline sim.Time
}

// DefaultVoiceParams returns the paper's Table 1 voice model.
func DefaultVoiceParams() VoiceParams {
	return VoiceParams{
		MeanTalkSec:    1.0,
		MeanSilenceSec: 1.35,
		Period:         20 * sim.Millisecond,
		Deadline:       20 * sim.Millisecond,
	}
}

// ActivityFactor returns the stationary probability of being in a
// talkspurt, t̄t/(t̄t+t̄s) ≈ 0.426 for the defaults.
func (p VoiceParams) ActivityFactor() float64 {
	return p.MeanTalkSec / (p.MeanTalkSec + p.MeanSilenceSec)
}

// Validate reports configuration errors.
func (p VoiceParams) Validate() error {
	if p.MeanTalkSec <= 0 || p.MeanSilenceSec <= 0 {
		return fmt.Errorf("traffic: non-positive voice state means %v/%v", p.MeanTalkSec, p.MeanSilenceSec)
	}
	if p.Period <= 0 || p.Deadline <= 0 {
		return fmt.Errorf("traffic: non-positive voice period/deadline")
	}
	return nil
}

// VoicePacket is one speech packet waiting in the mobile device's buffer.
type VoicePacket struct {
	Born     sim.Time
	Deadline sim.Time
}

// VoiceSource is the talkspurt/silence on-off speech model.
type VoiceSource struct {
	p   VoiceParams
	rnd *rng.Stream

	talking  bool
	stateEnd sim.Time
	nextPkt  sim.Time

	buf  []VoicePacket
	head int

	generated uint64
	dropped   uint64
}

// NewVoice creates a voice source whose initial state is drawn from the
// stationary distribution, so measurements need no per-source warm-up for
// the on-off process itself.
func NewVoice(p VoiceParams, stream *rng.Stream, now sim.Time) *VoiceSource {
	v := &VoiceSource{}
	v.Reset(p, stream, now)
	return v
}

// Reset re-initializes v in place exactly as NewVoice would — same
// draws, same order, same initial state — while reusing the packet
// buffer's capacity. The slab-allocated population path (internal/core's
// replication arena) rebuilds each station's source into the previous
// replication's memory with this.
func (v *VoiceSource) Reset(p VoiceParams, stream *rng.Stream, now sim.Time) {
	*v = VoiceSource{p: p, rnd: stream, buf: v.buf[:0]}
	v.talking = stream.Bernoulli(p.ActivityFactor())
	if v.talking {
		v.stateEnd = now + sim.FromSeconds(stream.Exp(p.MeanTalkSec))
		v.nextPkt = now
	} else {
		v.stateEnd = now + sim.FromSeconds(stream.Exp(p.MeanSilenceSec))
	}
}

// Talking reports whether the source is currently in a talkspurt.
func (v *VoiceSource) Talking() bool { return v.talking }

// Advance realizes all state toggles and packet generations scheduled up to
// and including now, returning how many packets were generated. Packets are
// stamped with their scheduled generation time (not the observation time),
// so deadlines are exact even across long variable frames.
func (v *VoiceSource) Advance(now sim.Time) int {
	gen := 0
	for {
		if v.talking && v.nextPkt < v.stateEnd {
			// Next event is either a packet or the talkspurt end,
			// whichever is earlier; packets win ties below stateEnd.
			if v.nextPkt > now {
				return gen
			}
			v.buf = append(v.buf, VoicePacket{Born: v.nextPkt, Deadline: v.nextPkt + v.p.Deadline})
			v.generated++
			gen++
			v.nextPkt += v.p.Period
			continue
		}
		if v.stateEnd > now {
			return gen
		}
		at := v.stateEnd
		v.talking = !v.talking
		if v.talking {
			v.stateEnd = at + sim.FromSeconds(v.rnd.Exp(v.p.MeanTalkSec))
			v.nextPkt = at
		} else {
			v.stateEnd = at + sim.FromSeconds(v.rnd.Exp(v.p.MeanSilenceSec))
		}
	}
}

// NextEventAt returns the time of the source's next scheduled event — a
// packet generation or a talk/silence toggle. Advance(t) is a no-op for
// every t before it, which is what lets an idle station sleep in the MAC's
// wake queue instead of being advanced every frame.
func (v *VoiceSource) NextEventAt() sim.Time {
	if v.talking && v.nextPkt < v.stateEnd {
		return v.nextPkt
	}
	return v.stateEnd
}

// Buffered returns the number of packets awaiting transmission.
func (v *VoiceSource) Buffered() int { return len(v.buf) - v.head }

// Oldest returns the oldest buffered packet without removing it.
func (v *VoiceSource) Oldest() (VoicePacket, bool) {
	if v.Buffered() == 0 {
		return VoicePacket{}, false
	}
	return v.buf[v.head], true
}

// Pop removes and returns the oldest buffered packet.
func (v *VoiceSource) Pop() (VoicePacket, bool) {
	if v.Buffered() == 0 {
		return VoicePacket{}, false
	}
	pkt := v.buf[v.head]
	v.head++
	v.compact()
	return pkt, true
}

// DropExpired discards packets whose deadline is at or before now,
// returning how many were dropped — the "packet dropping" component of the
// paper's voice loss rate.
func (v *VoiceSource) DropExpired(now sim.Time) int {
	n := 0
	for v.Buffered() > 0 && v.buf[v.head].Deadline <= now {
		v.head++
		n++
	}
	v.dropped += uint64(n)
	v.compact()
	return n
}

func (v *VoiceSource) compact() {
	if v.head == len(v.buf) {
		v.buf = v.buf[:0]
		v.head = 0
	} else if v.head > 64 && v.head > len(v.buf)/2 {
		v.buf = append(v.buf[:0], v.buf[v.head:]...)
		v.head = 0
	}
}

// Generated returns the lifetime count of generated packets.
func (v *VoiceSource) Generated() uint64 { return v.generated }

// Dropped returns the lifetime count of deadline-dropped packets.
func (v *VoiceSource) Dropped() uint64 { return v.dropped }
