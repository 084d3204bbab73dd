package mac

import (
	"testing"

	"charisma/internal/channel"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

func TestClassifyPriorityOrder(t *testing.T) {
	v := traffic.NewVoice(traffic.DefaultVoiceParams(), rng.New(1), 0)
	st := NewStation(0, v, nil, nil)
	// Highest priority first: pending beats reserved beats activity.
	st.flags |= flagPendingAtBS | flagReserved
	if got := classify(st); got != bucketPending {
		t.Fatalf("pending station classified %v", got)
	}
	st.flags &^= flagPendingAtBS
	if got := classify(st); got != bucketReserved {
		t.Fatalf("reserved station classified %v", got)
	}
	st.flags &^= flagReserved
	if got := classify(st); got != bucketTalkspurt && got != bucketIdle {
		t.Fatalf("voice station classified %v", got)
	}
	inert := NewStation(1, nil, nil, nil)
	if got := classify(inert); got != bucketIdle {
		t.Fatalf("inert station classified %v", got)
	}
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		if b.has(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.set(i)
		if !b.has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	b.clear(64)
	if b.has(64) {
		t.Fatal("bit 64 survived clear")
	}
	if !b.has(63) || !b.has(129) {
		t.Fatal("clear disturbed neighbours")
	}
}

func registrySystem(t *testing.T, nv, nd int) *System {
	t.Helper()
	n := nv + nd
	stations := make([]*Station, n)
	for i := 0; i < n; i++ {
		var v *traffic.VoiceSource
		var d *traffic.DataSource
		if i < nv {
			v = traffic.NewVoice(traffic.DefaultVoiceParams(), rng.Derive(3, "v", string(rune('a'+i))), 0)
		} else {
			d = traffic.NewData(traffic.DefaultDataParams(), rng.Derive(3, "d", string(rune('a'+i))), 0)
		}
		fad := channel.NewFading(channel.DefaultParams(), rng.Derive(3, "c", string(rune('a'+i))))
		stations[i] = NewStation(i, v, d, fad)
	}
	s, err := NewSystem(DefaultConfig(), phy.NewFixed(phy.DefaultParams()), stations, rng.Derive(3, "m"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemIndexesStations(t *testing.T) {
	s := registrySystem(t, 3, 2)
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
	for i, st := range s.Stations {
		if !s.owns(st) || int(st.slot) != i {
			t.Fatalf("station %d: slot not wired", i)
		}
	}
}

func TestReindexMovesBuckets(t *testing.T) {
	s := registrySystem(t, 2, 0)
	st := s.Stations[0]
	st.flags |= flagReserved
	s.Reindex(st)
	if st.bucket() != bucketReserved || !s.reg.sets[bucketReserved].has(int(st.slot)) {
		t.Fatal("reservation did not move the station to the reserved bucket")
	}
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
	st.flags &^= flagReserved
	s.Reindex(st)
	if s.reg.sets[bucketReserved].has(int(st.slot)) {
		t.Fatal("station left in reserved bucket after release")
	}
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
}

func TestReindexIgnoresForeignStations(t *testing.T) {
	s := registrySystem(t, 1, 0)
	foreign := NewStation(99, nil, nil, nil)
	s.Reindex(foreign) // must not panic or disturb the registry
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
}

func TestIdleStationsWakeOnSourceEvents(t *testing.T) {
	s := registrySystem(t, 40, 10)
	// Drive two simulated seconds: stations must migrate between idle and
	// active buckets as talkspurts and bursts come and go, with the timer
	// wheel (not a full scan) reactivating them.
	sawIdle, sawActive := false, false
	for f := 0; f < 800; f++ {
		s.BeginFrame()
		for _, st := range s.Stations {
			if st.bucket() == bucketIdle {
				sawIdle = true
			} else {
				sawActive = true
			}
			// Consume everything so stations drain back to idle.
			if v := st.Voice(); v != nil {
				for v.Buffered() > 0 {
					v.Pop()
				}
			}
			if d := st.Data(); d != nil {
				d.TransmitAttempts(d.Backlog(), s.Now(), func() bool { return true }, func(sim.Time) {})
			}
			s.Reindex(st)
		}
		s.EndFrame(s.FrameDuration())
		if err := s.VerifyRegistry(); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}
	if !sawIdle || !sawActive {
		t.Fatalf("population never split across idle/active buckets (idle=%v active=%v)", sawIdle, sawActive)
	}
	if s.M.VoiceGenerated.Total() == 0 || s.M.DataGenerated.Total() == 0 {
		t.Fatal("lazily woken stations generated no traffic")
	}
}

// TestLazyChannelReplayMatchesEager pins the byte-identical property of the
// deferred fading replay: observing a station after k idle frames must give
// exactly the amplitude an every-frame advance would have produced.
func TestLazyChannelReplayMatchesEager(t *testing.T) {
	p := channel.DefaultParams()
	eager := channel.NewFading(p, rng.Derive(9, "f"))
	s := registrySystem(t, 1, 0)
	st := s.Stations[0]
	st.fad = channel.NewFading(p, rng.Derive(9, "f"))
	s.reg.chSync[st.slot] = 0

	const k = 57
	for i := 0; i < k; i++ {
		eager.Advance(s.FrameDuration())
		s.EndFrame(s.FrameDuration())
	}
	s.syncChannel(st)
	if got, want := st.fad.Amplitude(), eager.Amplitude(); got != want {
		t.Fatalf("lazy replay amplitude %v, eager %v", got, want)
	}
}

// TestAcknowledgedStationSitsOutItsFrame: an acknowledged station is not a
// contender for the rest of its frame, contends again the next frame, and
// a lazy reset starts with nothing acknowledged.
func TestAcknowledgedStationSitsOutItsFrame(t *testing.T) {
	s := makeSystem(t, 40, 0, func(c *Config) { c.PermVoice = 1.0 })
	var cands []*Station
	for f := 0; f < 100000; f++ {
		s.BeginFrame()
		if cands = s.AppendContenders(nil); len(cands) >= 3 {
			break
		}
		s.EndFrame(s.FrameDuration())
	}
	if len(cands) < 3 {
		t.Fatal("never saw three contenders")
	}
	a, b := cands[0], cands[1]
	s.Acknowledge(a)
	if got := s.AppendContenders(nil); len(got) != len(cands)-1 || got[0] != b {
		t.Fatalf("after acknowledging station %d: contenders %v", a.ID, ids(got))
	}
	// Every transmitting at pv = 1, the lone unacknowledged contender
	// wins; an acknowledged one would have collided with it.
	for _, st := range cands[2:] {
		s.Acknowledge(st)
	}
	if w := s.ContendMinislot(); w != b {
		t.Fatalf("minislot winner %v, want station %d", w, b.ID)
	}
	if w := s.ContendMinislot(); w != nil || len(s.AppendContenders(nil)) != 0 {
		t.Fatalf("the winner contended again in its frame (winner %v)", w)
	}
	s.EndFrame(s.FrameDuration())
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
	s.BeginFrame()
	if got := s.AppendContenders(nil); len(got) == 0 || got[0] != a {
		t.Fatalf("next frame: contenders %v, want station %d first", ids(got), a.ID)
	}

	s.Acknowledge(a)
	pop := &LazyPopulation{
		FirstWake: []sim.Time{1 << 40, 1 << 40},
		Materialize: func(int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
			return nil, nil, nil
		},
	}
	if err := s.ResetLazy(DefaultConfig(), s.PHY, 2, s.Rand, pop); err != nil {
		t.Fatal(err)
	}
	if len(s.reg.acked) != 0 {
		t.Fatalf("reset kept %d acknowledgements", len(s.reg.acked))
	}
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
}

func ids(sts []*Station) []int {
	out := make([]int, len(sts))
	for i, st := range sts {
		out[i] = st.ID
	}
	return out
}
