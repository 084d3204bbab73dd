package trace_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/prof"
	"charisma/internal/trace"
)

func buildCell(t testing.TB, nv int) (*mac.System, mac.Protocol) {
	t.Helper()
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice = nv
	sys, proto, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	proto.Init(sys)
	return sys, proto
}

func runFrames(sys *mac.System, proto mac.Protocol, n int) {
	for i := 0; i < n; i++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	}
}

// parseFlight reads one JSONL dump: the meta line then the frames.
func parseFlight(t *testing.T, path string) (meta map[string]any, frames []trace.FrameEvent) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Meta bool `json:"meta"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", line, err)
		}
		if probe.Meta {
			meta = map[string]any{}
			if err := json.Unmarshal(line, &meta); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var ev trace.FrameEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return meta, frames
}

func TestFlightRingDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	trace.ArmFlight(16, path)
	defer trace.ArmFlight(0, "")

	sys, proto := buildCell(t, 20)
	fl := trace.AttachFlight(sys, 16, "ring-test")
	defer fl.Close()
	runFrames(sys, proto, 400)
	fl.Dump("test")

	meta, frames := parseFlight(t, path)
	if meta == nil {
		t.Fatal("no meta line in dump")
	}
	if got := int64(meta["frames_seen"].(float64)); got != 400 {
		t.Fatalf("frames_seen = %d, want 400", got)
	}
	if got := int64(meta["dropped"].(float64)); got != 400-16 {
		t.Fatalf("dropped = %d, want %d", got, 400-16)
	}
	if len(frames) != 16 {
		t.Fatalf("retained %d frames, want 16", len(frames))
	}
	// Oldest-first, contiguous, ending at the last completed frame.
	for i := 1; i < len(frames); i++ {
		if frames[i].Frame != frames[i-1].Frame+1 {
			t.Fatalf("ring not contiguous at %d: %d then %d", i, frames[i-1].Frame, frames[i].Frame)
		}
	}
	if last := frames[len(frames)-1].Frame; last != 399 {
		t.Fatalf("last frame %d, want 399", last)
	}
	var activity uint64
	for _, ev := range frames {
		activity += ev.Attempts + ev.VoiceOK + ev.VoiceErr + ev.Grants
		if ev.Dur <= 0 {
			t.Fatalf("frame %d has non-positive duration %d", ev.Frame, ev.Dur)
		}
	}
	if activity == 0 {
		t.Fatal("an active voice cell recorded zero MAC activity over 16 frames")
	}
}

func TestFlightDumpsOnDumpAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	trace.ArmFlight(8, path)
	defer trace.ArmFlight(0, "")

	sys, proto := buildCell(t, 10)
	fl := trace.AttachFlight(sys, 8, "anomaly-test")
	defer fl.Close()
	runFrames(sys, proto, 50)
	prof.DumpAll("sweep-anomaly: test")

	meta, frames := parseFlight(t, path)
	if meta == nil || len(frames) != 8 {
		t.Fatalf("DumpAll produced meta=%v frames=%d, want meta + 8 frames", meta, len(frames))
	}
	if meta["reason"] != "sweep-anomaly: test" {
		t.Fatalf("reason = %q", meta["reason"])
	}
}

func TestFlightCloseDetaches(t *testing.T) {
	trace.ArmFlight(8, filepath.Join(t.TempDir(), "flight.jsonl"))
	defer trace.ArmFlight(0, "")
	sys, proto := buildCell(t, 10)
	fl := trace.AttachFlight(sys, 8, "close-test")
	runFrames(sys, proto, 10)
	fl.Close()
	if sys.DebugEndFrame != nil {
		t.Fatal("Close left the DebugEndFrame hook installed")
	}
	runFrames(sys, proto, 10) // must not panic or record
}

// TestRecordingDoesNotPerturbResults: the flight recorder only reads
// the MAC's counters, so an armed run must produce the same result bytes
// as an unrecorded one.
func TestRecordingDoesNotPerturbResults(t *testing.T) {
	run := func(attach bool) mac.Result {
		sys, proto := buildCell(t, 25)
		if attach {
			defer trace.AttachFlight(sys, 64, "perturb-test").Close()
		}
		runFrames(sys, proto, 2000)
		return sys.M.Result("charisma", sys.Cfg.Geometry.FrameSymbols)
	}
	if run(true) != run(false) {
		t.Fatal("flight recording changed simulation results")
	}
}

// TestSIGQUITDumpsFlightJSONL re-executes the test binary, lets the
// helper arm the recorder and raise SIGQUIT against itself, and checks
// the process exits with the dump-handler status and leaves a parseable
// JSONL dump behind — the full operator post-mortem path.
func TestSIGQUITDumpsFlightJSONL(t *testing.T) {
	if os.Getenv("CHARISMA_FLIGHT_SIGQUIT_HELPER") == "1" {
		sigquitHelper()
		return
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=TestSIGQUITDumpsFlightJSONL")
	cmd.Env = append(os.Environ(),
		"CHARISMA_FLIGHT_SIGQUIT_HELPER=1",
		"CHARISMA_FLIGHT_PATH="+path)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("helper exited %v (want exit status 2)\n%s", err, out)
	}
	meta, frames := parseFlight(t, path)
	if meta == nil {
		t.Fatalf("no meta line in SIGQUIT dump\n%s", out)
	}
	if meta["reason"] != "sigquit" {
		t.Fatalf("reason = %q, want sigquit", meta["reason"])
	}
	if len(frames) == 0 {
		t.Fatal("SIGQUIT dump retained no frames")
	}
}

// sigquitHelper runs in the re-executed child: arm, simulate, raise
// SIGQUIT, and wait to be terminated by the dump handler.
func sigquitHelper() {
	trace.ArmFlight(32, os.Getenv("CHARISMA_FLIGHT_PATH"))
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice = 10
	sys, proto, err := sc.Build()
	if err != nil {
		os.Exit(3)
	}
	proto.Init(sys)
	fl := trace.AttachFlight(sys, 32, "sigquit-helper")
	defer fl.Close()
	for i := 0; i < 100; i++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	}
	_ = syscall.Kill(os.Getpid(), syscall.SIGQUIT)
	time.Sleep(30 * time.Second) // the handler exits the process first
	os.Exit(3)
}
