package grid

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reflect"

	"charisma/internal/core"
	"charisma/internal/mac"
)

// realResult produces a result with the full float surface exercised, so
// the disk round trip proves exact float preservation.
func realResult(t *testing.T) mac.Result {
	t.Helper()
	r, err := ScenarioSpec(tinyScenario(core.ProtoCharisma, 10, 3)).RunRep(0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDiskCacheRoundTripExact(t *testing.T) {
	c := NewDiskCache(t.TempDir(), nil)
	r := realResult(t)
	key := RepKey("deadbeef", 42)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, r)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("disk round trip not exact:\n%+v\n%+v", r, got)
	}
	if s := c.Stats(); s.DiskCorrupt != 0 || s.DiskPutErrors != 0 {
		t.Fatalf("clean round trip counted faults: %+v", s)
	}
}

func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := NewDiskCache(dir, nil)
	key := RepKey("deadbeef", 1)
	c.Put(key, mac.Result{Protocol: "x"})
	p := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(p, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as hit")
	}
	if s := c.Stats(); s.DiskCorrupt != 1 || s.DiskPutErrors != 0 {
		t.Fatalf("truncated entry: %+v, want DiskCorrupt 1 and no put errors", s)
	}
}

func TestDiskCacheRejectsUnsafeKeys(t *testing.T) {
	c := NewDiskCache(t.TempDir(), nil)
	for _, key := range []string{"", "ab", "../../etc/passwd", "a/b"} {
		c.Put(key, mac.Result{})
		if _, ok := c.Get(key); ok {
			t.Fatalf("unsafe key %q round-tripped", key)
		}
	}
	// A refused key is not a disk failure: it must neither count nor
	// push the tier toward read-only degradation.
	if s := c.Stats(); s.DiskCorrupt != 0 || s.DiskPutErrors != 0 {
		t.Fatalf("refused keys counted as faults: %+v", s)
	}
}

func TestTieredPromotesDiskHits(t *testing.T) {
	disk := NewDiskCache(t.TempDir(), nil)
	key := RepKey("cafe00", 3)
	want := mac.Result{Protocol: "y", Frames: 12.5}
	disk.Put(key, want)
	mem := NewMemCache()
	c := Tiered(mem, disk)
	got, ok := c.Get(key)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("tiered miss through to disk: %v %+v", ok, got)
	}
	if _, ok := mem.Get(key); !ok {
		t.Fatal("disk hit not promoted to memory")
	}
	if s := c.(StatsReporter).Stats(); s.DiskHits != 1 || s.DiskCorrupt != 0 || s.DiskPutErrors != 0 {
		t.Fatalf("tiered stats = %+v, want one disk hit and no faults", s)
	}
}

func TestNewCacheSelectsStack(t *testing.T) {
	if _, ok := NewCache("").(*MemCache); !ok {
		t.Fatal("empty dir should build a memory-only cache")
	}
	if _, ok := NewCache(t.TempDir()).(*tiered); !ok {
		t.Fatal("dir should build a tiered cache")
	}
}

// TestDiskCacheQuarantinesCorruptEntry: an entry that fails its
// integrity check is renamed to <key>.corrupt (kept for post-mortem),
// counted, and never re-read as a miss — a fresh Put of the key lands
// in a clean file.
func TestDiskCacheQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c := NewDiskCache(dir, nil)
	key := RepKey("deadbeef", 1)
	c.Put(key, realResult(t))
	p, _ := c.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as hit")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not moved out of the read path")
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(p), key+".corrupt")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if n := c.Stats().DiskCorrupt; n != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", n)
	}
	// A second Get is a plain miss — the quarantined file is not
	// re-detected (and re-counted) forever.
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after quarantine")
	}
	if n := c.Stats().DiskCorrupt; n != 1 {
		t.Fatalf("DiskCorrupt re-counted: %d", n)
	}
	// The key is writable again.
	want := realResult(t)
	c.Put(key, want)
	got, ok := c.Get(key)
	if !ok || !reflect.DeepEqual(want, got) {
		t.Fatal("fresh put after quarantine did not round-trip")
	}
}

// TestDiskCacheChecksumCatchesSilentCorruption: a flipped digit inside
// the result JSON still parses — only the CRC envelope can tell. The
// entry must be detected and quarantined, never served.
func TestDiskCacheChecksumCatchesSilentCorruption(t *testing.T) {
	dir := t.TempDir()
	c := NewDiskCache(dir, nil)
	key := RepKey("cafebabe", 2)
	c.Put(key, realResult(t))
	p, _ := c.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var e diskEntry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	// Perturb one digit of the payload, keeping the entry valid JSON with
	// the original (now wrong) checksum.
	digits := "0123456789"
	i := bytes.IndexAny(e.Result, digits)
	if i < 0 {
		t.Fatal("no digit to perturb")
	}
	e.Result[i] = digits[(strings.IndexByte(digits, e.Result[i])+1)%10]
	b2, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, b2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("silently corrupted entry served as hit")
	}
	if n := c.Stats().DiskCorrupt; n != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", n)
	}
}

// TestDiskCacheLegacyEntryQuarantined: a v1 entry (bare result JSON, no
// checksum envelope) is unverifiable — quarantined, not trusted.
func TestDiskCacheLegacyEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := NewDiskCache(dir, nil)
	key := RepKey("0ddba11", 3)
	p, _ := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(mac.Result{Protocol: "v1"})
	if err := os.WriteFile(p, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("unverifiable legacy entry served as hit")
	}
	if n := c.Stats().DiskCorrupt; n != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", n)
	}
}

// TestDiskCacheDegradesWhenUnwritable: when the cache directory stops
// accepting writes, the disk tier counts the failures, logs exactly
// once, and stops trying — it degrades instead of spamming errors on
// every Put. (The unwritable dir is simulated by rooting the cache
// under a regular file — ENOTDIR — which fails for root too, unlike
// chmod.)
func TestDiskCacheDegradesWhenUnwritable(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	log := slog.New(slog.NewTextHandler(&buf, nil))
	c := NewDiskCache(filepath.Join(blocker, "cache"), log)
	for i := 0; i < diskDisableAfter+3; i++ {
		c.Put(RepKey("deadbeef", int64(i)), mac.Result{Protocol: "x"})
	}
	st := c.Stats()
	if st.DiskPutErrors != diskDisableAfter {
		t.Fatalf("DiskPutErrors = %d, want %d (writes after degradation must not be attempted)",
			st.DiskPutErrors, diskDisableAfter)
	}
	if n := strings.Count(buf.String(), "degraded"); n != 1 {
		t.Fatalf("degradation logged %d times, want exactly once\n%s", n, buf.String())
	}
	// Reads still answer (as misses) — the tier above carries the session.
	if _, ok := c.Get(RepKey("deadbeef", 0)); ok {
		t.Fatal("impossible hit from an unwritable cache")
	}
}

// TestCacheDelete: eviction reaches both tiers, so a purged key cannot
// resurface from disk on the next miss.
func TestCacheDelete(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	key := RepKey("deadbeef", 9)
	want := mac.Result{Protocol: "z"}
	c.Put(key, want)
	if _, ok := c.Get(key); !ok {
		t.Fatal("miss before delete")
	}
	c.Delete(key)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after delete")
	}
	if _, ok := NewDiskCache(dir, nil).Get(key); ok {
		t.Fatal("delete did not reach the disk tier")
	}
}
