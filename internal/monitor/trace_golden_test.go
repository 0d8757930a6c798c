package monitor_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/monitor"
	"repro/internal/oemcrypto"
	"repro/internal/ott"
	"repro/internal/wideleak"
)

// TestNetflixL1CallTrace_Pinned hooks the L1 device of a default-seed
// Netflix fixture, plays the study title once, and compares the hooked
// _oecc sequence with the committed trace: entry point, session, the
// length, nil-ness and digest of each visible buffer, the wrapped-key
// count and the error. Every probe reads the world through this view, so
// a change below the hook table (the engine, the TEE framing) must leave
// it byte-identical.
func TestNetflixL1CallTrace_Pinned(t *testing.T) {
	var netflix []ott.Profile
	for _, p := range ott.Profiles() {
		if p.Name == "Netflix" {
			netflix = append(netflix, p)
		}
	}
	world, err := wideleak.NewWorld("default", netflix)
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := world.Fixture("Netflix")
	if err != nil {
		t.Fatal(err)
	}
	cell := fixture.ObservationL1()
	if cell == nil {
		t.Fatal("Netflix fixture has no L1 observation cell")
	}

	mon := monitor.New()
	mon.AttachCDM(cell.Device.Engine)
	report := cell.App.Play(wideleak.ContentID)
	mon.Detach()
	if !report.Played() {
		t.Fatalf("Netflix L1 playback failed: %+v", report)
	}

	var sb strings.Builder
	for _, ev := range mon.Events() {
		errText := ""
		if ev.Err != nil {
			errText = ev.Err.Error()
		}
		fmt.Fprintf(&sb, "%s %-26s session=%d lib=%s in=%s out=%s keys=%d err=%q\n",
			ev.Func.OECCName(), ev.Func, ev.Session, ev.Library,
			bufSummary(ev.In), bufSummary(ev.Out), len(ev.Keys), errText)
	}
	got := sb.String()

	path := filepath.Join("testdata", "netflix_l1_trace.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("L1 call trace drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	if n := len(mon.EventsByFunc(oemcrypto.FuncDecryptCENC)); n == 0 {
		t.Error("trace holds no DecryptCENC call")
	}
}

// bufSummary renders one hooked buffer as "nil" or "<len>:<digest>".
func bufSummary(b []byte) string {
	if b == nil {
		return "nil"
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%d:%x", len(b), sum[:6])
}
