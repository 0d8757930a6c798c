package oemcrypto

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mp4"
	"repro/internal/wvcrypto"
)

// TestConcurrentSessions drives many sessions in parallel through a full
// license + decrypt cycle on both engines. Run with -race.
func TestConcurrentSessions(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			f.provision(t)

			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					kid := [16]byte{byte(worker + 1)}
					ck := bytes.Repeat([]byte{byte(worker + 0x10)}, 16)
					s := f.license(t, map[[16]byte][]byte{kid: ck})
					if err := f.engine.SelectKey(s, kid); err != nil {
						errs <- err
						return
					}
					plaintext := []byte(fmt.Sprintf("worker-%d-payload-0123456789", worker))
					iv := [8]byte{byte(worker)}
					var counter [16]byte
					copy(counter[:8], iv[:])
					stream, err := wvcrypto.CTRStream(ck, counter[:])
					if err != nil {
						errs <- err
						return
					}
					ct := append([]byte(nil), plaintext...)
					stream.XORKeyStream(ct, ct)
					res, err := f.engine.DecryptCENC(s, mp4.SchemeCENC, iv, nil, ct)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(res.Data, plaintext) {
						errs <- fmt.Errorf("worker %d: decrypt mismatch", worker)
						return
					}
					if err := f.engine.CloseSession(s); err != nil {
						errs <- err
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentTracerSwaps exercises hook install/remove racing with
// traffic (a monitor attaching mid-playback).
func TestConcurrentTracerSwaps(t *testing.T) {
	f := newSoftFixture(t, "15.0")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.engine.SetTracer(func(CallEvent) {})
				f.engine.SetTracer(nil)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		s, err := f.engine.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.engine.CloseSession(s); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkDecryptCENC_L1 measures the TEE path's per-sample decrypt cost,
// the ablation counterpart of BenchmarkDecryptCENC (L3): the difference is
// the world-boundary crossing (framing the sample into the request and the
// result into the response, plus SMC dispatch).
func BenchmarkDecryptCENC_L1(b *testing.B) {
	f := newTEEFixture(b, "15.0")
	f.provision(b)
	kid := [16]byte{1}
	ck := bytes.Repeat([]byte{2}, 16)
	s := f.license(b, map[[16]byte][]byte{kid: ck})
	if err := f.engine.SelectKey(s, kid); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x3C}, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.engine.DecryptCENC(s, mp4.SchemeCENC, [8]byte{1}, nil, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyLadder_Hardened measures the scrubbing ablation's overhead on
// the license flow.
func BenchmarkKeyLadder_Hardened(b *testing.B) {
	f := newHardenedFixture(b)
	f.provision(b)
	kid := [16]byte{1}
	ck := bytes.Repeat([]byte{2}, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f.license(b, map[[16]byte][]byte{kid: ck})
		if err := f.engine.CloseSession(s); err != nil {
			b.Fatal(err)
		}
	}
}
