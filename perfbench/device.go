package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cdm"
	"repro/internal/dash"
	"repro/internal/license"
	"repro/internal/manifest"
	"repro/internal/monitor"
	"repro/internal/mp4"
	"repro/internal/netsim"
	"repro/internal/oemcrypto"
	"repro/internal/provision"
	"repro/internal/wideleak"
	"repro/internal/wvcrypto"
)

// Repetitions of each device-path measurement.
const (
	playRepeats     = 3
	exchangeRepeats = 15
	decryptSamples  = 16
	sampleBytes     = 4096
	cryptoRepeats   = 20
	cmacBatch       = 200
	manifestRepeats = 30
)

// cmacPerDerivation is how many CMAC blocks one session-key derivation
// computes: a 128-bit encryption key and a 512-bit MAC key pair.
const cmacPerDerivation = 5

// levelStats is one security level's license-exchange replay.
type levelStats struct {
	requestMS, handleMS, responseMS, decryptMS, provisionMS []float64

	exchangeCalls int // _oecc calls in one license request+response
	sequenceCalls int // the same plus the sample decrypts after it
}

func (l *levelStats) exchangeMS() float64 {
	return median(l.requestMS) + median(l.handleMS) + median(l.responseMS)
}

// devStats is what timing the device path layer by layer measured, on
// fixtures the benchmark builds itself.
type devStats struct {
	keygenMS []float64

	playMS                          map[string][]float64 // by level
	plays, l1Plays                  int
	calls, l1Calls                  int
	signs, oaeps, derivations       int
	exchanges                       int
	retries                         int64
	levels                          map[string]*levelStats
	signMS, oaepMS, cmacMS          []float64
	repackUS, parseUS               map[string][]float64
	manifestDialects, repackDialect []string
}

// measureDevicePath times calls into the device-side layers from the
// benchmark's own code: playbacks (ott) with the monitor hooked on each
// device engine (oemcrypto) and a network tap (netsim), a license and
// provisioning replay at L1 and L3 (cdm, license, provision, tee), the
// crypto primitives (wvcrypto), and manifest repack and parse per
// dialect (cdn, manifest). The world is the benchmark's own, separate
// from any study, so no study's tracer is displaced.
func measureDevicePath(ctx context.Context, pool *provision.KeyPool, spans *spanLog) (*devStats, error) {
	spans.on.Store(true)
	defer spans.on.Store(false)
	const opID = 1 << 33
	dev := &devStats{
		playMS:   make(map[string][]float64),
		levels:   make(map[string]*levelStats),
		repackUS: make(map[string][]float64),
		parseUS:  make(map[string][]float64),
	}
	world, err := wideleak.NewWorld(worldSeed, nil)
	if err != nil {
		return nil, err
	}
	if err := world.AttachKeyPool(pool); err != nil {
		return nil, err
	}
	world.InstallFaults(wideleak.FaultSpec{Seed: "perfbench-device", Default: wideleak.TransientFaults(faultRate)})
	var retries atomic.Int64
	network := world.Network
	network.SetRetryObserver(netsim.CombineRetryObservers(network.RetryObserver(), func(string, int, error) { retries.Add(1) }))

	// ott / oemcrypto / netsim: every app, observation L1 and L3 cells.
	for _, app := range appNames {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f, err := world.Fixture(app)
		if err != nil {
			return nil, err
		}
		for _, lv := range []struct {
			name string
			cell *wideleak.DeviceCell
		}{{"l1", f.ObservationL1()}, {"l3", f.ObservationL3()}} {
			if lv.cell == nil {
				continue
			}
			mon := monitor.New()
			mon.AttachCDM(lv.cell.Device.Engine)
			tap := mon.InterceptNetwork(lv.cell.App.NetworkClient())
			for r := 0; r < playRepeats; r++ {
				d := spans.timed(opID, "ott.Play "+lv.name, func() { lv.cell.App.Play(wideleak.ContentID) })
				dev.playMS[lv.name] = append(dev.playMS[lv.name], ms(d))
			}
			events := mon.Events()
			mon.Detach()
			dev.plays += playRepeats
			dev.calls += len(events)
			dev.exchanges += len(tap.Exchanges())
			if lv.name == "l1" {
				dev.l1Plays += playRepeats
				dev.l1Calls += len(events)
			}
			for _, ev := range events {
				switch ev.Func {
				case oemcrypto.FuncGenerateRSASignature:
					dev.signs++
				case oemcrypto.FuncDeriveKeysFromSessionKey:
					dev.oaeps++
					dev.derivations++
				case oemcrypto.FuncGenerateDerivedKeys:
					dev.derivations++
				}
			}
		}
	}
	dev.retries = retries.Load()

	// cdm / license / provision: replay the exchanges on Netflix's
	// already-provisioned L1 and L3 devices.
	const app = "Netflix"
	dep := world.Deployment(app)
	entries, ok := dep.KeyDB().Lookup(wideleak.ContentID)
	if !ok {
		return nil, fmt.Errorf("device path: no keys for %s", wideleak.ContentID)
	}
	kids := make([][16]byte, len(entries))
	for i, e := range entries {
		kids[i] = e.KID
	}
	licSrv := license.NewServer(dep.KeyDB(), world.Registry, license.Policy{}, rand.Reader)
	provSrv := provision.NewServer(world.Registry, provision.Policy{}, rand.Reader)
	f, err := world.Fixture(app)
	if err != nil {
		return nil, err
	}
	for _, lv := range []struct {
		name string
		cell *wideleak.DeviceCell
	}{{"l1", f.ObservationL1()}, {"l3", f.ObservationL3()}} {
		ls := &levelStats{}
		dev.levels[lv.name] = ls
		mon := monitor.New()
		mon.AttachCDM(lv.cell.Device.Engine)
		cl := cdm.NewClient(lv.cell.Device.Engine, rand.Reader)
		for r := 0; r < exchangeRepeats; r++ {
			s, err := cl.OpenSession()
			if err != nil {
				return nil, fmt.Errorf("device path: %s open session: %w", lv.name, err)
			}
			mon.Reset()
			var (
				req  *cdm.SignedLicenseRequest
				resp *cdm.LicenseResponse
				errs [4]error
			)
			ls.requestMS = append(ls.requestMS, ms(spans.timed(opID, "cdm.CreateLicenseRequest "+lv.name, func() {
				req, errs[0] = cl.CreateLicenseRequest(s, wideleak.ContentID, kids)
			})))
			if errs[0] == nil {
				ls.handleMS = append(ls.handleMS, ms(spans.timed(opID, "license.HandleRequest "+lv.name, func() {
					resp, errs[1] = licSrv.HandleRequest(req)
				})))
			}
			if errs[1] == nil && errs[0] == nil {
				ls.responseMS = append(ls.responseMS, ms(spans.timed(opID, "cdm.ProcessLicenseResponse "+lv.name, func() {
					errs[2] = cl.ProcessLicenseResponse(s, req, resp)
				})))
			}
			ls.exchangeCalls = len(mon.Events())
			if errs[2] == nil {
				iv := [8]byte{1}
				sample := make([]byte, sampleBytes)
				ls.decryptMS = append(ls.decryptMS, ms(spans.timed(opID, "cdm.Decrypt "+lv.name, func() {
					for i := 0; i < decryptSamples && errs[2] == nil; i++ {
						_, errs[2] = cl.Decrypt(s, kids[0], mp4.SchemeCENC, iv, nil, sample)
					}
				})))
			}
			ls.sequenceCalls = len(mon.Events())
			preq, err := cl.CreateProvisioningRequest(s)
			if err == nil {
				ls.provisionMS = append(ls.provisionMS, ms(spans.timed(opID, "provision.Provision "+lv.name, func() {
					_, errs[3] = provSrv.Provision(preq)
				})))
			} else {
				errs[3] = err
			}
			cl.CloseSession(s)
			for _, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("device path: %s license replay: %w", lv.name, err)
				}
			}
		}
		mon.Detach()
	}

	// wvcrypto primitives with a pooled Device RSA key, loaded the way
	// an engine loads it (parsed from DER, so CRT values are precomputed).
	pooled, err := pool.Key(wideleak.DeviceStableIDs(nil)[0])
	if err != nil {
		return nil, err
	}
	key, err := wvcrypto.ParseRSAPrivateKey(wvcrypto.MarshalRSAPrivateKey(pooled))
	if err != nil {
		return nil, err
	}
	msg := make([]byte, 512)
	ct, err := wvcrypto.EncryptOAEP(rand.Reader, &key.PublicKey, make([]byte, 16))
	if err != nil {
		return nil, err
	}
	macKey := make([]byte, 16)
	for r := 0; r < cryptoRepeats; r++ {
		var errs [2]error
		dev.signMS = append(dev.signMS, ms(spans.timed(opID, "wvcrypto.SignPSS", func() { _, errs[0] = wvcrypto.SignPSS(rand.Reader, key, msg) })))
		dev.oaepMS = append(dev.oaepMS, ms(spans.timed(opID, "wvcrypto.DecryptOAEP", func() { _, errs[1] = wvcrypto.DecryptOAEP(key, ct) })))
		start := time.Now()
		for i := 0; i < cmacBatch; i++ {
			if _, err := wvcrypto.CMAC(macKey, msg[:64]); err != nil {
				return nil, err
			}
		}
		dev.cmacMS = append(dev.cmacMS, ms(time.Since(start))/cmacBatch)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("device path: crypto: %w", err)
			}
		}
	}

	// cdn repack (canonical DASH parsed and re-serialized) and client
	// manifest parse, per dialect.
	canonical, ok := dep.CDN().Manifest(wideleak.ContentID)
	if !ok {
		return nil, fmt.Errorf("device path: no manifest for %s", wideleak.ContentID)
	}
	for _, name := range manifest.Names() {
		dl, err := manifest.ByName(name)
		if err != nil {
			return nil, err
		}
		var wire []byte
		for r := 0; r < manifestRepeats; r++ {
			var errs [3]error
			d := spans.timed(opID, "cdn.repack "+name, func() {
				var mpd *dash.MPD
				if mpd, errs[0] = dash.Parse(canonical); errs[0] == nil {
					wire, errs[1] = dl.Serialize(mpd)
				}
			})
			dev.repackUS[name] = append(dev.repackUS[name], float64(d)/1e3)
			d = spans.timed(opID, "manifest.Parse "+name, func() { _, errs[2] = dl.Parse(wire) })
			dev.parseUS[name] = append(dev.parseUS[name], float64(d)/1e3)
			for _, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("device path: manifest %s: %w", name, err)
				}
			}
		}
		dev.manifestDialects = append(dev.manifestDialects, name)
		if name != manifest.DefaultName {
			dev.repackDialect = append(dev.repackDialect, name)
		}
	}
	return dev, nil
}

// boundaryMS is the TEE boundary cost of one _oecc call: the L1 minus
// the L3 time of the same call sequence (license request, response and
// sample decrypts), over its call count.
func (d *devStats) boundaryMS() float64 {
	l1, l3 := d.levels["l1"], d.levels["l3"]
	seq := func(l *levelStats) float64 {
		return median(l.requestMS) + median(l.responseMS) + median(l.decryptMS)
	}
	return ratio(seq(l1)-seq(l3), float64(l1.sequenceCalls))
}

func (d *devStats) perPlay(n int) float64 { return ratio(float64(n), float64(d.plays)) }

func (d *devStats) report(put func(name, unit string, v float64, n int)) {
	put("ott.play_l1_ms_p50", "ms", median(d.playMS["l1"]), len(d.playMS["l1"]))
	put("ott.play_l3_ms_p50", "ms", median(d.playMS["l3"]), len(d.playMS["l3"]))
	put("netsim.exchanges_per_playback", "count", d.perPlay(d.exchanges), 0)
	put("netsim.retries_per_playback", "count", ratio(float64(d.retries), float64(d.plays)), 0)
	for _, name := range d.repackDialect {
		put("cdn.repack_us."+name, "us", median(d.repackUS[name]), len(d.repackUS[name]))
	}
	for _, name := range d.manifestDialects {
		put("manifest.parse_us."+name, "us", median(d.parseUS[name]), len(d.parseUS[name]))
	}
	for _, lv := range []string{"l1", "l3"} {
		ls := d.levels[lv]
		put("license.handle_ms_p50."+lv, "ms", median(ls.handleMS), len(ls.handleMS))
		put("provision.provision_ms_p50."+lv, "ms", median(ls.provisionMS), len(ls.provisionMS))
		put("cdm.license_request_ms_p50."+lv, "ms", median(ls.requestMS), len(ls.requestMS))
		put("cdm.license_response_ms_p50."+lv, "ms", median(ls.responseMS), len(ls.responseMS))
	}
	put("oemcrypto.calls_per_playback", "count", d.perPlay(d.calls), 0)
	put("oemcrypto.rsa_ops_per_playback", "count", d.perPlay(d.signs+d.oaeps), 0)
	put("tee.boundary_us_per_call", "us", d.boundaryMS()*1e3, d.levels["l1"].sequenceCalls)
	put("wvcrypto.sign_pss_us", "us", median(d.signMS)*1e3, len(d.signMS))
	put("wvcrypto.decrypt_oaep_us", "us", median(d.oaepMS)*1e3, len(d.oaepMS))
	put("wvcrypto.cmac_us", "us", median(d.cmacMS)*1e3, len(d.cmacMS)*cmacBatch)
	put("provision.keygen_ms_p50", "ms", median(d.keygenMS), len(d.keygenMS))
}
