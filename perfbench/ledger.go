package main

// ledger splits one op's execute time into layer shares. Each share is
// a count per op (from the library replay) times a unit cost (from the
// device path), over the served execute time per op (status wall_ms for
// studies, the slowest part's wall_ms for batches; tier-1 hits count as
// zero). Each layer's cost is its self cost: the layers below it are
// subtracted, and a negative remainder is clamped to zero. What the
// layers do not explain is ledger.unattributed_share; batches run their
// chains in parallel, so their shares can sum past one.
func ledger(lib *libStats, dev *devStats, executeMS float64, put func(name, unit string, v float64, n int)) {
	perOp := func(n int) float64 { return ratio(float64(n), float64(lib.ops)) }
	plays := perOp(lib.playbacks())
	l1Plays := perOp(lib.observations)
	worlds := perOp(lib.worldsBuilt)

	signMS, oaepMS, cmacMS := median(dev.signMS), median(dev.oaepMS), median(dev.cmacMS)
	var parseMS, repackMS []float64
	for _, name := range dev.manifestDialects {
		parseMS = append(parseMS, median(dev.parseUS[name])/1e3)
	}
	for _, name := range dev.repackDialect {
		repackMS = append(repackMS, median(dev.repackUS[name])/1e3)
	}
	playMS := mean([]float64{median(dev.playMS["l1"]), median(dev.playMS["l3"])})
	exchangeMS := mean([]float64{dev.levels["l1"].exchangeMS(), dev.levels["l3"].exchangeMS()})
	boundaryMS := max(0, dev.boundaryMS())

	layers := map[string]float64{}
	layers["wvcrypto"] = plays * (dev.perPlay(dev.signs)*signMS + dev.perPlay(dev.oaeps)*oaepMS +
		dev.perPlay(dev.derivations)*cmacPerDerivation*cmacMS)
	layers["tee"] = l1Plays * ratio(float64(dev.l1Calls), float64(dev.l1Plays)) * boundaryMS
	// One license exchange per playback: a PSS signature, an OAEP
	// decryption and one key derivation, plus the L1 boundary crossings
	// of its calls at L1.
	exchangeCrypto := signMS + oaepMS + cmacPerDerivation*cmacMS
	exchangeTEE := ratio(l1Plays, plays) * float64(dev.levels["l1"].exchangeCalls) * boundaryMS
	layers["license"] = plays * max(0, exchangeMS-exchangeCrypto-exchangeTEE)
	layers["manifest"] = plays*mean(parseMS) + worlds*mean(repackMS)
	layers["ott"] = plays * max(0, playMS-exchangeMS-mean(parseMS))
	layers["wideleak"] = worlds * median(lib.buildMS)

	attributed := 0.0
	for _, name := range []string{"wideleak", "ott", "manifest", "license", "tee", "wvcrypto"} {
		share := ratio(layers[name], executeMS)
		attributed += share
		put("ledger."+name+"_share", "ratio", share, 0)
	}
	put("ledger.unattributed_share", "ratio", 1-attributed, 0)
	put("ledger.execute_ms_per_op", "ms", executeMS, 0)
}
