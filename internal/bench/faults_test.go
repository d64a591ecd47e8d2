package bench

import (
	"bytes"
	"testing"
)

// TestFaultsDeterminism is the acceptance gate for the fault machinery's
// reproducibility: the faults experiment's rendered output must be
// byte-identical between a serial run and an 8-worker pool — every cell's
// injector draws from its own seeded streams, so scheduling cannot leak in.
func TestFaultsDeterminism(t *testing.T) {
	s := TinyScale()
	var serial, parallel bytes.Buffer
	if err := writeFaults(&serial, s, nil); err != nil {
		t.Fatalf("serial: %v", err)
	}
	if err := writeFaults(&parallel, s, NewPool(8)); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("faults output differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	if !bytes.Contains(serial.Bytes(), []byte("ECC retry")) {
		t.Fatalf("unexpected faults output:\n%s", serial.String())
	}
}

// TestFaultsRecoveryCounters pins the sweep's semantics at tiny scale: the
// control level injects nothing, and under injection every fault channel
// the sweep exercises shows recovery activity while every surviving read
// verified against the oracle inside the replay.
func TestFaultsRecoveryCounters(t *testing.T) {
	s := TinyScale()
	res, err := RunFaults(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range []string{"C", "E"} {
		for name, fr := range res[mix]["none"] {
			if fr.Lost != 0 || fr.Faults.Injected != 0 {
				t.Errorf("mix %s %s: control level injected %d, failed %d",
					mix, name, fr.Faults.Injected, fr.Lost)
			}
		}
		blk := res[mix]["high"]["Block I/O"]
		pip := res[mix]["high"]["Pipette"]
		if blk.Faults.ECCRetries == 0 || blk.Faults.Uncorrectable == 0 {
			t.Errorf("mix %s block: no ECC activity at high level: %+v", mix, blk.Faults)
		}
		if pip.Faults.RingFallbacks == 0 || pip.Faults.DMAFallbacks == 0 {
			t.Errorf("mix %s pipette: no fine fallbacks at high level: %+v", mix, pip.Faults)
		}
		if blk.Faults.ProgramRetries == 0 || blk.Faults.WritebackRetries == 0 {
			t.Errorf("mix %s block: write-side sites silent: %+v", mix, blk.Faults)
		}
	}
}
