package workload

import "testing"

// TestGoldenFingerprints pins the full report fingerprint of three
// seeded runs — mesh, gossip, and durable stores under crashes with a
// torn WAL tail. Every counter, histogram, digest and byte total feeds
// the fingerprint, so a refactor or optimisation that claims to change
// nothing observable proves it here. A deliberate behaviour change
// updates these values in the same commit and says why.
func TestGoldenFingerprints(t *testing.T) {
	mesh := smokeSpec(11)
	gossip := smokeSpec(11)
	gossip.Topology = "gossip"
	durable := smokeSpec(13)
	durable.StoreDir = t.TempDir()
	durable.Chaos = &ChaosSpec{Crashes: 2, TornTails: 1, Partitions: 1}

	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"mesh", mesh, "865d6626b46d796b3a8812f6f31126b444c374bc6608913e48ba75e004f66d26"},
		{"gossip", gossip, "5bcab2b92e4a769a6c792565eea001e65a8d763bbbfb14fd6a280fac82510373"},
		{"durable", durable, "5754334a4933272794f55fde854f5cee6a73662ac2088faafcd0ce526057f2bc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Fingerprint(); got != tc.want {
				t.Errorf("fingerprint = %s, want %s\n%s", got, tc.want, rep.Summary())
			}
		})
	}
}
