package fleet

import "testing"

// FuzzParseSpec: parsing never panics; an accepted spec validates,
// re-parses from its String form to an equal spec, and that String form
// is stable. (dark=-0 canonicalizes to no dark key, which is the same
// run: -0 == 0.)
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"", "1000", "n=1000,seed=7", "n=50,horizon=0.05,epoch=2e-3,step=5e-6",
		"n=4000,seed=1,horizon=10,epoch=0.1,step=2e-4,dark=0.99",
		" n = 3 , , seed=-9223372036854775808 ", "dark=-0", "dark=1", "dark=1.0000001",
		"horizon=NaN", "epoch=Inf", "step=-1e-300", "step=4.9e-324", "n=0", "-5",
		"n=1,n=2", "seed=0x10", "bogus=1", "n", "n=1=2", "=", ",,,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(text)
		if err != nil {
			return
		}
		if err := spec.validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec that fails validate: %v", text, err)
		}
		canon := spec.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not re-parse: %v", text, canon, err)
		}
		if again != spec {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q re-parses to %+v", text, spec, canon, again)
		}
		if s := again.String(); s != canon {
			t.Fatalf("String is not stable: %q, then %q", canon, s)
		}
	})
}
