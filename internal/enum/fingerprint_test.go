package enum

import "testing"

// TestOptionsFingerprintStable pins optionsFingerprint, the cut-set
// identity a snapshot carries, for the configurations a parked run can be
// resumed under. A change to these values makes every snapshot already on
// disk refuse to resume (a checkpoint.MismatchError on "options"), so the
// hash inputs may be restructured only in ways that keep them.
func TestOptionsFingerprintStable(t *testing.T) {
	with := func(f func(*Options)) Options {
		o := DefaultOptions()
		f(&o)
		return o
	}
	for _, tc := range []struct {
		name string
		opt  Options
		want uint64
	}{
		{"default", DefaultOptions(), 0xd60c279c39b80463},
		{"connected-only", with(func(o *Options) { o.ConnectedOnly = true }), 0xa24ab4be37282991},
		{"max-depth-2", with(func(o *Options) { o.MaxDepth = 2 }), 0xb67480d34b341858},
		{"nin-6", with(func(o *Options) { o.MaxInputs = 6 }), 0x66dbaccc8ca2d75b},
	} {
		if got := optionsFingerprint(tc.opt); got != tc.want {
			t.Errorf("%s: optionsFingerprint = %016x, want %016x", tc.name, got, tc.want)
		}
	}
}
