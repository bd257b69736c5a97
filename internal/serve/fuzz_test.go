package serve

import (
	"encoding/json"
	"testing"
)

// FuzzSweepRequest decodes arbitrary bodies as a POST /v1/sweep does and
// expands them into units. Whatever the body, the expansion must not panic,
// and a body it accepts must expand to at most MaxUnits keys, each naming a
// known experiment, in experiments × scales × seeds order (seeds innermost).
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(`{"experiments":["srvtest"],"scales":[0.2],"seeds":[42]}`))
	f.Add([]byte(`{"experiments":["srvtest","theory"],"scales":[0.1,1],"seeds":[1,2,3],"variant":"pcc"}`))
	f.Add([]byte(`{"experiments":["srvtest"]}`))
	f.Add([]byte(`{"experiments":["nope"],"scales":[0.5]}`))
	f.Add([]byte(`{"experiments":["srvtest"],"seeds":[1,2,3,4,5,6,7,8,9]}`))
	f.Add([]byte(`{"experiments":[],"scales":[],"seeds":[]}`))
	f.Add([]byte(`{"experiments":null,"timeout":"1s"}`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(``))

	const maxUnits = 8
	s, err := NewServer(Config{MaxUnits: maxUnits, CodeVersion: "fuzz"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxSweepBody {
			return // the handler refuses these before decoding
		}
		var req SweepRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		keys, err := s.units(&req)
		if err != nil {
			return
		}
		if len(keys) > maxUnits {
			t.Fatalf("%d units accepted, budget %d", len(keys), maxUnits)
		}
		want := len(req.Experiments) * len(req.Scales) * len(req.Seeds)
		if len(keys) != want {
			t.Fatalf("%d units from %d × %d × %d", len(keys), len(req.Experiments), len(req.Scales), len(req.Seeds))
		}
		i := 0
		for _, e := range req.Experiments {
			for _, sc := range req.Scales {
				for _, sd := range req.Seeds {
					k := keys[i]
					if !s.known[k.Experiment] {
						t.Fatalf("unit %d names unknown experiment %q", i, k.Experiment)
					}
					if k != (Key{Experiment: e, Variant: req.Variant, Seed: sd, Scale: sc, Code: "fuzz"}) {
						t.Fatalf("unit %d = %+v, want %s × %v × %d in request order", i, k, e, sc, sd)
					}
					i++
				}
			}
		}
	})
}
